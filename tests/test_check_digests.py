"""Every check's output, pinned bit for bit.

Each case is the SHA-256 of one report's ``report_to_dict`` JSON and of
its ``emit_report`` text. The digests were taken before the checks were
moved onto the one trial runner, so any change to a draw, a residual, a
counterexample or a note shows up here.
"""

import hashlib
import json

from staralg import (
    HomomorphismHandle,
    UnsupportedSuiteError,
    SUITES,
    c_mul,
    emit_report,
    evaluation_functional,
    from_preimages,
    grid_algebra,
    homomorphism_check,
    kernel_image_closure_check,
    make_disk_domain,
    pair_of,
    report_to_dict,
    run_axiom_suite,
    scalar_algebra,
    star_homomorphism_check,
    unital_functional_check,
)

PAIR_NAMES = [
    ("identity", "identity"),
    ("identity", "exp"),
    ("exp", "exp"),
    ("cube", "exp"),
]
TRIALS = 40
SEED = 17
MORPHISM_CHECKS = (
    homomorphism_check,
    star_homomorphism_check,
    kernel_image_closure_check,
    unital_functional_check,
)


def _skewed(dom) -> HomomorphismHandle:
    """Evaluation at a grid point times a fixed unimodular scalar. It is
    linear but neither multiplicative nor star-preserving, and it does
    not fix the unit, so every law leaves a residual to pin; an exact
    evaluation functional leaves residuals of 0.0."""
    w = from_preimages(dom.pair, 0.6, 0.8)
    return HomomorphismHandle(
        source=grid_algebra(dom),
        target=scalar_algebra(dom.pair),
        map=lambda f: c_mul(f.at(3), w),
        name="skewed evaluation",
    )


def _digest(report) -> str:
    text = json.dumps(report_to_dict(report)) + "\n" + emit_report([report])
    return hashlib.sha256(text.encode()).hexdigest()


def _cases():
    """(label, thunk) for every pinned report."""
    for names in PAIR_NAMES:
        pair = pair_of(*names)
        tag = "-".join(names)
        dom = make_disk_domain(pair, 2, 8)
        carriers = {
            "scalar": scalar_algebra(pair),
            "grid": grid_algebra(dom),
        }
        for cname, A in carriers.items():
            for suite in SUITES:
                yield f"{suite}/{cname}/{tag}", (
                    lambda s=suite, A=A: run_axiom_suite(s, A, TRIALS, seed=SEED)
                )
        for check in MORPHISM_CHECKS:
            yield f"{check.__name__}/{tag}", (
                lambda c=check, d=dom: c(
                    evaluation_functional(d, d.points[3]), trials=TRIALS, seed=SEED
                )
            )
            yield f"{check.__name__}/skewed/{tag}", (
                lambda c=check, d=dom: c(_skewed(d), trials=TRIALS, seed=SEED)
            )


def current_digests() -> dict[str, str]:
    out = {}
    for label, run in _cases():
        try:
            out[label] = _digest(run())
        except UnsupportedSuiteError:
            pass
    return out


DIGESTS = {
    "field/scalar/identity-identity": "daea4afd1aaf4323ee9d38f0d1643e4b6f2a8d3609573f1d533d813610c1884b",
    "vector-space/scalar/identity-identity": "29f1ddec07c9d9717955008818f556869621ed73e2eef2fa19b3281d06a0a38e",
    "norm/scalar/identity-identity": "1457422292b7b3ebc2a0690df9514a0582f3e73a672a6713914af4126b0fc1bb",
    "normed-algebra/scalar/identity-identity": "f8bddf33dce08c67c63cc9642472e3a9bc5ec9ce2c3e6ac55e2b7beef25b0b5a",
    "involution/scalar/identity-identity": "389b282e5d908e0407047347496106f76926921f11af03e3e702c9cef7cabbed",
    "c-star/scalar/identity-identity": "82aa24ce3d353b18849cdb64c6400ae18ab9a2c04e4eb1381ecd2df60d2533b9",
    "vector-space/grid/identity-identity": "ec74b8633216c563294321451233d716c80aef9cd4ce0bd556c233aacd0d7205",
    "norm/grid/identity-identity": "bc5c6f554409da7bab8ddff36d739fe6cc2ddfe1e90cc2da6adea49019beede9",
    "normed-algebra/grid/identity-identity": "87efcea5d5df18eb30b299e659b4a6123f01ed3010df09d3f3a35017d25fbdbf",
    "involution/grid/identity-identity": "389b282e5d908e0407047347496106f76926921f11af03e3e702c9cef7cabbed",
    "c-star/grid/identity-identity": "7e0612896d3448bdacc32d8896a5cc77f944620845ec2e895b11c1940162dbce",
    "homomorphism_check/identity-identity": "779a0812d7a261f5c1d3355c05a4860051d69a97c5d3d9c80c95b71ec42431cd",
    "homomorphism_check/skewed/identity-identity": "100079e319a40bf7f59d20d258fe2291cbbea900f52cf56e6cb1c0358e71477a",
    "star_homomorphism_check/identity-identity": "1113ee41e18a0d0ab72d9ced687a352b907fdb468e003138a32249852716bc9a",
    "star_homomorphism_check/skewed/identity-identity": "b430fd59b86b0582c06c148ec2503d42d53d87c873327c61b98b3d85d4bf336f",
    "kernel_image_closure_check/identity-identity": "77b58e47ae709a8a58d4607896718030c986091f1be52b5a72b687fbf3123c46",
    "kernel_image_closure_check/skewed/identity-identity": "e323042c200be1f77bb5822202d755ec7c105d00e7e89269a4adff4687601c60",
    "unital_functional_check/identity-identity": "2b1fc1a9e3f0c159fc73553a7e91c2a7b172dbe6cf3709ffc5a30d5f3ad662a9",
    "unital_functional_check/skewed/identity-identity": "172da30cc71e5055b51e33d26e5faeba411fabcbf493a8193f4b9b689f4cda1e",
    "field/scalar/identity-exp": "4adcfaedfa9f25ea8d0e4622f2e03d1a493dbbe869b301e500819e8c2225809f",
    "vector-space/scalar/identity-exp": "e6558872beef98645532a0bcacb6aee5c691adaf164e315d4960fe6e455ba3b9",
    "norm/scalar/identity-exp": "3d2c24044310fb0d5d16fe8b9fa8792084920bc5be4f817b286b2f40c8c46749",
    "normed-algebra/scalar/identity-exp": "0dc6387582fb579b418c2532687b5a1cc4f24556a024cb1ca20f619e7703dc26",
    "involution/scalar/identity-exp": "69965b737ce7e6d694766b71ade0b4e7cf0cf2789ea5cff712c3b41b7ab660b2",
    "c-star/scalar/identity-exp": "c1a6d9b351f6cbd38347a89a61f6db478492d060fce952d6290c283ef5824b08",
    "vector-space/grid/identity-exp": "6181bc22532dc2f42b66b4cb7de2142560672eddeb7f3e3b08d35ab44cae5eec",
    "norm/grid/identity-exp": "1f3d87c722c451139c5aaae7a63d1534243481887564742845c637b3c4a47d2d",
    "normed-algebra/grid/identity-exp": "2a599b9d80e2d7fc775d185769ca34303f8d219d245d28f41c90492de5dda191",
    "involution/grid/identity-exp": "69965b737ce7e6d694766b71ade0b4e7cf0cf2789ea5cff712c3b41b7ab660b2",
    "c-star/grid/identity-exp": "908882ab537bcfe0bc296c8145e0c1260c90ec764ec752e7f69d7f7c4a379bd4",
    "homomorphism_check/identity-exp": "d4e9183dbdeb607e6f65a022b52459c093624c15883ba4f9126dcbb003e57001",
    "homomorphism_check/skewed/identity-exp": "884f656af841ee58dcb664e4b29d9cc7a20f5b96af1a8c200a9f422f82e17d83",
    "star_homomorphism_check/identity-exp": "6bd4fa6dea03ea540176784d554041084546c8d0da3bf91a91a4bce8df15fd7c",
    "star_homomorphism_check/skewed/identity-exp": "1681d3ec1b1eeae5424b0da24dc2d1a816f9b448d3504683b9d8217a953a6d06",
    "kernel_image_closure_check/identity-exp": "9962194706eb9c238a4de7dfec298ba3d09487bcfa91eea05fcea959210cfd16",
    "kernel_image_closure_check/skewed/identity-exp": "c123ba4539e39d1d537b12a9a9ab4c5ee06c789d8458570f420349ed5e58bab6",
    "unital_functional_check/identity-exp": "c3740ba4e80fcd426f4a35ca0f6329251baa907f786eafbbc6309b271efa6eab",
    "unital_functional_check/skewed/identity-exp": "3a50485ab853dc0be7fb11568e6975333eeddd04fe11f6036d5a77fa7feb0bad",
    "field/scalar/exp-exp": "a9a3b8bd05fb4876380300a30b2d7461ebdeec92cae42df7321ed8e91c82c01b",
    "vector-space/scalar/exp-exp": "a944b035e48ea3a4e0d02de3629aae443ec603c4f3a3e5686c4367f89493beb6",
    "norm/scalar/exp-exp": "38f81ff4bad00adcc69f962bd00a40fd4b02f64710f542f30a24415bc7465b69",
    "normed-algebra/scalar/exp-exp": "f8dc347be7c8f8b0f6ccf05d71546a51a06e8458621caa8ef349672616058995",
    "involution/scalar/exp-exp": "03f3864e5bdbe590449622a1360cd8abf33bb0f09c28dd6aa12d2aeab27e3884",
    "c-star/scalar/exp-exp": "a11e4ee05308663f477259d312dde74a9e0b02a32024404d592f67f87eed842a",
    "vector-space/grid/exp-exp": "c7f845faa6400d241af73c8c5e9941de9b6b422995d316ea3b508341243fa61c",
    "norm/grid/exp-exp": "6b5838f714298bf865bb482543da112036fca9c7af001117a51e3b683e19e535",
    "normed-algebra/grid/exp-exp": "815745eeeb710461b59dbf28ddf0c0c7d5263ce6dd39770f077da463217467f5",
    "involution/grid/exp-exp": "03f3864e5bdbe590449622a1360cd8abf33bb0f09c28dd6aa12d2aeab27e3884",
    "c-star/grid/exp-exp": "60ac4ac08c10dc05aa6c81f72d3d536c21e513db9ccff1a379f3ef6ef39167b8",
    "homomorphism_check/exp-exp": "2efc457cac7e394ce8c70074c19d425707457719c1324da37f79801c61eddc8a",
    "homomorphism_check/skewed/exp-exp": "dec521822db50a342b45b5277928a96f58f69561fc71b08b80d8468cff71f409",
    "star_homomorphism_check/exp-exp": "eb6816b9f6406a352e78344066d9bc0d32a2cbcbe057c9d586e3854c47646338",
    "star_homomorphism_check/skewed/exp-exp": "e3a7152e9f8f6fd7daef9d48c04bbe4afb6709a163202d5e415d8ae92de7452a",
    "kernel_image_closure_check/exp-exp": "eaa3854d30626a602f746e76b9fb91fbae132a52877f10e8b9aab78c2a59529b",
    "kernel_image_closure_check/skewed/exp-exp": "50b3edb0dab76c35ccdaa9276d370c5d20768fca7e874499eecd19bfd450cdbd",
    "unital_functional_check/exp-exp": "e467e8ad5a42e37ab73500ad522b6133a371b39232ae93ad5d46894cca5082de",
    "unital_functional_check/skewed/exp-exp": "02b7071abe9336613ce7235fbf98fb3adfa35e4497396d0da21a72200ad69cb8",
    "field/scalar/cube-exp": "06dee367798f4fd89949022a051f39a9a01fdbe47f62f4b180f2f41045142edc",
    "vector-space/scalar/cube-exp": "fe3f91ef011da2522f03efd10d8bbe85d93fd9e5fff29ed611418ffd8b281d06",
    "norm/scalar/cube-exp": "472336248c8d7f9d948903ee2abf97ec89f790889692142e3e1853a4f7e92107",
    "normed-algebra/scalar/cube-exp": "587fbf197da7c18a3b904363831a1aa5117c553c9c352c8026a51365d6afe892",
    "involution/scalar/cube-exp": "b51ebb55d759869d4348bd62d31f37b16b92e3f1bc3a9e0b3e286fa5d6b05ced",
    "c-star/scalar/cube-exp": "13adda1290e9c95e0d6170e50da4e0ba4596cebe43810a10af657d6158d0c289",
    "vector-space/grid/cube-exp": "c87330e7fd6b68a37f8be8729b80475ccfabf81f79aae5cc0ed393725f81db4c",
    "norm/grid/cube-exp": "76a0a00987326e8d2d247e1927b595ca00fd232251de1ed0c0f8c3de1b5dea46",
    "normed-algebra/grid/cube-exp": "3763373a24bbdd30abe24b8b7fbe3d835ea163258853933afdc653f8c5dcb1be",
    "involution/grid/cube-exp": "b51ebb55d759869d4348bd62d31f37b16b92e3f1bc3a9e0b3e286fa5d6b05ced",
    "c-star/grid/cube-exp": "873f52ad62e23bc59f2ac2f98fff7ec7ec1379fff4efe436efb6a7e88e5372ab",
    "homomorphism_check/cube-exp": "6f2ad54fc62c89a4271fc60688fff8d02816cb7dd49c548ddb26bbfeb531043e",
    "homomorphism_check/skewed/cube-exp": "5173be4c50a7202737f5ca220b9d8880aeaf181127770da8fbd0db1a27ac360f",
    "star_homomorphism_check/cube-exp": "f5cd64a0c1d5c52e2d2340bdb2923ba5f804e05a36ddd5112900bbd0327fa2da",
    "star_homomorphism_check/skewed/cube-exp": "cfd0c32e502047224713b6d14d43ba24b276de0a6f35d0ffa92363f59e0eaa25",
    "kernel_image_closure_check/cube-exp": "a661dddbc5c4b99d8bbf4f11e20fc9d6880baf5dbbb47dde156bcd0024c21d20",
    "kernel_image_closure_check/skewed/cube-exp": "2a0f04d7f4e551fc202ca15022beb11b17ca306736ed8074df57e1e312440770",
    "unital_functional_check/cube-exp": "01b00ca747847ec851ba1ed10446dd4e41da165215cac58e3193b104fff64f6a",
    "unital_functional_check/skewed/cube-exp": "8a057ddf60e8f3928d6c2c22afae1a80a1e4c8c12b5b21ec54812d0e36bf0673",
}


def test_every_check_output_is_pinned():
    got = current_digests()
    assert sorted(got) == sorted(DIGESTS)
    changed = [label for label in DIGESTS if got[label] != DIGESTS[label]]
    assert changed == []
