"""Failing suite reports, pinned bit for bit.

Each case runs one suite on one deliberately broken carrier: the four
mutants, every suite, the scalar and 2x8 grid carriers, the four
acceptance pairs. A case is pinned as the SHA-256 of its
``report_to_dict`` JSON and ``emit_report`` text, or as the type of the
``StarError`` raised while building or running it. The ``field`` and
``vector-space`` suites on scalar mutants are left out: which laws they
run is decided by the carrier's elements, and that changed on purpose
(see ``tests/test_axiom_harness.py``). The digests were taken before
the laws returned their operands and the runner rendered them, so a
change to a draw, a residual or a rendered counterexample shows up here.
"""

import hashlib
import json

from staralg import (
    SUITES,
    StarError,
    broken_involution,
    broken_mul,
    broken_norm,
    broken_zero,
    emit_report,
    grid_algebra,
    make_disk_domain,
    pair_of,
    report_to_dict,
    run_axiom_suite,
    scalar_algebra,
)

PAIR_NAMES = [
    ("identity", "identity"),
    ("identity", "exp"),
    ("exp", "exp"),
    ("cube", "exp"),
]
MUTANTS = (broken_zero, broken_norm, broken_mul, broken_involution)
TRIALS = 20
SEED = 23


def _pin(run) -> str:
    try:
        report = run()
    except StarError as e:
        return type(e).__name__
    text = json.dumps(report_to_dict(report)) + "\n" + emit_report([report])
    return hashlib.sha256(text.encode()).hexdigest()


def _cases():
    """(label, thunk) for every pinned mutant report."""
    for names in PAIR_NAMES:
        pair = pair_of(*names)
        tag = "-".join(names)
        dom = make_disk_domain(pair, 2, 8)
        carriers = {
            "scalar": scalar_algebra(pair),
            "grid": grid_algebra(dom),
        }
        for cname, A in carriers.items():
            for mutant in MUTANTS:
                for suite in SUITES:
                    if cname == "scalar" and suite in ("field", "vector-space"):
                        continue
                    yield f"{mutant.__name__}/{suite}/{cname}/{tag}", (
                        lambda m=mutant, s=suite, A=A: run_axiom_suite(
                            s, m(A), TRIALS, seed=SEED
                        )
                    )


def current_digests() -> dict[str, str]:
    return {label: _pin(run) for label, run in _cases()}


DIGESTS = {
    "broken_zero/norm/scalar/identity-identity": "b6222e209c5b51b56012665680263397b4f7b85a40a80cf09548bb3909ffd3f3",
    "broken_zero/normed-algebra/scalar/identity-identity": "930754b98db9e674ecc2e61ce0208951efd527e926a7b2b077f3e7a7c0586db7",
    "broken_zero/involution/scalar/identity-identity": "2de69be22c6c2fb0bcb35df941f728bc899d5e20befe66378adf8475e476ef48",
    "broken_zero/c-star/scalar/identity-identity": "9f08679b0beecd506e7ed8e069d25444bc09321af41222de626ff3aa20776357",
    "broken_norm/norm/scalar/identity-identity": "b6222e209c5b51b56012665680263397b4f7b85a40a80cf09548bb3909ffd3f3",
    "broken_norm/normed-algebra/scalar/identity-identity": "7261886b617811b1a274afa995ced5b9b06c65b57a7a57ccc017ba498f40b901",
    "broken_norm/involution/scalar/identity-identity": "5f337bc342ef073786382fb315d83cd1d93546f08b51432545763d5289047ad2",
    "broken_norm/c-star/scalar/identity-identity": "416efcdfcf4c2c71e5e61a55d3a8c12518ecc5ef12c42d4bf946622e9da4ea1a",
    "broken_mul/norm/scalar/identity-identity": "c2d4ad242c8d6ec9ceb1410743a49a539b6a35bba409e630a1a1128ea16de047",
    "broken_mul/normed-algebra/scalar/identity-identity": "c117898344c2a1ea268b49ba1c068f87a02043620034d47fd05cafac00871da0",
    "broken_mul/involution/scalar/identity-identity": "2de69be22c6c2fb0bcb35df941f728bc899d5e20befe66378adf8475e476ef48",
    "broken_mul/c-star/scalar/identity-identity": "c21abf71395b5cc5ebd98969d12e9bed12579b08491f7e085deaa145f080f3b5",
    "broken_involution/norm/scalar/identity-identity": "c2d4ad242c8d6ec9ceb1410743a49a539b6a35bba409e630a1a1128ea16de047",
    "broken_involution/normed-algebra/scalar/identity-identity": "930754b98db9e674ecc2e61ce0208951efd527e926a7b2b077f3e7a7c0586db7",
    "broken_involution/involution/scalar/identity-identity": "40cef30ee748d544ac357f59042b024fac80a19647a8b0eb28dafd15a70c2bbc",
    "broken_involution/c-star/scalar/identity-identity": "cdaaa26ad8fd90032bab283df77239185cbfdcd6224994a9e60b15b48b653e38",
    "broken_zero/field/grid/identity-identity": "UnsupportedSuiteError",
    "broken_zero/vector-space/grid/identity-identity": "e17eae3df56dcdf1c802c30b623b67c90dcf8f47e404f90d64d77743ab89e2c5",
    "broken_zero/norm/grid/identity-identity": "b6222e209c5b51b56012665680263397b4f7b85a40a80cf09548bb3909ffd3f3",
    "broken_zero/normed-algebra/grid/identity-identity": "9d72288db3701e27c785ce06796217a645755f62aafc4bec4101e8c11c531c7b",
    "broken_zero/involution/grid/identity-identity": "2de69be22c6c2fb0bcb35df941f728bc899d5e20befe66378adf8475e476ef48",
    "broken_zero/c-star/grid/identity-identity": "593be601c3a628b436b60fa9bf4b3a81fa601f4825b5fb3ab12a21f58324415b",
    "broken_norm/field/grid/identity-identity": "UnsupportedSuiteError",
    "broken_norm/vector-space/grid/identity-identity": "40c52a349f46f5bf2add47087f75ff29eb7569e9e0385723e07fb6821c87880c",
    "broken_norm/norm/grid/identity-identity": "b6222e209c5b51b56012665680263397b4f7b85a40a80cf09548bb3909ffd3f3",
    "broken_norm/normed-algebra/grid/identity-identity": "0a23d740aa403e754213b061e5fa2aa175998f34e8d03be28c9f3cdf45f445bb",
    "broken_norm/involution/grid/identity-identity": "5dcb3c93ad2bb0f704f3837b71ed37821391bdfd50217dd17e6ea1ca0a9ad4f1",
    "broken_norm/c-star/grid/identity-identity": "e8c98b28c439ce72a98f91b9d03a8ac09c83ba175b8959801cd2982fc50cdcd9",
    "broken_mul/field/grid/identity-identity": "UnsupportedSuiteError",
    "broken_mul/vector-space/grid/identity-identity": "67d794f95dfb585362452687ddf0caef1384129c1a1aae3190e8d5f2a30da346",
    "broken_mul/norm/grid/identity-identity": "574988ca396a55b8f7d816abba8e138c9748361db9939a69a8d9536f6d5593bb",
    "broken_mul/normed-algebra/grid/identity-identity": "d8aded64bf33a7a8a5af3a91fe7bfac16547fafd0f3faeec45afa3c5c2a9616f",
    "broken_mul/involution/grid/identity-identity": "2de69be22c6c2fb0bcb35df941f728bc899d5e20befe66378adf8475e476ef48",
    "broken_mul/c-star/grid/identity-identity": "09b96f5a6540d30129b1331eea69543663621055efde64a81cf083d288d0ecd5",
    "broken_involution/field/grid/identity-identity": "UnsupportedSuiteError",
    "broken_involution/vector-space/grid/identity-identity": "29d3138a882c198a7aa8babd42cdd0cd9d611da51c53296f7bd6efdbd6316c68",
    "broken_involution/norm/grid/identity-identity": "574988ca396a55b8f7d816abba8e138c9748361db9939a69a8d9536f6d5593bb",
    "broken_involution/normed-algebra/grid/identity-identity": "9d72288db3701e27c785ce06796217a645755f62aafc4bec4101e8c11c531c7b",
    "broken_involution/involution/grid/identity-identity": "f32c945344c21006a0dcc73cccd99f8672f3dacfdfe1de4951385e952deec0c4",
    "broken_involution/c-star/grid/identity-identity": "b8f8a745100dbd77551fd32a7665ddd99e9f37fab5dc884c49756216cab92cd9",
    "broken_zero/norm/scalar/identity-exp": "70ce6cbf78791e99f5937992b30e8ed01ff5bb544fdcfcdf11f5d7b080318248",
    "broken_zero/normed-algebra/scalar/identity-exp": "d36da30d9c05836a726e90e43aa9d0a189bd5aab63e48ba2591cc01e654eca78",
    "broken_zero/involution/scalar/identity-exp": "561712865c5159c788ba9a752ab43df65b797e126db271b9a922808ae03196f9",
    "broken_zero/c-star/scalar/identity-exp": "f6de0fa4b9b1baa8247a63df7c7ce1cf5763be5efe75fe50a20ac077988b60ec",
    "broken_norm/norm/scalar/identity-exp": "70ce6cbf78791e99f5937992b30e8ed01ff5bb544fdcfcdf11f5d7b080318248",
    "broken_norm/normed-algebra/scalar/identity-exp": "7b55c33724faea4b7740a02c0c4f5f7cd69e5861c19e853eb8836f0875ae4356",
    "broken_norm/involution/scalar/identity-exp": "d799939ce42d7b1b06c4def77a7e3e614e1eefa7b8f280841438fae1cf4de0e0",
    "broken_norm/c-star/scalar/identity-exp": "ab410eff135920c654088e431230b572d19ecb6c45a0bc0b7468d496216d485f",
    "broken_mul/norm/scalar/identity-exp": "21f97439df80b85a166c8416ff4a22f1db46c84a7643aa2ec40c6f4d0e4f97bc",
    "broken_mul/normed-algebra/scalar/identity-exp": "a3e8c731ee0b00c8a3e8c49b6e2addd62bddc6a05a3bef681c4bb49b165d8f19",
    "broken_mul/involution/scalar/identity-exp": "561712865c5159c788ba9a752ab43df65b797e126db271b9a922808ae03196f9",
    "broken_mul/c-star/scalar/identity-exp": "3f68dd567b162e026c7822f4efc7cc07077a325214cf5cd14bb3d71ead864064",
    "broken_involution/norm/scalar/identity-exp": "21f97439df80b85a166c8416ff4a22f1db46c84a7643aa2ec40c6f4d0e4f97bc",
    "broken_involution/normed-algebra/scalar/identity-exp": "d36da30d9c05836a726e90e43aa9d0a189bd5aab63e48ba2591cc01e654eca78",
    "broken_involution/involution/scalar/identity-exp": "10d898434f89db1aae4c02f48aceb762ad579769b2c60215e9a2144fe3f91672",
    "broken_involution/c-star/scalar/identity-exp": "b81c06fd2289c73a85b89103d5fdeb4f027c063b45bcfdcff909626174856f30",
    "broken_zero/field/grid/identity-exp": "UnsupportedSuiteError",
    "broken_zero/vector-space/grid/identity-exp": "2d13794a941f9798f2f226e7ecef4dd8863db6132862e81263554bbe4edba7e9",
    "broken_zero/norm/grid/identity-exp": "70ce6cbf78791e99f5937992b30e8ed01ff5bb544fdcfcdf11f5d7b080318248",
    "broken_zero/normed-algebra/grid/identity-exp": "481a8944f3e831f43968db071406d002ad140cb3d626dbd547226522963498df",
    "broken_zero/involution/grid/identity-exp": "561712865c5159c788ba9a752ab43df65b797e126db271b9a922808ae03196f9",
    "broken_zero/c-star/grid/identity-exp": "9a7dd1e9e57b193e2a8e6bb0ceb0ad417eee0711276fb4a321d08131fb6c0130",
    "broken_norm/field/grid/identity-exp": "UnsupportedSuiteError",
    "broken_norm/vector-space/grid/identity-exp": "7b8adaf94513725c54db807a6e5ec99fd9a90cdd332f3d7503982d1e1808afff",
    "broken_norm/norm/grid/identity-exp": "70ce6cbf78791e99f5937992b30e8ed01ff5bb544fdcfcdf11f5d7b080318248",
    "broken_norm/normed-algebra/grid/identity-exp": "c8849eadc76f1f34e544b5ed0596bc2ee4ed97db28352fa6d742749357353da3",
    "broken_norm/involution/grid/identity-exp": "d2d9689a66d8e6eddc3ec28269fcf6c01062eac4bb8ce13758bc220851252878",
    "broken_norm/c-star/grid/identity-exp": "45d7f9228358cf516640ed5a04b33393119dd6d8806c6073110cec6eea601b66",
    "broken_mul/field/grid/identity-exp": "UnsupportedSuiteError",
    "broken_mul/vector-space/grid/identity-exp": "495fdce9aa8067d0334a420d9988c85930f818cb22afe50cd622c007b44c5b62",
    "broken_mul/norm/grid/identity-exp": "3283f1ac0ce3b63eec46f1c7dd00dcb80314c50fd4e2d4f1f5aee820c3817d9c",
    "broken_mul/normed-algebra/grid/identity-exp": "3b638b20b329133aa0311630806b3e9798d91d314f096a3fb3e458b2408c9e3e",
    "broken_mul/involution/grid/identity-exp": "561712865c5159c788ba9a752ab43df65b797e126db271b9a922808ae03196f9",
    "broken_mul/c-star/grid/identity-exp": "04463b4e9e0e9cffd956853ec8641250c614042d6cff3117efadd541fc645c34",
    "broken_involution/field/grid/identity-exp": "UnsupportedSuiteError",
    "broken_involution/vector-space/grid/identity-exp": "a1a2e949f8808675af35bfbcd26c190a52255340df8f5a33066313c287080a15",
    "broken_involution/norm/grid/identity-exp": "3283f1ac0ce3b63eec46f1c7dd00dcb80314c50fd4e2d4f1f5aee820c3817d9c",
    "broken_involution/normed-algebra/grid/identity-exp": "481a8944f3e831f43968db071406d002ad140cb3d626dbd547226522963498df",
    "broken_involution/involution/grid/identity-exp": "5e181f551d37a98e7cf6b1dd4d193ba00743d1cd2bee0c647863b613bdf3ad15",
    "broken_involution/c-star/grid/identity-exp": "9537462d33689b75c39b95311f082172a12fddd7027691ff62a57c73576ceec4",
    "broken_zero/norm/scalar/exp-exp": "4fe6a2b1670217ac9c591b545d95987b8dc1c5df00bd1e4ad53d5dd6c7127b90",
    "broken_zero/normed-algebra/scalar/exp-exp": "fc6e7ae17a99193b2e047961fa1b93125571e6fde5213c3e71d9c7e28142c8ec",
    "broken_zero/involution/scalar/exp-exp": "41f221b509fb0626c295f6fcaa6034d5b3edd6c8d4ce4bad426fccf1e12e00f3",
    "broken_zero/c-star/scalar/exp-exp": "0e585b4ca3b12d4bd2184205296e518897f55d545c049acc8af23d06074f9655",
    "broken_norm/norm/scalar/exp-exp": "4fe6a2b1670217ac9c591b545d95987b8dc1c5df00bd1e4ad53d5dd6c7127b90",
    "broken_norm/normed-algebra/scalar/exp-exp": "d3c45ca71b8d0d0a64b407932009f0c8bc3083e6f0083491e7a2c1e34c3736be",
    "broken_norm/involution/scalar/exp-exp": "f134f5f7c4853f3018ffa3014b3f32ed6aeca7437dafcc7c754a790dc18a1740",
    "broken_norm/c-star/scalar/exp-exp": "fe0d707d5d6338c0445fa5fe808db127c66f1269499cb748485d1f498fc08c72",
    "broken_mul/norm/scalar/exp-exp": "d230fe4f086af9d23b21db1afd02ebf1ffebb5fcd12ba5db88ac34f5066e9ec1",
    "broken_mul/normed-algebra/scalar/exp-exp": "f1643054ce8d5baebcfd545dd5353156b1708e31138b0334f8142110f37f5650",
    "broken_mul/involution/scalar/exp-exp": "41f221b509fb0626c295f6fcaa6034d5b3edd6c8d4ce4bad426fccf1e12e00f3",
    "broken_mul/c-star/scalar/exp-exp": "1ca38153295b196230e962180349af18c234a83b343f5b0bb54bc7aa2acaaee5",
    "broken_involution/norm/scalar/exp-exp": "d230fe4f086af9d23b21db1afd02ebf1ffebb5fcd12ba5db88ac34f5066e9ec1",
    "broken_involution/normed-algebra/scalar/exp-exp": "fc6e7ae17a99193b2e047961fa1b93125571e6fde5213c3e71d9c7e28142c8ec",
    "broken_involution/involution/scalar/exp-exp": "41cd84b6b2a06a8d07bf7e4bba507024f82a4eabbaae543f6dba8d18be4dfe9f",
    "broken_involution/c-star/scalar/exp-exp": "76434ab33cb0b67d541aa477159fd3fb80f4ef1dec1084faa2a104614b09eabc",
    "broken_zero/field/grid/exp-exp": "UnsupportedSuiteError",
    "broken_zero/vector-space/grid/exp-exp": "a76be8396b2851eafaf2e62d2bf4fd730bba594216cda6d7bba1e5af892e5559",
    "broken_zero/norm/grid/exp-exp": "4fe6a2b1670217ac9c591b545d95987b8dc1c5df00bd1e4ad53d5dd6c7127b90",
    "broken_zero/normed-algebra/grid/exp-exp": "4f29ca3e93d8eb2e9aaa61ebf16147e81b80fddc84fadd8eb60ae3a3c07ed8d9",
    "broken_zero/involution/grid/exp-exp": "41f221b509fb0626c295f6fcaa6034d5b3edd6c8d4ce4bad426fccf1e12e00f3",
    "broken_zero/c-star/grid/exp-exp": "1aed8e253eb1929973102a8912b7fe52042837cc029b4e812c5d0a8e41db4c84",
    "broken_norm/field/grid/exp-exp": "UnsupportedSuiteError",
    "broken_norm/vector-space/grid/exp-exp": "f286b978ec72303f5389d71c53387ba5666e4a74ae7ec09a0aca8678a5caa284",
    "broken_norm/norm/grid/exp-exp": "4fe6a2b1670217ac9c591b545d95987b8dc1c5df00bd1e4ad53d5dd6c7127b90",
    "broken_norm/normed-algebra/grid/exp-exp": "7e4d315fb36f218d9c82ca955b57da44e546718cf1dfed8c92f7b327bffde619",
    "broken_norm/involution/grid/exp-exp": "f459fbd8f6c88b2f1718e75ddb20a925e506a4f6211b74b6975e73619fc941c5",
    "broken_norm/c-star/grid/exp-exp": "b2c36bdc69da06c7bb3fdf976d8dcb5661e4e4db688088ad8b93dbbb111b58f5",
    "broken_mul/field/grid/exp-exp": "UnsupportedSuiteError",
    "broken_mul/vector-space/grid/exp-exp": "4d3f55dc2bee1a47b10132015923104f920ed08381f40dc3958a68c34357d114",
    "broken_mul/norm/grid/exp-exp": "7ba470c3a6801b6318fc8dcc6506a8f547c81cc22d588a3ea60cd1d5eda03308",
    "broken_mul/normed-algebra/grid/exp-exp": "eaccd083adae21b830193048e46d524bc4dba2ecf3494b3cb431a1d81a84ea3c",
    "broken_mul/involution/grid/exp-exp": "41f221b509fb0626c295f6fcaa6034d5b3edd6c8d4ce4bad426fccf1e12e00f3",
    "broken_mul/c-star/grid/exp-exp": "4e22ff931ccb2b54144160e01e424b98bffd387b493f8ab07ee8ae78ffe280b8",
    "broken_involution/field/grid/exp-exp": "UnsupportedSuiteError",
    "broken_involution/vector-space/grid/exp-exp": "6e573d84d5d006b148d5c26583af0654bbbf66c616391c20eb02f36aed2311d4",
    "broken_involution/norm/grid/exp-exp": "7ba470c3a6801b6318fc8dcc6506a8f547c81cc22d588a3ea60cd1d5eda03308",
    "broken_involution/normed-algebra/grid/exp-exp": "4f29ca3e93d8eb2e9aaa61ebf16147e81b80fddc84fadd8eb60ae3a3c07ed8d9",
    "broken_involution/involution/grid/exp-exp": "feab58d296b9e0aed8e39569e278c4282273d0586f8add49be7486220128b761",
    "broken_involution/c-star/grid/exp-exp": "2627ab9fb8cc01ceefc1093ac35c7f1906c7b71dec36d131ca2f1784430efb06",
    "broken_zero/norm/scalar/cube-exp": "48f645b1bd772a7bf551e402941167bc222d61c417a746c0a8287343ca015559",
    "broken_zero/normed-algebra/scalar/cube-exp": "86d285df8c99c9d7f261da9ec17125118b8992cdea37d8d2132537082657d60a",
    "broken_zero/involution/scalar/cube-exp": "ce57defff6af3e80ac2179d2d13f98a25866fe3e3de6b056985b1c481eb9cb49",
    "broken_zero/c-star/scalar/cube-exp": "0b1459d1a36dd8394a6a50b1613f878d41ec023bac1a999961d7cb88cb66331b",
    "broken_norm/norm/scalar/cube-exp": "48f645b1bd772a7bf551e402941167bc222d61c417a746c0a8287343ca015559",
    "broken_norm/normed-algebra/scalar/cube-exp": "23db7ab6cce9d801388906908f7e887b086b2c850e8dc8884fa4355853216f3f",
    "broken_norm/involution/scalar/cube-exp": "17015ef75b7e77ec026809c08e3078a466c0afcd0f86719be80f191a05bc8e32",
    "broken_norm/c-star/scalar/cube-exp": "ffc90262af42e5ae2c28315fbc3403ce417a55e7337e781fa3b4c9e2d01f17d0",
    "broken_mul/norm/scalar/cube-exp": "4f5c6dcdfadbe3aa2c488f141563bbd1f2a14ef9cfb77a1aa4e2f16d994947b8",
    "broken_mul/normed-algebra/scalar/cube-exp": "60a6a4406a5c7dec8dfce9fda3eb31b967b7de7dcb2c227126a53daef89ac4f3",
    "broken_mul/involution/scalar/cube-exp": "ce57defff6af3e80ac2179d2d13f98a25866fe3e3de6b056985b1c481eb9cb49",
    "broken_mul/c-star/scalar/cube-exp": "8ea816a9b1f1f7281c47822729bc43a1cf979792c4cea28cb947e5398fb476de",
    "broken_involution/norm/scalar/cube-exp": "4f5c6dcdfadbe3aa2c488f141563bbd1f2a14ef9cfb77a1aa4e2f16d994947b8",
    "broken_involution/normed-algebra/scalar/cube-exp": "86d285df8c99c9d7f261da9ec17125118b8992cdea37d8d2132537082657d60a",
    "broken_involution/involution/scalar/cube-exp": "18c26b7ea4bcf0a27f6aefa8b4e7a23418b0b1a0527971afd03a77586b21fef4",
    "broken_involution/c-star/scalar/cube-exp": "695c0eec1fb85d7a041500c815284862975ed12972de5ac9a6d3f4c412493ead",
    "broken_zero/field/grid/cube-exp": "UnsupportedSuiteError",
    "broken_zero/vector-space/grid/cube-exp": "1146f95f2b667bd7bbe35d04c5699fdd79db45582eeec295c298982d00c864cd",
    "broken_zero/norm/grid/cube-exp": "48f645b1bd772a7bf551e402941167bc222d61c417a746c0a8287343ca015559",
    "broken_zero/normed-algebra/grid/cube-exp": "0785c351fa84334234d98a133ad12a52ad7800ddb39760f86c382d1634df7116",
    "broken_zero/involution/grid/cube-exp": "ce57defff6af3e80ac2179d2d13f98a25866fe3e3de6b056985b1c481eb9cb49",
    "broken_zero/c-star/grid/cube-exp": "393012fafa32567219afe69210440054d98c01f9bcf13c8032ae78077654c353",
    "broken_norm/field/grid/cube-exp": "UnsupportedSuiteError",
    "broken_norm/vector-space/grid/cube-exp": "4b1f41dda8b288401211ec2f48e02c47b1e95cb26f2801dfae4c905eb2d369da",
    "broken_norm/norm/grid/cube-exp": "48f645b1bd772a7bf551e402941167bc222d61c417a746c0a8287343ca015559",
    "broken_norm/normed-algebra/grid/cube-exp": "16729d99541645db05d1cc4bf821e1e726001b12793ff55920f5180c7ce9365f",
    "broken_norm/involution/grid/cube-exp": "94a9ee0ecd3492b3a878d8acf5bc5e731072908d1279b45e20ad7a0f767d3077",
    "broken_norm/c-star/grid/cube-exp": "1dcf9759e6fec1a0b91519dd7a4428bab938d32cfbd8be586d4597fc9a690f38",
    "broken_mul/field/grid/cube-exp": "UnsupportedSuiteError",
    "broken_mul/vector-space/grid/cube-exp": "ddc8a4d38b38fe496ef1bacca734f25f0f2922230ec51ac420eae0fada319331",
    "broken_mul/norm/grid/cube-exp": "fcfce36ba64010b4d60c7609a21456cba8c5ab70b99e3cbd0cbb1b7aa258dd74",
    "broken_mul/normed-algebra/grid/cube-exp": "1c57b8c8f0b1a7ac32282037a7417a3d53beb079fe0f15edc920e9ebf5ef9282",
    "broken_mul/involution/grid/cube-exp": "ce57defff6af3e80ac2179d2d13f98a25866fe3e3de6b056985b1c481eb9cb49",
    "broken_mul/c-star/grid/cube-exp": "630d93aacbcb954eafd367d59db79ea700c05706b21ebd419894a6bd4aa902e2",
    "broken_involution/field/grid/cube-exp": "UnsupportedSuiteError",
    "broken_involution/vector-space/grid/cube-exp": "c1bf96a0d6cff2fc7bfbaa1426c043eb5663b436a1dfef8ebf1b30618dba1aed",
    "broken_involution/norm/grid/cube-exp": "fcfce36ba64010b4d60c7609a21456cba8c5ab70b99e3cbd0cbb1b7aa258dd74",
    "broken_involution/normed-algebra/grid/cube-exp": "0785c351fa84334234d98a133ad12a52ad7800ddb39760f86c382d1634df7116",
    "broken_involution/involution/grid/cube-exp": "6d2b37b054b31ce583e1fac2e1b445ada8bf2ce41c3458989a38f546fe5604cd",
    "broken_involution/c-star/grid/cube-exp": "64ed3c83605d34ebac1985b5d5084192731ca5bbde684d46192013ee673d1d6d",
}


def test_every_mutant_report_is_pinned():
    got = current_digests()
    assert sorted(got) == sorted(DIGESTS)
    changed = [label for label in DIGESTS if got[label] != DIGESTS[label]]
    assert changed == []
