"""Golden digests of the CLI's --json reports on the shipped configurations.

Each case runs one command and pins the exit code and the sha256 of its
stdout.  The windowed module reports carry the xi exponents chosen by the
component flood, which depend on its visit order and on the order of
``Lattice.steps``; nothing else pins them.  A digest change means a report
changed; the fix is in the code, not here.
"""

import hashlib
from pathlib import Path

import pytest

from vertexmod.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# (config, component or None, command args after the file) -> (exit, sha256)
GOLDEN = {
    ('example1_d4.cfg', None, ('components',)): (0, '5f6746717b386bde97e3506285dbc28260b2ac2aae668e58c708ded7e27aa992'),
    ('example1_d4.cfg', 0, ('module', '--window', '-30', '30')): (0, 'f6f670ea8936a2f954b53e9a63c7360e9a2063b1f26ed3fe090e41fb11fd46ed'),
    ('example1_d4.cfg', 0, ('module', '--window', '-3', '5')): (0, 'f6f670ea8936a2f954b53e9a63c7360e9a2063b1f26ed3fe090e41fb11fd46ed'),
    ('example1_d4.cfg', 0, ('casimir', '--all-words', '--window', '-12', '12')): (0, '34addc8054a002a9778462cdd16eb567d192aafe823e8ca2c4160003f2a83046'),
    ('example1_d4.cfg', 0, ('signature',)): (0, 'cf18ad90161abd53183e9b0cfef1bb87e4a8c7c8981ae2f0917277df75c28fc4'),
    ('example1_d4.cfg', 1, ('module', '--window', '-30', '30')): (0, '404258fce99c891d99407c3c7816f4e830c76e5edb76df72cf25c49fc81fc19e'),
    ('example1_d4.cfg', 1, ('module', '--window', '-3', '5')): (0, '902d3aabcbd26013b9dff595aa6ccf1cd5bae70a0303209d000407e00771ce33'),
    ('example1_d4.cfg', 1, ('casimir', '--all-words', '--window', '-12', '12')): (0, '40c310ef55d42ad706c54fe6bb6ddad5bf137fd1e7fdd9d8b5bbad56a0b18182'),
    ('example1_d4.cfg', 1, ('signature', '--window', '-30', '30')): (0, 'bd5184b6faa85c94731189889fb2453b02d205e4eb78278f60d3d2b956b77f5d'),
    ('example1_d4.cfg', 2, ('module', '--window', '-30', '30')): (0, '9d8b14a7166086158118e100f3e2dde081903247f7a27807690023342a8718c0'),
    ('example1_d4.cfg', 2, ('module', '--window', '-3', '5')): (0, 'd6ab31642fb02bbcd24d991f965870c52a05f1681f0c73afb6c6daca7c52d8d3'),
    ('example1_d4.cfg', 2, ('casimir', '--all-words', '--window', '-12', '12')): (0, 'f58e6666552cd7c3be613e2ea04357c6cb9f1d2dabbaab0123129ce66317868f'),
    ('example1_d4.cfg', 2, ('signature', '--window', '-30', '30')): (0, '4ff14183aa294af41394d13dc817d3aba808370d4db1f730c2e57c3739fb8712'),
    ('example2.cfg', None, ('components',)): (0, 'c86f2a0834e61530b95cfaa0cd1c6d782055ad218fce85c3018a5588bba800ec'),
    ('example2.cfg', 0, ('module', '--window', '-30', '30')): (0, '4c3786498946c09bc07d3caff15f3dd7bfb33eae6d2fd21f1a48d978c28d0e4e'),
    ('example2.cfg', 0, ('module', '--window', '-3', '5')): (0, '4c3786498946c09bc07d3caff15f3dd7bfb33eae6d2fd21f1a48d978c28d0e4e'),
    ('example2.cfg', 0, ('casimir', '--all-words', '--window', '-12', '12')): (0, 'c9ee5b2e89850d622db1d57484ba87bbc764c8009e7f14b87dad91e1dd81d6bd'),
    ('example2.cfg', 0, ('signature',)): (0, '81d1495f6cb57f0e2ec61fbd5c5734386e284bf75de683bec08d040d0e8f7fee'),
    ('example2.cfg', 1, ('module', '--window', '-30', '30')): (0, '6346337671ca8c241a38364a713ca71fad58d1314ded5b564e6c7e60e8f0adc9'),
    ('example2.cfg', 1, ('module', '--window', '-3', '5')): (0, '6346337671ca8c241a38364a713ca71fad58d1314ded5b564e6c7e60e8f0adc9'),
    ('example2.cfg', 1, ('casimir', '--all-words', '--window', '-12', '12')): (0, '35e50a83a9035ef90c69e3682d21505cb90d7d708d076a2030c1371c7d66c7b2'),
    ('example2.cfg', 1, ('signature',)): (0, '5ce24f51cf3c042ded4d7c72dfc67167a9fcb02c6cd74a95924cc395bdcf0206'),
    ('example2.cfg', 2, ('module', '--window', '-30', '30')): (0, '83c625a78e645b20d898fa59c550aed7c84a94a3389c0a3a911e3a3da0ad0e46'),
    ('example2.cfg', 2, ('module', '--window', '-3', '5')): (0, 'baca14c3c58746fdc22e317d6bc9304ba9591c95506ad50441b0b45ed761c4da'),
    ('example2.cfg', 2, ('casimir', '--all-words', '--window', '-12', '12')): (0, 'd415fda11a9f200280d5f5cdbbe4a79f2cbfc7339aa433bbf378fa8e9556459b'),
    ('example2.cfg', 2, ('signature', '--window', '-30', '30')): (0, '2a9bb7f83cf2e350aaf6cd9cbd0e880556bdecf1483813d813b88be3b8b6aa81'),
    ('example2.cfg', 3, ('module', '--window', '-30', '30')): (0, 'f4259a8b5cb90b3053f92326a9cf6c0aea3f1f9ca672b1a3c64394c3abb66e42'),
    ('example2.cfg', 3, ('module', '--window', '-3', '5')): (0, 'f27ce2455e91b056adc2abc9df52b3c6e2423b593e81843410b22d4908dfd645'),
    ('example2.cfg', 3, ('casimir', '--all-words', '--window', '-12', '12')): (0, '37fc24e2cb2699b2365abb313a6da969011dfac90003fe5594d58c118b58110c'),
    ('example2.cfg', 3, ('signature', '--window', '-30', '30')): (0, 'f2730ff1812c2b133e247686b7d90613173249c319cf7e88615472af8f7b44eb'),
    ('example3.cfg', None, ('components',)): (0, '24bbbd96d532eb4f06d8b41252d74096af32d7d17bb9cc383bb80ed4a6a2c477'),
    ('example3.cfg', 0, ('module', '--window', '-30', '30')): (0, 'b9f89b5e72876c71873daacc9e38ce343213de63ae038abbcf446c30928ca5dd'),
    ('example3.cfg', 0, ('module', '--window', '-3', '5')): (0, 'b9f89b5e72876c71873daacc9e38ce343213de63ae038abbcf446c30928ca5dd'),
    ('example3.cfg', 0, ('casimir', '--all-words', '--window', '-12', '12')): (0, 'c9ee5b2e89850d622db1d57484ba87bbc764c8009e7f14b87dad91e1dd81d6bd'),
    ('example3.cfg', 0, ('signature',)): (0, '21b22689bcb5bb8b2ca4a51d4db1b128cc89c5914432ef751e066bd92b43f3a6'),
    ('example3.cfg', 1, ('module', '--window', '-30', '30')): (0, '5c1475f03a0dd11b5f56b5c3795778104a3993167129d1eec7585b6e20089696'),
    ('example3.cfg', 1, ('module', '--window', '-3', '5')): (0, '5c1475f03a0dd11b5f56b5c3795778104a3993167129d1eec7585b6e20089696'),
    ('example3.cfg', 1, ('casimir', '--all-words', '--window', '-12', '12')): (0, '775eace932a16c772cb621163cdfcaa3faba00ae46e1826edfacdb9ab0fdd81d'),
    ('example3.cfg', 1, ('signature',)): (0, '8feae36231a55d146882f754f3d208fedf6432737e31236e208dd57ac28ec9be'),
    ('example3.cfg', 2, ('module', '--window', '-30', '30')): (0, 'fe83c43e756f208ff86ad31ae347d14a2e52b59697825bb2a2cbc6a543311207'),
    ('example3.cfg', 2, ('module', '--window', '-3', '5')): (0, 'c17b5f2d80f21f35157398fa7f4e0a230860e90003ec252817775be5250a79f1'),
    ('example3.cfg', 2, ('casimir', '--all-words', '--window', '-12', '12')): (0, 'f47977f90a99daed81e545ea96fc53c7562a9aab2b8883f63e88bc39bd7a96e1'),
    ('example3.cfg', 2, ('signature', '--window', '-30', '30')): (0, '0221c20f030bb936dafd92ce0d8f52347577bb4aa0f43cbe136f43ba84c7adbf'),
    ('example3.cfg', 3, ('module', '--window', '-30', '30')): (0, '623de0a4acf87cf4e5d58dfe64b8bdc697a5aebf6f071832089a819cb7b04441'),
    ('example3.cfg', 3, ('module', '--window', '-3', '5')): (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('example3.cfg', 3, ('casimir', '--all-words', '--window', '-12', '12')): (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('example3.cfg', 3, ('signature', '--window', '-30', '30')): (0, '313ade9a314c3abd06ee3c7c0853100811abe798de942e570a5d2712dd895768'),
    ('example4.cfg', None, ('components',)): (0, 'f70898bf2225ca8e9a42a4b7a7dbd0da3ec8c2fc2c71fd0435c96faad69236f7'),
    ('example4.cfg', 0, ('module', '--window', '-30', '30')): (0, 'cafd1baa56345ef87ffde0bb9bb085c94829c3cb12015c5dd6d6ae8fc0670884'),
    ('example4.cfg', 0, ('module', '--window', '-3', '5')): (0, 'cafd1baa56345ef87ffde0bb9bb085c94829c3cb12015c5dd6d6ae8fc0670884'),
    ('example4.cfg', 0, ('casimir', '--all-words', '--window', '-12', '12')): (0, '0e1c9ec3500610b7e3eb99349c7dd7881c08bb479e1459956ceb64693147e983'),
    ('example4.cfg', 0, ('signature',)): (0, '684382b58f726e6554d0df6de76da6a3936f5e9ad27a520734042af0d88a6bf6'),
    ('example4.cfg', 1, ('module', '--window', '-30', '30')): (0, 'a7e5167ad4d4982df58b818ee50cbb9050ea26a55f99c9c1e684b10c30003353'),
    ('example4.cfg', 1, ('module', '--window', '-3', '5')): (0, '6397be33a2792a01adf5d9a4a34b0f9450b84320b5ec5f5c276d63ca26f41fd6'),
    ('example4.cfg', 1, ('casimir', '--all-words', '--window', '-12', '12')): (0, 'e54122833bec983c2147aed64160e2b9de518f0a95c2909d2c3866ca50920bbf'),
    ('example4.cfg', 1, ('signature', '--window', '-30', '30')): (0, '0a27dc301dfcdd6bf1d34798dacc77ed907f7cb32060777f019e5c3d4f05462c'),
    ('example4.cfg', 2, ('module', '--window', '-30', '30')): (0, 'cf5f5d1d9f3a2feac1bf51dd44fef3dd5ee37b0c9af81312ba2f545b6c752f1b'),
    ('example4.cfg', 2, ('module', '--window', '-3', '5')): (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('example4.cfg', 2, ('casimir', '--all-words', '--window', '-12', '12')): (1, 'a121a6548bf48466737c116211c7e171327ae2fbdd2dc9ac3f1ec4f7140ec800'),
    ('example4.cfg', 2, ('signature', '--window', '-30', '30')): (0, 'ee76550ae40c7ab1be13ca561b48ea56caf373bca8930351b91e12f3610f2f61'),
}


def run_case(name, comp, args, capsys):
    argv = [args[0], str(CONFIGS / name), *args[1:], "--json"]
    if comp is not None:
        argv += ["--component", str(comp)]
    code = main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("case", list(GOLDEN), ids=lambda c: f"{c[0]}-{c[1]}-{'_'.join(c[2])}")
def test_golden_json(case, capsys):
    assert run_case(*case, capsys) == GOLDEN[case]
