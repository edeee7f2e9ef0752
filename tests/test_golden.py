"""Golden digests of the CLI's reports on the shipped configurations.

Each case runs one command and pins the exit code and the sha256 of its
stdout; each render case also pins the sha256 of the SVG file it writes.  The windowed module reports carry the xi exponents chosen by the
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
    ('example1_d4.cfg', 1, ('signature', '--window', '-30', '30')): (0, 'f19314ff88de4a2bea2c8d6f9954aa3d0ddc7af084d42b8b8da92a8753c85dc0'),
    ('example1_d4.cfg', 2, ('module', '--window', '-30', '30')): (0, '9d8b14a7166086158118e100f3e2dde081903247f7a27807690023342a8718c0'),
    ('example1_d4.cfg', 2, ('module', '--window', '-3', '5')): (0, 'd6ab31642fb02bbcd24d991f965870c52a05f1681f0c73afb6c6daca7c52d8d3'),
    ('example1_d4.cfg', 2, ('casimir', '--all-words', '--window', '-12', '12')): (0, 'f58e6666552cd7c3be613e2ea04357c6cb9f1d2dabbaab0123129ce66317868f'),
    ('example1_d4.cfg', 2, ('signature', '--window', '-30', '30')): (0, '388d879ef9097f111976faf3d7b97cca1205df952eb3bf837eaf7e7da9434c13'),
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
    ('example2.cfg', 2, ('signature', '--window', '-30', '30')): (0, '495ee5fa06626a9027af23950bda3c4128142e29c8461d7dead8d02a4b980613'),
    ('example2.cfg', 3, ('module', '--window', '-30', '30')): (0, 'f4259a8b5cb90b3053f92326a9cf6c0aea3f1f9ca672b1a3c64394c3abb66e42'),
    ('example2.cfg', 3, ('module', '--window', '-3', '5')): (0, 'f27ce2455e91b056adc2abc9df52b3c6e2423b593e81843410b22d4908dfd645'),
    ('example2.cfg', 3, ('casimir', '--all-words', '--window', '-12', '12')): (0, '37fc24e2cb2699b2365abb313a6da969011dfac90003fe5594d58c118b58110c'),
    ('example2.cfg', 3, ('signature', '--window', '-30', '30')): (0, 'da444ffb680a2567565f82453a2502d4b631b0be7ee15e84303a6edb39f8e8e9'),
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
    ('example3.cfg', 2, ('signature', '--window', '-30', '30')): (0, '3e9a2e2f0c4b000a7e891a487f621af5f62b11f477243f840a909ab3b7425611'),
    ('example3.cfg', 3, ('module', '--window', '-30', '30')): (0, '623de0a4acf87cf4e5d58dfe64b8bdc697a5aebf6f071832089a819cb7b04441'),
    ('example3.cfg', 3, ('module', '--window', '-3', '5')): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('example3.cfg', 3, ('casimir', '--all-words', '--window', '-12', '12')): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('example3.cfg', 3, ('signature', '--window', '-30', '30')): (0, '313ade9a314c3abd06ee3c7c0853100811abe798de942e570a5d2712dd895768'),
    ('example4.cfg', None, ('components',)): (0, 'f70898bf2225ca8e9a42a4b7a7dbd0da3ec8c2fc2c71fd0435c96faad69236f7'),
    ('example4.cfg', 0, ('module', '--window', '-30', '30')): (0, 'cafd1baa56345ef87ffde0bb9bb085c94829c3cb12015c5dd6d6ae8fc0670884'),
    ('example4.cfg', 0, ('module', '--window', '-3', '5')): (0, 'cafd1baa56345ef87ffde0bb9bb085c94829c3cb12015c5dd6d6ae8fc0670884'),
    ('example4.cfg', 0, ('casimir', '--all-words', '--window', '-12', '12')): (0, '0e1c9ec3500610b7e3eb99349c7dd7881c08bb479e1459956ceb64693147e983'),
    ('example4.cfg', 0, ('signature',)): (0, '684382b58f726e6554d0df6de76da6a3936f5e9ad27a520734042af0d88a6bf6'),
    ('example4.cfg', 1, ('module', '--window', '-30', '30')): (0, 'a7e5167ad4d4982df58b818ee50cbb9050ea26a55f99c9c1e684b10c30003353'),
    ('example4.cfg', 1, ('module', '--window', '-3', '5')): (0, 'c799519b492a7425453f2b2bd3b887fbf63be7b1b541a0c68fadb502147b0a3c'),
    ('example4.cfg', 1, ('casimir', '--all-words', '--window', '-12', '12')): (0, 'e54122833bec983c2147aed64160e2b9de518f0a95c2909d2c3866ca50920bbf'),
    ('example4.cfg', 1, ('signature', '--window', '-30', '30')): (0, 'a1b43a9bed2f0f4ee46815d8cf5c5bd6574dea0256c39da643fe8629ab40fddb'),
    ('example4.cfg', 2, ('module', '--window', '-30', '30')): (0, 'cf5f5d1d9f3a2feac1bf51dd44fef3dd5ee37b0c9af81312ba2f545b6c752f1b'),
    ('example4.cfg', 2, ('module', '--window', '-3', '5')): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('example4.cfg', 2, ('casimir', '--all-words', '--window', '-12', '12')): (1, 'a121a6548bf48466737c116211c7e171327ae2fbdd2dc9ac3f1ec4f7140ec800'),
    ('example4.cfg', 2, ('signature', '--window', '-30', '30')): (0, 'ee76550ae40c7ab1be13ca561b48ea56caf373bca8930351b91e12f3610f2f61'),
}


# (config, finite component) -> (exit, sha256 of the ASCII art, sha256 of the SVG)
RENDER_GOLDEN = {
    ('example1_d4.cfg', 0): (0, '9ee14e7bf3bb0c8a61b9a98376d3b647aec2146753e7297e8004954f6e285337',
                             '49ba351c95dc25f3e3718fbe51a31e574a2cdec02e7b13aa1a4643a801f23b37'),
    ('example2.cfg', 0): (0, 'c7f98f6fa1f1b4a41befd92622a1125012357153a962dd9a962258c7d8736adb',
                          '7b3d771be4f50154b996d24621d26f52de88f91b0074579496fb1763deb8c8af'),
    ('example2.cfg', 1): (0, '999bca911f138d558802ac2d99da6177e7a88aa38fd0c0d5f8c698c3e7ed5c28',
                          '12fb97988fa71cc72dc61c9f399dff4ec68649ffcdfc47167d533615b21226dc'),
    ('example3.cfg', 0): (0, 'b3c575e3a9f5a4b3630322a0982bd7bea754efd883093a7ef1725779a9b75d59',
                          'b2d7b1b01fdac319483792468b6d48a4d02c47d94c7412bbf09e0b5234eb044d'),
    ('example3.cfg', 1): (0, '4dd432bc6f211c0fbdab631a7063db04cf0769b243ffffc8e22abe84f1441c2e',
                          '7648564136d7d3705a877b27697f08bfe58d2686e82b8da26465e92a591f0a73'),
    ('example4.cfg', 0): (0, '1129f49b34574426e01712332d34f6194e09669332a2c94824f05b8772533ca0',
                          'f68c4f7b9fc4d45b643c5bf3c47150a75a13fbd19008cb828668f1da7dbb00ae'),
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


@pytest.mark.parametrize("case", list(RENDER_GOLDEN), ids=lambda c: f"{c[0]}-{c[1]}")
def test_golden_render(case, tmp_path, capsys):
    name, comp = case
    svg = tmp_path / "out.svg"
    code = main(["render", str(CONFIGS / name), "--component", str(comp), "--svg", str(svg)])
    art, wrote = capsys.readouterr().out.rsplit("wrote ", 1)
    assert wrote == f"{svg}\n"
    digests = (hashlib.sha256(art.encode()).hexdigest(),
               hashlib.sha256(svg.read_bytes()).hexdigest())
    assert (code, *digests) == RENDER_GOLDEN[case]
