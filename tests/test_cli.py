import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from vertexmod import cli
from vertexmod.cli import main

EXAMPLE2 = "period 5 2\npath 0 0 1121112\npath 0 0 1212111\n"
BAND4 = "period 1 1\npath 0 1 12\npath 0 5 12\n"
DANGLING = "period 5 2\nedge V 2 1 1\n"


@pytest.fixture
def ex2_file(tmp_path):
    p = tmp_path / "ex2.cfg"
    p.write_text(EXAMPLE2)
    return str(p)


@pytest.fixture
def band_file(tmp_path):
    p = tmp_path / "band.cfg"
    p.write_text(BAND4)
    return str(p)


def test_check_pass(ex2_file, capsys):
    assert main(["check", ex2_file]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_check_fail(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(DANGLING)
    assert main(["check", str(p), "--json"]) == 1
    # the lone edge at doubled midpoint 0 breaks both factorization checks
    # at every vertex from doubled value -13 to 13, in scan order
    scan = [[4, 0], [1, -1], [3, 0], [0, -1], [2, 0], [4, 1], [1, 0], [3, 1], [0, 0], [2, 1],
            [4, 2], [1, 1], [3, 2], [0, 1]]
    assert json.loads(capsys.readouterr().out) == {
        "command": "check",
        "conservation_violations": [[2, 0], [2, 1]],
        "mte_p_violations": scan,
        "mte_q_violations": scan,
        "pass": False,
    }


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "broken.cfg"
    p.write_text("period 4 2\n")
    assert main(["check", str(p)]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["check", "/nonexistent/x.cfg"]) == 2


def test_undecodable_file_is_a_usage_error(tmp_path, capsys):
    # the message names the file and the first byte that is not UTF-8
    p = tmp_path / "bad.cfg"
    p.write_bytes(b"period 5 2\n\xff")
    assert main(["components", str(p)]) == 2
    assert capsys.readouterr().err.strip() == f"error: cannot read {p}: not UTF-8 at byte 11"


def test_components_json(ex2_file, capsys):
    assert main(["components", ex2_file, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    rows = obj["components"]
    assert [r["dim"] for r in rows] == [3, 1, None, None]
    assert rows[0]["weights"] == [0, 2, 4]


def test_module_command(ex2_file, capsys):
    assert main(["module", ex2_file, "--component", "0", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["dim"] == 3
    assert obj["relations"]["ok"]
    assert "2 1 i^1 * 2*sqrt(6)" in obj["matrices"]["X1-"]


def test_module_unknown_component(ex2_file, capsys):
    assert main(["module", ex2_file, "--component", "9"]) == 2


def test_module_window_for_infinite(ex2_file, capsys):
    assert main(["module", ex2_file, "--component", "2"]) == 2
    assert main(["module", ex2_file, "--component", "2", "--window", "-8", "-2"]) == 0


@pytest.mark.parametrize("command", ["module", "signature", "casimir"])
@pytest.mark.parametrize("form", [[], ["--json"]])
def test_inverted_window_is_a_usage_error(ex2_file, capsys, command, form):
    argv = [command, ex2_file, "--component", "2", "--window", "5", "-5", *form]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --window 5 -5 is inverted: A must not exceed B\n"


@pytest.mark.parametrize("command", ["module", "signature", "casimir"])
@pytest.mark.parametrize("form", [[], ["--json"]])
def test_empty_window_fill_is_a_usage_error(ex2_file, capsys, command, form):
    # component 3 extends upward; the window lies at the other end of the
    # cylinder, which belongs to component 2
    argv = [command, ex2_file, "--component", "3", "--window", "-120", "-100", *form]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: window (-120, -100) does not meet component 3\n"


def test_narrow_window_keeps_every_component_face(ex2_file, capsys):
    # faces 16 and 17 of component 3 are joined only outside the window
    assert main(["module", ex2_file, "--component", "3", "--window", "16", "17", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["weights"] == [16, 17] and obj["relations"]["ok"]


def test_far_window_for_infinite(ex2_file, capsys):
    # component 3 is enumerated as 3..16; the window lies far above it
    window = ["--component", "3", "--window", "100", "120", "--json"]
    assert main(["module", ex2_file, *window]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 21
    assert main(["signature", ex2_file, *window]) == 0
    assert json.loads(capsys.readouterr().out)["signature_window"] == [0, 21]


def test_signature_command(ex2_file, capsys):
    assert main(["signature", ex2_file, "--component", "0", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["signature_direct"] == [1, 2]
    assert obj["signature_coloring"] == [1, 2]
    assert obj["methods_agree"] and not obj["unitarizable"]
    assert obj["pseudo_unitarizable"]
    assert main(["signature", ex2_file, "--component", "1", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["unitarizable"]


def test_casimir_command(band_file, capsys):
    assert main(["casimir", band_file, "--component", "0", "--all-words", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["independent"]
    assert {r["word"] for r in obj["words"]} == {"12", "21"}
    assert all(r["scalar"] == "xi^1 * 1" for r in obj["words"])


def test_casimir_all_words_limit_is_a_usage_error(tmp_path, capsys):
    p = tmp_path / "wide.cfg"
    p.write_text("period 15 7\n")
    assert main(["casimir", str(p), "--component", "0", "--window", "-3", "3", "--all-words"]) == 2
    assert capsys.readouterr().err == "error: refusing to enumerate C(22,7) = 170544 words\n"


@pytest.mark.parametrize("xi, verdict, dual", [
    ("0.6 0.8", "True", "3/5 4/5"),
    ("0.6 0.8000000000001", "False",
     "20000000000000000000000000/33333333333338666666666667 "
     "8888888888890000000000000/11111111111112888888888889"),
])
def test_signature_xi_is_exact(tmp_path, capsys, xi, verdict, dual):
    # unimodularity is decided exactly and the dual parameter printed exactly
    configs = Path(__file__).resolve().parent.parent / "configs"
    p = tmp_path / "ex3.cfg"
    p.write_text((configs / "example3.cfg").read_text() + f"xi {xi}\n")
    assert main(["signature", str(p), "--component", "1"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"pseudo-unitarizable: {verdict} (dual parameter {dual})"


def test_render_ascii_and_svg(ex2_file, tmp_path, capsys):
    svg_path = str(tmp_path / "out.svg")
    assert main(["render", ex2_file, "--component", "0", "--svg", svg_path]) == 0
    out = capsys.readouterr().out
    assert "-2-" in out  # the doubled edge
    assert ":" in out    # the red overlay edge
    root = ET.parse(svg_path).getroot()
    assert root.tag.endswith("svg")
    body = open(svg_path).read()
    assert "stroke-dasharray" in body and "url(#hpos)" in body


def test_render_unwritable_svg_is_a_usage_error(ex2_file, tmp_path, capsys):
    svg_path = tmp_path / "missing" / "out.svg"
    assert main(["render", ex2_file, "--component", "0", "--svg", str(svg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {svg_path}: ") and "Traceback" not in err


def test_catalog_command(tmp_path, capsys):
    out1 = tmp_path / "a.ndjson"
    out2 = tmp_path / "b.ndjson"
    assert main(["catalog", "5", "2", "2", "--samples", "8", "--seed", "5",
                 "--out", str(out1)]) == 0
    assert main(["catalog", "5", "2", "2", "--samples", "8", "--seed", "5",
                 "--out", str(out2)]) == 0
    lines1 = out1.read_text().splitlines()
    assert lines1 == out2.read_text().splitlines()  # deterministic given the seed
    # a second run into the same file overwrites it
    assert main(["catalog", "5", "2", "2", "--samples", "8", "--seed", "5",
                 "--out", str(out1)]) == 0
    assert out1.read_text().splitlines() == lines1
    for line in lines1:
        rec = json.loads(line)
        assert rec["m"] == 5 and rec["n"] == 2
        assert sum(rec["signature"]) == rec["component"]["dim"]
        assert isinstance(rec["unitarizable"], bool)


@pytest.mark.parametrize("args, message", [
    (["5", "2", "2", "--samples", "-3"], "error: --samples must not be negative, got -3"),
    (["5", "2", "-1"], "error: k must not be negative, got -1"),
    (["0", "2", "1"], "error: m n: period (0, 2) must be positive in both entries"),
    (["4", "2", "1"], "error: m n: period (4, 2) is not coprime"),
], ids=["negative-samples", "negative-k", "zero-period", "non-coprime-period"])
def test_catalog_usage_errors(args, message, tmp_path, capsys):
    # exit 2 with a message naming the argument, before the file is opened
    out = tmp_path / "never.ndjson"
    assert main(["catalog", *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == message
    assert not out.exists()
    assert main(["catalog", "5", "2", "0", "--samples", "2", "--out", str(out)]) == 0  # k = 0 is valid


def test_catalog_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # a directory as --out fails before the first sample is drawn
    drawn = []
    monkeypatch.setattr(cli, "random_config", lambda *a: drawn.append(a))
    assert main(["catalog", "5", "2", "2", "--samples", "1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: ")
    assert drawn == []


def test_signature_dagger_and_duplicate_display(band_file, tmp_path, capsys):
    assert main(["signature", band_file, "--component", "0"]) == 0
    out = capsys.readouterr().out
    # the star pair (2,2) must not collapse in display
    assert "signature (direct):   {2, 2}" in out
    assert "signature (coloring): {2, 2}" in out
    p = tmp_path / "dag.cfg"
    p.write_text(BAND4 + "involution dagger\n")
    assert main(["signature", str(p), "--component", "0"]) == 0
    out = capsys.readouterr().out
    assert "signature (direct):   {0, 4}" in out
    assert "signature (coloring): {0, 4}" in out
    assert "unitarizable: True" in out
    assert main(["signature", str(p), "--component", "0", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["signature_direct"] == obj["signature_coloring"] == [0, 4]
    assert obj["methods_agree"] and obj["pass"]


def test_signature_window_for_infinite(ex2_file, capsys):
    assert main(["signature", ex2_file, "--component", "2"]) == 2
    assert main(["signature", ex2_file, "--component", "2",
                 "--window", "-8", "-2", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert obj["partial"] and sum(obj["signature_window"]) == 7


def test_signature_window_follows_involution(band_file, tmp_path, capsys):
    # below the band the dagger signs alternate where the star signs do not
    p = tmp_path / "dag.cfg"
    p.write_text(BAND4 + "involution dagger\n")
    assert main(["signature", str(p), "--component", "1", "--window", "-8", "0"]) == 0
    assert "component 1: window sign counts {4, 5} (partial)" in capsys.readouterr().out
    assert main(["signature", band_file, "--component", "1", "--window", "-8", "0"]) == 0
    assert "component 1: window sign counts {0, 9} (partial)" in capsys.readouterr().out


def test_usage_error():
    assert main(["module"]) == 2
    assert main([]) == 2
