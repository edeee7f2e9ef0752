from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reference import is_empty, mult
from vertexmod.configfile import ParseError, parse, serialize
from vertexmod.configuration import random_config
from vertexmod.lattice import Lattice

EXAMPLE2 = """\
# two paths from the same corner
period 5 2
path 0 0 1121112
path 0 0 1212111
"""


def test_parse_example2(example2):
    cf = parse(EXAMPLE2)
    assert (cf.m, cf.n) == (5, 2)
    assert cf.involution == "star" and cf.xi is None
    assert cf.configuration() == example2


def test_parse_empty_config():
    cf = parse("period 1 1\n")
    assert is_empty(cf.configuration())


def test_parse_step_count_error():
    with pytest.raises(ParseError) as exc:
        parse("period 5 2\npath 0 0 112111\n")
    assert "5 ones" in str(exc.value) and "2 twos" in str(exc.value)
    assert exc.value.line == 2


def test_parse_period_required_first():
    with pytest.raises(ParseError) as exc:
        parse("path 0 0 12\nperiod 1 1\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        parse("edge V 0 0 1\nperiod 1 1\n")
    with pytest.raises(ParseError):
        parse("path 0 0 12\n")


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse("period 5 2\nedge W 1 1 1\n")
    assert exc.value.line == 2 and exc.value.col == 6
    with pytest.raises(ParseError) as exc:
        parse("period 5 x\n")
    assert exc.value.line == 1


def test_parse_error_columns_count_tabs_and_comments():
    with pytest.raises(ParseError) as exc:
        parse("period 5 2\n\tedge W 1 1 1\n")
    assert (exc.value.line, exc.value.col) == (2, 7)
    # a missing argument points at the first token after the directive, here '#'
    with pytest.raises(ParseError) as exc:
        parse("period 5 2\ninvolution # x\n")
    assert (exc.value.line, exc.value.col) == (2, 12)


def test_parse_rejects_bad_period():
    with pytest.raises(ParseError):
        parse("period 4 2\n")
    with pytest.raises(ParseError):
        parse("period 5 2\nperiod 5 2\n")


def test_parse_unknown_directive():
    with pytest.raises(ParseError) as exc:
        parse("period 5 2\nfrobnicate 1\n")
    assert "frobnicate" in str(exc.value)


def test_parse_edges_and_options():
    text = """period 5 2
edge V 2 1 1
edge H 1 0 2
involution dagger
xi 0.6 0.8
"""
    cf = parse(text)
    assert cf.involution == "dagger"
    assert cf.xi == (Fraction(3, 5), Fraction(4, 5))
    cfg = cf.configuration()
    assert mult(cfg, ("H", 1, 0)) == 2
    with pytest.raises(ParseError):
        parse("period 5 2\nedge V 0 0 0\n")
    with pytest.raises(ParseError):
        parse("period 5 2\ninvolution flip\n")


def test_parse_xi_exactly():
    assert parse("period 5 2\nxi 3/5 -8e-1\n").xi == (Fraction(3, 5), Fraction(-4, 5))
    assert parse("period 5 2\nxi 0.6 0.8000000000001\n").xi[1] == Fraction(8000000000001,
                                                                          10**13)
    for bad in ("nan 1", "1 inf", "1/0 1", "x 1"):
        with pytest.raises(ParseError, match="col 4: xi components must be numbers"):
            parse(f"period 5 2\nxi {bad}\n")
    # an exponent is refused before it is expanded
    for big in ("1e1000", "1e1_000", "1e-1_000", "1e1_000_000_000", "1E+00_1000",
                "1e" + "9" * 5000):
        with pytest.raises(ParseError, match="col 6: xi component exponent out of range"):
            parse(f"period 5 2\nxi 1 {big}\n")
    assert parse("period 5 2\nxi 1e0_999 1e-0_0_3\n").xi == (Fraction(10**999),
                                                               Fraction(1, 1000))
    assert parse("period 5 2\nxi 1e-999 0\n").xi == (Fraction(1, 10**999), 0)


def test_comments_and_blanks():
    cf = parse("\n# leading comment\nperiod 5 2  # trailing\n\npath 0 0 1121112\n")
    assert len(cf.paths) == 1


def test_serialize_round_trip(example2):
    text = serialize(example2)
    assert parse(text).configuration() == example2


@given(st.sampled_from([(1, 1), (2, 1), (3, 2), (5, 2)]), st.integers(0, 4),
       st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_serialize_round_trip_random(mn, k, seed):
    cfg = random_config(Lattice(*mn), k, seed)
    assert parse(serialize(cfg)).configuration() == cfg


def test_paths_and_edges_merge():
    base = parse("period 5 2\npath 0 0 1121112\n").configuration()
    merged = parse("period 5 2\npath 0 0 1121112\nedge H 1 0 1\n").configuration()
    assert mult(merged, ("H", 1, 0)) == mult(base, ("H", 1, 0)) + 1
