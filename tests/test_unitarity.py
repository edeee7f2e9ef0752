from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import staircase_band
from reference import (
    adjoint_matrix,
    check_sign_consistency,
    mat,
    path_phase2,
    times_rational,
    value,
)
from vertexmod.configfile import parse
from vertexmod.configuration import Configuration, VertexPath, from_paths, random_config
from vertexmod.lattice import Lattice
from vertexmod.representation import build_module, casimir
from vertexmod.topology import (
    ColoringConflictError,
    components,
    overlay,
    subcomponents,
    window_flood,
)
from vertexmod.unitarity import (
    SignTable,
    dual_invariants,
    gram_diag,
    signature_coloring,
    signature_direct,
    signature_window,
    unitarizability_report,
    verify_invariance,
)

lattices = st.sampled_from([(1, 1), (2, 1), (3, 2), (5, 2)])
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def finite_comps(cfg):
    return [c for c in components(cfg) if c.finite]


def test_path_phase2(example2, lat52):
    assert path_phase2(Configuration(lat52, {}), [1, 2, -1, 2]) == 0
    # one step of -alpha from weight 0 to 2 crosses the midpoint-1 edge (count 2)
    assert path_phase2(example2, [-1]) % 2 == 0
    # continuing to weight 4 crosses the midpoint-3 edge (count 1)
    assert path_phase2(example2, [-1, -1]) % 2 == 1
    with pytest.raises(ValueError):
        path_phase2(example2, [3])


def test_face_sign(example2, lat52):
    table = SignTable(example2)
    assert table.sign(0) == 1
    assert table.sign(2) == 1
    assert table.sign(4) == -1
    empty = Configuration(lat52, {})
    assert all(SignTable(empty).sign(w) == 1 for w in range(-8, 9))


@given(st.sampled_from([(1, 1), (2, 1), (1, 3), (3, 2), (5, 2), (5, 3), (4, 3)]),
       st.integers(0, 3), st.integers(0, 10**6), st.lists(st.integers(-60, 60), max_size=12))
@settings(max_examples=40, deadline=None)
def test_face_sign_matches_unit_block_phase(mn, k, seed, weights):
    # queried in any order on both sides of 0, also past the support where
    # the memo stops, face_sign gives the parity of the phase along |w|
    # unit blocks from weight 0
    cfg = random_config(Lattice(*mn), k, seed)
    for w in weights:
        block = cfg.lat.unit_blocks[1 if w >= 0 else -1]
        assert cfg.face_sign(w) == (-1) ** path_phase2(cfg, block * abs(w))


def test_unitarizability_reuses_the_face_signs(example3, example4):
    # signature_direct fills the configuration's sign memo; the report's
    # criterion (ii) reads the same memo and adds nothing to it
    for cfg in (example3, example4):
        for comp in finite_comps(cfg):
            signature_direct(cfg, comp)
            memo = {d: list(signs) for d, signs in cfg._signs.items()}
            unitarizability_report(cfg, comp)
            assert cfg._signs == memo


def test_sign_consistency_examples(example2, lat52):
    assert check_sign_consistency(example2, (-8, 8), box=4, backtracks=8).ok
    assert check_sign_consistency(Configuration(lat52, {}), (-5, 5), box=3).ok


@given(lattices, st.integers(1, 3), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_sign_consistency_random(mn, k, seed):
    cfg = random_config(Lattice(*mn), k, seed)
    assert check_sign_consistency(cfg, (-10, 10), box=3, backtracks=5).ok


def test_gram_and_invariance_example2(example2):
    d2 = components(example2)[0]
    rep = build_module(example2, d2)
    assert gram_diag(rep) == [1, 1, -1]
    assert verify_invariance(rep).ok


def test_negated_entry_fails_invariance(example2):
    rep = build_module(example2, components(example2)[0])
    cols = list(rep.cols["X1+"])
    cols[2] = (1, times_rational(cols[2][1], -1))
    rep.cols["X1+"] = tuple(cols)
    assert verify_invariance(rep).failures == ["form invariance fails for X1+-"]


def test_gram_band_alternates(example1_d4):
    band = finite_comps(example1_d4)[0]
    rep = build_module(example1_d4, band)
    g = gram_diag(rep)
    assert all(g[i] == -g[i + 1] for i in range(3))
    assert verify_invariance(rep).ok  # xi exponents cancel under conjugation


def test_invariance_empty_window(lat52):
    cfg = Configuration(lat52, {})
    rep = build_module(cfg, components(cfg)[0], window=(-6, 6))
    assert gram_diag(rep) == [1] * rep.dim
    assert verify_invariance(rep).ok
    # with the identity form, the adjoint is plain conjugate transpose
    assert adjoint_matrix(rep, "X1+") == mat(rep, "X1+").conj_transpose()


def test_adjoint_swaps_raising_and_lowering(example2, example1_d4):
    for cfg in (example2, example1_d4):
        for comp in finite_comps(cfg):
            rep = build_module(cfg, comp)
            for i in (1, 2):
                assert adjoint_matrix(rep, f"X{i}+") == mat(rep, f"X{i}-")
                assert adjoint_matrix(rep, f"X{i}-") == mat(rep, f"X{i}+")
            assert adjoint_matrix(rep, "H") == mat(rep, "H")


def test_signatures_example2(example2):
    d2, d1 = components(example2)[:2]
    assert signature_direct(example2, d2) == (1, 2)
    assert signature_coloring(example2, d2) == (1, 2)
    assert signature_direct(example2, d1) == (0, 1)


def test_signatures_example3(example3):
    comps = finite_comps(example3)
    by_dim = {c.dim: c for c in comps}
    assert signature_coloring(example3, by_dim[6]) == (0, 6)
    assert signature_direct(example3, by_dim[6]) == (0, 6)
    assert signature_coloring(example3, by_dim[14]) == (7, 7)
    assert signature_direct(example3, by_dim[14]) == (7, 7)


def test_signatures_example4(example4):
    comp = finite_comps(example4)[0]
    assert comp.dim == 11
    assert signature_direct(example4, comp) == (5, 6)
    assert signature_coloring(example4, comp) == (5, 6)


def test_signature_band_formula():
    for d in range(1, 9):
        cfg = staircase_band(d)
        band = finite_comps(cfg)[0]
        expected = (d // 2, d - d // 2)
        assert signature_direct(cfg, band) == expected
        assert signature_coloring(cfg, band) == expected
        # under the flipped involution the band is definite
        assert signature_coloring(cfg, band, "dagger") == (0, d)


def test_signature_rejects_infinite(example2):
    inf = [c for c in components(example2) if not c.finite][0]
    with pytest.raises(ValueError):
        signature_direct(example2, inf)
    sig, partial = signature_window(example2, inf, (-6, 6))
    assert partial and sum(sig) == len([w for w in inf.weights if -6 <= w <= 6])


def test_signature_window_counts_the_module_window():
    # the window counts cover every face that module --window floods, also
    # beyond the window components() enumerated
    for path in sorted(CONFIGS.glob("*.cfg")):
        cf = parse(path.read_text())
        cfg = cf.configuration()
        for comp in components(cfg):
            if comp.finite:
                continue
            lo, hi = comp.window
            far = [(hi + d, hi + d + 20) if hi in comp.weights else (lo - d - 20, lo - d)
                   for d in (84, 10**6)]
            for window in ((-30, 30), (-80, 80), *far):
                sig, partial = signature_window(cfg, comp, window, cf.involution)
                assert partial and sum(sig) == build_module(cfg, comp, window).dim > 0


def test_far_window_reaches_the_component(example2):
    # a window past the enumerated weights (3..16 here) is filled through
    # the gap; above the support every face has the same sign
    comp = components(example2)[3]
    rep = build_module(example2, comp, (100, 120))
    assert rep.dim == 21 and rep.weights == list(range(100, 121))
    assert signature_window(example2, comp, (100, 120)) == ((0, 21), True)
    assert {example2.face_sign(w) for w in rep.weights} == {-1}
    # there the fill commutes with beta steps: a window a million beta
    # steps farther out is this one moved, lifts included, and costs no
    # more to fill
    b, k = example2.lat.beta, 10**6
    far = (100 + k * b, 120 + k * b)
    assert window_flood(example2, comp, *far)[1] == {
        w + k * b: (x, y + k) for w, (x, y) in rep.lifts.items()}
    assert signature_window(example2, comp, far) == ((0, 21), True)
    # the other end of the cylinder belongs to another component
    with pytest.raises(ValueError, match="does not meet component 3"):
        build_module(example2, comp, (-120, -100))


@given(lattices, st.integers(1, 3), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_signature_methods_agree(mn, k, seed):
    cfg = random_config(Lattice(*mn), k, seed)
    table = SignTable(cfg)
    for comp in finite_comps(cfg):
        direct = signature_direct(cfg, comp, table)
        assert direct == signature_coloring(cfg, comp)
        assert sum(direct) == comp.dim


@given(lattices, st.integers(1, 3), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_adjacent_sign_flip_rule(mn, k, seed):
    # adjacent faces carry equal signs iff the separating edge polynomial is
    # positive; checked across every unsupported edge in a window
    cfg = random_config(Lattice(*mn), k, seed)
    table = SignTable(cfg)
    a, b = cfg.lat.alpha, cfg.lat.beta
    for w in range(-10, 11):
        for i, step in ((1, a), (2, b)):
            mid2 = 2 * w + step
            val = cfg.poly_eval(i, mid2)
            if val == 0:
                continue
            same = table.sign(w) == table.sign(w + step)
            assert same == (val > 0)


def test_unitarizability_example2(example2):
    d2, d1 = components(example2)[:2]
    rep1 = unitarizability_report(example2, d1)
    assert rep1.verdict and rep1.agree and all(rep1.conditions.values())
    rep2 = unitarizability_report(example2, d2)
    assert not rep2.verdict and rep2.agree and not any(rep2.conditions.values())


def test_unitarizability_band_dagger(example1_d4):
    band = finite_comps(example1_d4)[0]
    star = unitarizability_report(example1_d4, band)
    assert not star.verdict
    dag = unitarizability_report(example1_d4, band, "dagger")
    assert dag.verdict and dag.agree


def test_dagger_inconsistent_on_odd_period_band():
    # on an incontractible component of a lattice with m+n odd the flipped
    # involution admits no invariant form; the report refuses cleanly
    lat = Lattice(2, 1)
    from vertexmod.configuration import VertexPath, from_paths

    cfg = from_paths(lat, [VertexPath((0, 1), "112"), VertexPath((0, 3), "112")])
    bands = [c for c in finite_comps(cfg) if not c.contractible]
    if not bands:
        pytest.skip("no incontractible finite component in this configuration")
    with pytest.raises(ValueError):
        unitarizability_report(cfg, bands[0], "dagger")


def check_dagger_route(cfg) -> int:
    """The lift-parity dagger sign against the dagger two-coloring, face by face.

    Both must refuse exactly the incontractible components with m + n odd;
    returns how many components were refused.
    """
    odd = (cfg.lat.m + cfg.lat.n) % 2
    table = SignTable(cfg)
    refused = 0
    for comp in finite_comps(cfg):
        if odd and not comp.contractible:
            with pytest.raises(ColoringConflictError):
                signature_coloring(cfg, comp, "dagger")
            with pytest.raises(ValueError):
                signature_direct(cfg, comp, table, "dagger")
            refused += 1
            continue
        assert signature_direct(cfg, comp, table, "dagger") == \
            signature_coloring(cfg, comp, "dagger")
        pieces = subcomponents(cfg, comp, overlay(cfg, comp, "dagger"))
        color = {w: p.color for p in pieces for w in p.weights}
        signs = {w: table.sign(w) * (-1) ** sum(comp.lifts[w]) for w in comp.weights}
        flip = signs[comp.min_weight]
        assert all(signs[w] * flip == color[w] for w in comp.weights)
    return refused


@given(st.sampled_from([(1, 1), (2, 1), (3, 1), (1, 2), (3, 2), (5, 2), (4, 3), (5, 3)]),
       st.integers(1, 3), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_dagger_direct_route(mn, k, seed):
    check_dagger_route(random_config(Lattice(*mn), k, seed))


def test_dagger_direct_route_odd_bands():
    for mn, paths in (((2, 1), [((0, 1), "112"), ((0, 3), "112")]),
                      ((3, 2), [((0, 0), "11122"), ((0, 3), "11122")])):
        cfg = from_paths(Lattice(*mn), [VertexPath(s, w) for s, w in paths])
        assert check_dagger_route(cfg) >= 1


@given(lattices, st.integers(1, 3), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_unitarizability_criteria_agree(mn, k, seed):
    cfg = random_config(Lattice(*mn), k, seed)
    for comp in finite_comps(cfg):
        report = unitarizability_report(cfg, comp)
        assert report.agree
        assert report.verdict == (0 in signature_direct(cfg, comp))
        assert report.coloring == signature_coloring(cfg, comp)


def test_dual_invariants(example2, example1_d4):
    d2 = components(example2)[0]
    rep = dual_invariants(d2)
    assert rep.pseudo_unitarizable and rep.dual_parameter == "0"
    band = finite_comps(example1_d4)[0]
    formal = dual_invariants(band)
    assert formal.pseudo_unitarizable and formal.dual_parameter == "xi"
    concrete = dual_invariants(band, xi=(Fraction(2), Fraction(0)))
    assert not concrete.pseudo_unitarizable and concrete.dual_parameter == "1/2 0"
    unit = dual_invariants(band, xi=(Fraction(3, 5), Fraction(4, 5)))
    assert unit.pseudo_unitarizable and unit.dual_parameter == "3/5 4/5"
    # unimodularity is exact: 1e-13 off the circle is off it
    near = dual_invariants(band, xi=(Fraction(3, 5), Fraction("0.8000000000001")))
    assert not near.pseudo_unitarizable
    assert near.dual_parameter == ("20000000000000000000000000/33333333333338666666666667 "
                                   "8888888888890000000000000/11111111111112888888888889")
    zero = dual_invariants(band, xi=(Fraction(0), Fraction(0)))
    assert not zero.pseudo_unitarizable and zero.dual_parameter == "undefined"


def test_numeric_invariance_at_unit_xi(example1_d4):
    # invariance holds numerically at concrete unit-modulus parameter values
    import cmath

    band = finite_comps(example1_d4)[0]
    rep = build_module(example1_d4, band)
    G = gram_diag(rep)
    for k in (1, 2, 3):
        xi = cmath.exp(2j * cmath.pi * k / 7)
        for i in (1, 2):
            plus = mat(rep, f"X{i}+")
            minus = mat(rep, f"X{i}-")
            for (r, c), v in plus.items():
                lhs = value(v, xi).conjugate() * G[r]
                rhs = G[c] * value(minus.entry(c, r), xi)
                assert abs(lhs - rhs) < 1e-9
        res = casimir(rep, "12")
        assert abs(value(res.scalar, xi) - xi) < 1e-9
