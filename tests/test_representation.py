from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import staircase_band
from vertexmod import representation
from vertexmod.configuration import Configuration, from_edges, random_config
from vertexmod.lattice import Edge, Lattice
from vertexmod.linalg import MonomialMat
from vertexmod.representation import (
    GENERATORS,
    balanced_words,
    build_module,
    casimir,
    check_order_product,
    crossing_order,
    loop_matrix,
    order_product,
    order_support,
    path_poly_product,
    path_sqrt_product,
    verify_relations,
    word_matrix,
)
from vertexmod.scalar import Radical
from vertexmod.topology import components
from vertexmod.unitarity import gram_matrix

lattices = st.sampled_from([(1, 1), (2, 1), (3, 2), (5, 2)])
wide_lattices = st.sampled_from([(3, 2), (5, 2), (5, 3), (4, 3)])


def finite_comps(cfg):
    return [c for c in components(cfg) if c.finite]


def test_balanced_words():
    assert balanced_words(1, 1) == ["12", "21"]
    assert balanced_words(2, 1) == ["112", "121", "211"]
    assert len(balanced_words(5, 2)) == 21
    assert len(balanced_words(7, 3)) == 120
    with pytest.raises(ValueError):
        balanced_words(15, 6)


def test_build_module_example2(example2):
    comps = components(example2)
    d2, d1 = comps[0], comps[1]
    rep1 = build_module(example2, d1)
    assert rep1.dim == 1 and rep1.weights == [1]
    assert all(rep1.mats[g].is_zero for g in GENERATORS)  # every boundary edge is supported
    rep2 = build_module(example2, d2)
    assert rep2.weights == [0, 2, 4]
    # the step from weight 2 to weight 4 crosses the midpoint-3 edge
    assert rep2.mats["X1-"].entry(2, 1) == Radical.make(phase=1, root=24)
    assert verify_relations(rep2).ok


def corrupt(rep, gen, rc, change):
    """Rebuild the generator matrix with the entry at rc replaced by change(entry)."""
    entries = dict(rep.mats[gen].items())
    entries[rc] = change(entries[rc])
    rep.mats[gen] = MonomialMat(rep.dim, entries)


def test_negated_entry_fails_product_relations(example2):
    rep = build_module(example2, components(example2)[0])
    corrupt(rep, "X1+", (1, 2), lambda v: v.times_rational(-1))
    report = verify_relations(rep)
    assert [f.split(":")[0] for f in report.failures] == [
        "X1+X1- at weight 2", "X1-X1+ at weight 4"]


def test_winding_factor_fails_commutator(example3):
    rep = build_module(example3, finite_comps(example3)[1])
    corrupt(rep, "X2-", (0, 5), lambda v: v * Radical.xi_power(1))
    failures = verify_relations(rep).failures
    assert "[X1+,X2-] fails at basis weight 12" in failures
    assert [f.split(":")[0] for f in failures if "X2+" in f] == [
        "X2+X2- at weight 10", "X2-X2+ at weight 5"]


def test_window_required_for_infinite(example2):
    inf = [c for c in components(example2) if not c.finite][0]
    with pytest.raises(ValueError):
        build_module(example2, inf)


def test_band_winding_gauge(example1_d4):
    # around each face pair loop of the band the winding exponents sum to 1,
    # whatever the gauge spread over individual entries
    band = finite_comps(example1_d4)[0]
    rep = build_module(example1_d4, band)
    for w in range(1, 4):
        up = rep.mats["X2+"].entry(rep.index(w + 1), rep.index(w))
        back = rep.mats["X1+"].entry(rep.index(w), rep.index(w + 1))
        assert up.xi_exp + back.xi_exp == 1
    assert verify_relations(rep).ok


def test_contractible_module_has_no_winding(example2, example3):
    for cfg in (example2, example3):
        for comp in finite_comps(cfg):
            if not comp.contractible:
                continue
            rep = build_module(cfg, comp)
            assert all(v.xi_exp == 0 for mat in rep.mats.values() for _, v in mat.items())


def test_empty_window_module(lat52):
    cfg = Configuration(lat52, {})
    comp = components(cfg)[0]
    rep = build_module(cfg, comp, window=(-5, 5))
    assert rep.dim == 11
    report = verify_relations(rep)
    assert report.ok and report.skipped  # boundary rows are skipped, not asserted
    # interior product relations reduce to the identity
    prod = rep.mats["X1+"] @ rep.mats["X1-"]
    mid = rep.index(0)
    assert prod.entry(mid, mid) == Radical.one()


def test_crossing_order(example1_d4, lat52):
    assert crossing_order(Configuration(lat52, {}), "1112112", 3) == 0
    # loop from weight 0 crosses the two supported midpoint-1/2 edges
    assert crossing_order(example1_d4, "21", 0) == 1
    # loop inside the band never meets the support
    assert crossing_order(example1_d4, "21", 2) == 0
    with pytest.raises(ValueError):
        crossing_order(example1_d4, "211", 0)


def test_path_products(example1_d4, lat52):
    assert path_sqrt_product(Configuration(lat52, {}), "12121", 7) == Radical.one()
    # both crossed edges are supported, so the product vanishes
    assert path_sqrt_product(example1_d4, "21", 0) == Radical.zero()
    # inside the band the product is a nonzero rational, possibly negative:
    # both crossings carry one supported edge above them
    assert path_sqrt_product(example1_d4, "21", 1) == Radical.from_rational(-3)
    assert order_product(example1_d4, "21", 1) == Fraction(-3)
    assert path_poly_product(example1_d4, "21", 1) == Fraction(9)


@given(lattices, st.integers(1, 3), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_order_product_identity(mn, k, seed):
    cfg = random_config(Lattice(*mn), k, seed)
    for word in balanced_words(*mn):
        report = check_order_product(cfg, word, (-15, 15))
        assert report.identity_ok, report.identity_failures[:3] + report.crossing_failures[:3]


@given(wide_lattices, st.integers(0, 3), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_order_support_matches_crossing_scan(mn, k, seed):
    # every loop stays within m*n of its start, and m*n < 2(m+n) on these lattices
    cfg = random_config(Lattice(*mn), k, seed)
    lo, hi = cfg.support_mid2_range() or (0, 0)
    margin = 2 * sum(mn)
    for word in balanced_words(*mn):
        scan = {lam: crossing_order(cfg, word, lam)
                for lam in range(lo // 2 - margin, hi // 2 + margin + 1)}
        support = order_support(cfg, word)
        assert support == {lam: o for lam, o in scan.items() if o}
        assert list(support) == sorted(support)


def test_order_support_rejects_unequal_crossings(lat52):
    # a lone vertical edge at doubled midpoint 0: the loops from weights
    # 1..5 cross it, and none crosses a horizontal edge; the least is named
    cfg = from_edges(lat52, [(Edge("V", 2, 1), 1)])
    with pytest.raises(AssertionError, match="crossing counts differ at 1$"):
        order_support(cfg, "1112112")
    with pytest.raises(AssertionError, match="crossing counts differ at 1$"):
        crossing_order(cfg, "1112112", 1)
    with pytest.raises(ValueError):
        order_support(cfg, "111211")


def test_order_product_sign_clause_not_a_theorem(example1_d4):
    # the signed identity holds, but the common value can be negative; the
    # canonical counterexample sits inside the width-4 band
    report = check_order_product(example1_d4, "12", (-20, 20))
    assert report.identity_ok  # negative values are not failures
    assert any("at 2" in f for f in report.sign_failures)
    assert path_sqrt_product(example1_d4, "12", 2) == Radical.from_rational(-3)


def test_crossing_check_catches_a_shifted_order(example1_d4, monkeypatch):
    # the walked crossing total is compared with the counted support, so a
    # support that misplaces one lambda fails at both weights
    real = representation.order_support

    def shifted(cfg, word):
        support = real(cfg, word)
        support[6] = support.pop(5)
        return support

    monkeypatch.setattr(representation, "order_support", shifted)
    report = check_order_product(example1_d4, "12", (-20, 20))
    assert report.crossing_failures == ["total crossings != 2 * order at 5",
                                        "total crossings != 2 * order at 6"]
    assert not report.identity_ok


def test_relations_on_examples(example2, example3, example4, example1_d4):
    for cfg in (example2, example3, example4, example1_d4):
        for comp in finite_comps(cfg):
            report = verify_relations(build_module(cfg, comp))
            assert report.ok and not report.skipped


@given(lattices, st.integers(1, 2), st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_relations_on_random_configs(mn, k, seed):
    cfg = random_config(Lattice(*mn), k, seed)
    for comp in finite_comps(cfg):
        assert verify_relations(build_module(cfg, comp)).ok


def test_word_matrix(example2):
    d2 = components(example2)[0]
    rep = build_module(example2, d2)
    assert word_matrix(rep, []) == MonomialMat.identity(3)
    assert word_matrix(rep, ["H"]) == MonomialMat.diagonal([Fraction(w) for w in rep.weights])
    # composition order: rightmost acts first
    assert word_matrix(rep, ["X1+", "X1-"]) == rep.mats["X1+"] @ rep.mats["X1-"]


def test_loop_operator_adjoint_identity(example1_d4, example2):
    # the raising loop word satisfies adjoint(X(w)) X(w) = poly product of H
    for cfg in (example1_d4, example2):
        for comp in finite_comps(cfg):
            rep = build_module(cfg, comp)
            G = gram_matrix(rep)
            for word in balanced_words(cfg.lat.m, cfg.lat.n)[:3]:
                X = loop_matrix(rep, word)
                lhs = (G @ X.conj_transpose() @ G) @ X
                rhs = MonomialMat.diagonal(
                    [path_poly_product(cfg, word, w) for w in rep.weights])
                assert lhs == rhs


def test_casimir_band_family():
    for d in range(1, 9):
        cfg = staircase_band(d)
        band = finite_comps(cfg)[0]
        rep = build_module(cfg, band)
        scalars = [casimir(rep, w).scalar for w in ("12", "21")]
        assert scalars[0] == scalars[1]
        if d == 1:
            assert band.contractible and scalars[0] == Radical.zero()
        else:
            assert scalars[0] == Radical.xi_power(1)


def test_casimir_contractible_is_zero(example2):
    d2 = components(example2)[0]
    rep = build_module(example2, d2)
    res = casimir(rep, "1121112")
    assert res.scalar == Radical.zero()
    assert res.determinate == []


def test_casimir_empty_window(lat52):
    cfg = Configuration(lat52, {})
    rep = build_module(cfg, components(cfg)[0], window=(-20, 20))
    for word in balanced_words(5, 2):
        res = casimir(rep, word)
        assert res.scalar == Radical.xi_power(1)
        assert res.determinate  # interior faces certify the value


def test_casimir_builds_no_matrices(example3, monkeypatch):
    # casimir reads the generator matrices build_module stored
    rep = build_module(example3, finite_comps(example3)[1])
    init, calls = MonomialMat.__init__, []

    def counting_init(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(MonomialMat, "__init__", counting_init)
    for word in balanced_words(5, 2):
        casimir(rep, word)
    assert calls == []


def test_casimir_unitary(example3):
    # form-adjoint of the Casimir matrix times itself is the identity
    comp = [c for c in finite_comps(example3) if not c.contractible][0]
    rep = build_module(example3, comp)
    res = casimir(rep, "1111122")
    C = MonomialMat.diagonal([res.scalar] * rep.dim)
    G = gram_matrix(rep)
    assert (G @ C.conj_transpose() @ G) @ C == MonomialMat.identity(rep.dim)


def test_export_triplets(example2):
    rep = build_module(example2, components(example2)[0])
    text = rep.export_triplets("X1-")
    assert "2 1 i^1 * 2*sqrt(6)" in text.splitlines()
    assert rep.export_triplets("H").splitlines()[0] == "0 0 0"


def _is_power_of_two(d: int) -> bool:
    return d & (d - 1) == 0


@given(wide_lattices, st.integers(0, 3), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_coefficients_have_power_of_two_denominators(mn, k, seed):
    # every Radical the package builds from edge values has coeff = a / 2^b
    cfg = random_config(Lattice(*mn), k, seed)
    lo, hi = cfg.support_mid2_range() or (0, 0)
    margin = 2 * (cfg.lat.m + cfg.lat.n)
    values = [cfg.sqrt_value(i, mid2) for i in (1, 2) for mid2 in range(lo - margin, hi + margin + 1)]
    words = balanced_words(*mn)
    for comp in components(cfg):
        rep = build_module(cfg, comp, comp.window)
        values += [v for mat in rep.mats.values() for _, v in mat.items()]
        for word in words:
            scalar = casimir(rep, word).scalar
            if scalar is not None:
                values.append(scalar)
    bad = [str(v) for v in values if not _is_power_of_two(v.coeff.denominator)]
    assert not bad, bad[:5]


@given(wide_lattices, st.integers(0, 3), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_casimir_matches_loop_matrix(mn, k, seed):
    # the integer column walk against the MonomialMat loop operator, and its
    # determinate faces against the face-path walk over the configuration
    cfg = random_config(Lattice(*mn), k, seed)
    for comp in components(cfg):
        rep = build_module(cfg, comp, comp.window)
        for word in balanced_words(*mn):
            res = casimir(rep, word)
            mat = loop_matrix(rep, word)
            assert mat.is_diagonal()
            diag = {w: mat.entry(j, j) for j, w in enumerate(rep.weights)}
            determinate = [w for w in rep.weights if not diag[w].is_zero]
            walked = [w for w in rep.weights
                      if not any(cfg.mult_mid2(i, mid2) or not rep.in_basis(cur)
                                 for i, mid2, cur in cfg.lat.walk(w, word))]
            assert res.determinate == determinate == walked
            assert res.indeterminate == [w for w in rep.weights if diag[w].is_zero]
            ratios = {diag[w].times_rational(1 / order_product(cfg, word, w))
                      for w in determinate}
            assert len(ratios) <= 1
            if comp.contractible:
                assert not ratios and res.scalar == Radical.zero()
            else:
                assert res.scalar == (ratios.pop() if ratios else None)
