import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import staircase_band
from reference import (
    ONE,
    MonomialMat,
    crossing_order,
    gram_matrix,
    identity,
    loop_matrix,
    mat,
    mat_is_zero,
    matrix_invariance,
    matrix_relations,
    path_poly_product,
    path_sqrt_product,
    radical,
    times_rational,
    word_matrix,
)
from vertexmod import representation
from vertexmod.configuration import Configuration, from_edges, random_config
from vertexmod.lattice import Edge, Lattice
from vertexmod.representation import (
    GENERATORS,
    CasimirResult,
    balanced_words,
    build_module,
    casimir,
    check_order_product,
    order_product,
    order_support,
    verify_relations,
)
from vertexmod.scalar import Radical
from vertexmod.topology import components
from vertexmod.unitarity import verify_invariance

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
    assert all(mat_is_zero(mat(rep1, g)) for g in GENERATORS)  # every boundary edge is supported
    rep2 = build_module(example2, d2)
    assert rep2.weights == [0, 2, 4]
    # the step from weight 2 to weight 4 crosses the midpoint-3 edge
    assert mat(rep2, "X1-").entry(2, 1) == radical(phase=1, root=24)
    assert verify_relations(rep2).ok


def corrupt(rep, gen, rc, change):
    """Replace the generator's entry at (row, column) rc by change(entry)."""
    r, c = rc
    cols = list(rep.cols[gen])
    assert cols[c][0] == r
    cols[c] = (r, change(cols[c][1]))
    rep.cols[gen] = tuple(cols)


def test_negated_entry_fails_product_relations(example2):
    rep = build_module(example2, components(example2)[0])
    corrupt(rep, "X1+", (1, 2), lambda v: times_rational(v, -1))
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
        up = mat(rep, "X2+").entry(rep.weights.index(w + 1), rep.weights.index(w))
        back = mat(rep, "X1+").entry(rep.weights.index(w), rep.weights.index(w + 1))
        assert up.xi_exp + back.xi_exp == 1
    assert verify_relations(rep).ok


def test_contractible_module_has_no_winding(example2, example3):
    for cfg in (example2, example3):
        for comp in finite_comps(cfg):
            if not comp.contractible:
                continue
            rep = build_module(cfg, comp)
            assert all(e[1].xi_exp == 0 for col in rep.cols.values() for e in col if e)


def test_empty_window_module(lat52):
    cfg = Configuration(lat52, {})
    comp = components(cfg)[0]
    rep = build_module(cfg, comp, window=(-5, 5))
    assert rep.dim == 11
    report = verify_relations(rep)
    assert report.ok and report.skipped  # boundary rows are skipped, not asserted
    # interior product relations reduce to the identity
    prod = mat(rep, "X1+") @ mat(rep, "X1-")
    mid = rep.weights.index(0)
    assert prod.entry(mid, mid) == ONE


def test_crossing_order(example1_d4, lat52):
    assert crossing_order(Configuration(lat52, {}), "1112112", 3) == 0
    # loop from weight 0 crosses the two supported midpoint-1/2 edges
    assert crossing_order(example1_d4, "21", 0) == 1
    # loop inside the band never meets the support
    assert crossing_order(example1_d4, "21", 2) == 0
    with pytest.raises(ValueError):
        crossing_order(example1_d4, "211", 0)


def test_path_products(example1_d4, lat52):
    assert path_sqrt_product(Configuration(lat52, {}), "12121", 7) == ONE
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


@given(st.sampled_from([(1, 1), (2, 1), (3, 2), (5, 2), (5, 3), (4, 3)]), st.integers(0, 2),
       st.integers(0, 10**6),
       st.lists(st.tuples(st.sampled_from("VH"), st.integers(0, 4), st.integers(-3, 3),
                          st.integers(1, 2)), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_crossings_agree_iff_conservative(mn, k, seed, extra):
    # the theorem in order_support's docstring: on every balanced word the
    # crossing check fails exactly on the non-conservative configurations,
    # so casimir, which reads only conservative ones, may skip it
    lat = Lattice(*mn)
    base = random_config(lat, k, seed)
    more = from_edges(lat, list(base.edges.items())
                      + [(Edge(kind, x % lat.m, y), mult) for kind, x, y, mult in extra])
    for cfg in (base, more):
        conservative = not cfg.conservation_violations()
        for word in balanced_words(*mn):
            try:
                order_support(cfg, word)
            except AssertionError:
                assert not conservative
            else:
                assert conservative


def test_casimir_walks_no_loop(example3, monkeypatch):
    # casimir only checks that the word is balanced: it walks no face loop
    # and reads no loop-order offsets
    reps = [build_module(example3, c) for c in finite_comps(example3)]
    walk, offsets, calls = Lattice.walk, Configuration.root_offsets, []
    monkeypatch.setattr(Lattice, "walk", lambda *a: calls.append("walk") or walk(*a))
    monkeypatch.setattr(Configuration, "root_offsets",
                        lambda *a: calls.append("root_offsets") or offsets(*a))
    for rep in reps:
        for word in balanced_words(5, 2):
            casimir(rep, word)
    assert calls == []
    for word in ("111112", "11111222", "1111x22"):
        with pytest.raises(ValueError, match="is not balanced for"):
            casimir(reps[0], word)


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


def _vertical_support(cfg, word):
    """order_support without its crossing-count check, which a
    non-conservative configuration fails: the vertical crossings only."""
    counts = Counter()
    for i, off, _ in cfg.lat.walk(0, word):
        if i == 1:
            counts.update((e2 - off) // 2 for e2 in cfg.poly_roots(1) if (e2 - off) % 2 == 0)
    return dict(sorted(counts.items()))


def _reference_order_report(cfg, word, window):
    # the loop check written with Radical products, message for message
    support = representation.order_support(cfg, word)
    identity, sign, crossing = [], [], []
    for mu in range(window[0], window[1] + 1):
        lhs = path_sqrt_product(cfg, word, mu)
        rhs = order_product(cfg, word, mu, support)
        if lhs != Radical.from_rational(rhs):
            identity.append(f"sqrt product != order product at {mu}: {lhs} vs {rhs}")
        if rhs < 0 or lhs.phase % 4 != 0:
            sign.append(f"negative value at {mu}: {lhs}")
        total = sum(cfg.mult_mid2(i, m2) for i, m2, _ in cfg.lat.walk(mu, word))
        if total != 2 * support.get(mu, 0):
            crossing.append(f"total crossings != 2 * order at {mu}")
    return identity, sign, crossing, window[1] - window[0] + 1


extra_edges = st.lists(st.tuples(st.sampled_from("VH"), st.integers(0, 4), st.integers(-3, 3),
                                 st.integers(1, 2)), max_size=2)


@given(wide_lattices, st.integers(0, 2), st.integers(0, 10**6), extra_edges, st.integers(0, 34))
@example((3, 2), 0, 0, [("V", 0, 0, 1)], 0)
@settings(max_examples=40, deadline=None)
def test_check_order_product_matches_reference(mn, k, seed, extra, word_index):
    # extra edges make the configuration non-conservative, so the identity
    # fails at some weights; order_support's crossing check refuses every
    # such configuration, so both sides then count the vertical crossings
    lat = Lattice(*mn)
    base = random_config(lat, k, seed)
    cfg = from_edges(lat, list(base.edges.items())
                     + [(Edge(kind, x % lat.m, y), mult) for kind, x, y, mult in extra])
    words = balanced_words(*mn)
    word = words[word_index % len(words)]
    window = (-12, 12)
    with pytest.MonkeyPatch.context() as mp:
        if cfg.conservation_violations():
            mp.setattr(representation, "order_support", _vertical_support)
        report = check_order_product(cfg, word, window)
        expected = _reference_order_report(cfg, word, window)
    assert (report.identity_failures, report.sign_failures, report.crossing_failures,
            report.checked) == expected


@given(wide_lattices, st.integers(1, 2), st.integers(0, 10**6), st.randoms(use_true_random=False))
@settings(max_examples=15, deadline=None)
def test_order_product_chain_memo_in_any_call_order(mn, k, seed, rng):
    # the configuration keeps one window's chain states per prefix of the
    # last word: unsorted words, a repeated word and two interleaved windows
    # each reuse or rebuild them, and every report stays the reference one
    lat = Lattice(*mn)
    cfg = random_config(lat, k, seed)
    words = rng.sample(balanced_words(*mn), 8)
    calls = [(word, (-12, 12)) for word in words]
    calls += [(word, window) for word in words for window in ((-12, 12), (-3, 20))]
    calls.insert(3, calls[2])
    for word, window in calls:
        report = check_order_product(cfg, word, window)
        assert (report.identity_failures, report.sign_failures, report.crossing_failures,
                report.checked) == _reference_order_report(cfg, word, window)
        assert cfg._order_chain[:2] == (window, word)
    # a fresh configuration agrees with the one that walked all of the above
    again = random_config(lat, k, seed)
    assert check_order_product(again, words[-1], (-3, 20)) == report


def test_order_product_builds_radicals_only_for_messages(example1_d4, monkeypatch):
    # the loop product is folded in integers: no Radical product is formed,
    # not even for a message, and the messages match the Radical-product
    # reference
    expected = _reference_order_report(example1_d4, "12", (-20, 20))
    real, calls = Radical.__mul__, []

    def counting(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(Radical, "__mul__", counting)
    report = check_order_product(example1_d4, "12", (-20, 20))
    assert report.sign_failures and calls == []
    assert (report.identity_failures, report.sign_failures, report.crossing_failures,
            report.checked) == expected


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


@given(wide_lattices, st.integers(0, 3), st.integers(0, 10**6), st.data())
@settings(max_examples=40, deadline=None)
def test_module_checks_match_matrix_products(mn, k, seed, data):
    # both face-by-face checks against their matrix-product forms, on finite
    # and windowed modules, each with at most one corrupted column entry:
    # negated, dropped, or moved to a row no other entry of its generator has
    cfg = random_config(Lattice(*mn), k, seed)
    for comp in components(cfg):
        rep = build_module(cfg, comp, comp.window)
        how = data.draw(st.sampled_from([None, "negate", "drop", "move"]))
        gen = data.draw(st.sampled_from(GENERATORS))
        cols = list(rep.cols[gen])
        filled = [c for c, e in enumerate(cols) if e is not None]
        free = sorted(set(range(rep.dim)) - {e[0] for e in cols if e})
        if how and filled and (how != "move" or free):
            c = data.draw(st.sampled_from(filled))
            r, v = cols[c]
            if how == "negate":
                cols[c] = (r, times_rational(v, -1))
            elif how == "drop":
                cols[c] = None
            else:
                cols[c] = (data.draw(st.sampled_from(free)), v)
            rep.cols[gen] = tuple(cols)
        rel, rel_ref = verify_relations(rep), matrix_relations(rep)
        assert (rel.failures, rel.skipped, rel.checked) == (
            rel_ref.failures, rel_ref.skipped, rel_ref.checked)
        inv, inv_ref = verify_invariance(rep), matrix_invariance(rep)
        assert (inv.failures, inv.checked) == (inv_ref.failures, inv_ref.checked)


def test_word_matrix(example2):
    d2 = components(example2)[0]
    rep = build_module(example2, d2)
    assert word_matrix(rep, []) == identity(3)
    assert word_matrix(rep, ["H"]) == MonomialMat.diagonal([Fraction(w) for w in rep.weights])
    # composition order: rightmost acts first
    assert word_matrix(rep, ["X1+", "X1-"]) == mat(rep, "X1+") @ mat(rep, "X1-")


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


def test_casimir_not_scalar_message(example3):
    # one corrupted X1+ entry: the faces whose loop crosses it disagree
    # with the others
    comp = [c for c in finite_comps(example3) if not c.contractible][0]
    rep = build_module(example3, comp)
    corrupt(rep, "X1+", (0, 2), lambda v: times_rational(v, Fraction(-2, 3)))
    with pytest.raises(AssertionError) as exc:
        casimir(rep, "1111122")
    assert str(exc.value) == "casimir ratio is not scalar: ['xi^1 * 1', 'xi^1 * i^2 * 2/3']"


def test_casimir_unitary(example3):
    # form-adjoint of the Casimir matrix times itself is the identity
    comp = [c for c in finite_comps(example3) if not c.contractible][0]
    rep = build_module(example3, comp)
    res = casimir(rep, "1111122")
    C = MonomialMat.diagonal([res.scalar] * rep.dim)
    G = gram_matrix(rep)
    assert (G @ C.conj_transpose() @ G) @ C == identity(rep.dim)


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
    # every Radical the package builds from edge values has coefficient
    # num / 2^b in lowest terms; == relies on that normal form
    cfg = random_config(Lattice(*mn), k, seed)
    lo, hi = cfg.support_mid2_range() or (0, 0)
    margin = 2 * (cfg.lat.m + cfg.lat.n)
    values = [cfg.sqrt_value(i, mid2) for i in (1, 2) for mid2 in range(lo - margin, hi + margin + 1)]
    words = balanced_words(*mn)
    for comp in components(cfg):
        rep = build_module(cfg, comp, comp.window)
        values += [e[1] for col in rep.cols.values() for e in col if e]
        for word in words:
            scalar = casimir(rep, word).scalar
            if scalar is not None:
                values.append(scalar)
    bad = [str(v) for v in values if not _is_power_of_two(v.den)]
    assert not bad, bad[:5]
    assert all(gcd(v.num, v.den) == 1 for v in values)


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
            ratios = {times_rational(diag[w], Fraction(1, order_product(cfg, word, w)))
                      for w in determinate}
            assert len(ratios) <= 1
            if comp.contractible:
                assert not ratios and res.scalar == Radical.zero()
            else:
                assert res.scalar == (ratios.pop() if ratios else None)


def _reference_casimir(rep, word):
    """The CasimirResult of the loop operator divided by order_product."""
    mat = loop_matrix(rep, word)
    assert mat.is_diagonal()
    diag = dict(zip(rep.weights, (mat.entry(j, j) for j in range(rep.dim))))
    determinate = [w for w in rep.weights if not diag[w].is_zero]
    indeterminate = [w for w in rep.weights if diag[w].is_zero]
    ratios = {times_rational(diag[w], Fraction(1, order_product(rep.cfg, word, w)))
              for w in determinate}
    assert len(ratios) <= 1
    if rep.comp.contractible:
        assert not ratios
        return CasimirResult(word, Radical.zero(), determinate, indeterminate)
    return CasimirResult(word, ratios.pop() if ratios else None, determinate, indeterminate)


@given(wide_lattices, st.integers(0, 3), st.integers(0, 10**6),
       st.lists(st.tuples(st.integers(0, 7), st.integers(0, 69)), min_size=1, max_size=25))
@settings(max_examples=30, deadline=None)
def test_casimir_chain_reuse_matches_fresh_modules(mn, k, seed, calls):
    # words in any order, with repeats, interleaved over the modules of one
    # configuration (the first component built twice): every result is the
    # one a freshly built module and the loop operator give
    cfg = random_config(Lattice(*mn), k, seed)
    comps = components(cfg)
    reps = [build_module(cfg, c, c.window) for c in comps]
    reps.append(build_module(cfg, comps[0], comps[0].window))
    words = balanced_words(*mn)
    for r, w in calls:
        rep, word = reps[r % len(reps)], words[w % len(words)]
        fresh = build_module(cfg, rep.comp, rep.window)
        assert casimir(rep, word) == casimir(fresh, word) == _reference_casimir(fresh, word)


def test_casimir_chain_follows_a_replaced_matrix(example3):
    # the kept chain states are keyed on the column views they were read
    # from, so a call after X1+ is replaced reads the corrupted entry
    comp = [c for c in finite_comps(example3) if not c.contractible][0]
    rep = build_module(example3, comp)
    assert casimir(rep, "1111122").scalar == Radical.xi_power(1)
    corrupt(rep, "X1+", (0, 2), lambda v: times_rational(v, Fraction(-2, 3)))
    with pytest.raises(AssertionError) as exc:
        casimir(rep, "1111122")
    assert str(exc.value) == "casimir ratio is not scalar: ['xi^1 * 1', 'xi^1 * i^2 * 2/3']"


@given(wide_lattices, st.integers(0, 3), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_order_product_is_p1_over_vertical_crossings(mn, k, seed):
    # grouped by step instead of by root weight, the order polynomial is the
    # product of P_1 over the loop's vertical crossings; each factor is an
    # integer, because every crossing has the parity of every root of its
    # orientation
    cfg = random_config(Lattice(*mn), k, seed)
    step = {1: cfg.lat.alpha, 2: cfg.lat.beta}
    for i in (1, 2):
        assert all((e2 - step[i]) % 2 == 0 for e2 in cfg.poly_roots(i))
    for word in balanced_words(*mn):
        support = order_support(cfg, word)
        for mu in range(-15, 16):
            product = 1
            for i, mid2, _ in cfg.lat.walk(mu, word):
                assert (mid2 - step[i]) % 2 == 0
                if i == 1:
                    p = cfg.poly_eval(1, mid2)
                    assert p.denominator == 1
                    product *= p.numerator
            assert order_product(cfg, word, mu, support) == product


@pytest.mark.parametrize("mn, columns", [((5, 2), 22), ((5, 3), 27)])
def test_casimir_composes_each_half_once(mn, columns, monkeypatch):
    # casimir never calls order_product.  Both halves of a word are composed
    # right to left once per distinct suffix (a one-letter suffix is a
    # stored column), and each composition builds one state per face; the
    # rest of a call is its one fused pass over the faces
    cfg = Configuration(Lattice(*mn), {})
    step, built, products = representation._chain_step, [], []
    monkeypatch.setattr(representation, "order_product", lambda *a: products.append(a))
    monkeypatch.setattr(representation, "_chain_step",
                        lambda states, col: built.append(len(states)) or step(states, col))
    words, half = balanced_words(*mn), sum(mn) // 2

    def built_by(calls):
        rep = build_module(cfg, components(cfg)[0], window=(-9, 9))
        built.clear()
        for word in calls:
            casimir(rep, word)
        assert sum(built) % rep.dim == 0
        return sum(built) // rep.dim

    # a lone word: every suffix of two or more letters of either half
    assert built_by(words[:1]) == sum(mn) - 2
    # sorted words: the distinct such suffixes of all halves; a repeated
    # word builds nothing
    halves = [h for w in words for h in (w[:half], w[half:])]
    assert len({h[i:] for h in halves for i in range(len(h) - 1)}) == columns
    assert built_by(words) == built_by([*words, words[-1]]) == columns
    # shuffled, each word twice: no string is composed twice
    shuffled = random.Random(0).sample(words * 2, 2 * len(words))
    assert built_by(shuffled) == columns
    assert products == []


@pytest.mark.parametrize("change, ratio", [
    (lambda v: times_rational(v, -1), "xi^1 * i^2 * 1"),
    (lambda v: times_rational(v, Fraction(2, 3)), "xi^1 * 2/3"),
    (lambda v: v._replace(xi_exp=v.xi_exp + 1), "xi^2 * 1"),
    (lambda v: v._replace(root=3 * v.root), "xi^1 * sqrt(3)"),
], ids=["phase", "magnitude", "xi", "root"])
def test_casimir_not_scalar_in_the_second_half(example3, change, ratio):
    # "1111122" reads X2+ only in its second half, through a composed
    # column.  An X2+ entry changed in one part of its value gives the
    # message whether the change is in place before the first call or
    # replaces the column after that call kept it
    comp = [c for c in finite_comps(example3) if not c.contractible][0]
    fresh, kept = build_module(example3, comp), build_module(example3, comp)
    assert casimir(kept, "1111122").scalar == Radical.xi_power(1)
    for rep in (fresh, kept):
        corrupt(rep, "X2+", (9, 4), change)
        with pytest.raises(AssertionError) as exc:
            casimir(rep, "1111122")
        assert str(exc.value) == f"casimir ratio is not scalar: ['xi^1 * 1', '{ratio}']"
