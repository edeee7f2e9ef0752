"""Acceptance suite: one test per criterion, one printed line per criterion.

Everything is exact arithmetic; no tolerances appear except in the stated
performance guards and the 1e-9 numeric cross-checks of criterion 3.

Three clauses hold only in a corrected form (the README walks through the
counterexamples); the *_defective_clause tests assert that true form, with
the expected facts derived independently of the code under test:

* criterion 2: the staircase band is incontractible for d = 2..8 only; at
  d = 1 the two loops share vertices, all four sides of the one face between
  them are supported, and the component is that face, a disk;
* criterion 6: on that one-dimensional d = 1 module the raising generators
  and every balanced loop operator vanish, so the Casimir scalar is 0;
* criterion 7: the loop square-root product equals the order polynomial
  exactly, sign included, so the phase is 2 mod 4 exactly where the order
  polynomial is negative and 0 mod 4 elsewhere (first negative point:
  width-4 band, word 12, weight 2, where both sides are -3).
"""

import cmath
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import staircase_band
from vertexmod.cli import main
from vertexmod.configfile import parse
from vertexmod.configuration import Configuration, random_config
from vertexmod.lattice import Lattice
from vertexmod.linalg import MonomialMat
from vertexmod.representation import (
    balanced_words,
    build_module,
    casimir,
    check_order_product,
    loop_matrix,
    order_product,
    order_support,
    path_poly_product,
    path_sqrt_product,
    verify_relations,
)
from vertexmod.scalar import Radical
from vertexmod.topology import (
    components,
    eight_vertex_violations,
    overlay,
    subcomponents,
)
from vertexmod.unitarity import (
    SignTable,
    check_sign_consistency,
    gram_diag,
    gram_matrix,
    signature_coloring,
    signature_direct,
    unitarizability_report,
    verify_invariance,
)

PAIRS = [(1, 1), (2, 1), (3, 2), (5, 2)]
CONFIGS_PER_PAIR = 200


def report(num, desc):
    print(f"ACCEPTANCE {num:>2}: PASS - {desc}")


def finite_comps(cfg):
    return [c for c in components(cfg) if c.finite]


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def examples():
    return {
        k: parse((CONFIG_DIR / f"example{k}.cfg").read_text()).configuration()
        for k in (2, 3, 4)
    }


@pytest.fixture(scope="module")
def random_scan():
    """One shared sweep: 200 random configurations per period pair.

    Collects every exact check needed by criteria 5, 8, 10 and 11 so the
    sweep runs once.
    """
    stats = {
        "configs": 0,
        "modules": 0,
        "relation_failures": 0,
        "invariance_failures": 0,
        "eight_vertex_violations": 0,
        "eight_vertex_configs": 0,
        "partition_failures": 0,
    }
    for m, n in PAIRS:
        lat = Lattice(m, n)
        for seed in range(CONFIGS_PER_PAIR):
            cfg = random_config(lat, 1 + seed % 2, seed)
            comps = components(cfg)
            stats["configs"] += 1
            ws = sorted(w for c in comps for w in c.weights)
            if ws != list(range(ws[0], ws[-1] + 1)):
                stats["partition_failures"] += 1
            if stats["eight_vertex_configs"] < 500:
                stats["eight_vertex_configs"] += 1
                for comp in comps:
                    if comp.finite:
                        ov = overlay(cfg, comp)
                        stats["eight_vertex_violations"] += len(
                            eight_vertex_violations(cfg, comp, ov))
            for comp in comps:
                if not comp.finite:
                    continue
                rep = build_module(cfg, comp)
                stats["modules"] += 1
                if not verify_relations(rep).ok:
                    stats["relation_failures"] += 1
                if not verify_invariance(rep).ok:
                    stats["invariance_failures"] += 1
    return stats


def test_criterion_01_example2(examples, tmp_path):
    cfg = examples[2]
    comps = components(cfg)
    assert len(comps) == 4
    fins = finite_comps(cfg)
    assert sorted(c.dim for c in fins) == [1, 3]
    d1 = next(c for c in fins if c.dim == 1)
    d2 = next(c for c in fins if c.dim == 3)
    assert unitarizability_report(cfg, d1).verdict
    assert signature_direct(cfg, d2) == (1, 2)
    assert signature_coloring(cfg, d2) == (1, 2)
    red = [e for c in fins for e in overlay(cfg, c).red_edges()]
    assert len(red) == 1
    # and the command line tool reports the same component table
    f = tmp_path / "ex2.cfg"
    f.write_text((CONFIG_DIR / "example2.cfg").read_text())
    assert main(["components", str(f), "--json"]) == 0
    report(1, "example 2: 4 components, dims {1,3}, signature {1,2}, one red edge")


def test_criterion_02_example1_family():
    for d in range(1, 9):
        cfg = staircase_band(d)
        band = finite_comps(cfg)[0]
        assert band.dim == d
        assert cfg.poly_roots(1) == [1, 1 + 2 * d]
        assert cfg.poly_roots(2) == [1, 1 + 2 * d]
        ov = overlay(cfg, band)
        assert all(s == -1 for s in ov.signs.values())
        expected = (d // 2, d - d // 2)
        assert signature_direct(cfg, band) == expected
        assert signature_coloring(cfg, band) == expected
        dag = overlay(cfg, band, "dagger")
        assert all(s == 1 for s in dag.signs.values())
        assert signature_coloring(cfg, band, "dagger") == (0, d)
        assert unitarizability_report(cfg, band, "dagger").verdict
        if d >= 2:
            assert not band.contractible
    report(2, "example 1 family d=1..8: polynomials, red overlay, signatures, dagger")


def test_criterion_02_defective_clause_d1_incontractible():
    # true form: the band is incontractible for d = 2..8, and at d = 1 it is
    # a disk.  There the two loops share vertices: all four sides of the one
    # face between them, at weight 1, are supported edges.
    steps = Lattice(1, 1).steps
    pinched = staircase_band(1)
    assert all(pinched.mult_mid2(s.orient, 2 * 1 + s.dw) > 0 for s in steps.values())
    assert finite_comps(pinched)[0].contractible
    # for d >= 2, X2+ from weight 1 and then X1+ from weight 2 cross the edges
    # at doubled midpoint 3, which are unsupported, and return to weight 1 one
    # period over: a face loop inside the band that winds around the cylinder
    up, left = steps["X2+"], steps["X1+"]
    assert up.dw + left.dw == 0
    assert tuple(map(sum, zip(up.lift, left.lift))) == (1, 1)
    for d in range(2, 9):
        cfg = staircase_band(d)
        band = finite_comps(cfg)[0]
        assert not band.contractible
        assert {1, 2} <= band.weights
        assert cfg.mult_mid2(up.orient, 2 * 1 + up.dw) == 0
        assert cfg.mult_mid2(left.orient, 2 * 2 + left.dw) == 0
    report(2, "example 1 family: d=1 face supported on all four sides (a disk), "
              "d=2..8 incontractible")


def test_criterion_03_example3(examples):
    cfg = examples[3]
    fins = finite_comps(cfg)
    assert sorted(c.dim for c in fins) == [6, 14]
    by_dim = {c.dim: c for c in fins}
    assert signature_coloring(cfg, by_dim[6]) == (0, 6)
    assert unitarizability_report(cfg, by_dim[6]).verdict
    big = by_dim[14]
    assert signature_direct(cfg, big) == (7, 7)
    assert signature_coloring(cfg, big) == (7, 7)
    # identical at three concrete unit-modulus parameter values: the numeric
    # form stays invariant and its sign counts reproduce the signature
    rep = build_module(cfg, big)
    g = gram_diag(rep)
    assert tuple(sorted((g.count(1), g.count(-1)))) == (7, 7)
    for k in (1, 2, 3):
        xi = cmath.exp(2j * cmath.pi * k / 9)
        for i in (1, 2):
            plus, minus = rep.mats[f"X{i}+"], rep.mats[f"X{i}-"]
            for (r, c), v in plus.items():
                lhs = v.value(xi).conjugate() * g[r]
                rhs = g[c] * minus.entry(c, r).value(xi)
                assert abs(lhs - rhs) < 1e-9
        assert abs(casimir(rep, "1111122").scalar.value(xi) - xi) < 1e-9
    report(3, "example 3: dims {6,14}, {6,0} unitarizable, {7,7} at formal and unit xi")


def test_criterion_04_example4(examples):
    cfg = examples[4]
    fins = finite_comps(cfg)
    assert len(fins) == 1 and fins[0].dim == 11
    assert signature_direct(cfg, fins[0]) == (5, 6)
    assert signature_coloring(cfg, fins[0]) == (5, 6)
    report(4, "example 4: unique finite component, dim 11, signature {5,6}")


def test_criterion_05_relations(examples, random_scan):
    for cfg in examples.values():
        for comp in finite_comps(cfg):
            rep = verify_relations(build_module(cfg, comp))
            assert rep.ok and not rep.skipped
    for d in range(1, 9):
        cfg = staircase_band(d)
        rep = verify_relations(build_module(cfg, finite_comps(cfg)[0]))
        assert rep.ok and not rep.skipped
    assert random_scan["configs"] == len(PAIRS) * CONFIGS_PER_PAIR
    assert random_scan["relation_failures"] == 0
    report(5, f"relations exact on examples and {random_scan['modules']} random modules")


def test_criterion_06_casimir(examples):
    for d in range(1, 9):
        cfg = staircase_band(d)
        rep = build_module(cfg, finite_comps(cfg)[0])
        scalars = {w: casimir(rep, w).scalar for w in balanced_words(1, 1)}
        assert len(set(scalars.values())) == 1  # word independence
        if d >= 2:
            assert scalars["12"] == Radical.xi_power(1)
    empty = Configuration(Lattice(5, 2), {})
    rep = build_module(empty, components(empty)[0], window=(-20, 20))
    for word in balanced_words(5, 2):
        assert casimir(rep, word).scalar == Radical.xi_power(1)
    # unitarity of the Casimir: form-adjoint(C) C = id exactly
    for cfg in (staircase_band(4), examples[3]):
        for comp in finite_comps(cfg):
            if comp.contractible:
                continue
            mrep = build_module(cfg, comp)
            word = balanced_words(cfg.lat.m, cfg.lat.n)[0]
            C = MonomialMat.diagonal([casimir(mrep, word).scalar] * mrep.dim)
            G = gram_matrix(mrep)
            assert (G @ C.conj_transpose() @ G) @ C == MonomialMat.identity(mrep.dim)
    report(6, "casimir: word independent, xi on empty windows and bands, unitary")


def test_criterion_06_defective_clause_d1_scalar():
    # true form: the scalar is xi for d = 2..8 and 0 at d = 1.  The d = 1
    # module is one-dimensional and X1+, X2+ change the weight, so they act
    # as zero there, and so does every balanced loop operator.
    cfg = staircase_band(1)
    rep = build_module(cfg, finite_comps(cfg)[0])
    assert rep.dim == 1
    assert all(cfg.lat.steps[g].dw != 0 for g in ("X1+", "X2+"))
    for word in ("12", "21"):
        assert loop_matrix(rep, word).is_zero
        assert casimir(rep, word).scalar == Radical.zero()
    report(6, "d=1: one-dimensional module, loop operators vanish, casimir scalar 0")


@pytest.fixture(scope="module")
def order_product_scan():
    stats = {"identity": 0, "crossing": 0, "sign": 0, "negative": 0, "checked": 0}
    for m, n in PAIRS:
        lat = Lattice(m, n)
        words = balanced_words(m, n)
        for seed in range(50):
            cfg = random_config(lat, 1 + seed % 2, seed)
            for word in words:
                r = check_order_product(cfg, word, (-20, 20))
                stats["identity"] += len(r.identity_failures)
                stats["crossing"] += len(r.crossing_failures)
                stats["sign"] += len(r.sign_failures)
                stats["checked"] += r.checked
                support = order_support(cfg, word)
                stats["negative"] += sum(order_product(cfg, word, mu, support) < 0
                                         for mu in range(-20, 21))
    return stats


def test_criterion_07_order_product(order_product_scan):
    s = order_product_scan
    assert s["checked"] >= 4 * 50 * 2 * 41
    assert s["identity"] == 0
    assert s["crossing"] == 0
    report(7, f"loop products equal order polynomials exactly and total "
              f"crossings = 2*order ({s['checked']} points)")


def test_criterion_07_defective_clause_phase(order_product_scan):
    # true form: the signed identity holds, so the loop phase is 2 mod 4
    # exactly where the order polynomial is negative, and 0 mod 4 elsewhere
    s = order_product_scan
    assert s["identity"] == 0
    assert s["negative"] > 0
    assert s["sign"] == s["negative"]
    # by hand, width-4 band, word 12, weight 2: both crossings are at doubled
    # midpoint 3, where P = (3/2 - 1/2)(3/2 - 9/2) = -3 and one supported edge
    # lies above, so each square root is i * sqrt(3)
    cfg = staircase_band(4)
    support = order_support(cfg, "12")
    assert support == {1: 1, 5: 1}
    assert order_product(cfg, "12", 2, support) == (2 - 1) * (2 - 5)
    assert path_sqrt_product(cfg, "12", 2) == Radical(0, 2, Fraction(3), 1)
    assert path_poly_product(cfg, "12", 2) == 9
    report(7, f"loop phase is 2 mod 4 exactly where the order polynomial is "
              f"negative ({s['negative']} of {s['checked']} points), 0 mod 4 elsewhere")


def test_criterion_08_form_invariance(examples, random_scan):
    for cfg in examples.values():
        for comp in finite_comps(cfg):
            assert verify_invariance(build_module(cfg, comp)).ok
    assert random_scan["invariance_failures"] == 0
    report(8, f"form invariance exact on examples and {random_scan['modules']} random modules")


def test_criterion_09_phase_path_independence():
    rng_failures = 0
    vertex_failures = 0
    paths = 0
    for m, n in [(3, 2), (5, 2)]:
        lat = Lattice(m, n)
        for seed in range(25):
            cfg = random_config(lat, 1 + seed % 2, seed)
            rep = check_sign_consistency(cfg, (-10, 10), box=6, backtracks=50)
            rng_failures += len(rep.path_failures)
            vertex_failures += len(rep.vertex_failures)
            paths += rep.paths_checked
    assert rng_failures == 0 and vertex_failures == 0
    report(9, f"phase parity path independent over {paths} enumerated paths; "
              f"vertex identity exact")


def test_criterion_10_eight_vertex(random_scan):
    assert random_scan["eight_vertex_configs"] >= 500
    assert random_scan["eight_vertex_violations"] == 0
    report(10, f"eight-vertex property: zero violations over "
               f"{random_scan['eight_vertex_configs']} configurations")


def test_criterion_11_decomposition(examples, random_scan):
    for cfg in examples.values():
        comps = components(cfg)
        ws = sorted(w for c in comps for w in c.weights)
        assert ws == list(range(ws[0], ws[-1] + 1))
    assert random_scan["partition_failures"] == 0
    report(11, "component supports partition every window exactly")


def test_criterion_12_performance(tmp_path):
    t0 = time.process_time()
    cf = parse((CONFIG_DIR / "example4.cfg").read_text())
    cfg = cf.configuration()
    comps = components(cfg)
    comp = finite_comps(cfg)[0]
    rep = build_module(cfg, comp)
    assert verify_relations(rep).ok
    assert signature_direct(cfg, comp) == signature_coloring(cfg, comp)
    from vertexmod.render import render_ascii, render_svg

    render_ascii(cfg, comp)
    render_svg(cfg, comp)
    pipeline = time.process_time() - t0
    assert pipeline < 1.0, f"example 4 pipeline took {pipeline:.2f}s"

    out = tmp_path / "catalog.ndjson"
    t0 = time.process_time()
    assert main(["catalog", "5", "2", "2", "--samples", "1000", "--seed", "0",
                 "--out", str(out)]) == 0
    catalog = time.process_time() - t0
    assert catalog < 30.0, f"catalog took {catalog:.1f}s"
    assert len(out.read_text().splitlines()) > 0
    report(12, f"performance: example 4 pipeline {pipeline:.3f}s, "
               f"catalog of 1000 samples {catalog:.1f}s")
