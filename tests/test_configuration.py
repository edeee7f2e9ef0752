import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from vertexmod.configuration import (
    Configuration,
    VertexPath,
    flip_corner,
    from_edges,
    from_paths,
    max_area_path,
    random_config,
)
from vertexmod.lattice import Edge, Lattice, Vertex
from vertexmod.scalar import Radical

lattices = st.sampled_from([(1, 1), (2, 1), (3, 2), (5, 2)])


def test_from_paths_walk(lat52):
    cfg = from_paths(lat52, [VertexPath((0, 0), "1121112")])
    expected = {Edge("H", 1, 0), Edge("H", 2, 0), Edge("V", 2, 1), Edge("H", 3, 1),
                Edge("H", 4, 1), Edge("H", 5, 1), Edge("V", 5, 2)}
    assert set(cfg.edges) == {lat52.canonical_edge(e) for e in expected}
    assert all(k == 1 for k in cfg.edges.values())


def test_shared_first_step(example2):
    assert example2.mult(Edge("H", 1, 0)) == 2


def test_empty_path_list(lat52):
    cfg = from_paths(lat52, [])
    assert cfg.is_empty()
    assert cfg.conservation_violations() == []


def test_path_validation(lat52):
    with pytest.raises(ValueError):
        from_paths(lat52, [VertexPath((0, 0), "112111")])  # needs 5 ones, 2 twos
    with pytest.raises(ValueError):
        from_paths(lat52, [VertexPath((0, 0), "11x1122")])


def test_from_edges_dangling(lat52):
    cfg = from_edges(lat52, [(Edge("V", 2, 1), 1)])
    assert cfg.conservation_violations() == [Vertex(2, 0), Vertex(2, 1)]
    assert len(cfg.mte_violations("P")) > 0
    assert len(cfg.mte_violations("q")) > 0


def test_from_edges_matches_from_paths(lat52, example2):
    again = from_edges(lat52, list(example2.edges.items()))
    assert again == example2
    assert again.conservation_violations() == []


def test_poly_roots(example2):
    assert example2.poly_roots(1) == [-2, 0, 4, 10]
    r2 = example2.poly_roots(2)
    assert len(r2) == 10  # two paths, five horizontal steps each
    assert r2.count(1) == 2  # the doubled shared edge at midpoint 1/2


def test_poly_roots_staircase_band():
    from conftest import staircase_band

    for d in (1, 3, 6):
        cfg = staircase_band(d)
        assert cfg.poly_roots(1) == [1, 1 + 2 * d]
        assert cfg.poly_roots(2) == [1, 1 + 2 * d]


def test_poly_eval(example2, lat52):
    assert example2.poly_eval(1, 6) == Fraction(-24)  # (3)(4)(1)(-2)
    assert Configuration(lat52, {}).poly_eval(1, 17) == 1
    assert example2.poly_eval(1, 0) == 0


def test_count_above(example2, lat52):
    assert example2.count_above(1, lat52.edge_mid2(Edge("V", 3, 2))) == 1
    assert example2.count_above(1, lat52.edge_mid2(Edge("V", 4, 2))) == 2
    assert Configuration(lat52, {}).count_above(1, 0) == 0


@given(lattices, st.integers(0, 3), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_count_above_brute_force(mn, k, seed):
    cfg = random_config(Lattice(*mn), k, seed)
    lo, hi = cfg.support_mid2_range() or (0, 0)
    for i in (1, 2):
        roots = cfg.poly_roots(i)
        step = cfg.lat.alpha if i == 1 else cfg.lat.beta
        for w in range(lo // 2 - 3, hi // 2 + 4):
            mid2 = 2 * w + step
            assert cfg.count_above(i, mid2) == sum(1 for r in roots if r > mid2)


def test_sqrt_value(example2, lat52):
    assert example2.sqrt_value(1, lat52.edge_mid2(Edge("V", 3, 2))) == Radical.make(phase=1, root=24)
    assert Configuration(lat52, {}).sqrt_value(1, 4) == Radical.one()
    assert example2.sqrt_value(1, lat52.edge_mid2(Edge("V", 2, 1))) == Radical.zero()  # supported edge


def _reference_edge_values(cfg, i, mid2):
    """P_i and q_i at mid2 rebuilt root by root, sharing no code with the memo."""
    roots = cfg.poly_roots(i)
    p = Fraction(1)
    q = Radical(0, sum(1 for r in roots if r > mid2) % 4, Fraction(1), 1)
    for r in roots:
        p *= Fraction(mid2 - r, 2)
        q = q * Radical.sqrt_rational(Fraction(abs(mid2 - r), 2))
    return p, q


@given(st.sampled_from([(1, 1), (2, 1), (3, 2), (5, 2), (4, 3), (5, 3)]),
       st.integers(0, 3), st.integers(0, 10**6))
@example((1, 1), 3, 3)  # repeated roots, odd total degree in both orientations
@example((5, 2), 3, 2)  # repeated roots, odd total degree 15 in orientation 2
@example((5, 3), 1, 0)  # simple roots, odd total degree in both orientations
@example((5, 2), 0, 0)  # the empty configuration
@settings(max_examples=60, deadline=None)
def test_memoized_edge_values_match_reference(mn, k, seed):
    cfg = random_config(Lattice(*mn), k, seed)
    lo, hi = cfg.support_mid2_range() or (0, 0)
    margin = 2 * (cfg.lat.m + cfg.lat.n)
    queries = [(i, mid2) for i in (1, 2) for mid2 in range(lo - margin, hi + margin + 1)] * 2
    random.Random(seed).shuffle(queries)
    for i, mid2 in queries:
        p, q = _reference_edge_values(cfg, i, mid2)
        assert cfg.poly_eval(i, mid2) == p
        assert cfg.sqrt_value(i, mid2) == q


def test_reference_examples_cover_repeats_and_odd_degree():
    for mn, k, seed, repeated, degrees in [((1, 1), 3, 3, True, (3, 3)),
                                           ((5, 2), 3, 2, True, (6, 15)),
                                           ((5, 3), 1, 0, False, (3, 5))]:
        cfg = random_config(Lattice(*mn), k, seed)
        assert any(m > 1 for m in cfg.edges.values()) == repeated
        assert (cfg.total_multiplicity(1), cfg.total_multiplicity(2)) == degrees


def test_edges_are_read_only(example2, lat52):
    e = Edge("H", 1, 0)
    q = example2.sqrt_value(2, 5)
    with pytest.raises(TypeError):
        example2.edges[e] = 5
    with pytest.raises(TypeError):
        del example2.edges[e]
    assert example2.mult(e) == 2
    assert example2.sqrt_value(2, 5) == q
    again = from_paths(lat52, [VertexPath((0, 0), "1121112"), VertexPath((0, 0), "1212111")])
    assert again == example2
    assert Configuration(lat52, dict(example2.edges)) == example2
    assert Configuration(lat52, {}) != example2


@given(lattices, st.integers(0, 3), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_sqrt_squares_to_poly_and_sign_law(mn, k, seed):
    cfg = random_config(Lattice(*mn), k, seed)
    lo, hi = cfg.support_mid2_range() or (0, 0)
    for i in (1, 2):
        step = cfg.lat.alpha if i == 1 else cfg.lat.beta
        for w in range(lo // 2 - 3, hi // 2 + 4):
            mid2 = 2 * w + step
            p = cfg.poly_eval(i, mid2)
            q = cfg.sqrt_value(i, mid2)
            assert (q * q).as_rational() == p
            if p != 0:
                assert (1 if p > 0 else -1) == (-1) ** cfg.count_above(i, mid2)


@given(lattices, st.integers(0, 3), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_conservation_of_counts_at_vertices(mn, k, seed):
    # the above-count function satisfies the same conservation rule as the
    # multiplicities themselves
    cfg = random_config(Lattice(*mn), k, seed)
    a, b = cfg.lat.alpha, cfg.lat.beta
    lo, hi = cfg.support_mid2_range() or (0, 0)
    t0 = lo - 2 * (cfg.lat.m + cfg.lat.n)
    if t0 % 2 != (a + b) % 2:
        t0 += 1
    for t in range(t0, hi + 2 * (cfg.lat.m + cfg.lat.n) + 1, 2):
        assert (cfg.count_above(1, t + b) + cfg.count_above(2, t + a)
                == cfg.count_above(1, t - b) + cfg.count_above(2, t - a))


def test_mte_example(example2):
    assert example2.mte_violations("P") == []
    assert example2.mte_violations("q") == []
    with pytest.raises(ValueError):
        example2.mte_violations("x")


@given(lattices, st.integers(0, 4), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_random_configs_conserve_and_solve_mte(mn, k, seed):
    cfg = random_config(Lattice(*mn), k, seed)
    assert cfg.conservation_violations() == []
    assert cfg.mte_violations("P") == []
    assert cfg.mte_violations("q") == []


def test_mte_conclusive_at_high_multiplicity():
    # many stacked copies of one loop: the degree exceeds the support's
    # bounding box, and the check window widens until it stays conclusive
    lat = Lattice(1, 1)
    base = from_paths(lat, [max_area_path(lat)] * 8)
    assert base.mte_violations("P") == []
    assert base.mte_violations("q") == []
    # perturbing one multiplicity breaks conservation and both checks see it
    edges = dict(base.edges)
    first = next(iter(edges))
    edges[first] += 1
    broken = Configuration(lat, edges)
    assert broken.conservation_violations() != []
    assert broken.mte_violations("P") != []
    assert broken.mte_violations("q") != []


def test_max_area_path():
    assert max_area_path(Lattice(5, 2)).steps == "2211111"
    assert max_area_path(Lattice(1, 1)).steps == "21"
    cfg = from_paths(Lattice(5, 2), [max_area_path(Lattice(5, 2))])
    assert cfg.conservation_violations() == []
    assert cfg.mte_violations("P") == []
    assert cfg.mte_violations("q") == []


def test_random_config_deterministic():
    lat = Lattice(3, 2)
    assert random_config(lat, 3, 99) == random_config(lat, 3, 99)
    assert random_config(lat, 0, 5).is_empty()


@given(lattices, st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_corner_flip_stability(mn, seed):
    import random

    lat = Lattice(*mn)
    rng = random.Random(seed)
    steps = list("1" * lat.m + "2" * lat.n)
    rng.shuffle(steps)
    path = VertexPath((0, 0), "".join(steps))
    corners = [i for i in range(len(steps) - 1) if path.steps[i:i + 2] == "21"]
    for i in corners:
        flipped = flip_corner(path, i)
        cfg = from_paths(lat, [flipped])
        assert cfg.conservation_violations() == []
        assert cfg.mte_violations("P") == []
        assert cfg.mte_violations("q") == []


def test_flip_corner_rejects_non_corner():
    with pytest.raises(ValueError):
        flip_corner(VertexPath((0, 0), "12"), 0)
