from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import staircase_band
from reference import face_weight, vertex_val2
from vertexmod.configuration import Configuration, from_edges, random_config
from vertexmod.lattice import Edge, Lattice
from vertexmod.topology import (
    EmptyWindowError,
    components,
    eight_vertex_violations,
    overlay,
    subcomponents,
    window_flood,
)

lattices = st.sampled_from([(1, 1), (2, 1), (3, 2), (5, 2)])


def weights_of(comp):
    return sorted(comp.weights)


def red_edges(lat, ov):
    """The overlay's red edges as canonical lattice edges."""
    return sorted(lat.edge_of_mid2("V" if i == 1 else "H", mid2) for i, mid2 in ov.red_edges())


def test_components_example2(example2):
    comps = components(example2)
    assert len(comps) == 4
    assert [c.finite for c in comps] == [True, True, False, False]
    assert weights_of(comps[0]) == [0, 2, 4] and comps[0].contractible
    assert weights_of(comps[1]) == [1] and comps[1].contractible
    assert not comps[2].contractible and not comps[3].contractible


def test_components_empty(lat52):
    comps = components(Configuration(lat52, {}))
    assert len(comps) == 1
    assert not comps[0].finite and not comps[0].contractible


def test_components_example1():
    for d in (2, 4, 7):
        comps = components(staircase_band(d))
        finite = [c for c in comps if c.finite]
        assert len(comps) == 3 and len(finite) == 1
        band = finite[0]
        assert band.dim == d and not band.contractible
        assert weights_of(band) == list(range(1, d + 1))
    # the d = 1 member pinches to a single square, which is contractible
    comps = components(staircase_band(1))
    band = [c for c in comps if c.finite][0]
    assert band.dim == 1 and band.contractible


def test_components_example3(example3):
    dims = sorted(c.dim for c in components(example3) if c.finite)
    assert dims == [6, 14]


def test_components_rejects_nonconserving(lat52):
    bad = from_edges(lat52, [(Edge("V", 2, 1), 1)])
    with pytest.raises(ValueError):
        components(bad)


def test_internal_elements_example2(example2):
    lat = example2.lat
    comps = components(example2)
    d2, d1 = comps[0], comps[1]
    ov = overlay(example2, d2)
    # vertical edges only, midpoints 1, 3
    assert list(ov.signs) == [(1, lat.edge_mid2(e)) for e in (Edge("V", 4, 2), Edge("V", 3, 2))]
    assert ov.vertices == []
    ov1 = overlay(example2, d1)
    assert ov1.signs == {} and ov1.vertices == []


def test_internal_elements_band():
    # width-1 band with d faces: d-1 internal edges of each kind and d-2
    # internal vertices (all four surrounding faces must lie inside)
    for d in (2, 4, 6):
        cfg = staircase_band(d)
        band = [c for c in components(cfg) if c.finite][0]
        ov = overlay(cfg, band)
        assert sum(i == 1 for i, _ in ov.signs) == d - 1
        assert sum(i == 2 for i, _ in ov.signs) == d - 1
        assert len(ov.vertices) == d - 2


def test_overlay_example2(example2):
    lat = example2.lat
    d2 = components(example2)[0]
    ov = overlay(example2, d2)
    assert ov.signs[1, lat.edge_mid2(Edge("V", 3, 2))] == -1
    assert ov.signs[1, lat.edge_mid2(Edge("V", 4, 2))] == 1
    assert red_edges(lat, ov) == [Edge("V", 3, 2)]


def test_overlay_band_star_and_dagger(example1_d4):
    band = [c for c in components(example1_d4) if c.finite][0]
    star = overlay(example1_d4, band)
    assert all(s == -1 for s in star.signs.values())
    dagger = overlay(example1_d4, band, "dagger")
    assert all(s == 1 for s in dagger.signs.values())
    with pytest.raises(ValueError):
        overlay(example1_d4, band, "bogus")


def test_eight_vertex_band(example1_d4):
    band = [c for c in components(example1_d4) if c.finite][0]
    ov = overlay(example1_d4, band)
    assert eight_vertex_violations(example1_d4, band, ov) == []


def test_eight_vertex_check_rejects_broken_overlays():
    # flipping one internal edge makes exactly its internal end vertices odd;
    # dropping it leaves an internal vertex with a non-internal edge
    for d in (3, 5):
        cfg = staircase_band(d)
        lat = cfg.lat
        band = [c for c in components(cfg) if c.finite][0]
        ov = overlay(cfg, band)
        assert len(ov.vertices) == d - 2
        ends_seen = 0
        for key, s in ov.signs.items():
            kind, x, y = lat.edge_of_mid2("V" if key[0] == 1 else "H", key[1])
            ends = [(x, y - 1), (x, y)] if kind == "V" else [(x - 1, y), (x, y)]
            internal_ends = sorted(t for t in (vertex_val2(lat, v) for v in ends) if t in ov.vertices)
            if not internal_ends:
                continue
            ends_seen += len(internal_ends)
            flipped = replace(ov, signs={**ov.signs, key: -s})
            bad = eight_vertex_violations(cfg, band, flipped)
            assert sorted(vertex_val2(lat, v) for v in bad) == internal_ends
            with pytest.raises(ValueError, match="eight-vertex"):
                subcomponents(cfg, band, flipped)
            dropped = replace(ov, signs={k: v for k, v in ov.signs.items() if k != key})
            with pytest.raises(AssertionError):
                eight_vertex_violations(cfg, band, dropped)
        # each internal vertex is an end of four internal edges
        assert ends_seen == 4 * (d - 2)


def test_subcomponents_example2(example2):
    comps = components(example2)
    d2, d1 = comps[0], comps[1]
    pieces = subcomponents(example2, d2, overlay(example2, d2))
    assert [(sorted(p.weights), p.color) for p in pieces] == [([0, 2], 1), ([4], -1)]
    sub1 = subcomponents(example2, d1, overlay(example2, d1))
    assert [(sorted(p.weights), p.color) for p in sub1] == [([1], 1)]


def test_subcomponents_band_alternate(example1_d4):
    band = [c for c in components(example1_d4) if c.finite][0]
    pieces = subcomponents(example1_d4, band, overlay(example1_d4, band))
    assert len(pieces) == 4
    assert all(len(p.weights) == 1 for p in pieces)
    by_weight = sorted(pieces, key=lambda p: min(p.weights))
    assert [p.color for p in by_weight] == [1, -1, 1, -1]


@given(lattices, st.integers(1, 3), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_partition_eight_vertex_and_additivity(mn, k, seed):
    cfg = random_config(Lattice(*mn), k, seed)
    comps = components(cfg)
    # faces of the enumeration window are partitioned exactly
    all_ws = sorted(w for c in comps for w in c.weights)
    assert all_ws == list(range(min(all_ws), max(all_ws) + 1))
    assert len(set(all_ws)) == len(all_ws)
    lat = cfg.lat
    a, b = lat.alpha, lat.beta
    reach = 2 * (lat.m + lat.n)
    first = 2 * min(all_ws) - reach
    first += (first - a - b) % 2  # doubled vertex values have the parity of a + b
    for comp in comps:
        if not comp.finite:
            continue
        # brute force: every vertex of the window whose four faces all lie in comp
        scanned = [t for t in range(first, 2 * max(all_ws) + reach, 2)
                   if all((t + sa * a + sb * b) // 2 in comp.weights
                          for sa in (-1, 1) for sb in (-1, 1))]
        ov = overlay(cfg, comp)
        assert ov.vertices == scanned
        assert eight_vertex_violations(cfg, comp, ov) == []
        pieces = subcomponents(cfg, comp, ov)
        # dimension additivity and the coloring flip rule across red edges
        assert sum(len(p.weights) for p in pieces) == comp.dim
        color = {w: p.color for p in pieces for w in p.weights}
        for (i, mid2), s in ov.signs.items():
            step = cfg.lat.alpha if i == 1 else cfg.lat.beta
            wlo = (mid2 - step) // 2
            assert color[wlo] * color[wlo + step] == s


def test_nonempty_config_has_two_infinite_components(example2, example3, example4):
    for cfg in (example2, example3, example4):
        inf = [c for c in components(cfg) if not c.finite]
        assert len(inf) == 2
        assert all(not c.contractible for c in inf)


def test_overlay_red_edges_example3(example3):
    # frozen geometry of the 14-face component's negative-sign overlay
    lat = example3.lat
    big = [c for c in components(example3) if c.finite and c.dim == 14][0]
    expected = ([Edge("H", x, 2) for x in (1, 2)]
                + [Edge("H", x, 3) for x in (2, 3, 4, 5)]
                + [Edge("V", 3, 5), Edge("H", 4, 4), Edge("H", 5, 4)])
    assert red_edges(lat, overlay(example3, big)) == \
        sorted({lat.canonical_edge(e) for e in expected})


def test_overlay_red_edges_example4(example4):
    lat = example4.lat
    comp = [c for c in components(example4) if c.finite][0]
    expected = {lat.canonical_edge(e) for e in
                (Edge("H", 1, 1), Edge("H", 2, 1), Edge("V", 6, 5), Edge("H", 7, 4))}
    assert red_edges(lat, overlay(example4, comp)) == sorted(expected)


def test_two_coloring_example3(example3):
    # the 14-face component splits 7 + 7 with these exact weight classes
    lat = example3.lat
    big = [c for c in components(example3) if c.finite and c.dim == 14][0]
    pieces = subcomponents(example3, big, overlay(example3, big))
    one_side = {face_weight(lat, (x, 3)) for x in range(1, 6)}
    one_side |= {face_weight(lat, (x, 5)) for x in (4, 5)}
    by_color = {}
    for p in pieces:
        by_color.setdefault(p.color, set()).update(p.weights)
    assert one_side in by_color.values()
    assert big.weights - one_side in by_color.values()


def test_narrow_window_keeps_faces_joined_outside_it(example2):
    # component 3 (enumerated as 3..16) holds faces 16 and 17, which are
    # joined only through weights outside [16, 17]
    comp = components(example2)[3]
    weights, lifts = window_flood(example2, comp, 16, 17)
    assert weights == [16, 17]
    assert lifts[16] == comp.lifts[16]
    with pytest.raises(EmptyWindowError, match=r"window \(-120, -100\) does not meet component 3"):
        window_flood(example2, comp, -120, -100)


@given(lattices, st.integers(0, 3), st.integers(0, 10**6), st.integers(-60, 60),
       st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_window_fill_is_the_wide_fill_clipped(mn, k, seed, lo, width):
    # every subwindow's fill is the component's faces in a wide window,
    # clipped to the subwindow; an empty one is an error
    cfg = random_config(Lattice(*mn), k, seed)
    for comp in components(cfg):
        wide = window_flood(cfg, comp, -200, 200)[0]
        assert set(wide) >= comp.weights
        expected = [w for w in wide if lo <= w <= lo + width]
        if expected:
            assert window_flood(cfg, comp, lo, lo + width)[0] == expected
        else:
            with pytest.raises(EmptyWindowError):
                window_flood(cfg, comp, lo, lo + width)
