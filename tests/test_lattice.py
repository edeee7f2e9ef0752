import pytest
from hypothesis import given, strategies as st

from reference import face_weight, vertex_val2
from vertexmod.lattice import Edge, Face, Lattice, Vertex

coprime_pairs = st.sampled_from([(1, 1), (2, 1), (3, 2), (5, 2), (5, 3), (7, 3), (8, 5)])


def test_new_lattice():
    lat = Lattice(5, 2)
    assert (lat.alpha, lat.beta) == (-2, 5)
    assert (Lattice(1, 1).alpha, Lattice(1, 1).beta) == (-1, 1)
    with pytest.raises(ValueError):
        Lattice(4, 2)
    with pytest.raises(ValueError):
        Lattice(0, 3)
    with pytest.raises(ValueError):
        Lattice(3, 0)


def test_face_weight():
    lat = Lattice(5, 2)
    assert face_weight(lat, Face(2, 1)) == 1
    assert face_weight(lat, Face(0, 0)) == 0
    assert face_weight(lat, Face(7, 3)) == 1  # period shift of (2,1)


def test_edge_midpoint2():
    assert Lattice(5, 2).edge_mid2(Edge("V", 3, 2)) == 6
    assert Lattice(5, 2).edge_mid2(Edge("H", 1, 0)) == 1
    assert Lattice(1, 1).edge_mid2(Edge("V", 1, 2)) == 1


def test_canonicalize():
    lat = Lattice(5, 2)
    assert lat.canonicalize(Face(5, 2)) == (Face(0, 0), 1)
    assert lat.canonicalize(Face(0, 0)) == (Face(0, 0), 0)
    assert lat.canonicalize(Face(-5, -2)) == (Face(0, 0), -1)


@given(coprime_pairs, st.integers(-30, 30), st.integers(-30, 30))
def test_canonicalize_shift(mn, x, y):
    lat = Lattice(*mn)
    rep, k = lat.canonicalize(Face(x, y))
    assert 0 <= rep.x < lat.m
    assert (rep.x + k * lat.m, rep.y + k * lat.n) == (x, y)
    rep2, k2 = lat.canonicalize(Face(x + lat.m, y + lat.n))
    assert rep2 == rep and k2 == k + 1


@given(coprime_pairs)
def test_weight_bijection_window(mn):
    lat = Lattice(*mn)
    # no gaps, no collisions: every weight in a window has exactly one face
    seen = set()
    for w in range(-40, 41):
        f = lat.face_of_weight(w)
        assert face_weight(lat, f) == w
        assert 0 <= f.x < lat.m
        assert f not in seen
        seen.add(f)


@given(coprime_pairs, st.integers(-20, 20), st.integers(-20, 20))
def test_edge_midpoint_parity(mn, x, y):
    lat = Lattice(*mn)
    assert lat.edge_mid2(Edge("V", x, y)) % 2 == lat.alpha % 2
    assert lat.edge_mid2(Edge("H", x, y)) % 2 == lat.beta % 2
    # midpoints are period invariant
    assert lat.edge_mid2(Edge("V", x + lat.m, y + lat.n)) == lat.edge_mid2(Edge("V", x, y))


@given(coprime_pairs, st.integers(-25, 25))
def test_edge_and_vertex_inverse_maps(mn, w):
    lat = Lattice(*mn)
    for kind in ("V", "H"):
        step = lat.alpha if kind == "V" else lat.beta
        e = lat.edge_of_mid2(kind, 2 * w + step)
        assert lat.edge_mid2(e) == 2 * w + step
        assert 0 <= e.x < lat.m
    t = 2 * w + lat.alpha + lat.beta
    v = lat.vertex_of_val2(t)
    assert vertex_val2(lat, v) == t


def test_vertex_value():
    lat = Lattice(5, 2)
    assert vertex_val2(lat, Vertex(0, 0)) == 3  # alpha + beta
    assert vertex_val2(lat, Vertex(2, 1)) == 2 * 1 + 3
