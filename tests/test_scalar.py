from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, strategies as st

from reference import (
    ONE,
    FracRadical,
    MonomialMat,
    as_rational,
    identity,
    radical,
    sqrt_rational,
    value,
)
from vertexmod.scalar import Radical, squarefree_decompose

radicals = st.builds(
    lambda k, a, num, den, root: radical(k, a, Fraction(num, den), root),
    st.integers(-3, 3), st.integers(0, 3),
    st.integers(0, 12), st.integers(1, 9), st.integers(1, 80),
)
nonzero_radicals = radicals.filter(lambda r: not r.is_zero)


@given(st.integers(1, 10**6))
def test_squarefree_decompose(n):
    g, s = squarefree_decompose(n)
    assert g * g * s == n
    for p in range(2, isqrt(s) + 1):
        assert s % (p * p) != 0


def test_make_normal_form():
    assert radical(coeff=0, xi_exp=3, phase=1, root=12) == Radical.zero()
    assert radical(root=24) == Radical(0, 0, 2, 1, 6)
    assert radical(coeff=-3) == Radical(0, 2, 3, 1, 1)
    assert sqrt_rational(Fraction(3, 2)) == Radical(0, 0, 1, 2, 6)


def test_mul_examples():
    # square of the square root recovers the signed polynomial value
    q = radical(phase=1, root=24)
    assert as_rational(q * q) == -24
    x = radical(phase=3, coeff=Fraction(5, 2), root=10)
    assert x * ONE == x
    a = radical(xi_exp=1, root=2)
    b = radical(xi_exp=-1, root=2)
    assert as_rational(a * b) == 2


def test_conjugate_examples():
    assert radical(phase=1, root=24).conjugate() == radical(phase=3, root=24)
    x = radical(coeff=7)
    assert x.conjugate() == x
    assert Radical.xi_power(2).conjugate() == Radical.xi_power(-2)


oracle_values = st.builds(
    lambda k, a, num, den, root: FracRadical.make(k, a, Fraction(num, den), root),
    st.integers(-3, 3), st.integers(-4, 7),
    st.integers(-40, 40), st.integers(1, 64), st.integers(1, 400),
)


@given(oracle_values, oracle_values)
def test_radical_agrees_with_fraction_oracle(x, y):
    # the integer normal form against the Fraction-coefficient reference
    a, b = x.radical(), y.radical()
    assert a.den >= 1 and gcd(a.num, a.den) == 1 and squarefree_decompose(a.root)[0] == 1
    assert a * b == (x * y).radical()
    assert a.conjugate() == x.conjugate().radical()
    assert (a == b) == (x == y)
    assert str(a) == str(x) and str(a * b) == str(x * y)


@given(nonzero_radicals, nonzero_radicals, nonzero_radicals)
def test_mul_associative_commutative(x, y, z):
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)


@given(radicals)
def test_conjugate_involution(x):
    assert x.conjugate().conjugate() == x


@given(nonzero_radicals, nonzero_radicals)
def test_conjugate_multiplicative(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


@given(radicals, radicals)
def test_numeric_consistency(x, y):
    xi = complex(0.6, 0.8)  # unit modulus
    lhs = value(x * y, xi)
    rhs = value(x, xi) * value(y, xi)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


@given(radicals)
def test_conjugate_matches_numeric(x):
    xi = complex(0.6, 0.8)
    assert abs(value(x.conjugate(), xi) - value(x, xi).conjugate()) < 1e-9


XI = complex(0.6, 0.8)  # unit modulus


@st.composite
def monomial_dicts(draw, dim):
    """Entries of a random partial permutation matrix with radical values."""
    rows = draw(st.permutations(range(dim)))
    vals = draw(st.lists(st.none() | nonzero_radicals, min_size=dim, max_size=dim))
    return {(r, c): v for c, (r, v) in enumerate(zip(rows, vals)) if v is not None}


def dense(dim, entries):
    out = [[0j] * dim for _ in range(dim)]
    for (r, c), v in entries.items():
        out[r][c] = value(v, XI)
    return out


def dense_matmul(a, b):
    n = len(a)
    return [[sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)] for r in range(n)]


def assert_matches(mat, expected):
    n = len(expected)
    for r in range(n):
        for c in range(n):
            got = value(mat.entry(r, c), XI)
            assert abs(got - expected[r][c]) <= 1e-9 * max(1.0, abs(got))


@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), monomial_dicts(n), monomial_dicts(n))))
def test_monomial_mat_matches_dense(args):
    dim, ea, eb = args
    a, b = MonomialMat(dim, ea), MonomialMat(dim, eb)
    da, db = dense(dim, ea), dense(dim, eb)
    assert_matches(a, da)
    assert_matches(a @ b, dense_matmul(da, db))
    conj = [[da[c][r].conjugate() for c in range(dim)] for r in range(dim)]
    assert_matches(a.conj_transpose(), conj)
    assert (a @ b).conj_transpose() == b.conj_transpose() @ a.conj_transpose()
    assert a @ identity(dim) == a == identity(dim) @ a


@given(st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), monomial_dicts(n))),
       nonzero_radicals, st.data())
def test_monomial_mat_rejects_second_entry(args, extra, data):
    dim, entries = args
    if not entries:
        entries = {(0, 0): extra}
    r, c = data.draw(st.sampled_from(sorted(entries)))
    # free row r2 elsewhere, then put a second entry into column c
    r2 = data.draw(st.sampled_from([x for x in range(dim) if x != r]))
    base = {rc: v for rc, v in entries.items() if rc[0] != r2}
    MonomialMat(dim, base)
    with pytest.raises(ValueError):
        MonomialMat(dim, {**base, (r2, c): extra})
    # free column c2 elsewhere, then put a second entry into row r
    c2 = data.draw(st.sampled_from([x for x in range(dim) if x != c]))
    base = {rc: v for rc, v in entries.items() if rc[1] != c2}
    MonomialMat(dim, base)
    with pytest.raises(ValueError):
        MonomialMat(dim, {**base, (r, c2): extra})


def test_display_form():
    assert str(radical(xi_exp=1, phase=3, coeff=2, root=6)) == "xi^1 * i^3 * 2*sqrt(6)"
    assert str(Radical.zero()) == "0"
    assert str(ONE) == "1"
    assert str(radical(root=2)) == "sqrt(2)"
    assert str(radical(coeff=Fraction(3, 2))) == "3/2"


def test_as_rational_rejects_irrational():
    with pytest.raises(ValueError):
        as_rational(radical(root=2))
    with pytest.raises(ValueError):
        as_rational(radical(phase=1))
    with pytest.raises(ValueError):
        as_rational(radical(xi_exp=1))
