"""Independent reference implementations that only the tests call.

Each one recomputes something the package computes a faster or more
structured way: ``Radical`` arithmetic over a ``Fraction`` coefficient,
the factorization identity scanned vertex by vertex, loop products by
walking face paths, the generators as monomial matrices with the loop
operator and both module checks as matrix products, rational and numeric
views of ``Radical`` values, the form adjoint, and the brute-force path
independence of the face sign.  The few constructors and
queries that only tests need live here too, so that the package holds only
what its commands and the benchmark run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from vertexmod.configuration import Configuration, VertexPath
from vertexmod.lattice import Edge, Lattice, Vertex
from vertexmod.representation import GENERATORS, ModuleRep, RelationReport, _leaves_basis
from vertexmod.scalar import Radical, squarefree_decompose
from vertexmod.unitarity import InvarianceReport, gram_diag


# -- lattice and configuration -------------------------------------------------


def face_weight(lat: Lattice, f) -> int:
    x, y = f
    return x * lat.alpha + y * lat.beta


def vertex_val2(lat: Lattice, v) -> int:
    x, y = v
    return 2 * (x * lat.alpha + y * lat.beta) + lat.alpha + lat.beta


def is_empty(cfg: Configuration) -> bool:
    return not cfg.edges


def mult(cfg: Configuration, e: Edge) -> int:
    return cfg.edges.get(cfg.lat.canonical_edge(e), 0)


def max_area_path(lat: Lattice, start: tuple[int, int] = (0, 0)) -> VertexPath:
    """The staircase with all up steps first: n twos then m ones."""
    return VertexPath(start, "2" * lat.n + "1" * lat.m)


def flip_corner(path: VertexPath, idx: int) -> VertexPath:
    """Replace the "21" at position idx by "12" (a corner flip move)."""
    s = path.steps
    if s[idx : idx + 2] != "21":
        raise ValueError(f"no '21' corner at position {idx} of {s!r}")
    return VertexPath(path.start, s[:idx] + "12" + s[idx + 2 :])


# -- Radical values ----------------------------------------------------------------


@dataclass(frozen=True)
class FracRadical:
    """xi^xi_exp * i^phase * coeff * sqrt(root) with a ``Fraction`` coeff.

    The oracle for ``Radical``: the same normal form and arithmetic, with
    the coefficient kept as one rational instead of two integers.
    """

    xi_exp: int = 0
    phase: int = 0
    coeff: Fraction = Fraction(1)
    root: int = 1

    @staticmethod
    def make(xi_exp: int = 0, phase: int = 0, coeff=1, root: int = 1) -> "FracRadical":
        coeff = Fraction(coeff)
        if coeff < 0:
            coeff, phase = -coeff, phase + 2
        if coeff == 0:
            return FracRadical(0, 0, Fraction(0), 1)
        g, s = squarefree_decompose(root)
        return FracRadical(xi_exp, phase % 4, coeff * g, s)

    def __mul__(self, other: "FracRadical") -> "FracRadical":
        if self.coeff == 0 or other.coeff == 0:
            return FracRadical(0, 0, Fraction(0), 1)
        g = gcd(self.root, other.root)
        return FracRadical(self.xi_exp + other.xi_exp, (self.phase + other.phase) % 4,
                           self.coeff * other.coeff * g, (self.root // g) * (other.root // g))

    def conjugate(self) -> "FracRadical":
        if self.coeff == 0:
            return self
        return FracRadical(-self.xi_exp, (-self.phase) % 4, self.coeff, self.root)

    def __str__(self) -> str:
        if self.coeff == 0:
            return "0"
        parts = []
        if self.xi_exp:
            parts.append(f"xi^{self.xi_exp}")
        if self.phase:
            parts.append(f"i^{self.phase}")
        if self.root == 1:
            parts.append(str(self.coeff))
        elif self.coeff == 1:
            parts.append(f"sqrt({self.root})")
        else:
            parts.append(f"{self.coeff}*sqrt({self.root})")
        return " * ".join(parts)

    def radical(self) -> Radical:
        return Radical(self.xi_exp, self.phase, self.coeff.numerator, self.coeff.denominator,
                       self.root)


def radical(xi_exp: int = 0, phase: int = 0, coeff=1, root: int = 1) -> Radical:
    """The normal form of xi^xi_exp * i^phase * coeff * sqrt(root), for any
    rational coeff and positive integer root."""
    return FracRadical.make(xi_exp, phase, coeff, root).radical()


ONE = radical()


def value(v: Radical, xi: complex = 1.0) -> complex:
    """Numeric evaluation at a concrete nonzero xi."""
    if v.is_zero:
        return 0j
    if xi == 0:
        raise ValueError("xi must be nonzero")
    return (xi ** v.xi_exp) * (1j ** v.phase) * (v.num / v.den) * (v.root ** 0.5)


def sqrt_rational(r, phase: int = 0, xi_exp: int = 0) -> Radical:
    """Principal square root of a nonnegative rational, times i^phase * xi^xi_exp."""
    r = Fraction(r)
    if r < 0:
        raise ValueError("radicand must be nonnegative")
    if r == 0:
        return Radical.zero()
    return radical(xi_exp, phase, Fraction(1, r.denominator), r.numerator * r.denominator)


def times_rational(v: Radical, q) -> Radical:
    q = Fraction(q)
    if q == 0 or v.is_zero:
        return Radical.zero()
    return radical(v.xi_exp, v.phase, Fraction(v.num, v.den) * q, v.root)


def as_rational(v: Radical) -> Fraction:
    """Exact rational value; raises if the value is not rational."""
    if v.is_zero:
        return Fraction(0)
    if v.xi_exp != 0 or v.root != 1 or v.phase % 2 != 0:
        raise ValueError(f"{v} is not rational")
    return Fraction(v.num if v.phase == 0 else -v.num, v.den)


# -- the vertex factorization identity -----------------------------------------------


def mte_scan(cfg: Configuration, mode: str) -> list[Vertex]:
    """``Configuration.mte_violations`` without the conservation shortcut.

    Every vertex of the widened window is evaluated: mode "P" compares
    products of edge polynomial values, mode "q" products of square-root
    values as ``Radical`` products.
    """
    lat = cfg.lat
    a, b = lat.alpha, lat.beta
    lo, hi = cfg.support_mid2_range() or (0, 0)
    margin = 2 * (lat.m + lat.n)
    deg = cfg.total_multiplicity(1) + cfg.total_multiplicity(2)
    while (hi - lo + 2 * margin) // 2 + 1 <= deg:
        margin += 2 * (lat.m + lat.n)
    first = lo - margin
    if first % 2 != (a + b) % 2:
        first += 1
    at = cfg.poly_eval if mode == "P" else cfg.sqrt_value
    return [lat.vertex_of_val2(t) for t in range(first, hi + margin + 1, 2)
            if at(1, t + b) * at(2, t + a) != at(1, t - b) * at(2, t - a)]


# -- face-path walks and the loop operator -----------------------------------------


def crossing_order(cfg: Configuration, word: str, w: int) -> int:
    """Multiplicity of supported vertical edges crossed by the closed loop.

    The loop is the face path from w following the balanced word; by
    conservation the horizontal crossing count agrees, which is asserted.
    """
    if word.count("1") != cfg.lat.m or word.count("2") != cfg.lat.n:
        raise ValueError(f"word {word!r} is not balanced for {(cfg.lat.m, cfg.lat.n)}")
    vert = horiz = 0
    for i, mid2, _ in cfg.lat.walk(w, word):
        if i == 1:
            vert += cfg.mult_mid2(1, mid2)
        else:
            horiz += cfg.mult_mid2(2, mid2)
    if vert != horiz:
        raise AssertionError(f"vertical/horizontal crossing counts differ at {w}")
    return vert


def path_sqrt_product(cfg: Configuration, steps: str, w: int) -> Radical:
    """Ordered product of square-root values along a face path (no gauge)."""
    out = ONE
    for i, mid2, _ in cfg.lat.walk(w, steps):
        out = out * cfg.sqrt_value(i, mid2)
        if out.is_zero:
            return out
    return out


def path_poly_product(cfg: Configuration, steps: str, w: int) -> Fraction:
    """Ordered product of edge polynomial values along a face path."""
    num = den = 1
    for i, mid2, _ in cfg.lat.walk(w, steps):
        p = cfg.poly_eval(i, mid2)
        num *= p.numerator
        den *= p.denominator
    return Fraction(num, den)


# -- monomial matrices and the module checks as matrix products -----------------------


class MonomialMat:
    """Square matrix with at most one nonzero entry in every row and column.

    Stored as one ``(row, Radical)`` or ``None`` per column, so a product
    costs O(dim) and equality is exact.  Zero entries are never stored, and
    a matrix never changes after construction.
    """

    __slots__ = ("cols",)

    def __init__(self, dim: int, entries: dict[tuple[int, int], Radical]):
        cols: list[tuple[int, Radical] | None] = [None] * dim
        rows = set()
        for (r, c), val in entries.items():
            if val.is_zero:
                continue
            if cols[c] is not None or r in rows:
                raise ValueError(f"second entry in row {r} or column {c}")
            cols[c] = (r, val)
            rows.add(r)
        self.cols = tuple(cols)

    @classmethod
    def diagonal(cls, values) -> "MonomialMat":
        vals = [v if isinstance(v, Radical) else Radical.from_rational(v) for v in values]
        return cls(len(vals), {(i, i): v for i, v in enumerate(vals)})

    @classmethod
    def _from_cols(cls, cols) -> "MonomialMat":
        out = cls.__new__(cls)
        out.cols = tuple(cols)
        return out

    @property
    def dim(self) -> int:
        return len(self.cols)

    def items(self) -> list[tuple[tuple[int, int], Radical]]:
        """((row, column), value) of every stored entry, in column order."""
        return [((col[0], c), col[1]) for c, col in enumerate(self.cols) if col is not None]

    def entry(self, r: int, c: int) -> Radical:
        col = self.cols[c]
        return col[1] if col is not None and col[0] == r else Radical.zero()

    def __matmul__(self, other: "MonomialMat") -> "MonomialMat":
        if self.dim != other.dim:
            raise ValueError(f"shape mismatch {self.dim} @ {other.dim}")
        out = []
        for col in other.cols:
            mid = None if col is None else self.cols[col[0]]
            out.append(None if mid is None else (mid[0], mid[1] * col[1]))
        return MonomialMat._from_cols(out)

    def conj_transpose(self) -> "MonomialMat":
        out: list[tuple[int, Radical] | None] = [None] * self.dim
        for c, col in enumerate(self.cols):
            if col is not None:
                out[col[0]] = (c, col[1].conjugate())
        return MonomialMat._from_cols(out)

    def is_diagonal(self) -> bool:
        return all(col is None or col[0] == c for c, col in enumerate(self.cols))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialMat):
            return NotImplemented
        return self.cols == other.cols


def mat(rep: ModuleRep, gen: str) -> MonomialMat:
    """The generator's matrix on the module: its stored columns, or H as the weights."""
    if gen == "H":
        return MonomialMat.diagonal(rep.weights)
    return MonomialMat(rep.dim, {(e[0], c): e[1] for c, e in enumerate(rep.cols[gen])
                                 if e is not None})


def gram_matrix(rep: ModuleRep) -> MonomialMat:
    return MonomialMat.diagonal(gram_diag(rep))


def identity(n: int) -> MonomialMat:
    return MonomialMat.diagonal([1] * n)


def mat_is_zero(mat: MonomialMat) -> bool:
    return all(col is None for col in mat.cols)


def word_matrix(rep: ModuleRep, tokens) -> MonomialMat:
    """Product of generator matrices; the rightmost token acts first."""
    out = identity(rep.dim)
    for t in tokens:
        out = out @ mat(rep, t)
    return out


def loop_matrix(rep: ModuleRep, word: str) -> MonomialMat:
    """The balanced loop operator: raising generators, first letter first."""
    return word_matrix(rep, [f"X{c}+" for c in reversed(word)])


def adjoint_matrix(rep: ModuleRep, gen: str) -> MonomialMat:
    """Form adjoint G^-1 M^dagger G (G is its own inverse)."""
    G = gram_matrix(rep)
    return G @ mat(rep, gen).conj_transpose() @ G


def matrix_relations(rep: ModuleRep) -> RelationReport:
    """``verify_relations`` as exact matrix identities, message for message."""
    cfg, steps = rep.cfg, rep.cfg.lat.steps
    mats = {g: mat(rep, g) for g in GENERATORS}
    report = RelationReport(failures=[], skipped=[])
    for gen in GENERATORS:
        for (r, c), _ in mats[gen].items():
            if rep.weights[r] - rep.weights[c] != steps[gen].dw:
                report.failures.append(f"[H,{gen}] fails at basis weight {rep.weights[c]}")
            report.checked += 1
    for gen, opp in (("X1+", "X1-"), ("X1-", "X1+"), ("X2+", "X2-"), ("X2-", "X2+")):
        dw_opp, i, _ = steps[opp]
        prod = mats[gen] @ mats[opp]
        if not prod.is_diagonal():
            report.failures.append(f"{gen}{opp} is not diagonal")
        for j, w in enumerate(rep.weights):
            if rep.windowed and _leaves_basis(rep, w, (opp,)):
                report.skipped.append(f"{gen}{opp} at weight {w} (window boundary)")
                continue
            expected = cfg.poly_eval(i, 2 * w + dw_opp)
            got = prod.entry(j, j)
            if got != Radical.from_rational(expected):
                report.failures.append(f"{gen}{opp} at weight {w}: got {got}, expected {expected}")
            report.checked += 1
    for g1, g2 in (("X1+", "X2-"), ("X1-", "X2+")):
        ab = (mats[g1] @ mats[g2]).cols
        ba = (mats[g2] @ mats[g1]).cols
        for j, w in enumerate(rep.weights):
            if rep.windowed and (_leaves_basis(rep, w, (g2, g1))
                                 or _leaves_basis(rep, w, (g1, g2))):
                report.skipped.append(f"[{g1},{g2}] at weight {w} (window boundary)")
                continue
            if ab[j] != ba[j]:
                report.failures.append(f"[{g1},{g2}] fails at basis weight {w}")
            report.checked += 1
    return report


def matrix_invariance(rep: ModuleRep) -> InvarianceReport:
    """``verify_invariance`` as exact matrix identities, H included."""
    G = gram_matrix(rep)
    failures = []
    for i in (1, 2):
        if mat(rep, f"X{i}+").conj_transpose() @ G != G @ mat(rep, f"X{i}-"):
            failures.append(f"form invariance fails for X{i}+-")
    H = mat(rep, "H")
    if H.conj_transpose() != H:
        failures.append("H is not real diagonal")
    return InvarianceReport(failures=failures, checked=3)


# -- path independence of the face sign ----------------------------------------------


def path_phase2(cfg: Configuration, steps) -> int:
    """Doubled phase accumulated along a signed step path from weight 0.

    Each token +-1 or +-2 moves by +-alpha or +-beta and contributes the
    above-count of the crossed edge.  Only the parity is path independent.
    """
    return sum(cfg.count_above(i, mid2) for i, mid2, _ in cfg.lat.walk(0, steps))


@dataclass
class SignConsistencyReport:
    vertex_failures: list[Vertex]
    path_failures: list[str]
    paths_checked: int

    @property
    def ok(self) -> bool:
        return not self.vertex_failures and not self.path_failures


def check_sign_consistency(cfg: Configuration, window: tuple[int, int],
                           box: int = 4, backtracks: int = 10,
                           rng=None) -> SignConsistencyReport:
    """Brute-force path independence of the phase parity.

    (a) The vertex consistency identity: at every window vertex the above
    counts satisfy up + right = down + left as exact integers.
    (b) For each target weight reachable inside a step box, every monotone
    interleaving (and a sample of backtracking paths) accumulates the same
    phase parity.
    """
    rng = rng or random.Random(0)
    lat = cfg.lat
    a, b = lat.alpha, lat.beta
    vertex_failures = []
    lo, hi = window
    parity = (a + b) % 2
    first = 2 * lo + (0 if (2 * lo) % 2 == parity else 1)
    for t in range(first, 2 * hi + 1, 2):
        if (cfg.count_above(1, t + b) + cfg.count_above(2, t + a)
                != cfg.count_above(1, t - b) + cfg.count_above(2, t - a)):
            vertex_failures.append(lat.vertex_of_val2(t))
    path_failures = []
    paths_checked = 0
    for sgn in (1, -1):
        for na in range(box + 1):
            for nb in range(box + 1):
                if na == nb == 0:
                    continue
                target = sgn * (na * a + nb * b)
                parities = set()
                for pos in combinations(range(na + nb), nb):
                    steps = [sgn * 1] * (na + nb)
                    for p in pos:
                        steps[p] = sgn * 2
                    parities.add(path_phase2(cfg, steps) % 2)
                    paths_checked += 1
                base = [sgn * 1] * na + [sgn * 2] * nb
                for _ in range(backtracks):
                    steps = list(base)
                    for _ in range(rng.randrange(1, 4)):
                        s = rng.choice([1, -1, 2, -2])
                        at = rng.randrange(0, len(steps) + 1)
                        steps[at:at] = [s, -s]
                    rng.shuffle(steps)  # endpoint is preserved, order is not needed
                    parities.add(path_phase2(cfg, steps) % 2)
                    paths_checked += 1
                if len(parities) != 1:
                    path_failures.append(f"parity differs on paths to weight {target}")
    return SignConsistencyReport(vertex_failures, path_failures, paths_checked)
