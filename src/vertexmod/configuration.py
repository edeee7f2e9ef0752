"""Periodic higher spin six-vertex configurations and their edge polynomials.

A configuration is a finitely supported multiplicity function on the
cylinder's edges (split by orientation), required to satisfy current
conservation at every vertex: up + right incident multiplicity equals
down + left.  Configurations built from closed lattice paths (m right
steps, n up steps per period) conserve automatically.

Attached to a configuration are, for each orientation i:

* the edge polynomial P_i(u) = prod (u - e)^mult(e) over supported
  midpoints e, evaluated exactly in doubled coordinates;
* the count l_i(e) of same-orientation supported edges lying strictly
  above e (equivalently above the slope-n/m line through e's midpoint);
* the square-root value q_i(e) = i^{l_i(e)} * sqrt(|P_i(e)|), which squares
  to P_i(e) and again solves the vertex factorization identity
  (Mazorchuk-Turowska equation) p_1(v + beta/2) p_2(v + alpha/2)
  = p_1(v - beta/2) p_2(v - alpha/2).

The sign function on faces integrates the difference rule "crossing an
edge flips the sign iff its above-count is odd" from the weight-zero face,
which has sign +1.  Conservation makes the rule path independent.

A configuration never changes after construction (its ``edges`` map is a
read-only view), so P_i and q_i are memoized per instance, keyed by
orientation and doubled midpoint, and the face signs by weight.  Both are computed in integers: the
numerator prod (u2 - m)^k of P_i, and for q_i one small squarefree
decomposition per root, with the power of two 2^deg_i divided out once.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from types import MappingProxyType

from .lattice import HORIZONTAL, VERTICAL, Edge, Lattice, Vertex
from .scalar import Radical, squarefree_decompose


@dataclass(frozen=True)
class VertexPath:
    """A lattice path at vertex level: '1' steps right, '2' steps up."""

    start: tuple[int, int]
    steps: str

    def validate(self, lat: Lattice) -> None:
        bad = set(self.steps) - {"1", "2"}
        if bad:
            raise ValueError(f"path steps must be over {{1,2}}, found {sorted(bad)}")
        ones, twos = self.steps.count("1"), self.steps.count("2")
        if (ones, twos) != (lat.m, lat.n):
            raise ValueError(
                f"path needs {lat.m} ones and {lat.n} twos to close the period, "
                f"got {ones} and {twos}"
            )

    def edges(self) -> list[Edge]:
        """Edges traversed, walking from the start vertex."""
        x, y = self.start
        out = []
        for s in self.steps:
            if s == "1":
                out.append(Edge(HORIZONTAL, x + 1, y))
                x += 1
            else:
                out.append(Edge(VERTICAL, x, y + 1))
                y += 1
        return out


class Configuration:
    """Immutable multiplicity map on canonical cylinder edges."""

    def __init__(self, lat: Lattice, mult: dict[Edge, int]):
        self.lat = lat
        edges: dict[Edge, int] = {}
        for e, k in mult.items():
            if k <= 0:
                raise ValueError(f"multiplicity must be positive, got {k} at {e}")
            ce = lat.canonical_edge(e)
            edges[ce] = edges.get(ce, 0) + k
        self.edges = MappingProxyType(edges)
        # per-orientation lookup tables keyed by doubled midpoint
        self._mid2: dict[int, dict[int, int]] = {1: {}, 2: {}}
        for e, k in edges.items():
            i = 1 if e.kind == VERTICAL else 2
            self._mid2[i][lat.edge_mid2(e)] = k
        # sorted midpoints with multiplicity suffix sums, for l-counts
        self._sorted: dict[int, list[int]] = {}
        self._suffix: dict[int, list[int]] = {}
        for i in (1, 2):
            mids = sorted(self._mid2[i])
            suf = [0] * (len(mids) + 1)
            for j in range(len(mids) - 1, -1, -1):
                suf[j] = suf[j + 1] + self._mid2[i][mids[j]]
            self._sorted[i] = mids
            self._suffix[i] = suf
        # memoized edge values, keyed by (orientation, doubled midpoint)
        self._poly: dict[tuple[int, int], Fraction] = {}
        self._sqrt: dict[tuple[int, int], Radical] = {}
        # face signs at weights 0, d, 2d, ... for each direction d = +-1
        self._signs: dict[int, list[int]] = {1: [1], -1: [1]}

    # -- basic queries -----------------------------------------------------

    def mult(self, e: Edge) -> int:
        return self.edges.get(self.lat.canonical_edge(e), 0)

    def mult_mid2(self, i: int, mid2: int) -> int:
        return self._mid2[i].get(mid2, 0)

    def is_empty(self) -> bool:
        return not self.edges

    def support_mid2_range(self) -> tuple[int, int] | None:
        """Min and max doubled midpoint over the whole support, or None."""
        if not self.edges:
            return None
        mids = [m for i in (1, 2) for m in self._sorted[i]]
        return min(mids), max(mids)

    def total_multiplicity(self, i: int) -> int:
        return self._suffix[i][0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.lat == other.lat and self.edges == other.edges

    def __hash__(self):
        raise TypeError("Configuration is unhashable")

    # -- conservation ------------------------------------------------------

    def conservation_violations(self) -> list[Vertex]:
        """Vertices where up + right multiplicity differs from down + left.

        Only vertices incident to the support can violate, so only those are
        inspected.  Empty result means the configuration is conservative.
        """
        lat = self.lat
        a, b = lat.alpha, lat.beta
        candidates: set[int] = set()
        for t in self._mid2[1]:
            candidates.update((t - b, t + b))
        for t in self._mid2[2]:
            candidates.update((t - a, t + a))
        bad = []
        for t in sorted(candidates):
            up_right = self.mult_mid2(1, t + b) + self.mult_mid2(2, t + a)
            down_left = self.mult_mid2(1, t - b) + self.mult_mid2(2, t - a)
            if up_right != down_left:
                bad.append(lat.vertex_of_val2(t))
        return bad

    # -- edge polynomials ----------------------------------------------------

    def poly_roots(self, i: int) -> list[int]:
        """Doubled midpoints of supported orientation-i edges, with multiplicity."""
        out = []
        for m in self._sorted[i]:
            out.extend([m] * self._mid2[i][m])
        return out

    def poly_eval(self, i: int, u2: int) -> Fraction:
        """Exact value of P_i at the point with doubled coordinate u2."""
        val = self._poly.get((i, u2))
        if val is None:
            num = 1
            for m in self._sorted[i]:
                num *= (u2 - m) ** self._mid2[i][m]
            val = self._poly[i, u2] = Fraction(num, 2 ** self.total_multiplicity(i))
        return val

    def count_above(self, i: int, mid2: int) -> int:
        """Total multiplicity of orientation-i support strictly above mid2."""
        return self._suffix[i][bisect_right(self._sorted[i], mid2)]

    def sqrt_value(self, i: int, mid2: int) -> Radical:
        """The square root i^(count above) * sqrt(|P_i|) of the edge polynomial at mid2."""
        q = self._sqrt.get((i, mid2))
        if q is None:
            q = self._sqrt[i, mid2] = self._sqrt_value(i, mid2)
        return q

    def _sqrt_value(self, i: int, mid2: int) -> Radical:
        # sqrt|P_i| = sqrt(prod |mid2 - m|^k * 2^deg) / 2^deg; each factor
        # d^k with d = g^2 s (s squarefree) gives g^k s^(k//2), times sqrt(s)
        # when k is odd, folded into the root with a gcd
        deg = self.total_multiplicity(i)
        factors = [(abs(mid2 - m), k) for m, k in self._mid2[i].items()]
        factors.append((2, deg))
        coeff, root = 1, 1
        for d, k in factors:
            if d == 0:
                return Radical.zero()
            g, s = squarefree_decompose(d)
            coeff *= g**k * s ** (k // 2)
            if k % 2:
                h = gcd(root, s)
                coeff *= h
                root = (root // h) * (s // h)
        return Radical(0, self.count_above(i, mid2) % 4, Fraction(coeff, 2**deg), root)

    def face_sign(self, w: int) -> int:
        """The global sign of the face of weight w.

        The memo grows outward from weight 0, one unit block per weight:
        the sign flips when the block crosses an odd total above-count.
        """
        d = 1 if w >= 0 else -1
        signs = self._signs[d]
        if len(signs) <= d * w:
            walk, block = self.lat.walk, self.lat.unit_blocks[d]
            sign = signs[-1]
            for cur in range(d * (len(signs) - 1), w, d):
                if sum(self.count_above(i, mid2) for i, mid2, _ in walk(cur, block)) % 2:
                    sign = -sign
                signs.append(sign)
        return signs[d * w]

    # -- vertex factorization identity --------------------------------------

    def mte_violations(self, mode: str = "P") -> list[Vertex]:
        """Vertices where the factorization identity fails, checked exactly.

        mode "P" compares products of edge polynomial values; mode "q"
        compares products of square-root values as radicals.  The window
        covers the support's bounding box expanded by (m + n) cells and is
        widened, if necessary, so the number of sample points exceeds the
        degree of both sides (which makes the polynomial check conclusive).
        """
        if mode not in ("P", "q"):
            raise ValueError(f"mode must be 'P' or 'q', got {mode!r}")
        lat = self.lat
        a, b = lat.alpha, lat.beta
        span = self.support_mid2_range()
        lo, hi = span if span else (0, 0)
        margin = 2 * (lat.m + lat.n)
        deg = self.total_multiplicity(1) + self.total_multiplicity(2)
        while (hi - lo + 2 * margin) // 2 + 1 <= deg:
            margin += 2 * (lat.m + lat.n)
        first = lo - margin
        parity = (a + b) % 2
        if first % 2 != parity % 2:
            first += 1
        bad = []
        for t in range(first, hi + margin + 1, 2):
            if mode == "P":
                lhs = self.poly_eval(1, t + b) * self.poly_eval(2, t + a)
                rhs = self.poly_eval(1, t - b) * self.poly_eval(2, t - a)
            else:
                lhs = self.sqrt_value(1, t + b) * self.sqrt_value(2, t + a)
                rhs = self.sqrt_value(1, t - b) * self.sqrt_value(2, t - a)
            if lhs != rhs:
                bad.append(lat.vertex_of_val2(t))
        return bad


# -- constructors ------------------------------------------------------------


def from_paths(lat: Lattice, paths: list[VertexPath]) -> Configuration:
    """Sum of the edge multisets traversed by closed vertex paths."""
    mult: dict[Edge, int] = {}
    for p in paths:
        p.validate(lat)
        for e in p.edges():
            ce = lat.canonical_edge(e)
            mult[ce] = mult.get(ce, 0) + 1
    return Configuration(lat, mult)


def from_edges(lat: Lattice, entries: list[tuple[Edge, int]]) -> Configuration:
    """Direct entry; conservation is checkable afterwards, not assumed."""
    mult: dict[Edge, int] = {}
    for e, k in entries:
        ce = lat.canonical_edge(e)
        mult[ce] = mult.get(ce, 0) + k
    return Configuration(lat, mult)


def max_area_path(lat: Lattice, start: tuple[int, int] = (0, 0)) -> VertexPath:
    """The staircase with all up steps first: n twos then m ones."""
    return VertexPath(start, "2" * lat.n + "1" * lat.m)


def flip_corner(path: VertexPath, idx: int) -> VertexPath:
    """Replace the "21" at position idx by "12" (a corner flip move)."""
    s = path.steps
    if s[idx : idx + 2] != "21":
        raise ValueError(f"no '21' corner at position {idx} of {s!r}")
    return VertexPath(path.start, s[:idx] + "12" + s[idx + 2 :])


def random_config(lat: Lattice, k: int, seed) -> Configuration:
    """k closed paths with shuffled step strings and random bounded starts."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    span = lat.m + lat.n
    paths = []
    for _ in range(k):
        steps = list("1" * lat.m + "2" * lat.n)
        rng.shuffle(steps)
        start = (rng.randrange(0, lat.m), rng.randrange(-span, span + 1))
        paths.append(VertexPath(start, "".join(steps)))
    return from_paths(lat, paths)
