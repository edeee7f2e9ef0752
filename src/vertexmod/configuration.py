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
        # loop-order weights per crossing offset, keyed by (orientation, offset)
        self._offsets: dict[tuple[int, int], list[int]] = {}
        # face signs at weights 0, d, 2d, ... for each direction d = +-1
        self._signs: dict[int, list[int]] = {1: [1], -1: [1]}
        # check_order_product's chain states: (window, last word, states per prefix)
        self._order_chain: tuple | None = None

    # -- basic queries -----------------------------------------------------

    def mult_mid2(self, i: int, mid2: int) -> int:
        return self._mid2[i].get(mid2, 0)

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

    def root_offsets(self, i: int, off: int) -> list[int]:
        """(e2 - off) // 2 for every orientation-i root e2, with multiplicity.

        These are the weights whose loop crosses a supported edge where the
        loop from weight 0 crosses doubled midpoint ``off``.  An
        orientation-i crossing has the parity of every orientation-i root
        (``Lattice.edge_mid2`` and ``Lattice.walk`` both give alpha mod 2
        for orientation 1 and beta mod 2 for orientation 2), so the halving
        is exact.
        """
        got = self._offsets.get((i, off))
        if got is None:
            got = self._offsets[i, off] = [(e2 - off) // 2 for e2 in self.poly_roots(i)]
        return got

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
        g = gcd(coeff, 2**deg)
        return Radical(0, self.count_above(i, mid2) % 4, coeff // g, 2**deg // g, root)

    def face_sign(self, w: int) -> int:
        """The global sign of the face of weight w.

        The memo grows outward from weight 0, one unit block per weight:
        the sign flips when the block crosses an odd total above-count.  A
        block from a face past the support crosses only edges on one side
        of it, so all those blocks flip alike.  The memo stops one block
        after the first of them, and farther signs follow by parity.
        """
        d = 1 if w >= 0 else -1
        signs, j = self._signs[d], d * w
        if j >= len(signs):
            # the first index whose block lies past the support
            far = max([0, *(d * mids[-1 if d > 0 else 0] // 2 + 1
                            for mids in self._sorted.values() if mids)])
            walk, block = self.lat.walk, self.lat.unit_blocks[d]
            sign = signs[-1]
            for cur in range(d * (len(signs) - 1), d * min(j, far + 1), d):
                if sum(self.count_above(i, mid2) for i, mid2, _ in walk(cur, block)) % 2:
                    sign = -sign
                signs.append(sign)
            if j > far + 1:
                flips = signs[far + 1] != signs[far]
                return -signs[far] if flips and (j - far) % 2 else signs[far]
        return signs[j]

    # -- vertex factorization identity --------------------------------------

    def mte_violations(self, mode: str = "P") -> list[Vertex]:
        """Vertices where the factorization identity fails, checked exactly.

        mode "P" compares P_1(t+beta) P_2(t+alpha) with P_1(t-beta)
        P_2(t-alpha) at vertex values t; mode "q" compares the same
        products of square-root values.  Both hold at every vertex exactly
        when the configuration is conservative, so a conservative one
        returns [] after ``conservation_violations`` alone:

        * Mode P.  As polynomials in t both sides have leading coefficient
          2^-deg, so they agree iff their root multisets {r - beta} +
          {r' - alpha} and {r + beta} + {r' + alpha} agree, over the
          vertical roots r and horizontal roots r'.  Every root sits at a
          vertex value, and at vertex t the multiplicities are
          mult_1(t+beta) + mult_2(t+alpha) = up + right and
          mult_1(t-beta) + mult_2(t-alpha) = down + left.
        * Mode q.  With q_i = i^l_i sqrt|P_i|, the identity at t holds iff
          |P| agrees and, where both sides are nonzero, so do the phases
          l_1(t+beta) + l_2(t+alpha) and l_1(t-beta) + l_2(t-alpha) mod 4.
          Let f(t) be the first phase sum minus the second.  t + beta has
          the parity of every vertical root and t + alpha that of every
          horizontal one, so going from t to t + 2 each count l drops by
          the multiplicity at its new point: f(t+2) - f(t) = -(up + right
          - down - left) at vertex t + 2.  Below the support f = 0, so
          conservation gives f = 0 everywhere, and mode P gives |P|.

        A non-conservative configuration is scanned to list its vertices.
        The window covers the support's bounding box expanded by (m + n)
        cells and is widened, if necessary, so the number of sample points
        exceeds the degree of both sides (which makes the polynomial check
        conclusive).  Mode q is scanned in the form above, with
        ``poly_eval`` and ``count_above``, and reads no square root.
        """
        if mode not in ("P", "q"):
            raise ValueError(f"mode must be 'P' or 'q', got {mode!r}")
        if not self.conservation_violations():
            return []
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
        above = self.count_above
        bad = []
        for t in range(first, hi + margin + 1, 2):
            lhs = self.poly_eval(1, t + b) * self.poly_eval(2, t + a)
            rhs = self.poly_eval(1, t - b) * self.poly_eval(2, t - a)
            if mode == "P":
                fails = lhs != rhs
            else:
                fails = abs(lhs) != abs(rhs) or (lhs != 0 and (
                    above(1, t + b) + above(2, t + a) - above(1, t - b) - above(2, t - a)) % 4 != 0)
            if fails:
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
