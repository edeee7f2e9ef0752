"""Coordinates on the doubly infinite discrete cylinder.

The cylinder is the plane Z^2 modulo the shift (m, n), for coprime positive
m, n.  Weights are assigned by the linear form (x, y) -> x*alpha + y*beta
with (alpha, beta) = (-n, m), the minimal integral pair killing the period.
Because gcd(m, n) = 1 the weight map is a bijection from cylinder faces
onto Z, which is what makes one-dimensional bookkeeping possible.

Drawing conventions (fixed once and used everywhere):

* face (x, y) is the unit square [x-1, x] x [y-1, y];
* vertex W(x, y) is the grid point (x, y), the common corner of faces
  (x, y), (x+1, y), (x, y+1), (x+1, y+1);
* vertical edge V(x, y) joins W(x, y-1) to W(x, y) and separates faces
  (x, y) and (x+1, y);
* horizontal edge H(x, y) joins W(x-1, y) to W(x, y) and separates faces
  (x, y) and (x, y+1).

Half-integer quantities (edge midpoints, vertex values) are stored doubled
so that everything stays in exact integer arithmetic:

    V(x, y) doubled midpoint = 2*(x*alpha + y*beta) + alpha
    H(x, y) doubled midpoint = 2*(x*alpha + y*beta) + beta
    W(x, y) doubled value    = 2*(x*alpha + y*beta) + alpha + beta
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import NamedTuple

VERTICAL = "V"
HORIZONTAL = "H"


class Face(NamedTuple):
    x: int
    y: int


class Edge(NamedTuple):
    kind: str  # "V" or "H"
    x: int
    y: int


class Vertex(NamedTuple):
    x: int
    y: int


class Step(NamedTuple):
    """A move from the face of weight w to a neighboring face.

    The weight changes by dw, the crossed edge has orientation ``orient``
    (1 vertical, 2 horizontal) and doubled midpoint 2*w + dw, and the plane
    lift of the face changes by ``lift``.
    """

    dw: int
    orient: int
    lift: tuple[int, int]


_TOKEN_STEP = {"1": "X1+", "2": "X2+", 1: "X1+", -1: "X1-", 2: "X2+", -2: "X2-"}


@dataclass(frozen=True)
class Lattice:
    """The period pair (m, n) with weight steps alpha = -n, beta = m.

    ``steps`` maps each generator name to its move, in the fixed order every
    flood fill uses; ``walk`` follows a face path by the same moves.
    ``unit_blocks[d]`` is a signed step sequence with net weight change d,
    for d = 1 and d = -1.
    """

    m: int
    n: int
    alpha: int = field(init=False)
    beta: int = field(init=False)
    steps: dict[str, Step] = field(init=False, repr=False, compare=False)
    unit_blocks: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    _moves: dict = field(init=False, repr=False, compare=False)  # walk token -> (dw, orient)

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"period ({self.m}, {self.n}) must be positive in both entries")
        if gcd(self.m, self.n) != 1:
            raise ValueError(f"period ({self.m}, {self.n}) is not coprime")
        object.__setattr__(self, "alpha", -self.n)
        object.__setattr__(self, "beta", self.m)
        a, b = self.alpha, self.beta
        steps = {
            "X1+": Step(a, 1, (1, 0)),    # cross V at 2w+alpha going to w+alpha
            "X1-": Step(-a, 1, (-1, 0)),
            "X2+": Step(b, 2, (0, 1)),    # cross H at 2w+beta going to w+beta
            "X2-": Step(-b, 2, (0, -1)),
        }
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "_moves", {t: steps[g][:2] for t, g in _TOKEN_STEP.items()})
        # y0 steps of +beta then x0 of +alpha net +1; the reverse signs net -1
        y0 = 1 if self.n == 1 else pow(self.m, -1, self.n)
        x0 = (self.m * y0 - 1) // self.n
        if y0 * b + x0 * a != 1:
            raise AssertionError(f"unit block {x0} alpha + {y0} beta does not net +1")
        object.__setattr__(self, "unit_blocks", {1: (2,) * y0 + (1,) * x0,
                                                 -1: (-2,) * y0 + (-1,) * x0})

    # -- weights ---------------------------------------------------------

    def edge_mid2(self, e: Edge) -> int:
        """Doubled midpoint weight of an edge."""
        kind, x, y = e
        base = 2 * (x * self.alpha + y * self.beta)
        if kind == VERTICAL:
            return base + self.alpha
        if kind == HORIZONTAL:
            return base + self.beta
        raise ValueError(f"bad edge kind {kind!r}")

    def walk(self, w: int, tokens):
        """Yield (orientation, doubled midpoint, next weight) per crossed edge.

        The face path starts at weight w.  A token is a word letter "1" or
        "2" (the raising step X1+ or X2+) or a signed orientation 1, -1, 2,
        -2 (X1+, X1-, X2+, X2-).
        """
        moves = self._moves
        for t in tokens:
            try:
                dw, i = moves[t]
            except (KeyError, TypeError):
                raise ValueError(f"step token must be '1', '2', 1, -1, 2 or -2, got {t!r}") from None
            yield i, 2 * w + dw, w + dw
            w += dw

    # -- canonicalization --------------------------------------------------

    def canonicalize(self, f) -> tuple[Face, int]:
        """Fundamental-domain representative (0 <= x < m) and winding count.

        f == rep + k*(m, n) exactly.
        """
        x, y = f
        k = x // self.m
        return Face(x - k * self.m, y - k * self.n), k

    def canonical_edge(self, e: Edge) -> Edge:
        kind, x, y = e
        (cx, cy), _ = self.canonicalize((x, y))
        return Edge(kind, cx, cy)

    # -- inverse maps (weight -> canonical object) -------------------------

    def face_of_weight(self, w: int) -> Face:
        """The unique canonical face of a given weight."""
        if self.n == 1:
            # w = -x + m*y with 0 <= x < m
            x = (-w) % self.m
        else:
            x = (-w * pow(self.n, -1, self.m)) % self.m
        y = (w + self.n * x) // self.m
        if x * self.alpha + y * self.beta != w:
            raise AssertionError(f"face ({x}, {y}) does not have weight {w}")
        return Face(x, y)

    def edge_of_mid2(self, kind: str, mid2: int) -> Edge:
        step = self.alpha if kind == VERTICAL else self.beta
        if (mid2 - step) % 2 != 0:
            raise ValueError(f"{mid2} is not a doubled {kind}-edge midpoint")
        x, y = self.face_of_weight((mid2 - step) // 2)
        return Edge(kind, x, y)

    def vertex_of_val2(self, val2: int) -> Vertex:
        if (val2 - self.alpha - self.beta) % 2 != 0:
            raise ValueError(f"{val2} is not a doubled vertex value")
        x, y = self.face_of_weight((val2 - self.alpha - self.beta) // 2)
        return Vertex(x, y)

