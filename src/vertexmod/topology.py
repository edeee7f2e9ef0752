"""Connected components of the cylinder minus a configuration.

Faces are adjacent when they share an edge of multiplicity zero, so a flood
fill over weights (faces and integers are in bijection) cuts the cylinder
along the configuration.  Every fill in the package is a call of
:func:`flood`; the fills differ only in the moves they are given.  During
the component fill each face receives a lift in the plane; a revisit whose
expected lift disagrees with the stored one by a nonzero multiple of the
period proves the component wraps the cylinder (incontractible).  The
recorded lifts double as the gauge used by the module construction: they
are consistent along the fill tree, so within a contractible component no
step ever picks up a winding factor.

Finite components are enumerated completely.  Infinite ones are represented
by the faces inside an enumeration window; a configuration with nonempty
support always leaves exactly two of them (the two ends of the cylinder).

On a component, each internal edge (both adjacent faces inside) carries the
sign of the corresponding edge polynomial.  Negative edges ("red") form an
overlay in which every internal vertex has even red degree, the eight-vertex
property.  Cutting along red edges and two-coloring the resulting
subcomponents is the combinatorial route to inner product signatures.  The
overlay keys an edge by (orientation, doubled midpoint), as
:class:`~vertexmod.configuration.Configuration` does, and a vertex by its
doubled value; :class:`~vertexmod.lattice.Edge` and
:class:`~vertexmod.lattice.Vertex` are built only for display.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .configuration import Configuration
from .lattice import Vertex


class ColoringConflictError(ValueError):
    """No consistent two-coloring exists.

    Impossible for the plain sign overlay of a conservative configuration;
    genuinely reachable for the flipped (dagger) overlay on incontractible
    components whose period length m + n is odd.
    """


class EmptyWindowError(ValueError):
    """A weight window holds no face of the component."""


@dataclass(frozen=True)
class Component:
    """One connected component, with gauge lifts chosen by the flood fill."""

    id: int
    weights: frozenset[int]
    lifts: dict[int, tuple[int, int]] = field(compare=False, repr=False)
    contractible: bool = True
    finite: bool = True
    window: tuple[int, int] | None = None

    @property
    def dim(self) -> int | None:
        return len(self.weights) if self.finite else None

    @property
    def min_weight(self) -> int:
        return min(self.weights)

    def sorted_weights(self) -> list[int]:
        return sorted(self.weights)


@dataclass
class Overlay:
    """Sign pattern of the edge polynomials on a component's internal edges.

    ``signs`` maps (orientation, doubled midpoint) of each internal edge to
    its sign: -1 is drawn red, +1 is transparent.  The dagger involution
    flips every sign.  ``vertices`` lists the doubled values of the internal
    vertices (all four faces around them in the component), ascending.
    """

    signs: dict[tuple[int, int], int]
    vertices: list[int]

    def red_edges(self) -> list[tuple[int, int]]:
        return sorted(key for key, s in self.signs.items() if s < 0)


@dataclass(frozen=True)
class Subcomponent:
    weights: frozenset[int]
    color: int  # +1 or -1


def default_window(cfg: Configuration) -> tuple[int, int]:
    """Weight window guaranteed to contain every finite component."""
    lat = cfg.lat
    margin = lat.m + lat.n + 2
    span = cfg.support_mid2_range()
    if span is None:
        return (-margin, margin)
    lo, hi = span
    return (lo // 2 - margin, hi // 2 + margin + 1)


def flood(start, value, moves):
    """Breadth-first fill from one face; returns (values, clashes).

    ``moves(w, v)`` yields ``(w2, v2)``: a neighbor of face w, which holds
    value v, and the value it would take from w.  Faces are visited first in
    first out, so the first arrival fixes a face's value; each later arrival
    with a different value is listed in ``clashes`` as ``(w, w2, v2)``.
    """
    values = {start: value}
    clashes = []
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for w2, v2 in moves(w, values[w]):
            old = values.get(w2)
            if old is None:
                values[w2] = v2
                queue.append(w2)
            elif old != v2:
                clashes.append((w, w2, v2))
    return values, clashes


def lift_moves(cfg: Configuration, lo: int, hi: int, escapes: list[int]):
    """Flood moves across unsupported edges inside [lo, hi], carrying plane lifts.

    A face with an unsupported step out of the window is appended to
    ``escapes`` instead.
    """
    steps = cfg.lat.steps.values()
    mult = cfg.mult_mid2

    def moves(w, lift):
        lx, ly = lift
        for dw, i, (sx, sy) in steps:
            if mult(i, 2 * w + dw):
                continue
            w2 = w + dw
            if lo <= w2 <= hi:
                yield w2, (lx + sx, ly + sy)
            else:
                escapes.append(w)

    return moves


def components(cfg: Configuration) -> list[Component]:
    """Flood fill the cylinder minus the configuration.

    Requires a conservative configuration.  Components are sorted finite
    first, then by minimal weight; ids follow the sort order.
    """
    bad = cfg.conservation_violations()
    if bad:
        raise ValueError(f"configuration violates conservation at {bad[:4]}")
    lat = cfg.lat
    lo, hi = default_window(cfg)
    escapes: list[int] = []
    moves = lift_moves(cfg, lo, hi, escapes)
    seen: set[int] = set()
    raw = []
    for w0 in range(lo, hi + 1):
        if w0 in seen:
            continue
        escapes.clear()
        lifts, clashes = flood(w0, tuple(lat.face_of_weight(w0)), moves)
        seen.update(lifts)
        for _, w2, (ex, ey) in clashes:
            dx = ex - lifts[w2][0]
            if dx % lat.m or dx // lat.m * lat.n != ey - lifts[w2][1]:
                raise AssertionError(f"lifts of weight {w2} differ by a non-period")
        touches_bound = bool(escapes) or lo in lifts or hi in lifts
        raw.append((frozenset(lifts), lifts, not clashes, not touches_bound))
    raw.sort(key=lambda r: (not r[3], min(r[0])))
    return [
        Component(
            id=idx,
            weights=ws,
            lifts=lifts,
            contractible=contractible,
            finite=finite,
            window=None if finite else (lo, hi),
        )
        for idx, (ws, lifts, contractible, finite) in enumerate(raw)
    ]


def window_flood(cfg: Configuration, comp: Component, lo: int, hi: int):
    """All component faces with weight in [lo, hi], lifted consistently with comp.lifts.

    The fill starts from the enumerated faces and floods over the hull of
    [lo, hi] and the enumerated weights, so a face joined to them only
    through weights outside [lo, hi] is kept; then it is clipped to
    [lo, hi].  Past the enumeration window of an infinite component every
    edge is free, so there the fill commutes with beta steps: a window farther than m + n - 1 from
    them is moved by whole beta steps to within that distance (a free band
    that wide is connected), filled, and moved back, at a cost independent
    of its distance.  Returns the sorted weights and their lifts; a window
    that meets no face of the component raises :class:`EmptyWindowError`.
    """
    ws = comp.weights
    wlo, whi = comp.window or (min(ws), max(ws))
    beta, reach = cfg.lat.beta, cfg.lat.m + cfg.lat.n - 1  # beta: the X2+ step, lift (0, 1)
    k = 0
    if lo > whi + reach:
        k = (lo - whi - reach) // beta
    elif hi < wlo - reach:
        k = -((wlo - reach - hi) // beta)
    mlo, mhi = lo - k * beta, hi - k * beta
    moves = lift_moves(cfg, min(mlo, wlo), max(mhi, whi), [])
    lifts: dict[int, tuple[int, int]] = {}
    for s in sorted(ws):
        if s not in lifts:
            lifts.update(flood(s, comp.lifts[s], moves)[0])
    lifts = {w + k * beta: (x, y + k) for w, (x, y) in lifts.items() if mlo <= w <= mhi}
    if not lifts:
        raise EmptyWindowError(f"window {(lo, hi)} does not meet component {comp.id}")
    return sorted(lifts), lifts


def overlay(cfg: Configuration, comp: Component, involution: str = "star") -> Overlay:
    """Edge polynomial signs on the internal edges, cross-checked two ways.

    The sign of P_i at an unsupported edge equals (-1)^(count above); both
    computations are performed and must agree.  The vertex 2w + alpha + beta
    has corners w, w + alpha, w + beta and w + alpha + beta, so probing that
    one vertex per face finds every internal vertex.
    """
    if involution not in ("star", "dagger"):
        raise ValueError(f"involution must be 'star' or 'dagger', got {involution!r}")
    a, b = cfg.lat.alpha, cfg.lat.beta
    ws = comp.weights
    keys, vertices = [], []
    for w in ws:
        if w + a in ws:
            if not cfg.mult_mid2(1, 2 * w + a):
                keys.append((1, 2 * w + a))
            if w + b in ws and w + a + b in ws:
                vertices.append(2 * w + a + b)
        if w + b in ws and not cfg.mult_mid2(2, 2 * w + b):
            keys.append((2, 2 * w + b))
    signs: dict[tuple[int, int], int] = {}
    for i, mid2 in sorted(keys):
        val = cfg.poly_eval(i, mid2)
        if val == 0:
            raise AssertionError(f"internal edge {(i, mid2)} has vanishing edge polynomial")
        s = 1 if val > 0 else -1
        if s != (-1 if cfg.count_above(i, mid2) % 2 else 1):
            raise AssertionError(f"sign law fails at edge {(i, mid2)}")
        signs[i, mid2] = -s if involution == "dagger" else s
    return Overlay(signs=signs, vertices=sorted(vertices))


def eight_vertex_violations(cfg: Configuration, comp: Component, ov: Overlay) -> list[Vertex]:
    """Internal vertices with an odd number of incident red edges."""
    a, b = cfg.lat.alpha, cfg.lat.beta
    bad = []
    for t in ov.vertices:
        reds = 0
        for key in ((1, t + b), (1, t - b), (2, t + a), (2, t - a)):
            s = ov.signs.get(key)
            if s is None:
                raise AssertionError(f"edge {key} at internal vertex {t} (doubled) is not internal")
            if s < 0:
                reds += 1
        if reds % 2:
            bad.append(cfg.lat.vertex_of_val2(t))
    return bad


def subcomponents(cfg: Configuration, comp: Component, ov: Overlay) -> list[Subcomponent]:
    """Cut the component along red edges and two-color the pieces.

    Adjacent faces get equal colors across transparent internal edges and
    opposite colors across red ones; the piece containing the component's
    minimal-weight face is normalized to color +1.  A conflict raises
    :class:`ColoringConflictError`; that never happens for the plain sign
    overlay, but the flipped overlay of an incontractible component with
    m + n odd admits no consistent coloring (and no invariant form).
    """
    bad = eight_vertex_violations(cfg, comp, ov)
    if bad:
        raise ValueError(f"eight-vertex property fails at {bad[:4]}")
    steps = cfg.lat.steps.values()
    signs = ov.signs

    def color_moves(w, c):
        for dw, i, _ in steps:
            s = signs.get((i, 2 * w + dw))
            if s is not None:  # None: supported, or leaves the component
                yield w + dw, c * s

    def piece_moves(w, p):
        for dw, i, _ in steps:
            if signs.get((i, 2 * w + dw)) == 1:
                yield w + dw, p

    # the component is connected through its internal edges, so one flood
    # colors all of it
    color, clashes = flood(comp.min_weight, 1, color_moves)
    if clashes:
        w, w2, _ = clashes[0]
        raise ColoringConflictError(f"two-coloring conflict at weights {w}, {w2}")
    # pieces: transparent-edge floods, met in increasing order of least weight
    out = []
    seen: set[int] = set()
    for w0 in comp.sorted_weights():
        if w0 in seen:
            continue
        ws = frozenset(flood(w0, w0, piece_moves)[0])
        seen |= ws
        cols = {color[w] for w in ws}
        if len(cols) != 1:
            raise AssertionError(f"piece at weight {w0} is not monochromatic")
        out.append(Subcomponent(weights=ws, color=cols.pop()))
    return out
