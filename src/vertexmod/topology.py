"""Connected components of the cylinder minus a configuration.

Faces are adjacent when they share an edge of multiplicity zero, so a flood
fill over weights (faces and integers are in bijection) cuts the cylinder
along the configuration.  During the fill each face receives a lift in the
plane; a revisit whose expected lift disagrees with the stored one by a
nonzero multiple of the period proves the component wraps the cylinder
(incontractible).  The recorded lifts double as the gauge used by the
module construction: they are consistent along the fill tree, so within a
contractible component no step ever picks up a winding factor.

Finite components are enumerated completely.  Infinite ones are represented
by the faces inside an enumeration window plus a complement predicate; a
configuration with nonempty support always leaves exactly two of them (the
two ends of the cylinder).

On a component, each internal edge (both adjacent faces inside) carries the
sign of the corresponding edge polynomial.  Negative edges ("red") form an
overlay in which every internal vertex has even red degree, the eight-vertex
property.  Cutting along red edges and two-coloring the resulting
subcomponents is the combinatorial route to inner product signatures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .configuration import Configuration
from .lattice import HORIZONTAL, VERTICAL, Edge, Face, Vertex


class ColoringConflictError(ValueError):
    """No consistent two-coloring exists.

    Impossible for the plain sign overlay of a conservative configuration;
    genuinely reachable for the flipped (dagger) overlay on incontractible
    components whose period length m + n is odd.
    """


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

    def faces(self, lat) -> list[Face]:
        return [lat.face_of_weight(w) for w in sorted(self.weights)]

    def sorted_weights(self) -> list[int]:
        return sorted(self.weights)


@dataclass
class Overlay:
    """Sign pattern of the edge polynomials on a component's internal edges.

    sign -1 is drawn red; +1 is transparent.  The dagger involution flips
    every sign.
    """

    component_id: int
    involution: str
    signs: dict[Edge, int]

    def red_edges(self) -> list[Edge]:
        return sorted(e for e, s in self.signs.items() if s < 0)


@dataclass(frozen=True)
class Subcomponent:
    weights: frozenset[int]
    color: int  # +1 or -1


@dataclass(frozen=True)
class InternalElements:
    vertical: list[Edge]
    horizontal: list[Edge]
    vertices: list[Vertex]


def default_window(cfg: Configuration) -> tuple[int, int]:
    """Weight window guaranteed to contain every finite component."""
    lat = cfg.lat
    margin = lat.m + lat.n + 2
    span = cfg.support_mid2_range()
    if span is None:
        return (-margin, margin)
    lo, hi = span
    return (lo // 2 - margin, hi // 2 + margin + 1)


def components(cfg: Configuration, window: tuple[int, int] | None = None) -> list[Component]:
    """Flood fill the cylinder minus the configuration.

    Requires a conservative configuration.  Components are sorted finite
    first, then by minimal weight; ids follow the sort order.
    """
    bad = cfg.conservation_violations()
    if bad:
        raise ValueError(f"configuration violates conservation at {bad[:4]}")
    lat = cfg.lat
    lo, hi = window if window is not None else default_window(cfg)
    steps = lat.steps.values()
    seen: dict[int, int] = {}
    raw = []
    for w0 in range(lo, hi + 1):
        if w0 in seen:
            continue
        comp_idx = len(raw)
        lifts: dict[int, tuple[int, int]] = {w0: tuple(lat.face_of_weight(w0))}
        wrapped = False
        touches_bound = w0 in (lo, hi)
        queue = deque([w0])
        seen[w0] = comp_idx
        while queue:
            w = queue.popleft()
            lx, ly = lifts[w]
            for dw, i, (sx, sy) in steps:
                if cfg.mult_mid2(i, 2 * w + dw):
                    continue
                w2 = w + dw
                if w2 < lo or w2 > hi:
                    touches_bound = True
                    continue
                exp = (lx + sx, ly + sy)
                if w2 in lifts:
                    dx = exp[0] - lifts[w2][0]
                    assert dx % lat.m == 0 and dx // lat.m * lat.n == exp[1] - lifts[w2][1]
                    if dx != 0:
                        wrapped = True
                else:
                    lifts[w2] = exp
                    seen[w2] = comp_idx
                    queue.append(w2)
                if w2 in (lo, hi):
                    touches_bound = True
        raw.append((frozenset(lifts), lifts, not wrapped, not touches_bound))
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


def internal_elements(cfg: Configuration, comp: Component) -> InternalElements:
    """Edges with both adjacent faces in the component, and vertices with all four."""
    lat = cfg.lat
    a, b = lat.alpha, lat.beta
    ws = comp.weights
    vert, horiz = set(), set()
    for w in ws:
        if w + a in ws and not cfg.mult_mid2(1, 2 * w + a):
            vert.add(2 * w + a)
        if w + b in ws and not cfg.mult_mid2(2, 2 * w + b):
            horiz.add(2 * w + b)
    verts = set()
    for w in ws:
        for t in (2 * w + a + b, 2 * w - a + b, 2 * w + a - b, 2 * w - a - b):
            corners = ((t - a - b) // 2, (t + a - b) // 2, (t - a + b) // 2, (t + a + b) // 2)
            if all(c in ws for c in corners):
                verts.add(t)
    return InternalElements(
        vertical=[lat.edge_of_mid2(VERTICAL, t) for t in sorted(vert)],
        horizontal=[lat.edge_of_mid2(HORIZONTAL, t) for t in sorted(horiz)],
        vertices=[lat.vertex_of_val2(t) for t in sorted(verts)],
    )


def overlay(cfg: Configuration, comp: Component, involution: str = "star") -> Overlay:
    """Edge polynomial signs on the internal edges, cross-checked two ways.

    The sign of P_i at an unsupported edge equals (-1)^(count above); both
    computations are performed and must agree.
    """
    if involution not in ("star", "dagger"):
        raise ValueError(f"involution must be 'star' or 'dagger', got {involution!r}")
    lat = cfg.lat
    elems = internal_elements(cfg, comp)
    signs: dict[Edge, int] = {}
    for i, edges in ((1, elems.vertical), (2, elems.horizontal)):
        for e in edges:
            val = cfg.poly_eval(i, lat.edge_mid2(e))
            if val == 0:
                raise AssertionError(f"internal edge {e} has vanishing edge polynomial")
            s = 1 if val > 0 else -1
            parity_sign = -1 if cfg.count_above(i, e) % 2 else 1
            assert s == parity_sign, f"sign law fails at {e}"
            signs[e] = -s if involution == "dagger" else s
    return Overlay(component_id=comp.id, involution=involution, signs=signs)


def eight_vertex_violations(cfg: Configuration, comp: Component, ov: Overlay) -> list[Vertex]:
    """Internal vertices with an odd number of incident red edges."""
    lat = cfg.lat
    a, b = lat.alpha, lat.beta
    sign_by_mid2 = {
        (1 if e.kind == VERTICAL else 2, lat.edge_mid2(e)): s for e, s in ov.signs.items()
    }
    bad = []
    for v in internal_elements(cfg, comp).vertices:
        t = lat.vertex_val2(v)
        incident = [(1, t + b), (1, t - b), (2, t + a), (2, t - a)]
        reds = 0
        for key in incident:
            s = sign_by_mid2.get(key)
            if s is None:
                raise AssertionError(f"edge {key} at internal vertex {v} is not internal")
            if s < 0:
                reds += 1
        if reds % 2:
            bad.append(v)
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
    lat = cfg.lat
    sign_by_mid2 = {
        (1 if e.kind == VERTICAL else 2, lat.edge_mid2(e)): s for e, s in ov.signs.items()
    }
    color: dict[int, int] = {}
    piece: dict[int, int] = {}
    npieces = 0
    for w0 in comp.sorted_weights():
        if w0 in color:
            continue
        color[w0] = 1  # provisional; normalized below
        queue = deque([w0])
        while queue:
            w = queue.popleft()
            for dw, i, _ in lat.steps.values():
                s = sign_by_mid2.get((i, 2 * w + dw))
                if s is None:
                    continue  # not internal: supported or leaves the component
                w2 = w + dw
                c2 = color[w] * s
                if w2 in color:
                    if color[w2] != c2:
                        raise ColoringConflictError(
                            f"two-coloring conflict at weights {w}, {w2}")
                else:
                    color[w2] = c2
                    queue.append(w2)
    # group into pieces: transparent-edge flood inside each color class
    for w0 in comp.sorted_weights():
        if w0 in piece:
            continue
        piece_id = npieces
        npieces += 1
        piece[w0] = piece_id
        queue = deque([w0])
        while queue:
            w = queue.popleft()
            for dw, i, _ in lat.steps.values():
                if sign_by_mid2.get((i, 2 * w + dw)) == 1 and (w + dw) not in piece:
                    piece[w + dw] = piece_id
                    queue.append(w + dw)
    flip = color[comp.min_weight]
    groups: dict[int, set[int]] = {}
    for w, p in piece.items():
        groups.setdefault(p, set()).add(w)
    out = []
    for p in sorted(groups, key=lambda p: min(groups[p])):
        ws = groups[p]
        cols = {color[w] * flip for w in ws}
        assert len(cols) == 1, "piece is not monochromatic"
        out.append(Subcomponent(weights=frozenset(ws), color=cols.pop()))
    return out
