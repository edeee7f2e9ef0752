"""Invariant inner products, the face sign function, and signatures.

Every module here carries an invariant indefinite inner product that is
diagonal in the face basis with values in {+1, -1}.  The sign of a face is
determined by a difference rule: crossing an edge flips the sign exactly
when the count of same-orientation supported edges above it is odd.
Conservation makes the rule path independent, so integrating it along any
path from the weight-zero face (normalized to +1) gives a well defined
global sign function, ``Configuration.face_sign``.

Two ways to compute the signature of a finite component module:

* directly, counting faces by sign;
* combinatorially, two-coloring the subcomponents cut out by the red
  overlay edges and counting faces per color.

Both must agree; their agreement is the central cross-validation of the
whole construction.  Both serve the dagger involution too, which flips the
sign of every edge: the direct route multiplies the global sign by the
parity of the face's lift, the coloring route flips the overlay.  A module
is unitarizable iff one of the counts is 0, and five equivalent criteria
for that are evaluated independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .configuration import Configuration
from .lattice import HORIZONTAL, VERTICAL, Edge, Vertex
from .linalg import MonomialMat
from .representation import ModuleRep
from .topology import Component, overlay, subcomponents, window_flood

Signature = tuple[int, int]  # unordered pair, stored sorted ascending


def path_phase2(cfg: Configuration, steps) -> int:
    """Doubled phase accumulated along a signed step path from weight 0.

    Each token +-1 or +-2 moves by +-alpha or +-beta and contributes the
    above-count of the crossed edge.  Only the parity is path independent.
    """
    return sum(cfg.count_above(i, mid2) for i, mid2, _ in cfg.lat.walk(0, steps))


class SignTable:
    """A view of ``Configuration.face_sign``.

    Kept only because ``perfbench/workloads.py`` builds one per configuration
    and passes it to ``signature_direct``.
    """

    def __init__(self, cfg: Configuration):
        self.sign = cfg.face_sign


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
    import random
    from itertools import combinations

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


# -- the invariant form on a module --------------------------------------------


def gram_diag(rep: ModuleRep) -> list[int]:
    """Diagonal of the invariant form in the face basis."""
    return [rep.cfg.face_sign(w) for w in rep.weights]


def gram_matrix(rep: ModuleRep) -> MonomialMat:
    return MonomialMat.diagonal([Fraction(s) for s in gram_diag(rep)])


@dataclass
class InvarianceReport:
    failures: list[str]
    checked: int

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_invariance(rep: ModuleRep) -> InvarianceReport:
    """conj-transpose(X_i^+) G = G X_i^- and H real, as exact identities.

    Entry presence is symmetric between the two sides even on windowed
    modules, so no boundary skipping is needed here.
    """
    G = gram_matrix(rep)
    failures = []
    checked = 0
    for i in (1, 2):
        plus, minus = rep.mats[f"X{i}+"], rep.mats[f"X{i}-"]
        if plus.conj_transpose() @ G != G @ minus:
            failures.append(f"form invariance fails for X{i}+-")
        checked += 1
    H = rep.mats["H"]
    if H.conj_transpose() != H:
        failures.append("H is not real diagonal")
    checked += 1
    return InvarianceReport(failures=failures, checked=checked)


def adjoint_matrix(rep: ModuleRep, gen: str) -> MonomialMat:
    """Form adjoint G^-1 M^dagger G (G is its own inverse)."""
    G = gram_matrix(rep)
    return G @ rep.mats[gen].conj_transpose() @ G


# -- signatures ------------------------------------------------------------------


def signature_direct(cfg: Configuration, comp: Component,
                     table: SignTable | None = None, involution: str = "star") -> Signature:
    """Counts of faces by the involution's sign; unordered, returned sorted.

    ``table`` is ignored: the signs come from ``cfg.face_sign``.  The
    parameter stays because ``perfbench/workloads.py`` passes a
    ``SignTable`` as the third positional argument.
    """
    if not comp.finite:
        raise ValueError("signature of an infinite component; use signature_window")
    signs = _face_signs(cfg, comp, comp.lifts, involution)
    pos = signs.count(1)
    return tuple(sorted((pos, len(signs) - pos)))


def _face_signs(cfg: Configuration, comp: Component, lifts: dict[int, tuple[int, int]],
                involution: str) -> list[int]:
    """The sign under the involution of each face of the component in ``lifts``.

    The dagger rule flips every edge sign, one extra flip per step, and each
    step changes x + y of the face's lift by one.  So the dagger sign is the
    global sign times (-1)^(x + y) of its lift.  One turn around the
    cylinder changes x + y by m + n, so on an incontractible component with
    m + n odd no consistent dagger sign exists.
    """
    if involution == "star":
        return [cfg.face_sign(w) for w in lifts]
    if involution != "dagger":
        raise ValueError(f"involution must be 'star' or 'dagger', got {involution!r}")
    if not comp.contractible and (cfg.lat.m + cfg.lat.n) % 2:
        raise ValueError("the flipped involution admits no consistent sign on this component")
    return [(-1 if (x + y) % 2 else 1) * cfg.face_sign(w) for w, (x, y) in lifts.items()]


def signature_window(cfg: Configuration, comp: Component, window: tuple[int, int],
                     involution: str = "star") -> tuple[Signature, bool]:
    """Face counts by the involution's sign over the component's faces in the window.

    The faces are those of the window fill that ``build_module`` uses; the
    flag marks the counts partial (an infinite component).
    """
    _, lifts = window_flood(cfg, comp, *window)
    signs = _face_signs(cfg, comp, lifts, involution)
    pos = signs.count(1)
    return tuple(sorted((pos, len(signs) - pos))), not comp.finite


def signature_coloring(cfg: Configuration, comp: Component,
                       involution: str = "star") -> Signature:
    """Face counts per color of the two-colored red-edge decomposition.

    Never inspects the sign function or the formal parameter; this is the
    independent combinatorial route.
    """
    if not comp.finite:
        raise ValueError("coloring signature needs a finite component")
    return _coloring_counts(subcomponents(cfg, comp, overlay(cfg, comp, involution)))


def _coloring_counts(pieces) -> Signature:
    pos = sum(len(p.weights) for p in pieces if p.color > 0)
    neg = sum(len(p.weights) for p in pieces if p.color < 0)
    return tuple(sorted((pos, neg)))


# -- unitarizability -------------------------------------------------------------


@dataclass
class UnitarizabilityReport:
    component_id: int
    involution: str
    conditions: dict[str, bool]
    verdict: bool
    coloring: Signature

    @property
    def agree(self) -> bool:
        return len(set(self.conditions.values())) == 1


def unitarizability_report(cfg: Configuration, comp: Component,
                           involution: str = "star") -> UnitarizabilityReport:
    """Five independent equivalent criteria for a definite invariant form.

    (i) a zero in the coloring signature; (ii) the sign function constant on
    the component; (iii) positive edge polynomial on every internal edge;
    (iv) even above-counts there; (v) the geometric slope-line count,
    recomputed by brute force over drawn midpoints.  All five must agree.
    The report also carries the coloring signature.
    """
    if not comp.finite:
        raise ValueError("unitarizability report needs a finite component")
    lat = cfg.lat
    ov = overlay(cfg, comp, involution)
    internal = ov.signs
    flip = involution == "dagger"

    sig = _coloring_counts(subcomponents(cfg, comp, ov))
    cond_i = 0 in sig

    cond_ii = len(set(_face_signs(cfg, comp, comp.lifts, involution))) == 1

    vals = [cfg.poly_eval(i, mid2) for i, mid2 in internal]
    cond_iii = all((-v if flip else v) > 0 for v in vals)

    want = 1 if flip else 0
    cond_iv = all(cfg.count_above(i, mid2) % 2 == want for i, mid2 in internal)

    kind = {1: VERTICAL, 2: HORIZONTAL}
    cond_v = all(_geometric_count_above(cfg, i, lat.edge_of_mid2(kind[i], mid2)) % 2 == want
                 for i, mid2 in internal)

    conditions = {"i": cond_i, "ii": cond_ii, "iii": cond_iii, "iv": cond_iv, "v": cond_v}
    if len(set(conditions.values())) != 1:
        raise AssertionError(f"unitarizability criteria disagree: {conditions}")
    return UnitarizabilityReport(component_id=comp.id, involution=involution,
                                 conditions=conditions, verdict=cond_i, coloring=sig)


def _geometric_count_above(cfg: Configuration, i: int, e: Edge) -> int:
    """Slope-line count over drawn midpoints: the independent geometric oracle.

    A supported same-orientation edge lies above the slope n/m line through
    the midpoint of e iff m*py - n*px exceeds the same form at e, where
    (px, py) is the drawn midpoint; the comparison is period invariant.
    Levels are doubled so that they stay integers.
    """
    m, n = cfg.lat.m, cfg.lat.n

    def drawn_level(kind, x, y) -> int:
        if kind == "V":
            return 2 * m * y - m - 2 * n * x
        return 2 * m * y - 2 * n * x + n

    level = drawn_level(e.kind, e.x, e.y)
    total = 0
    for other, mult in cfg.edges.items():
        if other.kind != e.kind:
            continue
        if drawn_level(other.kind, other.x, other.y) > level:
            total += mult
    return total


# -- finitistic dual -------------------------------------------------------------


@dataclass
class DualReport:
    support: list[int]
    dual_parameter: str
    pseudo_unitarizable: bool


def dual_invariants(comp: Component, xi: complex | None = None) -> DualReport:
    """Support and Casimir parameter of the finitistic dual, plus the verdict.

    The dual has the same support; its parameter is the conjugate inverse.
    Contractible components are always pseudo-unitarizable; incontractible
    ones exactly when the parameter is unimodular (the formal parameter is
    treated as unimodular).
    """
    support = comp.sorted_weights()
    if comp.contractible:
        return DualReport(support=support, dual_parameter="0", pseudo_unitarizable=True)
    if xi is None:
        return DualReport(support=support, dual_parameter="xi", pseudo_unitarizable=True)
    unit = abs(abs(xi) - 1.0) < 1e-12
    return DualReport(
        support=support,
        dual_parameter=str(1 / xi.conjugate() if xi else "undefined"),
        pseudo_unitarizable=unit,
    )
