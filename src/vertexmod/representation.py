"""Weight modules over a component: monomial generator matrices.

On the faces of a component the four generators act by monomial matrices:
stepping across an edge multiplies by the square-root value of that edge,
and by construction a step across a supported edge carries factor zero, so
the matrices restrict exactly to the component.  The diagonal generator acts
by the face weights.

The winding gauge: each basis face carries the plane lift chosen by the
component flood fill, and a step whose target lift returns through another
period copy contributes an integer power of the formal parameter ``xi``.
All lifts inside a contractible component are globally consistent, so its
matrices never mention ``xi``; around an incontractible component the
exponents along any closed loop of steps sum to the loop's winding number.

Verification helpers check the defining relations

    [H, Xi+-] = +-alpha_i Xi+-      Xi+- Xi-+ = P_i(H -+ alpha_i/2)
    [X1+-, X2-+] = 0

as exact matrix identities, evaluate ordered products of square-root values
along face paths, and extract the Casimir scalar from the balanced loop
operator divided by its order polynomial.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

from .configuration import Configuration
from .linalg import MonomialMat
from .scalar import Radical
from .topology import Component, window_flood

GENERATORS = ("X1+", "X1-", "X2+", "X2-")


def balanced_words(m: int, n: int) -> list[str]:
    """All words with m ones and n twos, lexicographically sorted."""
    if m + n > 20:
        raise ValueError(f"refusing to enumerate C({m + n},{n}) = {comb(m + n, n)} words")
    words = []
    for pos in combinations(range(m + n), n):
        chars = ["1"] * (m + n)
        for p in pos:
            chars[p] = "2"
        words.append("".join(chars))
    return sorted(words)


@dataclass
class ModuleRep:
    cfg: Configuration
    comp: Component
    weights: list[int]  # increasing; basis order
    lifts: dict[int, tuple[int, int]]
    mats: dict[str, MonomialMat]  # X1+, X1-, X2+, X2- and H
    window: tuple[int, int] | None = None
    _index: dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._index = {w: i for i, w in enumerate(self.weights)}

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def windowed(self) -> bool:
        return self.window is not None

    def index(self, w: int) -> int:
        return self._index[w]

    def in_basis(self, w: int) -> bool:
        return w in self._index

    def export_triplets(self, gen: str) -> str:
        """Plain text 'row col value' lines for external inspection."""
        if gen == "H":
            return "\n".join(f"{i} {i} {w}" for i, w in enumerate(self.weights))
        return "\n".join(f"{r} {c} {val}" for (r, c), val in sorted(self.mats[gen].items()))


def build_module(cfg: Configuration, comp: Component, window: tuple[int, int] | None = None) -> ModuleRep:
    """Basis, lifts and the generator matrices X1+-, X2+- and H over a component.

    Finite components are used whole (window ignored); infinite ones require
    a weight window and yield a truncation whose boundary rows are only
    valid on interior faces.
    """
    if comp.finite:
        basis = comp.sorted_weights()
        lifts = dict(comp.lifts)
    else:
        if window is None:
            raise ValueError("an infinite component needs an explicit weight window")
        lo, hi = window
        basis, lifts = window_flood(cfg, comp, lo, hi)
        if not basis:
            raise ValueError(f"window {window} does not meet component {comp.id}")
    lat = cfg.lat
    idx = {w: i for i, w in enumerate(basis)}
    entries: dict[str, dict[tuple[int, int], Radical]] = {g: {} for g in GENERATORS}
    for gen in GENERATORS:
        dw, i, (sx, sy) = lat.steps[gen]
        for w in basis:
            q = cfg.sqrt_value(i, 2 * w + dw)
            w2 = w + dw
            if w2 not in idx:
                if comp.finite and not q.is_zero:
                    raise AssertionError(
                        f"{gen} leaves finite component {comp.id} with nonzero factor at weight {w}"
                    )
                continue
            if q.is_zero:
                continue
            lx, ly = lifts[w]
            tx, ty = lifts[w2]
            k = (lx + sx - tx) // lat.m
            if (lx + sx - tx, ly + sy - ty) != (k * lat.m, k * lat.n):
                raise AssertionError(f"{gen} lifts at weight {w} differ by a non-period")
            if k and comp.contractible:
                raise AssertionError("winding factor inside a contractible component")
            entries[gen][(idx[w2], idx[w])] = Radical(k, q.phase, q.coeff, q.root)
    mats = {g: MonomialMat(len(basis), entries[g]) for g in GENERATORS}
    mats["H"] = MonomialMat.diagonal([Fraction(w) for w in basis])
    return ModuleRep(cfg=cfg, comp=comp, weights=basis, lifts=lifts,
                     mats=mats, window=None if comp.finite else window)


# -- relation verification ----------------------------------------------------


@dataclass
class RelationReport:
    failures: list[str]
    skipped: list[str]
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_relations(rep: ModuleRep) -> RelationReport:
    """Check the defining relations as exact matrix identities.

    For windowed modules a relation instance is asserted only when every
    face it reaches through unsupported edges lies in the basis; anything
    else is reported as skipped, never silently passed.
    """
    cfg, steps, mats = rep.cfg, rep.cfg.lat.steps, rep.mats
    report = RelationReport(failures=[], skipped=[])

    # H-commutators
    for gen in GENERATORS:
        for (r, c), _ in mats[gen].items():
            if rep.weights[r] - rep.weights[c] != steps[gen].dw:
                report.failures.append(
                    f"[H,{gen}] fails at basis weight {rep.weights[c]}"
                )
            report.checked += 1

    # product relations Xi+- Xi-+ = P_i(H -+ alpha_i/2)
    for gen, opp in (("X1+", "X1-"), ("X1-", "X1+"), ("X2+", "X2-"), ("X2-", "X2+")):
        dw_opp, i, _ = steps[opp]
        prod = mats[gen] @ mats[opp]
        if not prod.is_diagonal():
            report.failures.append(f"{gen}{opp} is not diagonal")
        for j, w in enumerate(rep.weights):
            unsupported = cfg.mult_mid2(i, 2 * w + dw_opp) == 0
            if rep.windowed and unsupported and not rep.in_basis(w + dw_opp):
                report.skipped.append(f"{gen}{opp} at weight {w} (window boundary)")
                continue
            expected = cfg.poly_eval(i, 2 * w + dw_opp)
            got = prod.entry(j, j)
            if got != Radical.from_rational(expected):
                report.failures.append(
                    f"{gen}{opp} at weight {w}: got {got}, expected {expected}"
                )
            report.checked += 1

    # mixed commutators [X1+-, X2-+] = 0, as equal columns of both products
    for g1, g2 in (("X1+", "X2-"), ("X1-", "X2+")):
        dw1, i1, _ = steps[g1]
        dw2, i2, _ = steps[g2]
        ab = (mats[g1] @ mats[g2]).cols
        ba = (mats[g2] @ mats[g1]).cols
        for j, w in enumerate(rep.weights):
            reach = [(w + dw2, i2, 2 * w + dw2), (w + dw1, i1, 2 * w + dw1)]
            skip = False
            if rep.windowed:
                for w_mid, i, mid2 in reach:
                    if cfg.mult_mid2(i, mid2) == 0 and not rep.in_basis(w_mid):
                        skip = True
                final = w + dw1 + dw2
                if not skip and rep.in_basis(w + dw2) and not rep.in_basis(final):
                    if cfg.mult_mid2(i1, 2 * (w + dw2) + dw1) == 0:
                        skip = True
                if not skip and rep.in_basis(w + dw1) and not rep.in_basis(final):
                    if cfg.mult_mid2(i2, 2 * (w + dw1) + dw2) == 0:
                        skip = True
            if skip:
                report.skipped.append(f"[{g1},{g2}] at weight {w} (window boundary)")
                continue
            if ab[j] != ba[j]:
                report.failures.append(f"[{g1},{g2}] fails at basis weight {w}")
            report.checked += 1
    return report


# -- face-path walks -----------------------------------------------------------


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
    out = Radical.one()
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


def order_support(cfg: Configuration, word: str) -> dict[int, int]:
    """All weights with positive loop order for the word, with their orders.

    The loop from weight lam crosses the orientation-i edge at doubled
    midpoint 2*lam + off for every offset off that the loop from weight 0
    crosses.  So each supported edge at e2 adds one crossing per unit of
    multiplicity at lam = (e2 - off)/2.  Vertical and horizontal crossings
    are counted apart, and their agreement is asserted.
    """
    if word.count("1") != cfg.lat.m or word.count("2") != cfg.lat.n:
        raise ValueError(f"word {word!r} is not balanced for {(cfg.lat.m, cfg.lat.n)}")
    counts = {1: Counter(), 2: Counter()}
    roots = {i: cfg.poly_roots(i) for i in (1, 2)}
    for i, off, _ in cfg.lat.walk(0, word):
        counts[i].update((e2 - off) // 2 for e2 in roots[i] if (e2 - off) % 2 == 0)
    vert, horiz = counts[1], counts[2]
    if vert != horiz:
        lam = min(lam for lam in vert.keys() | horiz.keys() if vert[lam] != horiz[lam])
        raise AssertionError(f"vertical/horizontal crossing counts differ at {lam}")
    return dict(sorted(vert.items()))


def order_product(cfg: Configuration, word: str, mu: int,
                  support: dict[int, int] | None = None) -> Fraction:
    """The polynomial prod (mu - lambda)^order(word, lambda) evaluated exactly."""
    if support is None:
        support = order_support(cfg, word)
    out = 1
    for lam, o in support.items():
        out *= (mu - lam) ** o
    return Fraction(out)


@dataclass
class OrderProductReport:
    word: str
    window: tuple[int, int]
    identity_failures: list[str]
    sign_failures: list[str]
    crossing_failures: list[str]
    checked: int

    @property
    def identity_ok(self) -> bool:
        """The promised identities hold; negative values are diagnostics only."""
        return not self.identity_failures and not self.crossing_failures


def check_order_product(cfg: Configuration, word: str, window: tuple[int, int]) -> OrderProductReport:
    """Verify the square-root product along the loop against the order polynomial.

    For every face weight mu in the window:

    * the ordered product of square-root values equals
      prod (mu - lambda)^order(lambda) as an exact rational, sign included;
    * ``sign_failures`` lists, as a diagnostic and not as a failure, the
      weights where the signed common value is negative, i.e. where the
      accumulated phase is 2 mod 4 (by the signed identity, exactly where
      the order polynomial is negative);
    * the total crossed multiplicity along the walk equals twice the loop
      order that ``order_support`` counts without walking.
    """
    identity_failures, sign_failures, crossing_failures = [], [], []
    support = order_support(cfg, word)
    lo, hi = window
    checked = 0
    for mu in range(lo, hi + 1):
        lhs = path_sqrt_product(cfg, word, mu)
        rhs = order_product(cfg, word, mu, support)
        if lhs != Radical.from_rational(rhs):
            identity_failures.append(f"sqrt product != order product at {mu}: {lhs} vs {rhs}")
        if rhs < 0 or lhs.phase % 4 != 0:
            sign_failures.append(f"negative value at {mu}: {lhs}")
        total = sum(cfg.mult_mid2(i, m2) for i, m2, _ in cfg.lat.walk(mu, word))
        if total != 2 * support.get(mu, 0):
            crossing_failures.append(f"total crossings != 2 * order at {mu}")
        checked += 1
    return OrderProductReport(word=word, window=window,
                              identity_failures=identity_failures,
                              sign_failures=sign_failures,
                              crossing_failures=crossing_failures, checked=checked)


# -- operator words and the Casimir --------------------------------------------


def word_matrix(rep: ModuleRep, tokens) -> MonomialMat:
    """Product of generator matrices; the rightmost token acts first."""
    out = MonomialMat.identity(rep.dim)
    for t in tokens:
        out = out @ rep.mats[t]
    return out


def loop_matrix(rep: ModuleRep, word: str) -> MonomialMat:
    """The balanced loop operator: raising generators, first letter first."""
    return word_matrix(rep, [f"X{c}+" for c in reversed(word)])


@dataclass
class CasimirResult:
    word: str
    scalar: Radical | None
    determinate: list[int]
    indeterminate: list[int]

    @property
    def ok(self) -> bool:
        return self.scalar is not None


def casimir(rep: ModuleRep, word: str) -> CasimirResult:
    """Casimir scalar on the module, extracted from one balanced word.

    The loop operator divided by its order polynomial acts as a scalar.  It
    is computed in integers by one walk per basis face along its column
    chain through X1+ and X2+, in word order, folding roots by their gcd as
    ``Radical`` products do.  The chain is nonzero exactly when the face
    loop stays inside the basis crossing only unsupported edges: such a
    face is determinate, and the ratios on those faces must agree.  Faces
    whose loop meets the support are zero over zero for this word and are
    reported indeterminate (the scalar is word independent, so another word
    can certify them).  On a contractible component the loop operator
    vanishes and the scalar is 0.
    """
    cfg = rep.cfg
    support = order_support(cfg, word)
    cols = {}
    for c in "12":
        cols[c] = [col and (col[0], col[1].xi_exp, col[1].phase, col[1].coeff.numerator,
                            col[1].coeff.denominator, col[1].root)
                   for col in rep.mats[f"X{c}+"].cols]
    chain = [cols[c] for c in word]
    determinate, indeterminate, scalars = [], [], set()
    for j, w in enumerate(rep.weights):
        r, k, phase, num, den, root = j, 0, 0, 1, 1, 1
        for col in chain:
            if col[r] is None:
                indeterminate.append(w)
                break
            r, dk, dphase, dnum, dden, droot = col[r]
            g = gcd(root, droot)
            k, phase, num, den = k + dk, phase + dphase, num * dnum * g, den * dden
            root = (root // g) * (droot // g)
        else:
            if r != j:
                raise AssertionError("balanced loop operator is not diagonal")
            determinate.append(w)
            op = order_product(cfg, word, w, support).numerator
            phase += 2 if op < 0 else 0
            scalars.add(Radical(k, phase % 4, Fraction(num, den * abs(op)), root))
    if rep.comp.contractible and determinate:
        raise AssertionError("loop operator does not vanish on a contractible component")
    if len(scalars) > 1:
        raise AssertionError(f"casimir ratio is not scalar: {sorted(str(v) for v in scalars)}")
    scalar = Radical.zero() if rep.comp.contractible else next(iter(scalars), None)
    return CasimirResult(word=word, scalar=scalar, determinate=determinate,
                         indeterminate=indeterminate)
