"""Weight modules over a component: monomial generator columns.

On the faces of a component the four generators act by monomial matrices:
stepping across an edge multiplies by the square-root value of that edge,
and by construction a step across a supported edge carries factor zero, so
the matrices restrict exactly to the component.  Each is stored as one
``(row, Radical)`` or ``None`` per basis face, its column.  The diagonal
generator acts by the face weights.

The winding gauge: each basis face carries the plane lift chosen by the
component flood fill, and a step whose target lift returns through another
period copy contributes an integer power of the formal parameter ``xi``.
All lifts inside a contractible component are globally consistent, so its
matrices never mention ``xi``; around an incontractible component the
exponents along any closed loop of steps sum to the loop's winding number.

Verification helpers check the defining relations

    [H, Xi+-] = +-alpha_i Xi+-      Xi+- Xi-+ = P_i(H -+ alpha_i/2)
    [X1+-, X2-+] = 0

face by face as exact identities, evaluate ordered products of square-root values
along face paths, and extract the Casimir scalar from the balanced loop
operator divided by its order polynomial.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from math import comb, gcd

from .configuration import Configuration
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
    # per generator X1+-, X2+-: one (row, Radical) or None per basis face
    cols: dict[str, tuple]
    window: tuple[int, int] | None = None
    _index: dict[int, int] = field(default_factory=dict, repr=False)
    # casimir's composed columns per string, keyed on X1+ and X2+; built on its first call
    _chain: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self._index = {w: i for i, w in enumerate(self.weights)}

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def windowed(self) -> bool:
        return self.window is not None

    def in_basis(self, w: int) -> bool:
        return w in self._index

    def export_triplets(self, gen: str) -> str:
        """Plain text 'row col value' lines for external inspection."""
        if gen == "H":
            return "\n".join(f"{i} {i} {w}" for i, w in enumerate(self.weights))
        entries = sorted((e[0], c, e[1]) for c, e in enumerate(self.cols[gen]) if e is not None)
        return "\n".join(f"{r} {c} {val}" for r, c, val in entries)


def build_module(cfg: Configuration, comp: Component, window: tuple[int, int] | None = None) -> ModuleRep:
    """Basis, lifts and the generator columns of X1+- and X2+- over a component.

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
    lat = cfg.lat
    idx = {w: i for i, w in enumerate(basis)}
    cols = {}
    for gen in GENERATORS:
        dw, i, (sx, sy) = lat.steps[gen]
        col = []
        for w in basis:
            q = cfg.sqrt_value(i, 2 * w + dw)
            w2 = w + dw
            if w2 not in idx and comp.finite and not q.is_zero:
                raise AssertionError(
                    f"{gen} leaves finite component {comp.id} with nonzero factor at weight {w}"
                )
            if w2 not in idx or q.is_zero:
                col.append(None)
                continue
            lx, ly = lifts[w]
            tx, ty = lifts[w2]
            k = (lx + sx - tx) // lat.m
            if (lx + sx - tx, ly + sy - ty) != (k * lat.m, k * lat.n):
                raise AssertionError(f"{gen} lifts at weight {w} differ by a non-period")
            if k and comp.contractible:
                raise AssertionError("winding factor inside a contractible component")
            col.append((idx[w2], q._replace(xi_exp=k)))
        cols[gen] = tuple(col)
    return ModuleRep(cfg=cfg, comp=comp, weights=basis, lifts=lifts,
                     cols=cols, window=None if comp.finite else window)


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
    """Check the defining relations as exact identities, face by face.

    Every weight space is one-dimensional, so each relation is a scalar
    identity at one face j: a product of generators maps j to at most one
    face, with one ``Radical`` value.  Xi+- Xi-+ must return to j with the
    value of P_i there, and the two orders of a mixed commutator must land
    on the same face with the same value.

    For windowed modules a relation instance is asserted only when each of
    its face paths stays in the basis until it first crosses a supported
    edge, whose factor is zero; anything else is reported as skipped, never
    silently passed.
    """
    cfg, steps, cols, weights = rep.cfg, rep.cfg.lat.steps, rep.cols, rep.weights
    report = RelationReport(failures=[], skipped=[])

    # H-commutators
    for gen in GENERATORS:
        for c, e in enumerate(cols[gen]):
            if e is None:
                continue
            if weights[e[0]] - weights[c] != steps[gen].dw:
                report.failures.append(f"[H,{gen}] fails at basis weight {weights[c]}")
            report.checked += 1

    # product relations Xi+- Xi-+ = P_i(H -+ alpha_i/2)
    for gen, opp in (("X1+", "X1-"), ("X1-", "X1+"), ("X2+", "X2-"), ("X2-", "X2+")):
        dw_opp, i, _ = steps[opp]
        prod = [_path(cols, j, opp, gen) for j in range(rep.dim)]
        if any(p is not None and p[0] != j for j, p in enumerate(prod)):
            report.failures.append(f"{gen}{opp} is not diagonal")
        for j, w in enumerate(weights):
            if rep.windowed and _leaves_basis(rep, w, (opp,)):
                report.skipped.append(f"{gen}{opp} at weight {w} (window boundary)")
                continue
            expected = cfg.poly_eval(i, 2 * w + dw_opp)
            got = prod[j][1] if prod[j] is not None and prod[j][0] == j else Radical.zero()
            if got != Radical.from_rational(expected):
                report.failures.append(
                    f"{gen}{opp} at weight {w}: got {got}, expected {expected}"
                )
            report.checked += 1

    # mixed commutators [X1+-, X2-+] = 0: both orders land alike
    for g1, g2 in (("X1+", "X2-"), ("X1-", "X2+")):
        for j, w in enumerate(weights):
            if rep.windowed and (_leaves_basis(rep, w, (g2, g1))
                                 or _leaves_basis(rep, w, (g1, g2))):
                report.skipped.append(f"[{g1},{g2}] at weight {w} (window boundary)")
                continue
            if _path(cols, j, g2, g1) != _path(cols, j, g1, g2):
                report.failures.append(f"[{g1},{g2}] fails at basis weight {w}")
            report.checked += 1
    return report


def _path(cols: dict[str, tuple], j: int, first: str, then: str) -> tuple[int, Radical] | None:
    """Where generator ``first``, then ``then``, moves face j, and with what
    value; None where the product vanishes."""
    e = cols[first][j]
    f = e and cols[then][e[0]]
    return f and (f[0], f[1] * e[1])


def _leaves_basis(rep: ModuleRep, w: int, path) -> bool:
    """Whether the generator path from weight w, first letter first, first
    leaves the basis across an unsupported edge.

    Then the truncated matrices miss a nonzero factor and the relation
    instance cannot be checked; a path that leaves across a supported edge
    carries factor zero on the module too.
    """
    cfg = rep.cfg
    for gen in path:
        dw, i, _ = cfg.lat.steps[gen]
        if not rep.in_basis(w + dw):
            return cfg.mult_mid2(i, 2 * w + dw) == 0
        w += dw
    return False


# -- face-path walks -----------------------------------------------------------


def order_support(cfg: Configuration, word: str) -> dict[int, int]:
    """All weights with positive loop order for the word, with their orders.

    The loop from weight lam crosses the orientation-i edge at doubled
    midpoint 2*lam + off for every offset off that the loop from weight 0
    crosses.  So each supported edge at e2 adds one crossing per unit of
    multiplicity at lam = (e2 - off)/2.  Vertical and horizontal crossings
    are counted apart, and their agreement is asserted.

    The agreement is a theorem exactly on conservative configurations.  Let
    a(mu), b(mu) be the multiplicities that X1+ and X2+ cross from face mu,
    and Div(mu) = a(mu+beta) + b(mu+alpha) - a(mu) - b(mu) the defect at
    vertex 2mu+alpha+beta, zero everywhere iff the configuration is
    conservative.  A closed loop telescopes: P_1(x)(x^alpha - 1) +
    P_2(x)(x^beta - 1) = 0, where P_i sums x^p over the prefix weights p
    of the i-steps.  So the crossing difference D(lam) = V(lam) - H(lam)
    satisfies D(z)(z^-beta - 1) = P_1(1/z) Div(z), where D(z) and Div(z)
    are the Laurent polynomials sum D(lam) z^lam and sum Div(mu) z^mu.
    Since P_1 != 0, the loops of one word cross alike at every lam iff the
    configuration is conservative.  ``casimir`` reads a module,
    whose configuration passed ``components()``, so it skips this check;
    here it stays, for arbitrary input.
    """
    _check_balanced(cfg, word)
    crossed: dict[int, list[int]] = {1: [], 2: []}
    for i, off, _ in cfg.lat.walk(0, word):
        crossed[i] += cfg.root_offsets(i, off)
    vert, horiz = Counter(crossed[1]), Counter(crossed[2])
    if vert != horiz:
        lam = min(lam for lam in vert.keys() | horiz.keys() if vert[lam] != horiz[lam])
        raise AssertionError(f"vertical/horizontal crossing counts differ at {lam}")
    return dict(sorted(vert.items()))


def _check_balanced(cfg: Configuration, word: str) -> None:
    m, n = cfg.lat.m, cfg.lat.n
    if len(word) != m + n or word.count("1") != m or word.count("2") != n:
        raise ValueError(f"word {word!r} is not balanced for {(m, n)}")


def order_product(cfg: Configuration, word: str, mu: int,
                  support: dict[int, int] | None = None) -> int:
    """The polynomial prod (mu - lambda)^order(word, lambda) at the integer mu."""
    if support is None:
        support = order_support(cfg, word)
    out = 1
    for lam, o in support.items():
        out *= (mu - lam) ** o
    return out


@dataclass
class OrderProductReport:
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

    The loops from every weight of the window are walked together, one
    letter at a time.  Each weight's state sums the crossed multiplicities
    and folds the square-root values into integers ``i^phase * num/den *
    sqrt(root)``, joining roots by their gcd as ``Radical`` products do, so
    the root stays squarefree.  The product is a ``Radical`` only for a
    message.  The configuration keeps the states after every prefix of the
    last word walked over the window, and a call extends only the part of
    its word past their common prefix.  So the words of ``balanced_words``,
    which are sorted, walk their prefix trie once.
    """
    identity_failures, sign_failures, crossing_failures = [], [], []
    support = order_support(cfg, word)
    lo, hi = window
    chain = cfg._order_chain
    if chain is None or chain[0] != window:
        chain = (window, "", [[(mu, 0, 0, 1, 1, 1) for mu in range(lo, hi + 1)]])
    _, last, levels = chain
    p = len(os.path.commonprefix([last, word]))
    del levels[p + 1:]
    for c in word[p:]:
        levels.append(_order_step(cfg, levels[-1], c))
    cfg._order_chain = (window, word, levels)
    checked = 0
    for mu, (_, total, phase, num, den, root) in zip(range(lo, hi + 1), levels[-1]):
        op = order_product(cfg, word, mu, support)
        # num/den is unreduced; equal to op iff both vanish or it is the
        # rational |op| with the sign of op
        equal = num == abs(op) * den and (
            num == 0 or (root == 1 and phase % 4 == (0 if op > 0 else 2)))
        negative = op < 0 or (num != 0 and phase % 4 != 0)
        if not equal or negative:
            g = gcd(num, den)
            lhs = Radical(0, phase % 4, num // g, den // g, root) if num else Radical.zero()
            if not equal:
                identity_failures.append(f"sqrt product != order product at {mu}: {lhs} vs {op}")
            if negative:
                sign_failures.append(f"negative value at {mu}: {lhs}")
        if total != 2 * support.get(mu, 0):
            crossing_failures.append(f"total crossings != 2 * order at {mu}")
        checked += 1
    return OrderProductReport(identity_failures=identity_failures,
                              sign_failures=sign_failures,
                              crossing_failures=crossing_failures, checked=checked)


def _order_step(cfg: Configuration, states: list, letter: str) -> list:
    """Every loop's state after one more letter.

    A state is ``(weight, crossed total, phase, num, den, root)``, the
    product unreduced; once num is 0 only the total still grows.
    """
    dw, i, _ = cfg.lat.steps["X1+" if letter == "1" else "X2+"]
    mult, sqrt_value = cfg.mult_mid2, cfg.sqrt_value
    out = []
    for w, total, phase, num, den, root in states:
        mid2 = 2 * w + dw
        total += mult(i, mid2)
        if num:
            # folded inline: a Radical product per step made this check 1.5x slower
            q = sqrt_value(i, mid2)
            g = gcd(root, q.root)
            phase, root = phase + q.phase, (root // g) * (q.root // g)
            num, den = num * q.num * g, den * q.den
        out.append((w + dw, total, phase, num, den, root))
    return out


# -- operator words and the Casimir --------------------------------------------


@dataclass
class CasimirResult:
    word: str
    scalar: Radical | None
    determinate: list[int]
    indeterminate: list[int]


def casimir(rep: ModuleRep, word: str) -> CasimirResult:
    """Casimir scalar on the module, extracted from one balanced word.

    The loop operator divided by its order polynomial acts as a scalar.  It
    is computed in integers along each basis face's column chain through
    X1+ and X2+, in word order, folding roots by their gcd as ``Radical``
    products do.  The chain is nonzero exactly when the face loop stays
    inside the basis crossing only unsupported edges: such a face is
    determinate, and the ratios on those faces must agree.  Faces whose
    loop meets the support are zero over zero for this word and are
    reported indeterminate (the scalar is word independent, so another word
    can certify them).  On a contractible component the loop operator
    vanishes and the scalar is 0.

    The order polynomial rides along the chain: each X1+ step from weight w
    also divides by P_1 at 2w + alpha, the edge it crosses.  At a
    determinate face mu that product is ``order_product(cfg, word, mu)``:
    with off_t the doubled midpoint crossed at the t-th vertical step of
    the loop from 0, both are the finite product over those t and over the
    orientation-1 roots e2 of (2mu + off_t - e2)/2, the first grouped by
    root weight lam = (e2 - off_t)/2 as (mu - lam)^order(lam), the second
    by step as P_1(2mu + off_t).  Every such factor is an integer, because
    every orientation-1 root has the parity of every orientation-1 crossing.

    The word is split in the middle, and each half is one composed column:
    the chain through its letters from every face, built right to left
    (``_composed``).  The module keeps one column per distinct string, as
    is every suffix it was built from, keyed on the X1+ and X2+ columns
    they were read from.  So a lone word costs len(word) - 2 compositions
    at most, and the words of ``balanced_words`` compose each distinct
    string once (on (5,3): 27 columns of dim entries for the 56 words).  One fused pass per word then joins each face's first-half
    entry with the second-half entry at its row, checks that the loop is
    diagonal and compares each determinate value with the first by
    cross-multiplying; a ``Radical`` is built only for the result, or for
    every distinct ratio in the message when they disagree.

    The word must be balanced.  Its vertical and horizontal crossings are
    not compared, as ``order_support`` compares them: the module's
    configuration is conservative, and there they agree (the proof is in
    ``order_support``).
    """
    _check_balanced(rep.cfg, word)
    plus = (rep.cols["X1+"], rep.cols["X2+"])
    chain = rep._chain
    if chain is None or chain[0] is not plus[0] or chain[1] is not plus[1]:
        # a contractible module's scalar is 0 whatever the chain values
        x1 = _flat(plus[0]) if rep.comp.contractible else _divided_by_p1(rep, plus[0])
        chain = rep._chain = (*plus, {"1": x1, "2": _flat(plus[1])})
    cols = chain[2]
    half = len(word) // 2
    head, tail = _composed(cols, word[:half]), _composed(cols, word[half:])
    determinate, indeterminate, values = [], [], []
    first, agree = None, True
    for j, (w, state) in enumerate(zip(rep.weights, head)):
        e = state and tail[state[0]]
        if e is None:
            indeterminate.append(w)
            continue
        r, dk, dphase, dnum, dden, droot = e
        if r != j:
            raise AssertionError("balanced loop operator is not diagonal")
        determinate.append(w)
        _, k, phase, num, den, root = state
        g = gcd(root, droot)
        key = (k + dk, (phase + dphase) % 4, (root // g) * (droot // g))
        num, den = num * dnum * g, den * dden
        if first is None:
            first = key, num, den
        elif key != first[0] or num * first[2] != first[1] * den:
            agree = False
        values.append((key, num, den))
    if rep.comp.contractible and determinate:
        raise AssertionError("loop operator does not vanish on a contractible component")
    if not agree:
        scalars = {_radical(*v) for v in values}
        raise AssertionError(f"casimir ratio is not scalar: {sorted(str(v) for v in scalars)}")
    if rep.comp.contractible:
        scalar = Radical.zero()
    else:
        scalar = first and _radical(*first)
    return CasimirResult(word=word, scalar=scalar, determinate=determinate,
                         indeterminate=indeterminate)


def _radical(key: tuple, num: int, den: int) -> Radical:
    """The ``Radical`` of a chain value ``((xi_exp, phase, root), num, den)``
    with num/den unreduced."""
    g = gcd(num, den)
    return Radical(key[0], key[1], num // g, den // g, key[2])


def _flat(col: tuple) -> list:
    """A column with each entry as one state tuple ``(row, xi_exp, phase,
    num, den, root)``, the form ``_chain_step`` reads."""
    return [e and (e[0], *e[1]) for e in col]


def _composed(cols: dict, letters: str) -> list:
    """The column of the chain through ``letters`` from every face, memoized
    in ``cols`` by its string: the first letter's column, read as a state
    list, stepped by the composed column of the rest."""
    col = cols.get(letters)
    if col is None:
        col = cols[letters] = _chain_step(cols[letters[0]], _composed(cols, letters[1:]))
    return col


def _divided_by_p1(rep: ModuleRep, col1: tuple) -> list:
    """The X1+ columns, each entry divided by P_1 at the edge it crosses.

    From weight w that edge is at 2w + alpha, and P_1 there is the product
    of (2w + alpha - e2)/2 over the orientation-1 roots e2: a nonzero
    integer, since the edge is unsupported and every root has its parity.
    The entries are flat, as ``_flat`` makes them.
    """
    cfg, alpha = rep.cfg, rep.cfg.lat.alpha
    out = []
    for e, w in zip(col1, rep.weights):
        if e is not None:
            p = cfg.poly_eval(1, 2 * w + alpha).numerator
            r, (k, phase, num, den, root) = e
            e = (r, k, phase + 2 if p < 0 else phase, num, den * abs(p), root)
        out.append(e)
    return out


def _chain_step(states: list, col: list) -> list:
    """Every face's state after one more letter; None once its chain is zero.

    A state, and an entry of the flat column ``col``, is ``(row, xi_exp,
    phase, num, den, root)``, unreduced.
    """
    out = []
    for state in states:
        e = state and col[state[0]]
        if e is None:
            out.append(None)
            continue
        # folded inline: a Radical product per step made casimir 1.5x slower
        _, k, phase, num, den, root = state
        r, dk, dphase, dnum, dden, droot = e
        g = gcd(root, droot)
        out.append((r, k + dk, phase + dphase, num * dnum * g, den * dden,
                    (root // g) * (droot // g)))
    return out
