"""Base tau-functions and the derived partition functions.

The psi-class and Theta-class intersection numbers are generated by the
standard Virasoro-constraint recursions (seeded by the classical base
values) and are validated downstream by the independent bilinear-identity
checker rather than trusted.  The expansion convention is topological:
a term with genus g and n insertions carries hbar^(2g-2+n).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .algebra import (
    HbarPoly,
    InvariantViolation,
    TPoly,
    T_SIDE,
    double_factorial,
    exp_weights,
    mul_sorted,
    rat_str,
    weight_sorted,
)
from .curve import MIN_SERIES_ORDER, CurveParams, CurveSeries, build_curve
from .operators import (
    givental_routes,
    odd_t_to_big_t,
    rl_transform_virasoro,
    tqp_forms,
    tqp_substitute,
)

__all__ = [
    "TauSeries",
    "psi_correlator",
    "theta_correlator",
    "kw_tau",
    "bgw_tau",
    "tp_exp",
    "hodge_partition",
    "TauIdentityReport",
    "PointArtifacts",
    "tau_qp_check",
    "tau_qp_theta_check",
    "trust_band",
]

# Exactness bands of the weight-truncated products: a coefficient at
# monomial weight v and hbar exponent e is exact iff a*e <= W + b*v.
# The slopes come from the weight-per-grading ratio of the group
# elements (translations by z^k with k >= 4 on the psi side, k >= 2 on
# the Theta side); out-of-band coefficients are partial sums of
# divergent series and keep changing as the construction weight grows.
_TRUST_BANDS = {
    "KW": (0, 0),
    "BGW": (0, 0),
    "HodgeZ": (12, 3),
    "ThetaZ": (2, 1),
    "tau_qp": (12, 3),
    "tau_theta_qp": (2, 1),
}


def trust_band(kind: str) -> tuple[int, int]:
    """Band parameters (a, b) such that hbar-graded coefficients with
    a*e <= W + b*v are exact for a series of the given kind."""
    return _TRUST_BANDS[kind]


# ---------------------------------------------------------------------------
# Intersection-number recursions
# ---------------------------------------------------------------------------


def _sub_multisets(items: tuple):
    """Yield (submultiset, count-of-labelled-choices, complement), each in decreasing order."""
    groups = sorted(Counter(items).items(), reverse=True)
    for takes in itertools.product(*(range(c + 1) for _, c in groups)):
        sub, comp, ways = [], [], 1
        for (v, c), take in zip(groups, takes):
            sub += [v] * take
            comp += [v] * (c - take)
            ways *= math.comb(c, take)
        yield tuple(sub), ways, tuple(comp)


def _constraint_sums(correlator, genus, g: int, args: tuple, k: int) -> Fraction:
    """The correlator (linear + half the quadratic sum) / (2 a_0 + 1)!! of the
    constraint that removes the largest insertion a_0 = args[0]; the shift k
    moves each other insertion to a_j + k and splits k - 1 into two new ones.
    No correlator that vanishes by its genus or dimension is asked for, so
    none reaches the cache: the genus g - 1 term only when g >= 1, and
    each split of the quadratic sum at the one genus g_1 that
    `genus(sum, n)` gives its n insertions of that sum (None if none
    does); the complement then has the dimension of genus g - g_1.
    The terms are summed as integers over one LCM, doubled to halve exactly."""
    rest = args[1:]
    terms = []  # (numerator, denominator) of each nonzero term
    for j, aj in enumerate(rest):
        c = correlator(g, tuple(sorted(rest[:j] + (aj + k,) + rest[j + 1 :], reverse=True)))
        if c:
            ratio = double_factorial(2 * aj + 2 * k + 1) // double_factorial(2 * aj - 1)
            terms.append((2 * ratio * c.numerator, c.denominator))
    splits = list(_sub_multisets(rest))
    for i in range(0, k):
        j = k - 1 - i
        fac = double_factorial(2 * i + 1) * double_factorial(2 * j + 1)
        c = g and correlator(g - 1, tuple(sorted(rest + (i, j), reverse=True)))
        if c:
            terms.append((fac * c.numerator, c.denominator))
        for s1, ways, s2 in splits:
            g1 = genus(sum(s1) + i, len(s1) + 1)
            if g1 is None or not 0 <= g1 <= g:
                continue
            c1 = correlator(g1, tuple(sorted(s1 + (i,), reverse=True)))
            c2 = c1 and correlator(g - g1, tuple(sorted(s2 + (j,), reverse=True)))
            if c2:
                terms.append((fac * ways * c1.numerator * c2.numerator, c1.denominator * c2.denominator))
    L = math.lcm(*{d for _, d in terms})
    return Fraction(sum(n * (L // d) for n, d in terms), 2 * L * double_factorial(2 * args[0] + 1))


def _psi_genus(total: int, n: int) -> int | None:
    """The genus g with total = 3g - 3 + n, the psi-class dimension."""
    g, r = divmod(total + 3 - n, 3)
    return None if r else g


def _theta_genus(total: int, n: int) -> int:
    """The genus g with total = g - 1, the Theta-class dimension."""
    return total + 1


@lru_cache(maxsize=None)
def psi_correlator(g: int, args: tuple) -> Fraction:
    """<tau_{a_1} ... tau_{a_n}>_g, the psi-class intersection numbers.

    Recursion seeded by <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24; unstable
    or dimensionally impossible correlators vanish.
    """
    args = tuple(sorted(args, reverse=True))
    n = len(args)
    if g < 0 or any(a < 0 for a in args):
        return Fraction(0)
    if 2 * g - 2 + n <= 0:
        return Fraction(0)
    if sum(args) != 3 * g - 3 + n:
        return Fraction(0)
    if g == 0 and args == (0, 0, 0):
        return Fraction(1)
    if g == 1 and args == (1,):
        return Fraction(1, 24)
    return _constraint_sums(psi_correlator, _psi_genus, g, args, args[0] - 1)


@lru_cache(maxsize=None)
def theta_correlator(g: int, args: tuple) -> Fraction:
    """<Theta tau_{a_1} ... tau_{a_n}>_g, the Theta-class intersection numbers.

    Dimension forces sum(a_i) = g - 1.  The recursion removes the
    largest insertion through the corresponding constraint, seeded by
    the one-point genus-one value <Theta tau_0>_1 = 1/8.
    """
    args = tuple(sorted(args, reverse=True))
    n = len(args)
    if g < 1 or any(a < 0 for a in args):
        return Fraction(0)
    if 2 * g - 2 + n <= 0:
        return Fraction(0)
    if sum(args) != g - 1:
        return Fraction(0)
    if g == 1 and args == (0,):
        return Fraction(1, 8)
    return _constraint_sums(theta_correlator, _theta_genus, g, args, args[0])


def _kw_self_check(g: int, args: tuple):
    """String and dilaton consistency of the generated numbers."""
    if 0 in args and 2 * g - 2 + len(args) - 1 > 0:
        rest = list(args)
        rest.remove(0)
        expect = sum(
            psi_correlator(g, tuple(sorted(rest[:j] + [aj - 1] + rest[j + 1 :], reverse=True)))
            for j, aj in enumerate(rest)
            if aj >= 1
        )
        if psi_correlator(g, args) != expect:
            raise InvariantViolation(f"string equation failed at g={g}, {args}")
    if 1 in args and args != (1,) and 2 * g - 2 + len(args) - 1 > 0:
        rest = list(args)
        rest.remove(1)
        expect = (2 * g - 2 + len(rest)) * psi_correlator(g, tuple(rest))
        if psi_correlator(g, args) != expect:
            raise InvariantViolation(f"dilaton equation failed at g={g}, {args}")


# ---------------------------------------------------------------------------
# Tau-function assembly
# ---------------------------------------------------------------------------


@dataclass
class TauSeries:
    """A truncated tau-function or partition function with provenance."""

    body: TPoly
    kind: str
    provenance: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {"provenance": {"kind": self.kind, **self.provenance}, "terms": self.body.to_json_obj()}


def tp_exp(F: TPoly) -> TPoly:
    """exp of a polynomial without constant term (finite by weight truncation).

    On integers: with F = N/d, the powers u_n = N^n are weight-sorted
    lists that `mul_into` extends by one factor N each, and
    exp(F) = sum_n u_n / (n!·d^n) is summed over one denominator.
    """
    if () in F.num:
        raise ValueError("exp needs a polynomial with zero constant term")
    kind, W = F.kind, F.max_weight
    f = weight_sorted(kind, F.num)
    iterates = [[(0, (), ((0, 1),))]]
    while True:
        u = mul_sorted(kind, iterates[-1], f, W)
        if not u:
            break
        iterates.append(u)
    N = len(iterates) - 1
    acc: dict = {}
    for u, weight in zip(iterates, exp_weights(N, F.den)):
        for _, mono, cs in u:
            slot = acc.setdefault(mono, {})
            for e, c in cs:
                slot[e] = slot.get(e, 0) + c * weight
    return TPoly._normal(kind, W, acc, math.factorial(N) * F.den**N)


def _partitions_into(total: int, parts: int, cap: int):
    """Nonincreasing tuples of `parts` nonnegative integers at most `cap`
    with the given sum.  A module-level recursion: a nested one would
    reference itself through its closure and form a reference cycle."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, cap), -1, -1):
        if first * parts < total:
            break
        for rest in _partitions_into(total - first, parts - 1, first):
            yield (first,) + rest


def _assemble_tau(W: int, correlator, dimension, self_check=None) -> TPoly:
    """Sum hbar^(2g-2+n) <...> prod t / automorphisms over all strata
    with t-weight at most W, then exponentiate."""
    terms = {}
    g = 0
    while True:
        emitted_for_g = False
        for n in range(1, W + 1):
            D = dimension(g, n)
            if D is None or D < 0:
                continue
            weight = 2 * D + n  # t-weight of any such monomial
            if weight > W:
                continue
            emitted_for_g = True
            for alpha in _partitions_into(D, n, D):
                c = correlator(g, alpha)
                if not c:
                    continue
                if self_check is not None:
                    self_check(g, alpha)
                mult: dict[int, int] = {}
                for a in alpha:
                    mult[a] = mult.get(a, 0) + 1
                coeff = c
                for a, e in mult.items():
                    coeff *= Fraction(double_factorial(2 * a + 1)) ** e
                    coeff /= math.factorial(e)
                mono = tuple(sorted((2 * a + 1, e) for a, e in mult.items()))
                terms[mono] = HbarPoly.hbar(2 * g - 2 + n, coeff)
        if not emitted_for_g and dimension(g, 1) is not None and 2 * dimension(g, 1) + 1 > W:
            break
        if g > W:
            break
        g += 1
    return tp_exp(TPoly(T_SIDE, W, terms))


def kw_tau(W: int) -> TauSeries:
    """The psi-class tau-function, truncated at t-weight W, odd variables only.

    Every monomial of weight w carries hbar^(w/3); the leading data are
    (1/6) hbar t_1^3 and (1/8) hbar t_3.
    """
    if W < 3:
        raise ValueError("the psi-class tau-function needs W >= 3")
    body = _assemble_tau(
        W,
        psi_correlator,
        lambda g, n: 3 * g - 3 + n if 3 * g - 3 + n >= 0 and 2 * g - 2 + n > 0 else None,
        self_check=_kw_self_check,
    )
    return TauSeries(body, "KW", {"W": W, "variables": "odd t"})


def bgw_tau(W: int) -> TauSeries:
    """The Theta-class tau-function, truncated at t-weight W.

    Every monomial of weight w carries hbar^w; the leading datum is
    (1/8) hbar t_1.
    """
    if W < 1:
        raise ValueError("the Theta-class tau-function needs W >= 1")
    body = _assemble_tau(
        W,
        theta_correlator,
        lambda g, n: g - 1 if g >= 1 and 2 * g - 2 + n > 0 else None,
    )
    return TauSeries(body, "BGW", {"W": W, "variables": "odd t"})


# ---------------------------------------------------------------------------
# Derived partition functions
# ---------------------------------------------------------------------------


def _derived(body: TPoly, kind: str, params: CurveParams, W: int, pipeline: str) -> TauSeries:
    provenance = {
        "q": rat_str(params.q),
        "p": rat_str(params.p),
        "s": rat_str(params.s),
        "W": W,
        "pipeline": pipeline,
    }
    return TauSeries(body, kind, provenance)


def hodge_partition(params: CurveParams, W: int, mode: str = "standard") -> TauSeries:
    """Quantized group action on the base tau-function, in T-variables.

    Computed by BOTH the termwise exponential and the factorized form;
    the two must agree exactly (any difference aborts).
    """
    point = PointArtifacts(params)
    return _quantized_action(point.curve(W + 1), W, mode, point.base(mode, W))


def _quantized_action(curve: CurveSeries, W: int, mode: str, base: TauSeries) -> TauSeries:
    big = odd_t_to_big_t(base.body)
    direct, fact = (route(big) for route in givental_routes(curve, W, mode))
    if direct != fact:
        raise InvariantViolation(
            f"pipeline disagreement in the quantized action ({mode}); diff = {(direct - fact)!r}"
        )
    kind = "HodgeZ" if mode == "standard" else "ThetaZ"
    return _derived(direct, kind, curve.params, W, "direct+factorized")


@dataclass
class TauIdentityReport:
    """Outcome of building one tau-function by the two independent routes."""

    params: CurveParams
    W: int
    equal: bool
    tau: TauSeries
    difference: TPoly | None = None

    def to_json_obj(self) -> dict:
        return {
            "point": self.params.label(),
            "weight": self.W,
            "status": "pass" if self.equal else "fail",
            "difference": repr(self.difference) if self.difference is not None else None,
        }


def _tau_identity(
    params: CurveParams, W: int, mode: str, curve: CurveSeries, base: TauSeries, forms: list
) -> TauIdentityReport:
    """Build one side's tau-function by the substitution route, through
    the point's `tqp_forms` at W, and by the symmetry-group route from the
    side's base tau-function; `mode` picks the side as in
    `hodge_partition`."""
    lhs = tqp_substitute(forms)(_quantized_action(curve, W, mode, base).body)
    rhs = rl_transform_virasoro(curve, W, mode)(base.body)
    equal = lhs == rhs
    kind = "tau_qp" if mode == "standard" else "tau_theta_qp"
    tau = _derived(lhs, kind, params, W, "substitution+group")
    return TauIdentityReport(params, W, equal, tau, None if equal else lhs - rhs)


def _once(table: dict, key, build):
    if key not in table:
        table[key] = build()
    return table[key]


class PointArtifacts:
    """The objects that the checks at one parameter point read, each built
    once: one curve, the t-side forms of each W, the tau identity of each
    (side, W), and the base tau-function of each (side, W), which does not
    depend on the point, so the memos of one run share one `bases` dict."""

    def __init__(self, params: CurveParams, bases: dict | None = None):
        self.params = params
        self.bases = {} if bases is None else bases
        self.identities: dict = {}
        self.tqp: dict = {}
        self._curve: CurveSeries | None = None

    def curve(self, order: int) -> CurveSeries:
        """The point's curve, of order at least `order` and at least the
        smallest order a curve can be built to.  A longer request builds
        the curve to its order, and that curve replaces the old one;
        every reader reads the prefix it needs."""
        K = max(order, MIN_SERIES_ORDER)
        if self._curve is None or self._curve.K < K:
            self._curve = build_curve(self.params, K)
        return self._curve

    def forms(self, W: int) -> list[TPoly]:
        """The point's t-side forms of T_0..T_M at weight cap W, with
        M = (W - 1) // 2 (`tqp_forms`); a reader of fewer forms reads a
        prefix."""
        return _once(self.tqp, W, lambda: tqp_forms(self.params, (W - 1) // 2, W))

    def base(self, mode: str, W: int) -> TauSeries:
        """The base tau-function of a side: KW for "standard", BGW for "theta"."""
        if mode not in ("standard", "theta"):
            raise ValueError(f"unknown mode {mode!r}")
        build = kw_tau if mode == "standard" else bgw_tau
        return _once(self.bases, (mode, W), lambda: build(W))

    def identity(self, mode: str, W: int) -> TauIdentityReport:
        # the group route reads f to order W + 1 and the translation
        # vector to index W
        return _once(
            self.identities,
            (mode, W),
            lambda: _tau_identity(self.params, W, mode, self.curve(W + 1), self.base(mode, W), self.forms(W)),
        )


def tau_qp_check(params: CurveParams, W: int) -> TauIdentityReport:
    """Triple Hodge tau-function: substitution route versus symmetry-group route.

    Route one pushes the quantized action through the linear change of
    variables; route two applies exp(sum a_k L_k) to the base
    tau-function and translates by the hbar^{-1}-weighted vector.  The
    two must agree exactly; the result is returned for KP testing.
    """
    return PointArtifacts(params).identity("standard", W)


def tau_qp_theta_check(params: CurveParams, W: int) -> TauIdentityReport:
    """Theta-version of the tau-function identity, with the order-zero
    dilaton shift and the f-y translation vector."""
    return PointArtifacts(params).identity("theta", W)
