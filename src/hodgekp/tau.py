"""Base tau-functions and the derived partition functions.

The psi-class (Kontsevich-Witten) and Theta-class (Brezin-Gross-Witten)
tau-functions are built by cut-and-join: their Virasoro constraints,
summed against the Euler operator, give one linear equation that fixes
tau weight by weight from tau_0 = 1 (Alexandrov 2011 and 2018).  They
are validated downstream by the independent bilinear-identity checker
rather than trusted.  The expansion convention is topological: a term
with genus g and n insertions carries hbar^(2g-2+n).

The psi-class and Theta-class intersection numbers themselves come from
the standard constraint recursions, seeded by the classical base values.
They are an API of their own; no tau-function is built from them.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .algebra import BIG_T_SIDE, HbarPoly, InvariantViolation, Record, TPoly, T_SIDE, double_factorial, rat_str, same_value
from .curve import MIN_SERIES_ORDER, CurveParams, CurveSeries, build_curve
from .operators import (
    LinearOp,
    _difference,
    dilaton_time,
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
    "hodge_partition",
    "TauIdentityReport",
    "PointArtifacts",
    "tau_qp_check",
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


# ---------------------------------------------------------------------------
# Base tau-functions by cut-and-join
# ---------------------------------------------------------------------------


class TauSeries(Record):
    """A truncated tau-function or partition function with provenance."""

    __slots__ = _fields = ("body", "kind", "provenance")

    def __init__(self, body: TPoly, kind: str, provenance: dict | None = None):
        self.body = body
        self.kind = kind
        self.provenance = {} if provenance is None else provenance

    def to_json_obj(self) -> dict:
        return {"provenance": {"kind": self.kind, **self.provenance}, "terms": self.body.to_json_obj()}


def _constraint_mode(n: int, W: int) -> LinearOp:
    """R_n on hbar-stripped series in the odd times up to t_W,
    (1/2) sum_(k odd) k t_k d_(k+2n) + (1/4) sum_(a+b=2n, a, b odd) d_a d_b,
    plus t_1^2/4 at n = -1 and 1/16 at n = 0: the constraint mode L_n of
    dilaton index s without its dilaton term -(1/2) d_(2n+s).  Built from
    its own items, not from the Virasoro operators of the group route
    whose base it is."""
    items = [("md", k, k + 2 * n, Fraction(k, 2)) for k in range(1, W + 1, 2) if 1 <= k + 2 * n <= W]
    items += [("dd", a, 2 * n - a, Fraction(1, 4) if a == n else Fraction(1, 2)) for a in range(1, n + 1, 2)]
    if n == -1:
        items.append(("mm", 1, 1, Fraction(1, 4)))
    if n == 0:
        items.append(("id", Fraction(1, 16)))
    return LinearOp.from_terms(T_SIDE, items)


def _cut_and_join(W: int, s: int) -> TPoly:
    """The base tau-function of dilaton index s (3: psi side, 1: Theta side).

    Its constraints L_n tau = 0, one for each odd time t_k with
    k = 2n + s, summed as sum_k 2k t_k L_n, give E tau = W_hat tau with
    E = sum_k k t_k d_k the Euler operator and
    W_hat = sum_k 2k t_k R_n, the cut-and-join operator.  Every term of
    W_hat raises the weight by s, so from tau_0 = 1 the homogeneous parts
    follow as w tau_w = W_hat tau_(w-s); tau_w carries hbar^(w/s).
    """
    modes = [(k, _constraint_mode((k - s) // 2, W)) for k in range(1, W + 1, 2)]
    piece = body = TPoly.one(T_SIDE, W)
    for w in range(s, W + 1, s):
        step = TPoly.zero(T_SIDE, W)
        for k, R in modes:
            if k <= w:  # else R_n lowers the weight by k - s > w - s, to nothing
                step = step + R.apply(piece).mul_var(k, 2 * k)
        piece = step.scale(Fraction(1, w))
        body = body + piece.scale(HbarPoly.hbar(w // s))
    return body


def kw_tau(W: int) -> TauSeries:
    """The psi-class tau-function, truncated at t-weight W, odd variables only.

    Every monomial of weight w carries hbar^(w/3); the leading data are
    (1/6) hbar t_1^3 and (1/8) hbar t_3.
    """
    if W < 3:
        raise ValueError("the psi-class tau-function needs W >= 3")
    return TauSeries(_cut_and_join(W, 3), "KW", {"W": W, "variables": "odd t"})


def bgw_tau(W: int) -> TauSeries:
    """The Theta-class tau-function, truncated at t-weight W.

    Every monomial of weight w carries hbar^w; the leading datum is
    (1/8) hbar t_1.
    """
    if W < 1:
        raise ValueError("the Theta-class tau-function needs W >= 1")
    return TauSeries(_cut_and_join(W, 1), "BGW", {"W": W, "variables": "odd t"})


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
    """Quantized group action on the base tau-function of the side
    `mode`, in T-variables.

    Computed by BOTH the termwise exponential and the factorized form;
    the two must agree exactly (any difference aborts).
    """
    point = PointArtifacts(params)
    return _quantized_action(point.curve(W + 1), W, mode, point.base(mode, W))


def _quantized_action(curve: CurveSeries, W: int, mode: str, base: TauSeries) -> TauSeries:
    big = odd_t_to_big_t(base.body)
    route, factorized = givental_routes(curve, W, mode)
    direct, (fact,) = route(big), factorized.core([(big.num, big.den)])
    if not same_value(direct.num, direct.den, *fact):
        diff = _difference(BIG_T_SIDE, W, (direct.num, direct.den), fact)
        raise InvariantViolation(f"pipeline disagreement in the quantized action ({mode}); diff = {diff!r}")
    kind = ("ThetaZ", "HodgeZ")[dilaton_time(mode)]
    return _derived(direct, kind, curve.params, W, "direct+factorized")


class TauIdentityReport(Record):
    """Outcome of building one tau-function by the two independent routes."""

    __slots__ = _fields = ("params", "W", "equal", "tau", "difference")

    def __init__(self, params: CurveParams, W: int, equal: bool, tau: TauSeries, difference: TPoly | None = None):
        self.params = params
        self.W = W
        self.equal = equal
        self.tau = tau
        self.difference = difference

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
    (rhs,) = rl_transform_virasoro(curve, W, mode).core([(base.body.num, base.body.den)])
    equal = same_value(lhs.num, lhs.den, *rhs)
    kind = ("tau_theta_qp", "tau_qp")[dilaton_time(mode)]
    tau = _derived(lhs, kind, params, W, "substitution+group")
    return TauIdentityReport(params, W, equal, tau, None if equal else _difference(T_SIDE, W, (lhs.num, lhs.den), rhs))


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
        """The base tau-function of the side `mode`, of dilaton index
        2 sigma + 1: KW for "standard", BGW for "theta"."""
        build = (bgw_tau, kw_tau)[dilaton_time(mode)]
        return _once(self.bases, (mode, W), lambda: build(W))

    def identity(self, mode: str, W: int) -> TauIdentityReport:
        # the group route reads f to order W + 1 and the translation
        # vector to index W
        return _once(
            self.identities,
            (mode, W),
            lambda: _tau_identity(self.params, W, mode, self.curve(W + 1), self.base(mode, W), self.forms(W)),
        )


def tau_qp_check(params: CurveParams, W: int, mode: str = "standard") -> TauIdentityReport:
    """The tau-function of the side `mode`, the triple Hodge one or its
    Theta-version: substitution route versus symmetry-group route.

    Route one pushes the quantized action through the linear change of
    variables; route two applies exp(sum a_k L_k) to the base
    tau-function and translates by the hbar^{-1}-weighted vector.  The
    two must agree exactly; the result is returned for KP testing.
    """
    return PointArtifacts(params).identity(mode, W)
