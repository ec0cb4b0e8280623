"""Per-parameter-point series data.

For a point (q, p) with a chosen exact square root s of p+q this module
builds the plane curve x(z), its normalized uniformizer f with inverse
h, the auxiliary y, the Bernoulli-weighted symplectic series R, the
Grunsky and quadratic-form matrices, the Witt-flow coefficients and the
translation vectors of the dilaton shifts.  Everything is exact; contour
integrals are replaced throughout by the formal Gaussian-moment rule.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    InvariantViolation,
    ZSeries,
    double_factorial,
    rat,
    rat_str,
)

__all__ = [
    "CurveParams",
    "CurveSeries",
    "GrunskyMatrix",
    "GiventalMatrix",
    "ShiftData",
    "CATALOG",
    "bernoulli",
    "build_curve",
    "x_closed_form",
    "r_series",
    "log_r_series",
    "gaussian_moments",
    "i_series",
    "grunsky_matrix",
    "givental_v_matrix",
    "witt_coefficients",
    "witt_flow",
    "shift_data",
    "identification_residual",
    "perturbed_control_curve",
]


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

_BERNOULLI_CACHE: list[Fraction] = [Fraction(1)]


def _bernoulli_raw(n: int) -> Fraction:
    """B_n with the B_1 = -1/2 convention (even values are convention-free)."""
    while len(_BERNOULLI_CACHE) <= n:
        m = len(_BERNOULLI_CACHE)
        s = sum(
            Fraction(math.comb(m + 1, j)) * _BERNOULLI_CACHE[j] for j in range(m)
        )
        _BERNOULLI_CACHE.append(-s / (m + 1))
    return _BERNOULLI_CACHE[n]


def bernoulli(k: int) -> Fraction:
    """Exact Bernoulli number B_k for even k >= 2 (B_2 = 1/6, B_4 = -1/30).

    Normalization matches the generating function x*e^x/(e^x - 1)
    = 1 + x/2 + sum B_{2k} x^{2k}/(2k)!.
    """
    if k <= 0 or k % 2:
        raise ValueError(f"bernoulli defined for even k >= 2, got {k}")
    return _bernoulli_raw(k)


# ---------------------------------------------------------------------------
# Parameter points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveParams:
    """A parameter point (q, p) together with an exact square root s of p+q."""

    q: Fraction
    p: Fraction
    s: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", rat(self.q))
        object.__setattr__(self, "p", rat(self.p))
        object.__setattr__(self, "s", rat(self.s))
        if self.p + self.q == 0:
            raise ValueError("excluded parameter locus: p + q = 0")
        if self.s == 0 or self.s * self.s != self.p + self.q:
            raise ValueError("s must be a nonzero exact square root of p + q")

    def label(self) -> str:
        return f"q={rat_str(self.q)},p={rat_str(self.p)},s={rat_str(self.s)}"

    @property
    def n1(self) -> Fraction:
        """Linear coefficient of the denominator (1+s*z)(1+q*z/s)."""
        return self.s + self.q / self.s

    @property
    def n2(self) -> Fraction:
        return self.q


CATALOG: tuple[CurveParams, ...] = (
    CurveParams(Fraction(1), Fraction(3), Fraction(2)),
    CurveParams(Fraction(-1), Fraction(2), Fraction(1)),
    CurveParams(Fraction(0), Fraction(4), Fraction(2)),
    CurveParams(Fraction(4), Fraction(0), Fraction(2)),
    CurveParams(Fraction(3), Fraction(1), Fraction(2)),
)


# ---------------------------------------------------------------------------
# Series attached to a point
# ---------------------------------------------------------------------------


@dataclass
class CurveSeries:
    """All univariate series data of one parameter point, truncated at order K.

    For the in-family builder the fields satisfy (up to the stated
    orders): f = z + O(z^2), h = reversion(f), f^2/2 = x, N*x' = z,
    R(z)R(-z) = 1 and I(z) = R(-z).  params is None for the synthetic
    out-of-family control pipeline.
    """

    params: CurveParams | None
    K: int
    x: ZSeries
    f: ZSeries
    h: ZSeries
    y: ZSeries
    N: ZSeries
    R: ZSeries
    logR: ZSeries
    I: ZSeries
    _witt: list = field(default_factory=list, init=False, repr=False, compare=False)
    _shifts: ShiftData | None = field(default=None, init=False, repr=False, compare=False)
    # operators built from this curve (`operators.group_element`, `givental_routes`)
    _ops: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def witt(self, n: int) -> list[Fraction]:
        """The flow coefficients a_1..a_n of f (see `witt_coefficients`).

        They are computed once per curve; a request no longer than an
        earlier one reads a prefix of its list.
        """
        if n + 1 > self.f.order:
            raise ValueError(f"flow coefficients a_1..a_{n} need f to order {n + 1}")
        if n > len(self._witt):
            self._witt = witt_coefficients(self.f.truncate(n + 1))
        return self._witt[:n]

    def shifts(self) -> ShiftData:
        """The translation vectors of this curve (see `shift_data`),
        computed once per curve."""
        if self._shifts is None:
            self._shifts = shift_data(self)
        return self._shifts


def _denominator_series(params: CurveParams, order: int) -> ZSeries:
    """(1 + s z)(1 + q z / s) as an exact polynomial-series."""
    return ZSeries.from_terms(
        {0: Fraction(1), 1: params.n1, 2: params.n2}, order
    )


def _curve_from_denominator(N_poly: ZSeries, K: int):
    """x, f, h, y, N from the series 1/N-integrals, all to order >= K."""
    work = K + 2
    N_full = N_poly.truncate(work)
    inv_n = N_full.recip()
    x = (ZSeries.z(work) * inv_n).truncate(work).antiderivative()  # z/N integrated
    y = inv_n.antiderivative()  # since dx/z = dz/N
    f = x.scale(2).sqrt_normalized()
    h = f.truncate(K).reversion()
    return (
        x.truncate(K),
        f.truncate(K),
        h.truncate(K),
        y.truncate(K),
        N_full.truncate(K),
    )


# The smallest series order a curve can be built to.
MIN_SERIES_ORDER = 4


def build_curve(params: CurveParams, K: int) -> CurveSeries:
    """Construct all series data for a parameter point, to order K.

    The ratio series I is computed by the Gaussian-moment transform and
    is listed to order (K - 1) // 2.
    """
    if K < MIN_SERIES_ORDER:
        raise ValueError(f"curve construction needs K >= {MIN_SERIES_ORDER}")
    N_poly = _denominator_series(params, K + 2)
    x, f, h, y, N = _curve_from_denominator(N_poly, K)
    logR = log_r_series(params, K)
    R = logR.expm()

    # mutual-consistency checks (pure recomputation, exact)
    if (f * f).truncate(K).scale(Fraction(1, 2)) != x.truncate(K):
        raise InvariantViolation("f^2/2 != x")
    zK = ZSeries.z(K)
    if f.compose(h) != zK or h.compose(f) != zK:
        raise InvariantViolation("f and h are not mutually inverse")
    if (R * R.subs_neg()).truncate(K) != ZSeries.one(K):
        raise InvariantViolation("R violates the symplectic condition")
    if (N * x.derivative()).truncate(K - 1) != ZSeries.z(K - 1):
        raise InvariantViolation("N * x' != z")

    return CurveSeries(params, K, x, f, h, y, N, R, logR, i_series(h))


def x_closed_form(params: CurveParams, K: int) -> ZSeries:
    """Expansion of the logarithmic closed form of x, including the
    degenerate q=0 and p=0 cases."""
    q, p, s = params.q, params.p, params.s
    z = ZSeries.z(K)
    if q != 0 and p != 0:
        t1 = z.scale(q / s).log1p().scale((p + q) / (p * q))
        t2 = z.scale(s).log1p().scale(Fraction(1, p))
        return t1 - t2
    if q == 0:
        return z.scale(1 / s) - z.scale(s).log1p().scale(Fraction(1, p))
    # p == 0, s^2 = q
    t1 = z.scale(s).log1p().scale(Fraction(1, q))
    t2 = (z * (ZSeries.one(K) + z.scale(s)).recip()).truncate(K).scale(1 / s)
    return t1 - t2


def log_r_series(params: CurveParams, K: int) -> ZSeries:
    """The odd series sum_k -B_{2k}/(2k(2k-1)) (p^(2k-1)+q^(2k-1)-(pq/(p+q))^(2k-1)) z^(2k-1)."""
    q, p = params.q, params.p
    w = p * q / (p + q)
    terms = {}
    k = 1
    while 2 * k - 1 <= K:
        m = 2 * k - 1
        c = -bernoulli(2 * k) / (2 * k * m) * (p**m + q**m - w**m)
        if c:
            terms[m] = c
        k += 1
    return ZSeries.from_terms(terms, K)


def r_series(params: CurveParams, K: int) -> ZSeries:
    """R(z) = exp(log_r_series); satisfies R(0)=1 and R(z)R(-z)=1."""
    return log_r_series(params, K).expm()


def gaussian_moments(G: ZSeries) -> ZSeries:
    """Formal Gaussian-moment transform: zeta^(2k) -> (2k-1)!! z^k, odd
    powers -> 0, to the order G.order // 2 that G determines."""
    order = G.order // 2
    return ZSeries._normal(
        [G.numerator(2 * k) * double_factorial(2 * k - 1) for k in range(order + 1)],
        order,
        G.den,
    )


def i_series(h: ZSeries) -> ZSeries:
    """Moment transform of zeta/h(zeta), for the inverse h of a curve's
    f, to the order (h.order - 1) // 2 that h determines; equals R(-z)
    for in-family curves."""
    return gaussian_moments(h.shift(-1).recip())  # zeta/h(zeta)


# ---------------------------------------------------------------------------
# Grunsky coefficients and the quadratic-form matrix of R
# ---------------------------------------------------------------------------


@dataclass
class GrunskyMatrix:
    """Coefficients v_{km} of log((h(e1)-h(e2))/(e1-e2)), 1 <= k,m <= size."""

    size: int
    entries: list  # entries[k-1][m-1]

    def v(self, k: int, m: int) -> Fraction:
        return self.entries[k - 1][m - 1]


def grunsky_matrix(h: ZSeries, size: int) -> GrunskyMatrix:
    """Grunsky coefficients of a normalized series h = z + O(z^2).

    From log(h(z) - h(w)) - log(z - w) = log(h(z)/z)
    - sum_n (h(w)^n h(z)^(-n) - w^n z^(-n)) / n, only the sum carries
    powers of w, so v_km = -sum_{n<=m} [w^m] h^n [z^(k+n)] (z/h)^n / n.
    """
    if h.coeff_or_zero(0) != 0 or h.coeff_or_zero(1) != 1:
        raise ValueError("Grunsky coefficients need h = z + O(z^2)")
    if h.order < 2 * size + 1:
        raise ValueError("insufficient order: need h to order 2*size + 1")
    inv = h.truncate(2 * size + 1).shift(-1).recip()  # z/h
    low = h.truncate(size)
    h_pow = ZSeries.one(size)
    inv_pow = ZSeries.one(2 * size)
    powers = []
    for n in range(1, size + 1):
        h_pow = (h_pow * low).truncate(size)
        inv_pow = (inv_pow * inv).truncate(2 * size)
        powers.append((n, h_pow, inv_pow))
    # the sum on the numerators, over one denominator
    den = math.lcm(*[n * hp.den * ip.den for n, hp, ip in powers])
    entries = [[0] * size for _ in range(size)]
    for n, hp, ip in powers:
        scale = den // (n * hp.den * ip.den)
        for m in range(n, size + 1):
            c = hp.numerator(m) * scale
            if c:
                for k in range(1, size + 1):
                    entries[k - 1][m - 1] -= c * ip.numerator(k + n)
    return GrunskyMatrix(size, [[Fraction(x, den) for x in row] for row in entries])


@dataclass
class GiventalMatrix:
    """Coefficients V_{kl} of (1 - R(-w)R(-z))/(w+z), 0 <= k,l < size."""

    size: int
    entries: list  # entries[k][l]

    def v(self, k: int, l: int) -> Fraction:
        return self.entries[k][l]


def givental_v_matrix(R: ZSeries, size: int, *, require_symplectic: bool = True) -> GiventalMatrix:
    """Expand (1 - R(-w)R(-z))/(w+z) as a bivariate series.

    The division is exact iff R(z)R(-z) = 1 up to the available order;
    a violation raises unless require_symplectic is False, in which
    case the one-sided quotient is returned as a diagnostic.
    """
    if R.coeff_or_zero(0) != 1:
        raise ValueError("R must have constant term 1")
    if R.order < 2 * size:
        raise ValueError("insufficient order: need R to order 2*size")
    top = 2 * size - 1
    # everything below is a numerator over d^2, d the denominator of R
    rb = [R.subs_neg().numerator(e) for e in range(top + 1)]
    d2 = R.den * R.den

    def num(i: int, j: int) -> int:
        base = d2 if i == 0 and j == 0 else 0
        return base - rb[i] * rb[j]

    if require_symplectic and num(0, 0) != 0:
        raise ValueError("R violates symplectic condition")
    # (w+z) * Q = numerator: n_{i,j} = Q_{i-1,j} + Q_{i,j-1}
    Q = [[0] * top for _ in range(top)]
    for d in range(top):
        Q[d][0] = num(d + 1, 0)
        for j in range(1, d + 1):
            i = d - j
            Q[i][j] = num(i + 1, j) - Q[i + 1][j - 1]
        if require_symplectic and num(0, d + 1) != Q[0][d]:
            raise ValueError("R violates symplectic condition")
    entries = [[Fraction(Q[k][l], d2) for l in range(size)] for k in range(size)]
    return GiventalMatrix(size, entries)


# ---------------------------------------------------------------------------
# Witt-flow coefficients
# ---------------------------------------------------------------------------


def witt_flow(a, K: int) -> ZSeries:
    """Apply exp(-sum_k a_k z^(k+1) d/dz) to z, truncated at order K."""
    if K < 2:
        return ZSeries.z(K)
    coeffs = [0] * (K - 1)
    for k, c in enumerate(a, start=1):
        if 2 <= k + 1 <= K:
            coeffs[k - 1] = c
    v = ZSeries([0, 0] + coeffs, K)
    term = ZSeries.z(K)
    acc = term
    n = 1
    while True:
        term = (v * term.derivative()).truncate(K).scale(Fraction(-1, n))
        if term.is_zero():
            break
        acc = acc + term
        n += 1
        if n > K + 2:
            raise InvariantViolation("witt flow failed to terminate")
    return acc


def witt_coefficients(f: ZSeries) -> list[Fraction]:
    """The flow coefficients of f = z + O(z^2): the list a with a[k-1] = a_k
    for 1 <= k <= f.order - 1, such that witt_flow(a, f.order) == f.

    One pass over the orders on the integers: f = sum_n T_n with
    T_n = (-1)^n (v d/dz)^n z / n!, v = sum a_k z^(k+1), T_1 = -v, and
    [z^j] T_n for n >= 2 reads only a_1..a_(j-2), so a_(j-1) is
    sum_(n>=2) [z^j] T_n - f_j.  With a_k = A_k / d, [z^j] T_n is an integer
    t_n[j] = -sum_k A_k (j-k) t_(n-1)[j-k] over n!·d^n, rescaled when d grows.
    """
    if f.coeff_or_zero(0) != 0 or f.coeff_or_zero(1) != 1:
        raise ValueError("flow coefficients need f = z + O(z^2)")
    K = f.order
    A, d = [0] * K, 1
    D = [[0] * (K + 1) for _ in range(K)]  # D[n][i] = i·t_n[i], the numerators of T_n'
    for j in range(2, K + 1):
        s = 0  # sum_(n>=2) t_n[j] over (j-1)!·d^(j-1), by Horner's rule
        for n in range(2, j):
            c = -sum(map(operator.mul, A[1 : j - n + 1], reversed(D[n - 1][n:j])))
            D[n][j] = j * c
            s = s * n * d + c
        scale = math.factorial(j - 1) * d ** (j - 1)
        num, den = s * f.den - f.numerator(j) * scale, scale * f.den  # a_(j-1)
        q = den // math.gcd(num, den)
        if d % q:
            r = q // math.gcd(d, q)
            d *= r
            A = [x * r for x in A]
            D[1:j] = [[x * r**n for x in D[n]] for n in range(1, j)]
        A[j - 1] = num * d // den
        D[1][j] = -j * A[j - 1]
    a = [Fraction(x, d) for x in A[1:K]]
    if witt_flow(a, K) != f:
        raise InvariantViolation("flow reconstruction failed")
    return a


# ---------------------------------------------------------------------------
# Shift and translation data
# ---------------------------------------------------------------------------


@dataclass
class ShiftData:
    """Translation vectors (v, v0) on the Virasoro side: v[k] (k>=4) and
    v0[k] (k>=2), the translations matching the dilaton shifts
    z(1-R(-z)) and 1-R(-z) of the two sides."""

    v: dict
    v0: dict


def shift_data(curve: CurveSeries) -> ShiftData:
    K = curve.K
    fy = curve.f - curve.y
    if fy.coeff_or_zero(1) != 0:
        raise InvariantViolation("f - y must vanish to first order")
    xprime = curve.x.derivative()
    v_series = (fy * xprime).truncate(K - 1).antiderivative()
    for k in range(1, 4):
        if v_series.coeff_or_zero(k) != 0:
            raise InvariantViolation(f"translation coefficient v_{k} expected to vanish")
    return ShiftData(
        {k: c for k in range(4, min(v_series.order, K) + 1) if (c := v_series.coeff_or_zero(k))},
        {k: c for k in range(2, K + 1) if (c := fy.coeff_or_zero(k))},
    )


# ---------------------------------------------------------------------------
# Identification residual and the out-of-family control
# ---------------------------------------------------------------------------


def identification_residual(curve: CurveSeries, size: int, *, require_symplectic: bool = True) -> list:
    """Entries V_{km} - (2k+1)!!(2m+1)!! v_{2k+1,2m+1} for 0 <= k,m < size.

    All-zero exactly when the quadratic parts of the two group actions
    can be identified through the odd-variable embedding.
    """
    if curve.K < 2 * (2 * size + 1):
        raise ValueError("insufficient order: need the curve built to order >= 2*(2*size+1)")
    V = givental_v_matrix(curve.R, size, require_symplectic=require_symplectic)
    G = grunsky_matrix(curve.h, 2 * size - 1)
    out = []
    for k in range(size):
        row = []
        for m in range(size):
            fac = double_factorial(2 * k + 1) * double_factorial(2 * m + 1)
            row.append(V.v(k, m) - fac * G.v(2 * k + 1, 2 * m + 1))
        out.append(row)
    return out


def perturbed_control_curve(K: int, denominator: tuple = (1, Fraction(5, 2), 1, 1, 1)) -> CurveSeries:
    """Out-of-family control curve built from a perturbed denominator.

    f and h are rebuilt from the denominator, whose coefficients of
    z^0, z^1, ... are `denominator` (constant term 1), and R is *defined*
    through the Gaussian-moment transform, so every downstream quantity
    is well defined while the identification is expected to fail as
    soon as the denominator has a term of degree 4.

    The default denominator 1 + (5/2)z + z^2 + z^3 + z^4 carries a
    degree-4 coefficient, which is exactly what the identification
    forbids.  A cubic denominator is still covered by the gauge orbit of
    the two-parameter family, so its residual vanishes identically (exact
    fact, kept as a regression control for the checker itself).
    """
    work = 2 * K
    N_poly = ZSeries.from_terms(dict(enumerate(denominator)), work + 2)
    x, f, h, y, N = _curve_from_denominator(N_poly, work)
    I = i_series(h)  # listed to order (work - 1) // 2 = K - 1
    R = I.subs_neg()  # R(z) := I(-z)
    logR = (R - ZSeries.one(R.order)).log1p()
    return CurveSeries(
        None,
        K,
        x.truncate(K),
        f.truncate(K),
        h.truncate(2 * K),
        y.truncate(K),
        N.truncate(K),
        R.truncate(K),
        logR.truncate(K),
        I.truncate(K),
    )
