"""Exact arithmetic substrate.

Rationals, Laurent polynomials in the formal parameter hbar, truncated
univariate series and weight-truncated sparse multivariate polynomials.
Every operation is exact (no floats anywhere) and pure; values are
treated as immutable after construction.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Mapping, Sequence

__all__ = [
    "Fraction",
    "InvariantViolation",
    "rat",
    "rat_str",
    "double_factorial",
    "HbarPoly",
    "ZSeries",
    "TPoly",
]


class InvariantViolation(Exception):
    """An internal consistency check failed (bug or inconsistent pipeline)."""


def rat(value) -> Fraction:
    """Coerce ints, Fractions and strings like "3/4" or "-2" to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rat_str(x: Fraction) -> str:
    """Serialize a rational as "a/b", or "a" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def double_factorial(n: int) -> int:
    """Odd double factorial n!! for odd n >= -1, with (-1)!! == 1."""
    if n < -1 or n % 2 == 0:
        raise ValueError(f"double_factorial defined here for odd n >= -1, got {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


# ---------------------------------------------------------------------------
# Laurent polynomials in hbar
# ---------------------------------------------------------------------------


class HbarPoly:
    """Laurent polynomial in the formal parameter hbar with Fraction coefficients.

    hbar is formally invertible: exponents may be negative.  No zero
    coefficients are stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Fraction] | None = None):
        clean = {}
        if terms:
            for e, c in terms.items():
                c = rat(c)
                if c:
                    clean[int(e)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls) -> "HbarPoly":
        return cls({0: Fraction(1)})

    @classmethod
    def const(cls, c) -> "HbarPoly":
        return cls({0: rat(c)})

    @classmethod
    def hbar(cls, exponent: int = 1, coeff=1) -> "HbarPoly":
        return cls({exponent: rat(coeff)})

    @staticmethod
    def promote(value) -> "HbarPoly":
        if isinstance(value, HbarPoly):
            return value
        return HbarPoly.const(rat(value))

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exponent: int) -> Fraction:
        return self.terms.get(exponent, Fraction(0))

    def exponents(self):
        return sorted(self.terms)

    def at(self, value: Fraction) -> Fraction:
        """Evaluate at hbar = value exactly."""
        value = rat(value)
        if value == 0:
            if any(e < 0 for e in self.terms):
                raise ZeroDivisionError("hbar=0 with negative hbar-exponents present")
            return self.terms.get(0, Fraction(0))
        return sum((c * value**e for e, c in self.terms.items()), Fraction(0))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "HbarPoly":
        other = HbarPoly.promote(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = HbarPoly()
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "HbarPoly":
        res = HbarPoly()
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other) -> "HbarPoly":
        return self + (-HbarPoly.promote(other))

    def __rsub__(self, other) -> "HbarPoly":
        return HbarPoly.promote(other) + (-self)

    def __mul__(self, other) -> "HbarPoly":
        other = HbarPoly.promote(other)
        out: dict[int, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        res = HbarPoly()
        res.terms = out
        return res

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, (HbarPoly, int, Fraction)):
            return NotImplemented
        return self.terms == HbarPoly.promote(other).terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            c = rat_str(self.terms[e])
            if e == 0:
                bits.append(c)
            elif e == 1:
                bits.append(f"{c}*h")
            else:
                bits.append(f"{c}*h^{e}")
        return " + ".join(bits)

    def to_json_obj(self) -> dict:
        return {f"h^{e}": rat_str(c) for e, c in sorted(self.terms.items())}


# ---------------------------------------------------------------------------
# Truncated univariate series
# ---------------------------------------------------------------------------


def _ratio(value) -> tuple[int, int]:
    """(numerator, denominator) of an int or an exact rational; an int or
    a Fraction is read without building a new Fraction."""
    if isinstance(value, int):
        return value, 1
    value = rat(value)
    return value.numerator, value.denominator


def _lowest_terms(num: list, den: int) -> tuple[list, int]:
    """The integers num over the nonzero den, divided by their common
    factor, with den > 0."""
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = [c // g for c in num]
        den //= g
    return num, den


def _convolve(a: list, b: list, n: int) -> list:
    """The first n coefficients of the product of two integer coefficient
    lists (index = exponent)."""
    out = [0] * n
    b = b[:n]
    for i, x in enumerate(a[:n]):
        if x:
            m = min(len(b), n - i)
            out[i : i + m] = [o + x * y for o, y in zip(out[i : i + m], b)]
    return out


def _recurrence(w: list, div: list) -> tuple[list, int]:
    """The rationals b_0 = 1 and b_k = sum_{j=1..k} w_j b_(k-j) / div_k for
    k < len(w), for integers w_j and nonzero integers div_k, as integer
    numerators over one denominator.

    The denominator is brought to lowest terms at each step, so it is
    the LCM of the denominators of b_0..b_k.  As b_k depends only on
    w_1..w_k, its size follows the first k inputs; one denominator for
    the whole input, such as a_0^(k+1) for a reciprocal, would carry
    the factors of every input coefficient into every b_k.
    """
    b, d = [1], 1
    for k in range(1, len(w)):
        s = sum(map(operator.mul, w[1 : k + 1], reversed(b)))
        q = div[k] * d
        g = math.gcd(s, q)
        if q < 0:
            g = -g
        s, q = s // g, q // g
        lcm = d // math.gcd(d, q) * q
        if lcm != d:
            r = lcm // d
            b = [x * r for x in b]
            d = lcm
        b.append(s * (d // q))
    return b, d


def _valuation(num: list) -> int:
    """The index of the first nonzero entry of num; len(num) if there is
    none."""
    for i, c in enumerate(num):
        if c:
            return i
    return len(num)


class ZSeries:
    """Truncated formal power series in z with exact rational coefficients.

    Coefficients are known exactly for exponents 0..order; the order is
    tracked explicitly and never inferred.  A stored zero is a known
    zero, so the valuation (the exponent of the first nonzero
    coefficient) is read from the coefficients.

    The value is sum_i num[i] z^i / den on integers: `num` lists the
    numerators of z^0..z^order and den > 0 has no common factor with all
    of them (den == 1 for the zero series), so the form is unique.
    Every operation runs on the integers and ends in `_normal`, which
    restores this form.  A `Fraction` is built only where a coefficient
    is read: `coeff`, `coeff_or_zero` and `repr`.
    """

    __slots__ = ("num", "den", "order")

    def __init__(self, coeffs: Sequence, order: int):
        """`coeffs` are the coefficients of z^0..z^order, as ints or exact
        rationals."""
        if order < 0:
            raise ValueError("order below z^0")
        if len(coeffs) != order + 1:
            raise ValueError("coefficient list does not match the claimed order")
        pairs = [_ratio(c) for c in coeffs]
        den = math.lcm(*[d for _, d in pairs])
        self.num, self.den = _lowest_terms([n * (den // d) for n, d in pairs], den)
        self.order = order

    @classmethod
    def _normal(cls, num: list, order: int, den: int) -> "ZSeries":
        """The series sum_i num[i] z^i / den, for integers num and a
        nonzero integer den, in normal form."""
        res = cls.__new__(cls)
        res.num, res.den = _lowest_terms(num, den)
        res.order = order
        return res

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "ZSeries":
        return cls._normal([0] * (order + 1), order, 1)

    @classmethod
    def one(cls, order: int) -> "ZSeries":
        return cls._normal([1] + [0] * order, order, 1)

    @classmethod
    def z(cls, order: int) -> "ZSeries":
        num = [0] * (order + 1)
        if order >= 1:
            num[1] = 1
        return cls._normal(num, order, 1)

    @classmethod
    def from_terms(cls, terms: Mapping[int, object], order: int) -> "ZSeries":
        c = [0] * (order + 1)
        for e, v in terms.items():
            if e < 0:
                raise ValueError(f"term z^{e} below z^0 in a power series")
            if e <= order:
                c[e] = v
        return cls(c, order)

    # -- queries ------------------------------------------------------------

    def numerator(self, exponent: int) -> int:
        """The integer numerator, over `den`, of the coefficient of
        z^exponent; 0 outside 0..order."""
        if exponent < 0 or exponent > self.order:
            return 0
        return self.num[exponent]

    def coeff(self, exponent: int) -> Fraction:
        if exponent > self.order:
            raise ValueError(f"coefficient of z^{exponent} beyond trusted order {self.order}")
        return self.coeff_or_zero(exponent)

    def coeff_or_zero(self, exponent: int) -> Fraction:
        return Fraction(self.numerator(exponent), self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other) -> bool:
        """Equal orders and coefficients; the normal form is unique, so
        the numerators and denominators agree as they stand."""
        if not isinstance(other, ZSeries):
            return NotImplemented
        return self.order == other.order and self.den == other.den and self.num == other.num

    def __repr__(self) -> str:
        bits = []
        for e in range(self.order + 1):
            c = self.coeff(e)
            if c:
                bits.append(f"{rat_str(c)}*z^{e}" if e else rat_str(c))
        body = " + ".join(bits) if bits else "0"
        return f"<{body} + O(z^{self.order + 1})>"

    # -- structural helpers -------------------------------------------------

    def truncate(self, order: int) -> "ZSeries":
        if order >= self.order:
            return self
        if order < 0:
            raise ValueError("truncation below z^0")
        return ZSeries._normal(self.num[: order + 1], order, self.den)

    def shift(self, k: int) -> "ZSeries":
        """Multiply by z**k.  For k < 0 the coefficients of z^0..z^(-k-1)
        must be zero, and at least one coefficient must remain."""
        if k >= 0:
            return ZSeries._normal([0] * k + self.num, self.order + k, self.den)
        if self.order + k < 0 or any(self.num[:-k]):
            raise ValueError(f"z^{k} times the series leaves a term below z^0")
        return ZSeries._normal(self.num[-k:], self.order + k, self.den)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "ZSeries":
        """The sum on integers, over the LCM of the two denominators."""
        if not isinstance(other, ZSeries):
            other = ZSeries.from_terms({0: other}, self.order)
        den = math.lcm(self.den, other.den)
        ka, kb = den // self.den, den // other.den
        out = [x * ka + y * kb for x, y in zip(self.num, other.num)]
        return ZSeries._normal(out, min(self.order, other.order), den)

    __radd__ = __add__

    def __neg__(self) -> "ZSeries":
        return ZSeries._normal([-c for c in self.num], self.order, self.den)

    def __sub__(self, other) -> "ZSeries":
        if not isinstance(other, ZSeries):
            other = ZSeries.from_terms({0: other}, self.order)
        return self + (-other)

    def __rsub__(self, other) -> "ZSeries":
        return (-self) + other

    def scale(self, c) -> "ZSeries":
        n, d = _ratio(c)
        return ZSeries._normal([n * x for x in self.num], self.order, self.den * d)

    def __mul__(self, other) -> "ZSeries":
        """The product: the integer convolution of the numerators over the
        product of the denominators.

        A factor known to order n with valuation v is z^v (unit) + O(z^(n+1)),
        so the product is known to order min(n_a + v_b, n_b + v_a).
        """
        if not isinstance(other, ZSeries):
            return self.scale(other)
        order = min(self.order + _valuation(other.num), other.order + _valuation(self.num))
        out = _convolve(self.num, other.num, order + 1)
        return ZSeries._normal(out, order, self.den * other.den)

    def __rmul__(self, other) -> "ZSeries":
        return self.scale(other)

    def recip(self) -> "ZSeries":
        """Multiplicative inverse of a unit (nonzero constant term).

        With a = den·self on the integers, 1/self = den/a and a_0/a has
        the coefficients b_0 = 1, b_k = -sum_{j<=k} a_j b_(k-j) / a_0
        (see `_recurrence`).
        """
        a = self.num
        if a[0] == 0:
            raise ValueError("not a unit")
        b, d = _recurrence([-x for x in a], [a[0]] * (self.order + 1))
        return ZSeries._normal([x * self.den for x in b], self.order, d * a[0])

    # -- composition and reversion ------------------------------------------

    def compose(self, inner: "ZSeries") -> "ZSeries":
        """Substitute inner(z) for z; inner must have zero constant term.

        Horner's rule on the numerators: with inner = X/d and the
        numerators s_j of self, acc <- acc·X/d + s_j from j = n down to
        0, each step over its own denominator in lowest terms (a cut-off
        product shares a large factor with d^k, and carrying it would
        grow the integers with every step).
        """
        if inner.num[0] != 0:
            raise ValueError("inner series must have zero constant term")
        order = min(self.order, inner.order)
        X = inner.num[: order + 1]
        acc, den = [self.num[order]] + [0] * order, 1
        for j in range(order - 1, -1, -1):
            den *= inner.den
            acc = _convolve(acc, X, order + 1)
            acc[0] += self.num[j] * den
            acc, den = _lowest_terms(acc, den)
        return ZSeries._normal(acc, order, self.den * den)

    def reversion(self) -> "ZSeries":
        """Compositional inverse h of a series f = z + O(z^2).

        Lagrange inversion: [z^m] h = [z^(m-1)] g^m / m with g = z/f,
        so one reciprocal and a running product of g give every
        coefficient.  Each power is kept in lowest terms, for the reason
        given in `compose`.
        """
        if self.num[0] != 0 or self.numerator(1) != self.den:
            raise ValueError("reversion needs a series of the form z + O(z^2)")
        n = self.order
        g = self.shift(-1).recip()  # z/f, trusted to order n - 1
        power = ZSeries.one(g.order)
        b = [(0, 1)]
        for m in range(1, n + 1):
            power = power * g
            b.append((power.numerator(m - 1), m * power.den))
        den = math.lcm(*[d for _, d in b])
        return ZSeries._normal([c * (den // d) for c, d in b], n, den)

    # -- transcendental -----------------------------------------------------

    def log1p(self) -> "ZSeries":
        """log(1 + a) for a with zero constant term."""
        if self.num[0] != 0:
            raise ValueError("log1p needs a series with zero constant term")
        one_plus = self + ZSeries.one(self.order)
        # d/dz log(1+a) = a' / (1+a); integrate back (constant term 0).
        da = self.derivative()
        return (da * one_plus.recip()).truncate(self.order - 1).antiderivative().truncate(self.order)

    def expm(self) -> "ZSeries":
        """exp(a) for a with zero constant term.

        With a = A/d on the integers, E = exp(a) has E_0 = 1 and
        E_m = sum_{j<=m} j·A_j·E_(m-j) / (m·d) (see `_recurrence`).
        """
        if self.num[0] != 0:
            raise ValueError("expm needs a series with zero constant term")
        n = self.order
        w = [j * c for j, c in enumerate(self.num)]
        b, d = _recurrence(w, [m * self.den for m in range(n + 1)])
        return ZSeries._normal(b, n, d)

    def unit_pow(self, e) -> "ZSeries":
        """u**e for a unit u with u(0) == 1 and any rational exponent e."""
        if self.num[0] != self.den:
            raise ValueError("unit_pow needs constant term 1")
        u = self - ZSeries.one(self.order)
        return u.log1p().scale(e).expm()

    def sqrt_normalized(self) -> "ZSeries":
        """For input z^2*(1 + O(z)) return the branch z + O(z^2) of the square root."""
        if self.order < 2 or self.num[0] != 0 or self.num[1] != 0 or self.num[2] != self.den:
            raise ValueError("input must be of the form z^2*(1 + O(z))")
        u = self.shift(-2)  # 1 + O(z), order reduced by 2
        return u.unit_pow(_HALF).shift(1)

    # -- calculus -----------------------------------------------------------

    def derivative(self) -> "ZSeries":
        if self.order < 1:
            raise ValueError("derivative needs a series trusted at least to order 1")
        out = [i * self.num[i] for i in range(1, self.order + 1)]
        return ZSeries._normal(out, self.order - 1, self.den)

    def antiderivative(self) -> "ZSeries":
        """Termwise integral z^k -> z^(k+1)/(k+1), integration constant 0,
        over one LCM of the divisors."""
        L = math.lcm(*range(1, self.order + 2))
        out = [0] + [c * (L // (i + 1)) for i, c in enumerate(self.num)]
        return ZSeries._normal(out, self.order + 1, self.den * L)

    def subs_neg(self) -> "ZSeries":
        """Substitute z -> -z."""
        return ZSeries._normal([-c if i % 2 else c for i, c in enumerate(self.num)], self.order, self.den)


_HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Weight-truncated sparse multivariate polynomials
# ---------------------------------------------------------------------------

# A monomial is a sorted tuple of (variable index, exponent) pairs.
Mono = tuple

T_SIDE = "t"  # variables t_1..t_W, weight(t_k) = k
BIG_T_SIDE = "T"  # variables T_0..T_M, weight(T_m) = 2m + 1


def var_weight(kind: str, index: int) -> int:
    if kind == T_SIDE:
        if index < 1:
            raise ValueError(f"t-side variable index must be >= 1, got {index}")
        return index
    if kind == BIG_T_SIDE:
        if index < 0:
            raise ValueError(f"T-side variable index must be >= 0, got {index}")
        return 2 * index + 1
    raise ValueError(f"unknown variable kind {kind!r}")


def mono_weight(kind: str, mono: Mono) -> int:
    return sum(var_weight(kind, v) * e for v, e in mono)


def weight_monomials(kind: str, W: int, *, odd_only: bool = False) -> list[Mono]:
    """All monomials of weight <= W, sorted by (weight, monomial)."""
    if kind == T_SIDE:
        vars_ = [v for v in range(1, W + 1) if not (odd_only and v % 2 == 0)]
    else:
        vars_ = list(range(0, (W - 1) // 2 + 1)) if W >= 1 else []
    out: list[Mono] = []
    _extend_monomials(kind, W, vars_, 0, [], 0, out)
    return sorted(set(out), key=lambda m: (mono_weight(kind, m), m))


def _extend_monomials(kind: str, W: int, vars_: list, pos: int, current: list, weight: int, out: list):
    """Append to `out` the monomial `current` and each extension of it by
    vars_[pos:] of weight <= W.  A module-level recursion: a nested one
    would reference itself through its closure and form a reference
    cycle."""
    out.append(tuple(current))
    for i in range(pos, len(vars_)):
        v = vars_[i]
        wv = var_weight(kind, v)
        if weight + wv > W:
            continue
        if current and current[-1][0] == v:
            current[-1] = (v, current[-1][1] + 1)
            _extend_monomials(kind, W, vars_, i, current, weight + wv, out)
            current[-1] = (v, current[-1][1] - 1)
        else:
            current.append((v, 1))
            _extend_monomials(kind, W, vars_, i, current, weight + wv, out)
            current.pop()


def mono_mul(m1: Mono, m2: Mono) -> Mono:
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def mono_lower(mono: Mono, i: int) -> Mono:
    """The monomial with the exponent at position i lowered by one."""
    v, e = mono[i]
    if e > 1:
        return mono[:i] + ((v, e - 1),) + mono[i + 1 :]
    return mono[:i] + mono[i + 1 :]


def mono_str(kind: str, mono: Mono) -> str:
    if not mono:
        return "1"
    return " ".join(f"{kind}{v}" + (f"^{e}" if e > 1 else "") for v, e in mono)


def _canonical(mono) -> Mono:
    """A monomial given as (variable, exponent) pairs, as a `Mono`: repeated
    variables merged, zero exponents dropped, negative ones rejected."""
    exps: dict[int, int] = {}
    for v, e in mono:
        v, e = int(v), int(e)
        if e < 0:
            raise ValueError(f"negative exponent {e} of variable {v}")
        if e:
            exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def mul_into(a: list, b: list, cap: int, k: int, out: dict) -> None:
    """The integer product kernel: add k·(a·b), cut at weight `cap`, to `out`.

    `a` and `b` are lists of (weight, monomial, ((hbar exponent, int), ...))
    sorted by weight, as `weight_sorted` gives them; `out` maps each
    monomial to {hbar exponent: int}.  Coefficients that cancel stay in
    `out` as zeros, for the caller to drop when it reads them.
    """
    if not b:
        return
    wb0 = b[0][0]
    for wa, ma, ca in a:
        if wa + wb0 > cap:
            break
        ca = tuple((e, c * k) for e, c in ca) if k != 1 else ca
        for wb, mb, cb in b:
            if wa + wb > cap:
                break
            mono = mono_mul(ma, mb) if ma and mb else ma or mb
            slot = out.get(mono)
            if slot is None:
                slot = out[mono] = {}
            for e1, c1 in ca:
                for e2, c2 in cb:
                    e = e1 + e2
                    s = slot.get(e)
                    slot[e] = c1 * c2 if s is None else s + c1 * c2


def weight_sorted(kind: str, num: Mapping[Mono, Mapping[int, int]]) -> list:
    """Integer terms {monomial: {hbar exponent: int}} as the lists that
    `mul_into` reads, sorted by weight, with the zeros dropped."""
    return sorted(
        (mono_weight(kind, m), m, cs)
        for m, slot in num.items()
        if (cs := tuple((e, c) for e, c in slot.items() if c))
    )


def mul_sorted(kind: str, a: list, b: list, cap: int) -> list:
    """a·b cut at weight `cap`, for weight-sorted lists a and b, as a
    weight-sorted list."""
    out: dict[Mono, dict[int, int]] = {}
    mul_into(a, b, cap, 1, out)
    return weight_sorted(kind, out)


def exp_weights(N: int, D: int) -> list[int]:
    """The integers w_n = N!/n! · D^(N-n) for n = 0..N, which put a sum of
    u_n / (n!·D^n) over one denominator: sum_n w_n·u_n / (N!·D^N)."""
    weights = [1] * (N + 1)
    for n in range(N, 0, -1):
        weights[n - 1] = weights[n] * n * D
    return weights


def same_value(a: Mapping, da: int, b: Mapping, db: int) -> bool:
    """Whether a / da == b / db, for integer terms {monomial: {hbar
    exponent: int}} (zeros allowed) over nonzero denominators, in lowest
    terms or not: each numerator of one side times the other side's
    denominator, over the union of the two supports."""
    for mono, slot in a.items():
        other = b.get(mono, {})
        for e, c in slot.items():
            if c * db != other.get(e, 0) * da:
                return False
    for mono, slot in b.items():
        other = a.get(mono, {})
        for e, c in slot.items():
            if c and e not in other:
                return False
    return True


def _reduce(acc: Mapping[Mono, Mapping[int, int]], den: int) -> tuple[dict, int]:
    """(num, den) of acc / den in the normal form of `TPoly`."""
    num = {}
    g = den
    for mono, slot in acc.items():
        if not all(slot.values()):
            slot = {e: c for e, c in slot.items() if c}
        if not slot:
            continue
        num[mono] = slot
        if g != 1:
            g = math.gcd(g, *slot.values())
    if not num:
        return num, 1
    if den < 0:
        g = -g
    if g != 1:
        num = {m: {e: c // g for e, c in slot.items()} for m, slot in num.items()}
        den //= g
    return num, den


def _substitute_numerators(num: Mapping, den: int, images: Mapping, kind: str, W: int) -> tuple[dict, int]:
    """The body of `TPoly.substitute` on integers: num / den with each
    variable v replaced by its `kind`-side image N_v / d_v (the `num` and
    `den` of images[v]), cut at weight W, as (acc, den') of value
    acc / den' in no lowest terms (num maps monomials to {hbar exponent:
    int}, zeros allowed).  With E_v the top exponent of v in num, each
    monomial's product of image powers is taken by `mul_into` from one
    table of the powers N_v^e, and lands, times prod_v d_v^(E_v - e_v),
    in one sum over den·prod_v d_v^E_v."""
    top: dict[int, int] = {}
    for mono in num:
        for v, e in mono:
            top[v] = max(top.get(v, 0), e)
    powers: dict[tuple[int, int], list] = {}
    for v, E in top.items():
        p = powers[v, 1] = weight_sorted(kind, images[v].num)
        for e in range(2, E + 1):
            p = powers[v, e] = mul_sorted(kind, p, powers[v, 1], W)
    acc: dict[Mono, dict[int, int]] = {}
    for mono, slot in num.items():
        exps = dict(mono)
        k = math.prod(images[v].den ** (E - exps.get(v, 0)) for v, E in top.items())
        factors = [powers[v, e] for v, e in mono] or [[(0, (), ((0, 1),))]]
        term = [(0, (), tuple(slot.items()))]
        for f in factors[:-1]:
            term = mul_sorted(kind, term, f, W)
        mul_into(term, factors[-1], W, k, acc)
    return acc, den * math.prod(images[v].den ** E for v, E in top.items())


class TPoly:
    """Weight-truncated sparse polynomial with coefficients Laurent in hbar.

    kind selects the variable family: "t" (t_1, t_2, ... with
    weight(t_k) = k) or "T" (T_0, T_1, ... with weight(T_m) = 2m+1).
    Monomials of total weight above max_weight are discarded by every
    operation; the two families never mix inside one value.

    The value is num / den on integers: `num` maps each monomial to
    {hbar exponent: int}, with no zero numerator and no empty map, and
    den > 0 has no common factor with all the numerators.  So den is the
    LCM of the reduced coefficient denominators, the form is unique and
    equality is structural.  Every operation ends in `_normal`, which
    restores this form.  A `Fraction` is built only where a coefficient
    is read: `coeff`, `constant_term`, `terms`, `repr` and the JSON form.
    """

    __slots__ = ("kind", "max_weight", "num", "den")

    def __init__(self, kind: str, max_weight: int, terms: Mapping[Mono, object] | None = None):
        """`terms` maps monomials, as (variable, exponent) pairs, to
        HbarPoly, Fraction or int coefficients."""
        if kind not in (T_SIDE, BIG_T_SIDE):
            raise ValueError(f"unknown variable kind {kind!r}")
        acc: dict[Mono, dict[int, Fraction]] = {}
        for mono, c in (terms or {}).items():
            mono = _canonical(mono)
            if mono_weight(kind, mono) > max_weight:
                continue
            slot = acc.setdefault(mono, {})
            for e, x in HbarPoly.promote(c).terms.items():
                slot[e] = slot.get(e, 0) + x
        den = math.lcm(*[x.denominator for slot in acc.values() for x in slot.values()])
        self.kind = kind
        self.max_weight = max_weight
        num = {
            m: {e: x.numerator * (den // x.denominator) for e, x in slot.items()}
            for m, slot in acc.items()
        }
        self.num, self.den = _reduce(num, den)

    @classmethod
    def _normal(cls, kind: str, max_weight: int, acc: Mapping, den: int) -> "TPoly":
        """The polynomial acc / den, acc mapping monomials to {hbar exponent:
        int} (zeros allowed) and den a nonzero int, in normal form."""
        res = cls.__new__(cls)
        res.kind = kind
        res.max_weight = max_weight
        res.num, res.den = _reduce(acc, den)
        return res

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, kind: str, max_weight: int) -> "TPoly":
        return cls(kind, max_weight)

    @classmethod
    def one(cls, kind: str, max_weight: int) -> "TPoly":
        return cls(kind, max_weight, {(): HbarPoly.one()})

    @classmethod
    def constant(cls, value, kind: str, max_weight: int) -> "TPoly":
        return cls(kind, max_weight, {(): HbarPoly.promote(value)})

    @classmethod
    def variable(cls, kind: str, index: int, max_weight: int, coeff=1) -> "TPoly":
        return cls(kind, max_weight, {((index, 1),): HbarPoly.promote(coeff)})

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def _read(self, slot: Mapping[int, int]) -> HbarPoly:
        h = HbarPoly()
        h.terms = {e: Fraction(c, self.den) for e, c in slot.items()}
        return h

    @property
    def terms(self) -> dict[Mono, HbarPoly]:
        """The coefficients as a new {monomial: HbarPoly} map, read-only."""
        return {m: self._read(slot) for m, slot in self.num.items()}

    def coeff(self, mono) -> HbarPoly:
        return self._read(self.num.get(_canonical(mono), {}))

    def constant_term(self) -> HbarPoly:
        return self._read(self.num.get((), {}))

    def variables(self) -> set:
        return {v for mono in self.num for v, _ in mono}

    def is_linear(self) -> bool:
        """Degree <= 1 in the variables (an affine-linear combination)."""
        return all(sum(e for _, e in mono) <= 1 for mono in self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.kind == other.kind and self.den == other.den and self.num == other.num

    def __repr__(self) -> str:
        if not self.num:
            return "0"
        return " + ".join(f"({c!r})*{mono_str(self.kind, mono)}" for mono, c in self.sorted_terms())

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "TPoly"):
        if self.kind != other.kind:
            raise ValueError("mixed variable kinds (t-side vs T-side)")
        if self.max_weight != other.max_weight:
            raise ValueError("mismatched weight truncations")

    def __add__(self, other) -> "TPoly":
        """The sum on integers, over the LCM of the two denominators."""
        if not isinstance(other, TPoly):
            other = TPoly.constant(other, self.kind, self.max_weight)
        self._check_compatible(other)
        den = math.lcm(self.den, other.den)
        ka, kb = den // self.den, den // other.den
        if ka == 1:
            out = dict(self.num)
        else:
            out = {m: {e: c * ka for e, c in s.items()} for m, s in self.num.items()}
        for mono, s in other.num.items():
            prev = out.get(mono)
            if prev is None:
                out[mono] = s if kb == 1 else {e: c * kb for e, c in s.items()}
            else:
                slot = dict(prev)
                for e, c in s.items():
                    slot[e] = slot.get(e, 0) + c * kb
                out[mono] = slot
        return TPoly._normal(self.kind, self.max_weight, out, den)

    __radd__ = __add__

    def __neg__(self) -> "TPoly":
        out = {m: {e: -c for e, c in s.items()} for m, s in self.num.items()}
        return TPoly._normal(self.kind, self.max_weight, out, self.den)

    def __sub__(self, other) -> "TPoly":
        if not isinstance(other, TPoly):
            other = TPoly.constant(other, self.kind, self.max_weight)
        return self + (-other)

    def __mul__(self, other) -> "TPoly":
        """The product, on integers: each operand sorted by weight, the
        numerators multiplied by `mul_into`, over the product of the
        denominators.  A factor that is not a TPoly is a constant
        (HbarPoly, Fraction or int)."""
        if not isinstance(other, TPoly):
            other = TPoly.constant(other, self.kind, self.max_weight)
        self._check_compatible(other)
        out: dict[Mono, dict[int, int]] = {}
        a, b = weight_sorted(self.kind, self.num), weight_sorted(other.kind, other.num)
        mul_into(a, b, self.max_weight, 1, out)
        return TPoly._normal(self.kind, self.max_weight, out, self.den * other.den)

    __rmul__ = __mul__
    scale = __mul__

    # -- structure maps -----------------------------------------------------

    def diff(self, var: int) -> "TPoly":
        """Partial derivative with respect to the given variable index."""
        out = {}
        for mono, slot in self.num.items():
            for i, (v, e) in enumerate(mono):
                if v == var:
                    out[mono_lower(mono, i)] = {h: c * e for h, c in slot.items()}
                    break
        return TPoly._normal(self.kind, self.max_weight, out, self.den)

    def mul_var(self, var: int, coeff=1) -> "TPoly":
        """Multiply by coeff * (variable var), truncating at max_weight."""
        return self * TPoly.variable(self.kind, var, self.max_weight, coeff)

    def substitute(self, images: Mapping[int, "TPoly"]) -> "TPoly":
        """Ring-homomorphism substitution: replace every variable by its image.

        Every variable occurring in the polynomial must have an image; all
        images must share one kind and weight cap.  Truncation applies.
        The sum runs on integers, in `_substitute_numerators`."""
        occurring = self.variables()
        if missing := occurring - set(images):
            raise ValueError(f"missing substitution image for variables {sorted(missing)}")
        shapes = {(images[v].kind, images[v].max_weight) for v in occurring}
        if len(shapes) > 1:
            raise ValueError("substitution images must agree in kind and weight cap")
        kind, W = shapes.pop() if shapes else (self.kind, self.max_weight)
        return TPoly._normal(kind, W, *_substitute_numerators(self.num, self.den, images, kind, W))

    # -- serialization ------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Mono, HbarPoly]]:
        """(monomial, coefficient) pairs sorted by (weight, monomial)."""
        monos = sorted(self.num, key=lambda m: (mono_weight(self.kind, m), m))
        return [(m, self._read(self.num[m])) for m in monos]

    def to_json_obj(self) -> list:
        out = []
        for mono, c in self.sorted_terms():
            out.append(
                {
                    "monomial": {f"{self.kind}{v}": e for v, e in mono},
                    "coeff": c.to_json_obj(),
                }
            )
        return out
