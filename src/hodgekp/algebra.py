"""Exact arithmetic substrate.

Rationals, Laurent polynomials in the formal parameter hbar, truncated
univariate series and weight-truncated sparse multivariate polynomials.
Every operation is exact (no floats anywhere) and pure; values are
treated as immutable after construction.
"""

from __future__ import annotations

import math
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
    def zero(cls) -> "HbarPoly":
        return cls()

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


class ZSeries:
    """Truncated formal series in z with exact rational coefficients.

    Coefficients are known exactly for exponents lowest..order; the
    order is tracked explicitly and never inferred.  Most series here
    are plain power series (lowest == 0); a negative lowest gives a
    Laurent tail for intermediate work.
    """

    __slots__ = ("coeffs", "order", "lowest")

    def __init__(self, coeffs: Sequence, order: int, lowest: int = 0):
        coeffs = [rat(c) for c in coeffs]
        if order < lowest:
            raise ValueError("order below lowest exponent")
        if len(coeffs) != order - lowest + 1:
            raise ValueError("coefficient list does not match the claimed order")
        self.coeffs = coeffs
        self.order = order
        self.lowest = lowest

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "ZSeries":
        return cls([Fraction(0)] * (order + 1), order)

    @classmethod
    def one(cls, order: int) -> "ZSeries":
        c = [Fraction(0)] * (order + 1)
        c[0] = Fraction(1)
        return cls(c, order)

    @classmethod
    def z(cls, order: int) -> "ZSeries":
        c = [Fraction(0)] * (order + 1)
        if order >= 1:
            c[1] = Fraction(1)
        return cls(c, order)

    @classmethod
    def from_terms(cls, terms: Mapping[int, object], order: int) -> "ZSeries":
        lo = min([0] + [e for e in terms])
        c = [Fraction(0)] * (order - lo + 1)
        for e, v in terms.items():
            if e > order:
                continue
            c[e - lo] = rat(v)
        return cls(c, order, lo)

    # -- queries ------------------------------------------------------------

    def coeff(self, exponent: int) -> Fraction:
        if exponent > self.order:
            raise ValueError(f"coefficient of z^{exponent} beyond trusted order {self.order}")
        if exponent < self.lowest:
            return Fraction(0)
        return self.coeffs[exponent - self.lowest]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZSeries):
            return NotImplemented
        if self.order != other.order:
            return False
        lo = min(self.lowest, other.lowest)
        return all(
            self.coeff(e) == other.coeff(e) for e in range(lo, self.order + 1)
        )

    def __repr__(self) -> str:
        bits = []
        for e in range(self.lowest, self.order + 1):
            c = self.coeff(e)
            if c:
                bits.append(f"{rat_str(c)}*z^{e}" if e else rat_str(c))
        body = " + ".join(bits) if bits else "0"
        return f"<{body} + O(z^{self.order + 1})>"

    # -- structural helpers -------------------------------------------------

    def truncate(self, order: int) -> "ZSeries":
        if order >= self.order:
            return self
        if order < self.lowest:
            raise ValueError("truncation below lowest exponent")
        return ZSeries(self.coeffs[: order - self.lowest + 1], order, self.lowest)

    def shift(self, k: int) -> "ZSeries":
        """Multiply by z**k (k may be negative)."""
        return ZSeries(self.coeffs, self.order + k, self.lowest + k)

    def strip_lowest(self) -> "ZSeries":
        """Drop known-zero leading coefficients below exponent 0."""
        s = self
        while s.lowest < 0 and s.coeffs and s.coeffs[0] == 0:
            s = ZSeries(s.coeffs[1:], s.order, s.lowest + 1)
        return s

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "ZSeries":
        if not isinstance(other, ZSeries):
            other = ZSeries.from_terms({0: rat(other)}, self.order)
        order = min(self.order, other.order)
        lo = min(self.lowest, other.lowest)
        return ZSeries(
            [self.coeff_or_zero(e) + other.coeff_or_zero(e) for e in range(lo, order + 1)],
            order,
            lo,
        )

    def coeff_or_zero(self, exponent: int) -> Fraction:
        if exponent < self.lowest or exponent > self.order:
            return Fraction(0)
        return self.coeffs[exponent - self.lowest]

    __radd__ = __add__

    def __neg__(self) -> "ZSeries":
        return ZSeries([-c for c in self.coeffs], self.order, self.lowest)

    def __sub__(self, other) -> "ZSeries":
        if not isinstance(other, ZSeries):
            other = ZSeries.from_terms({0: rat(other)}, self.order)
        return self + (-other)

    def __rsub__(self, other) -> "ZSeries":
        return (-self) + other

    def scale(self, c) -> "ZSeries":
        c = rat(c)
        return ZSeries([c * x for x in self.coeffs], self.order, self.lowest)

    def __mul__(self, other) -> "ZSeries":
        if not isinstance(other, ZSeries):
            return self.scale(other)
        lo = self.lowest + other.lowest
        order = min(self.order + other.lowest, other.order + self.lowest)
        out = [Fraction(0)] * (order - lo + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            ea = self.lowest + i
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                e = ea + other.lowest + j
                if e > order:
                    break
                out[e - lo] += a * b
        return ZSeries(out, order, lo)

    def __rmul__(self, other) -> "ZSeries":
        return self.scale(other)

    def recip(self) -> "ZSeries":
        """Multiplicative inverse of a unit (nonzero constant term)."""
        if self.lowest > 0 or self.coeff_or_zero(0) == 0:
            raise ValueError("not a unit")
        if any(self.coeff_or_zero(e) for e in range(self.lowest, 0)):
            raise ValueError("not a unit")
        n = self.order
        a = [self.coeff_or_zero(e) for e in range(0, n + 1)]
        inv0 = 1 / a[0]
        out = [Fraction(0)] * (n + 1)
        out[0] = inv0
        for k in range(1, n + 1):
            s = sum(a[j] * out[k - j] for j in range(1, k + 1))
            out[k] = -inv0 * s
        return ZSeries(out, n)

    # -- composition and reversion ------------------------------------------

    def compose(self, inner: "ZSeries") -> "ZSeries":
        """Substitute inner(z) for z; inner must have zero constant term."""
        if self.lowest < 0:
            raise ValueError("composition needs a power-series outer factor")
        if inner.lowest < 0 or inner.coeff_or_zero(0) != 0:
            raise ValueError("inner series must have zero constant term")
        order = min(self.order, inner.order)
        inner_t = inner.truncate(order)
        acc = ZSeries.from_terms({0: self.coeff_or_zero(0)}, order)
        power = ZSeries.one(order)
        for j in range(1, order + 1):
            power = (power * inner_t).truncate(order)
            cj = self.coeff_or_zero(j)
            if cj:
                acc = acc + power.scale(cj)
        return acc

    def reversion(self) -> "ZSeries":
        """Compositional inverse h of a series f = z + O(z^2).

        Lagrange inversion: [z^m] h = [z^(m-1)] g^m / m with g = z/f,
        so one reciprocal and a running product of g give every
        coefficient.
        """
        if self.lowest < 0 or self.coeff_or_zero(0) != 0 or self.coeff_or_zero(1) != 1:
            raise ValueError("reversion needs a series of the form z + O(z^2)")
        n = self.order
        g = self.shift(-1).strip_lowest().recip()  # z/f, trusted to order n - 1
        b = [Fraction(0)] * (n + 1)
        power = ZSeries.one(g.order)
        for m in range(1, n + 1):
            power = power * g
            b[m] = power.coeff(m - 1) / m
        return ZSeries(b, n)

    # -- transcendental -----------------------------------------------------

    def log1p(self) -> "ZSeries":
        """log(1 + a) for a with zero constant term."""
        if self.lowest < 0 or self.coeff_or_zero(0) != 0:
            raise ValueError("log1p needs a series with zero constant term")
        one_plus = self + ZSeries.one(self.order)
        # d/dz log(1+a) = a' / (1+a); integrate back (constant term 0).
        da = self.derivative()
        return (da * one_plus.recip()).truncate(self.order - 1).antiderivative().truncate(self.order)

    def expm(self) -> "ZSeries":
        """exp(a) for a with zero constant term."""
        if self.lowest < 0 or self.coeff_or_zero(0) != 0:
            raise ValueError("expm needs a series with zero constant term")
        n = self.order
        a = [self.coeff_or_zero(e) for e in range(0, n + 1)]
        out = [Fraction(0)] * (n + 1)
        out[0] = Fraction(1)
        for m in range(1, n + 1):
            s = Fraction(0)
            for j in range(1, m + 1):
                if a[j]:
                    s += j * a[j] * out[m - j]
            out[m] = s / m
        return ZSeries(out, n)

    def unit_pow(self, e) -> "ZSeries":
        """u**e for a unit u with u(0) == 1 and any rational exponent e."""
        if self.coeff_or_zero(0) != 1 or self.lowest < 0:
            raise ValueError("unit_pow needs constant term 1")
        u = self - ZSeries.one(self.order)
        return u.log1p().scale(rat(e)).expm()

    def sqrt_normalized(self) -> "ZSeries":
        """For input z^2*(1 + O(z)) return the branch z + O(z^2) of the square root."""
        if self.lowest < 0 or self.coeff_or_zero(0) != 0 or self.coeff_or_zero(1) != 0:
            raise ValueError("input must be of the form z^2*(1 + O(z))")
        if self.order < 2 or self.coeff_or_zero(2) != 1:
            raise ValueError("input must be of the form z^2*(1 + O(z))")
        u = self.shift(-2).strip_lowest()  # 1 + O(z), order reduced by 2
        return u.unit_pow(Fraction(1, 2)).shift(1)

    # -- calculus -----------------------------------------------------------

    def derivative(self) -> "ZSeries":
        if self.order < 1:
            raise ValueError("derivative needs a series trusted at least to order 1")
        terms = {
            e - 1: e * self.coeff_or_zero(e)
            for e in range(self.lowest, self.order + 1)
            if e != 0 and self.coeff_or_zero(e)
        }
        return ZSeries.from_terms(terms, self.order - 1)

    def antiderivative(self) -> "ZSeries":
        """Termwise integral z^k -> z^(k+1)/(k+1), integration constant 0."""
        if self.lowest < 0:
            raise ValueError("antiderivative needs lowest exponent >= 0")
        terms = {
            e + 1: self.coeff_or_zero(e) / (e + 1)
            for e in range(self.lowest, self.order + 1)
            if self.coeff_or_zero(e)
        }
        return ZSeries.from_terms(terms, self.order + 1)

    def subs_neg(self) -> "ZSeries":
        """Substitute z -> -z."""
        return ZSeries(
            [c if (self.lowest + i) % 2 == 0 else -c for i, c in enumerate(self.coeffs)],
            self.order,
            self.lowest,
        )


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


def mono_mul(m1: Mono, m2: Mono) -> Mono:
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def mono_str(kind: str, mono: Mono) -> str:
    if not mono:
        return "1"
    return " ".join(f"{kind}{v}" + (f"^{e}" if e > 1 else "") for v, e in mono)


def mul_into(a: list, b: list, cap: int, k: int, out: dict) -> None:
    """The integer product kernel: add k·(a·b), cut at weight `cap`, to `out`.

    `a` and `b` are lists of (weight, monomial, ((hbar exponent, int), ...))
    sorted by weight, as `TPoly.integer_terms` gives them; `out` maps
    each monomial to {hbar exponent: int}.  Coefficients that cancel stay
    in `out` as zeros, for the caller to drop when it reads them.
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


class TPoly:
    """Weight-truncated sparse polynomial with HbarPoly coefficients.

    kind selects the variable family: "t" (t_1, t_2, ... with
    weight(t_k) = k) or "T" (T_0, T_1, ... with weight(T_m) = 2m+1).
    Monomials of total weight above max_weight are discarded by every
    operation; the two families never mix inside one value.
    """

    __slots__ = ("kind", "max_weight", "terms")

    def __init__(self, kind: str, max_weight: int, terms: Mapping[Mono, object] | None = None):
        if kind not in (T_SIDE, BIG_T_SIDE):
            raise ValueError(f"unknown variable kind {kind!r}")
        self.kind = kind
        self.max_weight = max_weight
        clean: dict[Mono, HbarPoly] = {}
        if terms:
            for mono, c in terms.items():
                c = HbarPoly.promote(c)
                if c.is_zero():
                    continue
                mono = tuple(sorted((int(v), int(e)) for v, e in mono if e))
                if mono_weight(kind, mono) > max_weight:
                    continue
                if mono in clean:
                    s = clean[mono] + c
                    if s.is_zero():
                        del clean[mono]
                    else:
                        clean[mono] = s
                else:
                    clean[mono] = c
        self.terms = clean

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
        return not self.terms

    def coeff(self, mono: Mono) -> HbarPoly:
        mono = tuple(sorted((v, e) for v, e in mono if e))
        return self.terms.get(mono, HbarPoly.zero())

    def constant_term(self) -> HbarPoly:
        return self.terms.get((), HbarPoly.zero())

    def variables(self) -> set:
        out = set()
        for mono in self.terms:
            for v, _ in mono:
                out.add(v)
        return out

    def degree(self) -> int:
        return max((sum(e for _, e in mono) for mono in self.terms), default=0)

    def is_linear(self) -> bool:
        """Degree <= 1 in the variables (an affine-linear combination)."""
        return self.degree() <= 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, TPoly):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (mono_weight(self.kind, m), m)):
            bits.append(f"({self.terms[mono]!r})*{mono_str(self.kind, mono)}")
        return " + ".join(bits)

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "TPoly"):
        if self.kind != other.kind:
            raise ValueError("mixed variable kinds (t-side vs T-side)")
        if self.max_weight != other.max_weight:
            raise ValueError("mismatched weight truncations")

    def __add__(self, other) -> "TPoly":
        if not isinstance(other, TPoly):
            other = TPoly.constant(other, self.kind, self.max_weight)
        self._check_compatible(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = s
        res = TPoly(self.kind, self.max_weight)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "TPoly":
        res = TPoly(self.kind, self.max_weight)
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other) -> "TPoly":
        if not isinstance(other, TPoly):
            other = TPoly.constant(other, self.kind, self.max_weight)
        return self + (-other)

    def scale(self, c) -> "TPoly":
        c = HbarPoly.promote(c)
        if c.is_zero():
            return TPoly.zero(self.kind, self.max_weight)
        res = TPoly(self.kind, self.max_weight)
        res.terms = {m: v * c for m, v in self.terms.items()}
        return res

    def __mul__(self, other) -> "TPoly":
        """The product, on integers: each factor is cleared by the LCM of its
        denominators, the integer kernel `mul_into` multiplies, and each
        nonzero coefficient becomes one `Fraction` over d_a·d_b."""
        if not isinstance(other, TPoly):
            return self.scale(other)
        self._check_compatible(other)
        W = self.max_weight
        da, a = self.integer_terms()
        db, b = other.integer_terms()
        out: dict[Mono, dict[int, int]] = {}
        mul_into(a, b, W, 1, out)
        return TPoly.from_integer_terms(self.kind, W, out, da * db)

    def cleared_terms(self) -> tuple[int, list]:
        """(d, terms of d·self): d the LCM of the coefficient denominators,
        the terms pairs (monomial, ((e, int), ...)) in the order of `terms`."""
        d = math.lcm(*[c.denominator for h in self.terms.values() for c in h.terms.values()])
        return d, [
            (m, tuple([(e, c.numerator * (d // c.denominator)) for e, c in h.terms.items()]))
            for m, h in self.terms.items()
        ]

    def integer_terms(self) -> tuple[int, list]:
        """`cleared_terms` as the kernel's lists (weight, monomial,
        ((e, int), ...)), sorted by (weight, monomial)."""
        d, items = self.cleared_terms()
        return d, sorted((mono_weight(self.kind, m), m, cs) for m, cs in items)

    @classmethod
    def from_integer_terms(cls, kind: str, max_weight: int, acc: Mapping, den: int) -> "TPoly":
        """The polynomial acc / den, acc mapping monomials to {e: int}; one
        reduced `Fraction` per nonzero coefficient, zeros dropped."""
        terms: dict[Mono, HbarPoly] = {}
        for mono, slot in acc.items():
            clean = {e: Fraction(c, den) for e, c in slot.items() if c}
            if clean:
                h = HbarPoly()
                h.terms = clean
                terms[mono] = h
        res = cls(kind, max_weight)
        res.terms = terms
        return res

    def __rmul__(self, other) -> "TPoly":
        return self.scale(other)

    # -- structure maps -----------------------------------------------------

    def diff(self, var: int) -> "TPoly":
        """Partial derivative with respect to the given variable index."""
        out: dict[Mono, HbarPoly] = {}
        for mono, c in self.terms.items():
            d = dict(mono)
            e = d.get(var)
            if not e:
                continue
            if e == 1:
                del d[var]
            else:
                d[var] = e - 1
            key = tuple(sorted(d.items()))
            s = out.get(key)
            add = c * Fraction(e)
            s = add if s is None else s + add
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        res = TPoly(self.kind, self.max_weight)
        res.terms = out
        return res

    def mul_var(self, var: int, coeff=1) -> "TPoly":
        """Multiply by coeff * (variable var), truncating at max_weight."""
        w = var_weight(self.kind, var)
        coeff = HbarPoly.promote(coeff)
        out: dict[Mono, HbarPoly] = {}
        for mono, c in self.terms.items():
            if mono_weight(self.kind, mono) + w > self.max_weight:
                continue
            key = mono_mul(mono, ((var, 1),))
            s = out.get(key)
            add = c * coeff
            s = add if s is None else s + add
            if not s.is_zero():
                out[key] = s
            else:
                out.pop(key, None)
        res = TPoly(self.kind, self.max_weight)
        res.terms = out
        return res

    def substitute(self, images: Mapping[int, "TPoly"]) -> "TPoly":
        """Ring-homomorphism substitution: replace every variable by its image.

        Every variable occurring in the polynomial must have an image; all
        images must share one kind and weight cap.  Truncation applies.
        """
        occurring = self.variables()
        missing = occurring - set(images)
        if missing:
            raise ValueError(f"missing substitution image for variables {sorted(missing)}")
        if occurring:
            some = images[next(iter(occurring))]
            kind, W = some.kind, some.max_weight
            for v in occurring:
                if images[v].kind != kind or images[v].max_weight != W:
                    raise ValueError("substitution images must agree in kind and weight cap")
        else:
            kind, W = self.kind, self.max_weight
        power_cache: dict[tuple[int, int], TPoly] = {}

        def power(v: int, e: int) -> TPoly:
            key = (v, e)
            got = power_cache.get(key)
            if got is None:
                if e == 1:
                    got = images[v]
                else:
                    got = power(v, e - 1) * images[v]
                power_cache[key] = got
            return got

        acc = TPoly.zero(kind, W)
        for mono, c in self.terms.items():
            term = TPoly.constant(c, kind, W)
            for v, e in mono:
                term = term * power(v, e)
                if term.is_zero():
                    break
            acc = acc + term
        return acc

    def map_coeffs(self, fn) -> "TPoly":
        out: dict[Mono, HbarPoly] = {}
        for mono, c in self.terms.items():
            nc = fn(c)
            if not nc.is_zero():
                out[mono] = nc
        res = TPoly(self.kind, self.max_weight)
        res.terms = out
        return res

    def with_max_weight(self, W: int) -> "TPoly":
        """Same polynomial viewed with a different weight cap (truncating)."""
        return TPoly(self.kind, W, self.terms)

    # -- serialization ------------------------------------------------------

    def sorted_terms(self):
        return sorted(
            self.terms.items(), key=lambda kv: (mono_weight(self.kind, kv[0]), kv[0])
        )

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
