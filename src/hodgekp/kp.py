"""Exact bilinear-identity verification for truncated tau-functions.

The generating bilinear identity is expanded through elementary Schur
polynomials; every coefficient of an auxiliary y-monomial gives one
bilinear equation in the Hirota symbols, which is evaluated exactly by
the two-copy polynomial shift in binomial form,

    D^gamma tau . tau = sum_{beta <= gamma} (-1)^|gamma - beta|
                        C(gamma, beta) d^beta tau . d^(gamma-beta) tau,

on integers: tau is its integer numerators over one denominator d, the
derivatives of d·tau carry no 1/beta!, every weight C(gamma, beta) is an
integer, and each product goes through one integer kernel,
`_mul_in_band`.  Every check is coefficientwise in hbar inside a band
a*e <= W + b*(v + d): a coefficient product at (weight w1, exponent e1)
times (w2, e2) lands at v = w1 + w2, e = e1 + e2, so it is kept iff the
excesses x = a*e - b*w of its two factors sum to at most W + b*d.
Out-of-band products are never formed, nor the derivatives of a
coefficient that enters none but them, and every in-band coefficient
is the same integer sum as in the full product.  The band (0, 0) keeps
every product: it is the band of the base tau-functions, which carry
one hbar power per monomial, and of the check on an hbar-specialized
series.  A residual coefficient becomes a `Fraction` only where it is
nonzero.  A "pass" always means: every residual coefficient inside the
stated budget vanishes exactly.  Nothing asymptotic is ever claimed.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

from .algebra import (
    InvariantViolation,
    Mono,
    Record,
    TPoly,
    T_SIDE,
    mono_lower,
    mono_mul,
    mono_str,
    mono_weight,
    rat_str,
    weight_monomials,
    weight_sorted,
)

__all__ = [
    "specialize_hbar",
    "HirotaReport",
    "hirota_full_check",
    "hirota_graded_check",
    "kdv_reduction_check",
    "EvenTimeReport",
]


def specialize_hbar(P: TPoly, value) -> TPoly:
    """Evaluate every coefficient at a fixed rational hbar = a/b, exactly.

    On integers: with lo <= 0 <= hi bounding P's hbar exponents,
    hbar^e = a^(e-lo)·b^(hi-e) / (a^-lo·b^hi), both exponents >= 0.
    """
    value = Fraction(value)
    a, b = value.numerator, value.denominator
    exps = {e for slot in P.num.values() for e in slot}
    lo, hi = min(exps | {0}), max(exps | {0})
    if a == 0 and lo < 0:
        raise ZeroDivisionError("hbar=0 with negative hbar-exponents present")
    powers = {e: a ** (e - lo) * b ** (hi - e) for e in exps}
    out = {mono: {0: sum(c * powers[e] for e, c in slot.items())} for mono, slot in P.num.items()}
    return TPoly._normal(P.kind, P.max_weight, out, P.den * a ** (-lo) * b**hi)


# ---------------------------------------------------------------------------
# Hirota machinery
# ---------------------------------------------------------------------------


def _derivatives(tau: TPoly, dmax: int, band: tuple[int, int]) -> tuple[int, dict[Mono, list]]:
    """(d, {gamma: d^gamma (d·tau)}) for the D-multi-indices gamma of weight
    <= dmax, d the denominator of tau: integer polynomials with no
    1/gamma!, as the weight-sorted lists of (weight, monomial, ((excess,
    hbar exponent, int), ...)) that `_mul_in_band` reads, each term's
    triples sorted by the excess a*e - b*w of its weight w for the band
    (a, b).  They hold only the coefficients that can enter a product of
    d^beta and d^(gamma - beta) with excess at most W + b*|gamma|, the
    bound of `_run_equations`: the root coefficients of excess at most
    `_root_excess_limit`, and nothing is built from the others."""
    a, b = band
    root = [(w, mono, tuple(sorted((a * e - b * w, e, c) for e, c in cs))) for w, mono, cs in weight_sorted(tau.kind, tau.num)]
    limit = _root_excess_limit(root, tau.max_weight)
    kept = ((w, mono, tuple(t for t in xs if t[0] <= limit)) for w, mono, xs in root)
    out: dict[Mono, list] = {(): [term for term in kept if term[2]]}
    for gamma in weight_monomials(T_SIDE, dmax):
        if gamma == ():
            continue
        # peel one derivative off the last variable entry
        v, e = gamma[-1]
        prev = gamma[:-1] + ((v, e - 1),) if e > 1 else gamma[:-1]
        out[gamma] = _diff_terms(out[prev], v, b * v)
    return tau.den, out


def _root_excess_limit(root: list, W: int) -> int:
    """The largest root excess that can enter an in-band product.  The
    derivatives of both factors of a product for gamma raise its excess
    by b*|gamma| in all, which is what the bound W + b*|gamma| allows
    beyond W; so a root coefficient of excess x enters some in-band
    product only if x + x_min <= W, x_min the smallest root excess."""
    return W - min((xs[0][0] for _, _, xs in root), default=0)


def _diff_terms(terms: list, v: int, shift: int) -> list:
    """d/dt_v of a weight-sorted term list; the result stays weight-sorted.
    Each excess a*e - b*w grows by `shift` = b*v as the weight drops by v,
    which keeps every term's triples sorted."""
    out = []
    for w, mono, coeffs in terms:
        for i, (u, e) in enumerate(mono):
            if u == v:
                out.append((w - v, mono_lower(mono, i), tuple((x + shift, h, c * e) for x, h, c in coeffs)))
                break
    return out


def _bilinear_pair(derivs: dict[Mono, list], gamma: Mono, cap: int, bound: int) -> dict:
    """d²·(D^gamma tau . tau) up to weight `cap` and excess `bound`, on
    integers, by the exact two-copy expansion in binomial form

        D^gamma tau . tau = sum_{beta <= gamma} (-1)^|gamma - beta|
                            C(gamma, beta) d^beta tau . d^(gamma-beta) tau,

    C(gamma, beta) = prod_i C(gamma_i, beta_i) = gamma!/(beta!(gamma-beta)!),
    with `derivs` mapping each beta to d^beta (d·tau) (see `_derivatives`).
    The splits beta and gamma - beta give the same product with signs
    (-1)^|gamma - beta| and (-1)^|beta|: for odd |gamma| they cancel
    (D^gamma tau . tau is antisymmetric, so zero), and for even |gamma|
    each unordered split is taken once, doubled when beta != gamma - beta.
    So each split goes through `_mul_in_band` with the integer weight
    sign · twice · C(gamma, beta).  The kernel cuts at `cap`, which leaves
    every coefficient of weight <= cap exact, since no monomial has
    negative weight, and forms only the products of excess sum <= bound.
    The result maps monomials to {hbar exponent: int}: the coefficients
    with a*e - b*v <= bound, each the same integer as in the full
    product, and no other exponent.  It may hold zeros.
    """
    out: dict[Mono, dict[int, int]] = {}
    if sum(e for _, e in gamma) % 2:
        return out
    for exps in itertools.product(*(range(e + 1) for _, e in gamma)):
        rest = tuple(e - b for (_, e), b in zip(gamma, exps))
        if exps > rest:
            continue
        beta = tuple((v, b) for (v, _), b in zip(gamma, exps) if b)
        comp = tuple((v, r) for (v, _), r in zip(gamma, rest) if r)
        sign = -1 if sum(rest) % 2 else 1
        twice = 1 if exps == rest else 2
        binom = math.prod(math.comb(e, b) for (_, e), b in zip(gamma, exps))
        _mul_in_band(derivs[beta], derivs[comp], cap, bound, sign * twice * binom, out)
    return out


def _mul_in_band(a: list, b: list, cap: int, bound: int, k: int, out: dict) -> None:
    """The pair kernel: add k·(a·b), cut at weight `cap`, to `out`,
    forming only the coefficient products whose excesses sum to at most
    `bound`.

    `a` and `b` are weight-sorted lists of (weight, monomial, ((excess,
    hbar exponent, int), ...)) with each term's triples sorted by excess,
    as `_derivatives` gives them for a band (a, b); `out` maps each
    monomial to {hbar exponent: int}.  A product of (w1, e1)
    with (w2, e2) lands at weight v = w1 + w2 and exponent e = e1 + e2 with
    excess a*e - b*v = x1 + x2, so it is kept iff x1 + x2 <= bound.  Both
    inner loops break at the first triple past the bound, and a monomial
    pair whose smallest excesses already pass it is skipped whole.
    """
    if not b:
        return
    wb0 = b[0][0]
    least = min(xb[0][0] for _, _, xb in b)
    for wa, ma, xa in a:
        if wa + wb0 > cap:
            break
        room = bound - xa[0][0]
        if room < least:
            continue
        if k != 1:
            xa = tuple((x, e, c * k) for x, e, c in xa)
        for wb, mb, xb in b:
            if wa + wb > cap:
                break
            xb0 = xb[0][0]
            if xb0 > room:
                continue
            mono = mono_mul(ma, mb) if ma and mb else ma or mb
            slot = out.get(mono)
            if slot is None:
                slot = out[mono] = {}
            for x1, e1, c1 in xa:
                lim = bound - x1
                if xb0 > lim:
                    break
                for x2, e2, c2 in xb:
                    if x2 > lim:
                        break
                    e = e1 + e2
                    s = slot.get(e)
                    slot[e] = c1 * c2 if s is None else s + c1 * c2


def _schur_polys(top: int) -> list[dict[Mono, Fraction]]:
    """Elementary Schur polynomials p_0..p_top: exp(sum x_k z^k) = sum p_j z^j."""
    polys: list[dict[Mono, Fraction]] = [{(): Fraction(1)}]
    for j in range(1, top + 1):
        acc: dict[Mono, Fraction] = {}
        for r in range(1, j + 1):
            for mono, c in polys[j - r].items():
                key = mono_mul(mono, ((r, 1),))
                acc[key] = acc.get(key, Fraction(0)) + Fraction(r) * c
        polys.append({m: c / j for m, c in acc.items() if c})
    return polys


def _poly_sub_scale(poly: dict[Mono, Fraction], factor) -> dict[Mono, Fraction]:
    """Substitute x_r -> factor(r) * x_r in a Schur-type polynomial."""
    out = {}
    for mono, c in poly.items():
        for v, e in mono:
            c = c * factor(v) ** e
        if c:
            out[mono] = c
    return out


@functools.cache
def hirota_equation_table(y_weight: int) -> tuple[tuple[Mono, Mapping[Mono, Fraction]], ...]:
    """Bilinear equations indexed by y-monomials of weight <= y_weight.

    Coefficient extraction of
        sum_j p_j(-2y) p_{j+1}(Dtilde) exp(sum_r y_r D_r)
    with Dtilde_r = D_r / r.  Each equation is homogeneous of D-weight
    (weight of its y-monomial) + 1.  Built once per y-weight; every
    caller shares the one table, so it is read-only: a tuple of
    (y-monomial, read-only equation) pairs.
    """
    schur = _schur_polys(y_weight + 1)
    table: dict[Mono, dict[Mono, Fraction]] = {}
    y_monos = weight_monomials(T_SIDE, y_weight)
    for j in range(0, y_weight + 1):
        pj_y = _poly_sub_scale(schur[j], lambda r: Fraction(-2))
        pD = _poly_sub_scale(schur[j + 1], lambda r: Fraction(1, r))
        for nu, c_nu in pj_y.items():
            for mu in y_monos:
                if mono_weight(T_SIDE, nu) + mono_weight(T_SIDE, mu) > y_weight:
                    continue
                alpha = mono_mul(nu, mu)
                mufact = 1
                for _, e in mu:
                    mufact *= math.factorial(e)
                eq = table.setdefault(alpha, {})
                for dmono, c in pD.items():
                    key = mono_mul(dmono, mu)
                    val = eq.get(key, Fraction(0)) + c_nu * c / mufact
                    if val:
                        eq[key] = val
                    else:
                        eq.pop(key, None)
    ordered = sorted(table.items(), key=lambda kv: (mono_weight(T_SIDE, kv[0]), kv[0]))
    return tuple((alpha, MappingProxyType(eq)) for alpha, eq in ordered)


class EquationStatus(Record):
    __slots__ = _fields = ("label", "covered_weight", "status")

    def __init__(self, label: str, covered_weight: int, status: str):
        self.label = label
        self.covered_weight = covered_weight
        self.status = status

    def to_json_obj(self):
        return {
            "label": self.label,
            "maxResidualWeightChecked": self.covered_weight,
            "status": self.status,
        }


class HirotaReport(Record):
    """Result of an exact bilinear check; `hbar_value` labels the hbar
    value or band it ran at."""

    __slots__ = _fields = ("check", "hbar_value", "y_weight", "equations", "failures")

    def __init__(
        self,
        check: str,
        hbar_value: str | None = None,
        y_weight: int | None = None,
        equations: list | None = None,
        failures: list | None = None,
    ):
        self.check = check
        self.hbar_value = hbar_value
        self.y_weight = y_weight
        self.equations = [] if equations is None else equations
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_obj(self) -> dict:
        return {
            "check": self.check,
            "hbar": self.hbar_value,
            "yWeight": self.y_weight,
            "coveredWeight": min((e.covered_weight for e in self.equations), default=-1),
            "status": "pass" if self.passed else "fail",
            "failures": self.failures[:20],
            "equations": [e.to_json_obj() for e in self.equations],
        }


def _run_equations(
    tau: TPoly,
    equations,
    check_name: str,
    y_weight: int | None,
    hbar_label: str | None,
    band: tuple[int, int],
) -> HirotaReport:
    """Evaluate each bilinear equation and record its nonzero residual
    coefficients on the covered range v <= W - d, the weight each pair
    product is built to, and in the band (a, b): only the hbar exponents
    e with a*e <= W + b*(v + d) count, each recorded separately.  The
    pairs are built by `_mul_in_band` to the excess bound W + b*d, so
    they hold no other exponent.  The bound is fixed by d = W - covered,
    so the pair cache stays keyed by (gamma, covered).

    The residual sum_gamma c_gamma D^gamma tau.tau is summed on integers,
    as sum_gamma (L·c_gamma)·pair_gamma over L·s², with s = tau.den,
    pair_gamma = s²·D^gamma tau.tau from `_bilinear_pair` and L the LCM
    of the equation's c_gamma denominators.
    """
    W = tau.max_weight
    dmax = max(
        (mono_weight(T_SIDE, g) for _, eq in equations for g in eq), default=0
    )
    s, derivs = _derivatives(tau, dmax, band)
    pair_cache: dict[tuple[Mono, int], dict] = {}
    report = HirotaReport(check=check_name, hbar_value=hbar_label, y_weight=y_weight)
    for label_mono, eq in equations:
        d = max((mono_weight(T_SIDE, g) for g in eq), default=0)
        covered = W - d
        bound = W + band[1] * d
        label = "y[" + mono_str(T_SIDE, label_mono).replace("t", "y") + "]"
        L = math.lcm(*(c.denominator for c in eq.values()))
        acc: dict[Mono, dict[int, int]] = {}
        for gamma, c in sorted(eq.items()):
            key = (gamma, covered)
            if key not in pair_cache:
                pair_cache[key] = _bilinear_pair(derivs, gamma, covered, bound)
            k = c.numerator * (L // c.denominator)
            for mono, pair in pair_cache[key].items():
                slot = acc.get(mono)
                if slot is None:
                    slot = acc[mono] = {}
                for e, x in pair.items():
                    y = slot.get(e)
                    slot[e] = k * x if y is None else y + k * x
        den = L * s * s
        failures = []
        nonzero = [(mono_weight(tau.kind, m), m, slot) for m, slot in acc.items() if any(slot.values())]
        for v, mono, slot in sorted(nonzero):
            where = {"equation": label, "monomial": mono_str(tau.kind, mono)}
            for e in sorted(slot):
                if slot[e]:
                    failures.append({**where, "hbarExponent": e, "residual": rat_str(Fraction(slot[e], den))})
        status = "skipped" if covered < 0 else "fail" if failures else "pass"
        report.equations.append(EquationStatus(label, covered, status))
        report.failures.extend(failures)
    return report


def hirota_full_check(tau: TPoly, y_weight: int) -> HirotaReport:
    """All bilinear equations from the generating identity, to the stated
    y-weight, each verified on its covered residual range, for a tau
    whose hbar is specialized: the band (0, 0) of the same loop."""
    if any(e for slot in tau.num.values() for e in slot):
        raise ValueError("hbar must be specialized before a bilinear check")
    table = hirota_equation_table(y_weight)
    return _run_equations(tau, table, "hirota-full", y_weight, None, (0, 0))


def hirota_graded_check(tau: TPoly, y_weight: int, band: tuple[int, int]) -> HirotaReport:
    """Bilinear check for hbar-graded truncations, coefficientwise in hbar.

    A weight-truncated series produced by weight-dropping group elements
    is exact only per (monomial weight v, hbar exponent e) inside a band
    a*e <= W + b*v determined by its construction (the out-of-band part
    keeps changing as the construction weight grows, because the fixed-
    hbar coefficients of the exact object are divergent series).  For the
    residual of an equation of derivative-weight d the sound region is
    a*e <= W + b*(v + d) together with v <= W - d; this check asserts
    exact vanishing there and never forms the rest: no product whose
    coefficient lands outside the band is computed.  It subsumes the
    fixed-hbar statement for every scalar hbar, coefficientwise; at the
    band (0, 0) every coefficient counts.

    This is sound only for a tau whose every stored coefficient has
    excess a*e - b*v >= 0: the band bounds the sum of two factors'
    excesses, so a factor of negative excess would let an out-of-band
    factor into an in-band product.  Any other tau raises
    `InvariantViolation`.
    """
    a, b = band
    for mono, slot in tau.num.items():
        v = mono_weight(tau.kind, mono)
        for e in slot:
            if a * e - b * v < 0:
                raise InvariantViolation(
                    f"the coefficient of {mono_str(tau.kind, mono)} at hbar^{e} has excess {a * e - b * v} < 0 in the band ({a}, {b})"
                )
    table = hirota_equation_table(y_weight)
    label = f"graded band {a}e<=W+{b}(v+d)"
    return _run_equations(tau, table, "hirota-graded", y_weight, label, band)


class EvenTimeReport(Record):
    """Whether a polynomial is free of even-index time variables."""

    __slots__ = _fields = ("passed", "even_monomials")

    def __init__(self, passed: bool, even_monomials: list):
        self.passed = passed
        self.even_monomials = even_monomials

    def to_json_obj(self):
        return {
            "status": "pass" if self.passed else "fail",
            "evenCount": len(self.even_monomials),
            "evenMonomials": self.even_monomials[:20],
        }


def kdv_reduction_check(tau: TPoly) -> EvenTimeReport:
    """Pass iff no monomial contains an even-index variable."""
    if tau.kind != T_SIDE:
        raise ValueError("the even-time check applies to t-side polynomials")
    bad = [
        mono_str(tau.kind, mono)
        for mono in sorted(tau.num, key=lambda m: (mono_weight(tau.kind, m), m))
        if any(v % 2 == 0 for v, _ in mono)
    ]
    return EvenTimeReport(not bad, bad)
