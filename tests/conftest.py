import contextlib
import math
import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import settings

from hodgekp import curve as curve_module, operators
from hodgekp.algebra import (
    BIG_T_SIDE,
    T_SIDE,
    HbarPoly,
    InvariantViolation,
    TPoly,
    ZSeries,
    double_factorial,
    exp_weights,
    mono_str,
    mono_weight,
    mul_sorted,
    same_value,
    weight_sorted,
)
from hodgekp.curve import CurveParams, build_curve, witt_flow
from hodgekp.operators import (
    EqualityReport,
    LinearOp,
    exp_apply,
    linear_change_generator,
    odd_t_to_big_t,
    unit_monomials,
    virasoro_op,
    weight_monomials,
)

# Exact arithmetic on this code's inputs varies widely in time per
# example, and host speed drifts too, so a per-example deadline would
# make the suite flaky; derandomized draws make each run the same run.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=30)
settings.load_profile("tier1")


@contextlib.contextmanager
def cpus(n):
    """An affinity mask of n CPUs, whatever the host has.  With one, as
    under `taskset -c 0`, the conjugation check runs its whole basis in
    process; with two, it splits the basis with one forked worker."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        yield


@pytest.fixture(scope="session")
def p132():
    return CurveParams(Fraction(1), Fraction(3), Fraction(2))


@pytest.fixture(scope="session")
def pm121():
    return CurveParams(Fraction(-1), Fraction(2), Fraction(1))


@pytest.fixture(scope="session")
def curve132():
    return build_curve(CurveParams(Fraction(1), Fraction(3), Fraction(2)), 20)


@pytest.fixture(scope="session")
def curve132_big():
    return build_curve(CurveParams(Fraction(1), Fraction(3), Fraction(2)), 18)


def random_rational(rng, num=9, den=6):
    return Fraction(rng.randrange(-num, num + 1), rng.randrange(1, den + 1))


def random_series(rng, order, monic=False):
    coeffs = [random_rational(rng) for _ in range(order + 1)]
    if monic:
        coeffs[0] = Fraction(0)
        coeffs[1] = Fraction(1)
    return ZSeries(coeffs, order)


def random_tpoly(rng, kind, max_weight, terms=6, cap=None):
    monos = weight_monomials(kind, max_weight)
    chosen = {}
    for _ in range(terms):
        m = rng.choice(monos)
        chosen[m] = random_rational(rng)
    return TPoly(kind, cap if cap is not None else max_weight, chosen)


def with_max_weight(P, W):
    """P viewed with weight cap W, its heavier monomials dropped, in the
    normal form of `TPoly`."""
    out = {m: s for m, s in P.num.items() if mono_weight(P.kind, m) <= W}
    return TPoly._normal(P.kind, W, out, P.den)


def fraction_product(P, Q, cap=None):
    """P·Q cut at weight `cap` (default: P's cap), term by term in
    `Fraction`s: an oracle for `TPoly.__mul__` that shares no code with
    its integer kernel."""
    cap = P.max_weight if cap is None else cap
    weight = (lambda v: v) if P.kind == "t" else (lambda v: 2 * v + 1)
    out = {}
    for ma, ca in P.terms.items():
        for mb, cb in Q.terms.items():
            exps = dict(ma)
            for v, e in mb:
                exps[v] = exps.get(v, 0) + e
            if sum(weight(v) * e for v, e in exps.items()) > cap:
                continue
            slot = out.setdefault(tuple(sorted(exps.items())), {})
            for e1, c1 in ca.terms.items():
                for e2, c2 in cb.terms.items():
                    slot[e1 + e2] = slot.get(e1 + e2, Fraction(0)) + c1 * c2
    return TPoly(P.kind, cap, {m: HbarPoly(slot) for m, slot in out.items()})


def _fraction_convolve(a, b, n):
    """The first n coefficients of the product of two `Fraction` lists."""
    out = [Fraction(0)] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                out[i + j] += x * y
    return out


def _fraction_coeffs(A, lo, hi):
    return [A.coeff_or_zero(e) for e in range(lo, hi + 1)]


# The `Fraction` implementations of the series ops that `ZSeries` now runs
# on integers, kept as oracles: each builds its result from a list of
# `Fraction` coefficients and shares no arithmetic with the integer path.


def _fraction_valuation(A):
    """The exponent of A's first nonzero coefficient; order + 1 for zero."""
    return next((e for e in range(A.order + 1) if A.coeff_or_zero(e)), A.order + 1)


def fraction_mul(A, B):
    """A·B to the order that `ZSeries.__mul__` gives: a factor known to
    order n with valuation v is z^v·(unit) + O(z^(n+1)), so the product is
    known to order min(n_A + v_B, n_B + v_A)."""
    order = min(A.order + _fraction_valuation(B), B.order + _fraction_valuation(A))
    a, b = _fraction_coeffs(A, 0, A.order), _fraction_coeffs(B, 0, B.order)
    return ZSeries(_fraction_convolve(a, b, order + 1), order)


def fraction_recip(A):
    """1/A for a unit A, by the recurrence a_0 b_k = -sum_j a_j b_(k-j)."""
    n = A.order
    a = _fraction_coeffs(A, 0, n)
    inv0 = 1 / a[0]
    out = [inv0] + [Fraction(0)] * n
    for k in range(1, n + 1):
        out[k] = -inv0 * sum(a[j] * out[k - j] for j in range(1, k + 1))
    return ZSeries(out, n)


def fraction_expm(A):
    """exp(A) for A(0) = 0, by m E_m = sum_j j A_j E_(m-j)."""
    n = A.order
    a = _fraction_coeffs(A, 0, n)
    out = [Fraction(1)] + [Fraction(0)] * n
    for m in range(1, n + 1):
        out[m] = sum(j * a[j] * out[m - j] for j in range(1, m + 1)) / m
    return ZSeries(out, n)


def fraction_log1p(A):
    """log(1 + A) for A(0) = 0, as the integral of A'/(1 + A)."""
    n = A.order
    a = _fraction_coeffs(A, 0, n)
    da = ZSeries([e * a[e] for e in range(1, n + 1)], n - 1)
    q = fraction_mul(da, fraction_recip(ZSeries([1 + a[0]] + a[1:], n)))
    return ZSeries([Fraction(0)] + [q.coeff_or_zero(k) / (k + 1) for k in range(n)], n)


def fraction_compose(A, B):
    """A(B(z)) for B(0) = 0, summing A_j times the running power B^j."""
    order = min(A.order, B.order)
    b = _fraction_coeffs(B, 0, order)
    acc = [A.coeff_or_zero(0)] + [Fraction(0)] * order
    power = [Fraction(1)] + [Fraction(0)] * order
    for j in range(1, order + 1):
        power = _fraction_convolve(power, b, order + 1)
        acc = [x + A.coeff_or_zero(j) * y for x, y in zip(acc, power)]
    return ZSeries(acc, order)


def fraction_reversion(A):
    """The inverse of A = z + O(z^2) by Lagrange inversion,
    [z^m] h = [z^(m-1)] g^m / m with g = z/A."""
    n = A.order
    g = _fraction_coeffs(fraction_recip(ZSeries(_fraction_coeffs(A, 1, n), n - 1)), 0, n - 1)
    out = [Fraction(0)] * (n + 1)
    power = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for m in range(1, n + 1):
        power = _fraction_convolve(power, g, n)
        out[m] = power[m - 1] / m
    return ZSeries(out, n)


def hbar_weight_strip(P, num, den):
    """Remove an hbar-grading of slope num/den (exponent = weight*num/den).

    This is the exact form of absorbing hbar by a fractional-power time
    rescaling; it requires every monomial to carry exactly the graded
    power and errors otherwise.
    """
    out = {}
    for mono, c in P.terms.items():
        w = mono_weight(P.kind, mono)
        if (w * num) % den:
            raise ValueError(f"weight {w} is not compatible with grading {num}/{den}")
        e = w * num // den
        if set(c.terms) - {e}:
            raise ValueError(f"monomial {mono_str(P.kind, mono)} is not hbar-graded")
        out[mono] = c.coeff(e)
    return TPoly(P.kind, P.max_weight, out)


# The earlier forms of the exact set-up, kept as references: the Witt peel
# by one `witt_flow` per order, sum a_k L_k by chained operator sums, the
# correlator recursions on `Fraction`s over a recursive enumeration, and
# the base tau-functions as the exponential of their correlator sums.


def reference_witt_coefficients(f):
    """a_1..a_(K-1) of f = z + O(z^2): a_k is corrected at order k + 1 by
    the flow of the a's found so far."""
    K = f.order
    a = [Fraction(0)] * (K - 1)
    for k in range(1, K):
        current = witt_flow(a, k + 1)
        a[k - 1] += current.coeff_or_zero(k + 1) - f.coeff_or_zero(k + 1)
    return a


def reference_virasoro_sum_op(a, W):
    """sum_k a_k L_k as a chain of scaled `virasoro_op`s."""
    acc = LinearOp(T_SIDE)
    for k, ak in enumerate(a, start=1):
        if ak and k <= W:
            acc = acc + virasoro_op(k, W).scale(ak)
    return acc


def reference_sub_multisets(items):
    """(submultiset, count of labelled choices, complement) by recursion
    over the distinct values in order of first appearance."""
    groups = []
    for v in items:
        if v not in [u for u, _ in groups]:
            groups.append((v, items.count(v)))

    def choose(i, chosen, ways):
        if i == len(groups):
            comp = list(items)
            for v in chosen:
                comp.remove(v)
            yield tuple(sorted(chosen, reverse=True)), ways, tuple(sorted(comp, reverse=True))
            return
        v, c = groups[i]
        for take in range(c + 1):
            yield from choose(i + 1, chosen + [v] * take, ways * math.comb(c, take))

    return list(choose(0, [], 1))


def _reference_constraint_sums(correlator, g, args, k):
    rest = args[1:]
    total = Fraction(0)
    for j, aj in enumerate(rest):
        moved = tuple(sorted(rest[:j] + (aj + k,) + rest[j + 1 :], reverse=True))
        total += Fraction(double_factorial(2 * aj + 2 * k + 1), double_factorial(2 * aj - 1)) * correlator(g, moved)
    quad = Fraction(0)
    for i in range(0, k):
        j = k - 1 - i
        fac = double_factorial(2 * i + 1) * double_factorial(2 * j + 1)
        quad += fac * correlator(g - 1, tuple(sorted(rest + (i, j), reverse=True)))
        for g1 in range(0, g + 1):
            for s1, ways, s2 in reference_sub_multisets(rest):
                quad += (
                    fac
                    * ways
                    * correlator(g1, tuple(sorted(s1 + (i,), reverse=True)))
                    * correlator(g - g1, tuple(sorted(s2 + (j,), reverse=True)))
                )
    return total + quad / 2


@lru_cache(maxsize=None)
def reference_psi_correlator(g, args):
    """The psi-class intersection numbers by the `Fraction` recursion."""
    args = tuple(sorted(args, reverse=True))
    n = len(args)
    if g < 0 or any(a < 0 for a in args) or 2 * g - 2 + n <= 0 or sum(args) != 3 * g - 3 + n:
        return Fraction(0)
    if g == 0 and args == (0, 0, 0):
        return Fraction(1)
    if g == 1 and args == (1,):
        return Fraction(1, 24)
    a0 = args[0]
    return _reference_constraint_sums(reference_psi_correlator, g, args, a0 - 1) / double_factorial(2 * a0 + 1)


@lru_cache(maxsize=None)
def reference_theta_correlator(g, args):
    """The Theta-class intersection numbers by the `Fraction` recursion."""
    args = tuple(sorted(args, reverse=True))
    n = len(args)
    if g < 1 or any(a < 0 for a in args) or 2 * g - 2 + n <= 0 or sum(args) != g - 1:
        return Fraction(0)
    a0 = args[0]
    extra = Fraction(1, 8) if (g, args) == (1, (0,)) else Fraction(0)
    return (_reference_constraint_sums(reference_theta_correlator, g, args, a0) + extra) / double_factorial(2 * a0 + 1)


def psi_dimension(g, n):
    """3g - 3 + n, the psi-class dimension of a stable (g, n), or None."""
    D = 3 * g - 3 + n
    return D if D >= 0 and 2 * g - 2 + n > 0 else None


def theta_dimension(g, n):
    """g - 1, the Theta-class dimension of a stable (g, n), or None."""
    return g - 1 if g >= 1 and 2 * g - 2 + n > 0 else None


def partitions_into(total, parts, cap):
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
        for rest in partitions_into(total - first, parts - 1, first):
            yield (first,) + rest


def tp_exp(F):
    """exp of a polynomial without constant term (finite by weight truncation).

    On integers: with F = N/d, the powers u_n = N^n are weight-sorted
    lists that `mul_sorted` extends by one factor N each, and
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
    acc = {}
    for u, weight in zip(iterates, exp_weights(N, F.den)):
        for _, mono, cs in u:
            slot = acc.setdefault(mono, {})
            for e, c in cs:
                slot[e] = slot.get(e, 0) + c * weight
    return TPoly._normal(kind, W, acc, math.factorial(N) * F.den**N)


def assemble_tau(W, correlator, dimension):
    """The base tau-function as exp of its correlator sum: hbar^(2g-2+n)
    <tau_(a_1) ... tau_(a_n)>_g prod_i (2a_i + 1)!! t_(2a_i+1) / |Aut|
    over every stratum of t-weight at most W."""
    terms = {}
    for g in range(W + 2):
        for n in range(1, W + 1):
            D = dimension(g, n)
            if D is None or 2 * D + n > W:
                continue
            for alpha in partitions_into(D, n, D):
                c = correlator(g, alpha)
                if not c:
                    continue
                mult = Counter(alpha)
                for a, e in mult.items():
                    c *= Fraction(double_factorial(2 * a + 1) ** e, math.factorial(e))
                mono = tuple(sorted((2 * a + 1, e) for a, e in mult.items()))
                terms[mono] = HbarPoly.hbar(2 * g - 2 + n, c)
    return tp_exp(TPoly(T_SIDE, W, terms))


def big_t_to_odd_t(P):
    """Relabel T-variables into odd t-variables: T_m = (2m+1)!! t_{2m+1},
    the inverse of `odd_t_to_big_t`."""
    if P.kind != BIG_T_SIDE:
        raise ValueError("expected a T-side polynomial")
    out = {}
    for mono, slot in P.num.items():
        f = math.prod(double_factorial(2 * m + 1) ** e for m, e in mono)
        out[tuple((2 * m + 1, e) for m, e in mono)] = {h: c * f for h, c in slot.items()}
    return TPoly._normal(T_SIDE, P.max_weight, out, P.den)


# The former whole-polynomial comparisons of the route pairs, kept as
# references for the integer harness: both sides built as `TPoly` values
# through their former polynomial-level bodies (`exp_apply` chains and
# `TPoly.substitute`), compared with `==`, the witness their difference.
# The operators they read (the group element, the Grunsky matrix, the
# translation, the direct route) are read through their modules, so a
# test's mutation of one reaches the reference and the product alike.


def reference_equality_check(lhs, rhs, basis, label=""):
    """Both polynomial maps on every basis element, compared as `TPoly`s."""
    report = EqualityReport(label=label)
    for P in basis:
        left, right = lhs(P), rhs(P)
        report.checked += 1
        if left != right:
            report.failures.append({"input": repr(P), "difference": repr(left - right)})
    return report


def reference_virasoro_factorization_check(curve, W):
    """The former `virasoro_factorization_check`."""
    big = operators.group_element(curve, W)
    v0 = linear_change_generator(curve.witt(W), W)
    size = max(W - 1, 1)
    G = curve_module.grunsky_matrix(curve.h, size)
    items = []
    for k in range(1, size + 1):
        for m in range(k, size + 1):
            if k + m <= W and G.v(k, m):
                items.append(("dd", k, m, G.v(k, m) if k != m else G.v(k, m) / 2))
    quad = LinearOp.from_terms(T_SIDE, items)
    return reference_equality_check(
        lambda P: exp_apply(big, P),
        lambda P: exp_apply(v0, exp_apply(quad, P)),
        unit_monomials(T_SIDE, W),
        label=f"virasoro-factorization W={W}",
    )


def reference_conjugation_check(curve, W, flip_sign=False):
    """The former `virasoro_conjugation_check`, in process: V^{-1}m through
    `exp_apply`, J_k through the apply kernel on its monomials, V through
    `_exp_numerators` (monomials numbered into V's plan and mapped back),
    and the sides compared on monomials by `same_value`."""
    big = operators.group_element(curve, 2 * W)
    inv_images = [exp_apply(big, P, inverse=not flip_sign) for P in unit_monomials(T_SIDE, W)]
    flow, mult = operators._current_transform_series(curve, 2 * W, W)
    report = EqualityReport(label=f"current-conjugation W={W}")
    for k in [k for k in range(-W, W + 1) if k]:
        cap = W + max(0, -k)
        jk = operators.heisenberg_op(k, cap)._compiled()
        rhs = operators._current_transform_coeffs(k, cap, flow, mult)._compiled()
        for mono, inv in zip(weight_monomials(T_SIDE, W), inv_images):
            image = operators._apply_plan(jk, T_SIDE, cap, inv.num.items())
            left, dl = operators._exp_numerators(big, image, cap, flip_sign, jk.D * inv.den)
            right = operators._apply_plan(rhs, T_SIDE, cap, ((mono, {0: 1}),))
            report.checked += 1
            if not same_value(left, dl, right, rhs.D):
                witness = operators._difference(T_SIDE, cap, (left, dl), (right, rhs.D))
                report.failures.append({"mode": k, "input": mono_str(T_SIDE, mono), "difference": repr(witness)})
                if flip_sign:
                    return report
    return report


def mutated_current_mode(monkeypatch, mode, mutation, W):
    """X_k of one mode k, in a conjugation check at weight W, changed: 1/7
    added to one coefficient (of t_2 for k < 0, of d/dt_k for k > 0), one
    extra term, (1/7) d/dt_1 or, for `unnumbered`, (1/7)·t_{W+1}, or that
    one term dropped."""
    real = operators._current_transform_coeffs

    def mutated(k, cap, flow, mult):
        op = real(k, cap, flow, mult)
        if k != mode:
            return op
        terms = dict(op.terms)
        key = ("m", 2) if k < 0 else ("d", k)
        extra = ("m", W + 1) if mutation == "unnumbered" else ("d", 1)
        if mutation == "coefficient":
            terms[key] = terms[key] + Fraction(1, 7)
        elif mutation in ("extra", "unnumbered"):
            assert extra not in terms
            terms[extra] = HbarPoly.const(Fraction(1, 7))
        else:
            del terms[key]
        return LinearOp(op.kind, terms)

    monkeypatch.setattr(operators, "_current_transform_coeffs", mutated)


def reference_factorized(curve, W, mode="standard"):
    """The former body of the factorized quantized action."""
    kernel = operators.givental_kernel(curve.R, W)
    images = operators.transformed_variable_images(curve.R, W, mode)
    return lambda P: exp_apply(kernel, P).substitute(images)


def reference_tqp_substitute(forms):
    """The former body of `tqp_substitute`."""
    W = forms[0].max_weight
    images = dict(enumerate(forms))
    return lambda P: P.substitute(images) if P.variables() else TPoly._normal(T_SIDE, W, P.num, P.den)


def dilaton_shifts(curve):
    """The dilaton-shift changes of a curve's two sides, read off R(-z),
    zeros left out: delta[k] = -[z^(k-1)] R(-z) for 2 <= k <= K, the
    coefficients of z(1 - R(-z)), and delta0[k] = -[z^k] R(-z) for
    1 <= k <= K, those of 1 - R(-z)."""
    rb = curve.R.subs_neg()
    delta = {k: -rb.coeff_or_zero(k - 1) for k in range(2, curve.K + 1)}
    delta0 = {k: -rb.coeff_or_zero(k) for k in range(1, curve.K + 1)}
    return {k: c for k, c in delta.items() if c}, {k: c for k, c in delta0.items() if c}


def reference_rl_transform_virasoro(curve, W, mode="standard"):
    """The former body of the symmetry-group route."""
    sd = curve.shifts()
    big = operators.group_element(curve, W)
    vector = {"standard": sd.v, "theta": sd.v0}[mode]
    trans = operators.translation_op({k: HbarPoly.hbar(-1, c) for k, c in vector.items()}, W, T_SIDE)
    return lambda P: exp_apply(trans, exp_apply(big, P))


def reference_rl_identity_check(curve, forms, extra=()):
    """The former `rl_identity_check`."""
    W = forms[0].max_weight
    act, substitute = reference_factorized(curve, W), reference_tqp_substitute(forms)
    return reference_equality_check(
        lambda P: substitute(act(odd_t_to_big_t(P))),
        reference_rl_transform_virasoro(curve, W),
        unit_monomials(T_SIDE, W, odd_only=True) + list(extra),
        label=f"group-identification W={W}",
    )


def reference_lemma_factorization(curve, W):
    """The former body of the lemma-factorization check, on the curve's
    direct map and the former factorized body."""
    direct, factorized = operators.givental_routes(curve, W)[0], reference_factorized(curve, W)
    failures = []
    count = 0
    for P in unit_monomials(BIG_T_SIDE, W):
        d = direct(P)
        f = factorized(P)
        count += 1
        if d != f:
            failures.append({"monomial": repr(P), "difference": repr(d - f)})
    return {"passed": not failures, "checked": count, "failures": failures[:5]}


def reference_tau_identity(curve, W, mode, base, forms):
    """The former comparisons of `tau._quantized_action` and
    `tau._tau_identity`: (equal, difference or None, derived tau body);
    a disagreement of the quantized action raises as it did."""
    big = odd_t_to_big_t(base.body)
    direct, fact = operators.givental_routes(curve, W, mode)[0](big), reference_factorized(curve, W, mode)(big)
    if direct != fact:
        raise InvariantViolation(
            f"pipeline disagreement in the quantized action ({mode}); diff = {(direct - fact)!r}"
        )
    lhs = reference_tqp_substitute(forms)(direct)
    rhs = reference_rl_transform_virasoro(curve, W, mode)(base.body)
    return lhs == rhs, None if lhs == rhs else lhs - rhs, lhs
