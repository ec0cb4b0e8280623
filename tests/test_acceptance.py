"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime (run with `pytest tests/test_acceptance.py -s`).

All tolerances are exact equality of rationals.  KP membership of the
hbar-mixed derived tau-functions is verified by the graded bilinear
check, coefficientwise in hbar on the exactness band of the truncation
(this subsumes the identity at every fixed scalar hbar; fixed-hbar
coefficients of these objects are partial sums of divergent series and
cannot stabilize at any finite weight)."""

import random
import time
from fractions import Fraction as F

from hodgekp.algebra import TPoly, double_factorial
from hodgekp.curve import (
    CATALOG,
    CurveParams,
    build_curve,
    identification_residual,
    log_r_series,
    perturbed_control_curve,
    witt_coefficients,
)
from hodgekp.kp import (
    hirota_full_check,
    hirota_graded_check,
    kdv_reduction_check,
    specialize_hbar,
)
from hodgekp.operators import (
    couplings_from_log_r,
    exp_apply,
    givental_direct,
    givental_factorized,
    givental_kernel,
    linear_change_generator,
    rl_identity_check,
    tqp_forms,
    virasoro_conjugation_check,
    weight_monomials,
)
from hodgekp.tau import bgw_tau, kw_tau, tau_qp_check, trust_band

from conftest import heisenberg_op, random_tpoly, virasoro_op, w_op

P132 = CurveParams(F(1), F(3), F(2))
PM121 = CurveParams(F(-1), F(2), F(1))
P042 = CurveParams(F(0), F(4), F(2))


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        ms = int((time.perf_counter() - self.t0) * 1000)
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.name}: {status} ({ms} ms, budget {int(self.seconds * 1000)} ms)")
        if exc_type is None:
            assert ms <= self.seconds * 1000, f"{self.name} exceeded its runtime budget"
        return False


def test_criterion_01_moment_transform_equals_reflected_r():
    with _Budget("1 moment transform = R(-z) to z^8, five points", 1):
        for point in CATALOG:
            curve = build_curve(point, 17)
            I = curve.I
            assert I.order >= 8
            assert I == curve.R.subs_neg().truncate(I.order), point.label()


def test_criterion_02_identification_residual_and_control():
    with _Budget("2 identification residual zero + out-of-family control", 5):
        for point in CATALOG:
            curve = build_curve(point, 18)
            res = identification_residual(curve, 4)
            assert all(x == 0 for row in res for x in row), point.label()
        control = perturbed_control_curve(18)
        res = identification_residual(control, 4, require_symplectic=False)
        nonzero = [(k, m) for k in range(4) for m in range(4) if res[k][m] != 0]
        assert nonzero and min(k + m for k, m in nonzero) <= 4


def test_criterion_03_direct_equals_factorized_weight9():
    with _Budget("3 direct = factorized on the weight-<=9 basis, two R's", 120):
        W = 9
        for point in (P132, PM121):
            order = 2 * ((W - 1) // 2 + 1)
            curve = build_curve(point, order)
            couplings = couplings_from_log_r(log_r_series(point, order), W)
            direct = givental_direct(couplings, W)
            factorized = givental_factorized(curve.R, W, kernel=givental_kernel(curve, W))
            for mono in weight_monomials("T", W):
                P = TPoly("T", W, {mono: 1})
                assert direct(P) == factorized(P), (
                    point.label(),
                    mono,
                )


def test_criterion_04_transformed_variables_match_linear_change():
    with _Budget("4 transformed variables = linear change, k <= 3, two points", 60):
        W = 9
        for point in (P132, PM121):
            curve = build_curve(point, 2 * W + 2)
            forms = tqp_forms(point, 3, W)
            a = witt_coefficients(curve.f.truncate(W + 1))
            v0 = linear_change_generator(a, W)
            rb = curve.R.subs_neg()
            for k in range(4):
                lhs = TPoly.zero("t", W)
                for m in range(k + 1):
                    c = rb.coeff_or_zero(k - m)
                    if c:
                        lhs = lhs + forms[m].scale(c)
                rhs = exp_apply(
                    v0,
                    TPoly.variable("t", 2 * k + 1, W, double_factorial(2 * k + 1)),
                )
                assert lhs == rhs, (point.label(), k)


def test_criterion_05_operator_identity_on_basis_and_base_tau():
    with _Budget("5 full operator identity, weight-<=9 odd basis + base tau", 300):
        for point in (P132, PM121):
            curve = build_curve(point, 20)
            rep = rl_identity_check(curve, tqp_forms(point, 4, 9), extra=[kw_tau(9).body])
            assert rep.passed, (point.label(), rep.failures[:2])


def test_criterion_06_hodge_tau_equality_and_kp_membership():
    with _Budget("6 triple-Hodge tau: two routes + graded bilinear identity", 600):
        for point in (P132, PM121, P042):
            rep = tau_qp_check(point, 9)
            assert rep.equal, point.label()
            hirota = hirota_graded_check(rep.tau.body, 3, trust_band("tau_qp"))
            assert hirota.passed, (point.label(), hirota.failures[:2])


def test_criterion_07_theta_tau_equality_and_kp_membership():
    with _Budget("7 Theta-Hodge tau: two routes + graded bilinear identity", 600):
        for point in (P132, PM121, P042):
            rep = tau_qp_check(point, 8, "theta")
            assert rep.equal, point.label()
            hirota = hirota_graded_check(rep.tau.body, 3, trust_band("tau_theta_qp"))
            assert hirota.passed, (point.label(), hirota.failures[:2])


def test_criterion_08_even_time_reduction():
    with _Budget("8 even-time independence at p=-2q, dependence elsewhere", 60):
        red = tau_qp_check(PM121, 9)
        red_theta = tau_qp_check(PM121, 9, "theta")
        assert kdv_reduction_check(red.tau.body).passed
        assert kdv_reduction_check(red_theta.tau.body).passed
        gen = tau_qp_check(P132, 9)
        gen_theta = tau_qp_check(P132, 9, "theta")
        assert not kdv_reduction_check(gen.tau.body).passed
        assert not kdv_reduction_check(gen_theta.tau.body).passed


def test_criterion_09_base_tau_sanity_and_mutation_testing():
    with _Budget("9 base taus pass; 20 mutations all detected", 600):
        kw = kw_tau(12).body
        assert hirota_full_check(specialize_hbar(kw, F(1)), 4).passed
        bgw = bgw_tau(10).body
        assert hirota_full_check(specialize_hbar(bgw, F(1)), 3).passed
        rng = random.Random(2024)
        tau1 = specialize_hbar(kw, F(1))
        weight6 = [
            m for m in weight_monomials("t", 12) if m and sum(v * e for v, e in m) == 6
        ]
        for i in range(20):
            mono = rng.choice(weight6)
            eps = F(rng.randrange(1, 12), rng.randrange(1, 7))
            mutated = tau1 + TPoly("t", 12, {mono: eps})
            # y-weight 6: deep enough to pair a d/dt_6 into an even monomial
            assert not hirota_full_check(mutated, 6).passed, (i, mono)


def test_criterion_10_algebraic_substrate():
    with _Budget("10 commutator suites and current-mode conjugation, weight 8", 120):
        rng = random.Random(77)
        W = 8
        lift = lambda i: max(0, -i)
        L = lambda Q, i: virasoro_op(i, Q.max_weight).apply(Q)
        J = lambda Q, i: heisenberg_op(i, Q.max_weight).apply(Q)
        for k in range(-3, 4):
            for m in range(-3, 4):
                amb = W + lift(k) + lift(m) + lift(k + m)
                P = random_tpoly(rng, "t", W, cap=amb)
                lhs = L(L(P, m), k) - L(L(P, k), m)
                rhs = L(P, k + m).scale(F(k - m))
                if k + m == 0:
                    rhs = rhs + P.scale(F(k**3 - k, 12))
                assert lhs == rhs, ("LL", k, m)
                if m != 0:
                    Pj = random_tpoly(rng, "t", W, cap=amb)
                    lhs = L(J(Pj, m), k) - J(L(Pj, k), m)
                    rhs = (
                        TPoly.zero("t", amb)
                        if k + m == 0
                        else J(Pj, k + m).scale(F(-m))
                    )
                    assert lhs == rhs, ("LJ", k, m)
        for k in (1, 2):
            for m in (1, 2):
                P = random_tpoly(rng, "T", W)
                Wk, Wm = w_op(k, W), w_op(m, W)
                assert (Wk.apply(Wm.apply(P)) - Wm.apply(Wk.apply(P))).is_zero()
        curve = build_curve(P132, 2 * W + 2)
        rep = virasoro_conjugation_check(curve, W)
        assert rep.passed, rep.failures[:2]
        neg = virasoro_conjugation_check(curve, 4, flip_sign=True)
        assert not neg.passed
