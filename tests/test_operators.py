import marshal
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
import types
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, strategies as st

from hodgekp import operators
from hodgekp.algebra import HbarPoly, InvariantViolation, TPoly, ZSeries, double_factorial, mono_str, same_value
from hodgekp.curve import CATALOG, CurveParams, CurveSeries, build_curve, witt_coefficients
from hodgekp.operators import (
    EqualityReport,
    LinearOp,
    _current_transform_series,
    _exp_batch,
    couplings_from_log_r,
    exp_apply,
    givental_direct,
    givental_factorized,
    givental_kernel,
    givental_routes,
    heisenberg_op,
    linear_change_generator,
    odd_t_to_big_t,
    operator_equality_check,
    rl_identity_check,
    rl_transform_quantized,
    rl_transform_virasoro,
    tqp_forms,
    tqp_forms_symbolic,
    tqp_substitute,
    translation_op,
    transformed_variable_images,
    virasoro_conjugation_check,
    virasoro_factorization_check,
    virasoro_op,
    virasoro_sum_op,
    w_op,
    weight_monomials,
)
from hodgekp.curve import log_r_series

from conftest import (
    big_t_to_odd_t,
    coeff,
    cpus,
    dilaton_shifts,
    mutated_current_mode,
    op_scale,
    op_sum,
    r_series,
    random_rational,
    random_tpoly,
    reference_direct_op,
    reference_tqp_op,
    reference_virasoro_sum_op,
    with_max_weight,
)


def t(k, w=9):
    return TPoly.variable("t", k, w)


def T(m, w=9):
    return TPoly.variable("T", m, w)


class TestVirasoroModes:
    def test_scaling_eigenvector(self):
        assert virasoro_op(0, 9).apply(t(1)) == t(1)

    def test_lowering_mode(self):
        got = virasoro_op(-2, 9).apply(t(1))
        expect = (t(1) * t(1) * t(1)).scale(F(1, 2)) + t(3, 9).scale(3)
        assert got == expect

    def test_raising_mode_on_product(self):
        assert virasoro_op(2, 9).apply(t(1) * t(3)) == t(1) * t(1)

    def test_raising_mode_oracle(self):
        # brute-force differentiation of the displayed formula
        rng = random.Random(41)
        W = 8
        for m in (1, 2, 3):
            P = random_tpoly(rng, "t", W)
            expect = TPoly.zero("t", W)
            for k in range(1, W + 1):
                if k + m <= W:
                    expect = expect + P.diff(k + m).mul_var(k, F(k))
            for a in range(1, m):
                b = m - a
                expect = expect + P.diff(a).diff(b).scale(F(1, 2))
            assert virasoro_op(m, W).apply(P) == expect

    def test_rejects_big_t_side(self):
        with pytest.raises(ValueError):
            virasoro_op(1, 9).apply(T(1))


def term_by_term_apply(op, P):
    """The reference for `LinearOp.apply`: one whole TPoly per term, composed
    from `TPoly.diff`, `mul_var` and `scale`, summed into the result."""
    acc = TPoly.zero(P.kind, P.max_weight)
    for key, c in op.terms.items():
        tag = key[0]
        if tag == "id":
            img = P.scale(c)
        elif tag == "m":
            img = P.mul_var(key[1], c)
        elif tag == "mm":
            img = P.mul_var(key[1]).mul_var(key[2], c)
        elif tag == "d":
            img = P.diff(key[1]).scale(c)
        elif tag == "dd":
            img = P.diff(key[1]).diff(key[2]).scale(c)
        else:  # "md": differentiate by key[2], then multiply by key[1]
            img = P.diff(key[2]).mul_var(key[1], c)
        acc = acc + img
    return acc


def _weight(kind, v):
    return v if kind == "t" else 2 * v + 1


def _variables(kind, cap):
    return list(range(1, cap + 1)) if kind == "t" else list(range(0, (cap - 1) // 2 + 1))


_TAG_ARITY = {"id": 0, "m": 1, "mm": 2, "d": 1, "dd": 2, "md": 2}

rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 5))
hbar_laurent = st.dictionaries(st.integers(-2, 2), rationals, min_size=1, max_size=3).map(HbarPoly)
nonzero_laurent = hbar_laurent.filter(lambda h: not h.is_zero())
hbar_free = rationals.map(HbarPoly.const)


@st.composite
def apply_cases(draw, kinds=("t", "T"), tags=tuple(_TAG_ARITY), cap_monos=False, op_coeffs=hbar_laurent, coeffs=hbar_laurent):
    kind = draw(st.sampled_from(kinds))
    cap = draw(st.integers(1, 9) if kind == "t" else st.integers(1, 11))
    variables = _variables(kind, cap)
    items = []
    for tag in draw(st.lists(st.sampled_from(tags), max_size=7)):
        idx = [draw(st.sampled_from(variables)) for _ in range(_TAG_ARITY[tag])]
        items.append((tag, *idx, draw(op_coeffs)))
    op = LinearOp.from_terms(kind, items)
    monos = weight_monomials(kind, cap)
    if cap_monos:
        monos = [m for m in monos if sum(_weight(kind, v) * e for v, e in m) == cap]
    terms = draw(st.dictionaries(st.sampled_from(monos), coeffs, max_size=6))
    return op, TPoly(kind, cap, terms)


class TestFusedApply:
    """`LinearOp.apply` against the term-by-term reference, exactly."""

    @given(apply_cases())
    def test_matches_term_by_term(self, case):
        op, P = case
        assert op.apply(P) == term_by_term_apply(op, P)

    @pytest.mark.parametrize("tag", sorted(_TAG_ARITY))
    @pytest.mark.parametrize("kind", ["t", "T"])
    def test_each_tag_on_each_side(self, tag, kind):
        @given(apply_cases(kinds=(kind,), tags=(tag,)))
        def check(case):
            op, P = case
            assert op.apply(P) == term_by_term_apply(op, P)

        check()

    @given(apply_cases(cap_monos=True))
    def test_monomials_at_the_cap(self, case):
        op, P = case
        assert op.apply(P) == term_by_term_apply(op, P)

    @given(st.sampled_from(["t", "T"]), rationals.filter(bool), st.data())
    def test_dd_with_equal_indices(self, kind, c, data):
        cap = 9
        v = data.draw(st.sampled_from(_variables(kind, cap)))
        op = LinearOp.from_terms(kind, [("dd", v, v, c)])
        terms = data.draw(st.dictionaries(st.sampled_from(weight_monomials(kind, cap)), hbar_laurent, max_size=6))
        P = TPoly(kind, cap, terms)
        assert op.apply(P) == term_by_term_apply(op, P)

    @given(st.sampled_from(["t", "T"]), st.integers(1, 3), nonzero_laurent, st.data())
    def test_image_cancelling_to_zero(self, kind, n, c, data):
        # var_a d/dvar_a multiplies a monomial by its exponent of var_a, so
        # it cancels the scalar -n on every monomial of exponent n in var_a
        cap = 11
        a = data.draw(st.sampled_from([v for v in _variables(kind, cap) if n * _weight(kind, v) <= cap]))
        op = LinearOp.from_terms(kind, [("md", a, a, c), ("id", c * (-n))])
        monos = [m for m in weight_monomials(kind, cap) if dict(m).get(a) == n]
        terms = data.draw(st.dictionaries(st.sampled_from(monos), hbar_laurent, min_size=1, max_size=6))
        P = TPoly(kind, cap, terms)
        got = op.apply(P)
        assert got.is_zero() and got.terms == {}
        assert term_by_term_apply(op, P).is_zero()

    @given(st.integers(1, 3), st.sampled_from(["standard", "theta"]), st.data())
    def test_hbar_inverse_operators(self, k, mode, data):
        W = 4 * k + 1
        trans = translation_op({m: HbarPoly.hbar(-1, F(m + 1, 3)) for m in range(3)}, W, "T")
        terms = data.draw(st.dictionaries(st.sampled_from(weight_monomials("T", W)), hbar_laurent, max_size=6))
        P = TPoly("T", W, terms)
        for op in (w_op(k, W, mode), trans):
            assert op.apply(P) == term_by_term_apply(op, P)

    @given(apply_cases())
    def test_min_weight_drop_matches_the_terms(self, case):
        op, _ = case
        w = lambda v: _weight(op.kind, v)
        drops = {
            "id": lambda: 0,
            "m": lambda a: -w(a),
            "mm": lambda a, b: -w(a) - w(b),
            "d": lambda a: w(a),
            "dd": lambda a, b: w(a) + w(b),
            "md": lambda a, b: w(b) - w(a),
        }
        expect = min((drops[key[0]](*key[1:]) for key in op.terms), default=0)
        assert op.min_weight_drop == expect


class TestIntegerForm:
    """A `LinearOp` holds D·op on integers; `terms` is a view built from it."""

    @given(apply_cases())
    def test_rebuilt_from_its_terms(self, case):
        op, P = case
        terms = op.terms
        assert op.D == math.lcm(*(x.denominator for h in terms.values() for x in h.terms.values()))
        assert all(type(c) is int for pairs in op.pairs.values() for _, c in pairs)
        again = LinearOp(op.kind, terms)
        assert (again.D, again.pairs, again.min_weight_drop) == (op.D, op.pairs, op.min_weight_drop)
        assert again.apply(P) == op.apply(P)

    @given(apply_cases())
    def test_mutating_the_terms_view_leaves_the_op(self, case):
        # the view of a fresh op, changed before the op's first use
        op, P = case
        fresh = LinearOp(op.kind, op.terms)
        view = fresh.terms
        for c in view.values():
            c.terms[0] = coeff(c, 0) + 1
        view[("id",)] = HbarPoly.const(5)
        assert fresh.terms == op.terms
        assert fresh.apply(P) == op.apply(P)

    @pytest.mark.parametrize("kind", ["t", "T"])
    def test_cancelling_items_leave_the_zero_op(self, kind):
        for op in (
            LinearOp.from_terms(kind, [("d", 1, F(1, 3)), ("d", 1, F(-1, 3))]),
            LinearOp(kind, {("d", 1): HbarPoly()}),
            op_scale(w_op(1, 9) if kind == "T" else virasoro_op(1, 9), 0),
        ):
            assert op.is_zero() and op.D == 1
            assert op.pairs == {} and op.terms == {} and op.min_weight_drop == 0

    @pytest.mark.parametrize("key", [("x", 1), ("mmm", 1, 2, 3), ("",)])
    def test_unknown_tag_fails_at_construction(self, key):
        with pytest.raises(ValueError, match="unknown term tag"):
            LinearOp("t", {key: HbarPoly.const(F(1, 2))})
        with pytest.raises(ValueError, match="unknown term tag"):
            LinearOp.from_terms("T", [(*key, F(1, 2))])


class TestHeisenbergModes:
    def test_derivative_mode(self):
        assert heisenberg_op(3, 9).apply(t(3)) == TPoly.one("t", 9)

    def test_multiplication_mode(self):
        assert heisenberg_op(-2, 9).apply(TPoly.one("t", 9)) == t(2).scale(2)

    def test_zero_mode_is_callers_bug(self):
        with pytest.raises(ValueError):
            heisenberg_op(0, 9)

    def test_commutator_is_central(self):
        rng = random.Random(43)
        for k in (1, 2, 3):
            # ambient lift so the raising mode never overflows the cap
            P = random_tpoly(rng, "t", 8, cap=8 + k)
            J = lambda Q, i: heisenberg_op(i, Q.max_weight).apply(Q)
            lhs = J(J(P, -k), k) - J(J(P, k), -k)
            assert lhs == P.scale(k)


def _lift(i):
    return max(0, -i)


class TestCommutatorSuites:
    """The algebra relations, checked on random inputs with an ambient
    weight lift so no intermediate truncation occurs."""

    def test_virasoro_virasoro(self):
        rng = random.Random(47)
        W = 8
        for k in range(-3, 4):
            for m in range(-3, 4):
                amb = W + _lift(k) + _lift(m) + _lift(k + m)
                P = random_tpoly(rng, "t", W, cap=amb)
                L = lambda Q, i: virasoro_op(i, Q.max_weight).apply(Q)
                lhs = L(L(P, m), k) - L(L(P, k), m)
                rhs = L(P, k + m).scale(F(k - m))
                if k + m == 0:
                    rhs = rhs + P.scale(F(k**3 - k, 12))
                assert lhs == rhs, (k, m)

    def test_virasoro_heisenberg(self):
        rng = random.Random(53)
        W = 8
        for k in range(-3, 4):
            for m in (-3, -2, -1, 1, 2, 3):
                amb = W + _lift(k) + _lift(m) + _lift(k + m)
                P = random_tpoly(rng, "t", W, cap=amb)
                L = lambda Q, i: virasoro_op(i, Q.max_weight).apply(Q)
                J = lambda Q, i: heisenberg_op(i, Q.max_weight).apply(Q)
                lhs = L(J(P, m), k) - J(L(P, k), m)
                if k + m == 0:
                    rhs = TPoly.zero("t", amb)
                else:
                    rhs = J(P, k + m).scale(F(-m))
                assert lhs == rhs, (k, m)

    def test_w_generators_commute(self):
        rng = random.Random(59)
        for k in (1, 2):
            for m in (1, 2):
                P = random_tpoly(rng, "T", 9)
                Wk, Wm = w_op(k, 9), w_op(m, 9)
                lhs = Wk.apply(Wm.apply(P)) - Wm.apply(Wk.apply(P))
                assert lhs.is_zero(), (k, m)


class TestWGenerators:
    def test_kills_lowest_variable(self):
        assert w_op(1, 9).apply(T(0)).is_zero()

    def test_action_on_t1(self):
        assert w_op(1, 9).apply(T(1)) == -T(0)

    def test_action_on_t0_squared(self):
        assert w_op(1, 9).apply(T(0) * T(0)) == TPoly.one("T", 9)

    def test_brute_force_oracle(self):
        # independent construction straight from the displayed formula
        rng = random.Random(61)
        W = 9
        M = (W - 1) // 2
        for k in (1, 2):
            for mode, dil_index in (("standard", 1), ("theta", 0)):
                P = random_tpoly(rng, "T", W)
                expect = TPoly.zero("T", W)
                for m in range(0, M + 1):
                    if m + 2 * k - 1 <= M:
                        expect = expect - P.diff(m + 2 * k - 1).mul_var(m)
                if dil_index + 2 * k - 1 <= M:
                    expect = expect + P.diff(dil_index + 2 * k - 1).scale(
                        HbarPoly.hbar(-1)
                    )
                for m in range(0, 2 * k - 1):
                    b = 2 * k - 2 - m
                    if m <= M and b <= M:
                        expect = expect + P.diff(m).diff(b).scale(F((-1) ** m, 2))
                assert w_op(k, W, mode).apply(P) == expect, (k, mode)

    def test_lower_triangular_rejected(self):
        with pytest.raises(ValueError):
            w_op(0, 9)

    def test_weight_drop_bound(self):
        assert w_op(1, 9).min_weight_drop >= 2
        assert w_op(2, 13).min_weight_drop >= 6


class TestExponentials:
    def test_exp_zero_is_identity(self):
        P = t(1) * t(2)
        assert exp_apply(LinearOp("t"), P) == P

    def test_exp_inverse(self):
        rng = random.Random(67)
        a1 = F(3, 5)
        op = virasoro_sum_op([a1], 9)
        for _ in range(5):
            P = random_tpoly(rng, "t", 9)
            assert exp_apply(op, exp_apply(op_scale(op, -1), P)) == P
            assert exp_apply(op, exp_apply(op, P), inverse=True) == P
            assert exp_apply(op, P, inverse=True) == exp_apply(op_scale(op, -1), P)

    @given(apply_cases(tags=("d", "dd", "md")).filter(lambda case: case[0].min_weight_drop >= 1))
    def test_inverse_reads_the_rows_of_the_op(self, case):
        # exp(-op) from op's own rows: the inverse of exp(op), and the
        # exponential of the negated op
        op, P = case
        assert exp_apply(op, exp_apply(op, P), inverse=True) == P
        assert exp_apply(op, exp_apply(op, P, inverse=True)) == P
        assert exp_apply(op, P, inverse=True) == exp_apply(op_scale(op, -1), P)

    @pytest.mark.parametrize("W", range(1, 13))
    def test_virasoro_sum_op_matches_chained_sum(self, W):
        rng = random.Random(W)
        for _ in range(6):
            a = [random_rational(rng) if rng.random() < 0.6 else F(0) for _ in range(rng.randrange(W + 4))]
            assert virasoro_sum_op(a, W).terms == reference_virasoro_sum_op(a, W).terms

    def test_group_element_at_a_larger_cap_acts_as_at_the_polynomials_cap(self, curve132):
        # the conjugation check builds exp(sum a_k L_k) once, at its largest cap
        rng = random.Random(73)
        a = curve132.witt(12)
        big = virasoro_sum_op(a, 12)
        for cap in (4, 7, 12):
            small = virasoro_sum_op(a[:cap], cap)
            for _ in range(3):
                P = random_tpoly(rng, "t", cap)
                assert exp_apply(big, P) == exp_apply(small, P), cap
                assert exp_apply(op_scale(big, -1), P) == exp_apply(op_scale(small, -1), P), cap
                assert exp_apply(big, P, inverse=True) == exp_apply(small, P, inverse=True), cap

    def test_translation_matches_substitution(self):
        rng = random.Random(71)
        shifts = {1: F(1, 2), 3: F(-2, 3), 4: F(5)}
        op = translation_op({k: HbarPoly.const(c) for k, c in shifts.items()}, 9, "t")
        for _ in range(5):
            P = random_tpoly(rng, "t", 9)
            images = {
                v: TPoly.variable("t", v, 9) + TPoly.constant(shifts.get(v, 0), "t", 9)
                for v in P.variables()
            }
            expect = P.substitute(images) if P.variables() else P
            assert exp_apply(op, P) == expect

    def test_nonnilpotent_rejected(self):
        op = LinearOp.from_terms("t", [("m", 1, F(1))])
        with pytest.raises(ValueError, match="terminate"):
            exp_apply(op, t(1))


def series_exp_apply(op, P):
    """The reference for `exp_apply`: sum_n op^n P / n!, each power from
    `term_by_term_apply`, in whole `Fraction` polynomials."""
    acc, term, n = P, P, 0
    while True:
        n += 1
        term = term_by_term_apply(op, term).scale(F(1, n))
        if term.is_zero():
            return acc
        acc = acc + term


def _check_core_numerators(op, P, inverse, f):
    """`_exp_batch` on a batch of one, f·P.num, numerators not in lowest terms,
    against the `Fraction` series of op (of -op with `inverse`)."""
    num = {m: {e: c * f for e, c in slot.items()} for m, slot in P.num.items()}
    ((acc, den),) = _exp_batch(op, [(num, 1)], P.max_weight, inverse)
    assert den > 0 and all(c for slot in acc.values() for c in slot.values())
    expect = series_exp_apply(op_scale(op, -1) if inverse else op, P)
    assert same_value(acc, den * f * P.den, expect.num, expect.den)
    assert exp_apply(op, P, inverse=inverse) == expect
    assert _exp_batch(LinearOp(op.kind), [(num, 1)], P.max_weight, inverse) == [(num, 1)]


def in_normal_form(P):
    """P.num / P.den is in the normal form of `TPoly`: den > 0, no zero
    numerator, no empty slot, and no factor common to den and every
    numerator."""
    values = [c for slot in P.num.values() for c in slot.values()]
    return P.den > 0 and all(P.num.values()) and all(values) and math.gcd(P.den, *values) == 1


class TestIntegerExponential:
    """`exp_apply`, which sums on integers, against the `Fraction` series."""

    @pytest.mark.parametrize("kind", ["t", "T"])
    def test_matches_the_series_of_term_by_term_powers(self, kind):
        @given(apply_cases(kinds=(kind,)).filter(lambda case: case[0].min_weight_drop >= 1))
        def check(case):
            op, P = case
            got = exp_apply(op, P)
            assert got == series_exp_apply(op, P)
            assert in_normal_form(got)
            assert exp_apply(LinearOp(kind), P) == P

        check()

    @given(st.sampled_from(["t", "T"]), nonzero_laurent, nonzero_laurent, st.data())
    def test_images_cancelling_to_zero(self, kind, c1, c2, data):
        # c1 d/dx_a + c2 d/dx_b sends m (c2 x_a - c1 x_b) to c1 c2 m - c2 c1 m = 0
        cap = 11
        variables = _variables(kind, cap)
        a, b = data.draw(st.lists(st.sampled_from(variables), min_size=2, max_size=2, unique=True))
        op = LinearOp.from_terms(kind, [("d", a, c1), ("d", b, c2)])
        room = cap - max(_weight(kind, a), _weight(kind, b))
        monos = [m for m in weight_monomials(kind, room) if not {a, b} & {v for v, _ in m}]
        terms = data.draw(st.dictionaries(st.sampled_from(monos), nonzero_laurent, min_size=1, max_size=4))
        xa, xb = (TPoly.variable(kind, v, cap) for v in (a, b))
        kernel = TPoly(kind, cap, terms) * (xa.scale(c2) - xb.scale(c1))
        assert op.apply(kernel).is_zero()
        assert exp_apply(op, kernel) == kernel
        more = data.draw(st.dictionaries(st.sampled_from(weight_monomials(kind, cap)), hbar_laurent, max_size=4))
        P = kernel + TPoly(kind, cap, more)
        got = exp_apply(op, P)
        assert got == series_exp_apply(op, P)
        assert in_normal_form(got)

    @given(st.integers(1, 3), st.sampled_from(["standard", "theta"]), st.data())
    def test_hbar_inverse_operators(self, k, mode, data):
        W = 4 * k + 1
        trans = translation_op({m: HbarPoly.hbar(-1, F(m + 1, 3)) for m in range(3)}, W, "T")
        terms = data.draw(st.dictionaries(st.sampled_from(weight_monomials("T", W)), hbar_laurent, max_size=6))
        P = TPoly("T", W, terms)
        for op in (op_scale(w_op(k, W, mode), F(2, 5)), trans, op_sum(trans, w_op(k, W, mode))):
            got = exp_apply(op, P)
            assert got == series_exp_apply(op, P)
            assert in_normal_form(got)


    @pytest.mark.parametrize("kind", ["t", "T"])
    def test_rows_reused_across_calls(self, kind):
        # one op applied in turn to inputs at several caps: the later calls
        # read the rows the earlier ones compiled on the op
        @given(apply_cases(kinds=(kind,)).filter(lambda case: case[0].min_weight_drop >= 1), st.data())
        def check(case, data):
            op, P = case
            caps = st.integers(1, 9) if kind == "t" else st.integers(1, 11)
            inputs = [P]
            for cap in data.draw(st.lists(caps, min_size=2, max_size=4)):
                terms = data.draw(st.dictionaries(st.sampled_from(weight_monomials(kind, cap)), hbar_laurent, max_size=6))
                inputs.append(TPoly(kind, cap, terms))
            inputs.append(P.scale(F(-3, 2)))  # P's monomials again: every row is already built
            for Q in inputs:
                got = exp_apply(op, Q)
                assert got == series_exp_apply(op, Q)
                assert got == exp_apply(LinearOp(kind, op.terms), Q)
                assert in_normal_form(got)

        check()

    @given(st.sampled_from(["t", "T"]), nonzero_laurent, nonzero_laurent, st.data())
    def test_rows_reused_on_images_cancelling_to_zero(self, kind, c1, c2, data):
        # as in test_images_cancelling_to_zero, but with one op for every
        # input, so the kernel and the inputs after it run on cached rows
        cap = 11
        variables = _variables(kind, cap)
        a, b = data.draw(st.lists(st.sampled_from(variables), min_size=2, max_size=2, unique=True))
        op = LinearOp.from_terms(kind, [("d", a, c1), ("d", b, c2)])
        room = cap - max(_weight(kind, a), _weight(kind, b))
        monos = [m for m in weight_monomials(kind, room) if not {a, b} & {v for v, _ in m}]
        terms = data.draw(st.dictionaries(st.sampled_from(monos), nonzero_laurent, min_size=1, max_size=4))
        xa, xb = (TPoly.variable(kind, v, cap) for v in (a, b))
        kernel = TPoly(kind, cap, terms) * (xa.scale(c2) - xb.scale(c1))
        more = data.draw(st.dictionaries(st.sampled_from(weight_monomials(kind, cap)), hbar_laurent, max_size=4))
        for Q in (kernel, kernel + TPoly(kind, cap, more), kernel.scale(F(2, 7)), TPoly(kind, cap, more)):
            got = exp_apply(op, Q)
            assert got == series_exp_apply(op, Q)
            assert got == exp_apply(LinearOp(kind, op.terms), Q)
            assert in_normal_form(got)
        assert exp_apply(op, kernel) == kernel

    @given(apply_cases().filter(lambda case: case[0].min_weight_drop >= 1), st.booleans(), st.integers(1, 6))
    def test_core_numerators_over_their_denominator(self, case, inverse, f):
        # the integer core on numerators not in lowest terms, f·P.num, as
        # the conjugation check feeds it, against the Fraction series
        _check_core_numerators(*case, inverse, f)

    @pytest.mark.parametrize("inputs", ["hbar0", "laurent"])
    def test_hbar_free_ops_in_both_iterate_forms(self, inputs):
        # an op with hbar^0 coefficients only iterates on monomial ids when
        # its input is at hbar^0 too (as in the conjugation check), and on
        # (id, hbar exponent) keys when the input carries other exponents
        coeffs = hbar_free if inputs == "hbar0" else hbar_laurent
        cases = apply_cases(tags=("d", "dd", "md"), op_coeffs=hbar_free, coeffs=coeffs)

        @given(cases.filter(lambda case: case[0].min_weight_drop >= 1), st.booleans(), st.integers(1, 6))
        def check(case, inverse, f):
            op, P = case
            exps = {e for slot in P.num.values() for e in slot}
            assert all(set(c.terms) == {0} for c in op.terms.values())
            if inputs == "hbar0":
                assert exps <= {0}
            else:
                assume(exps - {0})
            _check_core_numerators(op, P, inverse, f)

        check()

    @pytest.mark.parametrize("inverse", [False, True])
    def test_the_loop_returns_its_inputs_on_a_zero_op(self, inverse):
        # the trivial curve's group element is zero, and `conjugation`
        # sends its images through the loop as they are
        us = [{0: 3, 2: -5}, {(1, -1): 7, (1, 0): 2}, {}]
        got = operators._exp_lockstep(LinearOp("t"), us, 6, inverse, [1, 4, 9], [True, False, True])
        assert got == [(us[0], 1), (us[1], 4), (us[2], 9)]

    def test_each_row_is_built_once_per_op(self, curve132, monkeypatch):
        # the conjugation check applies the curve's one group element, as V
        # and as V^{-1}, to many inputs; each monomial it reaches enters the
        # row builder once, over the check and its flip-sign control on the
        # same curve together.  Every application, through `exp_apply` or
        # not, runs the lockstep loop `_exp_lockstep`, so the loop and the
        # row builder it calls are what is watched.  A fresh curve: the
        # session's curve132 may carry the rows of earlier tests.  Rows
        # first reached after the check forks its worker are built once in
        # each process; the counters here see the calling process alone.
        curve = build_curve(curve132.params, curve132.K)
        real_exp, real_rows = operators._exp_lockstep, operators.LinearOp.compile_rows
        inside, exp_calls, kernel_calls = [0], [], []

        def counting_exp(op, *args):
            exp_calls.append(op)
            inside[0] += 1
            try:
                return real_exp(op, *args)
            finally:
                inside[0] -= 1

        def counting_rows(op, ids):
            if inside[0]:
                kernel_calls.append((op, [op.monos[i] for i in ids]))
            return real_rows(op, ids)

        monkeypatch.setattr(operators, "_exp_lockstep", counting_exp)
        monkeypatch.setattr(operators.LinearOp, "compile_rows", counting_rows)
        for flip_sign in (False, True):
            rep = virasoro_conjugation_check(curve, 4, flip_sign=flip_sign)
            assert rep.passed != flip_sign and rep.checked > 0
        reached = Counter((id(op), mono) for op, monos in kernel_calls for mono in monos)
        assert reached and max(reached.values()) == 1
        assert len(kernel_calls) <= len(reached)
        # one group element: V^{-1} reads V's rows, and the control reads
        # the same element as the check
        assert len({id(op) for op, _ in kernel_calls}) == 1
        assert len({id(op) for op in exp_calls}) == 1
        # the reuse is real: many more applications than ops
        assert len(exp_calls) > 10


integer_laurent = st.dictionaries(st.integers(-2, 2), st.integers(-6, 6), min_size=1, max_size=3).map(HbarPoly)


def _drawn_poly(data, kind, cap, coeffs=hbar_laurent, size=6):
    terms = data.draw(st.dictionaries(st.sampled_from(weight_monomials(kind, cap)), coeffs, max_size=size))
    return TPoly(kind, cap, terms)


class TestNormalForm:
    """Every operation returns num / den in normal form, and equality on
    that form is structural."""

    @given(apply_cases(), st.data())
    def test_every_operation_returns_normal_form(self, case, data):
        op, P = case
        kind, cap = P.kind, P.max_weight
        Q = _drawn_poly(data, kind, cap)
        images = {v: _drawn_poly(data, kind, cap, size=3) for v in P.variables()}
        results = [
            P + Q,
            P - Q,
            P.scale(data.draw(nonzero_laurent)),
            P * Q,
            P.substitute(images),
            with_max_weight(P, data.draw(st.integers(0, cap))),
            op.apply(P),
        ]
        if op.min_weight_drop >= 1:
            results.append(exp_apply(op, P))
        for R in results:
            assert in_normal_form(R)

    @given(st.sampled_from(["t", "T"]), st.integers(2, 30), st.integers(2, 30), st.data())
    def test_ring_laws_with_coprime_denominators(self, kind, p, q, data):
        assume(math.gcd(p, q) == 1)
        cap = data.draw(st.integers(1, 9))
        P = _drawn_poly(data, kind, cap, integer_laurent).scale(F(1, p))
        Q = _drawn_poly(data, kind, cap, integer_laurent).scale(F(1, q))
        assert math.gcd(P.den, Q.den) == 1
        assert P * Q == Q * P
        assert (P + Q) - Q == P
        assert all(in_normal_form(R) for R in (P, Q, P * Q, P + Q))


class TestGiventalAction:
    def test_zero_couplings_identity(self):
        rng = random.Random(73)
        P = random_tpoly(rng, "T", 9)
        assert givental_direct({}, 9)(P) == P

    def test_exponential_series_oracle(self):
        # termwise Horner evaluation of exp(c W_1), independent of exp_apply
        rng = random.Random(79)
        for c in (F(1), F(1, 2), F(-2, 3)):
            P = random_tpoly(rng, "T", 9)
            expect = TPoly.zero("T", 9)
            term = P
            n = 0
            while not term.is_zero():
                expect = expect + term
                n += 1
                term = w_op(1, 9).apply(term).scale(F(c, n))
            assert givental_direct({1: c}, 9)(P) == expect

    def test_factorized_identity_for_trivial_r(self):
        rng = random.Random(83)
        P = random_tpoly(rng, "T", 9)
        curve = _trivial_flow_curve(12)  # R = 1
        assert givental_factorized(curve.R, 9, kernel=givental_kernel(curve, 9))(P) == P

    @pytest.mark.parametrize("q,p,s", [(1, 3, 2), (-1, 2, 1)], ids=["(1,3,2)", "(-1,2,1)"])
    def test_direct_equals_factorized_on_basis(self, q, p, s):
        W = 9
        par = CurveParams(F(q), F(p), F(s))
        order = 2 * ((W - 1) // 2 + 1)
        curve = build_curve(par, order)
        couplings = couplings_from_log_r(log_r_series(par, order), W)
        direct = givental_direct(couplings, W)
        factorized = givental_factorized(curve.R, W, kernel=givental_kernel(curve, W))
        for mono in weight_monomials("T", W):
            P = TPoly("T", W, {mono: 1})
            assert direct(P) == factorized(P), mono

    def test_theta_mode_on_constant(self):
        par = CurveParams(F(1), F(3), F(2))
        curve = build_curve(par, 10)
        P = TPoly.one("T", 9)
        couplings = couplings_from_log_r(log_r_series(par, 10), 9)
        factorized = givental_factorized(curve.R, 9, "theta", kernel=givental_kernel(curve, 9))
        assert factorized(P) == givental_direct(couplings, 9, "theta")(P)

    def test_mumford_couplings_match_miwa(self):
        # B_{2k}/(2k)! * s_k with the Miwa weights (-p, -q, pq/(p+q))
        # reproduces the odd-log coefficients exactly
        from hodgekp.curve import bernoulli

        for par in (CurveParams(F(1), F(3), F(2)), CurveParams(F(3), F(1), F(2))):
            logR = log_r_series(par, 11)
            u = (-par.p, -par.q, par.p * par.q / (par.p + par.q))
            for k in (1, 2, 3):
                sk = _factorial(2 * k - 2) * sum(x ** (2 * k - 1) for x in u)
                ck = bernoulli(2 * k) / _factorial(2 * k) * sk
                assert ck == coeff(logR, 2 * k - 1), k

    def test_affine_images_carry_translation_constants(self):
        # T_k -> sum_m rb_{k-m} T_m + hbar^{-1} delta_k, rb = R(-z): the
        # dilaton shift of T_1 ("standard") gives delta_k = -rb_{k-1} from
        # k = 2 on, that of T_0 ("theta") delta_k = -rb_k from k = 1 on
        par = CurveParams(F(1), F(3), F(2))
        R = r_series(par, 10)
        rb = R.subs_neg()
        deltas = {"standard": {2: -coeff(rb, 1)}, "theta": {1: -coeff(rb, 1), 2: -coeff(rb, 2)}}
        for mode, delta in deltas.items():
            images = transformed_variable_images(R, 9, mode)
            for k in range(3):
                expect = TPoly.constant(HbarPoly.hbar(-1, delta.get(k, 0)), "T", 9)
                for m in range(k + 1):
                    expect = expect + T(m).scale(coeff(rb, k - m))
                assert images[k] == expect, (mode, k)


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def _record_built_ops(mp):
    """The list of every op that `LinearOp.from_terms` returns from now on."""
    built = []
    real = LinearOp.from_terms.__func__

    def recording(cls, kind, items):
        built.append(real(cls, kind, items))
        return built[-1]

    mp.setattr(LinearOp, "from_terms", classmethod(recording))
    return built


def _same_op(got, expect):
    return (got.kind, got.D, list(got.pairs.items()), got.min_weight_drop) == (
        expect.kind,
        expect.D,
        list(expect.pairs.items()),
        expect.min_weight_drop,
    )


class TestOneOperatorPerMap:
    """`givental_direct` and `tqp_forms` build one op each, straight from
    the terms of their generators, with the D and pairs (in order) of the
    chained sum of scaled generators."""

    @pytest.mark.parametrize("point", CATALOG, ids=lambda p: p.label())
    def test_direct_op(self, point, monkeypatch):
        for W in (5, 11):
            couplings = couplings_from_log_r(log_r_series(point, 2 * W), W)
            for mode in ("standard", "theta"):
                expect = reference_direct_op(couplings, W, mode)
                with monkeypatch.context() as mp:
                    built = _record_built_ops(mp)
                    givental_direct(couplings, W, mode)
                assert _same_op(built[-1], expect), (W, mode)

    @pytest.mark.parametrize("point", CATALOG, ids=lambda p: p.label())
    def test_tqp_op(self, point, monkeypatch):
        for W in (5, 11):
            expect = reference_tqp_op(point, W)
            with monkeypatch.context() as mp:
                built = _record_built_ops(mp)
                tqp_forms(point, 2, W)
            assert _same_op(built[-1], expect), W


class TestChangeOfVariables:
    def test_lowest_form(self):
        par = CurveParams(F(1), F(3), F(2))
        forms = tqp_forms(par, 2, 9)
        assert forms[0] == t(1)

    def test_first_form_generic(self):
        for q, p, s in [(1, 3, 2), (3, 1, 2), (-1, 2, 1)]:
            par = CurveParams(F(q), F(p), F(s))
            forms = tqp_forms(par, 1, 9)
            expect = (
                t(1).scale(par.q)
                + t(2).scale(2 * (2 * par.q + par.p) / par.s)
                + t(3).scale(3)
            )
            assert forms[1] == expect

    def test_first_form_132(self):
        forms = tqp_forms(CurveParams(F(1), F(3), F(2)), 1, 9)
        assert forms[1] == t(1) + t(2).scale(5) + t(3).scale(3)

    def test_symbol_calculus_cross_check(self):
        for q, p, s in [(1, 3, 2), (-1, 2, 1), (0, 4, 2)]:
            par = CurveParams(F(q), F(p), F(s))
            assert tqp_forms(par, 4, 11) == tqp_forms_symbolic(par, 4, 11)

    def test_parity_preserved_at_reduction_locus(self):
        par = CurveParams(F(-1), F(2), F(1))  # p = -2q
        for form in tqp_forms(par, 3, 9):
            assert all(v % 2 == 1 for mono in form.terms for v, _ in mono)

    def test_forms_stay_linear(self):
        for form in tqp_forms(CurveParams(F(1), F(3), F(2)), 4, 11):
            assert form.is_linear()


class TestVariableRelabeling:
    def test_round_trip(self):
        rng = random.Random(89)
        P = random_tpoly(rng, "T", 9)
        assert odd_t_to_big_t(big_t_to_odd_t(P)) == P

    def test_scaling(self):
        assert big_t_to_odd_t(T(1)) == t(3).scale(3)
        assert odd_t_to_big_t(t(5)) == T(2).scale(F(1, 15))

    def test_even_variables_rejected(self):
        with pytest.raises(ValueError, match="even"):
            odd_t_to_big_t(t(2))


def _identity(items):
    return list(items)


def _halved(items):
    return [(num, 2 * den) for num, den in items]


class TestEqualityHarness:
    """`operator_equality_check` compares the integer cores of two maps."""

    def test_identity_vs_identity(self):
        basis = [TPoly("t", 6, {m: 1}) for m in weight_monomials("t", 6)]
        rep = operator_equality_check(_identity, _identity, basis, "id")
        assert rep.passed and rep.checked == len(basis)

    def test_detects_difference(self):
        basis = [t(1, 6)]
        rep = operator_equality_check(_identity, _halved, basis, "x2")
        assert not rep.passed
        assert rep.failures == [{"input": "(1)*t1", "difference": "(1/2)*t1"}]

    def test_unreduced_images_compare_by_value(self):
        # the same value over a multiple of its denominator, with a zero
        def unreduced(items):
            out = []
            for num, den in items:
                num = {m: {e: 6 * c for e, c in slot.items()} for m, slot in num.items()}
                num.setdefault((), {})[5] = 0
                out.append((num, 6 * den))
            return out

        basis = [TPoly("t", 6, {m: F(1, 3)}) for m in weight_monomials("t", 6)]
        assert operator_equality_check(_identity, unreduced, basis).passed

    def test_empty_basis_does_not_pass(self):
        rep = operator_equality_check(_identity, _halved, [], "empty")
        assert rep.checked == 0 and not rep.failures
        assert not rep.passed
        assert rep.to_json_obj()["status"] == "fail"


@st.composite
def batches(draw, kind, cap):
    """0 to 4 values (num, den) of `kind`-side polynomials of weight cap W,
    each over its own denominator, some with hbar^0 coefficients only:
    num and den times f, f = 3^330 for one whose denominator passes
    `_chain`'s 512-bit rule."""
    out = []
    for _ in range(draw(st.integers(0, 4))):
        coeffs = draw(st.sampled_from([hbar_free, hbar_laurent]))
        P = TPoly(kind, cap, draw(st.dictionaries(st.sampled_from(weight_monomials(kind, cap)), coeffs, max_size=5)))
        f = draw(st.sampled_from([1, 2, 7, 3**330]))
        out.append(({m: {e: c * f for e, c in slot.items()} for m, slot in P.num.items()}, P.den * f))
    return out


def _value(kind, cap, item):
    return TPoly._normal(kind, cap, *item)


exp_cases = apply_cases(tags=("d", "dd", "md")).filter(lambda case: case[0].min_weight_drop >= 1)
hbar_free_exp_cases = apply_cases(tags=("d", "dd", "md"), op_coeffs=hbar_free).filter(
    lambda case: case[0].min_weight_drop >= 1
)


class TestBatchForm:
    """A core maps a batch, a list of (num, den), to the list of the images
    of its elements, each equal in value to that element's image alone;
    the empty batch maps to the empty list."""

    @given(exp_cases | hbar_free_exp_cases, st.booleans(), st.data())
    def test_exponential(self, case, inverse, data):
        op, P = case
        kind, cap = P.kind, P.max_weight
        items = data.draw(batches(kind, cap))
        got = _exp_batch(op, items, cap, inverse)
        assert len(got) == len(items)
        for item, image in zip(items, got):
            # finished over its own denominator: the integers of the element alone
            assert image == _exp_batch(op, [item], cap, inverse)[0]
            expect = series_exp_apply(op_scale(op, -1) if inverse else op, _value(kind, cap, item))
            assert same_value(*image, expect.num, expect.den)

    @given(st.sampled_from(["t", "T"]), st.sampled_from(["t", "T"]), st.integers(1, 9), st.data())
    def test_substitution(self, kind, image_kind, cap, data):
        monos = weight_monomials(image_kind, cap)
        images = {
            v: TPoly(image_kind, cap, data.draw(st.dictionaries(st.sampled_from(monos), hbar_laurent, max_size=3)))
            for v in _variables(kind, cap)
        }
        items = data.draw(batches(kind, cap))
        got = operators._substitute_core(images, image_kind, cap)(items)
        assert len(got) == len(items)
        for item, image in zip(items, got):
            expect = _value(kind, cap, item).substitute(images)
            assert same_value(*image, expect.num, expect.den)

    @given(exp_cases | hbar_free_exp_cases, st.data())
    def test_chain(self, case, data):
        # intermediates past 512 bits are brought to lowest terms, each alone
        op, P = case
        kind, cap = P.kind, P.max_weight
        items = data.draw(batches(kind, cap))
        got = operators._chain(operators._exp_core(op, cap), operators._exp_core(op, cap))(items)
        assert len(got) == len(items)
        for item, image in zip(items, got):
            expect = exp_apply(op, exp_apply(op, _value(kind, cap, item)))
            assert same_value(*image, expect.num, expect.den)

    @given(st.integers(1, 9), st.data())
    def test_odd_times_to_big_t(self, cap, data):
        odd = [m for m in weight_monomials("t", cap, odd_only=True)]
        items = []
        for _ in range(data.draw(st.integers(0, 4))):
            P = TPoly("t", cap, data.draw(st.dictionaries(st.sampled_from(odd), hbar_laurent, max_size=4)))
            items.append((P.num, P.den))
        got = operators._odd_t_to_big_t(items)
        assert [_value("T", cap, image) for image in got] == [odd_t_to_big_t(_value("t", cap, item)) for item in items]

    def test_a_band_out_of_range_is_an_invariant_violation(self):
        band = operators.BAND
        # element 1's exponent -1, and exponents at the edges of element 0's band
        edges = {(): {band - 1: 3, band // 2 - 1: 5, -band // 2: 7}}
        assert operators._split_bands(edges, 2) == [{(): {band // 2 - 1: 5, -band // 2: 7}}, {(): {-1: 3}}]
        for E in (2 * band, -band, band + band // 2):
            with pytest.raises(InvariantViolation, match="outside the bands of a batch of 2"):
                operators._split_bands({((1, 1),): {E: 1}}, 2)


class TestRows:
    """A row of an exponentiable op, built from the derivative walk alone,
    is the image of its unit monomial under D·op."""

    @given(exp_cases | hbar_free_exp_cases)
    def test_each_row_is_the_image_of_its_monomial(self, case):
        # "d", "dd" and "md" with w(a) < w(b), on both sides, with
        # hbar-Laurent and fractional coefficients
        op, P = case
        kind, cap = P.kind, P.max_weight
        assert op.hbar_free == all(e == 0 for c in op.terms.values() for e in c.terms)
        monos = weight_monomials(kind, cap)
        ids = [op.number(mono) for mono in monos]
        op.compile_rows(ids)
        for mono, i in zip(monos, ids):
            row = op.rows[i]
            # no merge: one nonzero entry per (target, hbar exponent)
            assert all(c for _, _, c in row)
            assert len({(j, e) for j, e, _ in row}) == len(row)
            image = {}
            for j, e, c in row:
                image.setdefault(op.monos[j], {})[e] = F(c, op.D)
            got = TPoly(kind, cap, {m: HbarPoly(slot) for m, slot in image.items()})
            assert got == term_by_term_apply(op, TPoly(kind, cap, {mono: 1})), mono


class TestFactorizationOfGroupElement:
    def test_grunsky_kernel_factorization(self, curve132):
        rep = virasoro_factorization_check(curve132, 6)
        assert rep.passed


def _trivial_flow_curve(K):
    zK = ZSeries.z(K)
    x = ZSeries.from_terms({2: F(1, 2)}, K)
    return CurveSeries(None, K, x, zK, zK, zK, ZSeries.one(K), ZSeries.one(K),
                       ZSeries.from_terms({}, K), ZSeries.one(K // 2))


def polynomial_conjugation_report(curve, W, flip_sign=False):
    """The reference for `virasoro_conjugation_check` over all modes: the
    same products as whole polynomials, V^{-1}m and V through `exp_apply`,
    J_k and X_k through `LinearOp.apply`, compared as `TPoly` values."""
    max_cap = 2 * W
    big = virasoro_sum_op(curve.witt(max_cap), max_cap)
    flow, mult = _current_transform_series(curve, max_cap, W)
    report = EqualityReport(label=f"current-conjugation W={W}")
    for k in [k for k in range(-W, W + 1) if k]:
        cap = W + max(0, -k)
        rhs = operators._current_transform_coeffs(k, cap, flow, mult)
        jk = heisenberg_op(k, cap)
        for mono in weight_monomials("t", W):
            inv = exp_apply(big, TPoly("t", W, {mono: 1}), inverse=not flip_sign)
            left = exp_apply(big, jk.apply(with_max_weight(inv, cap)), inverse=flip_sign)
            right = rhs.apply(TPoly("t", cap, {mono: 1}))
            report.checked += 1
            if left != right:
                report.failures.append({"mode": k, "input": mono_str("t", mono), "difference": repr(left - right)})
                if flip_sign:
                    return report
    return report


def _count_forks(monkeypatch):
    """The pids of the workers `os.fork` starts from here, as they start."""
    forks, real = [], os.fork

    def counting():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def _running(pid):
    """Whether the process pid exists and is not a zombie (an orphan's
    new parent may not reap it at once)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestConjugation:
    """The check with its basis split between the caller and one forked
    worker; `TestConjugationInProcess` runs every test again with the whole
    basis in process."""

    @pytest.fixture(autouse=True)
    def path(self):
        with cpus(2):
            yield "split"

    def test_forks_one_worker_on_the_split_path(self, curve132, path, monkeypatch):
        forks = _count_forks(monkeypatch)
        assert virasoro_conjugation_check(curve132, 3).passed
        assert len(forks) == (1 if path == "split" else 0)
        _assert_no_child()

    def test_trivial_curve_all_modes(self):
        rep = virasoro_conjugation_check(_trivial_flow_curve(14), 4)
        assert rep.passed

    def test_catalog_point(self, curve132):
        rep = virasoro_conjugation_check(curve132, 5)
        assert rep.passed
        assert rep.to_json_obj() == polynomial_conjugation_report(curve132, 5).to_json_obj()

    def test_flipped_sign_fails_first_order(self, curve132):
        rep = virasoro_conjugation_check(curve132, 5, flip_sign=True)
        assert not rep.passed

    def test_flipped_sign_report(self, curve132):
        # the control stops at its first witness, the lowest mode on 1
        rep = virasoro_conjugation_check(curve132, 5, flip_sign=True)
        assert rep.checked == 1
        assert rep.failures == [
            {
                "mode": -5,
                "input": "1",
                "difference": "(24605/2592)*t1 + (-3845/144)*t2 + (65/8)*t3 + (-100/3)*t4",
            }
        ]
        assert rep.to_json_obj() == polynomial_conjugation_report(curve132, 5, flip_sign=True).to_json_obj()

    @pytest.mark.parametrize(
        "mode, mutation",
        [(-2, "coefficient"), (3, "coefficient"), (3, "extra"), (-2, "dropped"), (3, "dropped"), (-5, "unnumbered")],
    )
    def test_mutated_modes_fail_as_in_the_polynomial_comparison(self, curve132, monkeypatch, mode, mutation):
        # X_k changed by 1/7 in one coefficient (of t_2 for k = -2), by one
        # extra term, (1/7) d/dt_1 or (1/7) t_6 (whose images lie off V's
        # ids), or without one term that acts on the basis
        mutated_current_mode(monkeypatch, mode, mutation, 5)
        rep = virasoro_conjugation_check(curve132, 5)
        expect = polynomial_conjugation_report(curve132, 5)
        assert not rep.passed
        assert {f["mode"] for f in rep.failures} == {mode}
        assert rep.failures[0] == expect.failures[0]
        assert (rep.checked, rep.failures) == (expect.checked, expect.failures)
        # the failures fall on both halves of the split basis
        position = {mono_str("t", m): i for i, m in enumerate(weight_monomials("t", 5))}
        assert {position[f["input"]] % 2 for f in rep.failures} == {0, 1}

    def test_no_modes_does_not_pass(self, curve132):
        # at W = 0 there is no mode k != 0 in [-W, W]
        rep = virasoro_conjugation_check(curve132, 0)
        assert rep.checked == 0
        assert not rep.passed
        assert rep.to_json_obj()["status"] == "fail"

    @pytest.mark.parametrize("point", CATALOG, ids=lambda p: p.label())
    def test_flow_series_match_two_products_per_j(self, point):
        # one running product per j against (z/h)^(j+1) times h'
        curve = build_curve(point, 15)
        for max_j in range(1, 15):
            h = curve.h.truncate(max_j + 1)
            hp = h.derivative()
            inv = h.shift(-1).recip()
            flow, _ = _current_transform_series(curve, max_j, 0)
            power = inv
            for j in range(1, max_j + 1):
                power = power * inv
                expect = (hp * power).truncate(min(hp.order, power.order))
                got = flow[j]
                assert (got.num, got.den, got.order) == (expect.num, expect.den, expect.order)

    @pytest.mark.parametrize("point", CATALOG, ids=lambda p: p.label())
    def test_flow_series_match_unit_pow(self, point):
        # the running product of z/h against one log1p/expm power per j
        curve = build_curve(point, 13)
        h = curve.h
        hp = h.derivative()
        u = h.shift(-1)
        flow, _ = _current_transform_series(curve, 12, 0)
        assert sorted(flow) == list(range(1, 13))
        for j, series in flow.items():
            power = u.unit_pow(-(j + 1))
            assert series == (hp * power).truncate(min(hp.order, power.order)), j


class TestConjugationInProcess(TestConjugation):
    """`TestConjugation` on one CPU, as under `taskset -c 0`: no worker."""

    @pytest.fixture(autouse=True)
    def path(self):
        with cpus(1):
            yield "in-process"


class TestConjugationBatches:
    """The check at W = 7, whose 45 basis positions span several batches of
    `CONJUGATION_BATCH` for each mode, in process and in each half of the
    split."""

    W = 7

    def test_each_element_of_a_batch_as_if_alone(self, curve132, monkeypatch):
        real, batches = operators._exp_lockstep, []

        def spy(op, us, cap, inverse, dens, flat):
            out = real(op, us, cap, inverse, dens, flat)
            batches.append((op, us, cap, inverse, dens, flat, out))
            return out

        monkeypatch.setattr(operators, "_exp_lockstep", spy)
        with cpus(1):
            assert virasoro_conjugation_check(curve132, self.W).passed
        n, size = len(weight_monomials("t", self.W)), operators.CONJUGATION_BATCH
        sizes = [min(size, n - first) for first in range(0, n, size)]
        assert n == 45 and len(sizes) > 1
        # one V^{-1}m per basis monomial, then the batches of every mode
        assert [len(us) for _, us, *_ in batches] == [1] * n + sizes * (2 * self.W)
        for op, us, cap, inverse, dens, flat, out in batches[n:]:
            assert all(flat)
            for alone in zip(us, dens, flat, out):
                assert real(op, [alone[0]], cap, inverse, [alone[1]], [alone[2]]) == [alone[3]]

    @pytest.mark.parametrize("n", [1, 2], ids=["in-process", "split"])
    def test_report(self, curve132, n):
        with cpus(n):
            rep = virasoro_conjugation_check(curve132, self.W)
        assert rep.passed and rep.checked == 2 * self.W * 45
        assert rep.to_json_obj() == polynomial_conjugation_report(curve132, self.W).to_json_obj()

    def test_flipped_sign_report(self, curve132):
        # the control stops at its first witness, inside the first batch
        rep = virasoro_conjugation_check(curve132, self.W, flip_sign=True)
        expect = polynomial_conjugation_report(curve132, self.W, flip_sign=True)
        assert rep.checked == expect.checked == 1
        assert rep.to_json_obj() == expect.to_json_obj()


class TestConjugationSplit:
    """Whatever befalls the pipe, the fork or the worker, the split check
    gives the in-process report or raises the in-process exception, and
    leaves no process and no pipe behind."""

    W = 4

    @pytest.fixture(autouse=True)
    def two_cpus(self):
        with cpus(2):
            yield

    @pytest.fixture
    def expect(self, curve132):
        with cpus(1):
            return virasoro_conjugation_check(curve132, self.W)

    @staticmethod
    def _same(rep, expect):
        assert (rep.checked, rep.failures, rep.passed) == (expect.checked, expect.failures, expect.passed)

    @staticmethod
    def _open_fds():
        return sorted(os.listdir("/proc/self/fd"))

    def _worker_only(self, monkeypatch, action):
        """Run `action` at the worker's first exponential."""
        parent, real, fired = os.getpid(), operators._exp_lockstep, []

        def patched(*args):
            if os.getpid() != parent and not fired:
                fired.append(True)
                action()
            return real(*args)

        monkeypatch.setattr(operators, "_exp_lockstep", patched)

    def _planted(self, monkeypatch, position, message):
        """An invariant violation at one basis position, for every mode."""
        mono = weight_monomials("t", self.W)[position]
        real = operators._apply_plan

        def patched(op, cap, items):
            if items == ((mono, {0: 1}),):
                raise InvariantViolation(message)
            return real(op, cap, items)

        monkeypatch.setattr(operators, "_apply_plan", patched)

    def test_pipe_failure_runs_in_process(self, curve132, expect, monkeypatch):
        def no_pipe():
            raise OSError(24, "Too many open files")

        monkeypatch.setattr(os, "pipe", no_pipe)
        forks = _count_forks(monkeypatch)
        self._same(virasoro_conjugation_check(curve132, self.W), expect)
        assert forks == []

    def test_fork_failure_runs_in_process(self, curve132, expect, monkeypatch):
        def no_fork():
            raise OSError(11, "Resource temporarily unavailable")

        fds = self._open_fds()
        monkeypatch.setattr(os, "fork", no_fork)
        self._same(virasoro_conjugation_check(curve132, self.W), expect)
        assert self._open_fds() == fds
        _assert_no_child()

    def test_split_closes_its_pipe(self, curve132, expect, monkeypatch):
        fds = self._open_fds()
        forks = _count_forks(monkeypatch)
        self._same(virasoro_conjugation_check(curve132, self.W), expect)
        assert len(forks) == 1
        assert self._open_fds() == fds
        _assert_no_child()

    def test_a_worker_that_dies_is_recomputed(self, curve132, expect, monkeypatch):
        self._worker_only(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        forks = _count_forks(monkeypatch)
        self._same(virasoro_conjugation_check(curve132, self.W), expect)
        assert len(forks) == 1
        _assert_no_child()

    def test_a_worker_that_sends_nothing_is_recomputed(self, curve132, expect, monkeypatch):
        monkeypatch.setattr(operators, "marshal", types.SimpleNamespace(dumps=lambda obj: b"", loads=marshal.loads))
        forks = _count_forks(monkeypatch)
        self._same(virasoro_conjugation_check(curve132, self.W), expect)
        assert len(forks) == 1
        _assert_no_child()

    def test_the_worker_never_unwinds_or_flushes(self, curve132, expect, monkeypatch, tmp_path):
        # an unflushed buffer and an exception that would end a process
        # that unwinds: the worker leaves through os._exit all the same
        def leave():
            raise SystemExit(0)

        self._worker_only(monkeypatch, leave)
        path = tmp_path / "buffered.txt"
        with open(path, "w") as fh:
            fh.write("written once\n")
            self._same(virasoro_conjugation_check(curve132, self.W), expect)
        assert path.read_text() == "written once\n"
        _assert_no_child()

    def test_an_invariant_violation_in_the_worker_half_is_raised_here(self, curve132, monkeypatch):
        # basis position 1 belongs to the worker's half
        self._planted(monkeypatch, 1, "planted at t1")
        with cpus(1), pytest.raises(InvariantViolation, match="^planted at t1$"):
            virasoro_conjugation_check(curve132, self.W)
        forks = _count_forks(monkeypatch)
        with pytest.raises(InvariantViolation, match="^planted at t1$"):
            virasoro_conjugation_check(curve132, self.W)
        assert len(forks) == 1
        _assert_no_child()

    def test_the_worker_is_killed_when_the_caller_half_raises(self, curve132, monkeypatch):
        # basis position 0 is the caller's; the worker would sleep a minute
        self._planted(monkeypatch, 0, "planted at 1")
        self._worker_only(monkeypatch, lambda: time.sleep(60))
        forks = _count_forks(monkeypatch)
        start = time.monotonic()
        with pytest.raises(InvariantViolation, match="^planted at 1$"):
            virasoro_conjugation_check(curve132, self.W)
        assert time.monotonic() - start < 30
        assert len(forks) == 1
        _assert_no_child()

    def test_a_killed_caller_leaves_no_worker(self):
        # a split check at W = 10 whose worker would take minutes over its
        # half: each of its exponential steps sleeps 10 ms, over about
        # 9,000 steps, while no batch takes more than about 300 steps, so
        # the worker polls again within the 5 s given below; once the
        # worker runs, the caller gets SIGKILL
        script = (
            "import os, time\n"
            "from fractions import Fraction as F\n"
            "from hodgekp import operators\n"
            "from hodgekp.curve import CurveParams, build_curve\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "real, caller = operators._flat_step, os.getpid()\n"
            "def slowed(*args):\n"
            "    if os.getpid() != caller:\n"
            "        time.sleep(0.01)\n"
            "    return real(*args)\n"
            "operators._flat_step = slowed\n"
            "operators.virasoro_conjugation_check(build_curve(CurveParams(F(4), F(0), F(2)), 22), 10)\n"
        )
        src = os.path.dirname(os.path.dirname(operators.__file__))
        proc = subprocess.Popen([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src})
        worker = None
        try:
            deadline = time.monotonic() + 60
            while worker is None and proc.poll() is None and time.monotonic() < deadline:
                with open(f"/proc/{proc.pid}/task/{proc.pid}/children") as fh:
                    pids = fh.read().split()
                if pids:
                    worker = int(pids[0])
                else:
                    time.sleep(0.01)
            assert worker is not None, "no worker was forked"
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 5
            while _running(worker) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not _running(worker)
        finally:
            proc.kill()
            proc.wait()
            if worker is not None and _running(worker):
                os.kill(worker, signal.SIGKILL)

    @pytest.mark.parametrize("reason", ["one-cpu", "no-fork", "threaded", "flip-sign", "one-monomial"])
    def test_stays_in_process(self, curve132, monkeypatch, reason):
        forks = _count_forks(monkeypatch)
        W, flip_sign = self.W, False
        with cpus(1):
            expect = virasoro_conjugation_check(curve132, W)
        if reason == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif reason == "no-fork":
            monkeypatch.delattr(os, "fork")
        elif reason == "flip-sign":
            flip_sign = True
            with cpus(1):
                expect = virasoro_conjugation_check(curve132, W, flip_sign=True)
        elif reason == "one-monomial":
            # the basis at W = 0 is the monomial 1, and no mode acts on it
            W = 0
            expect = EqualityReport(label=f"current-conjugation W={W}")
        release = threading.Event()
        helper = threading.Thread(target=release.wait)
        if reason == "threaded":
            helper.start()
        try:
            rep = virasoro_conjugation_check(curve132, W, flip_sign=flip_sign)
        finally:
            release.set()
            if reason == "threaded":
                helper.join(10)
        assert not helper.is_alive()
        self._same(rep, expect)
        assert forks == []


@pytest.mark.parametrize("W", [1, 3, 6])
def test_current_memo_reads_the_one_term_of_the_op(W):
    # the memo reads J_k's one term (`_current_term`) without building the
    # op: for every mode the check runs, at its cap and below, it equals the
    # memo unpacked from `heisenberg_op(k, cap)`
    big = operators.group_element(build_curve(CATALOG[0], max(2 * W + 1, 4)), 2 * W)
    ids = [big.number(mono) for mono in weight_monomials("t", W)]
    for k in [k for k in range(-W, W + 1) if k]:
        for cap in range(abs(k) - 1, W + max(0, -k) + 1):
            op = heisenberg_op(k, cap)
            expect = {}
            if not op.is_zero():
                ((tag, v), ((_, c),)), = op.pairs.items()
                assert op.D == 1 and (tag, v, c) == operators._current_term(k)
                for i in ids:
                    mono = big.monos[i]
                    if tag == "m":
                        expect[i] = (big.number(operators._mono_times(mono, v)), c)
                    elif v in dict(mono):
                        expect[i] = (big.number(operators.mono_lower(mono, [u for u, _ in mono].index(v))), c * dict(mono)[v])
            assert operators._current_memo(k, cap, big, ids) == expect, (k, cap)


@pytest.mark.parametrize("point", CATALOG, ids=lambda p: p.label())
def test_current_memo_is_the_current_mode_on_plan_ids(point):
    # the check's J_k memo, read on each V^{-1}m of weight <= W <= 6, is
    # J_k applied to that polynomial
    curve = build_curve(point, 14)
    for W in range(1, 7):
        big = operators.group_element(curve, 2 * W)
        invs = [exp_apply(big, P, inverse=True) for P in operators.unit_monomials("t", W)]
        ids = list(dict.fromkeys(big.number(mono) for inv in invs for mono in inv.num))
        for k in [k for k in range(-W, W + 1) if k]:
            cap = W + max(0, -k)
            memo = operators._current_memo(k, cap, big, ids)
            assert set(memo) <= set(ids)
            assert len({j for j, _ in memo.values()}) == len(memo)  # distinct images
            for inv in invs:
                image = {}
                for mono, slot in inv.num.items():
                    hit = memo.get(big.ids[mono])
                    if hit:
                        image[big.monos[hit[0]]] = {0: slot[0] * hit[1]}
                got = TPoly._normal("t", cap, image, inv.den)
                assert got == heisenberg_op(k, cap).apply(with_max_weight(inv, cap)), (W, k)


class TestConjugationBeyondTheCatalog:
    @given(st.sampled_from([1, 2, 3]), st.integers(-4, 4), st.sampled_from([2, 3, 4]))
    def test_integer_points_pass_alike_on_both_paths(self, s, q, W):
        # the integer points perfbench's seeds draw from: p = s^2 - q
        curve = build_curve(CurveParams(F(q), F(s * s - q), F(s)), 2 * W + 1)
        with cpus(2):
            rep = virasoro_conjugation_check(curve, W)
        assert rep.passed, rep.failures[:1]
        with cpus(1):
            alone = virasoro_conjugation_check(curve, W)
        assert (rep.checked, rep.failures) == (alone.checked, alone.failures)
        assert rep.to_json_obj() == alone.to_json_obj()


class TestShiftTransport:
    """Conjugating the t-side translation vectors by the linear-change
    element reproduces the dilaton-shift translations in the embedded
    variables, on both sides."""

    @pytest.mark.parametrize("mode", ["standard", "theta"])
    def test_translation_conjugation(self, curve132, mode):
        from hodgekp.curve import shift_data

        W = 7
        a = witt_coefficients(curve132.f.truncate(W + 1))
        sd = shift_data(curve132)
        gen = linear_change_generator(a, W)
        src = sd.v if mode == "standard" else sd.v0
        delta, delta0 = dilaton_shifts(curve132)
        dst = delta if mode == "standard" else delta0
        rhs = translation_op(
            {
                2 * k + 1: F(c, double_factorial(2 * k + 1))
                for k, c in dst.items()
                if 2 * k + 1 <= W
            },
            W,
            "t",
        )
        trans = translation_op({k: HbarPoly.const(c) for k, c in src.items()}, W, "t")
        for mono in weight_monomials("t", W, odd_only=True):
            P = TPoly("t", W, {mono: 1})
            lhs = exp_apply(op_scale(gen, -1), trans.apply(exp_apply(gen, P)))
            assert lhs == rhs.apply(P), mono


class TestOperatorIdentification:
    def test_basis_identity_small(self, curve132):
        rep = rl_identity_check(curve132, tqp_forms(curve132.params, 3, 7))
        assert rep.passed and rep.checked == len(weight_monomials("t", 7, odd_only=True))

    def test_mismatched_translation_detected(self, curve132):
        # sanity of the harness: breaking the translation must fail
        from hodgekp.curve import shift_data

        W = 7
        basis = [TPoly("t", W, {((5, 1),): 1})]
        rep = operator_equality_check(
            rl_transform_quantized(curve132, tqp_forms(curve132.params, 3, W)).core,
            _identity,
            basis,
            "broken",
        )
        assert not rep.passed


class TestRouteMaps:
    """Each route map is built for one side and one weight cap; any other
    input is refused rather than acted on by operators cut at the wrong cap."""

    @pytest.mark.parametrize("cap", [7, 11])
    def test_maps_reject_wrong_side_and_cap(self, p132, curve132, cap):
        direct, factorized = givental_routes(curve132, 9)
        cases = [
            (direct, T, t),
            (factorized, T, t),
            (tqp_substitute(tqp_forms(p132, 4, 9)), T, t),
            (rl_transform_quantized(curve132, tqp_forms(p132, 4, 9)), t, T),
            (rl_transform_virasoro(curve132, 9), t, T),
        ]
        for route, own, other in cases:
            with pytest.raises(ValueError, match="weight cap 9"):
                route(other(1))
            with pytest.raises(ValueError, match="weight cap 9"):
                route(own(1, cap))
