import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, strategies as st

from hodgekp.algebra import HbarPoly, TPoly, ZSeries, _substitute_numerators, double_factorial, rat, rat_str, same_value
from hodgekp.kp import specialize_hbar
from hodgekp.operators import unit_monomials, weight_monomials

from conftest import (
    coeff,
    fraction_compose,
    fraction_expm,
    fraction_log1p,
    fraction_mul,
    fraction_product,
    fraction_recip,
    fraction_reversion,
    horner_compose,
    random_series,
    random_tpoly,
    reversion,
)


def z(order):
    return ZSeries.z(order)


def one(order):
    return ZSeries.one(order)


class TestRationals:
    def test_rat_parsing(self):
        assert rat("3/4") == F(3, 4)
        assert rat("-2") == F(-2)
        assert rat(F(1, 3)) == F(1, 3)

    def test_rat_str(self):
        assert rat_str(F(3, 4)) == "3/4"
        assert rat_str(F(-5)) == "-5"

    def test_double_factorial(self):
        assert [double_factorial(n) for n in (-1, 1, 3, 5, 7)] == [1, 1, 3, 15, 105]
        with pytest.raises(ValueError):
            double_factorial(4)


class TestZSeriesRingOps:
    def test_difference_of_squares(self):
        got = (one(5) + z(5)) * (one(5) - z(5))
        assert got == ZSeries.from_terms({0: 1, 2: -1}, 5)

    def test_recip_geometric(self):
        got = (one(3) + z(3)).recip()
        assert got == ZSeries.from_terms({0: 1, 1: -1, 2: 1, 3: -1}, 3)

    def test_cancellation(self):
        a = ZSeries.from_terms({1: 1, 2: F(-5, 2)}, 4)
        b = ZSeries.from_terms({2: F(5, 2)}, 4)
        assert a + b == ZSeries.from_terms({1: 1}, 4)

    def test_recip_requires_unit(self):
        with pytest.raises(ValueError, match="not a unit"):
            z(4).recip()

    def test_ring_axioms_random(self):
        rng = random.Random(5)
        for _ in range(25):
            a, b, c = (random_series(rng, 8) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_min_order_tracking(self):
        a = random_series(random.Random(0), 9)
        b = random_series(random.Random(1), 5)
        assert (a * b).order == 5
        assert (a + b).order == 5


class TestComposition:
    def test_square_compose(self):
        sq = (z(4) * z(4)).truncate(4)
        inner = (z(4) + z(4) * z(4)).truncate(4)
        assert sq.compose(inner) == ZSeries.from_terms({2: 1, 3: 2, 4: 1}, 4)

    def test_compose_with_identity(self):
        rng = random.Random(2)
        a = random_series(rng, 7)
        assert a.compose(z(7)) == a

    def test_compose_rejects_constant_term(self):
        with pytest.raises(ValueError):
            z(4).compose(one(4))

    def test_compose_f_h_is_identity_on_catalog_curve(self):
        # the uniformizer and its inverse at (1,3,2), order 8
        from hodgekp.curve import CurveParams, build_curve

        curve = build_curve(CurveParams(F(1), F(3), F(2)), 8)
        assert curve.f.compose(curve.h) == z(8)
        assert curve.h.compose(curve.f) == z(8)


class TestReversion:
    """The integer Lagrange reversion of the test oracles (`conftest.reversion`)."""

    def test_identity(self):
        assert reversion(z(6)) == z(6)

    def test_z_plus_z2(self):
        got = reversion((z(3) + z(3) * z(3)).truncate(3))
        assert got == ZSeries.from_terms({1: 1, 2: -1, 3: 2}, 3)

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(50):
            a = random_series(rng, 12, monic=True)
            b = reversion(a)
            assert a.compose(b) == z(12)
            assert b.compose(a) == z(12)

    def test_double_reversion(self):
        rng = random.Random(13)
        a = random_series(rng, 12, monic=True)
        assert reversion(reversion(a)) == a

    def test_reversion_brute_force_oracle(self):
        # order-by-order coefficient solve, independent of the library path
        rng = random.Random(7)
        a = random_series(rng, 8, monic=True)
        b = [F(0), F(1)] + [F(0)] * 7
        for n in range(2, 9):
            # choose b_n so that [z^n] a(b) = 0
            trial = ZSeries(b, 8)
            defect = coeff(a.compose(trial), n)
            b[n] = -defect
        assert reversion(a) == ZSeries(b, 8)

    @given(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=6),
            min_size=0,
            max_size=23,
        )
    )
    def test_round_trip_drawn(self, tail):
        # f = z + sum c_k z^k up to K = 24
        K = len(tail) + 1
        f = ZSeries([F(0), F(1), *tail], K)
        h = reversion(f)
        assert f.compose(h) == z(K)
        assert h.compose(f) == z(K)

    def test_requires_normalization(self):
        with pytest.raises(ValueError):
            reversion(one(4) + z(4))
        with pytest.raises(ValueError):
            reversion(z(4).scale(2))


class TestTranscendental:
    def test_log1p(self):
        assert z(3).log1p() == ZSeries.from_terms({1: 1, 2: F(-1, 2), 3: F(1, 3)}, 3)

    def test_expm(self):
        assert z(3).expm() == ZSeries.from_terms(
            {0: 1, 1: 1, 2: F(1, 2), 3: F(1, 6)}, 3
        )

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(10):
            a = random_series(rng, 10)
            a = a - ZSeries.from_terms({0: coeff(a, 0)}, 10)  # kill constant term
            assert a.log1p().expm() == one(10) + a

    def test_rejects_constant_term(self):
        with pytest.raises(ValueError):
            (one(4) + z(4)).log1p()
        with pytest.raises(ValueError):
            (one(4) + z(4)).expm()


class TestSqrtAndCalculus:
    def test_sqrt_z2(self):
        assert (z(6) * z(6)).sqrt_normalized() == z(6)

    def test_sqrt_of_doubled_curve(self):
        # 2x for (q,p,s)=(1,3,2) starts z^2 - (5/3) z^3 + ...
        from hodgekp.curve import CurveParams, build_curve

        curve = build_curve(CurveParams(F(1), F(3), F(2)), 10)
        f = curve.x.scale(2).sqrt_normalized()
        assert coeff(f, 1) == 1 and coeff(f, 2) == F(-5, 6)
        assert (f * f).truncate(f.order).scale(F(1, 2)) == curve.x.truncate(f.order)

    def test_sqrt_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            z(5).sqrt_normalized()
        with pytest.raises(ValueError):
            (z(5) * z(5)).scale(2).sqrt_normalized()

    def test_antiderivative_basic(self):
        assert one(3).antiderivative() == ZSeries.from_terms({1: 1}, 4)

    def test_antiderivative_termwise(self):
        s = ZSeries.from_terms({1: 1, 2: F(-5, 2), 3: F(21, 4)}, 3)
        assert s.antiderivative() == ZSeries.from_terms(
            {2: F(1, 2), 3: F(-5, 6), 4: F(21, 16)}, 4
        )

    def test_derivative_inverts_antiderivative(self):
        rng = random.Random(9)
        a = random_series(rng, 9)
        assert a.antiderivative().derivative() == a


coefficient = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def series(draw, zeros=st.integers(0, 3), terms=st.integers(1, 9), zeros_below=None):
    """A drawn power series with fractional coefficients: `zeros` leading
    zeros, then `terms` drawn coefficients; the coefficients of exponents
    below `zeros_below` (if given) are zero."""
    k, n = draw(zeros), draw(terms)
    coeffs = [0] * k + draw(st.lists(coefficient, min_size=n, max_size=n))
    if zeros_below is not None:
        coeffs = [0 if i < zeros_below else c for i, c in enumerate(coeffs)]
    return ZSeries(coeffs, len(coeffs) - 1)


@st.composite
def units(draw):
    """A unit for 1/A: a constant term other than +-1, so that every power
    of that constant shows in 1/A."""
    n = draw(st.integers(0, 8))
    c0 = draw(coefficient.filter(lambda c: c not in (0, 1, -1)))
    tail = draw(st.lists(coefficient, min_size=n, max_size=n))
    return ZSeries([c0, *tail], n)


nilpotent = series(zeros=st.integers(0, 2), terms=st.integers(2, 9), zeros_below=1)
monic = nilpotent.map(lambda s: s + (ZSeries.z(s.order) - ZSeries.from_terms({1: s.coeff_or_zero(1)}, s.order)))


def in_normal_form(A):
    """A.num / A.den is in the normal form of `ZSeries`: one int per
    exponent 0..order, den > 0 and no factor common to den and every
    numerator."""
    return (
        len(A.num) == A.order + 1
        and all(isinstance(c, int) for c in A.num)
        and A.den > 0
        and math.gcd(A.den, *A.num) == 1
    )


class TestZSeriesNormalForm:
    """Every series operation returns num / den in normal form, and the
    integer operations agree with their `Fraction` oracles."""

    @given(series(), series(), coefficient, st.integers(0, 3))
    def test_every_operation_returns_normal_form(self, a, b, c, k):
        results = [a + b, a - b, -a, a.scale(c), a * b, a.subs_neg(), a.shift(k), a.shift(k).shift(-k)]
        results += [a.truncate(max(0, a.order - 1)), a.antiderivative()]
        if a.order >= 1:
            results.append(a.derivative())
        for R in results:
            assert in_normal_form(R)

    @given(series(), series())
    def test_ring_operations_match_fractions(self, a, b):
        order = min(a.order, b.order)
        expect = [a.coeff_or_zero(e) + b.coeff_or_zero(e) for e in range(order + 1)]
        assert (a + b) == ZSeries(expect, order)
        assert a * b == fraction_mul(a, b)

    @given(units())
    def test_recip_matches_fractions(self, a):
        got = a.recip()
        assert in_normal_form(got)
        assert got == fraction_recip(a)

    @given(nilpotent, coefficient)
    def test_exp_and_log_match_fractions(self, a, e):
        for got, expect in ((a.expm(), fraction_expm(a)), (a.log1p(), fraction_log1p(a))):
            assert in_normal_form(got)
            assert got == expect
        u = a + 1
        assert in_normal_form(u.unit_pow(e))
        assert u.unit_pow(e) == fraction_expm(fraction_log1p(a).scale(e))

    @given(series(), nilpotent)
    def test_compose_matches_fractions(self, a, b):
        got = a.compose(b)
        assert in_normal_form(got)
        assert got == fraction_compose(a, b)

    @given(series(), series(zeros=st.integers(1, 3)), st.integers(2, 9))
    def test_truncated_compose_matches_full_horner(self, a, b, k):
        # an inner series over a denominator > 1, of valuation 1 to 3, at an
        # order other than the outer one's
        inner = b.scale(F(1, k))
        assume(inner.den > 1 and a.order != inner.order)
        got = a.compose(inner)
        assert in_normal_form(got)
        assert got == horner_compose(a, inner)

    @given(monic)
    def test_reversion_matches_fractions(self, f):
        got = reversion(f)
        assert in_normal_form(got)
        assert got == fraction_reversion(f)
        if f.order >= 3:
            root = (f * f).truncate(f.order).sqrt_normalized()
            assert in_normal_form(root)
            assert root == f.truncate(f.order - 1)

    def test_equal_series_multiply_alike(self):
        # z to order 6 is z·(1 + O(z^6)), so its square is known to O(z^8)
        # however z was built
        z6 = ZSeries.z(6)
        for same in (ZSeries.from_terms({1: 1}, 6), ZSeries([0, 1, 0, 0, 0, 0, 0], 6), ZSeries.one(5).shift(1)):
            assert same == z6
            assert same * same == z6 * z6
        assert (z6 * z6).order == 7
        assert z6 * z6 == ZSeries.from_terms({2: 1}, 7)

    @given(series(), series(), st.integers(1, 3))
    def test_leading_zeros_are_data(self, a, b, k):
        # a series written out with k more leading zeros is z^k·a, and
        # multiplies as z^k·a does, to k more orders
        padded = ZSeries([0] * k + [a.coeff_or_zero(e) for e in range(a.order + 1)], a.order + k)
        assert padded == a.shift(k) and padded.shift(-k) == a
        assert padded * b == (a * b).shift(k)
        assert a != a + ZSeries.from_terms({a.order: 1}, a.order)

    def test_shift_below_z0_needs_known_zeros(self):
        s = ZSeries.from_terms({2: 1, 3: F(-1, 2)}, 5)
        assert s.shift(-2) == ZSeries.from_terms({0: 1, 1: F(-1, 2)}, 3)
        with pytest.raises(ValueError):
            s.shift(-3)
        with pytest.raises(ValueError):
            ZSeries.from_terms({}, 2).shift(-3)

    def test_from_terms_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            ZSeries.from_terms({-1: 1, 0: 1}, 3)


class TestTPoly:
    def test_mul_weights(self):
        t1 = TPoly.variable("t", 1, 4)
        t2 = TPoly.variable("t", 2, 4)
        prod = t1 * t2
        assert coeff(prod, ((1, 1), (2, 1))) == HbarPoly.const(1)

    def test_truncation_discards_heavy_monomials(self):
        t1 = TPoly.variable("t", 1, 4)
        t3 = TPoly.variable("t", 3, 4)
        assert ((t1 * t1) * t3).is_zero()

    def test_commutativity_random(self):
        rng = random.Random(17)
        for _ in range(10):
            P = random_tpoly(rng, "t", 10)
            Q = random_tpoly(rng, "t", 10)
            assert P * Q == Q * P

    def test_associativity_distributivity_random(self):
        rng = random.Random(19)
        for _ in range(8):
            P, Q, R = (random_tpoly(rng, "t", 9) for _ in range(3))
            assert (P * Q) * R == P * (Q * R)
            assert P * (Q + R) == P * Q + P * R

    def test_mixed_kinds_error(self):
        with pytest.raises(ValueError, match="kind"):
            TPoly.variable("t", 1, 4) * TPoly.variable("T", 0, 4)

    def test_monomial_keys_are_canonical(self):
        t1 = TPoly.variable("t", 1, 5)
        repeated = TPoly("t", 5, {((1, 1), (1, 1)): 1})
        assert repeated == t1 * t1
        assert TPoly("t", 5, {((3, 1), (1, 2), (3, 0)): F(2, 3)}) == TPoly("t", 5, {((1, 2), (3, 1)): F(2, 3)})
        assert coeff(t1 * t1, ((1, 1), (1, 1))) == HbarPoly.const(1)
        for mono in (((1, 1), (1, -1)), ((2, -1),)):
            with pytest.raises(ValueError, match="negative"):
                TPoly("t", 5, {mono: 1})
            with pytest.raises(ValueError, match="negative"):
                coeff(t1, mono)

    def test_weight_bookkeeping_random(self):
        from hodgekp.algebra import mono_weight

        rng = random.Random(23)
        for _ in range(10):
            P = random_tpoly(rng, "t", 8)
            Q = random_tpoly(rng, "t", 8)
            for out in (P * Q, P + Q, P.diff(1), P.mul_var(2)):
                assert all(mono_weight("t", m) <= 8 for m in out.terms)


def _drawn_tpoly(draw, kind, cap, support):
    """A TPoly with cap `cap` whose monomials have weight <= `support` and
    whose coefficients are hbar-Laurent with denominators up to 7."""
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=7)
    hbar = st.dictionaries(st.integers(-2, 2), coeff, min_size=1, max_size=3)
    monos = weight_monomials(kind, support)
    terms = draw(st.dictionaries(st.sampled_from(monos), hbar, max_size=7))
    return TPoly(kind, cap, {m: HbarPoly(c) for m, c in terms.items()})


class TestIntegerProduct:
    """`TPoly.__mul__` runs on integers over one denominator; the oracle
    multiplies term by term in `Fraction`s."""

    @given(st.data(), st.sampled_from(["t", "T"]), st.integers(0, 9), st.integers(0, 9), st.integers(0, 9))
    def test_matches_fraction_oracle(self, data, kind, cap, support_a, support_b):
        P = _drawn_tpoly(data.draw, kind, cap, support_a)
        Q = _drawn_tpoly(data.draw, kind, cap, support_b)
        # (P + Q)(P - Q): the cross terms cancel inside one product
        for A, B in ((P, Q), (P + Q, P - Q), (Q, P)):
            got = A * B
            assert got == fraction_product(A, B)
            assert all(h.terms and all(h.terms.values()) for h in got.terms.values())

    def test_cancelling_product_stores_no_zero(self):
        t1, t2 = TPoly.variable("t", 1, 4), TPoly.variable("t", 2, 4)
        h = TPoly.constant(HbarPoly({-1: F(1, 7), 2: F(3, 5)}), "t", 4)
        got = (t1 + t2 * h) * (t1 - t2 * h)
        assert got == fraction_product(t1 + t2 * h, t1 - t2 * h)
        assert ((1, 1), (2, 1)) not in got.terms
        assert (t1 * TPoly.zero("t", 4)).terms == {}


class TestSameValue:
    """`same_value` compares two quotients of integer terms, in lowest
    terms or not, zeros allowed; its oracle is `TPoly` equality."""

    @given(st.data(), st.sampled_from(["t", "T"]), st.booleans(), st.integers(-5, 5), st.integers(1, 5))
    def test_is_equality_of_the_quotients(self, data, kind, same, f, g):
        P = _drawn_tpoly(data.draw, kind, 7, 7)
        Q = P if same else _drawn_tpoly(data.draw, kind, 7, 7)
        f = f or 1
        a = {m: {e: c * f for e, c in slot.items()} for m, slot in P.num.items()}
        b = {m: {e: c * g for e, c in slot.items()} for m, slot in Q.num.items()}
        # zero numerators, as a kernel's cancellations leave them
        for m in data.draw(st.lists(st.sampled_from(weight_monomials(kind, 7)), max_size=3)):
            a.setdefault(m, {}).setdefault(data.draw(st.integers(-2, 2)), 0)
        assert same_value(a, P.den * f, b, Q.den * g) == (P == Q)
        assert same_value(b, Q.den * g, a, P.den * f) == (P == Q)


class TestSubstituteNumerators:
    """`_substitute_numerators`, the body of `TPoly.substitute`, on
    unreduced numerators that hold zeros, over arbitrary denominators,
    with images of either side; the oracle sums the products of the
    images in `TPoly` arithmetic."""

    @given(st.data(), st.sampled_from(["t", "T"]), st.sampled_from(["t", "T"]), st.booleans(), st.integers(1, 6))
    def test_equals_substitute_by_value(self, data, kind, image_kind, constant, f):
        cap = data.draw(st.integers(1, 7))
        # without variables: the constant case, as `tqp_substitute` meets it
        support = 0 if constant else cap
        P = _drawn_tpoly(data.draw, kind, cap, support)
        monos = weight_monomials(kind, support)
        images = {v: _drawn_tpoly(data.draw, image_kind, cap, cap) for v in {v for m in monos for v, _ in m}}
        f *= data.draw(st.sampled_from([1, -1]))
        num = {m: {e: c * f for e, c in slot.items()} for m, slot in P.num.items()}
        for m in data.draw(st.lists(st.sampled_from(monos), max_size=3)):
            num.setdefault(m, {}).setdefault(data.draw(st.integers(-2, 2)), 0)
        acc, den = _substitute_numerators(num, P.den * f, images, image_kind, cap)
        expect = TPoly.zero(image_kind, cap)
        for mono, c in P.terms.items():
            term = TPoly.constant(c, image_kind, cap)
            for v, e in mono:
                for _ in range(e):
                    term = term * images[v]
            expect = expect + term
        assert same_value(acc, den, expect.num, expect.den)
        if P.variables():
            assert P.substitute(images) == expect


class TestUnitMonomials:
    @pytest.mark.parametrize("kind, odd_only", [("t", False), ("t", True), ("T", False)])
    def test_equal_the_general_constructor(self, kind, odd_only):
        for W in range(0, 10):
            monos = weight_monomials(kind, W, odd_only=odd_only)
            got = unit_monomials(kind, W, odd_only=odd_only)
            assert len(got) == len(monos)
            for P, m in zip(got, monos):
                Q = TPoly(kind, W, {m: 1})
                assert (P.kind, P.max_weight, P.num, P.den) == (Q.kind, Q.max_weight, Q.num, Q.den)


class TestSubstitution:
    def test_binomial_shift(self):
        P = TPoly.variable("t", 1, 4) * TPoly.variable("t", 1, 4)
        c = F(1, 2)
        image = TPoly.variable("t", 1, 4) + TPoly.constant(c, "t", 4)
        got = P.substitute({1: image})
        expect = (
            P
            + TPoly.variable("t", 1, 4, 2 * c)
            + TPoly.constant(c * c, "t", 4)
        )
        assert got == expect

    def test_identity_substitution(self):
        rng = random.Random(29)
        P = random_tpoly(rng, "t", 9)
        images = {v: TPoly.variable("t", v, 9) for v in P.variables()}
        assert P.substitute(images) == P

    def test_missing_image_errors(self):
        P = TPoly.variable("t", 1, 4)
        with pytest.raises(ValueError, match="missing"):
            P.substitute({})

    def test_homomorphism_random(self):
        rng = random.Random(31)
        for _ in range(6):
            P = random_tpoly(rng, "t", 8, terms=4)
            Q = random_tpoly(rng, "t", 8, terms=4)
            vars_ = sorted(P.variables() | Q.variables())
            images = {v: random_tpoly(rng, "t", 8, terms=3) for v in vars_}
            lhs = (P * Q).substitute(images) if (P * Q).variables() <= set(images) else None
            if lhs is None:
                continue
            rhs = P.substitute({v: images[v] for v in P.variables()}) * Q.substitute(
                {v: images[v] for v in Q.variables()}
            )
            assert lhs == rhs

    def test_lowest_tau_data_under_identification(self):
        # T0^3/6 + T1/24 with T0 -> t1, T1 -> 3 t3 reproduces the lowest
        # generating-function data in the odd times
        from hodgekp.tau import kw_tau
        from hodgekp.operators import odd_t_to_big_t

        body = kw_tau(3).body  # 1 + hbar(t1^3/6 + t3/8)
        T = odd_t_to_big_t(body)
        back = T.substitute(
            {
                0: TPoly.variable("t", 1, 3),
                1: TPoly.variable("t", 3, 3, 3),
            }
        )
        assert back == body


class TestHbarPoly:
    def test_laurent_arithmetic(self):
        a = HbarPoly.hbar(-1, F(3, 2))
        b = HbarPoly.hbar(2, 4)
        assert (a * b) == HbarPoly.hbar(1, 6)
        assert (a + a) == HbarPoly.hbar(-1, 3)

    def test_no_zero_terms_stored(self):
        a = HbarPoly.hbar(1) - HbarPoly.hbar(1)
        assert a.is_zero() and a.terms == {}

    def test_evaluation(self):
        # hbar is evaluated by `kp.specialize_hbar`, coefficient by coefficient
        a = TPoly("t", 0, {(): HbarPoly({-1: F(1), 2: F(3)})})
        assert specialize_hbar(a, F(1, 2)) == TPoly.constant(2 + F(3, 4), "t", 0)
        with pytest.raises(ZeroDivisionError):
            specialize_hbar(a, F(0))

    def test_serialization(self):
        a = HbarPoly({-1: F(1, 3), 0: F(2)})
        assert a.to_json_obj() == {"h^-1": "1/3", "h^0": "2"}


class TestSerialization:
    def test_tpoly_json(self):
        P = TPoly("t", 5, {((1, 1), (3, 1)): HbarPoly.hbar(1, F(2, 3))})
        assert P.to_json_obj() == [
            {"monomial": {"t1": 1, "t3": 1}, "coeff": {"h^1": "2/3"}}
        ]
