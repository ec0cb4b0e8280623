from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from hodgekp import curve as curve_module
from hodgekp.algebra import InvariantViolation, ZSeries
from hodgekp.cli import main
from hodgekp.curve import (
    CATALOG,
    CurveParams,
    CurveSeries,
    bernoulli,
    build_curve,
    gaussian_moments,
    givental_v_matrix,
    grunsky_matrix,
    i_series,
    identification_residual,
    perturbed_control_curve,
    log_r_series,
    shift_data,
    witt_coefficients,
    witt_flow,
)

from conftest import (
    coeff,
    dilaton_shifts,
    r_series,
    reference_inverse,
    reference_witt_coefficients,
    reference_witt_flow,
    x_closed_form,
)


class TestBernoulli:
    def test_first_values(self):
        assert bernoulli(2) == F(1, 6)
        assert bernoulli(4) == F(-1, 30)
        assert bernoulli(6) == F(1, 42)

    def test_rejects_odd_and_nonpositive(self):
        for k in (0, -2, 3, 7):
            with pytest.raises(ValueError):
                bernoulli(k)

    def test_generating_function_oracle(self):
        # x e^x/(e^x - 1) expanded with the series engine, orders up to 8
        K = 9
        ex = ZSeries.z(K).expm()
        gen = ex * (ex - ZSeries.one(K)).shift(-1).recip()
        assert coeff(gen, 0) == 1 and coeff(gen, 1) == F(1, 2)
        for k in (2, 4, 6, 8):
            assert coeff(gen, k) * _factorial(k) == bernoulli(k)


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


class TestCurveParams:
    def test_excluded_locus(self):
        with pytest.raises(ValueError, match="excluded"):
            CurveParams(F(1), F(-1), F(1))

    def test_square_root_validated(self):
        with pytest.raises(ValueError):
            CurveParams(F(1), F(3), F(3))
        # both signs of the root are legal parameter points
        CurveParams(F(1), F(3), F(-2))

    def test_immutable_value_and_one_dict_key(self):
        point = CurveParams(1, "3", F(2))
        assert (point.q, point.p, point.s) == (F(1), F(3), F(2))
        for name in ("q", "s", "other"):
            with pytest.raises(AttributeError):
                setattr(point, name, F(5))
        with pytest.raises(AttributeError):
            del point.q
        assert point == CurveParams(F(1), F(3), F(2)) != CurveParams(F(1), F(3), F(-2))
        assert point != (F(1), F(3), F(2))
        assert {point: 1, CurveParams(F(1), F(3), F(2)): 2} == {point: 2}
        assert repr(point) == "CurveParams(q=Fraction(1, 1), p=Fraction(3, 1), s=Fraction(2, 1))"


class TestBuildCurve:
    def test_x_expansion_132(self):
        c = build_curve(CurveParams(F(1), F(3), F(2)), 10)
        assert [coeff(c.x, e) for e in range(5)] == [0, 0, F(1, 2), F(-5, 6), F(21, 16)]

    def test_f_expansion_132(self):
        c = build_curve(CurveParams(F(1), F(3), F(2)), 10)
        assert coeff(c.f, 1) == 1 and coeff(c.f, 2) == F(-5, 6)

    def test_degenerate_q0_closed_form(self):
        par = CurveParams(F(0), F(4), F(2))
        c = build_curve(par, 12)
        # x = z/2 - (1/4) log(1+2z)
        expect = ZSeries.z(12).scale(F(1, 2)) - ZSeries.z(12).scale(2).log1p().scale(F(1, 4))
        assert c.x == expect.truncate(c.x.order)

    @pytest.mark.parametrize("point", CATALOG, ids=lambda p: p.label())
    def test_closed_forms_all_catalog(self, point):
        c = build_curve(point, 12)
        assert c.x == x_closed_form(point, 12).truncate(c.x.order)

    @pytest.mark.parametrize("point", CATALOG, ids=lambda p: p.label())
    def test_invariants(self, point):
        K = 12
        c = build_curve(point, K)
        zK = ZSeries.z(K)
        assert c.f.compose(c.h) == zK and c.h.compose(c.f) == zK
        assert (c.f * c.f).truncate(K).scale(F(1, 2)) == c.x.truncate(K)
        assert (c.N * c.x.derivative()).truncate(K - 1) == ZSeries.z(K - 1)
        assert (c.R * c.R.subs_neg()).truncate(K) == ZSeries.one(K)
        assert c.logR.subs_neg() == -c.logR

    def test_both_root_signs_build(self):
        for s in (F(2), F(-2)):
            build_curve(CurveParams(F(1), F(3), s), 8)

    def test_small_order_rejected(self):
        with pytest.raises(ValueError):
            build_curve(CurveParams(F(1), F(3), F(2)), 3)


small = st.fractions(min_value=-4, max_value=4, max_denominator=6)


class TestInverseFromDenominator:
    """h from h·h' = w·N(h) (`curve._inverse_from_denominator`) against the
    Lagrange reversion of f = sqrt(2x) (`conftest.reference_inverse`)."""

    @pytest.mark.parametrize("point", CATALOG, ids=lambda p: p.label())
    def test_catalog_points(self, point):
        for K in (2, 3, 8, 13, 21, 30):
            N = curve_module._denominator_series(point, K + 2)
            assert curve_module._inverse_from_denominator(N, K) == reference_inverse(N, K)

    @given(small, small.filter(bool), st.integers(2, 30))
    def test_drawn_points(self, q, s, K):
        point = CurveParams(q, s * s - q, s)
        N = curve_module._denominator_series(point, K + 2)
        assert curve_module._inverse_from_denominator(N, K) == reference_inverse(N, K)

    @given(st.lists(small, max_size=4), st.integers(2, 30))
    def test_drawn_denominators(self, tail, K):
        # constant term 1 and degree <= 4, known to order K - 1 at least
        N = ZSeries.from_terms(dict(enumerate([1, *tail])), K - 1 + len(tail) % 3)
        assert curve_module._inverse_from_denominator(N, K) == reference_inverse(N, K)


class TestRightInverse:
    """`build_curve` checks f∘h = z alone: f and h both have a unit linear
    term, so a left inverse is also a right one.  h∘f = z is checked here."""

    @pytest.mark.parametrize("point", CATALOG, ids=lambda p: p.label())
    def test_catalog_points(self, point):
        for K in range(4, 25):
            c = build_curve(point, K)
            assert c.h.compose(c.f) == ZSeries.z(K), K

    @given(small, small.filter(bool), st.integers(4, 24))
    def test_drawn_points(self, q, s, K):
        c = build_curve(CurveParams(q, s * s - q, s), K)
        assert c.h.compose(c.f) == ZSeries.z(K)


def _fields_equal(got, expect):
    # the fields a curve compares; its caches (`_witt`, `_shifts`, `_ops`) are not among them
    for name in CurveSeries._fields:
        assert getattr(got, name) == getattr(expect, name), name


class TestCurveConstruction:
    """`build_curve` and `perturbed_control_curve` give, field by field,
    the curves of the construction that took h as the reversion of f."""

    @pytest.mark.parametrize("point", CATALOG, ids=lambda p: p.label())
    def test_build_curve(self, point, monkeypatch):
        got = [build_curve(point, K) for K in range(4, 43)]
        monkeypatch.setattr(curve_module, "_inverse_from_denominator", reference_inverse)
        for c in got:
            _fields_equal(c, build_curve(point, c.K))

    @pytest.mark.parametrize("denominator", [(1, F(5, 2), 1, 1, 1), (1, F(5, 2), 1, 1), (1, F(-1, 3), 0, F(2, 7), F(3, 2))])
    def test_perturbed_control_curve(self, denominator, monkeypatch):
        got = [perturbed_control_curve(K, denominator) for K in (4, 7, 12)]
        monkeypatch.setattr(curve_module, "_inverse_from_denominator", reference_inverse)
        for c in got:
            _fields_equal(c, perturbed_control_curve(c.K, denominator))

    def test_a_wrong_inverse_breaks_the_mutual_inverse_check(self, monkeypatch, capsys):
        # the inverse fed N with its linear coefficient plus 1: f, still
        # built as sqrt(2x) from the true N, no longer inverts it
        real = curve_module._inverse_from_denominator
        monkeypatch.setattr(
            curve_module, "_inverse_from_denominator", lambda N, K: real(N + ZSeries.from_terms({1: 1}, N.order), K)
        )
        with pytest.raises(InvariantViolation, match="^f and h are not mutually inverse$"):
            build_curve(CATALOG[0], 12)
        assert main(["verify", "lemma-laplace", "--weight", "6"]) == 3
        out, err = capsys.readouterr()
        assert err == "internal invariant violation: f and h are not mutually inverse\n"


class TestRSeries:
    def test_first_coefficient_132(self):
        R = r_series(CurveParams(F(1), F(3), F(2)), 6)
        assert coeff(R, 0) == 1 and coeff(R, 1) == F(-13, 48)

    def test_first_coefficient_m121(self):
        R = r_series(CurveParams(F(-1), F(2), F(1)), 6)
        assert coeff(R, 1) == F(-1, 4)

    @pytest.mark.parametrize("point", CATALOG, ids=lambda p: p.label())
    def test_symplectic_condition(self, point):
        R = r_series(point, 10)
        assert (R * R.subs_neg()).truncate(10) == ZSeries.one(10)

    def test_log_is_odd(self):
        lr = log_r_series(CurveParams(F(3), F(1), F(2)), 9)
        assert lr.subs_neg() == -lr


class TestGaussianMoments:
    def test_constant(self):
        assert gaussian_moments(ZSeries.one(6)) == ZSeries.one(3)

    def test_zeta_squared(self):
        g = ZSeries.from_terms({2: 1}, 6)
        assert gaussian_moments(g) == ZSeries.from_terms({1: 1}, 3)

    def test_zeta_fourth(self):
        g = ZSeries.from_terms({4: 1}, 8)
        assert gaussian_moments(g) == ZSeries.from_terms({2: 3}, 4)


def _trivial_curve(K):
    zK = ZSeries.z(K)
    x = ZSeries.from_terms({2: F(1, 2)}, K)
    return CurveSeries(None, K, x, zK, zK, zK, ZSeries.one(K), ZSeries.one(K),
                       ZSeries.from_terms({}, K), ZSeries.one(K // 2))


class TestISeries:
    def test_trivial_transform(self):
        assert i_series(ZSeries.z(12)) == ZSeries.one(5)

    def test_first_coefficient_is_minus_r(self, curve132):
        I = curve132.I
        assert coeff(I, 1) == F(13, 48) == -coeff(curve132.R, 1)

    @pytest.mark.parametrize("point", CATALOG, ids=lambda p: p.label())
    def test_ratio_identity_all_catalog(self, point):
        c = build_curve(point, 17)
        I = c.I
        assert I.order >= 8
        assert I == c.R.subs_neg().truncate(I.order)



def _bivariate_log_grunsky(h, size):
    """Oracle sharing no code with `grunsky_matrix`: the coefficients of
    z^k w^m, 1 <= k, m <= size, of log(1 + X) with
    X = (h(z) - h(w))/(z - w) - 1 = sum_{n>=2} h_n sum_{i+j=n-1} z^i w^j,
    as a bivariate series cut at degree `size` in each variable."""
    X = {}
    for n in range(2, 2 * size + 2):
        for i in range(max(0, n - 1 - size), min(n - 1, size) + 1):
            X[i, n - 1 - i] = coeff(h, n)
    log, power = {}, {(0, 0): F(1)}
    # X has no constant term, so X^n vanishes under the cut for n > 2*size
    for n in range(1, 2 * size + 1):
        nxt = {}
        for (i, j), a in power.items():
            for (k, l), b in X.items():
                if i + k <= size and j + l <= size:
                    nxt[i + k, j + l] = nxt.get((i + k, j + l), 0) + a * b
        power = nxt
        for key, c in power.items():
            log[key] = log.get(key, 0) + F((-1) ** (n + 1), n) * c
    return [[log.get((k, m), F(0)) for m in range(1, size + 1)] for k in range(1, size + 1)]


def _assert_grunsky_matches_oracle(h, max_size):
    oracle = _bivariate_log_grunsky(h, max_size)
    for size in range(1, max_size + 1):
        entries = grunsky_matrix(h, size).entries
        assert entries == [row[:size] for row in oracle[:size]], size


class TestGrunsky:
    @pytest.mark.parametrize("point", CATALOG, ids=lambda p: p.label())
    def test_matches_bivariate_log_on_catalog(self, point):
        _assert_grunsky_matches_oracle(build_curve(point, 17).h, 8)

    def test_matches_bivariate_log_on_perturbed_control(self):
        _assert_grunsky_matches_oracle(perturbed_control_curve(18).h, 8)

    @given(
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5), min_size=3, max_size=11)
    )
    def test_matches_bivariate_log_on_random_h(self, tail):
        size = (len(tail) - 1) // 2
        h = ZSeries([F(0), F(1), *tail], len(tail) + 1)
        _assert_grunsky_matches_oracle(h, size)

    def test_identity_series_vanishes(self):
        G = grunsky_matrix(ZSeries.z(9), 4)
        assert all(G.v(k, m) == 0 for k in range(1, 5) for m in range(1, 5))

    def test_cubic_perturbation(self):
        c = F(2, 7)
        h = ZSeries.from_terms({1: 1, 3: c}, 9)
        G = grunsky_matrix(h, 4)
        assert G.v(1, 1) == c

    def test_symmetry_size8(self, curve132_big):
        G = grunsky_matrix(curve132_big.h, 8)
        assert all(G.v(k, m) == G.v(m, k) for k in range(1, 9) for m in range(1, 9))

    def test_order_requirement(self):
        with pytest.raises(ValueError, match="insufficient"):
            grunsky_matrix(ZSeries.z(6), 3)


class TestGiventalMatrix:
    def test_trivial(self):
        V = givental_v_matrix(ZSeries.one(8), 4)
        assert all(V.v(k, l) == 0 for k in range(4) for l in range(4))

    def test_first_order(self):
        r = F(3, 5)
        R = ZSeries.from_terms({1: r}, 2).expm()  # exp(r z) to order 2
        V = givental_v_matrix(R, 1)
        assert V.v(0, 0) == r

    def test_symmetry_size6(self):
        R = r_series(CurveParams(F(1), F(3), F(2)), 12)
        V = givental_v_matrix(R, 6)
        assert all(V.v(k, l) == V.v(l, k) for k in range(6) for l in range(6))

    def test_symplectic_violation_detected(self):
        bad = ZSeries.from_terms({0: 1, 1: 1, 2: 1}, 8)  # 1+z+z^2 is not symplectic
        with pytest.raises(ValueError, match="symplectic"):
            givental_v_matrix(bad, 2)


class TestWittCoefficients:
    def test_identity_flow(self):
        w = witt_coefficients(ZSeries.z(8))
        assert all(c == 0 for c in w)

    def test_leading_coefficient_132(self, curve132):
        w = witt_coefficients(curve132.f.truncate(10))
        assert w[0] == F(5, 6)
        assert w[1] == F(-13, 48)

    @pytest.mark.parametrize("point", CATALOG, ids=lambda p: p.label())
    def test_reconstruction_all_catalog(self, point):
        c = build_curve(point, 10)
        w = witt_coefficients(c.f)
        assert witt_flow(w, 10) == c.f

    def test_closed_form_flow(self):
        # z' = -z^2 integrates to z/(1+z)
        K = 8
        expect = (ZSeries.z(K) * (ZSeries.one(K) + ZSeries.z(K)).recip()).truncate(K)
        assert witt_flow([F(1)], K) == expect

    def test_normalization_required(self):
        with pytest.raises(ValueError):
            witt_coefficients(ZSeries.one(6))

    @pytest.mark.parametrize("point", CATALOG, ids=lambda p: p.label())
    def test_one_pass_matches_per_order_peel_on_catalog(self, point):
        f = build_curve(point, 19).f
        for K in range(2, 20):
            assert witt_coefficients(f.truncate(K)) == reference_witt_coefficients(f.truncate(K)), K

    @given(st.lists(st.just(F(0)) | st.fractions(min_value=-4, max_value=4, max_denominator=7), max_size=11))
    def test_one_pass_matches_per_order_peel_on_random_f(self, tail):
        # the denominators of the a's grow at unforeseen orders
        f = ZSeries([F(0), F(1), *tail], len(tail) + 1)
        assert witt_coefficients(f) == reference_witt_coefficients(f)

    @pytest.mark.parametrize("point", CATALOG, ids=lambda p: p.label())
    def test_integer_flow_matches_series_steps_on_catalog(self, point):
        # the forward flow on integers against one `ZSeries` step per term
        c = build_curve(point, 24)
        a = c.witt(23)
        for K in range(0, 25):
            assert witt_flow(a, K) == reference_witt_flow(a, K), K
        assert witt_flow(a, 24) == c.f

    @given(small, small.filter(bool), st.integers(4, 24))
    def test_integer_flow_matches_series_steps_at_drawn_points(self, q, s, K):
        c = build_curve(CurveParams(q, s * s - q, s), K)
        a = c.witt(K - 1)
        assert witt_flow(a, K) == reference_witt_flow(a, K) == c.f

    @given(st.lists(st.just(F(0)) | st.fractions(min_value=-4, max_value=4, max_denominator=9), max_size=26), st.integers(0, 24))
    def test_integer_flow_matches_series_steps_on_drawn_coefficients(self, a, K):
        # lists shorter and longer than K - 1, and unrelated denominators
        assert witt_flow(a, K) == reference_witt_flow(a, K)

    def test_curve_lists_them_once_and_reads_prefixes(self):
        c = build_curve(CATALOG[0], 10)
        assert c.witt(5) == witt_coefficients(c.f.truncate(6))
        assert c.witt(9) == witt_coefficients(c.f)
        assert c.witt(3) == witt_coefficients(c.f)[:3]
        with pytest.raises(ValueError, match="order 11"):
            c.witt(10)


def _moment_sides(curve):
    """The two dilaton-shift moment identities of a curve, each as the
    pair (moment transform of the flow-side integrand, shift series from
    `dilaton_shifts` to the same order):
    gaussian_moments(z^2 - z (y o h)) = z(1 - R(-z)) and
    gaussian_moments(1 - (y o h)') = 1 - R(-z)."""
    K = curve.K
    delta, delta0 = dilaton_shifts(curve)
    y_h = curve.y.compose(curve.h)
    z = ZSeries.z(K)
    lhs = gaussian_moments((z * z).truncate(K) - (z * y_h).truncate(K))
    lhs0 = gaussian_moments(ZSeries.one(K - 1) - y_h.derivative())
    return (lhs, ZSeries.from_terms(delta, lhs.order)), (lhs0, ZSeries.from_terms(delta0, lhs0.order))


class TestShiftData:
    def test_trivial_curve(self):
        c = _trivial_curve(12)
        sd = shift_data(c)
        assert sd.v == {} and sd.v0 == {} and dilaton_shifts(c) == ({}, {})

    def test_delta2_132(self, curve132):
        assert dilaton_shifts(curve132)[0][2] == F(-13, 48)

    @pytest.mark.parametrize("point", CATALOG, ids=lambda p: p.label())
    def test_low_translations_vanish(self, point):
        c = build_curve(point, 12)
        sd = shift_data(c)  # raises if v_1..v_3 fail to vanish
        assert all(k >= 4 for k in sd.v)
        assert all(k >= 2 for k in sd.v0)

    def test_delta_matches_r(self, curve132):
        # the shifts against the two series, formed by series arithmetic
        K = curve132.K
        delta0_series = ZSeries.one(K) - curve132.R.subs_neg()
        delta_series = (ZSeries.z(K) * delta0_series).truncate(K)
        delta, delta0 = dilaton_shifts(curve132)
        assert ZSeries.from_terms(delta, K) == delta_series
        assert ZSeries.from_terms(delta0, K) == delta0_series

    @pytest.mark.parametrize("point", CATALOG, ids=lambda p: p.label())
    def test_dilaton_moment_identity(self, point):
        (lhs, rhs), _ = _moment_sides(build_curve(point, 14))
        assert lhs.order == 7 and lhs == rhs

    @pytest.mark.parametrize("point", CATALOG, ids=lambda p: p.label())
    def test_order_zero_moment_identity(self, point):
        _, (lhs, rhs) = _moment_sides(build_curve(point, 14))
        assert lhs.order == 6 and lhs == rhs

    @given(st.sampled_from([1, 2, 3]), st.integers(-4, 4), st.integers(8, 16))
    def test_moment_identities_beyond_the_catalog(self, s, q, K):
        # the integer points perfbench's seeds draw from: p = s^2 - q
        curve = build_curve(CurveParams(F(q), F(s * s - q), F(s)), K)
        for lhs, rhs in _moment_sides(curve):
            assert lhs == rhs


class TestIdentification:
    @pytest.mark.parametrize(
        "q,p,s", [(1, 3, 2), (-1, 2, 1)], ids=["(1,3,2)", "(-1,2,1)"]
    )
    def test_residual_vanishes_in_family(self, q, p, s):
        c = build_curve(CurveParams(F(q), F(p), F(s)), 18)
        res = identification_residual(c, 4)
        assert all(x == 0 for row in res for x in row)

    def test_quartic_control_detected(self):
        control = perturbed_control_curve(18)
        res = identification_residual(control, 4, require_symplectic=False)
        nonzero = [(k, m) for k in range(4) for m in range(4) if res[k][m] != 0]
        assert nonzero and min(k + m for k, m in nonzero) <= 4

    def test_quartic_control_breaks_symplectic(self):
        control = perturbed_control_curve(18)
        with pytest.raises(ValueError, match="symplectic"):
            identification_residual(control, 4)

    def test_cubic_denominator_is_inside_gauge_orbit(self):
        # A degree-3 denominator is reachable from the two-parameter
        # family by the one-parameter reparametrization z -> z/(1+a z),
        # so its residual vanishes identically; only degree >= 4 terms
        # are detected.  Kept as a regression fact about the checker.
        control = perturbed_control_curve(18, (1, F(5, 2), 1, 1))
        assert (control.R * control.R.subs_neg()).truncate(16) == ZSeries.one(16)
        res = identification_residual(control, 4)
        assert all(x == 0 for row in res for x in row)

    # The paper's uniqueness claim as a property of random denominators
    # 1 + c_1 z + c_2 z^2 + c_3 z^3 (+ c_4 z^4).
    _coeff = st.fractions(min_value=-6, max_value=6, max_denominator=5)

    @given(st.lists(_coeff, min_size=3, max_size=3), _coeff.filter(bool))
    def test_any_degree_four_term_is_detected(self, low, c4):
        control = perturbed_control_curve(18, (1, *low, c4))
        res = identification_residual(control, 4, require_symplectic=False)
        assert any(res[k][m] != 0 for k in range(4) for m in range(4) if k + m <= 4)

    @given(st.lists(_coeff, min_size=3, max_size=3))
    def test_any_cubic_denominator_is_inside_gauge_orbit(self, low):
        res = identification_residual(perturbed_control_curve(18, (1, *low)), 4)
        assert all(x == 0 for row in res for x in row)

    def test_order_requirement(self, curve132):
        with pytest.raises(ValueError, match="insufficient"):
            identification_residual(curve132, 6)
