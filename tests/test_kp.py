import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from hodgekp import kp
from hodgekp.algebra import HbarPoly, InvariantViolation, TPoly, mono_str, mono_weight
from hodgekp.curve import CATALOG, CurveParams
from hodgekp.kp import (
    _bilinear_pair,
    _derivatives,
    hirota_equation_table,
    hirota_full_check,
    hirota_graded_check,
    kdv_reduction_check,
    specialize_hbar,
)
from hodgekp.operators import weight_monomials
from hodgekp.tau import bgw_tau, kw_tau, tau_qp_check, trust_band

from conftest import coeff, fraction_product, hbar_weight_strip, random_tpoly


def t(k, w=8):
    return TPoly.variable("t", k, w)


def theta_side_check(params, W):
    """`tau_qp_check` on the Theta side, to parametrize beside it."""
    return tau_qp_check(params, W, "theta")


class TestSpecializeHbar:
    def test_simple_values(self):
        P = TPoly("t", 4, {((1, 3),): HbarPoly.hbar(1, F(1, 6))})
        assert specialize_hbar(P, F(1)) == TPoly("t", 4, {((1, 3),): F(1, 6)})
        Q = TPoly("t", 4, {((2, 1),): HbarPoly.hbar(-1)})
        assert specialize_hbar(Q, F(1, 2)) == TPoly("t", 4, {((2, 1),): F(2)})

    def test_zero_with_negative_exponents_rejected(self):
        Q = TPoly("t", 4, {((2, 1),): HbarPoly.hbar(-1)})
        with pytest.raises(ZeroDivisionError):
            specialize_hbar(Q, F(0))

    def test_commutes_with_multiplication(self):
        rng = random.Random(7)
        for _ in range(5):
            P = random_tpoly(rng, "t", 8).scale(HbarPoly.hbar(1))
            Q = random_tpoly(rng, "t", 8).scale(HbarPoly.hbar(-1, F(1, 3)))
            hb = F(2, 3)
            assert specialize_hbar(P * Q, hb) == specialize_hbar(P, hb) * specialize_hbar(Q, hb)

    def test_weight_strip(self):
        body = kw_tau(9).body
        stripped = hbar_weight_strip(body, 1, 3)
        assert coeff(stripped, ((1, 3),)) == HbarPoly.const(F(1, 6))
        assert hirota_full_check(stripped, 3).passed

    def test_weight_strip_rejects_ungraded(self):
        P = TPoly("t", 4, {((1, 3),): HbarPoly.hbar(2)})
        with pytest.raises(ValueError):
            hbar_weight_strip(P, 1, 3)


def _exp_of_linear(c1, W=8):
    acc = TPoly.one("t", W)
    term = acc
    for n in range(1, W + 1):
        term = (term * TPoly.variable("t", 1, W)).scale(F(c1, n))
        acc = acc + term
    return acc


class TestFirstEquation:
    """The lowest equation, (D_1^4 + 3 D_2^2 - 4 D_1 D_3) tau.tau = 0, is the
    y[y3] equation of the y-weight-3 table."""

    def test_first_equation_is_in_the_table(self):
        eq = dict(hirota_equation_table(3))[((3, 1),)]
        # the odd Hirota monomials D_1^2 D_2 and D_4 vanish on any f.f
        even = {g: c for g, c in eq.items() if sum(e for _, e in g) % 2 == 0}
        assert even == {((1, 4),): F(-1, 12), ((2, 2),): F(-3, 12), ((1, 1), (3, 1)): F(4, 12)}

    def test_constant_tau(self):
        assert hirota_full_check(TPoly.one("t", 8), 3).passed

    def test_vacuum_translate(self):
        assert hirota_full_check(_exp_of_linear(1), 3).passed

    def test_non_tau_detected(self):
        bad = TPoly.one("t", 8) + t(1) + t(2) * t(2)
        rep = hirota_full_check(bad, 3)
        assert not rep.passed
        assert any(f["equation"] == "y[y3]" for f in rep.failures)

    def test_requires_specialized_hbar(self):
        P = TPoly("t", 6, {((1, 1),): HbarPoly.hbar(1)})
        with pytest.raises(ValueError, match="specialized"):
            hirota_full_check(P, 3)


class TestSchurTaus:
    """Polynomial tau-functions (Schur polynomials in the scaled times)
    validate the full equation table, including the even-time sector."""

    def test_schur_functions_pass(self):
        W = 10
        s2 = (t(1, W) * t(1, W)).scale(F(1, 2)) + t(2, W)
        s3 = (t(1, W) * t(1, W) * t(1, W)).scale(F(1, 6)) + t(1, W) * t(2, W) + t(3, W)
        s21 = (t(1, W) * t(1, W) * t(1, W)).scale(F(1, 3)) - t(3, W)
        for tau in (s2, s3, s21):
            assert hirota_full_check(tau, 3).passed

    def test_non_schur_combination_fails(self):
        W = 10
        bad = (t(1, W) * t(1, W)).scale(F(1, 2)) + t(2, W).scale(2)
        assert not hirota_full_check(bad, 3).passed


class TestEquationTable:
    def test_lowest_equation_embedded(self):
        # the y3-coefficient equation is proportional to the first
        # equation up to odd-degree symbols that vanish on any tau.tau
        table = dict(hirota_equation_table(3))
        eq = table[((3, 1),)]
        even = {g: c for g, c in eq.items() if sum(e for _, e in g) % 2 == 0}
        assert even == {
            ((1, 4),): F(-1, 12),
            ((2, 2),): F(-1, 4),
            ((1, 1), (3, 1)): F(1, 3),
        }

    def test_one_read_only_table_per_y_weight(self):
        # every check at one y-weight reads the same table, so no caller
        # may change it
        table = hirota_equation_table(3)
        assert hirota_equation_table(3) is table
        assert hirota_equation_table(4) is not table
        label, eq = table[0]
        with pytest.raises(TypeError):
            eq[((1, 1),)] = F(1)
        with pytest.raises((TypeError, AttributeError)):
            table.append((label, {}))

    def test_empty_y_equation_is_odd(self):
        table = dict(hirota_equation_table(2))
        eq = table[()]
        assert all(sum(e for _, e in g) % 2 == 1 for g in eq)

    def test_covered_range_reported(self):
        tau = specialize_hbar(kw_tau(9).body, F(1))
        rep = hirota_full_check(tau, 3)
        for status in rep.equations:
            label_weight = {"y[1]": 0, "y[y1]": 1, "y[y2]": 2, "y[y1^2]": 2,
                            "y[y3]": 3, "y[y1 y2]": 3, "y[y1^3]": 3}[status.label]
            assert status.covered_weight == 9 - (label_weight + 1)


class TestBaseTauMembership:
    def test_kw_passes_both_hbars(self):
        body = kw_tau(9).body
        for hb in (F(1), F(1, 2)):
            assert hirota_full_check(specialize_hbar(body, hb), 3).passed

    def test_bgw_passes(self):
        body = bgw_tau(8).body
        assert hirota_full_check(specialize_hbar(body, F(1)), 3).passed

    def test_mutations_detected(self):
        # a mutation in t_k is invisible to equations that cannot pair a
        # d/dt_k with another derivative (odd D-monomials vanish on any
        # f.f), so the table must reach y-weight 6 to see all weight-6
        # monomials including the linear t6 one
        rng = random.Random(5)
        tau = specialize_hbar(kw_tau(10).body, F(1))
        weight6 = [m for m in weight_monomials("t", 10) if m and sum(v * e for v, e in m) == 6]
        for _ in range(8):
            mono = rng.choice(weight6)
            eps = F(rng.randrange(1, 9), rng.randrange(1, 5))
            mutated = tau + TPoly("t", 10, {mono: eps})
            assert not hirota_full_check(mutated, 6).passed, mono


class TestGradedMembership:
    def test_tau_qp_graded_pass(self):
        rep = tau_qp_check(CurveParams(F(1), F(3), F(2)), 8)
        r = hirota_graded_check(rep.tau.body, 3, trust_band("tau_qp"))
        assert r.passed

    def test_theta_graded_pass(self):
        rep = tau_qp_check(CurveParams(F(1), F(3), F(2)), 7, "theta")
        r = hirota_graded_check(rep.tau.body, 3, trust_band("tau_theta_qp"))
        assert r.passed

    def test_in_band_mutation_detected(self):
        rep = tau_qp_check(CurveParams(F(1), F(3), F(2)), 8)
        mutated = rep.tau.body + TPoly("t", 8, {((3, 1),): HbarPoly.hbar(1, F(1, 7))})
        r = hirota_graded_check(mutated, 3, trust_band("tau_qp"))
        assert not r.passed

    @pytest.mark.parametrize(
        "check, W, band, e, caught",
        [  # (tau_qp_check, 8, "tau_qp", 1, True) is test_in_band_mutation_detected
            (tau_qp_check, 8, "tau_qp", 2, False),
            (theta_side_check, 7, "tau_theta_qp", 4, True),
            (theta_side_check, 7, "tau_theta_qp", 5, False),
        ],
    )
    def test_mutations_on_both_sides_of_the_trust_band(self, check, W, band, e, caught):
        # (1/7) hbar^e t3: at the lower e its residual coefficients reach the
        # band a*e <= W + b*(v + d) and the check must fail; one hbar power
        # higher they all fall outside it, where the series itself is only a
        # partial sum, and the check must not see it
        assert trust_band(band) == {"tau_qp": (12, 3), "tau_theta_qp": (2, 1)}[band]
        body = check(CurveParams(F(1), F(3), F(2)), W).tau.body
        assert hirota_graded_check(body, 3, trust_band(band)).passed
        mutated = body + TPoly("t", W, {((3, 1),): HbarPoly.hbar(e, F(1, 7))})
        assert hirota_graded_check(mutated, 3, trust_band(band)).passed != caught

    def test_fixed_hbar_coefficients_are_truncation_unstable(self):
        # the reason the graded check exists: specializing hbar sums
        # divergent tails whose partial sums depend on the construction
        # weight, so no fixed-hbar coefficient of this object stabilizes
        par = CurveParams(F(1), F(3), F(2))
        c7 = coeff(specialize_hbar(tau_qp_check(par, 7).tau.body, F(1)), ())
        c9 = coeff(specialize_hbar(tau_qp_check(par, 9).tau.body, F(1)), ())
        assert c7 != c9


class TestReductionCheck:
    def test_kw_is_even_free(self):
        assert kdv_reduction_check(kw_tau(9).body).passed

    def test_reduction_point(self):
        rep = tau_qp_check(CurveParams(F(-1), F(2), F(1)), 8)
        assert kdv_reduction_check(rep.tau.body).passed

    def test_generic_point_depends_on_even_times(self):
        rep = tau_qp_check(CurveParams(F(1), F(3), F(2)), 8)
        result = kdv_reduction_check(rep.tau.body)
        assert not result.passed
        assert result.even_monomials

    @pytest.mark.parametrize("mode, W, count", [("theta", 8, 21), ("theta", 11, 73), ("standard", 11, 25)])
    def test_report_counts_every_even_monomial(self, mode, W, count):
        # the report lists at most 20 of them, and states how many there are
        body = tau_qp_check(CurveParams(F(1), F(3), F(2)), W, mode).tau.body
        obj = kdv_reduction_check(body).to_json_obj()
        assert obj["evenCount"] == count
        assert len(obj["evenMonomials"]) == 20


class TestMergedEquationLoop:
    """The full check is the graded check's loop at the band (0, 0); the
    band only changes which coefficients count."""

    BUMP = ((1, 1), (3, 1))

    def test_full_failure_record_has_hbar_exponent(self):
        tau = specialize_hbar(kw_tau(9).body, F(1))
        r = hirota_full_check(tau + TPoly("t", 9, {self.BUMP: F(1, 7)}), 3)
        assert not r.passed
        for failure in r.failures:
            assert set(failure) == {"equation", "monomial", "hbarExponent", "residual"}
            assert failure["hbarExponent"] == 0

    def test_graded_failure_record_has_hbar_exponent(self):
        body = kw_tau(9).body + TPoly("t", 9, {self.BUMP: HbarPoly.hbar(1, F(1, 7))})
        r = hirota_graded_check(body, 3, trust_band("KW"))
        assert not r.passed
        for failure in r.failures:
            assert set(failure) == {"equation", "monomial", "hbarExponent", "residual"}

    @pytest.mark.parametrize("build, W", [(kw_tau, 9), (bgw_tau, 8)], ids=["KW", "BGW"])
    def test_graded_matches_full_on_the_base_tau(self, build, W):
        tau = build(W)
        graded = hirota_graded_check(tau.body, 3, trust_band(tau.kind))
        full = hirota_full_check(specialize_hbar(tau.body, F(1)), 3)
        assert graded.passed and full.passed
        assert graded.to_json_obj()["hbar"] == "graded band 0e<=W+0(v+d)"
        assert [e.to_json_obj() for e in graded.equations] == [
            e.to_json_obj() for e in full.equations
        ]


def scaled_derivatives(tau, dmax):
    """d^beta tau / beta! for every beta of weight <= dmax, by `TPoly.diff`
    and `Fraction` scaling, for the oracles below."""
    out = {(): tau}
    for beta in weight_monomials("t", dmax):
        P = tau
        for v, e in beta:
            for _ in range(e):
                P = P.diff(v)
            P = P.scale(F(1, math.factorial(e)))
        out[beta] = P
    return out


def all_splits_pair(derivs, gamma, cap):
    """The reference for `_bilinear_pair`: every split beta + (gamma - beta)
    taken on its own, with sign (-1)^|gamma - beta| and factor gamma!,
    multiplied term by term in `Fraction`s and cut at `cap`."""
    acc = TPoly.zero("t", cap)
    gfact = math.prod(math.factorial(e) for _, e in gamma)
    for exps in itertools.product(*(range(e + 1) for _, e in gamma)):
        beta = tuple((v, b) for (v, _), b in zip(gamma, exps) if b)
        rest = tuple((v, e - b) for (v, e), b in zip(gamma, exps) if e - b)
        sign = (-1) ** sum(e for _, e in rest)
        acc = acc + fraction_product(derivs[beta], derivs[rest], cap).scale(F(sign * gfact))
    return acc


def oracle_failures(tau, y_weight, band):
    """The failure list of a Hirota check in the band (a, b), from
    residuals summed in `Fraction`s over `all_splits_pair`, in the order
    the check reports."""
    W = tau.max_weight
    table = hirota_equation_table(y_weight)
    derivs = scaled_derivatives(tau, max(mono_weight("t", g) for _, eq in table for g in eq))
    failures = []
    for label_mono, eq in table:
        d = max(mono_weight("t", g) for g in eq)
        residual = TPoly.zero("t", W - d)
        for gamma, c in eq.items():
            residual = residual + all_splits_pair(derivs, gamma, W - d).scale(c)
        label = "y[" + mono_str("t", label_mono).replace("t", "y") + "]"
        for mono, h in residual.sorted_terms():
            where = {"equation": label, "monomial": mono_str("t", mono)}
            a, b = band
            v = mono_weight("t", mono)
            failures.extend(
                {**where, "hbarExponent": e, "residual": f"{x.numerator}/{x.denominator}" if x.denominator > 1 else str(x.numerator)}
                for e, x in sorted(h.terms.items())
                if a * e <= W + b * (v + d)
            )
    return failures


class TestBilinearPair:
    """The integer pair kernel against the all-splits expansion in
    `Fraction`s, on the covered range of every equation of the
    y-weight-3 table."""

    @pytest.mark.parametrize("which", ["kw-specialized", "tau-qp-graded"])
    def test_matches_all_splits_on_covered_range(self, which):
        if which == "kw-specialized":
            tau = specialize_hbar(kw_tau(9).body, 1)
        else:
            tau = tau_qp_check(CurveParams(F(1), F(3), F(2)), 7).tau.body
        W = tau.max_weight
        gammas = {g for _, eq in hirota_equation_table(3) for g in eq}
        dmax = max(mono_weight("t", g) for g in gammas)
        d, derivs = _derivatives(tau, dmax, (0, 0))
        assert d == math.lcm(*(x.denominator for h in tau.terms.values() for x in h.terms.values()))
        oracle = scaled_derivatives(tau, dmax)
        nonzero = 0
        for gamma in sorted(gammas):
            cap = W - mono_weight("t", gamma)
            pair = _bilinear_pair(derivs, gamma, cap, W)
            assert all(isinstance(x, int) for slot in pair.values() for x in slot.values())
            got = TPoly("t", cap, {m: HbarPoly({e: F(x, d * d) for e, x in slot.items()}) for m, slot in pair.items()})
            expect = all_splits_pair(oracle, gamma, cap)
            assert got == expect, gamma
            nonzero += not got.is_zero()
        assert nonzero >= 2


@st.composite
def laurent_tpolys(draw):
    """hbar-Laurent t-side polynomials, hbar exponents -2..6, at a weight
    cap 4 <= W <= 9, so that every equation of the y-weight-3 table covers
    some residual weight."""
    W = draw(st.integers(4, 9))
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)
    terms = {}
    for mono in draw(st.lists(st.sampled_from(weight_monomials("t", W)), min_size=2, max_size=10, unique=True)):
        exps = draw(st.lists(st.integers(-2, 6), min_size=1, max_size=3, unique=True))
        terms[mono] = HbarPoly({e: draw(coeff) for e in exps})
    return TPoly("t", W, terms)


bands = st.sampled_from([(0, 0), (2, 1), (12, 3)]) | st.tuples(st.integers(0, 4), st.integers(0, 3))


class TestBandedPair:
    """The pair kernel forms only in-band products: its pair is the
    all-splits `Fraction` pair cut to the band a*e <= W + b*(v + d), on
    every equation of the y-weight-3 table."""

    @staticmethod
    def compare(tau, band):
        """Assert the banded pair of every (equation, gamma) equals the cut
        `all_splits_pair` and holds no entry outside the band; return how
        many nonzero coefficients lie on the boundary a*e = W + b*(v + d)."""
        a, b = band
        W = tau.max_weight
        table = hirota_equation_table(3)
        dmax = max(mono_weight("t", g) for _, eq in table for g in eq)
        s, banded = _derivatives(tau, dmax, band)
        oracle = scaled_derivatives(tau, dmax)
        on_boundary = 0
        for _, eq in table:
            d = max(mono_weight("t", g) for g in eq)

            def past_band(mono, e):
                return a * e - b * (mono_weight("t", mono) + d) - W

            for gamma in eq:
                got = _bilinear_pair(banded, gamma, W - d, W + b * d)
                assert all(past_band(m, e) <= 0 for m, slot in got.items() for e in slot), gamma
                unbanded = all_splits_pair(oracle, gamma, W - d).sorted_terms()
                want = {(m, e): x for m, h in unbanded for e, x in h.terms.items() if past_band(m, e) <= 0}
                assert {(m, e): F(x, s * s) for m, slot in got.items() for e, x in slot.items() if x} == want, gamma
                on_boundary += sum(past_band(m, e) == 0 for m, e in want)
        return on_boundary

    @given(laurent_tpolys(), bands)
    def test_is_the_unbanded_pair_cut_to_the_band(self, tau, band):
        self.compare(tau, band)

    @pytest.mark.parametrize("check, W, kind", [(tau_qp_check, 9, "tau_qp"), (theta_side_check, 7, "tau_theta_qp")])
    def test_keeps_the_boundary_on_the_derived_taus(self, check, W, kind):
        body = check(CurveParams(F(1), F(3), F(2)), W).tau.body
        assert self.compare(body, trust_band(kind)) > 0


def graded_kernel(tau, y_weight, band):
    """The loop of `hirota_graded_check` without its guard on negative
    excess: the kernel on taus that the product never checks, with
    coefficients of negative excess among them."""
    a, b = band
    label = f"graded band {a}e<=W+{b}(v+d)"
    return kp._run_equations(tau, hirota_equation_table(y_weight), "hirota-graded", y_weight, label, band)


def _report_with_limit(tau, band, limit):
    """The graded kernel's report, with the root excess limit of
    `_derivatives` replaced by limit(root, W)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(kp, "_root_excess_limit", limit)
        return graded_kernel(tau, 3, band).to_json_obj()


class TestPrunedDerivatives:
    """`_derivatives` drops the root coefficients that no in-band product
    reads, before differentiating: the check reports alike with and
    without the pruning, and the limit is tight."""

    @given(laurent_tpolys(), bands)
    def test_pruned_and_unpruned_checks_report_alike(self, tau, band):
        unpruned = _report_with_limit(tau, band, lambda root, W: math.inf)
        assert graded_kernel(tau, 3, band).to_json_obj() == unpruned

    @pytest.mark.parametrize("check, W, kind", [(tau_qp_check, 9, "tau_qp"), (theta_side_check, 7, "tau_theta_qp")])
    def test_a_limit_one_smaller_fails_the_derived_taus(self, check, W, kind):
        # the derived taus pass, and a root coefficient exactly at the
        # limit enters an in-band residual coefficient, which then fails
        body = check(CurveParams(F(1), F(3), F(2)), W).tau.body
        band = trust_band(kind)
        real = kp._root_excess_limit
        unpruned = _report_with_limit(body, band, lambda root, W: math.inf)
        assert unpruned["status"] == "pass"
        assert hirota_graded_check(body, 3, band).to_json_obj() == unpruned
        smaller = _report_with_limit(body, band, lambda root, W: real(root, W) - 1)
        assert smaller["status"] == "fail"


class TestExcessInvariant:
    """The graded check runs only on taus whose every stored coefficient
    has excess a*e - b*v >= 0 in its band; the derived taus have
    excess 0 at least, and one coefficient below it is an invariant
    violation, which the kernel alone would check silently."""

    @pytest.mark.parametrize("point", CATALOG, ids=lambda p: p.label())
    @pytest.mark.parametrize("check, kind", [(tau_qp_check, "tau_qp"), (theta_side_check, "tau_theta_qp")])
    def test_the_derived_taus_have_no_negative_excess(self, point, check, kind):
        a, b = trust_band(kind)
        for W in (3, 6):
            body = check(point, W).tau.body
            excess = [a * e - b * mono_weight("t", m) for m, slot in body.num.items() for e in slot]
            assert min(excess) == 0

    @pytest.mark.parametrize("check, kind", [(tau_qp_check, "tau_qp"), (theta_side_check, "tau_theta_qp")])
    def test_a_negative_excess_raises(self, check, kind):
        band, W = trust_band(kind), 6
        body = check(CurveParams(F(1), F(3), F(2)), W).tau.body
        # (1/7)·t1 at hbar^0: excess -b < 0
        bumped = body + TPoly("t", W, {((1, 1),): F(1, 7)})
        with pytest.raises(InvariantViolation, match=rf"coefficient of t1 at hbar\^0 has excess -{band[1]} < 0"):
            hirota_graded_check(bumped, 3, band)
        assert graded_kernel(bumped, 3, band).failures


class TestPinnedFailures:
    """The failure lists of broken taus, entry by entry, against residuals
    computed in `Fraction`s."""

    def test_perturbed_full_check(self):
        tau = specialize_hbar(kw_tau(9).body, 1)
        tau = tau + TPoly("t", 9, {((1, 1), (3, 1)): F(1, 7), ((2, 2),): F(-3, 5)})
        failures = hirota_full_check(tau, 3).failures
        assert failures and failures == oracle_failures(tau, 3, (0, 0))

    def test_mutated_graded_check(self):
        band = trust_band("tau_qp")
        body = tau_qp_check(CurveParams(F(1), F(3), F(2)), 8).tau.body
        body = body + TPoly("t", 8, {((3, 1),): HbarPoly({1: F(1, 7), -1: F(2, 3)}), ((1, 2),): HbarPoly.hbar(2, F(-1, 6))})
        failures = graded_kernel(body, 3, band).failures
        assert failures and failures == oracle_failures(body, 3, band)

    def test_mutated_theta_graded_check(self):
        # (1/7) hbar^3 t1^2 leaves residual coefficients exactly on the band
        # boundary a*e = W + b*(v + d), and (2/3) hbar^-1 t2 leaves some at a
        # negative hbar exponent
        band, W = trust_band("tau_theta_qp"), 7
        a, b = band
        body = tau_qp_check(CurveParams(F(1), F(3), F(2)), W, "theta").tau.body
        body = body + TPoly("t", W, {((1, 2),): HbarPoly.hbar(3, F(1, 7)), ((2, 1),): HbarPoly.hbar(-1, F(2, 3))})
        failures = graded_kernel(body, 3, band).failures
        assert failures and failures == oracle_failures(body, 3, band)
        table = hirota_equation_table(3)
        depth = {"y[" + mono_str("t", m).replace("t", "y") + "]": max(mono_weight("t", g) for g in eq) for m, eq in table}
        weight = {mono_str("t", m): mono_weight("t", m) for m in weight_monomials("t", W)}
        assert any(a * f["hbarExponent"] == W + b * (weight[f["monomial"]] + depth[f["equation"]]) for f in failures)
        assert any(f["hbarExponent"] < 0 for f in failures)
