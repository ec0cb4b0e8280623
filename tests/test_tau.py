import gc
import itertools
import math
from collections import Counter
from fractions import Fraction as F

import pytest

from hodgekp.algebra import HbarPoly, TPoly, mono_weight
from hodgekp.curve import CATALOG, CurveParams, build_curve
from hodgekp.operators import (
    givental_direct,
    givental_factorized,
    givental_kernel,
    givental_routes,
    odd_t_to_big_t,
    rl_transform_virasoro,
    transformed_variable_images,
    w_op,
    weight_monomials,
)
from hodgekp.tau import (
    PointArtifacts,
    _sub_multisets,
    bgw_tau,
    hodge_partition,
    kw_tau,
    psi_correlator,
    tau_qp_check,
    theta_correlator,
    trust_band,
)

from conftest import (
    assemble_tau,
    partitions_into,
    psi_dimension,
    reference_psi_correlator,
    reference_sub_multisets,
    reference_theta_correlator,
    theta_dimension,
    tp_exp,
)


@pytest.mark.parametrize(
    "call",
    [
        lambda: weight_monomials("t", 8),
        lambda: list(partitions_into(6, 3, 6)),
        lambda: list(_sub_multisets((3, 1, 1, 0))),
    ],
    ids=["weight_monomials", "_partitions_into", "_sub_multisets"],
)
def test_recursive_enumerations_leave_no_reference_cycles(call):
    # what they build is freed by reference counting alone, not left for
    # the cyclic collector
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("items", [(), (0,), (3, 1, 1, 0), (2, 2, 2), (5, 3, 3, 1, 1, 1, 0), (1, 3, 1, 0, 3)])
def test_sub_multisets_match_recursive_enumeration(items):
    assert Counter(_sub_multisets(items)) == Counter(reference_sub_multisets(items))


@pytest.mark.parametrize(
    "correlator, reference, dimension",
    [
        (psi_correlator, reference_psi_correlator, lambda g, n: 3 * g - 3 + n),
        (theta_correlator, reference_theta_correlator, lambda g, n: g - 1),
    ],
    ids=["psi", "theta"],
)
def test_integer_recursion_matches_fraction_recursion(correlator, reference, dimension):
    # every (g, alpha) of t-weight 2D + n <= 13, which holds every
    # correlator of the tau-functions' terms up to weight 13
    W = 13
    checked = 0
    for g in range(W + 1):
        for n in range(1, W + 1):
            D = dimension(g, n)
            if D < 0 or 2 * D + n > W:
                continue
            for alpha in partitions_into(D, n, D):
                value = correlator(g, alpha)
                assert isinstance(value, F) and value == reference(g, alpha), (g, alpha)
                checked += 1
    assert checked >= 20


@pytest.mark.parametrize(
    "build, correlator, dimension, weights",
    [
        (kw_tau, reference_psi_correlator, psi_dimension, range(3, 19)),
        (bgw_tau, reference_theta_correlator, theta_dimension, range(1, 17)),
    ],
    ids=["kw", "bgw"],
)
def test_cut_and_join_equals_the_correlator_assembly(build, correlator, dimension, weights):
    # the constraints' cut-and-join operator against exp of the sum of the
    # `Fraction` reference correlators, two routes that share no code
    for W in weights:
        assert build(W).body == assemble_tau(W, correlator, dimension), W


@pytest.mark.parametrize(
    "name, least_genus, dimension",
    [("psi_correlator", 0, psi_dimension), ("theta_correlator", 1, theta_dimension)],
    ids=["psi", "theta"],
)
def test_a_cold_build_caches_only_correlators_of_their_dimension(name, least_genus, dimension, monkeypatch):
    # each split of the recursion asks for the one genus its dimension
    # allows, so the cache holds no correlator that is zero by dimension
    import hodgekp.tau as tau_mod

    real = getattr(tau_mod, name)
    real.cache_clear()
    asked = set()

    def recording(g, args):
        asked.add((g, args))
        return real(g, args)

    monkeypatch.setattr(tau_mod, name, recording)
    assemble_tau(16, recording, dimension)
    assert len(asked) == real.cache_info().currsize > 0
    for g, args in asked:
        n = len(args)
        assert g >= least_genus and 2 * g - 2 + n > 0 and sum(args) == dimension(g, n), (g, args)


class TestPsiCorrelators:
    def test_seeds(self):
        assert psi_correlator(0, (0, 0, 0)) == 1
        assert psi_correlator(1, (1,)) == F(1, 24)

    def test_genus_zero(self):
        assert psi_correlator(0, (1, 0, 0, 0)) == 1
        assert psi_correlator(0, (2, 0, 0, 0, 0)) == 1
        assert psi_correlator(0, (1, 1, 0, 0, 0)) == 2

    def test_genus_one(self):
        assert psi_correlator(1, (2, 0)) == F(1, 24)
        assert psi_correlator(1, (1, 1)) == F(1, 24)
        assert psi_correlator(1, (2, 1, 0)) == F(1, 12)
        assert psi_correlator(1, (1, 1, 1)) == F(1, 12)

    def test_genus_two(self):
        assert psi_correlator(2, (4,)) == F(1, 1152)
        assert psi_correlator(2, (5, 0)) == F(1, 1152)
        assert psi_correlator(2, (4, 1)) == F(1, 384)
        assert psi_correlator(2, (3, 2)) == F(29, 5760)
        assert psi_correlator(2, (7,)) == 0  # dimension mismatch

    def test_unstable_vanish(self):
        assert psi_correlator(0, (0, 0)) == 0
        assert psi_correlator(0, ()) == 0


class TestLiteratureOracles:
    """Closed formulas from the literature, evaluated without any code of
    the constraint recursion they check."""

    @staticmethod
    def _tuples(n, total, top):
        """Nonincreasing n-tuples of integers in [0, top] summing to total."""
        return [
            tuple(reversed(a))
            for a in itertools.combinations_with_replacement(range(top + 1), n)
            if sum(a) == total
        ]

    def test_genus_zero_closed_form(self):
        # <tau_{a_1} ... tau_{a_n}>_0 = (n-3)! / prod a_i!
        cases = 0
        for n in range(3, 8):
            for args in self._tuples(n, n - 3, n - 3):
                expect = F(math.factorial(n - 3), math.prod(math.factorial(a) for a in args))
                assert psi_correlator(0, args) == expect, args
                cases += 1
        assert cases == 1 + 1 + 2 + 3 + 5

    def test_witten_one_point(self):
        # <tau_{3g-2}>_g = 1 / (24^g g!)
        for g in range(1, 6):
            assert psi_correlator(g, (3 * g - 2,)) == F(1, 24**g * math.factorial(g)), g

    @staticmethod
    def _double_factorial(n):
        return math.prod(range(n, 0, -2))

    def test_witten_one_point_on_the_cut_and_join_base(self):
        # [t_(6g-3)] kw_tau = (6g-3)!! <tau_{3g-2}>_g hbar^(2g-1)
        body = kw_tau(21).body
        for g in range(1, 5):
            expect = F(self._double_factorial(6 * g - 3), 24**g * math.factorial(g))
            assert body.coeff(((6 * g - 3, 1),)) == HbarPoly.hbar(2 * g - 1, expect), g

    def test_norbury_one_point_on_the_cut_and_join_base(self):
        # [t_(2g-1)] bgw_tau = (2g-1)!! <tau_{g-1}>^Theta_g hbar^(2g-1), with
        # <tau_{g-1}>^Theta_g = (2g-1)!! (2g-3)!! / (8^g g!) (Norbury)
        body = bgw_tau(13).body
        df = self._double_factorial
        for g in range(1, 8):
            expect = F(df(2 * g - 1) * df(2 * g - 1) * df(2 * g - 3), 8**g * math.factorial(g))
            assert body.coeff(((2 * g - 1, 1),)) == HbarPoly.hbar(2 * g - 1, expect), g

    def test_string_and_dilaton_equations(self):
        # <tau_0 prod tau_(a_i)>_g = sum_j <... tau_(a_j - 1) ...>_g and
        # <tau_1 prod tau_(a_i)>_g = (2g - 2 + n) <prod tau_(a_i)>_g for a
        # stable (g, n), up to t-weight 16 on the left
        nonzero = 0
        for g in range(4):
            for n in range(1, 17):
                D = psi_dimension(g, n)
                if D is None or 2 * D + n + 3 > 16:
                    continue
                for args in partitions_into(D + 1, n, D + 1):
                    lowered = [args[:j] + (a - 1,) + args[j + 1 :] for j, a in enumerate(args) if a]
                    string = psi_correlator(g, args + (0,))
                    assert string == sum(psi_correlator(g, b) for b in lowered), (g, args)
                    nonzero += string != 0
                for args in partitions_into(D, n, D):
                    dilaton = psi_correlator(g, args + (1,))
                    assert dilaton == (2 * g - 2 + n) * psi_correlator(g, args), (g, args)
                    nonzero += dilaton != 0
        assert nonzero >= 40

    def test_norbury_tau0_insertion(self):
        # <Theta tau_0 prod tau_{a_i}>_g = (2g - 2 + n) <Theta prod tau_{a_i}>_g
        cases = 0
        for g in range(1, 6):
            for n in range(0, 6):
                if 2 * g - 2 + n <= 0:
                    continue
                for args in self._tuples(n, g - 1, g - 1):
                    assert theta_correlator(g, args + (0,)) == (2 * g - 2 + n) * theta_correlator(g, args)
                    cases += 1
        assert cases == 49


class TestThetaCorrelators:
    def test_base(self):
        assert theta_correlator(1, (0,)) == F(1, 8)

    def test_genus_one_strings(self):
        # <Theta tau_0^n>_1 = (n-1)!/8
        assert theta_correlator(1, (0, 0)) == F(1, 8)
        assert theta_correlator(1, (0, 0, 0)) == F(2, 8)
        assert theta_correlator(1, (0, 0, 0, 0)) == F(6, 8)

    def test_genus_two(self):
        assert theta_correlator(2, (1,)) == F(3, 128)

    def test_dimension_gate(self):
        assert theta_correlator(2, (0,)) == 0
        assert theta_correlator(0, (0, 0, 0)) == 0


class TestBaseTaus:
    def test_kw_lowest_coefficients(self):
        body = kw_tau(12).body
        assert body.constant_term() == HbarPoly.one()
        assert body.coeff(((1, 3),)) == HbarPoly.hbar(1, F(1, 6))
        assert body.coeff(((3, 1),)) == HbarPoly.hbar(1, F(1, 8))

    def test_kw_dimension_constraint(self):
        body = kw_tau(12).body
        for mono, c in body.terms.items():
            w = mono_weight("t", mono)
            assert w % 3 == 0
            assert set(c.exponents()) == ({w // 3} if mono else {0})
            assert all(v % 2 == 1 for v, _ in mono)

    def test_bgw_lowest_coefficient(self):
        body = bgw_tau(10).body
        assert body.coeff(((1, 1),)) == HbarPoly.hbar(1, F(1, 8))

    def test_bgw_grading(self):
        body = bgw_tau(10).body
        for mono, c in body.terms.items():
            w = mono_weight("t", mono)
            assert set(c.exponents()) == ({w} if mono else {0})
            assert all(v % 2 == 1 for v, _ in mono)

    def test_minimum_weights_enforced(self):
        with pytest.raises(ValueError):
            kw_tau(2)
        with pytest.raises(ValueError):
            bgw_tau(0)

    def test_tp_exp_inverts_constant_free(self):
        # the reference exponential: exp(0) = 1, exp(t_1) to weight 6 is
        # sum_n t_1^n / n!, and a constant term is refused
        assert tp_exp(TPoly.zero("t", 6)) == TPoly.one("t", 6)
        t1 = TPoly.variable("t", 1, 6)
        assert tp_exp(t1) == TPoly("t", 6, {((1, n),): F(1, math.factorial(n)) for n in range(7)})
        with pytest.raises(ValueError):
            tp_exp(TPoly.one("t", 6))


def _constraint_op(n, W, dilaton_index, extras=()):
    """The reduced-hierarchy constraint mode L_n on hbar-stripped series:
    (1/2) sum_{k odd} k t_k d_{k+2n} - (1/2) d_{dil+2n}
    + (1/4) sum_{a+b=2n, odd} d_a d_b + optional inhomogeneous parts."""
    from hodgekp.operators import LinearOp

    items = []
    for k in range(1, W + 1, 2):
        if 1 <= k + 2 * n <= W:
            items.append(("md", k, k + 2 * n, F(k, 2)))
    di = dilaton_index + 2 * n
    if 1 <= di <= W:
        items.append(("d", di, F(-1, 2)))
    if n >= 1:
        for a in range(1, 2 * n, 2):
            b = 2 * n - a
            if a <= b <= W:
                items.append(("dd", a, b, F(1, 2) if a != b else F(1, 4)))
    items.extend(extras)
    return LinearOp.from_terms("t", items)


class TestConstraintResiduals:
    """The generated tau-functions annihilate their constraint modes as
    output-level polynomial identities; this validates the generators
    through a different functional form than the recursion they used."""

    def test_psi_tau_constraints(self):
        from conftest import hbar_weight_strip

        W = 12
        tau = hbar_weight_strip(kw_tau(W).body, 1, 3)
        for n in (-1, 0, 1, 2):
            extras = []
            if n == -1:
                extras.append(("mm", 1, 1, F(1, 4)))
            if n == 0:
                extras.append(("id", F(1, 16)))
            res = _constraint_op(n, W, 3, extras).apply(tau)
            covered = W - max(3 + 2 * n, 0)
            for mono, c in res.terms.items():
                assert mono_weight("t", mono) > covered, (n, mono, c)

    def test_theta_tau_constraints(self):
        from conftest import hbar_weight_strip

        W = 10
        tau = hbar_weight_strip(bgw_tau(W).body, 1, 1)
        for n in (0, 1, 2):
            extras = [("id", F(1, 16))] if n == 0 else []
            res = _constraint_op(n, W, 1, extras).apply(tau)
            covered = W - (1 + 2 * n)
            for mono, c in res.terms.items():
                assert mono_weight("t", mono) > covered, (n, mono, c)


class TestHodgePartition:
    def test_zero_couplings_identity(self):
        # the trivial degeneration: no couplings, action is the identity
        from hodgekp.operators import givental_direct

        base = odd_t_to_big_t(kw_tau(9).body)
        assert givental_direct({}, 9)(base) == base

    def test_pipelines_agree_and_leading_data(self, p132):
        Z = hodge_partition(p132, 9)
        su = -p132.p - p132.q + p132.p * p132.q / (p132.p + p132.q)
        # the hbar^1 component of the T0 coefficient (higher hbar powers
        # are out-of-band tails of the weight truncation)
        assert Z.body.coeff(((0, 1),)).coeff(1) == su / 24

    def test_p_q_symmetry(self):
        a = hodge_partition(CurveParams(F(0), F(4), F(2)), 8)
        b = hodge_partition(CurveParams(F(4), F(0), F(2)), 8)
        assert a.body == b.body

    def test_theta_mode(self, p132):
        Z = hodge_partition(p132, 7, mode="theta")
        assert Z.body.constant_term().coeff(0) == 1


def _series_mul(a, b, n):
    """Product of two power series (coefficient lists) to order n."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1)]


def _faber_pandharipande(G):
    """{(g, i): [t^(2g) k^i] ((t/2)/sin(t/2))^(k+1)} for 1 <= g <= G.

    With L = log((t/2)/sin(t/2)), the power is exp((k+1) L) =
    sum_m (k+1)^m L^m / m!, and L starts at t^2, so m <= G suffices."""
    n = 2 * G
    # u = sin(t/2)/(t/2) - 1 and L = -log(1 + u) = sum_m (-1)^m u^m / m
    u = [F(0)] * (n + 1)
    for j in range(1, G + 1):
        u[2 * j] = F((-1) ** j, 4**j * math.factorial(2 * j + 1))
    L, power = [F(0)] * (n + 1), [F(1)] + [F(0)] * n
    for m in range(1, G + 1):
        power = _series_mul(power, u, n)
        L = [x + F((-1) ** m, m) * y for x, y in zip(L, power)]
    out, power = {}, [F(1)] + [F(0)] * n
    for m in range(G + 1):
        for g in range(1, G + 1):
            for i in range(m + 1):
                c = math.comb(m, i) * power[2 * g] / math.factorial(m)
                out[g, i] = out.get((g, i), F(0)) + c
        power = _series_mul(power, L, n)
    return out


class TestFaberPandharipande:
    """One-point linear Hodge integrals against Faber-Pandharipande,
    1 + sum_{g>=1} sum_i t^(2g) k^i <psi^(2g-2+i) lambda_(g-i)>_g
    = ((t/2)/sin(t/2))^(k+1), computed here from sin alone.

    At q = 0 or p = 0 the class is Lambda^v(4) = sum_j (-4)^j lambda_j, so
    [T_d hbar^(2g-1)] Z = (-4)^(g-i) <psi^d lambda_(g-i)>_g, i = d - 2g + 2."""

    W = 21

    @pytest.mark.parametrize("q,p", [(0, 4), (4, 0)])
    def test_in_band_one_point_coefficients(self, q, p):
        Z = hodge_partition(CurveParams(F(q), F(p), F(2)), self.W)
        a, b = trust_band(Z.kind)
        G = 5
        fp = _faber_pandharipande(G)
        assert fp[1, 0] == F(1, 24) and fp[2, 2] == F(1, 1152)
        checked = nonzero = 0
        for d in range((self.W - 1) // 2 + 1):
            assert a * (2 * G + 1) > self.W + b * (2 * d + 1)  # no genus above G is in band
            for g in range(1, G + 1):
                if a * (2 * g - 1) > self.W + b * (2 * d + 1):
                    continue
                i = d - 2 * g + 2
                expect = (-4) ** (g - i) * fp[g, i] if 0 <= i <= g else 0
                assert Z.body.coeff(((d, 1),)).coeff(2 * g - 1) == expect, (d, g)
                checked += 1
                nonzero += expect != 0
        assert nonzero == 8 and checked > nonzero
        # genus 2, and genus 4 at the top psi power <tau_10>_4 = 1/(24^4 4!)
        assert [Z.body.coeff(((d, 1),)).coeff(3) for d in (2, 3, 4)] == [F(7, 360), F(-1, 120), F(1, 1152)]
        assert Z.body.coeff(((10, 1),)).coeff(7) == F(1, 24**4 * 24)


class TestLambdaG:
    """Two- and three-point linear Hodge integrals against the lambda_g
    formula <tau_a1 ... tau_an lambda_g>_g = C(2g-3+n; a) b_g
    (Getzler-Pandharipande, Faber-Pandharipande), with
    1 + sum_g b_g t^(2g) = (t/2)/sin(t/2), the k = 0 part of the
    Faber-Pandharipande oracle above.

    At q = 0 or p = 0 the class is Lambda^v(4) = sum_j (-4)^j lambda_j, and
    for sum a = 2g - 3 + n dimension leaves only lambda_g.  So the
    connected coefficient [T_a1 ... T_an hbar^(2g-2+n)] log Z is
    (-4)^g C(2g-3+n; a) b_g / |Aut|."""

    W = 27

    @pytest.fixture(scope="class", params=[(0, 4), (4, 0)], ids=["0-4", "4-0"])
    def Z(self, request):
        q, p = request.param
        return hodge_partition(CurveParams(F(q), F(p), F(2)), self.W)

    def test_in_band_two_point_coefficients(self, Z):
        # the connected coefficient is Z's minus the products of its
        # one-point coefficients
        a_band, b_band = trust_band(Z.kind)
        G = 3
        fp = _faber_pandharipande(G)
        got = {}
        for g in range(1, G + 1):
            for a in range(g):
                b = 2 * g - 1 - a
                if a_band * 2 * g > self.W + b_band * (2 * a + 2 * b + 2):
                    continue
                one_point = Z.body.coeff(((a, 1),)) * Z.body.coeff(((b, 1),))
                got[a, b, g] = Z.body.coeff(((a, 1), (b, 1))).coeff(2 * g) - one_point.coeff(2 * g)
                assert got[a, b, g] == (-4) ** g * math.comb(2 * g - 1, a) * fp[g, 0], (a, b, g)
        assert got == {(0, 1, 1): F(-1, 6), (0, 3, 2): F(7, 360), (1, 2, 2): F(7, 120)}

    def test_in_band_three_point_coefficients(self, Z):
        # [m] log Z read from Z restricted to the divisors of m: with u that
        # restriction less its constant term, log(1 + u) = u - u^2/2 + u^3/3
        # at a monomial of three factors.  The constant term is 1 at every
        # in-band hbar exponent, 12e <= W; above that it is a partial sum.
        a_band, b_band = trust_band(Z.kind)
        assert [Z.body.coeff(()).coeff(e) for e in range(self.W // a_band + 1)] == [1, 0, 0]
        G = 3
        fp = _faber_pandharipande(G)
        got = {}
        for g in range(1, G + 1):
            e = 2 * g + 1
            for a, b, c in partitions_into(2 * g, 3, 2 * g):
                if a_band * e > self.W + b_band * (4 * g + 3):
                    continue
                mult = Counter((a, b, c))
                mono = tuple(sorted(mult.items()))
                powers = itertools.product(*(range(k + 1) for k in mult.values()))
                divisors = [tuple((v, k) for v, k in zip(mult, ks) if k) for ks in powers]
                u = TPoly("T", self.W, {d: Z.body.coeff(d) for d in divisors if d})
                log = u - (u * u).scale(F(1, 2)) + (u * u * u).scale(F(1, 3))
                aut = math.prod(math.factorial(k) for k in mult.values())
                multinomial = math.factorial(2 * g) // (math.factorial(a) * math.factorial(b) * math.factorial(c))
                got[c, b, a] = log.coeff(mono).coeff(e)
                assert got[c, b, a] == (-4) ** g * multinomial * fp[g, 0] / aut, (a, b, c, g)
        assert got == {
            (0, 0, 2): F(-1, 12),
            (0, 1, 1): F(-1, 6),
            (0, 0, 4): F(7, 720),
            (0, 1, 3): F(7, 90),
            (0, 2, 2): F(7, 120),
            (1, 1, 2): F(7, 60),
        }


class TestTauQpIdentity:
    @pytest.mark.parametrize(
        "q,p,s",
        [(1, 3, 2), (-1, 2, 1), (0, 4, 2), (4, 0, 2), (3, 1, 2), (1, 3, -2)],
        ids=["(1,3,2)", "(-1,2,1)", "(0,4,2)", "(4,0,2)", "(3,1,2)", "negative-root"],
    )
    def test_two_routes_agree(self, q, p, s):
        rep = tau_qp_check(CurveParams(F(q), F(p), F(s)), 7)
        assert rep.equal

    @pytest.mark.parametrize(
        "q,p,s",
        [(1, 3, 2), (-1, 2, 1), (1, 3, -2)],
        ids=["(1,3,2)", "(-1,2,1)", "negative-root"],
    )
    def test_theta_routes_agree(self, q, p, s):
        rep = tau_qp_check(CurveParams(F(q), F(p), F(s)), 6, "theta")
        assert rep.equal

    @pytest.mark.parametrize("W", range(3, 8))
    def test_group_route_curve_order_is_enough(self, W):
        # the curve built to max(W + 1, 4) inside the check gives what a
        # curve built to 2W + 2 gives
        point = CurveParams(F(-1), F(2), F(1))
        curve = build_curve(point, 2 * W + 2)
        for mode, base in (("standard", kw_tau), ("theta", bgw_tau)):
            rep = tau_qp_check(point, W, mode)
            assert rep.equal
            assert rep.tau.body == rl_transform_virasoro(curve, W, mode)(base(W).body)

    def test_reduction_point_has_no_even_times(self):
        rep = tau_qp_check(CurveParams(F(-1), F(2), F(1)), 7)
        assert all(
            v % 2 == 1 for mono in rep.tau.body.terms for v, _ in mono
        )

    def test_generic_point_has_even_times(self):
        rep = tau_qp_check(CurveParams(F(1), F(3), F(2)), 7)
        assert any(
            v % 2 == 0 for mono in rep.tau.body.terms for v, _ in mono
        )

    def test_trust_band_lookup(self):
        assert trust_band("tau_qp") == (12, 3)
        assert trust_band("tau_theta_qp") == (2, 1)

    def test_graded_coefficients_stable_under_weight_growth(self):
        # the exactness band: graded coefficients with 12e <= W + 3v must
        # not change when the construction weight grows
        par = CurveParams(F(1), F(3), F(2))
        t7 = tau_qp_check(par, 7).tau.body
        t9 = tau_qp_check(par, 9).tau.body
        a, b = trust_band("tau_qp")
        checked = 0
        for mono, c in t7.terms.items():
            v = mono_weight("t", mono)
            for e in c.exponents():
                if a * e <= 7 + b * v:
                    checked += 1
                    assert t9.coeff(mono).coeff(e) == c.coeff(e), (mono, e)
        assert checked >= 5


# Every public entry that takes a side `mode`, called with the former
# dilaton-shift name "kw"; R and the curve are the first catalog point's,
# and `givental_direct` gets no couplings, so that no W_k acts and its
# own lookup must reject the mode.
_MODE_ENTRIES = {
    "w_op": lambda mode: w_op(1, 5, mode),
    "givental_direct": lambda mode: givental_direct({}, 5, mode),
    "transformed_variable_images": lambda mode: transformed_variable_images(build_curve(CATALOG[0], 6).R, 5, mode),
    "givental_factorized": lambda mode: givental_factorized(
        build_curve(CATALOG[0], 6).R, 5, mode, kernel=givental_kernel(build_curve(CATALOG[0], 6).R, 5)
    ),
    "givental_routes": lambda mode: givental_routes(build_curve(CATALOG[0], 6), 5, mode),
    "rl_transform_virasoro": lambda mode: rl_transform_virasoro(build_curve(CATALOG[0], 6), 5, mode),
    "hodge_partition": lambda mode: hodge_partition(CATALOG[0], 5, mode),
    "tau_qp_check": lambda mode: tau_qp_check(CATALOG[0], 5, mode),
    "PointArtifacts.base": lambda mode: PointArtifacts(CATALOG[0]).base(mode, 5),
    "PointArtifacts.identity": lambda mode: PointArtifacts(CATALOG[0]).identity(mode, 5),
}


@pytest.mark.parametrize("entry", list(_MODE_ENTRIES.values()), ids=list(_MODE_ENTRIES))
def test_an_unknown_mode_is_a_value_error(entry):
    with pytest.raises(ValueError, match="^unknown mode 'kw'$"):
        entry("kw")
