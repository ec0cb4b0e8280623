"""The integer harness against the former whole-polynomial comparisons.

Every route pair is compared on integer numerators by `same_value`, and a
`TPoly` is built only for a failing witness.  The references in
`conftest.py` build both sides as polynomials through their former
bodies and compare them with `==`.  Under each mutation below the two
must report the same failures, entry by entry, and raise the same
`InvariantViolation` text; unmutated, both pass.  The conjugation check,
which runs on V's monomial ids, is held to its former loop on
monomials the same way.
"""

from fractions import Fraction as F

import pytest

from hodgekp import cli, curve as curve_module, operators, tau
from hodgekp.algebra import BIG_T_SIDE, HbarPoly, InvariantViolation, TPoly, mono_str
from hodgekp.curve import CATALOG, CurveParams, build_curve
from hodgekp.operators import (
    rl_identity_check,
    tqp_forms,
    virasoro_conjugation_check,
    virasoro_factorization_check,
)
from hodgekp.tau import bgw_tau, kw_tau

from conftest import (
    cpus,
    mutated_current_mode,
    op_scale,
    reference_conjugation_check,
    reference_lemma_factorization,
    reference_rl_identity_check,
    reference_tau_identity,
    reference_virasoro_factorization_check,
)

W = 7
POINT = CurveParams(F(1), F(3), F(2))


def _scaled_group_element(monkeypatch):
    real = operators.group_element
    monkeypatch.setattr(operators, "group_element", lambda curve, cap: op_scale(real(curve, cap), F(8, 7)))


class _BumpedGrunsky:
    """A Grunsky matrix with 1/7 added to its (1, 2) entry."""

    def __init__(self, G):
        self.G = G

    def v(self, k, m):
        return self.G.v(k, m) + (F(1, 7) if (k, m) == (1, 2) else 0)


def _bumped_grunsky(monkeypatch):
    # the check reads it through the curve (`CurveSeries.grunsky`), the
    # reference from `curve` directly
    real = curve_module.grunsky_matrix
    monkeypatch.setattr(curve_module, "grunsky_matrix", lambda h, size: _BumpedGrunsky(real(h, size)))


def _scaled_direct(monkeypatch):
    # the direct route's images times 8/7
    real = operators.givental_direct

    def scaled(couplings, W, mode="standard"):
        core = real(couplings, W, mode).core

        def mutated(items):
            return [({m: {e: 8 * c for e, c in slot.items()} for m, slot in acc.items()}, 7 * d) for acc, d in core(items)]

        return operators._map_on(BIG_T_SIDE, W, mutated)

    monkeypatch.setattr(operators, "givental_direct", scaled)


def _perturbed_translation(monkeypatch):
    # hbar^-1/7 added to the translation coefficient of t_5
    real = operators.translation_op

    def perturbed(coeffs, W, kind):
        coeffs = dict(coeffs)
        coeffs[5] = coeffs.get(5, 0) + HbarPoly.hbar(-1, F(1, 7))
        return real(coeffs, W, kind)

    monkeypatch.setattr(operators, "translation_op", perturbed)


MUTATIONS = {
    "none": lambda monkeypatch: None,
    "group-element-8/7": _scaled_group_element,
    "grunsky-entry+1/7": _bumped_grunsky,
    "direct-route-8/7": _scaled_direct,
    "translation+1/7": _perturbed_translation,
    "forms": lambda monkeypatch: None,  # a perturbed tqp_forms entry, see `_forms`
}


def _forms(mutation, W=W):
    forms = tqp_forms(POINT, (W - 1) // 2, W)
    if mutation == "forms":
        forms = list(forms)
        forms[2] = forms[2] + TPoly.variable("t", 4, W, F(1, 7))
    return forms


@pytest.fixture
def curve():
    # a fresh curve per test: the routes and group element kept on a curve
    # must be built under the test's mutation
    return build_curve(POINT, 2 * W + 2)


def _lemma_grunsky(monkeypatch, mutation, curve, weight):
    MUTATIONS[mutation](monkeypatch)
    rep = virasoro_factorization_check(curve, weight)
    expect = reference_virasoro_factorization_check(curve, weight)
    assert rep.passed == (mutation == "none")
    assert (rep.label, rep.checked, rep.failures) == (expect.label, expect.checked, expect.failures)
    return rep.checked


def _theorem_rl(monkeypatch, mutation, curve, weight):
    MUTATIONS[mutation](monkeypatch)
    forms = _forms(mutation, weight)
    extra = [kw_tau(weight).body]
    rep = rl_identity_check(curve, forms, extra=extra)
    expect = reference_rl_identity_check(curve, forms, extra=extra)
    assert rep.passed == (mutation == "none")
    assert (rep.label, rep.checked, rep.failures) == (expect.label, expect.checked, expect.failures)
    return rep.checked


def _lemma_factorization(monkeypatch, mutation, curve, weight):
    MUTATIONS[mutation](monkeypatch)

    class OnCurve(cli._PointRun):
        def curve(self, order):
            return curve

    config = cli.RunConfig(checks=["lemma-factorization"], points=[POINT], weight=weight)
    got = cli._chk_lemma_factorization(OnCurve(config, POINT, {}), POINT)
    assert got["passed"] == (mutation == "none")
    assert got == reference_lemma_factorization(curve, weight)
    return got["checked"]


@pytest.mark.parametrize("mutation", ["none", "group-element-8/7", "grunsky-entry+1/7"])
def test_lemma_grunsky(monkeypatch, curve, mutation):
    _lemma_grunsky(monkeypatch, mutation, curve, W)


@pytest.mark.parametrize("mutation", ["none", "group-element-8/7", "forms", "translation+1/7"])
def test_theorem_rl(monkeypatch, curve, mutation):
    _theorem_rl(monkeypatch, mutation, curve, W)


@pytest.mark.parametrize("mutation", ["none", "direct-route-8/7"])
def test_lemma_factorization(monkeypatch, curve, mutation):
    _lemma_factorization(monkeypatch, mutation, curve, W)


# The same comparisons at weights whose basis spans two batches of
# `operators.BATCH` (128): the t-basis at W = 11 has 195 elements, and
# the odd t-basis (theorem-rl) and the T-basis (lemma-factorization) at
# W = 15 have 137 each.  Failures and witnesses come in basis order.
@pytest.mark.parametrize(
    "check, weight, mutation",
    [
        (_lemma_grunsky, 11, "none"),
        (_lemma_grunsky, 11, "group-element-8/7"),
        (_lemma_grunsky, 11, "grunsky-entry+1/7"),
        (_theorem_rl, 15, "none"),
        (_theorem_rl, 15, "group-element-8/7"),
        (_theorem_rl, 15, "forms"),
        (_theorem_rl, 15, "translation+1/7"),
        (_lemma_factorization, 15, "none"),
        (_lemma_factorization, 15, "direct-route-8/7"),
    ],
    ids=lambda x: getattr(x, "__name__", str(x)).strip("_"),
)
def test_over_two_batches(monkeypatch, check, weight, mutation):
    checked = check(monkeypatch, mutation, build_curve(POINT, 2 * weight + 2), weight)
    assert checked > operators.BATCH


@pytest.mark.parametrize("mode", ["standard", "theta"])
@pytest.mark.parametrize("mutation", ["none", "group-element-8/7", "forms", "translation+1/7"])
def test_tau_identity(monkeypatch, curve, mode, mutation):
    MUTATIONS[mutation](monkeypatch)
    forms = _forms(mutation)
    base = (kw_tau if mode == "standard" else bgw_tau)(W)
    rep = tau._tau_identity(POINT, W, mode, curve, base, forms)
    equal, difference, body = reference_tau_identity(curve, W, mode, base, forms)
    assert rep.equal == equal == (mutation == "none")
    assert repr(rep.difference) == repr(difference)
    assert rep.tau.body == body


@pytest.mark.parametrize("mode", ["standard", "theta"])
def test_quantized_action_disagreement(monkeypatch, curve, mode):
    _scaled_direct(monkeypatch)
    base = (kw_tau if mode == "standard" else bgw_tau)(W)
    with pytest.raises(InvariantViolation) as got:
        tau._tau_identity(POINT, W, mode, curve, base, _forms("none"))
    with pytest.raises(InvariantViolation) as expect:
        reference_tau_identity(build_curve(POINT, 2 * W + 2), W, mode, base, _forms("none"))
    assert str(got.value) == str(expect.value)
    assert str(got.value).startswith(f"pipeline disagreement in the quantized action ({mode}); diff = ")


def test_chain_reduces_an_intermediate_only_past_512_bits():
    # no route at the weight these tests use makes a denominator that long
    seen = []

    def record(items):
        seen.append(items)
        return items

    # each element of a batch on its own: one past the rule, one below it
    for f, reduced in ((3**300, False), (3**330, True)):  # denominators of 478 and 526 bits
        seen.clear()
        value, small = ({((1, 1),): {0: 2 * f}}, 4 * f), ({((1, 1),): {0: 2}}, 4)
        out = operators._chain(record, record)([value, small])
        assert seen[0] == [value, small]
        assert seen[1] == [({((1, 1),): {0: 1}}, 2) if reduced else value, small]
        assert out == seen[1]


@pytest.mark.parametrize("point", CATALOG, ids=lambda p: p.label())
def test_conjugation_at_every_catalog_point(point):
    # one curve for the check and one for the reference, so neither reads
    # monomials the other numbered into V
    mine, ref = build_curve(point, 14), build_curve(point, 14)
    for W in range(3, 7):
        rep = virasoro_conjugation_check(mine, W)
        expect = reference_conjugation_check(ref, W)
        assert rep.passed
        assert (rep.label, rep.checked, rep.failures) == (expect.label, expect.checked, expect.failures)


CONJ_W = 5


@pytest.mark.parametrize("path, n", [("split", 2), ("in-process", 1)])
@pytest.mark.parametrize(
    "mode, mutation",
    [(-2, "coefficient"), (3, "coefficient"), (3, "extra"), (-2, "dropped"), (3, "dropped"), (-CONJ_W, "unnumbered")],
)
def test_conjugation_under_a_mutated_current_mode(monkeypatch, path, n, mode, mutation):
    mutated_current_mode(monkeypatch, mode, mutation, CONJ_W)
    with cpus(n):
        rep = virasoro_conjugation_check(build_curve(POINT, 12), CONJ_W)
    expect = reference_conjugation_check(build_curve(POINT, 12), CONJ_W)
    assert not rep.passed and {f["mode"] for f in rep.failures} == {mode}
    assert (rep.checked, rep.failures) == (expect.checked, expect.failures)


def test_conjugation_fails_on_a_monomial_its_plan_never_numbered(monkeypatch):
    # t_{W+1} lies in no monomial V numbered: J_k brings in t_{-k} at
    # most, and V only lowers indices; so (1/7)·t_{W+1} in X_{-W} lands off
    # V's ids on every monomial of weight below W, and each is a failure
    mutated_current_mode(monkeypatch, -CONJ_W, "unnumbered", CONJ_W)
    real, off_plan = operators._same_on_ids, []

    def spy(left, dl, right, dr, ids):
        same = real(left, dl, right, dr, ids)
        off_plan.extend(mono for mono in right if mono not in ids)
        return same

    monkeypatch.setattr(operators, "_same_on_ids", spy)
    with cpus(1):
        rep = virasoro_conjugation_check(build_curve(POINT, 12), CONJ_W)
    lighter = operators.weight_monomials("t", CONJ_W - 1)
    assert sorted(off_plan) == sorted(operators._mono_times(m, CONJ_W + 1) for m in lighter)
    assert [f["input"] for f in rep.failures] == [mono_str("t", m) for m in lighter]


@pytest.mark.parametrize("flip_sign", [False, True])
def test_conjugation_under_a_scaled_group_element(monkeypatch, flip_sign):
    _scaled_group_element(monkeypatch)
    rep = virasoro_conjugation_check(build_curve(POINT, 12), CONJ_W, flip_sign=flip_sign)
    expect = reference_conjugation_check(build_curve(POINT, 12), CONJ_W, flip_sign=flip_sign)
    assert not rep.passed
    assert (rep.checked, rep.failures) == (expect.checked, expect.failures)
