from fractions import Fraction

import pytest
from hypothesis import settings

from hodgekp.algebra import HbarPoly, TPoly, ZSeries, mono_str, mono_weight
from hodgekp.curve import CurveParams, build_curve
from hodgekp.operators import weight_monomials

# Exact arithmetic on this code's inputs varies widely in time per
# example, and host speed drifts too, so a per-example deadline would
# make the suite flaky; derandomized draws make each run the same run.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=30)
settings.load_profile("tier1")


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
