from fractions import Fraction

import pytest
from hypothesis import settings

from hodgekp.algebra import TPoly, ZSeries
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
