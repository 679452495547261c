"""Special-function kernel: identity checks, frozen independent-oracle
values, and randomized comparisons against mpmath.

Log-gamma, digamma and the incomplete Gamma come from ``math`` and
``scipy.special``; their tests pin those routines at the points the
closed forms use them, and check that the parameter boundaries keep
their arguments in domain."""

import math
import zlib

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import digamma, gammainc

from leoris.channel import GammaApprox
from leoris.errors import ConvergenceError, DomainError
from leoris.fading import KappaMuParams
from leoris.metrics import CoverageQuery, coverage_probability
from leoris.specfun import (
    AccuracyBudget,
    gauss_2f1,
    generalized_pfq,
    kummer_1f1,
)

mp.mp.dps = 30


def test_ln_gamma_known_values():
    assert math.lgamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert math.lgamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
    # frozen high-precision oracle
    assert math.lgamma(7.3) == pytest.approx(7.1478925230222487, rel=1e-12)


def test_ln_gamma_domain():
    # log-gamma is taken at fading cluster counts and Gamma shapes, which
    # their parameter types keep positive
    for bad in (0.0, -2.5, math.nan):
        with pytest.raises(DomainError):
            KappaMuParams(kappa=1.0, mu=bad)
        with pytest.raises(DomainError):
            GammaApprox(alpha=bad, beta=1.0)


def test_reg_lower_inc_gamma_values():
    assert gammainc(3.0, 0.0) == 0.0
    assert gammainc(1.0, 2.0) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-14)
    # frozen oracle: quadrature of t^(a-1) e^-t over [0, 1.9], regularized
    assert gammainc(2.7, 1.9) == pytest.approx(0.36847234471921123, rel=1e-12)
    # coverage is the complementary tail at sqrt(rho_th / rho0) / beta
    query = CoverageQuery(rho_th=1.9 ** 2, rho0=1.0)
    assert coverage_probability(query, GammaApprox(2.7, 1.0)) == pytest.approx(
        1.0 - 0.36847234471921123, rel=1e-12)


def test_reg_lower_inc_gamma_quadrature_oracle():
    val, _ = quad(lambda t: t ** 1.7 * math.exp(-t), 0.0, 1.9, epsabs=1e-13, epsrel=1e-13)
    assert gammainc(2.7, 1.9) == pytest.approx(val / math.gamma(2.7), rel=1e-10)


def test_reg_lower_inc_gamma_monotone_and_bounded():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        a = 10.0 ** rng.uniform(-1, 2)
        x = 10.0 ** rng.uniform(-2, 2.5)
        ga = GammaApprox(a, 1.0)
        lo = coverage_probability(CoverageQuery(x * x, 1.0), ga)
        hi = coverage_probability(CoverageQuery((x * 1.07) ** 2, 1.0), ga)
        assert 0.0 <= lo <= 1.0
        assert hi <= lo + 1e-14


def test_reg_lower_inc_gamma_limits():
    assert gammainc(2.0, 800.0) == pytest.approx(1.0, abs=1e-14)
    # the incomplete-Gamma argument sqrt(rho_th / rho0) is kept real and
    # defined by the query type
    for bad in (-0.5, math.nan):
        with pytest.raises(DomainError):
            CoverageQuery(rho_th=bad, rho0=1.0)
    with pytest.raises(DomainError):
        CoverageQuery(rho_th=1.0, rho0=math.nan)


def test_kummer_known_values():
    assert kummer_1f1(1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-13)
    assert kummer_1f1(2.3, 0.7, 0.0) == 1.0
    # frozen arbitrary-precision oracle
    assert kummer_1f1(2.5, 2.0, 3.0) == pytest.approx(32.405859273008158, rel=1e-12)


def test_kummer_exponential_identity():
    for x in np.linspace(-20.0, 20.0, 41):
        for a in (0.5, 1.7, 4.2):
            assert kummer_1f1(a, a, float(x)) == pytest.approx(math.exp(x), rel=1e-9)


def test_kummer_pole():
    with pytest.raises(DomainError):
        kummer_1f1(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        kummer_1f1(1.0, -3.0, 1.0)


def test_kummer_budget_exhaustion():
    with pytest.raises(ConvergenceError):
        kummer_1f1(2.0, 1.0, 400.0, AccuracyBudget(rel_tol=1e-12, max_terms=20))


def test_gauss_2f1_known_values():
    assert gauss_2f1(1.4, 0.9, 0.9, 0.0) == 1.0
    # frozen oracle: Euler transform + series
    assert gauss_2f1(1.0, 1.75, 2.5, -4.0) == pytest.approx(0.29013246789642371, rel=1e-12)


def test_gauss_2f1_geometric_identity():
    for z in np.linspace(-50.0, 0.9, 60):
        for b in (0.8, 1.9, 3.4):
            assert gauss_2f1(1.0, b, b, float(z)) == pytest.approx(1.0 / (1.0 - z), rel=1e-9)


def test_gauss_2f1_domain():
    with pytest.raises(DomainError):
        gauss_2f1(1.0, 1.0, -2.0, 0.5)
    with pytest.raises(DomainError):
        gauss_2f1(1.0, 1.0, 2.0, 1.0)


def test_generalized_pfq_values():
    assert generalized_pfq([1.3, 0.4], [2.2, 0.9], 0.0) == 1.0
    # frozen arbitrary-precision oracle
    assert generalized_pfq([1.0, 1.0], [2.0, 1.2, 1.7], -0.05) == pytest.approx(
        0.9878136511616127, rel=1e-12)


def test_generalized_pfq_parameter_cancellation():
    # 1F2(a; a, 1; x) == 0F1(; 1; x)
    for x in (-0.4, 0.3, 1.7):
        lhs = generalized_pfq([1.8], [1.8, 1.0], x)
        rhs = generalized_pfq([], [1.0], x)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_generalized_pfq_domain():
    with pytest.raises(DomainError):
        generalized_pfq([1.0], [-2.0], 0.5)
    with pytest.raises(DomainError):
        generalized_pfq([1.0, 1.0, 1.0], [0.5], 0.5)  # p > q+1
    with pytest.raises(DomainError):
        generalized_pfq([1.0, 1.0], [0.5], 1.5)  # p == q+1 needs |x| < 1


def test_digamma_values():
    assert digamma(2.0) - digamma(1.0) == pytest.approx(1.0, rel=1e-12)
    assert digamma(1.0) == pytest.approx(-0.57721566490153286, rel=1e-12)
    assert digamma(0.5) == pytest.approx(digamma(1.0) - 2.0 * math.log(2.0), rel=1e-12)


@pytest.mark.parametrize("fn,sample,oracle", [
    ("ln_gamma", lambda r: (10.0 ** r.uniform(-2, 2),),
     lambda a: mp.loggamma(a)),
    ("digamma", lambda r: (10.0 ** r.uniform(-2, 2),),
     lambda a: mp.digamma(a)),
    ("reg_lower_inc_gamma", lambda r: (10.0 ** r.uniform(-1, 1.5), 10.0 ** r.uniform(-2, 2)),
     lambda a, x: mp.gammainc(a, 0, x, regularized=True)),
    ("kummer_1f1", lambda r: (r.uniform(0.2, 8.0), r.uniform(0.2, 8.0), r.uniform(-20, 20)),
     lambda a, b, x: mp.hyp1f1(a, b, x)),
    ("gauss_2f1", lambda r: (r.uniform(0.2, 3.0), r.uniform(0.2, 3.0),
                             r.uniform(3.2, 6.0), r.uniform(-80.0, 0.9)),
     lambda a, b, c, z: mp.hyp2f1(a, b, c, z)),
])
def test_random_points_against_mpmath(fn, sample, oracle):
    func = {"ln_gamma": math.lgamma, "digamma": digamma, "reg_lower_inc_gamma": gammainc,
            "kummer_1f1": kummer_1f1, "gauss_2f1": gauss_2f1}[fn]
    rng = np.random.default_rng(zlib.crc32(fn.encode()))
    for _ in range(120):
        args = sample(rng)
        got = float(func(*args))
        want = float(oracle(*[mp.mpf(a) for a in args]))
        assert got == pytest.approx(want, rel=1e-8, abs=1e-280), f"{fn}{args}"


def test_pfq_random_points_against_mpmath():
    rng = np.random.default_rng(314)
    for _ in range(120):
        p = rng.integers(0, 3)
        q = rng.integers(p, 4) if p > 0 else rng.integers(1, 4)
        num = [float(rng.uniform(0.2, 4.0)) for _ in range(p)]
        den = [float(rng.uniform(0.4, 4.0)) for _ in range(q)]
        x = float(rng.uniform(-3.0, 3.0))
        got = generalized_pfq(num, den, x)
        want = float(mp.hyper([mp.mpf(v) for v in num], [mp.mpf(v) for v in den], x))
        assert got == pytest.approx(want, rel=1e-8), (num, den, x)


def test_budget_validation():
    with pytest.raises(DomainError):
        AccuracyBudget(rel_tol=0.0)
    with pytest.raises(DomainError):
        AccuracyBudget(max_terms=0)
