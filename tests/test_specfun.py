"""Special functions the closed forms call: identity checks, frozen
independent-oracle values, and randomized comparisons against mpmath.

The capacity series kernel ``metrics._pfq_batch`` and the RIS-moment 2F1
reduction ``geometry._sqrt_weighted_integral`` live next to their only
callers. Log-gamma, digamma and the incomplete Gamma come from ``math``
and ``scipy.special``; their tests pin those routines at the points the
closed forms use them, and check that the parameter boundaries keep
their arguments in domain."""

import math
import zlib

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import digamma, gammainc

from conftest import (capacity_series_point, pfq_one, pfq_series_loop, sqrt_weighted_mpmath,
                      sqrt_weighted_point)
from leoris import geometry, metrics
from leoris.channel import GammaApprox
from leoris.errors import ComputationError, DomainError
from leoris.fading import KappaMuParams
from leoris.geometry import CylinderGeometry, _sqrt_weighted_integral, ris_distance_moment
from leoris.metrics import _SUMMED, CoverageQuery, coverage_probability

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
    # an infinite shape or scale has no log-gamma or SNR gain either
    for alpha, beta in ((math.inf, 1.0), (1.0, math.inf)):
        with pytest.raises(DomainError, match="must be finite and > 0"):
            GammaApprox(alpha=alpha, beta=beta)


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


def test_pfq_series_known_values():
    assert pfq_one((1.3, 0.4), (2.2, 0.9), 0.0) == (1.0, 1.0, _SUMMED)
    # frozen arbitrary-precision oracle
    total, _, status = pfq_one((1.0, 1.0), (2.0, 1.2, 1.7), -0.05)
    assert status == _SUMMED
    assert total == pytest.approx(0.9878136511616127, rel=1e-12)


def test_pfq_series_parameter_cancellation():
    # 1F2(a; a, 1; x) == 0F1(; 1; x)
    for x in (-0.4, 0.3, 1.7):
        lhs, rhs = pfq_one((1.8,), (1.8, 1.0), x), pfq_one((), (1.0,), x)
        assert lhs[2] == rhs[2] == _SUMMED
        assert lhs[0] == pytest.approx(rhs[0], rel=1e-12)


def test_pfq_series_term_budget(monkeypatch):
    monkeypatch.setattr(metrics, "_SERIES_MAX_TERMS", 20)
    assert pfq_one((2.0,), (1.0,), 400.0)[2] == metrics._OUT_OF_TERMS


def test_pfq_batch_marks_failed_series_without_raising():
    # 1F2(1; 1, 1; -x^2/4) = 0F1(; 1; -x^2/4) = J0(x): at x = 100 the terms
    # peak near 1e42 around a sum of order 0.02, so the series cancels;
    # a cancelling series, one that runs out of terms and two that converge,
    # padded to one parameter shape; each converged sum is its single call's
    num = np.array([[1.0], [2.0], [1.3], [1.0]])
    den = np.array([[1.0, 1.0], [1.0, 1.0], [2.2, 0.9], [2.0, 1.2]])
    x = np.array([-2500.0, 1e9, 0.7, -0.05])
    total, peak, status = metrics._pfq_batch(num, den, x)
    assert status.tolist() == [metrics._CANCELLED, metrics._OUT_OF_TERMS,
                               metrics._SUMMED, metrics._SUMMED]
    for i in (2, 3):
        assert (total[i], peak[i], _SUMMED) == pfq_one(tuple(num[i]), tuple(den[i]), x[i])


def test_pfq_batch_matches_the_term_by_term_loop():
    # the three capacity series at log-uniform shapes and arguments, from
    # quick sums through cancelling ones to terms that overflow; every
    # element ends as the loop ends, and a summed one carries its bits
    rng = np.random.default_rng(2718)
    alpha, z = 10.0 ** rng.uniform(-2, 2.3, 300), 10.0 ** rng.uniform(-14, 7, 300)
    a2, ones = alpha / 2.0, np.ones(300)
    shapes = [((a2,), (0.5 * ones, 1.0 + a2)),
              ((ones, ones), (2.0 * ones, 1.5 - a2, 2.0 - a2)),
              ((0.5 + a2,), (1.5 * ones, 1.5 + a2))]
    names = {metrics._SUMMED: "summed", metrics._OUT_OF_TERMS: "out of terms",
             metrics._CANCELLED: "cancelled"}
    ends = set()
    for num, den in shapes:
        num, den = np.column_stack(num), np.column_stack(den)
        total, peak, status = metrics._pfq_batch(num, den, -0.25 * z)
        for i in range(300):
            want = pfq_series_loop(num[i].tolist(), den[i].tolist(), -0.25 * z[i].item())
            assert names[status[i]] == want[2], (num[i], den[i], z[i])
            if want[2] != "out of terms":
                assert (total[i], peak[i]) == want[:2], (num[i], den[i], z[i])
            ends.add(want[2])
    assert ends == {"summed", "out of terms", "cancelled"}


def test_gauss_2f1_known_values():
    # the 2F1 that the RIS-moment reduction calls
    assert geometry._hyp2f1(1.4, 0.9, 0.9, 0.0) == 1.0
    # frozen oracle: Euler transform + series
    assert geometry._hyp2f1(1.0, 1.75, 2.5, -4.0) == pytest.approx(0.29013246789642371, rel=1e-12)


def test_gauss_2f1_geometric_identity():
    for z in np.linspace(-50.0, 0.9, 60):
        for b in (0.8, 1.9, 3.4):
            assert geometry._hyp2f1(1.0, b, b, float(z)) == pytest.approx(1.0 / (1.0 - z), rel=1e-9)


def test_sqrt_weighted_integral_elementary_antiderivatives():
    R0 = 120.0
    for x in R0 * (1.0 + np.geomspace(1e-3, 1e3, 60)):
        w = x * x - R0 * R0
        s1 = 0.5 * (x * math.sqrt(w) - R0 ** 2 * math.log((x + math.sqrt(w)) / R0))
        s2 = math.sqrt(w) - R0 * math.acos(R0 / x)
        assert _sqrt_weighted_integral(x, R0, 1.0) == pytest.approx(s1, rel=1e-9)
        assert _sqrt_weighted_integral(x, R0, 2.0) == pytest.approx(s2, rel=1e-9)
    assert _sqrt_weighted_integral(R0, R0, 1.5) == 0.0


def test_non_finite_2f1_makes_the_moment_raise(monkeypatch):
    monkeypatch.setattr(geometry, "_hyp2f1", lambda a, b, c, z: math.inf)
    with pytest.raises(ComputationError, match="leaves the float range"):
        ris_distance_moment(1, 2.0, CylinderGeometry(120.0, 300.0))


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
    ("sqrt_weighted_integral", sqrt_weighted_point,
     sqrt_weighted_mpmath),
])
def test_random_points_against_mpmath(fn, sample, oracle):
    func = {"ln_gamma": math.lgamma, "digamma": digamma, "reg_lower_inc_gamma": gammainc,
            "sqrt_weighted_integral": _sqrt_weighted_integral}[fn]
    rng = np.random.default_rng(zlib.crc32(fn.encode()))
    for _ in range(120):
        args = sample(rng)
        got = float(func(*args))
        want = float(oracle(*[mp.mpf(a) for a in args]))
        assert got == pytest.approx(want, rel=1e-8, abs=1e-280), f"{fn}{args}"


def test_pfq_random_points_against_mpmath():
    rng = np.random.default_rng(314)
    for _ in range(120):
        _, z, shapes = capacity_series_point(rng)
        for num, den in shapes:
            got, _, status = pfq_one(num, den, -0.25 * z)
            assert status == _SUMMED, (num, den, z)
            want = float(mp.hyper(num, den, -0.25 * z))
            assert got == pytest.approx(want, rel=1e-8), (num, den, z)
