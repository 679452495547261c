"""Envelope statistics: moment identities, special-case reductions of the
density, and exactness of the sampler."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import iv
from scipy.stats import kstest

from conftest import envelope_moment_mpmath
from leoris.errors import ComputationError, ConvergenceError, DomainError
from leoris.fading import (
    KappaMuParams,
    envelope_cdf,
    envelope_moment,
    envelope_pdf,
    sample_envelope,
)

GRID = np.linspace(1e-3, 4.0, 800)


def test_params_validation():
    with pytest.raises(DomainError):
        KappaMuParams(kappa=-0.1, mu=1.0)
    with pytest.raises(DomainError):
        KappaMuParams(kappa=0.0, mu=0.0)


def test_unit_power_across_grid():
    for kappa in (0.0, 0.3, 1.0, 3.0, 10.0):
        for mu in (0.5, 1.0, 2.0, 3.5):
            p = KappaMuParams(kappa, mu)
            assert envelope_moment(2.0, p) == pytest.approx(1.0, rel=1e-10), (kappa, mu)


def test_rayleigh_mean():
    p = KappaMuParams(0.0, 1.0)
    assert envelope_moment(1.0, p) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)


def test_moment_frozen_oracle():
    # quadrature of x * pdf for kappa=1, mu=2, computed independently
    assert envelope_moment(1.0, KappaMuParams(1.0, 2.0)) == pytest.approx(
        0.9526649940223638, rel=1e-12)


@pytest.mark.parametrize("kappa,mu", [(0.0, 1.0), (1.0, 2.0), (3.0, 3.0), (0.7, 0.8)])
@pytest.mark.parametrize("t", [1.0, 2.0, 3.0])
def test_moment_matches_pdf_quadrature(kappa, mu, t):
    p = KappaMuParams(kappa, mu)
    want, _ = quad(lambda x: x ** t * envelope_pdf(x, p), 0.0, np.inf,
                   epsabs=1e-13, epsrel=1e-12, limit=200)
    assert envelope_moment(t, p) == pytest.approx(want, rel=1e-8)


# strong line of sight: NaN (150, 5) or ConvergenceError (200, 5), (10, 80)
# from the confluent series evaluated in double precision
@pytest.mark.parametrize("kappa,mu", [(150.0, 5.0), (200.0, 5.0), (10.0, 80.0)])
@pytest.mark.parametrize("t", [1.0, 2.0])
def test_high_line_of_sight_moments_match_mpmath(kappa, mu, t):
    got = envelope_moment(t, KappaMuParams(kappa, mu))
    assert got == pytest.approx(envelope_moment_mpmath(t, kappa, mu), rel=1e-12)


def test_moments_match_mpmath_on_a_kappa_mu_grid():
    for kappa in (0.0, 1e-3, 0.5, 3.0, 20.0, 100.0, 1000.0):
        for mu in (0.1, 0.5, 1.0, 2.5, 10.0, 60.0, 300.0):
            for t in (0.5, 1.0, 3.0):
                p = KappaMuParams(kappa, mu)
                assert envelope_moment(t, p) == pytest.approx(
                    envelope_moment_mpmath(t, kappa, mu), rel=1e-12), (t, kappa, mu)
                assert envelope_moment(2.0, p) == pytest.approx(1.0, rel=1e-13), (kappa, mu)


def test_moment_past_the_term_budget_raises():
    with pytest.raises(ConvergenceError):
        envelope_moment(1.0, KappaMuParams(1e12, 1.0))


def test_pdf_normalization():
    val, _ = quad(lambda x: envelope_pdf(x, KappaMuParams(3.0, 3.0)), 0.0, np.inf,
                  epsabs=1e-12, limit=200)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_pdf_rayleigh_reduction():
    p = KappaMuParams(0.0, 1.0)
    want = 2.0 * GRID * np.exp(-GRID ** 2)
    assert np.max(np.abs(envelope_pdf(GRID, p) - want)) < 1e-10


def test_pdf_one_sided_gaussian_reduction():
    p = KappaMuParams(0.0, 0.5)
    want = math.sqrt(2.0 / math.pi) * np.exp(-GRID ** 2 / 2.0)
    assert np.max(np.abs(envelope_pdf(GRID, p) - want)) < 1e-10
    assert envelope_pdf(0.0, p) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)


def test_pdf_nakagami_reduction():
    m = 2.6
    p = KappaMuParams(0.0, m)
    want = 2.0 * m ** m * GRID ** (2 * m - 1) * np.exp(-m * GRID ** 2) / math.gamma(m)
    assert np.max(np.abs(envelope_pdf(GRID, p) - want)) < 1e-10


def test_pdf_rice_reduction():
    k = 2.3
    p = KappaMuParams(k, 1.0)
    want = (2.0 * (1 + k) * GRID * np.exp(-k - (1 + k) * GRID ** 2)
            * iv(0, 2.0 * math.sqrt(k * (1 + k)) * GRID))
    assert np.max(np.abs(envelope_pdf(GRID, p) - want)) < 1e-10


def test_pdf_large_argument_stable():
    # the scaled-Bessel form must not overflow far in the tail
    p = KappaMuParams(10.0, 10.0)
    val = envelope_pdf(50.0, p)
    assert np.isfinite(val) and val >= 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [1.0, np.array([0.5, 1.0, 2.0])], ids=["scalar", "array"])
def test_pdf_past_the_bessel_range_raises_naming_the_law(x):
    # near its peak this law needs ive(1, b x) at b x of about 1.2e9,
    # where scipy's ive reads NaN
    with pytest.raises(ComputationError, match="kappa = 3e\\+08, mu = 2"):
        envelope_pdf(x, KappaMuParams(3e8, 2.0))
    # away from the peak the density underflows and ive is not read
    assert envelope_pdf(np.array([0.5, 2.0]), KappaMuParams(3e8, 2.0)).tolist() == [0.0, 0.0]


def test_cdf_matches_pdf():
    p = KappaMuParams(1.5, 1.7)
    for x in (0.3, 0.9, 1.4, 2.2):
        want, _ = quad(lambda y: envelope_pdf(y, p), 0.0, x, epsabs=1e-12, limit=200)
        assert envelope_cdf(x, p) == pytest.approx(want, rel=1e-9)


def test_sampler_rayleigh_mean():
    rng = np.random.default_rng(10)
    draws = sample_envelope(KappaMuParams(0.0, 1.0), rng, 1_000_000)
    assert float(draws.mean()) == pytest.approx(math.sqrt(math.pi) / 2.0, abs=2e-3)


def test_sampler_first_moment_consistency():
    p = KappaMuParams(1.0, 2.0)
    rng = np.random.default_rng(11)
    draws = sample_envelope(p, rng, 500_000)
    assert float(draws.mean()) == pytest.approx(envelope_moment(1.0, p), rel=5e-3)


@pytest.mark.parametrize("kappa,mu", [(0.0, 1.5), (2.0, 0.75)])
@pytest.mark.parametrize("size", [None, 7, (5, 3)])
def test_sampler_scales_in_place_with_the_same_bits(kappa, mu, size):
    """In-place scaling gives the bits of sqrt(w / (2 mu (1 + kappa)))."""
    p = KappaMuParams(kappa, mu)
    got = sample_envelope(p, np.random.default_rng(15), size)
    rng = np.random.default_rng(15)
    shape = () if size is None else size
    w = (rng.chisquare(2.0 * mu, shape) if kappa == 0.0
         else rng.noncentral_chisquare(2.0 * mu, 2.0 * kappa * mu, shape))
    want = np.sqrt(w / (2.0 * mu * (1.0 + kappa)))
    if size is None:
        assert type(got) is float and got == float(want)
    else:
        assert got.shape == want.shape and np.array_equal(got, want)


def test_sampler_unit_power():
    rng = np.random.default_rng(12)
    draws = sample_envelope(KappaMuParams(3.0, 3.0), rng, 1_000_000)
    assert float((draws ** 2).mean()) == pytest.approx(1.0, abs=5e-3)


@pytest.mark.parametrize("kappa,mu", [(0.0, 1.0), (1.0, 2.0), (3.0, 3.0), (0.6, 0.75)])
def test_sampler_ks_against_cdf(kappa, mu):
    p = KappaMuParams(kappa, mu)
    rng = np.random.default_rng(13)
    draws = sample_envelope(p, rng, 100_000)
    assert kstest(draws, lambda x: envelope_cdf(x, p)).pvalue > 0.01


def test_sampler_non_integer_two_mu():
    # Poisson-mixture path: fractional cluster count still unit power
    p = KappaMuParams(1.3, 1.26)
    rng = np.random.default_rng(14)
    draws = sample_envelope(p, rng, 400_000)
    assert float((draws ** 2).mean()) == pytest.approx(1.0, abs=8e-3)
    assert kstest(draws, lambda x: envelope_cdf(x, p)).pvalue > 0.01


def test_sampler_scalar_draw():
    val = sample_envelope(KappaMuParams(1.0, 2.0), np.random.default_rng(0))
    assert isinstance(val, float) and val > 0.0


def test_moment_domain():
    with pytest.raises(DomainError):
        envelope_moment(0.0, KappaMuParams(1.0, 1.0))


def test_moment_rejects_an_infinite_order():
    # up front, not after the term budget as a ConvergenceError
    with pytest.raises(DomainError, match="finite"):
        envelope_moment(math.inf, KappaMuParams(1.0, 1.0))
