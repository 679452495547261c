"""Property checks over the validated configuration domain, with
exponents up to 4 and altitudes from 200 km to geostationary (the range
the satellite-distance moment is accurate over), and over Gamma models,
SNRs and fading laws for the metrics and the envelope moment, drawn with
hypothesis under a fixed derandomized seed so every run sees the same
examples."""

import math

from hypothesis import given, settings, strategies as st

from leoris.channel import DirectPath, GammaApprox, LinkConfig, RisLink, gamma_approx
from leoris.errors import LeorisError
from leoris.fading import KappaMuParams, envelope_moment
from leoris.geometry import Constellation, CylinderGeometry
from leoris.metrics import CoverageQuery, coverage_probability, ergodic_capacity

exponents = st.floats(2.0, 4.0)
fading = st.builds(KappaMuParams, kappa=st.floats(0.0, 1.0e3), mu=st.floats(1.0e-2, 1.0e2))


@st.composite
def link_configs(draw):
    # RISs pick from one or two (elements, fading, fading, satellite-hop
    # exponent) links, so they share link factors and differ in geometry
    shared = draw(st.lists(st.tuples(st.integers(1, 10_000), fading, fading, exponents),
                           min_size=1, max_size=2))
    ris = tuple(RisLink(*draw(st.sampled_from(shared)), user_exponent=draw(exponents))
                for _ in range(draw(st.sampled_from((1, 2, 3, 4, 0)))))
    # without any path the fit only raises, so a RIS-less example keeps
    # its direct path
    enabled = draw(st.booleans()) or not ris
    return LinkConfig(ris, DirectPath(enabled, draw(fading), draw(exponents)))


@st.composite
def geometries(draw):
    base = draw(st.floats(1.0, 1.0e4))
    if draw(st.booleans()):
        return CylinderGeometry(base, draw(st.floats(1.0e-3, 1.0e4)))
    return CylinderGeometry(base, 0.0, draw(st.floats(0.0, 0.99)) * base)


constellations = st.builds(Constellation, satellites=st.integers(1, 100_000),
                           altitude=st.floats(2.0e5, 3.6e7))


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


# shapes from the fits' range, plus shapes inside the capacity form's
# pole window at small integers, where the quadrature oracle runs
shapes = st.one_of(_log_uniform(1.0e-2, 2.0e2),
                   st.builds(lambda n, d: n + d, st.integers(1, 20), st.floats(-9e-5, 9e-5)))
gamma_models = st.builds(GammaApprox, alpha=shapes, beta=_log_uniform(1.0e-3, 1.0e1))
snrs = _log_uniform(1.0e-3, 1.0e6)


# one link-factor memo for every example, as a sweep shares one across
# its points
MEMO: dict = {}


def _fit(args, memo=None):
    """The Gamma fit, or the type of the package error it raised."""
    try:
        return gamma_approx(*args, memo=memo)
    except LeorisError as exc:
        return type(exc)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(link_configs(), geometries(), constellations)
def test_memoized_fit_matches_cold_fit(links, geom, con):
    args = (links, geom, con)
    # the memo still holds entries from earlier examples here
    memoized = _fit(args, MEMO)
    cold = _fit(args)
    assert memoized == cold
    assert _fit(args, MEMO) == cold
    if isinstance(cold, type):
        return
    assert math.isfinite(cold.alpha) and math.isfinite(cold.beta)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(gamma_models, snrs, snrs, snrs, snrs)
def test_coverage_monotone_in_threshold_and_snr(ga, th1, th2, rho1, rho2):
    (th_lo, th_hi), (rho_lo, rho_hi) = sorted((th1, th2)), sorted((rho1, rho2))
    p = coverage_probability(CoverageQuery(th_lo, rho_lo), ga)
    assert 0.0 <= p <= 1.0
    assert coverage_probability(CoverageQuery(th_hi, rho_lo), ga) <= p
    assert coverage_probability(CoverageQuery(th_lo, rho_hi), ga) >= p


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(gamma_models, snrs)
def test_capacity_grows_with_transmit_snr(ga, rho0):
    lo = ergodic_capacity(ga, rho0).bits
    hi = ergodic_capacity(ga, 2.0 * rho0).bits
    assert math.isfinite(lo) and 0.0 <= lo <= hi


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(fading)
def test_second_envelope_moment_is_unit_power(p):
    assert abs(envelope_moment(2, p) - 1.0) <= 1e-13
