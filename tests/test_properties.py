"""Property checks over the validated configuration domain, with
exponents up to 4 and altitudes from 200 km to geostationary (the range
the satellite-distance moment is accurate over), drawn with hypothesis
under a fixed derandomized seed so every run sees the same examples."""

import math

from hypothesis import given, settings, strategies as st

from leoris.channel import DirectPath, LinkConfig, RisLink, gamma_approx
from leoris.errors import LeorisError
from leoris.fading import KappaMuParams
from leoris.geometry import Constellation, CylinderGeometry

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
