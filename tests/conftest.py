"""Shared scenario fixtures: the recorded default configuration used by
the acceptance suite and several module tests."""

import mpmath as mp
import numpy as np
import pytest

from leoris.channel import DirectPath, LinkConfig, RisLink
from leoris.fading import KappaMuParams
from leoris.geometry import EARTH_RADIUS_M, Constellation, CylinderGeometry

# Recorded draw of the per-RIS user-hop exponents (sub-seed 370899, [2, 3)).
EXPONENT_SEED = 370899
RHO0_DEFAULT = 1.0e14  # 10 W over -100 dBm


def default_user_exponents(n: int) -> list[float]:
    rng = np.random.default_rng(EXPONENT_SEED)
    return (2.0 + rng.random(n)).tolist()


def default_links(n: int, elements: int = 20, rho0: float = RHO0_DEFAULT,
                  direct: bool = True) -> LinkConfig:
    eps = default_user_exponents(n)
    return LinkConfig(
        ris=tuple(
            RisLink(
                elements=elements,
                sat_fading=KappaMuParams(1.0, 2.0),
                user_fading=KappaMuParams(3.0, 3.0),
                sat_exponent=2.0,
                user_exponent=eps[i],
            )
            for i in range(n)
        ),
        direct=DirectPath(enabled=direct, fading=KappaMuParams(0.0, 1.0), exponent=2.0),
        transmit_snr=rho0,
    )


@pytest.fixture
def default_geometry() -> CylinderGeometry:
    return CylinderGeometry(base_radius=120.0, height=120.0)


@pytest.fixture
def default_constellation() -> Constellation:
    return Constellation(satellites=1000, altitude=1.0e6)


def sat_moment_mpmath(m: int, h: float, s: float) -> float:
    """E[d^-s] of the distance to the nearest of m satellites at altitude h:
    20-digit quadrature of h^-s * m (1 - u)^(m-1) (1 + u/c)^(-s/2) over
    u in [0, 1], c = h^2 / (4 r_e (r_e + h)), with breakpoints spaced
    geometrically from the smaller of the two scales c and 1/m."""
    with mp.workdps(20):
        c = mp.mpf(h) ** 2 / (4.0 * EARTH_RADIUS_M * (EARTH_RADIUS_M + h))
        pts = [mp.mpf(0)]
        u = min(c, mp.mpf(1) / m) / 8
        while u < 1:
            pts.append(u)
            u *= 8
        pts.append(mp.mpf(1))
        val = mp.quad(lambda v: m * (1 - v) ** (m - 1) * (1 + v / c) ** (-mp.mpf(s) / 2), pts)
        return float(mp.mpf(h) ** (-s) * val)
