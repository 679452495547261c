"""Coverage and capacity: limits, identities, monotonicity, pole handling
and agreement between the closed form, the ray rule and mpmath."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammainc

from conftest import capacity_mpmath, capacity_second_order
from leoris.channel import GammaApprox
from leoris.errors import ComputationError, DomainError
from leoris.metrics import (
    CapacityResult,
    CoverageQuery,
    capacity_quadrature,
    coverage_probabilities,
    coverage_probability,
    ergodic_capacities,
    ergodic_capacity,
)

GA = GammaApprox(alpha=3.7, beta=0.42)


def test_coverage_zero_threshold():
    assert coverage_probability(CoverageQuery(0.0, 100.0), GA) == 1.0


def test_coverage_huge_threshold():
    assert coverage_probability(CoverageQuery(1e30, 1.0), GA) == pytest.approx(0.0, abs=1e-12)


def test_coverage_gamma_tail_identity():
    rng = np.random.default_rng(23)
    for _ in range(200):
        ga = GammaApprox(alpha=10.0 ** rng.uniform(-0.5, 1.5),
                         beta=10.0 ** rng.uniform(-8, 1))
        q = CoverageQuery(rho_th=10.0 ** rng.uniform(-2, 3), rho0=10.0 ** rng.uniform(0, 14))
        want = 1.0 - gammainc(ga.alpha, math.sqrt(q.rho_th / q.rho0) / ga.beta)
        assert coverage_probability(q, ga) == pytest.approx(want, abs=1e-12)


def test_coverage_monotonic_in_threshold_and_power():
    rng = np.random.default_rng(29)
    for _ in range(50):
        ga = GammaApprox(alpha=10.0 ** rng.uniform(-0.3, 1.3), beta=10.0 ** rng.uniform(-2, 0))
        ths = np.sort(10.0 ** rng.uniform(-2, 2, 8))
        cov = [coverage_probability(CoverageQuery(t, 50.0), ga) for t in ths]
        assert all(b <= a + 1e-15 for a, b in zip(cov, cov[1:]))
        p0s = np.sort(10.0 ** rng.uniform(-1, 3, 8))
        cov0 = [coverage_probability(CoverageQuery(2.0, p), ga) for p in p0s]
        assert all(b >= a - 1e-15 for a, b in zip(cov0, cov0[1:]))


def test_coverage_query_validation():
    with pytest.raises(DomainError):
        CoverageQuery(-1.0, 1.0)
    with pytest.raises(DomainError):
        CoverageQuery(1.0, 0.0)


def test_capacity_frozen_oracle():
    # independent high-precision quadrature of the definition
    ga = GammaApprox(alpha=4.0, beta=0.5)
    res = ergodic_capacity(ga, 100.0)
    assert res.bits == pytest.approx(8.2775757573444507, rel=1e-9)
    assert capacity_quadrature(ga, 100.0) == pytest.approx(8.2775757573444507, rel=1e-9)


@pytest.mark.parametrize("alpha,rho0,bits", [
    (170.0, 1.0, 14.810337923364935),
    (400.0, 1.0, 17.284113223978885),
    (170.0, 1e10, 48.029568059720222),
    (400.0, 1e-6, 0.21448447866603805),
])
def test_capacity_large_shape_oracle(alpha, rho0, bits):
    # 30-digit quadrature split at the mode: the Gamma bulk is ~sqrt(alpha)
    # wide at distance alpha from the origin, where the closed form overflows
    ga = GammaApprox(alpha=alpha, beta=1.0)
    assert capacity_quadrature(ga, rho0) == pytest.approx(bits, rel=1e-9)
    assert ergodic_capacity(ga, rho0).bits == pytest.approx(bits, rel=1e-9)


# 40-digit mpmath quadratures of E[log2(1 + rho0 beta^2 y^2)], y ~
# Gamma(1e7, 1), split at the mode and at multiples of the bulk's width
@pytest.mark.parametrize("rho0,bits", [
    (3e-6, 4.328079063356807e-06),
    (3.0, 1.999999945898942),
    (3e6, 21.516531406674236),
])
def test_capacity_quadrature_agrees_with_mpmath_at_its_largest_shape(rho0, bits):
    ga = GammaApprox(alpha=1e7, beta=1e-7)
    assert capacity_quadrature(ga, rho0) == pytest.approx(bits, rel=1e-7)
    # an integer shape: the closed form hands over to the ray rule
    assert ergodic_capacity(ga, rho0) == (capacity_quadrature(ga, rho0), True)


@pytest.mark.parametrize("alpha,beta,rho0", [
    (1e10, 1e-10, 3.0),
    (1e15 + 0.5, 1.0 / (1e15 + 0.5), 3.0),
    (1e17, 1e-17, 3.0),
    (1e20, 1e-20, 1.0),
    (1e306, 1e-160, 1.0),
])
def test_capacity_at_huge_shapes_matches_the_second_order_expansion(alpha, beta, rho0):
    # the closed form gives up on every shape above about 2e4, so these
    # are the ray rule's values
    ga = GammaApprox(alpha, beta)
    res = ergodic_capacity(ga, rho0)
    assert res.fallback
    assert res.bits == capacity_quadrature(ga, rho0)
    assert res.bits == pytest.approx(capacity_second_order(alpha, beta, rho0), rel=1e-12)


# (shape, beta^2 rho0) from both sides of the closed form's poles, the
# sub-unit shapes, low gains where the first-order term is subtracted,
# large shapes, and high gains whose rule range has a gap between its
# windows, on both sides of the shape 8.6 above which the integrand is 1 there
@pytest.mark.parametrize("alpha,gain", [
    (1e-2, 1e8), (0.37, 1e-30), (1.0, 1.0), (2.0 - 1e-9, 1e4), (3.0 + 5e-5, 1e-12),
    (17.3, 1e-30), (20.0, 1e-10), (1e4 + 0.5, 1e-6), (1e7, 3e-14), (2.76e7, 1e-13),
    (1e9, 1e-2), (1e15, 1e-26), (1e-6, 1e60), (1e-6, 1e300), (0.1, 1e120), (0.5, 1e50),
    (1.0, 1e45), (3.7, 1e100), (9.0, 1e300),
])
def test_capacity_ray_rule_agrees_with_mpmath(alpha, gain):
    assert capacity_quadrature(GammaApprox(alpha, 1.0), gain) == pytest.approx(
        capacity_mpmath(alpha, gain), rel=1e-12)


def test_capacity_in_the_pole_window_at_a_high_gain():
    # an integer shape takes the ray rule, whose windows a gain of 1e45 parts
    res = ergodic_capacity(GammaApprox(1.0, 1.0), 1e45)
    assert res.fallback
    assert res.bits == pytest.approx(capacity_mpmath(1.0, 1e45), rel=1e-12)


@pytest.mark.parametrize("alpha", [1e10, 1e17, 1e20])
def test_coverage_at_huge_shapes_at_the_mean(alpha):
    # Q(a, a) = 1/2 - 1/(3 sqrt(2 pi a)) + O(a^-3/2)
    ga = GammaApprox(alpha, 1.0 / alpha)
    want = 0.5 - 1.0 / (3.0 * math.sqrt(2.0 * math.pi * alpha))
    assert coverage_probability(CoverageQuery(1.0, 1.0), ga) == pytest.approx(want, abs=1e-9)


def test_coverage_raises_where_the_gamma_tail_does_not_evaluate():
    # scipy's gammaincc reads NaN here, where the tail is 1
    ga = GammaApprox(1e306, 1e-160)
    with pytest.raises(ComputationError, match="Gamma tail"):
        coverage_probability(CoverageQuery(1.0, 1.0), ga)
    with pytest.raises(ComputationError, match="Gamma tail"):
        coverage_probabilities([GA, ga], [1.0, 1.0], [1.0, 1.0])


def test_capacity_vanishes_with_power():
    ga = GammaApprox(alpha=1.0, beta=1.0)
    res = ergodic_capacity(ga, 1e-8)
    assert res.bits == pytest.approx(2.8853899086545566e-8, rel=1e-6)


def test_capacity_monotone_in_power():
    ga = GammaApprox(alpha=5.5, beta=0.3)
    grid = np.logspace(-2, 12, 20)
    caps = [ergodic_capacity(ga, float(r)).bits for r in grid]
    assert all(b >= a - 1e-12 for a, b in zip(caps, caps[1:]))


def test_capacity_high_snr_doubling_bound():
    ga = GammaApprox(alpha=6.0, beta=0.4)
    for rho0 in (1e8, 1e10, 1e12):
        gap = ergodic_capacity(ga, rho0).bits - ergodic_capacity(ga, rho0 / 2.0).bits
        assert 0.0 <= gap <= 1.0 + 1e-9


def test_capacity_closed_form_vs_quadrature_grid():
    # light version of the acceptance grid (full 400 points run there)
    alphas = np.linspace(0.5, 30.0, 10)
    rho0s = np.logspace(0, 14, 8)
    for a in alphas:
        ga = GammaApprox(alpha=float(a), beta=1.0)
        for r in rho0s:
            res = ergodic_capacity(ga, float(r))
            want = capacity_quadrature(ga, float(r))
            assert res.bits == pytest.approx(want, rel=1e-3, abs=1e-9), (a, r)


@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0, 4.0, 7.0, 30.0])
def test_capacity_at_integer_poles(alpha):
    # the closed form's terms are singular at integer shapes; there, and
    # within 1e-4 of one, capacity is the oracle's value, flagged
    for shape in (alpha - 9e-5, alpha, alpha + 9e-5):
        ga = GammaApprox(alpha=shape, beta=1.0)
        for rho0 in (3.0, 1e4, 1e10):
            res = ergodic_capacity(ga, rho0)
            assert res.fallback
            assert res.bits == capacity_quadrature(ga, rho0)


def test_capacity_exponential_magnitude_limit():
    # alpha=1 (exponential |A|) sits on a pole of the closed form and
    # must match quadrature tightly
    ga = GammaApprox(alpha=1.0, beta=0.8)
    res = ergodic_capacity(ga, 200.0)
    assert res.bits == pytest.approx(capacity_quadrature(ga, 200.0), rel=1e-6)


def test_capacity_cancellation_falls_back_to_quadrature():
    # beta^2 rho0 << 1 with large alpha makes the closed form cancel; the
    # result must carry the fallback flag and the oracle's value
    ga = GammaApprox(alpha=20.0, beta=1.0)
    res = ergodic_capacity(ga, 1e-10)
    assert res.fallback
    assert res.bits == pytest.approx(capacity_quadrature(ga, 1e-10), rel=1e-9)


def test_capacity_low_snr_partial_cancellation():
    # at beta^2 rho0 between 1e-3 and 0.1 the series lose 6-12 digits to
    # alternating terms without tripping a plain cancellation test; the
    # closed form must either stay accurate or hand over to quadrature
    worst = 0.0
    for a in np.linspace(2.6, 40.6, 20):
        ga = GammaApprox(alpha=float(a), beta=1.0)
        for z in np.geomspace(10.0, 1000.0, 20):
            got = ergodic_capacity(ga, 1.0 / z).bits
            want = capacity_quadrature(ga, 1.0 / z)
            worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-6


@pytest.mark.parametrize("alpha, z", [(65.66, 443.1), (67.775, 495.2), (63.31, 431.7),
                                      (59.228, 294.9)])
def test_capacity_series_runs_past_negative_denominators(alpha, z):
    # the second series has denominators 1.5 - alpha/2 + k and 2 - alpha/2 + k;
    # its terms shrink, then grow again near k = alpha/2 - 1.5, so a stop
    # before every denominator turns positive loses the tail unflagged
    ga = GammaApprox(alpha=alpha, beta=1.0 / math.sqrt(z))
    res = ergodic_capacity(ga, 1.0)
    assert not res.fallback
    assert res.bits == pytest.approx(capacity_quadrature(ga, 1.0), rel=1e-7)


@pytest.mark.parametrize("alpha,beta,bits", [
    # 2 (ln b + psi(alpha)) / ln 2 at b = beta sqrt(rho0) = 1e200
    (2.5, 1e200, 1330.80), (3.0, 1e200, 1331.43),
    # c alpha (alpha + 1) / ln 2, c = beta^2 rho0 below the floats: 1e-340,
    # and 1e-400, where the capacity itself is below them
    (1e150, 1e-170, 1.4427e-40), (2.5, 1e-200, 0.0),
])
def test_capacity_takes_the_ray_rule_where_beta_squared_rho0_leaves_the_floats(alpha, beta, bits):
    # the ray rule needs only b = beta sqrt(rho0) as a positive float
    ga = GammaApprox(alpha=alpha, beta=beta)
    res = ergodic_capacity(ga, 1.0)
    assert res.fallback
    assert res.bits == pytest.approx(bits, rel=1e-5)
    assert res.bits == capacity_quadrature(ga, 1.0)
    assert ergodic_capacities([GA, ga], [100.0, 1.0])[0][1] == res.bits


@pytest.mark.parametrize("beta, rho0", [(1e200, 1e300), (1e-200, 1e-250)])
def test_capacity_raises_where_beta_sqrt_rho0_leaves_the_float_range(beta, rho0):
    ga = GammaApprox(alpha=2.5, beta=beta)
    for call in (lambda: ergodic_capacity(ga, rho0),
                 lambda: ergodic_capacities([GA, ga], [100.0, rho0]),
                 lambda: capacity_quadrature(ga, rho0)):
        with pytest.raises(ComputationError, match="beta sqrt.rho0. leaves the float range"):
            call()


def test_capacity_at_a_sub_micro_shape_takes_the_ray_rule():
    # the closed form read 1.97e-7 off here, unflagged, past its own 1e-7 bound
    alpha, gain = 1.16e-6, 5.4e72
    res = ergodic_capacity(GammaApprox(alpha, 1.0), gain)
    assert res.fallback
    assert res.bits == pytest.approx(capacity_mpmath(alpha, gain), rel=1e-12)


def test_capacity_at_a_subnormal_gain_falls_back_to_quadrature():
    # beta^2 rho0 = 1e-310 is subnormal, so z = 1 / (beta^2 rho0) overflows;
    # capacity is then ~ E[c y^2] / ln 2 = c alpha (alpha + 1) / ln 2
    ga = GammaApprox(alpha=2.5, beta=1e-155)
    res = ergodic_capacity(ga, 1.0)
    assert res.fallback
    assert res.bits == capacity_quadrature(ga, 1.0)
    assert res.bits == pytest.approx(1e-310 * 2.5 * 3.5 / math.log(2.0), rel=1e-6)


def test_batches_validate_their_snrs():
    with pytest.raises(DomainError, match="rho0 must be > 0, got 0.0"):
        ergodic_capacities([GA, GA], [1.0, 0.0])
    with pytest.raises(DomainError, match="rho_th must be >= 0, got -1.0"):
        coverage_probabilities([GA, GA], [1.0, -1.0], [1.0, 1.0])
    with pytest.raises(DomainError, match="rho0 must be > 0, got nan"):
        coverage_probabilities([GA], [1.0], [math.nan])


def test_capacity_result_is_floatable():
    res = CapacityResult(1.5, False)
    assert float(res) == 1.5


def test_capacity_domain():
    with pytest.raises(DomainError):
        ergodic_capacity(GA, 0.0)
    with pytest.raises(DomainError):
        capacity_quadrature(GA, -1.0)


IMPORT_PROBE = textwrap.dedent("""
    import dataclasses, json, sys
    from leoris import GammaApprox, SweepSpec, ergodic_capacity, load_scenario, sweep

    HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse",
             "scipy.stats")

    def loaded(names):
        return [m for m in names if m in sys.modules]

    report = {"eager": loaded(("numpy", "scipy.special", "yaml"))}
    cfg = load_scenario(sys.argv[1])
    sweep(dataclasses.replace(cfg, sweep=SweepSpec("R0", (60.0, 120.0, 300.0)),
                              mc_enabled=False))
    # two 4096-trial blocks, so the simulation runs on two worker threads
    sweep(dataclasses.replace(cfg, sweep=SweepSpec("N", (4.0, 8.0)), mc_enabled=True,
                              mc=dataclasses.replace(cfg.mc, trials=5000, workers=2)))
    report["after_sweeps"] = loaded(HEAVY)
    # inside the pole window, so the ray rule runs
    cap = ergodic_capacity(GammaApprox(3.0 + 5e-5, 0.42), 100.0)
    report["capacity"] = cap.bits, cap.fallback
    report["after_quadrature"] = loaded(HEAVY)
    print(json.dumps(report))
""")


def test_sweeps_leave_the_quadrature_stack_unloaded():
    # scipy.integrate drags in scipy.optimize, linalg and sparse; neither
    # the sweeps nor a capacity that takes the ray rule load it
    import leoris
    root = Path(leoris.__file__).resolve().parents[1]
    config = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
    env = dict(os.environ, PYTHONPATH=str(root))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(config)], env=env,
                         capture_output=True, text=True, check=True)
    report = json.loads(out.stdout)
    assert report["eager"] == ["numpy", "scipy.special", "yaml"]
    assert report["after_sweeps"] == []
    bits, fallback = report["capacity"]
    assert fallback and math.isfinite(bits) and bits > 0.0
    assert report["after_quadrature"] == []
