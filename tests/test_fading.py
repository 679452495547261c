"""Envelope statistics: moment identities, special-case reductions of the
density, and exactness of the sampler."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import iv
from scipy.stats import ks_2samp, kstest

from conftest import envelope_moment_mpmath
from leoris import fading
from leoris.errors import ComputationError, ConvergenceError, DomainError
from leoris.fading import (
    KappaMuParams,
    envelope_cdf,
    envelope_moment,
    envelope_pdf,
    sample_envelope,
    sample_power,
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


def _nakagami_pdf_mpmath(x: float, mu: float) -> float:
    # at the same float x; the digits track mu's size, as its terms cancel
    with mp.workdps(int(math.log10(mu)) + 40):
        x, m = mp.mpf(x), mp.mpf(mu)
        return float(2 * mp.exp(m * mp.log(m) - mp.loggamma(m) - m * x * x) * x ** (2 * m - 1))


@pytest.mark.parametrize("mu", [10.0, 1e4, 1e6, 1e10, 1e100, 1e300])
def test_pdf_nakagami_matches_mpmath_at_large_mu(mu):
    # at the peak and two standard deviations each side, where those
    # differ from 1 as floats; the density at 1e300 is about 8e149
    for x in {1.0, 1.0 + 2.0 / math.sqrt(mu), 1.0 - 2.0 / math.sqrt(mu)}:
        assert envelope_pdf(x, KappaMuParams(0.0, mu)) == pytest.approx(
            _nakagami_pdf_mpmath(x, mu), rel=1e-12), x


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


def test_pdf_raises_where_the_bessel_factor_underflows_under_a_large_density():
    # ive(mu - 1, b x) underflows to 0 near the peak of this law, where
    # envelope_cdf climbs 0.41 -> 0.59 and mpmath gives 92.13 at x = 1
    p = KappaMuParams(1.0, 1e4)
    for x in (1.0, np.array([0.999, 1.0, 1.001])):
        with pytest.raises(ComputationError, match="kappa = 1, mu = 10000"):
            envelope_pdf(x, p)
    # away from the peak the density itself underflows and still reads 0:
    # at 0.5 ive is not read, and at 0.68 and 1.25 it reads 0 under a log
    # prefactor from -745 to -37
    assert envelope_pdf(np.array([0.5, 0.68, 1.25]), p).tolist() == [0.0, 0.0, 0.0]


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


# one law per regime of numpy's samplers: kappa = 0 (2 mu above and below
# 1), and noncentral chi-square at 2 mu > 1, 2 mu = 1, 2 mu < 1 and with
# strong line of sight
_BRANCHES = [(0.0, 1.0), (0.0, 0.3), (1.0, 2.0), (3.0, 3.0), (0.6, 0.75), (2.0, 0.5),
             (1.5, 0.3), (50.0, 7.5)]


@pytest.mark.parametrize("kappa,mu", [(0.0, 1.5), (2.0, 0.75), (2.0, 0.5), (1.5, 0.3)])
@pytest.mark.parametrize("size", [None, 7, (5, 3), 16_387])
def test_sampler_scales_in_place_with_the_same_bits(kappa, mu, size):
    """In-place scaling gives the bits of sqrt(W / (2 mu (1 + kappa))), W
    drawn from the same generator by numpy's gamma or noncentral
    chi-square sampler."""
    p = KappaMuParams(kappa, mu)
    got = sample_envelope(p, np.random.default_rng(15), size)
    rng = np.random.default_rng(15)
    shape = () if size is None else size
    if kappa == 0.0:
        w = 2.0 * rng.standard_gamma(mu, shape)
    else:
        w = rng.noncentral_chisquare(2.0 * mu, 2.0 * kappa * mu, shape)
    want = np.sqrt(w / (2.0 * mu * (1.0 + kappa)))
    if size is None:
        assert type(got) is float and got == float(want)
    else:
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("kappa,mu", [(0.0, 1.5), (0.0, 0.3), (3.0, 3.0), (1.5, 0.3)])
@pytest.mark.parametrize("size", [7, (4, 5)])
def test_sample_power_is_numpys_draw(kappa, mu, size):
    # 2 Gamma(mu) at kappa = 0, else noncentral chi-square with 2 mu
    # degrees of freedom and noncentrality 2 kappa mu, from one generator
    p = KappaMuParams(kappa, mu)
    got = sample_power(p, np.random.default_rng(3), size)
    rng = np.random.default_rng(3)
    want = (2.0 * rng.standard_gamma(mu, size) if kappa == 0.0
            else rng.noncentral_chisquare(2.0 * mu, 2.0 * kappa * mu, size))
    assert got.shape == want.shape and np.array_equal(got, want)
    envelope = sample_envelope(p, np.random.default_rng(3), size)
    assert np.array_equal(envelope, np.sqrt(got / p.power_scale))


@pytest.mark.parametrize("kappa,mu", _BRANCHES)
def test_sampler_unit_power(kappa, mu):
    rng = np.random.default_rng(12)
    draws = sample_envelope(KappaMuParams(kappa, mu), rng, 1_000_000)
    assert float((draws ** 2).mean()) == pytest.approx(1.0, abs=5e-3)


@pytest.mark.parametrize("kappa,mu", _BRANCHES)
def test_sampler_ks_against_cdf(kappa, mu):
    p = KappaMuParams(kappa, mu)
    rng = np.random.default_rng(13)
    draws = sample_envelope(p, rng, 100_000)
    assert kstest(draws, lambda x: envelope_cdf(x, p)).pvalue > 0.01


def test_sampler_non_integer_two_mu():
    # fractional cluster count still unit power
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


# the element sum S = sum_l |h_sat,l| |h_user,l| of one RIS, tabulated

DEFAULT_PAIR = (KappaMuParams(1.0, 2.0), KappaMuParams(3.0, 3.0))


def _criterion5_pairs():
    from test_acceptance import _criterion5_scenarios
    pairs = {DEFAULT_PAIR}
    for cfg, *_ in _criterion5_scenarios():
        pairs.update((link.sat_fading, link.user_fading) for link in cfg.ris)
    return sorted(pairs, key=repr)


@pytest.mark.parametrize("pair", _criterion5_pairs(), ids=repr)
def test_sum_tables_meet_their_gate_on_every_criterion_5_law(pair):
    # element_sum_tables gives None for a count unless its table is within
    # 1e-9 (sup CDF) of the same construction at twice the resolution; the
    # moments are checked here again against the exact ones
    m1 = envelope_moment(1.0, pair[0]) * envelope_moment(1.0, pair[1])
    # with no warning: no log of 0 or overflow on any path, count 1's log
    # of the table's nodes included
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tables = fading.element_sum_tables(*pair, [1, 20, 50, 2500])
    for count, table in tables.items():
        assert table is not None, count
        mean, var = table.moments(count * m1)
        assert mean == pytest.approx(count * m1, rel=1e-9, abs=0.0), count
        assert var == pytest.approx(count * (1.0 - m1 * m1), rel=1e-8, abs=0.0), count
        assert (np.diff(table.q) >= 0.0).all()


def _direct_log_law(sat, user, fine):
    # the log law with each hop's density evaluated directly on its own
    # grid, the base step over ``fine``
    laws = (sat, user)
    spread = [math.sqrt(1.0 - m * m) / m for m in (envelope_moment(1.0, p) for p in laws)]
    lo = min(max(fading._LOG_FLOOR, -50.0 * s) for s in spread)
    hi = max(min(0.5 * math.log1p(90.0 / p.mu) + 1.0, 50.0 * s) for p, s in zip(laws, spread))
    dt = min(1.0 / 16.0, min(spread) / 8.0) / fine
    t = lo + dt * np.arange(math.ceil((hi - lo) / dt) + 1)
    parts = []
    for p in laws:
        g = envelope_pdf(np.exp(t), p) * np.exp(t)
        keep = np.flatnonzero(g > 1e-30 * g.max())
        parts.append((t[keep[0]], g[keep[0]:keep[-1] + 1]))
    g = np.convolve(parts[0][1], parts[1][1]) * dt
    keep = np.flatnonzero(g > 1e-30 * g.max())
    return parts[0][0] + parts[1][0] + dt * keep[0], dt, g[keep[0]:keep[-1] + 1]


@pytest.mark.parametrize("pair", _criterion5_pairs(), ids=repr)
def test_log_laws_from_one_density_pass_are_the_direct_ones_bit_for_bit(pair):
    # the base law reads the fine grid's even nodes, so its tables keep
    # their bits; the fine grid, which must reach the base grid's last
    # node, may end one node further out than its own span asks
    for (t0, dt, g), fine in zip(fading._log_product_density(*pair), (1, 2)):
        want = _direct_log_law(*pair, fine)
        assert t0 == want[0] and dt == want[1] and np.array_equal(g, want[2]), fine


def test_a_count_whose_table_misses_its_gate_has_no_table(monkeypatch):
    # the RIS then draws per element; the other counts keep their tables
    monkeypatch.setattr(fading, "_GATE", (1e-9, 1e-8, 1e-30))
    assert fading.element_sum_tables(*DEFAULT_PAIR, [20]) == {20: None}
    # the CDF distance alone, read on the fine law at the table's nodes
    monkeypatch.setattr(fading, "_GATE", (1.0, 1.0, 1e-15))
    assert fading.element_sum_tables(*DEFAULT_PAIR, [20]) == {20: None}
    # two narrow hops: 1 - m1^2 is 2.7e-5, and the two-element table's
    # variance and CDF miss the gate by its rounding
    narrow = (KappaMuParams(3.927584459821808, 3530.511444352288),
              KappaMuParams(480.2719033204809, 1241.7499249417986))
    monkeypatch.undo()
    tables = fading.element_sum_tables(*narrow, [1, 2])
    assert tables[1] is not None and tables[2] is None


def test_the_gate_builds_its_check_in_its_own_chernoff_window():
    # this two-element table lies 4.2e-9 from the twice-as-fine law; a check
    # that took the table's window would read 1.1e-11 and let it pass
    pair = (KappaMuParams(244.9350494313048, 169.1805499630692),
            KappaMuParams(410.26973665248033, 491.6099669359391))
    assert fading.element_sum_tables(*pair, [2]) == {2: None}


def test_sum_tables_match_per_element_sums_in_a_ks_test():
    # 4e5 table draws against 4e5 sums of 20 per-element two-hop roots
    count, draws = 20, 400_000
    table = fading.element_sum_tables(*DEFAULT_PAIR, [count])[count]
    rng = np.random.Generator(np.random.SFC64(2024))
    from_table = table(rng.logistic(size=draws))
    sat, user = (sample_power(p, rng, (draws, count)) for p in DEFAULT_PAIR)
    sat *= user
    per_element = np.sqrt(sat).sum(axis=1) / math.sqrt(
        DEFAULT_PAIR[0].power_scale * DEFAULT_PAIR[1].power_scale)
    result = ks_2samp(from_table, per_element)
    assert result.pvalue > 0.01, result


def test_sum_table_reads_its_end_nodes_beyond_them():
    table = fading.element_sum_tables(*DEFAULT_PAIR, [3])[3]
    low, high = table(np.array([-1e3, -np.inf, table.z0])), table(np.array([1e3, np.inf]))
    assert (low == table.q[0]).all() and high[0] == high[1]
    assert high[0] == pytest.approx(table.q[-1], rel=1e-13)
    nodes = table.z0 + table.dz * np.arange(table.q.size)
    assert np.allclose(table(nodes), table.q, rtol=1e-13, atol=0.0)


def test_sum_table_cells_are_their_direct_definition():
    # floor of the clipped grid position, capped at the last cell, and the
    # remainder, at logistic z, +-inf, 1e300 and every node
    table = fading.element_sum_tables(*DEFAULT_PAIR, [3])[3]
    cells = table.coef.shape[1]
    nodes = table.z0 + table.dz * np.arange(cells + 1)
    z = np.concatenate([np.random.default_rng(7).logistic(size=200_000),
                        [-np.inf, np.inf, 1e300, -1e300], nodes])
    r = np.clip((z - table.z0) / table.dz, 0.0, cells)
    f = np.minimum(np.floor(r), cells - 1)
    i, s = table.cells(z)
    assert i.dtype == np.intp and np.array_equal(i, f.astype(np.intp))
    assert np.array_equal(s, r - f)
    work = np.empty(z.shape)
    i2, s2 = table.cells(z.copy(), out=(np.empty(z.shape, np.intp), None), work=work)
    assert np.array_equal(i2, i) and np.array_equal(s2, s) and np.array_equal(work, f)


def test_sum_table_reads_the_cubic_of_each_cells_gathered_row_bit_for_bit():
    # one gather per coefficient column takes the Horner steps of a gather
    # of each cell's four: at every node, past the last node and at +-inf
    table = fading.element_sum_tables(*DEFAULT_PAIR, [3])[3]
    cells = table.coef.shape[1]
    z = np.concatenate([table.z0 + table.dz * np.arange(cells + 1),
                        table.z0 + table.dz * (cells + np.array([1e-3, 0.5, 1.0, 1e3])),
                        [-np.inf, np.inf], np.random.default_rng(8).logistic(size=10_000)])
    i, s = table.cells(z)
    c = np.ascontiguousarray(table.coef.T).take(i, axis=0)
    want = c[:, 3] * s
    for power in (2, 1):
        want += c[:, power]
        want *= s
    want += c[:, 0]
    assert np.array_equal(table(z), want)


def test_sum_table_reads_into_given_arrays_with_the_bits_of_new_ones():
    table = fading.element_sum_tables(*DEFAULT_PAIR, [3])[3]
    z = np.random.default_rng(6).logistic(size=(2, 500))
    z[0, :4] = (-np.inf, np.inf, table.z0, -table.z0)
    want, (want_i, want_s) = table(z), table.cells(z)
    # the fractions overwrite z
    i, s = table.cells(z, out=(np.empty(z.shape, np.intp), z))
    assert s is z and np.array_equal(i, want_i) and np.array_equal(s, want_s)
    out = np.empty(z.shape)
    assert table.at(i, s, out=out, work=np.empty(z.shape)) is out
    assert np.array_equal(out, want)


@pytest.mark.parametrize("law", [
    KappaMuParams(1.0, 1e4),  # envelope_pdf cannot evaluate it
    KappaMuParams(0.0, 1e6),  # so narrow beside a wide hop that the grid would pass 2^17 nodes
    KappaMuParams(0.0, 0.3),  # more than 2^-40 of the mass below e^-36
    KappaMuParams(0.0, 0.5),  # its two-element sum passes the frequency budget
], ids=repr)
def test_sum_tables_are_none_where_the_construction_cannot_carry_the_law(law):
    # at every count, the roughest or not
    for counts in ([1], [20], [2, 2500]):
        assert fading.element_sum_tables(law, KappaMuParams(0.0, 1.0), counts) is None


def test_sum_table_past_the_frequency_budget_raises():
    # a one-sided Gaussian hop leaves the two-element sum a kink at 0, so
    # its characteristic function falls too slowly for the budget
    base, _ = fading._log_product_density(KappaMuParams(0.0, 0.5), KappaMuParams(0.0, 2.0))
    with pytest.raises(ComputationError, match="its law needs more than 16384 frequencies"):
        fading._sum_law(*base, 2, 1)
    # a Rayleigh pair's two-element sum fits, with the most frequencies
    base, _ = fading._log_product_density(KappaMuParams(0.0, 1.0), KappaMuParams(0.0, 1.0))
    assert fading._sum_law(*base, 2, 1)[1] == 16384
