"""Chi-squared CDF and the KS distance helper."""

import math

import numpy as np
import pytest

from psdorder import special
from psdorder.errors import NonConvergence
from psdorder.special import chi2_cdf, gammainc_lower_reg, ks_uniform_distance


def test_chi2_cdf_against_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    grid = np.concatenate([np.linspace(0.0, 5.0, 41), np.linspace(6.0, 80.0, 30)])
    for df in (1, 2, 3, 5, 10, 25, 100, 201, 1000):
        # df + 2 is x = s + 1 for the incomplete gamma, where the series
        # hands over to the continued fraction; the bulk sits within a few
        # sqrt(2 df) of df
        bulk = df + np.sqrt(2.0 * df) * np.linspace(-6.0, 6.0, 49)
        xs = np.concatenate([grid, [df + 2.0], np.maximum(bulk, 0.0)])
        ours = chi2_cdf(xs, df)
        ref = scipy_stats.chi2.cdf(xs, df)
        np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-12)


def test_series_budget_grows_with_df():
    # near x = s + 1 the series needs about 8.7 sqrt(s) terms, past a fixed
    # 600 from df of about 10^4 on
    gammainc = pytest.importorskip("scipy.special").gammainc
    for df in (12_000, 20_000, 100_000):
        bulk = df + np.sqrt(2.0 * df) * np.linspace(-6.0, 6.0, 49)
        xs = np.concatenate([[df + 1.999], bulk])
        np.testing.assert_allclose(chi2_cdf(xs, df), gammainc(0.5 * df, 0.5 * xs), rtol=0, atol=1e-10)


def test_chi2_cdf_known_values():
    # df=2 is the exponential with rate 1/2, no scipy needed
    xs = np.array([0.0, 0.5, 1.0, 4.0])
    np.testing.assert_allclose(chi2_cdf(xs, 2), 1.0 - np.exp(-xs / 2), atol=1e-14)
    # median of chi2(1) at x = 0.454936... is 0.5
    assert chi2_cdf(0.45493642311957174, 1) == pytest.approx(0.5, abs=1e-12)


def test_chi2_cdf_edges():
    assert chi2_cdf(0.0, 3) == 0.0
    assert chi2_cdf(-1.0, 3) == 0.0
    assert chi2_cdf(1e4, 3) == pytest.approx(1.0, abs=1e-15)
    # chi2_cdf's own check, not the shape check of gammainc_lower_reg
    for df in (0, -2):
        with pytest.raises(ValueError, match="degrees of freedom"):
            chi2_cdf(1.0, df)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            chi2_cdf([1.0, bad], 3)


def test_exhausted_budget_raises(monkeypatch):
    monkeypatch.setattr(special, "_MAX_ITER", 3)
    with pytest.raises(NonConvergence):
        chi2_cdf(3.2, 1)  # x = s + 1.1: the continued fraction
    with pytest.raises(NonConvergence):
        chi2_cdf(0.9, 1)  # x < s + 1: the series


def test_continued_fraction_converges_well_within_budget(monkeypatch):
    # at most 69 iterations for df <= 1000, the most at the boundary x = s + 1
    monkeypatch.setattr(special, "_MAX_ITER", 100)
    for df in (1, 2, 3, 5, 25, 100, 201, 1000):
        s = 0.5 * df
        xs = 2.0 * (s + 1.0 + np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 40)]))
        p = chi2_cdf(xs, df)
        assert np.all(np.diff(p) >= 0.0) and p[-1] == 1.0


def test_gammainc_monotone_and_bounded():
    xs = np.linspace(0.0, 60.0, 400)
    for s in (0.5, 1.0, 2.5, 7.0, 30.0):
        p = gammainc_lower_reg(s, xs)
        assert np.all((p >= 0.0) & (p <= 1.0))
        assert np.all(np.diff(p) >= -1e-13)


def test_gammainc_rejects_arguments_outside_its_domain():
    for s in (0.0, -1.0):
        with pytest.raises(ValueError, match="shape parameter"):
            gammainc_lower_reg(s, 1.0)
    with pytest.raises(ValueError, match="x >= 0"):
        gammainc_lower_reg(1.0, [1.0, -0.5])


def test_gammainc_special_point():
    # P(1, x) = 1 - exp(-x)
    assert gammainc_lower_reg(1.0, 3.0) == pytest.approx(1.0 - math.exp(-3.0), abs=1e-14)


def test_ks_uniform_distance():
    # four points at 1/8, 3/8, 5/8, 7/8 are the best possible spread
    vals = np.array([0.125, 0.375, 0.625, 0.875])
    assert ks_uniform_distance(vals) == pytest.approx(0.125, abs=1e-15)
    # all mass at one point: empirical CDF is 0 just below it
    assert ks_uniform_distance(np.full(10, 0.999)) == pytest.approx(0.999, abs=1e-12)
    # input order must not matter
    rng = np.random.default_rng(1)
    u = rng.uniform(size=200)
    assert ks_uniform_distance(u) == ks_uniform_distance(np.sort(u)[::-1])
    with pytest.raises(ValueError, match="at least one value"):
        ks_uniform_distance([])


def test_ks_uniform_distance_calibration():
    # genuine uniforms should sit near the ~1/sqrt(n) scale, not far above
    rng = np.random.default_rng(8)
    dists = [ks_uniform_distance(rng.uniform(size=2000)) for _ in range(20)]
    assert max(dists) < 0.05
    assert min(dists) > 0.003
