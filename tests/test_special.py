"""Chi-squared CDF, erfc and the KS distance helper."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    # the iterative kernel, which chi2_cdf takes only above the closed forms
    monkeypatch.setattr(special, "_MAX_ITER", 3)
    with pytest.raises(NonConvergence):
        gammainc_lower_reg(0.5, 1.6)  # x = s + 1.1: the continued fraction
    with pytest.raises(NonConvergence):
        gammainc_lower_reg(0.5, 0.45)  # x < s + 1: the series


def test_continued_fraction_converges_well_within_budget(monkeypatch):
    # at most 69 iterations for df <= 1000, the most at the boundary x = s + 1
    monkeypatch.setattr(special, "_MAX_ITER", 100)
    for df in (1, 2, 3, 5, 25, 100, 201, 1000):
        s = 0.5 * df
        xs = 2.0 * (s + 1.0 + np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 40)]))
        p = gammainc_lower_reg(s, 0.5 * xs)
        assert np.all(np.diff(p) >= 0.0) and p[-1] == 1.0


def test_closed_forms_match_scipy_for_every_integer_df():
    # every df the closed forms take, at x <= 0, in the bulk, at x = df + 2
    # (where the iterative kernel switches branch) and far in the tail
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(25)
    for df in range(1, special._CLOSED_FORM_MAX_DF + 1):
        bulk = np.maximum(df + np.sqrt(2.0 * df) * np.linspace(-6.0, 6.0, 13), 0.0)
        xs = np.concatenate([[-1.0, 0.0, 1e-300, 1e-8, df + 2.0, 1e4], bulk, rng.chisquare(df, 20)])
        p = chi2_cdf(xs, df)
        assert p[0] == p[1] == 0.0
        np.testing.assert_allclose(p, scipy_stats.chi2.cdf(xs, df), rtol=0, atol=1e-13, err_msg=f"df={df}")
    # past the closed forms the iterative kernel answers, as gammainc_lower_reg
    xs = np.array([0.5, 501.0, 503.0, 600.0])
    assert chi2_cdf(xs, 501).tobytes() == gammainc_lower_reg(250.5, 0.5 * xs).tobytes()
    assert chi2_cdf(xs, 2.5).tobytes() == gammainc_lower_reg(1.25, 0.5 * xs).tobytes()


def test_erfc_matches_scipy():
    erfc = pytest.importorskip("scipy.special").erfc
    z = np.concatenate([[0.0, 1e-300, 1e-8], np.linspace(0.0, 6.0, 601), np.geomspace(6.0, 30.0, 50)])
    ours = special._erfc(z)
    # 4.4e-16 at most on x86-64 with numpy 2.4, two ulps of erfc near 1;
    # the bound leaves room for another platform's exp
    np.testing.assert_allclose(ours, erfc(z), rtol=0, atol=1e-15)
    # the relative error grows like eps z^2 from the roundoff of z^2, up to
    # where erfc leaves the normal range
    normal = z <= 26.0
    rel = np.abs(ours - erfc(z))[normal] / erfc(z)[normal]
    assert np.all(rel <= 4e-15 * np.maximum(1.0, z[normal] ** 2))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    df=st.one_of(st.integers(1, 12), st.integers(1, special._CLOSED_FORM_MAX_DF)),
    seed=st.integers(0, 2**32 - 1),
    xs=st.lists(st.floats(-1.0, 1e3, allow_nan=False), max_size=20),
)
def test_closed_form_value_does_not_depend_on_its_neighbours(df, seed, xs):
    # one value's CDF is bit for bit the same in any call that holds it;
    # the iterative kernel, which runs every value until the slowest one
    # converges, is not: it moved some of 400 such values by an ulp
    x = np.concatenate([xs, np.random.default_rng(seed).chisquare(df, 400 - len(xs))])
    p = chi2_cdf(x, df)
    # each value alone, for the first 25, and in 16 calls of 25 values each
    for i, xi in enumerate(x[:25]):
        assert p[i].tobytes() == chi2_cdf(xi, df).tobytes()
    assert p.tobytes() == np.concatenate([chi2_cdf(part, df) for part in np.split(x, 16)]).tobytes()


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
    for x in (np.inf, [1.0, np.nan]):
        with pytest.raises(ValueError, match="finite x"):
            gammainc_lower_reg(1.0, x)


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


def test_package_runs_without_scipy():
    # erfc and the incomplete gamma are numpy only: importing the package
    # and its command line loads no scipy module
    code = "import sys, psdorder, psdorder.cli; assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']"
    env = {**os.environ, "PYTHONPATH": str(Path(special.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
