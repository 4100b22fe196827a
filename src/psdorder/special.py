"""Special functions needed by the Monte Carlo validation layer.

The chi-square CDF is the regularized lower incomplete gamma P(df/2, x/2),
and it takes one of two routes by its degrees of freedom:

- an integer df <= _CLOSED_FORM_MAX_DF (500) takes the closed forms of
  Abramowitz & Stegun 26.4.4-26.4.5: for even df the upper tail is the
  finite Poisson sum e^{-x/2} sum_{k < df/2} (x/2)^k / k!, and for odd df
  it is erfc(sqrt(x/2)) plus the finite half-integer sum.  That is df/2
  elementwise steps, the same for every value, so each value is bit for
  bit what a call with it alone gives.  erfc is Numerical Recipes' (3rd
  ed., section 6.2.2) Chebyshev fit, numpy only.  Against scipy the CDF
  stays within 5e-15 absolute for every df <= 500; relative accuracy in
  the far lower tail, where the CDF is 1 minus the upper tail, is not
  kept.  500 is where the df/2 steps start to cost more than the
  iterations below: the two routes cross at about df 500 on 50,000 values
  and df 800 on 8,000 (one core, numpy 2.4).  Far beyond it e^{-x/2}
  itself underflows in the bulk, from df of about 1,400 on.
- every other df, and gammainc_lower_reg itself, take a power series on
  x < s + 1 and a modified Lentz continued fraction elsewhere (Press et
  al., Numerical Recipes, 3rd ed., section 6.2).  Both iterate to near
  machine precision, comfortably past the 1e-10 the callers require; each
  element iterates until the slowest of its call converges, so a value's
  last bits may depend on the others in its call:

  - the series stops once its last term is below 1e-16 of the sum; the
    number of terms grows like sqrt(s) near x = s + 1, about 8.7 sqrt(s)
    (195 at df = 1000, 1,778 at df = 10^5), so its budget is _MAX_ITER
    times max(1, sqrt(s / 500)), about three times that need,
  - the continued fraction stops once every Lentz factor is within four
    machine epsilons of 1; that takes at most 69 iterations for every
    df <= 1000, the most at the boundary x = s + 1 (for even df the
    fraction terminates at iteration s at the latest, where its numerator
    is 0).

  Either branch that spends its budget without meeting its test raises
  NonConvergence rather than returning the unconverged value.  Both stay
  within 1e-10 of scipy's gammainc up to df = 10^5; beyond that the
  roundoff of the prefactor s log x - x - lgamma(s), about eps times
  s log x, grows past it.
"""

import math

import numpy as np

from .errors import NonConvergence

_TINY = 1e-300
# The series stops once its last term is below this share of the sum.
_SERIES_TOL = 1e-16
# The Lentz factors settle at 1 +- a few ulps, never exactly on 1: 1e-16 is
# below half an ulp of 1.0 (1.1e-16) and can never be met, so the fraction
# stops once every factor is within four machine epsilons of 1.
_LENTZ_TOL = 4.0 * np.finfo(float).eps
_MAX_ITER = 600
# Integer degrees of freedom up to this take the closed forms of chi2_cdf.
_CLOSED_FORM_MAX_DF = 500
# Chebyshev coefficients of erfc on [0, inf) in t = 2 / (2 + z) (Numerical
# Recipes, 3rd ed., section 6.2.2, Erf::cof).
_ERFC_COF = (
    -1.3026537197817094, 6.4196979235649026e-1, 1.9476473204185836e-2,
    -9.561514786808631e-3, -9.46595344482036e-4, 3.66839497852761e-4,
    4.2523324806907e-5, -2.0278578112534e-5, -1.624290004647e-6,
    1.303655835580e-6, 1.5626441722e-8, -8.5238095915e-8, 6.529054439e-9,
    5.059343495e-9, -9.91364156e-10, -2.27365122e-10, 9.6467911e-11,
    2.394038e-12, -6.886027e-12, 8.94487e-13, 3.13092e-13, -1.12708e-13,
    3.81e-16, 7.106e-15, -1.523e-15, -9.4e-17, 1.21e-16, -2.8e-17,
)


def _lower_series(s: float, x: np.ndarray) -> np.ndarray:
    """P(s, x) for x < s + 1 via the ascending series."""
    out = np.zeros_like(x)
    active = x > 0
    if not active.any():
        return out
    xa = x[active]
    term = np.full_like(xa, 1.0 / s)
    total = term.copy()
    denom = s
    # the terms needed grow like sqrt(s) near x = s + 1, and so does the
    # budget: _MAX_ITER up to s = 500, about three times the need beyond
    budget = int(_MAX_ITER * max(1.0, math.sqrt(s / 500.0)))
    for _ in range(budget):
        denom += 1.0
        term = term * xa / denom
        total += term
        if np.all(term <= total * _SERIES_TOL):
            break
    else:
        raise NonConvergence(
            f"incomplete gamma series for s={s!r} did not converge in {budget} terms"
        )
    log_front = s * np.log(xa) - xa - math.lgamma(s)
    out[active] = total * np.exp(log_front)
    return out


def _upper_contfrac(s: float, x: np.ndarray) -> np.ndarray:
    """Q(s, x) for x >= s + 1 via modified Lentz."""
    b = x + 1.0 - s
    c = np.full_like(x, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - s)
        b = b + 2.0
        d = an * d + b
        d[np.abs(d) < _TINY] = _TINY
        c = b + an / c
        c[np.abs(c) < _TINY] = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if np.all(np.abs(delta - 1.0) <= _LENTZ_TOL):
            break
    else:
        raise NonConvergence(
            f"incomplete gamma continued fraction for s={s!r} did not converge "
            f"in {_MAX_ITER} iterations"
        )
    log_front = s * np.log(x) - x - math.lgamma(s)
    return np.exp(log_front) * h


def gammainc_lower_reg(s: float, x) -> np.ndarray:
    """Regularized lower incomplete gamma P(s, x), elementwise over x."""
    if s <= 0:
        raise ValueError(f"shape parameter must be positive, got {s!r}")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if not np.all(np.isfinite(x)):
        raise ValueError("incomplete gamma requires finite x")
    if np.any(x < 0):
        raise ValueError("incomplete gamma requires x >= 0")
    out = np.empty_like(x)
    small = x < s + 1.0
    out[small] = _lower_series(s, x[small])
    if np.any(~small):
        out[~small] = 1.0 - _upper_contfrac(s, x[~small])
    np.clip(out, 0.0, 1.0, out=out)
    return out[0] if scalar else out


def _erfc(z) -> np.ndarray:
    """Complementary error function of each z >= 0: Numerical Recipes'
    Chebyshev fit, summed by Clenshaw's recurrence: within 4.4e-16
    absolute of scipy's on [0, 30], with a relative error that grows from a
    few eps like eps z^2 (the roundoff of z^2 in its exponent)."""
    z = np.asarray(z, dtype=float)
    t = 2.0 / (2.0 + z)
    ty = 4.0 * t - 2.0
    d, dd, spare = np.full_like(ty, _ERFC_COF[-1]), np.zeros_like(ty), np.empty_like(ty)
    for c in _ERFC_COF[-2:0:-1]:
        np.multiply(ty, d, out=spare)
        spare -= dd
        spare += c
        dd, d, spare = d, spare, dd
    return t * np.exp(-z * z + 0.5 * (_ERFC_COF[0] + ty * d) - dd)


def _chi2_upper(y: np.ndarray, df: int) -> np.ndarray:
    """1 - P(df / 2, y) for an integer df, elementwise over y = x / 2 >= 0:
    erfc(sqrt(y)) for odd df, plus sum_{j < df // 2} e^{-y} y^{j + h} /
    Gamma(j + h + 1) with h = 1/2 for odd df and 0 for even df."""
    h = 0.5 * (df % 2)
    term = np.exp(-y)
    if h:
        root = np.sqrt(y)
        upper = _erfc(root)
        term *= root / math.gamma(1.5)
    else:
        upper = np.zeros_like(y)
    for j in range(df // 2):
        upper += term
        term *= y / (j + h + 1.0)
    return upper


def chi2_cdf(x, df: float) -> np.ndarray:
    """CDF of the chi-square distribution with df degrees of freedom: in
    closed form for an integer df <= _CLOSED_FORM_MAX_DF, else as
    gammainc_lower_reg(df / 2, x / 2); 0 for every x <= 0."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df!r}")
    x = np.asarray(x, dtype=float)
    y = 0.5 * np.maximum(x, 0.0)
    if df > _CLOSED_FORM_MAX_DF or not float(df).is_integer():
        return gammainc_lower_reg(0.5 * df, y)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    if not np.all(np.isfinite(y)):
        raise ValueError("chi-square CDF requires finite x")
    out = np.clip(1.0 - _chi2_upper(y, int(df)), 0.0, 1.0)
    # the fit's erfc(0) is one ulp below 1
    out[y == 0.0] = 0.0
    return out[0] if scalar else out


def ks_uniform_distance(values) -> float:
    """Kolmogorov-Smirnov distance between a sample and Uniform(0, 1).

    `values` are probability-transformed draws; the statistic is the usual
    sup-distance between their empirical CDF and the identity.
    """
    u = np.sort(np.asarray(values, dtype=float))
    n = u.size
    if n == 0:
        raise ValueError("KS distance needs at least one value")
    grid = np.arange(1, n + 1) / n
    d_plus = np.max(grid - u)
    d_minus = np.max(u - (grid - 1.0 / n))
    return float(max(d_plus, d_minus))
