"""Special functions needed by the Monte Carlo validation layer.

Only the regularized lower incomplete gamma is needed (for chi-square
probability transforms), so it is implemented directly: a power series on
x < s + 1 and a modified Lentz continued fraction elsewhere (Press et al.,
Numerical Recipes, 3rd ed., section 6.2).  Both iterate to near machine
precision, comfortably past the 1e-10 the callers require:

- the series stops once its last term is below 1e-16 of the sum; the
  number of terms grows like sqrt(s) near x = s + 1, about 8.7 sqrt(s)
  (195 at df = 1000, 1,778 at df = 10^5), so its budget is _MAX_ITER
  times max(1, sqrt(s / 500)), about three times that need,
- the continued fraction stops once every Lentz factor is within four
  machine epsilons of 1; that takes at most 69 iterations for every
  df <= 1000, the most at the boundary x = s + 1 (for even df the fraction
  terminates at iteration s at the latest, where its numerator is 0).

Either branch that spends its budget without meeting its test raises
NonConvergence rather than returning the unconverged value.  Both stay
within 1e-10 of scipy's gammainc up to df = 10^5; beyond that the roundoff
of the prefactor s log x - x - lgamma(s), about eps times s log x, grows
past it.
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


def chi2_cdf(x, df: float) -> np.ndarray:
    """CDF of the chi-square distribution with df degrees of freedom."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df!r}")
    x = np.asarray(x, dtype=float)
    clipped = np.maximum(x, 0.0)
    return gammainc_lower_reg(0.5 * df, 0.5 * clipped)


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
