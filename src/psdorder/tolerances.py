"""Tolerance configuration threaded through every numerical routine.

All comparisons in the package go through a single ToleranceConfig so that a
caller who tightens or loosens one knob sees consistent behaviour everywhere:
the same config object is accepted by the kernel routines, the order checks,
the canonical-form constructions and the CLI.  Every threshold is relative
to the inputs it judges (numkernel owns how that scale is taken), so a
verdict does not depend on the units of the matrices.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PsdOrderError

# The default relative rank cutoff per unit of n.  Roundoff eigenvalues of
# computed matrices reach past n eps: those of P and I - P, for P = Q_k Q_k^T
# from a QR factor, reached 2.94 n eps |lambda|max under eigvalsh and 3.24
# under eigh in surveys of 2,000,000 draws at n = 2 to 5, and 4 n eps is the
# smallest integer multiple that none crosses.  A real eigenvalue of 1e-13
# |lambda|max still clears it at n = 16.
_RANK_EPS = 4 * np.finfo(float).eps


@dataclass(frozen=True)
class ToleranceConfig:
    """Bundle of numerical thresholds.

    rank_rel_tol
        Relative eigenvalue cutoff for numerical rank: eigenvalues of
        magnitude <= rank_rel_tol * max|lambda| count as zero.  None selects
        the scale-aware default 4 n machine epsilon.
    psd_tol
        Slack on the PSD test, relative to the inputs with no floor: the
        minimum eigenvalue must be >= -psd_tol * the largest entry of the
        matrix (of A and B when it is the difference B - A).
    recon_tol
        Relative residual accepted by identity checks (reconstructions,
        A (B - A) = 0 relative to |A| |B - A|, and the checks of
        sim_congruence's certificate) and by the symmetrization of raw
        input, which flags input skewed beyond it.  Identities that multiply by an inner
        inverse or an estimator widen it by their unit-free size when that
        exceeds 1 (numkernel.identity_budget).

    Every value must be positive and finite.
    """

    rank_rel_tol: float | None = None
    psd_tol: float = 1e-9
    recon_tol: float = 1e-8

    def __post_init__(self):
        for name, value in vars(self).items():
            if name == "rank_rel_tol" and value is None:
                continue
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    def rank_cutoff(self, spectra: np.ndarray, n: int | None = None):
        """Absolute cutoff at or below which rank counting treats a value of
        `spectra` as zero, the one place a spectrum becomes a cutoff: the
        relative cutoff times the largest magnitude over the last axis, one
        cutoff per spectrum of a stack.  n, which the default scales with,
        is a spectrum's length unless given (singular values pass the larger
        dimension of their matrix).  A finite matrix can still have an
        eigenvalue beyond the float range, or a radius that a relative
        cutoff of 1 or more carries past it, and nothing counts against an
        infinite cutoff, so that raises, with no numpy overflow warning."""
        rel = self.rank_rel_tol
        if rel is None:
            rel = (spectra.shape[-1] if n is None else n) * _RANK_EPS
        radius = np.abs(spectra).max(axis=-1, initial=0.0)
        # the largest product first, in Python floats, which overflow to inf
        # with no warning; numpy's products round the same, so they are
        # finite where it is.  rel is finite and positive and the radii are
        # at least 0, so inf is the one value that is not finite
        largest = max(radius.tolist() or [0.0]) if radius.ndim else float(radius)
        if rel * largest == math.inf:
            raise PsdOrderError("the rank cutoff overflows the floating-point range")
        return rel * radius


DEFAULT_TOL = ToleranceConfig()
