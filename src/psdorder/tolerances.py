"""Tolerance configuration threaded through every numerical routine.

All comparisons in the package go through a single ToleranceConfig so that a
caller who tightens or loosens one knob sees consistent behaviour everywhere:
the same config object is accepted by the kernel routines, the order checks,
the canonical-form constructions and the CLI.  Every threshold is relative
to the inputs it judges (numkernel owns how that scale is taken), so a
verdict does not depend on the units of the matrices.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ToleranceConfig:
    """Bundle of numerical thresholds.

    rank_rel_tol
        Relative eigenvalue cutoff for numerical rank: eigenvalues of
        magnitude <= rank_rel_tol * max|lambda| count as zero.  None selects
        the scale-aware default n * machine epsilon.
    psd_tol
        Slack on the PSD test, relative to the inputs with no floor: the
        minimum eigenvalue must be >= -psd_tol * the largest entry of the
        matrix (of A and B when it is the difference B - A).
    idem_tol
        Half-width of the eigenvalue clusters treated as {0} and {1} when
        certifying idempotents during simultaneous reduction.
    recon_tol
        Relative residual accepted by identity checks (reconstructions,
        equality, A^2 = A B) and by the symmetrization of raw input, which
        flags input skewed beyond it.  Identities that multiply by an inner
        inverse or an estimator widen it by their unit-free size when that
        exceeds 1 (numkernel.identity_budget).

    Every value must be positive and finite.
    """

    rank_rel_tol: float | None = None
    psd_tol: float = 1e-9
    idem_tol: float = 1e-8
    recon_tol: float = 1e-8

    def __post_init__(self):
        for name, value in vars(self).items():
            if name == "rank_rel_tol" and value is None:
                continue
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    def rank_cutoff(self, n: int, max_abs_eig: float) -> float:
        """Absolute eigenvalue cutoff below which rank counting treats
        eigenvalues as zero, for an n x n matrix with spectral radius
        max_abs_eig."""
        rel = self.rank_rel_tol
        if rel is None:
            rel = n * np.finfo(float).eps
        return rel * max_abs_eig


DEFAULT_TOL = ToleranceConfig()
