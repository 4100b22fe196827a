"""Tolerance configuration threaded through every numerical routine.

All comparisons in the package go through a single ToleranceConfig so that a
caller who tightens or loosens one knob sees consistent behaviour everywhere:
the same config object is accepted by the kernel routines, the order checks,
the canonical-form constructions and the CLI.
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
        Slack on the PSD test: the matrix passes when its minimum eigenvalue
        is >= -psd_tol * max(1, max|lambda|).
    idem_tol
        Half-width of the eigenvalue clusters treated as {0} and {1} when
        certifying idempotents during simultaneous reduction.
    recon_tol
        Relative residual accepted when a factorization is multiplied back
        together and compared against its input.
    sym_tol
        Relative asymmetry accepted silently when coercing raw input;
        inputs beyond it are still symmetrized but flagged.
    """

    rank_rel_tol: float | None = None
    psd_tol: float = 1e-9
    idem_tol: float = 1e-8
    recon_tol: float = 1e-8
    sym_tol: float = 1e-8

    def __post_init__(self):
        for name in ("psd_tol", "idem_tol", "recon_tol", "sym_tol"):
            value = getattr(self, name)
            if not (value > 0):
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.rank_rel_tol is not None and not (self.rank_rel_tol > 0):
            raise ValueError(
                f"rank_rel_tol must be positive or None, got {self.rank_rel_tol!r}"
            )

    def rank_cutoff(self, n: int, max_abs_eig: float) -> float:
        """Absolute eigenvalue cutoff below which rank counting treats
        eigenvalues as zero, for an n x n matrix with spectral radius
        max_abs_eig."""
        rel = self.rank_rel_tol
        if rel is None:
            rel = n * np.finfo(float).eps
        return rel * max_abs_eig


DEFAULT_TOL = ToleranceConfig()
