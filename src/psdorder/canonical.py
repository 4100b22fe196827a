"""Canonical forms under congruence.

Sylvester's law says a real symmetric matrix is congruent to
diag(I_p, -I_q, 0) with (p, q) its inertia; on the PSD cone the form is
E_k = diag(I_k, 0).  The central piece of this module is the
simultaneous reduction: a pair of PSD matrices with A below B in the
rank-subtractivity order shares one congruence S with
A = S E_r S^T and B = S E_s S^T, and that S is constructed explicitly here.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotMinusComparable
from .numkernel import PsdMatrix, SymMatrix, min_singular_value, rel_residual, sym_eig
from .tolerances import DEFAULT_TOL, ToleranceConfig


@dataclass(frozen=True)
class Inertia:
    """Counts of positive, negative and (numerically) zero eigenvalues."""

    n_pos: int
    n_neg: int
    n_zero: int

    @property
    def rank(self) -> int:
        return self.n_pos + self.n_neg

    @property
    def n(self) -> int:
        return self.n_pos + self.n_neg + self.n_zero


@dataclass(frozen=True)
class SimCongResult:
    """Shared congruence for a rank-subtractive PSD pair.

    `s` is invertible with A = s E_r s^T and B = s E_s s^T, where
    rank_a = r <= rank_b = s; the residuals record how well the two
    reconstructions came out.
    """

    s: np.ndarray
    rank_a: int
    rank_b: int
    residual_a: float
    residual_b: float
    sigma_min: float


def canonical_ek(n: int, k: int) -> np.ndarray:
    """The canonical PSD representative E_k = diag(I_k, 0) of rank k."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    e = np.zeros((n, n))
    e[:k, :k] = np.eye(k)
    return e


def inertia(a, tol: ToleranceConfig = DEFAULT_TOL) -> Inertia:
    """Signature of a symmetric matrix with the shared rank-cutoff
    convention: eigenvalues within the cutoff of zero count as zero."""
    eig = sym_eig(a)
    values = eig.values
    cutoff = eig.cutoff(tol)
    n_pos = int(np.count_nonzero(values > cutoff))
    n_neg = int(np.count_nonzero(values < -cutoff))
    return Inertia(n_pos, n_neg, len(values) - n_pos - n_neg)


def congruence_canonical(a, tol: ToleranceConfig = DEFAULT_TOL):
    """Invertible S with A = S diag(I_p, -I_q, 0) S^T; returns (S, Inertia).

    Columns of S scale the eigenvectors by sqrt|lambda| (unit scale on the
    null space), ordered positives first (descending), then negatives
    (most negative first), then the null directions.
    """
    sym = a if isinstance(a, SymMatrix) else SymMatrix(a)
    eig = sym_eig(sym)
    values, vectors = eig.values, eig.vectors
    cutoff = eig.cutoff(tol)
    pos = np.flatnonzero(values > cutoff)
    neg = np.flatnonzero(values < -cutoff)[::-1]
    zero = np.flatnonzero(~eig.nonzero(tol, cutoff))
    order = np.concatenate([pos, neg, zero]).astype(int)
    scales = np.ones(sym.n)
    keep = np.concatenate([pos, neg]).astype(int)
    scales[keep] = np.sqrt(np.abs(values[keep]))
    s = vectors[:, order] * scales[order]
    inert = Inertia(len(pos), len(neg), len(zero))
    sign = np.concatenate(
        [np.ones(len(pos)), -np.ones(len(neg)), np.zeros(len(zero))]
    )
    recon = (s * sign) @ s.T
    residual = rel_residual(recon - sym.a, sym.a)
    if residual > tol.recon_tol:
        raise NotMinusComparable(
            f"canonical reconstruction residual {residual:.3e} out of budget"
        )
    return s, inert


def sim_congruence(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> SimCongResult:
    """One congruence bringing a rank-subtractive PSD pair to (E_r, E_s).

    The construction follows the structure of the pair directly.  Whiten B
    to E_s; the transformed A is then confined to the leading s-by-s block
    and that block must be a symmetric idempotent of rank r, which an
    orthogonal change of basis inside the block turns into E_r.  Undoing
    the whitening gives S.  Each structural claim is verified numerically
    and any failure raises NotMinusComparable, so a pair that is not
    actually below B in the minus order cannot slip through.
    """
    pa = a if isinstance(a, PsdMatrix) else PsdMatrix(a, tol)
    pb = b if isinstance(b, PsdMatrix) else PsdMatrix(b, tol)
    if pa.n != pb.n:
        raise NotMinusComparable(f"size mismatch: {pa.n} vs {pb.n}")
    n = pa.n

    eig_b = sym_eig(pb)
    s_rank = int(np.count_nonzero(eig_b.values > eig_b.cutoff(tol)))

    # Whitening: v @ B @ v.T == E_s exactly up to roundoff.
    inv_scales = np.ones(n)
    inv_scales[:s_rank] = 1.0 / np.sqrt(eig_b.values[:s_rank])
    v = inv_scales[:, None] * eig_b.vectors.T

    a_tilde = v @ pa.a @ v.T
    # A below B forces Im A inside Im B, i.e. nothing outside the block.
    spill = rel_residual(a_tilde[s_rank:, :], a_tilde)
    if spill > tol.recon_tol:
        raise NotMinusComparable(
            f"transformed A leaks {spill:.3e} outside the rank-{s_rank} block"
        )

    block = a_tilde[:s_rank, :s_rank]
    eig_block = sym_eig(block) if s_rank else None
    if eig_block is not None:
        lam = eig_block.values
        near_one = np.abs(lam - 1.0) <= tol.idem_tol
        near_zero = np.abs(lam) <= tol.idem_tol
        if not np.all(near_one | near_zero):
            worst = lam[~(near_one | near_zero)]
            raise NotMinusComparable(
                "block spectrum not idempotent: eigenvalues "
                f"{np.array2string(worst, precision=4)} away from {{0, 1}}"
            )
        r_rank = int(np.count_nonzero(near_one))
        u = eig_block.vectors
    else:
        r_rank = 0
        u = np.zeros((0, 0))

    # S = V^{-1} diag(U, I); the whitening inverse is explicit.
    v_inv = eig_b.vectors * (1.0 / inv_scales)
    z = np.eye(n)
    z[:s_rank, :s_rank] = u
    s = v_inv @ z

    e_r = canonical_ek(n, r_rank)
    e_s = canonical_ek(n, s_rank)
    residual_a = rel_residual(s @ e_r @ s.T - pa.a, pa.a)
    residual_b = rel_residual(s @ e_s @ s.T - pb.a, pb.a)
    sigma_min, invertible = min_singular_value(s, tol)
    if not invertible:
        raise NotMinusComparable(
            f"constructed transform is singular (sigma_min={sigma_min:.3e})"
        )
    if max(residual_a, residual_b) > tol.recon_tol:
        raise NotMinusComparable(
            f"reconstruction residuals ({residual_a:.3e}, {residual_b:.3e}) "
            "out of budget"
        )
    return SimCongResult(
        s=s,
        rank_a=r_rank,
        rank_b=s_rank,
        residual_a=residual_a,
        residual_b=residual_b,
        sigma_min=sigma_min,
    )
