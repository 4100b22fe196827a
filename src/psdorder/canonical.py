"""Canonical forms under congruence.

Sylvester's law says a real symmetric matrix is congruent to
diag(I_p, -I_q, 0) with (p, q) its inertia, which `inertia` counts; on
the PSD cone the form is E_k = diag(I_k, 0).  The central piece of this
module is the simultaneous reduction: a pair of PSD matrices with A below
B in the rank-subtractivity order shares one congruence S with
A = S E_r S^T and B = S E_s S^T, and that S is constructed explicitly
here.  A itself is below A, so sim_congruence(A, A) gives the single
form A = S E_r S^T.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotMinusComparable, PsdOrderError
from .numkernel import (_symmetrize, canonical_order, derived, eigh_stack, eigvalsh_stack, maxabs_stack,
                        min_singular_value, over_scale, rel_residual, require_psd, sym_array, sym_pair)
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
    convention: eigenvalues within the cutoff of zero count as zero.  It
    reads the eigenvalues alone (eigvalsh_stack)."""
    values = eigvalsh_stack(sym_array(a)[None])[0]
    cutoff = tol.rank_cutoff(values)
    n_pos = int(np.count_nonzero(values > cutoff))
    n_neg = int(np.count_nonzero(values < -cutoff))
    return Inertia(n_pos, n_neg, len(values) - n_pos - n_neg)


def sim_congruence(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> SimCongResult:
    """One congruence bringing a rank-subtractive PSD pair to (E_r, E_s).

    A and B pass the gate as one stack (numkernel.sym_pair), are decomposed
    in one call and certified PSD from their eigenvalues; B's eigenvectors
    are then put in canonical order and the pair is reduced as
    _sim_congruence describes.
    """
    pair, _ = sym_pair(a, b)
    values, vectors = eigh_stack(pair)
    scales = require_psd(pair, values, tol).tolist()
    (values_b,), (vectors_b,) = canonical_order(values[1:], vectors[1:])
    return _sim_congruence(pair, values_b, vectors_b, tol, scales)


def _sim_congruence(pair, values_b, vectors_b, tol: ToleranceConfig, scales) -> SimCongResult:
    """sim_congruence on a (2, n, n) stack `pair` of symmetric A and B,
    certified PSD by the caller, which also supplies B's values and
    vectors in canonical order and the largest entries of A and B (floats).

    The construction follows the structure of the pair directly.  Whiten B
    to E_s; the transformed A is then confined to the leading s-by-s block
    and that block must be a symmetric idempotent of rank r, which an
    orthogonal change of basis inside the block turns into E_r.  Undoing
    the whitening gives S = V^{-1} diag(U, I), which U changes only in its
    leading s columns; S E_k S^T is S's leading k columns times their
    transpose.  Each structural claim is verified numerically and any
    failure raises NotMinusComparable, so a pair that is not actually
    below B in the minus order cannot slip through.
    """
    n = len(vectors_b)
    s_rank = int(np.count_nonzero(values_b > tol.rank_cutoff(values_b)))

    # Whitening: v @ B @ v.T == E_s exactly up to roundoff.  B's null
    # directions take the scale of its largest eigenvalue, so that neither
    # the spill test nor S depends on the units of A and B.
    inv_scales = np.full(n, 1.0 / np.sqrt(values_b[0]) if s_rank else 1.0)
    inv_scales[:s_rank] = 1.0 / np.sqrt(values_b[:s_rank])
    v = inv_scales[:, None] * vectors_b.T

    # A beyond the float range in B's own metric exceeds B, whatever the units
    try:
        a_tilde = derived("whitened A", lambda: v @ pair[0] @ v.T)
    except PsdOrderError as exc:
        raise NotMinusComparable(str(exc)) from None
    # A below B forces Im A inside Im B, i.e. nothing outside the block.
    spill = rel_residual(a_tilde[s_rank:, :], a_tilde)
    if spill > tol.recon_tol:
        raise NotMinusComparable(
            f"transformed A leaks {spill:.3e} outside the rank-{s_rank} block"
        )

    # P^2 = P in spectral form on a unit-scale block, judged as identities
    # are; the block is derived, so finite, and is symmetrized as raw input is
    (lam,), (u,) = canonical_order(*eigh_stack(_symmetrize(a_tilde[None, :s_rank, :s_rank])))
    near_one = np.abs(lam - 1.0) <= tol.recon_tol
    near_zero = np.abs(lam) <= tol.recon_tol
    if not np.all(near_one | near_zero):
        worst = lam[~(near_one | near_zero)]
        raise NotMinusComparable(
            "block spectrum not idempotent: eigenvalues "
            f"{np.array2string(worst, precision=4)} away from {{0, 1}}"
        )
    r_rank = int(np.count_nonzero(near_one))

    # S = V^{-1} diag(U, I), the whitening inverse explicit
    s = np.multiply(vectors_b, 1.0 / inv_scales, order="C")
    s[:, :s_rank] = s[:, :s_rank] @ u
    s[:, s_rank:] += 0.0  # +0.0 for B's -0.0 entries, as a product with diag(U, I) gives
    recon = np.array([s[:, :r_rank] @ s[:, :r_rank].T, s[:, :s_rank] @ s[:, :s_rank].T])
    residual_a, residual_b = map(over_scale, maxabs_stack(recon - pair).tolist(), scales)
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
