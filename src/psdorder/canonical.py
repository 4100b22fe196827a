"""Canonical forms under congruence.

Sylvester's law says a real symmetric matrix is congruent to
diag(I_p, -I_q, 0) with (p, q) its inertia, which `inertia` counts; on
the PSD cone the form is E_k = diag(I_k, 0).  The central piece of this
module is the simultaneous reduction: a pair of PSD matrices with A below
B in the rank-subtractivity order shares one congruence S with
A = S E_r S^T and B = S E_s S^T.  The rank equation of orders decides the
order and its ranks r and s, and S is constructed here as a certificate
of that verdict.  A itself is below A, so sim_congruence(A, A) gives the
single form A = S E_r S^T.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import NotMinusComparable, NotPositiveSemidefinite
from .numkernel import (_symmetrize, canonical_order, derived, eigh_stack, eigvalsh_stack, maxabs, maxabs_stack,
                        over_scale, require_psd, sym_array)
from .orders import _certificate_fails, _minus_pair
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
    reconstructions came out, and sigma_min is the smallest singular value
    of `s` (1 for an empty one).
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

    The rank equation decides, as it decides minus_leq (orders._minus_pair):
    A, B and B - A pass the gate together and are decomposed in one call, whose values also certify A and B PSD.  A pair
    whose rank equation fails raises NotMinusComparable; any other is
    reduced with the ranks r and s of that count, as _sim_congruence
    describes, from B's eigenvectors in canonical order.  NotMinusComparable
    and NotPositiveSemidefinite carry that count's rank triple as
    `rank_triple`.
    """
    stack, (holds, _, _), triple, cutoff, values, vectors = _minus_pair(a, b, tol, vectors=True)
    pair, (r_rank, s_rank, d_rank) = stack[:2], triple
    try:
        scale = max(require_psd(pair, values[:2], tol).tolist())
        if not holds:
            raise NotMinusComparable(f"the rank equation fails: rank(B - A) = {d_rank}, "
                                     f"rank(B) - rank(A) = {s_rank - r_rank}")
    except (NotMinusComparable, NotPositiveSemidefinite) as exc:
        exc.rank_triple = triple
        raise
    (values_b,), (vectors_b,) = canonical_order(values[1:2], vectors[1:2])
    return _sim_congruence(pair, values_b, vectors_b, r_rank, s_rank, cutoff, scale, tol)


def _sim_congruence(pair, values_b, vectors_b, r_rank, s_rank, cutoff, scale, tol: ToleranceConfig) -> SimCongResult:
    """The congruence certificate of a (2, n, n) stack `pair` of A and B,
    certified PSD by the caller, whose rank equation holds with ranks r and
    s counted against `cutoff`; the caller also supplies B's values and
    vectors in canonical order and the pair's largest entry `scale`.

    Whiten B to E_s; the transformed A is then confined to the leading
    s-by-s block, a symmetric idempotent of rank r, which an orthogonal U
    inside the block turns into E_r.  Undoing the whitening gives
    S = V^{-1} diag(U, I), which U changes only in its leading s columns;
    S E_k S^T is S's leading k columns times their transpose.  V^{-1} is
    B's eigenvectors times the square roots of the whitening scales, and U
    is orthogonal, so those roots, all positive, are S's singular values:
    S is invertible by construction.  Each claim
    is a check judged against the pair's scale: the spill outside the block
    and the block's distance from r ones and s - r zeros in whitened units,
    where B is E_s, so against 1, and the reconstructions against `scale`.
    A check that fails raises PsdOrderError naming it.
    """
    n = len(vectors_b)
    fails = partial(_certificate_fails, "congruence")

    # Whitening: v @ B @ v.T == E_s exactly up to roundoff.  B's null
    # directions take the scale of its largest eigenvalue, so that neither
    # the spill test nor S depends on the units of A and B.  A kept
    # eigenvalue that B's PSD slack puts below zero is whitened at the
    # cutoff, and the reconstruction judges it.
    inv_scales = np.full(n, 1.0 / np.sqrt(values_b[0]) if s_rank else 1.0)
    inv_scales[:s_rank] = 1.0 / np.sqrt(np.maximum(values_b[:s_rank], cutoff))
    v = inv_scales[:, None] * vectors_b.T

    a_tilde = derived("whitened A", lambda: v @ pair[0] @ v.T)
    # A below B forces Im A inside Im B, i.e. nothing outside the block.
    spill = maxabs(a_tilde[s_rank:, :])
    if spill > tol.recon_tol:
        raise fails(f"spill check: whitened A leaks {spill:.3e} outside the rank-{s_rank} block")

    # P^2 = P in spectral form: r eigenvalues 1 and s - r eigenvalues 0.
    # The block is derived, so finite, and is symmetrized as raw input is
    (lam,), (u,) = canonical_order(*eigh_stack(_symmetrize(a_tilde[None, :s_rank, :s_rank])))
    off = np.abs(lam - (np.arange(s_rank) < r_rank)).max(initial=0.0)
    if off > tol.recon_tol:
        raise fails(f"idempotent check: block eigenvalues {off:.3e} away from {r_rank} ones and "
                    f"{s_rank - r_rank} zeros")

    # S = V^{-1} diag(U, I), the whitening inverse explicit
    sigmas = 1.0 / inv_scales
    s = np.multiply(vectors_b, sigmas, order="C")
    s[:, :s_rank] = s[:, :s_rank] @ u
    s[:, s_rank:] += 0.0  # +0.0 for B's -0.0 entries, as a product with diag(U, I) gives
    recon = np.array([s[:, :r_rank] @ s[:, :r_rank].T, s[:, :s_rank] @ s[:, :s_rank].T])
    residual_a, residual_b = (over_scale(x, scale) for x in maxabs_stack(recon - pair).tolist())
    if max(residual_a, residual_b) > tol.recon_tol:
        raise fails(f"reconstruction check: residuals ({residual_a:.3e}, {residual_b:.3e}) out of budget")
    return SimCongResult(s=s, rank_a=r_rank, rank_b=s_rank, residual_a=residual_a, residual_b=residual_b,
                         sigma_min=min(sigmas.tolist(), default=1.0))
