"""Canonical forms under congruence.

Sylvester's law says a real symmetric matrix is congruent to
diag(I_p, -I_q, 0) with (p, q) its inertia, which `inertia` counts; on
the PSD cone the form is E_k = diag(I_k, 0).  The central piece of this
module is the simultaneous reduction: a pair of PSD matrices with A below
B in the rank-subtractivity order shares one congruence S with
A = S E_r S^T and B = S E_s S^T.  The rank equation of orders decides the
order and its ranks r and s, and S, a certificate of that verdict, is
read off the eigenvectors of A, B and B - A that decided it.  A itself
is below A, so sim_congruence(A, A) gives the single form A = S E_r S^T.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotMinusComparable, NotPositiveSemidefinite
from .numkernel import canonical_order, eigvalsh_stack, maxabs_stack, over_scale, require_psd, sym_array
from .orders import _certificate_fails, _direct_sum, _minus_pair, _oblique_basis
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
    A, B and B - A pass the gate together and are decomposed in one call,
    whose values also certify A and B PSD.  A pair whose rank equation
    fails raises NotMinusComparable; any other is reduced with the ranks r
    and s of that count, from the three eigendecompositions of that call,
    as _sim_congruence describes.  NotMinusComparable and
    NotPositiveSemidefinite carry that count's rank triple as `rank_triple`.
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
    return _sim_congruence(pair, values, vectors, r_rank, s_rank, cutoff, scale, tol)


def _sim_congruence(pair, values, vectors, r_rank, s_rank, cutoff, scale, tol: ToleranceConfig) -> SimCongResult:
    """The congruence certificate of a (2, n, n) stack `pair` of A and B,
    certified PSD by the caller, whose rank equation holds with ranks r and
    s counted against `cutoff`; the caller also supplies the spectra of A,
    B and B - A as eigh returns them, `values` (3, n) and `vectors`
    (3, n, n), and the pair's largest entry `scale`.

    S is the oblique basis (orders._oblique_basis), in canonical order,
    with each kept column scaled by the square root of its eigenvalue,
    taken at the cutoff where PSD slack puts it below, and B's null columns
    by that of B's largest (1 when B is zero), so that S does not depend on
    the units of A and B.  S E_k S^T is read from S's leading k columns.
    Two checks certify S: the direct-sum check of every minus certificate
    (orders._direct_sum: S is invertible), and both reconstructions are
    within recon_tol of `scale`.  A check that fails raises PsdOrderError
    naming it.
    """
    m, lam = _oblique_basis(*canonical_order(values, vectors), cutoff)
    sigmas = np.sqrt(np.maximum(lam, cutoff))
    sigmas[s_rank:] = np.sqrt(values[1, -1]) if s_rank else 1.0
    s = m * sigmas
    sigma_min = _direct_sum("congruence", s, tol)
    recon = np.array([s[:, :r_rank] @ s[:, :r_rank].T, s[:, :s_rank] @ s[:, :s_rank].T])
    residual_a, residual_b = (over_scale(x, scale) for x in maxabs_stack(recon - pair).tolist())
    if max(residual_a, residual_b) > tol.recon_tol:
        raise _certificate_fails(
            "congruence", f"reconstruction check: residuals ({residual_a:.3e}, {residual_b:.3e}) out of budget")
    return SimCongResult(s=s, rank_a=r_rank, rank_b=s_rank, residual_a=residual_a, residual_b=residual_b,
                         sigma_min=sigma_min)
