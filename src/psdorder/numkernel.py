"""Numerical kernel for real symmetric matrices.

Conventions shared by everything built on top of this module:

- raw input is checked once and symmetrized as 0.5 A + 0.5 A^T, which
  cannot overflow: sym_array for one matrix, sym_stack for a stack; a
  SymMatrix is sym_array's result made read-only,
- eigendecompositions run on stacks: eigh_stack decomposes a (k, n, n)
  stack in one LAPACK call, each matrix's factors bit for bit those of a
  call on it alone, eigenvalues ascending; callers that read eigenvalues
  alone take them so,
- canonical_order, run only where the order of eigenvectors shows in a
  result, sorts eigenvalues descending and makes the first nonzero
  component of each eigenvector positive, so a factorization is
  reproducible run to run; sym_eig is eigh_stack and canonical_order on
  one matrix.  A containment test needs no order: image_in_span takes
  the eigenvectors as eigh returns them, those under the cutoff zeroed,
- sym_eig keeps the EigDecomposition of a SymMatrix on the object and
  hands it out again (PsdMatrix and linmodels read it); the order
  verdicts and sim_congruence work on arrays,
- rank decisions compare eigenvalue magnitudes against one relative cutoff,
  which ToleranceConfig.rank_cutoff alone takes from the spectra it
  judges; EigDecomposition.nonzero applies it to one spectrum, and column
  bases and invertibility checks apply it to singular values,
- every other tolerance is relative to its inputs, with no absolute
  floor: rel_residual measures a residual against the largest entry of
  the matrices compared, and a PSD threshold is psd_tol times the
  largest entry of the matrices the test is about (A for is_psd, A and B
  for the Loewner order on B - A), so scaling every input by c > 0
  changes no decision; exact zero is its own case at any scale.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DimensionMismatch, NonConvergence, NotPositiveSemidefinite
from .tolerances import DEFAULT_TOL, ToleranceConfig

# A unit eigenvector component below this is treated as zero when fixing signs.
_SIGN_EPS = 1e-12
_EPS = np.finfo(float).eps


def _coerce_square(data, ndim: int = 2) -> np.ndarray:
    """Validate and copy raw input into a float square array, or with
    ndim=3 into a stack of them."""
    a = np.array(data, dtype=float)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _symmetrize(a) -> np.ndarray:
    """0.5 A + 0.5 A^T over the last two axes: exactly symmetric, finite for
    finite A, and the bits of 0.5 (A + A^T) unless an entry is subnormal
    or that sum overflows."""
    half = 0.5 * a
    return half + half.swapaxes(-1, -2)


def sym_array(data) -> np.ndarray:
    """The symmetric array of a SymMatrix, or raw input checked (square,
    finite), copied to float and symmetrized."""
    if isinstance(data, SymMatrix):
        return data.a
    return _symmetrize(_coerce_square(data))


def sym_stack(data) -> np.ndarray:
    """A (k, n, n) stack of matrices, each checked and symmetrized as
    sym_array does with one."""
    return _symmetrize(_coerce_square(data, ndim=3))


def maxabs(m) -> float:
    """Largest entry magnitude of a matrix; zero for an empty one."""
    return float(maxabs_stack(m))


def maxabs_stack(m) -> np.ndarray:
    """maxabs of each matrix of a stack (over the last two axes)."""
    return np.abs(m).max(axis=(-2, -1), initial=0.0)


def rel_residual(diff, *refs) -> float:
    """maxabs(diff) over the largest entry of `refs`: 0 when diff is exactly
    zero, inf (failing every budget) when it is not but every ref is."""
    num = maxabs(diff)
    if num == 0.0:
        return 0.0
    den = max(map(maxabs, refs))
    return num / den if den > 0.0 else float("inf")


def rel_residual_stack(diff, *refs) -> np.ndarray:
    """rel_residual of each matrix of a stack (over the last two axes)."""
    num = maxabs_stack(diff)
    den = reduce(np.maximum, map(maxabs_stack, refs))
    out = np.where(num == 0.0, 0.0, np.inf)
    return np.divide(num, den, out=out, where=(num != 0.0) & (den > 0.0))


def identity_budget(tol: ToleranceConfig, op, *refs) -> float:
    """Budget for rel_residual of an identity that multiplies by `op` (G in
    A G A = A, L in L X = X): recon_tol, widened once the dimensionless size
    |op| |refs| (|op| alone without refs) passes 1, since the roundoff of
    the products grows with it."""
    return tol.recon_tol * max(1.0, maxabs(op) * max(map(maxabs, refs), default=1.0))


class SymMatrix:
    """A real symmetric matrix, stored immutably.

    Construction symmetrizes by averaging (sym_array), so callers may pass
    data that is symmetric only up to roundoff.  The first sym_eig of the
    object is kept and returned by later calls.
    """

    def __init__(self, data):
        a = sym_array(data)
        a.setflags(write=False)
        self._a = a
        self._eig = None

    @property
    def a(self) -> np.ndarray:
        """The underlying read-only ndarray."""
        return self._a

    @property
    def n(self) -> int:
        return self._a.shape[0]

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"


class PsdMatrix(SymMatrix):
    """A symmetric matrix verified positive semidefinite at construction.

    The check is tolerance-based: the minimum eigenvalue must be at least
    -psd_tol times the largest entry of the matrix (see is_psd).
    """

    def __init__(self, data, tol: ToleranceConfig = DEFAULT_TOL):
        super().__init__(data)
        check = is_psd(self, tol)
        require_psd(check.min_eig, check.threshold)


def require_psd(min_eig: float, threshold: float) -> None:
    """Raise NotPositiveSemidefinite when the smallest eigenvalue is below
    -threshold."""
    if not min_eig >= -threshold:
        raise NotPositiveSemidefinite(
            f"minimum eigenvalue {min_eig:.6g} is below -{threshold:.6g}",
            min_eig=min_eig,
        )


@dataclass(frozen=True)
class EigDecomposition:
    """Spectral factorization A = Q diag(values) Q^T.

    `values` are descending; `vectors` holds the matching orthonormal
    eigenvectors as columns, sign-fixed as described in the module docstring.
    An eigenvalue is numerically nonzero when its magnitude exceeds the
    rank cutoff, by default tol.rank_cutoff(values), this spectrum's own.
    """

    values: np.ndarray
    vectors: np.ndarray

    def nonzero(self, tol: ToleranceConfig = DEFAULT_TOL, cutoff: float | None = None) -> np.ndarray:
        """Mask of the eigenvalues that clear `cutoff` (default: this
        spectrum's own cutoff)."""
        if cutoff is None:
            cutoff = tol.rank_cutoff(self.values)
        return np.abs(self.values) > cutoff

    def rank(self, tol: ToleranceConfig = DEFAULT_TOL, cutoff: float | None = None) -> int:
        return int(np.count_nonzero(self.nonzero(tol, cutoff)))

    def image(self, tol: ToleranceConfig = DEFAULT_TOL, cutoff: float | None = None) -> np.ndarray:
        """Orthonormal columns spanning the image: the eigenvectors whose
        eigenvalues clear `cutoff`."""
        return self.vectors[:, self.nonzero(tol, cutoff)]

    def negated(self) -> "EigDecomposition":
        """The decomposition of -A: values negated and reversed, so they stay
        descending, with the matching eigenvector columns."""
        values = -self.values[::-1]
        values.setflags(write=False)
        return EigDecomposition(values=values, vectors=self.vectors[:, ::-1])

    def pinv(self, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
        """Moore-Penrose pseudoinverse of the matrix, with the eigenvalues
        under this spectrum's rank cutoff dropped rather than inverted."""
        keep = self.nonzero(tol)
        inv = np.where(keep, 1.0 / np.where(keep, self.values, 1.0), 0.0)
        q = self.vectors
        return (q * inv) @ q.T


@dataclass(frozen=True)
class PsdCheck:
    """Outcome of a PSD test.

    On failure `witness` is a unit vector with witness^T A witness < 0 (the
    eigenvector of the most negative eigenvalue); on success it is None.
    """

    ok: bool
    min_eig: float
    threshold: float
    witness: np.ndarray | None = None


def eigh_stack(x) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK's symmetric eigensolver on a (k, n, n) stack in one call:
    ascending values (k, n) and eigenvector columns (k, n, n) as it returns
    them.  Each matrix's factors are bit for bit those of a call on it
    alone."""
    try:
        return np.linalg.eigh(x)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigensolver failed: {exc}") from exc


def canonical_order(values: np.ndarray, vectors: np.ndarray):
    """Sort each spectrum of an eigh_stack result descending and apply the
    deterministic sign convention.  The eigenvectors are permuted as rows,
    so each matrix of columns comes back column-major, the layout that
    indexing the columns of one matrix gives."""
    order = np.argsort(-values, axis=-1, kind="stable")
    stack = np.arange(len(values))[:, None]
    values = values[stack, order]
    rows = vectors.swapaxes(-1, -2)[stack, order]
    if rows.size:
        # a unit vector always has a component above _SIGN_EPS
        first = (np.abs(rows) > _SIGN_EPS).argmax(axis=-1)
        lead = rows[stack, np.arange(rows.shape[1]), first]
        np.negative(rows, out=rows, where=(lead < 0)[..., None])
    values.setflags(write=False)
    rows.setflags(write=False)
    return values, np.swapaxes(rows, -1, -2)


def sym_eig(a) -> EigDecomposition:
    """Eigendecomposition of a symmetric matrix, ordered and sign-fixed by
    canonical_order.  A SymMatrix argument is decomposed once; later calls
    on the same object return the same EigDecomposition."""
    sym = a if isinstance(a, SymMatrix) else None
    if sym is not None and sym._eig is not None:
        return sym._eig
    values, vectors = canonical_order(*eigh_stack(sym_array(a)[None]))
    eig = EigDecomposition(values=values[0], vectors=vectors[0])
    if sym is not None:
        sym._eig = eig
    return eig


def numerical_rank(a, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Rank of a symmetric matrix by eigenvalue magnitude.

    Eigenvalues with |lambda| <= cutoff count as zero, where the cutoff is
    rank_rel_tol * max|lambda| (default rank_rel_tol: 4 n machine epsilon).
    """
    return sym_eig(a).rank(tol)


def column_span(m, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """Orthonormal columns spanning the column space of an arbitrary matrix
    M, the left singular vectors whose singular values clear the rank
    cutoff (n taken as the larger dimension), and the sine of the angle by
    which the roundoff of the SVD can turn them: its backward error, the
    larger dimension times eps times the largest singular value, over the
    smallest singular value kept (Wedin, BIT 12, 1972), 0 when none is
    kept.  The rank cutoff's margin over roundoff decides which columns
    are kept, not how far they turn."""
    m = np.asarray(m, dtype=float)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    keep = s > tol.rank_cutoff(s, max(m.shape))
    if not keep.any():
        return u[:, keep], 0.0
    return u[:, keep], max(m.shape) * _EPS * s[0] / s[keep][-1]


def min_singular_value(m, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[float, bool]:
    """Smallest singular value of a square matrix and whether it clears the
    rank cutoff, i.e. whether the matrix is invertible to working
    precision.  An empty matrix counts as invertible with sigma_min 1."""
    m = np.asarray(m, dtype=float)
    s = np.linalg.svd(m, compute_uv=False)
    return (float(s[-1]) if s.size else 1.0), bool((s > tol.rank_cutoff(s, max(m.shape))).all())


def is_psd(a, tol: ToleranceConfig = DEFAULT_TOL) -> PsdCheck:
    """Tolerance-based PSD test with an eigenvalue (and, on failure, an
    eigenvector) witness.  The minimum eigenvalue must be at least
    -psd_tol times the largest entry of A."""
    eig = sym_eig(a)
    min_eig = float(eig.values[-1]) if eig.values.size else 0.0
    threshold = tol.psd_tol * maxabs(sym_array(a))
    ok = min_eig >= -threshold
    return PsdCheck(ok=ok, min_eig=min_eig, threshold=threshold, witness=None if ok else eig.vectors[:, -1])


def pinv(a, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric matrix via its spectrum.

    Eigenvalues under the rank cutoff are dropped rather than inverted, so
    the result is the pseudoinverse of the nearest matrix of the detected
    rank.
    """
    return sym_eig(a).pinv(tol)


def image_in_span(m, basis, tol: ToleranceConfig = DEFAULT_TOL, slack=0.0) -> np.ndarray:
    """Whether Im M lies in the span of `basis`, whose columns are
    orthonormal or zero (eigenvectors with the dropped ones zeroed, in any
    order and sign): the part of M outside the span is within recon_tol of
    the largest entry of M, plus `slack`, the error the basis itself
    carries into M.
    Measuring M itself rather than a basis of Im M weighs each direction
    by how much of M it carries, so an eigenvalue far below the others
    cannot fail the test through the roundoff in its eigenvector.  Stacks
    of M, bases and slacks give one answer per matrix."""
    m = np.asarray(m, dtype=float)
    outside = m - basis @ (basis.swapaxes(-1, -2) @ m)
    return maxabs_stack(outside) <= tol.recon_tol * maxabs_stack(m) + slack
