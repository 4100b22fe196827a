"""Numerical kernel for real symmetric matrices.

Conventions shared by everything built on top of this module:

- raw input is symmetrized by averaging with its transpose,
- eigenvalues are reported in descending order,
- the first nonzero component of each eigenvector is made positive, so a
  factorization of the same input is reproducible run to run,
- eigendecompositions run on stacks: eig_stack decomposes a (k, n, n)
  stack in one LAPACK call, each matrix's factors bit for bit those of a
  call on it alone, and sym_eig is its k = 1 case,
- each SymMatrix is decomposed at most once: sym_eig keeps the
  EigDecomposition on the matrix object and hands it out again,
- rank decisions compare eigenvalue magnitudes against one relative cutoff
  taken from ToleranceConfig; EigDecomposition owns that policy (spectral
  radius, cutoff, nonzero mask), and every other module asks it rather
  than recomputing the cutoff.  Column bases and invertibility checks
  apply the same convention to singular values through _sv_keep,
- every other tolerance is relative to its inputs, with no absolute
  floor: rel_residual measures a residual against the largest entry of
  the matrices compared, and a PSD threshold is psd_tol times the
  largest entry of the matrices the test is about (A for is_psd, A and B
  for the Loewner order on B - A), so scaling every input by c > 0
  changes no decision; exact zero is its own case at any scale.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonConvergence, NotPositiveSemidefinite
from .tolerances import DEFAULT_TOL, ToleranceConfig

# A unit eigenvector component below this is treated as zero when fixing signs.
_SIGN_EPS = 1e-12


def _coerce_square(data, ndim: int = 2) -> np.ndarray:
    """Validate and copy raw input into a float square array, or with
    ndim=3 into a stack of them."""
    if isinstance(data, SymMatrix):
        return np.array(data.a, dtype=float)
    a = np.array(data, dtype=float)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def sym_stack(data) -> np.ndarray:
    """A (k, n, n) stack of matrices, each checked and symmetrized as
    SymMatrix does with one."""
    a = _coerce_square(data, ndim=3)
    return 0.5 * (a + a.swapaxes(-1, -2))


def maxabs(m) -> float:
    """Largest entry magnitude; zero for an empty array."""
    m = np.asarray(m, dtype=float)
    return float(np.abs(m).max()) if m.size else 0.0


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
    den = np.max([maxabs_stack(r) for r in refs], axis=0)
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

    Construction symmetrizes by averaging, so callers may pass data that is
    symmetric only up to roundoff.  How far the input was from symmetric is
    kept in `asymmetry` for callers that want to warn on sloppy data.  The
    first sym_eig of the object is kept and returned by later calls.
    """

    def __init__(self, data):
        a = _coerce_square(data)
        self.asymmetry = maxabs(a - a.T)
        a = 0.5 * (a + a.T)
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
        if not check.ok:
            raise NotPositiveSemidefinite(
                f"minimum eigenvalue {check.min_eig:.6g} is below "
                f"-{check.threshold:.6g}",
                min_eig=check.min_eig,
            )


@dataclass(frozen=True)
class EigDecomposition:
    """Spectral factorization A = Q diag(values) Q^T.

    `values` are descending; `vectors` holds the matching orthonormal
    eigenvectors as columns, sign-fixed as described in the module docstring.
    The rank-cutoff policy lives here: an eigenvalue is numerically nonzero
    when its magnitude exceeds tol.rank_cutoff(n, radius).
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def radius(self) -> float:
        """Spectral radius max|lambda|; zero for an empty matrix."""
        return float(np.abs(self.values).max()) if self.values.size else 0.0

    def cutoff(self, tol: ToleranceConfig = DEFAULT_TOL) -> float:
        """Eigenvalues of magnitude at most this count as zero."""
        return tol.rank_cutoff(len(self.values), self.radius)

    def nonzero(self, tol: ToleranceConfig = DEFAULT_TOL, cutoff: float | None = None) -> np.ndarray:
        """Mask of the eigenvalues that clear `cutoff` (default: this
        spectrum's own cutoff)."""
        if cutoff is None:
            cutoff = self.cutoff(tol)
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

    def psd(self, threshold: float) -> "PsdCheck":
        """Whether the smallest eigenvalue is at least -threshold, with its
        eigenvector as the witness on failure."""
        min_eig = float(self.values[-1]) if self.values.size else 0.0
        ok = min_eig >= -threshold
        witness = None if ok else self.vectors[:, -1]
        return PsdCheck(ok=ok, min_eig=min_eig, threshold=threshold, witness=witness)


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


def _canonical_order(values: np.ndarray, vectors: np.ndarray):
    """Sort each spectrum of a stack descending and apply the deterministic
    sign convention.  The eigenvectors are permuted as rows, so each
    matrix of columns comes back column-major, the layout that indexing
    the columns of one matrix gives."""
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


def eig_stack(x) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompositions of a (k, n, n) stack of symmetric matrices in
    one call of the platform (LAPACK) symmetric eigensolver: descending
    values (k, n) and sign-fixed eigenvector columns (k, n, n).  Each
    matrix's factors are bit for bit those of a call on it alone."""
    try:
        values, vectors = np.linalg.eigh(x)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigensolver failed: {exc}") from exc
    return _canonical_order(values, vectors)


def sym_eigs(*mats) -> list[EigDecomposition]:
    """sym_eig of each argument.  The arguments without a decomposition
    yet (every raw array, and each SymMatrix decomposed for the first time)
    are decomposed together in one eig_stack call."""
    syms = [m if isinstance(m, SymMatrix) else SymMatrix(m) for m in mats]
    todo = [s for i, s in enumerate(syms) if s._eig is None and s not in syms[:i]]
    if todo:
        values, vectors = eig_stack(np.array([s.a for s in todo]))
        for sym, v, q in zip(todo, values, vectors):
            sym._eig = EigDecomposition(values=v, vectors=q)
    return [s._eig for s in syms]


def sym_eig(a) -> EigDecomposition:
    """Eigendecomposition of a symmetric matrix, ordered and sign-fixed:
    the k = 1 case of eig_stack.  A SymMatrix argument is decomposed once;
    later calls on the same object return the same EigDecomposition."""
    sym = a if isinstance(a, SymMatrix) else SymMatrix(a)
    if sym._eig is None:
        values, vectors = eig_stack(sym.a[None])
        sym._eig = EigDecomposition(values=values[0], vectors=vectors[0])
    return sym._eig


def numerical_rank(a, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Rank of a symmetric matrix by eigenvalue magnitude.

    Eigenvalues with |lambda| <= cutoff count as zero, where the cutoff is
    rank_rel_tol * max|lambda| (default rank_rel_tol: n * machine epsilon).
    """
    return sym_eig(a).rank(tol)


def _sv_keep(s: np.ndarray, shape, tol: ToleranceConfig) -> np.ndarray:
    """Mask of the singular values (descending, of a matrix of `shape`)
    that clear the rank cutoff, with n taken as the larger dimension."""
    return s > tol.rank_cutoff(max(shape), float(s.max(initial=0.0)))


def column_basis(m, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal columns spanning the column space of an arbitrary
    matrix: the left singular vectors whose singular values clear the rank
    cutoff, with n taken as the larger dimension."""
    m = np.asarray(m, dtype=float)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, _sv_keep(s, m.shape, tol)]


def min_singular_value(m, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[float, bool]:
    """Smallest singular value of a square matrix and whether it clears the
    rank cutoff, i.e. whether the matrix is invertible to working
    precision.  An empty matrix counts as invertible with sigma_min 1."""
    m = np.asarray(m, dtype=float)
    s = np.linalg.svd(m, compute_uv=False)
    return (float(s[-1]) if s.size else 1.0), bool(_sv_keep(s, m.shape, tol).all())


def is_psd(a, tol: ToleranceConfig = DEFAULT_TOL) -> PsdCheck:
    """Tolerance-based PSD test with an eigenvalue (and, on failure, an
    eigenvector) witness.  The minimum eigenvalue must be at least
    -psd_tol times the largest entry of A."""
    sym = a if isinstance(a, SymMatrix) else SymMatrix(a)
    return sym_eig(sym).psd(tol.psd_tol * maxabs(sym.a))


def pinv(a, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric matrix via its spectrum.

    Eigenvalues under the rank cutoff are dropped rather than inverted, so
    the result is the pseudoinverse of the nearest matrix of the detected
    rank.
    """
    eig = sym_eig(a)
    keep = eig.nonzero(tol)
    inv = np.where(keep, 1.0 / np.where(keep, eig.values, 1.0), 0.0)
    q = eig.vectors
    return (q * inv) @ q.T


def image_in_span(m, basis, tol: ToleranceConfig = DEFAULT_TOL, slack=0.0) -> np.ndarray:
    """Whether Im M lies in the span of the orthonormal columns `basis`:
    the part of M outside the span is within recon_tol of the largest entry
    of M, plus `slack`, the error the basis itself carries into M.
    Measuring M itself rather than a basis of Im M weighs each direction
    by how much of M it carries, so an eigenvalue far below the others
    cannot fail the test through the roundoff in its eigenvector.  Stacks
    of M, bases and slacks give one answer per matrix."""
    m = np.asarray(m, dtype=float)
    outside = m - basis @ (basis.swapaxes(-1, -2) @ m)
    return maxabs_stack(outside) <= tol.recon_tol * maxabs_stack(m) + slack
