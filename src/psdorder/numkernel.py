"""Numerical kernel for real symmetric matrices.

Conventions shared by everything built on top of this module:

- each array a public entry takes from its caller passes one gate,
  _coerce, once: copied to a C-ordered float array, it raises
  DimensionMismatch for a wrong number of axes or a square argument that
  is not square, and ValueError for a non-finite entry.  sym_array (one
  matrix) and sym_stack (a stack) pass a symmetric argument through it and
  symmetrize it as 0.5 A + 0.5 A^T, which cannot overflow; a SymMatrix is
  sym_array's result made read-only.  sym_pair passes the two matrices of
  a pair through it as one stack and returns the pair as one stack
  [A, B, B - A]: it scans B - A alone for finiteness, finite exactly when
  A and B are and their difference stays in range, and only when that
  scan fails does it scan A and B to tell ValueError from PsdOrderError;
  every fault raises what it raises alone,
- a matrix derived from checked input (B - A, D + X X^T, W^T A W, a
  map's images) is formed by `derived`, which raises PsdOrderError when
  it leaves the float range; a residual beyond it is inf to rel_residual
  and fails,
- eigendecompositions run on stacks: eigh_stack decomposes a (k, n, n)
  stack in one LAPACK call, each matrix's factors bit for bit those of a
  call on it alone, eigenvalues ascending.  A decision that reads no
  eigenvector takes eigvalsh_stack, the values alone, again bit for bit
  those of a call on each matrix alone: the decisions of a sweep, the
  minus rank route, the star family, inertia and a PsdMatrix's
  certificate.  LAPACK computes them by another route (dsterf for the
  tridiagonal stage), so they can differ from eigh's in the last bits: a
  decision on them differs from one on eigh's values only where an
  eigenvalue lies within a few eps times the spectral radius of its
  cutoff or threshold.  A check that reads eigenvectors (the Loewner
  witness, the image and ginv certificates, the reductions of
  sim_congruence and the linear models) decides on the values of its one
  eigh call; the three minus certificates (image, ginv, sim_congruence)
  read one basis off the eigenvectors of that same call, check it with
  one direct-sum test on its singular values, and the last two read G and
  S off it,
- eigenvectors a result shows are put in canonical order, so a
  factorization is reproducible run to run: a stable descending sort of
  their eigenvalues, and each column negated where its first entry above
  _SIGN_EPS in magnitude is negative (fix_signs).  Only what a result
  shows is ordered: S's n columns, and one eigenvector (a Loewner
  witness, a fitted congruence's first column) that canonical_column
  reads from eigh's columns; singular values, G and a pseudoinverse,
  which show no basis, read eigh's columns as they come,
- a spectrum is owned by the call that computed it and handed on as
  arrays, never kept on a matrix object: a PsdMatrix is certified from
  its eigenvalues and keeps none, and require_psd certifies a whole
  stack from the eigenvalues its caller computed with the rest of its
  work,
- rank decisions compare eigenvalue magnitudes against one relative cutoff,
  which ToleranceConfig.rank_cutoff alone takes from the spectra it
  judges; a caller masks its spectra with np.abs(values) > cutoff, and
  column bases and invertibility checks apply it to singular values,
- every other tolerance is relative to its inputs, with no absolute
  floor: rel_residual measures a residual against the largest entry of
  the matrices compared, and the PSD rule, written once (psd_rule), holds
  a smallest eigenvalue against -psd_tol times the largest entry of the
  matrices the test is about (the matrix itself for require_psd, A and B
  for the Loewner order on B - A, orders._lowner_stack), so scaling
  every input by c > 0 changes no decision; exact zero is its own case
  at any scale.  A pair is scanned once for its largest entries, one
  maxabs_stack of its stack [A, B, B - A], and every check of the pair
  reads them: its scale is the larger of A's and B's.
"""

from functools import reduce

import numpy as np

from .errors import DimensionMismatch, NonConvergence, NotPositiveSemidefinite, PsdOrderError
from .tolerances import DEFAULT_TOL, ToleranceConfig

# A unit eigenvector component below this is treated as zero when fixing signs.
_SIGN_EPS = 1e-12
_EPS = np.finfo(float).eps
# What _coerce expects, by number of axes.
_SHAPES = {1: "a vector", 2: "a {}matrix", 3: "a stack of {}matrices"}


def _coerce(data, ndim: int = 2, square: bool = True, finite: bool = True) -> np.ndarray:
    """The gate for raw input: a C-ordered float copy of `data`, _checked."""
    return _checked(np.array(data, dtype=float, order="C"), ndim, square, finite)


def _checked(a: np.ndarray, ndim: int = 2, square: bool = True, finite: bool = True) -> np.ndarray:
    """`a`, a float copy of raw input, if it has `ndim` axes, the last two
    equal if `square` (else DimensionMismatch), and finite entries (else
    ValueError).  finite=False leaves the entries to the caller, which
    scans a result finite only where they are (sym_pair scans B - A)."""
    if a.ndim != ndim or (square and a.shape[-1] != a.shape[-2]):
        raise DimensionMismatch(f"expected {_SHAPES[ndim].format('square ' * square)}, got shape {a.shape}")
    if finite and not np.isfinite(a).all():
        raise ValueError("array entries must be finite")
    return a


def _symmetrize(a, out=None) -> np.ndarray:
    """0.5 A + 0.5 A^T over the last two axes: exactly symmetric, finite for
    finite A, and the bits of 0.5 (A + A^T) unless an entry is subnormal
    or that sum overflows; written into `out` when given."""
    half = 0.5 * a
    return np.add(half, half.swapaxes(-1, -2), out=out)


def sym_array(data) -> np.ndarray:
    """The symmetric array of a SymMatrix, or raw input checked (square,
    finite), copied to float and symmetrized."""
    if isinstance(data, SymMatrix):
        return data.a
    return _symmetrize(_coerce(data))


def sym_stack(data) -> np.ndarray:
    """A (k, n, n) stack of matrices, each checked and symmetrized as
    sym_array does with one."""
    return _symmetrize(_coerce(data, ndim=3))


def sym_pair(a, b) -> np.ndarray:
    """The stack [A, B, B - A] of a pair of square matrices of one shape,
    A and B checked and symmetrized as sym_array does each, B - A formed as
    derived forms it.

    Raw A and B of one shape pass _coerce as one stack, symmetrized in
    place: one copy and one finiteness scan, of B - A, since symmetrized A
    and B are finite wherever B - A is.  On any fault the pair goes through sym_array one
    matrix at a time, A first, then the size check and derived, so that
    each fault raises the error it raises alone.
    """
    if not isinstance(a, SymMatrix) and not isinstance(b, SymMatrix):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                # a second copy of A holds the place of B - A
                stack = _coerce((a, b, a), ndim=3, finite=False)
                _symmetrize(stack, out=stack)
                np.subtract(stack[1], stack[0], out=stack[2])
            if np.isfinite(stack[2]).all():
                return stack
        except (DimensionMismatch, ValueError, TypeError):
            pass
    a, b = sym_array(a), sym_array(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"size mismatch: {len(a)} vs {len(b)}")
    return np.array([a, b, derived("B - A", np.subtract, b, a)])


def derived(what: str, op, *args) -> np.ndarray:
    """op(*args), a matrix derived from finite arrays, formed with numpy's
    overflow and invalid-value warnings silenced: returned as it is when
    finite, else PsdOrderError naming `what`."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = op(*args)
    if not np.isfinite(d).all():
        raise PsdOrderError(f"{what} overflows the floating-point range")
    return d


def maxabs(m) -> float:
    """Largest entry magnitude of a matrix; zero for an empty one."""
    return float(maxabs_stack(m))


def maxabs_stack(m) -> np.ndarray:
    """maxabs of each matrix of a stack (over the last two axes)."""
    return np.abs(m).max(axis=(-2, -1), initial=0.0)


def rel_residual(diff, *refs):
    """maxabs(diff) over the largest entry of `refs`, as a float for one
    matrix and an array for each matrix of a stack: 0 where diff is
    exactly zero, inf (failing every budget) where it is not but every ref
    is, or where diff is not finite (a residual beyond the float range)."""
    num = maxabs_stack(diff)
    if not num.ndim:
        # the refs are scanned only for a nonzero residual
        return over_scale(float(num), max(map(maxabs, refs))) if num else 0.0
    den = reduce(np.maximum, map(maxabs_stack, refs))
    out = np.where(num == 0.0, 0.0, np.inf)
    return np.divide(num, den, out=out, where=(num != 0.0) & (num < np.inf) & (den > 0.0))


def over_scale(num: float, den: float) -> float:
    """rel_residual from the largest entries, `num` of the residual and
    `den` of the matrices compared, as floats."""
    if num == 0.0:
        return 0.0
    return num / den if den > 0.0 and num < np.inf else np.inf


def identity_budget(tol: ToleranceConfig, size: float) -> float:
    """Budget for rel_residual of an identity that multiplies by an op (G in A G A = A, L in
    L X = X): recon_tol, widened by the op's unit-free `size` (|G| |A, B|, or |L|) once it
    passes 1, since the roundoff of the products grows with it."""
    return tol.recon_tol * max(1.0, size)


class SymMatrix:
    """A real symmetric matrix, stored immutably.

    Construction symmetrizes by averaging (sym_array), so callers may pass
    data that is symmetric only up to roundoff.
    """

    def __init__(self, data):
        a = sym_array(data)
        a.setflags(write=False)
        self._a = a

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

    The PSD rule (psd_rule, through require_psd) judges its eigenvalues
    alone, from eigvalsh_stack, and none of them is kept.
    """

    def __init__(self, data, tol: ToleranceConfig = DEFAULT_TOL):
        super().__init__(data)
        require_psd(self._a[None], eigvalsh_stack(self._a[None]), tol)

    @classmethod
    def _certified(cls, a: np.ndarray) -> "PsdMatrix":
        """The PsdMatrix of `a`, unchecked: it trusts that `a` is finite and
        symmetrized (by sym_array, or derived and then _symmetrize) and
        that require_psd passed it, on this very array, from a spectrum
        its caller decomposed with other work.  The array is taken as it
        is and made read-only."""
        m = cls.__new__(cls)
        a.setflags(write=False)
        m._a = a
        return m


def psd_rule(min_eig, scale, tol: ToleranceConfig):
    """The PSD rule, written here alone: (min_eig >= -threshold, threshold), the threshold psd_tol
    times `scale`, the largest entry of the matrices judged; floats, or arrays that broadcast."""
    threshold = tol.psd_tol * scale
    return min_eig >= -threshold, threshold


def require_psd(stack, values, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Raise NotPositiveSemidefinite for the first matrix of a (k, n, n)
    stack that fails the PSD rule (psd_rule) against its largest entry;
    `values` are the stack's spectra, ascending, as eigh_stack or
    eigvalsh_stack returns them.  Returns those largest entries."""
    scales = maxabs_stack(stack)
    min_eigs = values[:, 0].tolist() if values.shape[-1] else [0.0] * len(values)
    for min_eig, scale in zip(min_eigs, scales.tolist()):
        holds, threshold = psd_rule(min_eig, scale, tol)
        if not holds:
            raise NotPositiveSemidefinite(f"minimum eigenvalue {min_eig:.6g} is below -{threshold:.6g}",
                                          min_eig=min_eig)
    return scales


def eigh_stack(x) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK's symmetric eigensolver on a (k, n, n) stack in one call:
    ascending values (k, n) and eigenvector columns (k, n, n) as it returns
    them.  Each matrix's factors are bit for bit those of a call on it
    alone."""
    return _solve(np.linalg.eigh, x)


def eigvalsh_stack(x) -> np.ndarray:
    """The values-only twin of eigh_stack: the ascending spectra (k, n) of a
    (k, n, n) stack in one LAPACK call, each bit for bit that of a call on
    its matrix alone."""
    return _solve(np.linalg.eigvalsh, x)


def _solve(solver, x):
    """solver(x), LAPACK's failure to converge raised as NonConvergence."""
    try:
        return solver(x)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigensolver failed: {exc}") from exc


def fix_signs(rows: np.ndarray) -> np.ndarray:
    """The canonical sign rule, in place: negate each row whose first entry above _SIGN_EPS is < 0."""
    if rows.size:
        flat = rows.reshape(-1, rows.shape[-1])
        first = (np.abs(flat) > _SIGN_EPS).argmax(axis=-1)
        lead = flat[np.arange(len(flat)), first].reshape(rows.shape[:-1])
        np.negative(rows, out=rows, where=(lead < 0)[..., None])
    return rows


def canonical_column(values: np.ndarray, vectors: np.ndarray, last: bool) -> np.ndarray:
    """The last (last=True) or the first eigenvector column in canonical
    order of one spectrum, values (n,) and vectors (n, n) as eigh returns
    them, with no other column sorted: a stable descending sort puts last
    eigh's column t - 1, t the number of eigenvalues equal to the smallest,
    and first column n - t', t' the number equal to the largest, and the
    column is negated where its first entry above _SIGN_EPS is negative."""
    spectrum = values.tolist()
    x = vectors[:, spectrum.count(spectrum[0]) - 1 if last else len(spectrum) - spectrum.count(spectrum[-1])]
    entries = x.tolist()
    lead = next((e for e in entries if abs(e) > _SIGN_EPS), entries[0])
    return -x if lead < 0 else x


def column_span(m, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """Orthonormal columns spanning the column space of an arbitrary matrix
    M, the left singular vectors whose singular values clear the rank
    cutoff (n taken as the larger dimension), and the sine of the angle by
    which the roundoff of the SVD can turn them: its backward error, the
    larger dimension times eps times the largest singular value, over the
    smallest singular value kept (Wedin, BIT 12, 1972), 0 when none is
    kept.  The rank cutoff's margin over roundoff decides which columns
    are kept, not how far they turn."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    keep = s > tol.rank_cutoff(s, max(m.shape))
    if not keep.any():
        return u[:, keep], 0.0
    return u[:, keep], max(m.shape) * _EPS * s[0] / s[keep][-1]


def min_singular_value(m, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[float, bool]:
    """Smallest singular value of a square matrix, LAPACK's last, and
    whether it clears the rank cutoff, i.e. whether the matrix is invertible
    to working precision; an empty one is, with sigma_min 1."""
    s = np.linalg.svd(m, compute_uv=False)
    return (float(s[-1]), bool(s[-1] > tol.rank_cutoff(s, max(m.shape)))) if s.size else (1.0, True)


def _spectral_pinv(values, vectors, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The Moore-Penrose pseudoinverse of Q diag(values) Q^T, Q = `vectors`,
    from that spectrum (or of each matrix of a stack from its spectra):
    eigenvalues under its own rank cutoff are dropped rather than inverted."""
    keep = np.abs(values) > tol.rank_cutoff(values)[..., None]
    inv = np.where(keep, 1.0 / np.where(keep, values, 1.0), 0.0)
    return (vectors * inv[..., None, :]) @ vectors.swapaxes(-1, -2)


def outside_span(m, basis):
    """The largest entry of the part of M outside the span of `basis`, whose
    columns are orthonormal, and the largest entry of M, the two sides of
    a test that Im M lies in that span (blue_check's).  Measuring M itself
    rather than a basis of Im M weighs each direction by how much of M it
    carries, so an eigenvalue far below the others cannot fail the test
    through the roundoff in its eigenvector.  Stacks of M and bases give
    one pair per matrix."""
    outside = m - basis @ (basis.swapaxes(-1, -2) @ m)
    return maxabs_stack(outside), maxabs_stack(m)
