"""Exact arithmetic oracles used only by the test suite.

Everything here runs on Fractions (or closed forms), so oracle answers carry
no floating-point error.  The production code must agree with these on
integer fixtures; the oracles must never import the numerical routines they
are checking.  The float routines are jacobi_eigvals, a plain cyclic
Jacobi iteration (an eigensolver independent of LAPACK for cross-checking
spectra on small random matrices), and inner_inverse, a closed form that
takes the pseudoinverse from its caller.
"""

from fractions import Fraction

import numpy as np


def _frac_matrix(m):
    return [[Fraction(x) for x in row] for row in np.asarray(m).tolist()]


def exact_rank(m) -> int:
    """Rank over the rationals by row echelon elimination."""
    a = _frac_matrix(m)
    if not a:
        return 0
    rows, cols = len(a), len(a[0])
    rank = 0
    pivot_row = 0
    for col in range(cols):
        pivot = next((i for i in range(pivot_row, rows) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[pivot_row], a[pivot] = a[pivot], a[pivot_row]
        lead = a[pivot_row][col]
        for i in range(pivot_row + 1, rows):
            if a[i][col] != 0:
                factor = a[i][col] / lead
                a[i] = [x - factor * y for x, y in zip(a[i], a[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == rows:
            break
    return rank


def exact_inertia(m):
    """Inertia (n_pos, n_neg, n_zero) of a symmetric rational matrix.

    Symmetric congruence elimination: diagonal pivots absorb their row and
    column; an all-zero diagonal with a nonzero off-diagonal entry a_ij is
    revived by the congruence T = I + e_i e_j^T, which puts 2 a_ij on the
    diagonal.  Congruence preserves inertia, so the final diagonal signs are
    the answer.
    """
    a = _frac_matrix(m)
    n = len(a)
    assert all(len(row) == n for row in a), "inertia oracle needs a square matrix"
    assert all(a[i][j] == a[j][i] for i in range(n) for j in range(n)), (
        "inertia oracle needs exact symmetry"
    )
    active = list(range(n))
    pos = neg = zero = 0
    while active:
        pivot = next((i for i in active if a[i][i] != 0), None)
        if pivot is None:
            pair = next(
                ((i, j) for i in active for j in active if j > i and a[i][j] != 0),
                None,
            )
            if pair is None:
                zero += len(active)
                break
            i, j = pair
            # Congruence by I + e_i e_j^T: row_i += row_j, then col_i += col_j.
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            pivot = i
        d = a[pivot][pivot]
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(pivot)
        for i in active:
            f = a[i][pivot] / d
            if f == 0:
                continue
            for k in range(n):
                a[i][k] -= f * a[pivot][k]
            for k in range(n):
                a[k][i] -= f * a[k][pivot]
    return pos, neg, zero


def exact_psd(m) -> bool:
    """Whether a symmetric rational matrix is PSD (no negative inertia)."""
    _, neg, _ = exact_inertia(m)
    return neg == 0


def exact_lowner_leq(a, b) -> bool:
    """A <= B in the PSD ordering, decided exactly."""
    diff = np.asarray(b, dtype=object) - np.asarray(a, dtype=object)
    return exact_psd(diff)


def exact_minus_leq(a, b) -> bool:
    """Rank subtractivity rank(B - A) = rank(B) - rank(A), decided exactly."""
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    return exact_rank(b - a) == exact_rank(b) - exact_rank(a)


def eig2(a, b, c):
    """Eigenvalues of [[a, b], [b, c]], descending, in closed form."""
    mean = 0.5 * (a + c)
    disc = np.hypot(0.5 * (a - c), b)
    return mean + disc, mean - disc


def jacobi_eigvals(a, tol=1e-12, sweeps=30):
    """Eigenvalues of a small symmetric float matrix, descending, by cyclic
    Jacobi rotations until the off-diagonal Frobenius norm is at most tol
    times that of the input (floored at 1)."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    target = tol * max(1.0, float(np.linalg.norm(a, "fro")))
    for _ in range(sweeps):
        if np.linalg.norm(a - np.diag(np.diag(a)), "fro") <= target:
            return np.sort(np.diag(a))[::-1]
        for p in range(n - 1):
            for r in range(p + 1, n):
                if a[p, r] == 0.0:
                    continue
                theta = (a[r, r] - a[p, p]) / (2.0 * a[p, r])
                t = (1.0 if theta >= 0 else -1.0) / (abs(theta) + np.hypot(theta, 1.0))
                c = 1.0 / np.hypot(t, 1.0)
                rot = np.eye(n)
                rot[p, p] = rot[r, r] = c
                rot[p, r], rot[r, p] = t * c, -t * c
                a = rot.T @ a @ rot
                a[p, r] = a[r, p] = 0.0
    raise AssertionError(f"Jacobi did not converge in {sweeps} sweeps")


def inner_inverse(a, a_plus, v):
    """The member G = A+ + V - A+ A V A A+ of the inner-inverse family
    {G : A G A = A}, given the pseudoinverse A+ of A and any square V."""
    return a_plus + v - a_plus @ a @ v @ a @ a_plus


def integer_psd(rng, n, rank=None, lo=-3, hi=3):
    """Random integer PSD matrix G G^T with G n-by-rank."""
    if rank is None:
        rank = int(rng.integers(0, n + 1))
    if rank == 0:
        return np.zeros((n, n), dtype=int)
    g = rng.integers(lo, hi + 1, size=(n, rank))
    return g @ g.T


def integer_invertible(rng, n, lo=-3, hi=3):
    """Random integer matrix with nonzero determinant (rejection sampled)."""
    while True:
        s = rng.integers(lo, hi + 1, size=(n, n))
        if exact_rank(s) == n:
            return s


def exact_minus_pair(rng, n):
    """A pair (A, B) of integer symmetric matrices with A below B in the
    rank-subtractivity order by construction: A = S E_r S^T, B = S E_s S^T."""
    s = integer_invertible(rng, n, lo=-2, hi=2)
    r = int(rng.integers(0, n + 1))
    k = int(rng.integers(r, n + 1))
    e_r = np.diag([1] * r + [0] * (n - r))
    e_s = np.diag([1] * k + [0] * (n - k))
    return s @ e_r @ s.T, s @ e_s @ s.T


def cutoff_gap(c1, c2, a, b) -> float:
    """How far apart two rank cutoffs of the pair (A, B) lie, in eps times
    the spectral radius of A, B and B - A taken from eigvalsh, as
    test_spectrum._near_cutoff measures a gap; inf when the cutoffs differ
    on a radius of zero, where both solvers return exact zeros."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    radius = np.abs(np.linalg.eigvalsh(np.array([a, b, b - a]))).max()
    gap = abs(c1 - c2)
    return 0.0 if gap == 0.0 else gap / (np.finfo(float).eps * radius) if radius else np.inf
