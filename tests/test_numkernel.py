"""Symmetric eigensolver, rank decisions, and generalized inverses."""

import warnings

import numpy as np
import pytest

import oracles
from psdorder import (
    DEFAULT_TOL,
    NonConvergence,
    NotPositiveSemidefinite,
    PsdMatrix,
    SymMatrix,
    ToleranceConfig,
    inertia,
    lowner_leq,
    order_holds_many,
    sim_congruence,
)
from psdorder.errors import DimensionMismatch, PsdOrderError
from psdorder.numkernel import (
    _spectral_pinv,
    canonical_column,
    column_span,
    eigh_stack,
    fix_signs,
    maxabs,
    min_singular_value,
    outside_span,
    sym_stack,
)
from reference_verdicts import canonical_eig


def image(a, tol=DEFAULT_TOL):
    """Orthonormal columns spanning Im A: the eigenvectors whose eigenvalues
    clear A's own rank cutoff."""
    values, vectors = np.linalg.eigh(a)
    return vectors[:, np.abs(values) > tol.rank_cutoff(values)]


def pinv(a):
    """The Gram pseudoinverse's rule (numkernel._spectral_pinv) on eigh's spectrum of A."""
    return _spectral_pinv(*np.linalg.eigh(a))


def random_sym(rng, n, scale=1.0):
    g = rng.uniform(-scale, scale, size=(n, n))
    return (g + g.T) / 2


def test_sym_matrix_coercion():
    s = SymMatrix([[1.0, 2.0], [2.0, 3.0]])
    assert s.n == 2
    assert repr(s) == "SymMatrix(n=2)"
    # slight asymmetry is averaged away
    t = SymMatrix([[1.0, 2.0 + 1e-10], [2.0, 3.0]])
    assert t.a[0, 1] == t.a[1, 0]
    with pytest.raises(DimensionMismatch):
        SymMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        SymMatrix([[np.nan, 0.0], [0.0, 1.0]])


def test_sym_matrix_is_read_only():
    s = SymMatrix(np.eye(2))
    with pytest.raises(ValueError):
        s.a[0, 0] = 5.0


def test_psd_matrix_accepts_and_rejects():
    PsdMatrix(np.eye(3))
    PsdMatrix(np.zeros((2, 2)))
    with pytest.raises(NotPositiveSemidefinite) as exc:
        PsdMatrix([[1.0, 2.0], [2.0, 1.0]])
    assert exc.value.min_eig == pytest.approx(-1.0, abs=1e-12)


def test_psd_certification_and_the_loewner_test_apply_one_rule():
    # M = P diag(1, ..., 1, -c psd_tol) P^T 2^k, P a signed permutation: M is
    # diagonal, so every eigensolver returns its eigenvalues exactly, and
    # -c psd_tol sits on either side of the threshold psd_tol |M|
    rng = np.random.default_rng(29)
    mats = [np.zeros((0, 0))]
    for psd_tol in (DEFAULT_TOL.psd_tol, 1e-6):
        for c in (0.5, 2.0):
            for n in range(1, 7):
                p = np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], n)
                d = p @ np.diag([1.0] * (n - 1) + [-c * psd_tol]) @ p.T
                mats += [np.ldexp(d, k) for k in (-60, 0, 60)]
    outcomes = set()
    for tol in (DEFAULT_TOL, ToleranceConfig(psd_tol=1e-6)):
        for m in mats:
            verdict = lowner_leq(np.zeros_like(m), m, tol)
            outcomes.add(verdict.holds)
            if verdict.holds:
                PsdMatrix(m, tol)
                continue
            with pytest.raises(NotPositiveSemidefinite) as exc:
                PsdMatrix(m, tol)
            assert exc.value.min_eig == verdict.certificate["min_eig"]
            assert str(exc.value).endswith(f" is below -{verdict.certificate['threshold']:.6g}")
    assert outcomes == {True, False}


def test_a_psd_threshold_beyond_the_float_range_is_inf_and_silent():
    # psd_tol 10 times a largest entry of 1e308 passes the float maximum: the
    # threshold is inf, which every eigenvalue clears, and no numpy warning
    # is raised on the way, in the Loewner test or in PSD certification
    z, big, tol = np.zeros((2, 2)), np.diag([1e308, -1.0]), ToleranceConfig(psd_tol=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = lowner_leq(z, big, tol)
        holds = order_holds_many(z[None], big[None], "lowner", tol)
        PsdMatrix(big, tol)
    assert (verdict.holds, verdict.detail, verdict.certificate["threshold"]) == (True, "equal", np.inf)
    assert holds.tolist() == [True]


@pytest.mark.parametrize("solver, what, call", [
    ("eigh", "eigensolver", lambda: lowner_leq(np.eye(2), 2.0 * np.eye(2))),
    ("eigvalsh", "eigensolver", lambda: inertia(np.eye(2))),
    ("svd", "SVD", lambda: column_span(np.eye(2))),
    ("svd", "SVD", lambda: min_singular_value(np.eye(2))),
])
def test_a_lapack_failure_to_converge_is_non_convergence(monkeypatch, solver, what, call):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{solver} did not converge")

    monkeypatch.setattr(np.linalg, solver, fail)
    with pytest.raises(NonConvergence, match=f"^{what} failed: {solver} did not converge$"):
        call()


def test_eig_diagonal_is_signed_permutation():
    (values,), (vectors,) = eigh_stack(np.diag([3.0, 1.0, 2.0])[None])
    np.testing.assert_allclose(values, [1.0, 2.0, 3.0], atol=1e-14)
    # columns must be +/- standard basis vectors in the order 1, 2, 0
    np.testing.assert_allclose(np.abs(vectors), np.eye(3)[:, [1, 2, 0]], atol=1e-14)
    # in canonical order the first column is e_0 and the last e_1, signs fixed
    assert canonical_column(values, vectors, last=False).tolist() == [1.0, 0.0, 0.0]
    assert canonical_column(values, vectors, last=True).tolist() == [0.0, 1.0, 0.0]


def test_eig_2x2_closed_form():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    (values,), (vectors,) = eigh_stack(a[None])
    lam1, lam2 = oracles.eig2(2.0, 1.0, 2.0)
    np.testing.assert_allclose(values, [lam2, lam1], atol=1e-14)
    np.testing.assert_allclose(np.abs(vectors[:, 0]), [1, 1] / np.sqrt(2), atol=1e-14)
    np.testing.assert_allclose(np.abs(vectors[:, 1]), [1, 1] / np.sqrt(2), atol=1e-14)


def test_eig_zero_matrix_gives_identity_basis():
    (values,), (vectors,) = eigh_stack(np.zeros((1, 4, 4)))
    np.testing.assert_array_equal(values, np.zeros(4))
    np.testing.assert_array_equal(vectors, np.eye(4))
    # so the zero pair's S, that basis in canonical order, is the identity
    np.testing.assert_array_equal(sim_congruence(np.zeros((4, 4)), np.zeros((4, 4))).s, np.eye(4))


def test_eig_sign_convention_first_nonzero_positive():
    # fix_signs on eigh's columns as rows, and canonical_column's two columns
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = random_sym(rng, 5)
        values, vectors = np.linalg.eigh(a)
        ends = [canonical_column(values, vectors, last) for last in (False, True)]
        for col in [*fix_signs(vectors.T.copy()), *ends]:
            nz = col[np.abs(col) > 1e-12]
            assert nz.size > 0 and nz[0] > 0


def test_canonical_column_is_the_column_canonical_order_gives():
    # the first and last columns of the test reference's canonical
    # eigendecomposition, bit for bit, on spectra with and without ties (a
    # tie keeps LAPACK's order inside it) and of both signs
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    spectra = [np.zeros(5), np.ones(5), [2.0, 2.0, 1.0, -1.0, -1.0], [0.0, 0.0, 3.0, 0.0, -3.0]]
    stack = sym_stack([random_sym(rng, 5) for _ in range(20)] + [(q * np.array(d)) @ q.T for d in spectra]
                      + [np.diag(d) for d in spectra])
    values, vectors = np.linalg.eigh(stack)
    ordered = [canonical_eig(x)[1] for x in stack]
    for v, q_raw, q_ordered in zip(values, vectors, ordered):
        for last, column in ((True, -1), (False, 0)):
            assert canonical_column(v, q_raw, last).tobytes() == q_ordered[:, column].tobytes()


def test_eig_reconstruction_and_orthogonality():
    # the test reference's canonical eigendecomposition: descending,
    # orthonormal and reconstructing A
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 5, 9, 16):
        a = random_sym(rng, n, scale=3.0)
        values, q = canonical_eig(a)
        assert np.all(np.diff(values) <= 1e-12)
        np.testing.assert_allclose((q * values) @ q.T, a, atol=1e-12 * max(1.0, maxabs(a)))
        np.testing.assert_allclose(q.T @ q, np.eye(n), atol=1e-13)


def test_jacobi_backend_matches_lapack():
    # The Jacobi eigensolver lives in the oracle module as an independent
    # values-only cross-check of the LAPACK spectrum.
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = rng.integers(1, 7)
        a = random_sym(rng, n, scale=2.0)
        np.testing.assert_allclose(canonical_eig(a)[0], oracles.jacobi_eigvals(a), atol=1e-10)


def test_rank_examples():
    assert inertia(np.diag([1.0, 1e-20])).rank == 1
    assert inertia(np.eye(4)).rank == 4
    assert inertia(np.zeros((3, 3))).rank == 0
    x = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert inertia(x).rank == 1


def test_rank_matches_exact_oracle():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        a = rng.integers(-4, 5, size=(n, n))
        a = a + a.T
        assert inertia(a.astype(float)).rank == oracles.exact_rank(a)


def test_column_basis_rank():
    m = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    assert column_span(m)[0].shape == (2, 1)
    assert column_span(np.zeros((2, 5)))[0].shape == (2, 0)
    rng = np.random.default_rng(37)
    for _ in range(100):
        r, c = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        m = rng.integers(-3, 4, size=(r, c))
        assert column_span(m.astype(float))[0].shape[1] == oracles.exact_rank(m)


def _psd_check(a):
    """The PSD test of A as the Loewner order 0 <= A gives it."""
    a = np.asarray(a, dtype=float)
    return lowner_leq(np.zeros_like(a), a)


def test_is_psd_examples():
    chk = _psd_check(np.eye(2))
    assert chk.holds and chk.certificate["witness"] is None
    chk = _psd_check([[1.0, 2.0], [2.0, 1.0]])
    assert not chk.holds
    assert chk.certificate["min_eig"] == pytest.approx(-1.0, abs=1e-12)
    x = chk.certificate["witness"]
    np.testing.assert_allclose(np.abs(x), [1, 1] / np.sqrt(2), atol=1e-12)
    # the witness really does expose negativity
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert x @ a @ x < 0


def test_is_psd_oracle_agreement():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        a = rng.integers(-3, 4, size=(n, n))
        a = a + a.T
        chk = _psd_check(a)
        assert chk.holds == oracles.exact_psd(a)
        if not chk.holds:
            x = chk.certificate["witness"]
            assert float(x @ a @ x) < 0


def test_pinv_examples():
    np.testing.assert_allclose(pinv(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-15)
    np.testing.assert_allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-15)
    x = np.array([1.0, 2.0, 2.0])
    a = np.outer(x, x)
    np.testing.assert_allclose(pinv(a), a / (x @ x) ** 2, atol=1e-14)
    np.testing.assert_array_equal(pinv(np.zeros((3, 3))), np.zeros((3, 3)))


def test_pinv_penrose_identities():
    rng = np.random.default_rng(43)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        r = int(rng.integers(0, n + 1))
        g = rng.standard_normal((n, r)) if r else np.zeros((n, 0))
        a = g @ g.T
        ap = pinv(a)
        scale = max(1.0, maxabs(a))
        assert maxabs(a @ ap @ a - a) <= 1e-9 * scale
        assert maxabs(ap @ a @ ap - ap) <= 1e-9 * max(1.0, maxabs(ap))
        assert maxabs((a @ ap) - (a @ ap).T) <= 1e-10 * scale
        assert maxabs((ap @ a) - (ap @ a).T) <= 1e-10 * scale


def test_image_basis():
    u = image(np.diag([1.0, 0.0]))
    assert u.shape == (2, 1)
    np.testing.assert_allclose(np.abs(u[:, 0]), [1.0, 0.0], atol=1e-14)
    assert image(np.zeros((3, 3))).shape == (3, 0)
    rng = np.random.default_rng(59)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        a = random_sym(rng, n)
        u = image(a)
        assert u.shape == (n, inertia(a).rank)
        np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-12)


def test_image_in_span():
    def inside(m, basis):
        outside, scale = outside_span(m, basis)
        return outside <= DEFAULT_TOL.recon_tol * scale

    e1 = np.diag([1.0, 0.0, 0.0])
    full = np.eye(3)
    assert inside(e1, image(full))
    assert not inside(full, image(e1))
    assert inside(e1, image(e1))
    # the zero matrix has the zero image, which sits inside every span
    z = np.zeros((3, 3))
    assert inside(z, image(e1))
    assert inside(z, image(z))
    assert not inside(e1, image(z))
    # the part outside the span is measured against M
    assert inside(np.diag([1.0, 1e-9, 0.0]), image(e1))
    m = np.diag([1.0, 1e-6, 0.0])
    assert not inside(m, image(e1))
    assert [x.item() for x in outside_span(m, image(e1))] == [1e-6, 1.0]


def test_symmetrization_does_not_overflow():
    a = np.array([[1e308, 1.5e308], [1.5e308, -1.7e308]])
    assert SymMatrix(a).a.tobytes() == a.tobytes()
    assert sym_stack(np.array([a, a.T])).tobytes() == np.array([a, a]).tobytes()
    skew = np.array([[1.0, 1.7e308], [1.5e308, 1.0]])
    np.testing.assert_allclose(SymMatrix(skew).a, [[1.0, 1.6e308], [1.6e308, 1.0]], rtol=1e-15)


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(psd_tol=-1e-9)
    with pytest.raises(ValueError):
        ToleranceConfig(recon_tol=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(rank_rel_tol=-1.0)
    cfg = ToleranceConfig(rank_rel_tol=1e-6)
    assert cfg.rank_cutoff(np.array([10.0, -3.0, 0.0, 1.0])) == 1e-6 * 10.0
    # default relative cutoff scales with dimension and machine epsilon
    d = DEFAULT_TOL.rank_cutoff(np.array([1.0, 0.0, -2.0]))
    assert d == 4 * 3 * np.finfo(float).eps * 2.0
    assert DEFAULT_TOL.rank_cutoff(np.zeros(3)) == 0.0


@pytest.mark.filterwarnings("error")
def test_a_rank_cutoff_that_overflows_raises_without_a_warning():
    tol = ToleranceConfig(rank_rel_tol=10.0)
    for spectra in (np.array([1e308, 0.0]), np.array([[1.0, 0.0], [0.0, -1e308]])):
        with pytest.raises(PsdOrderError, match="rank cutoff overflows"):
            tol.rank_cutoff(spectra)
    # just inside the range, the cutoff is the plain product, with no warning
    assert tol.rank_cutoff(np.array([[1e307, 0.0], [-1e307, 1.0]])).tolist() == [1e308, 1e308]
    assert tol.rank_cutoff(np.array([0.0, -1e307])) == 1e308


def test_rank_cutoff_reads_the_spectra_it_judges():
    rng = np.random.default_rng(29)
    eps = np.finfo(float).eps
    for tol in (DEFAULT_TOL, ToleranceConfig(rank_rel_tol=1e-6)):
        for k in (1, 7):
            for n in (0, 3, 10):
                spectra = rng.standard_normal((k, n)) * 10.0 ** rng.integers(-5, 6, size=(k, 1))
                cutoffs = tol.rank_cutoff(spectra)
                assert cutoffs.shape == (k,)
                for row, cutoff in zip(spectra, cutoffs):
                    one = tol.rank_cutoff(row)
                    assert type(one) is np.float64 and one.tobytes() == cutoff.tobytes()
        assert tol.rank_cutoff(np.zeros(0)) == 0.0
    # singular values pass the larger dimension: sigma = 16 eps is under
    # the cutoff 4 * 6 * eps of a 6 x 2 or 2 x 6 matrix, not under 4 * 2 * eps
    for sigma, rank in ((16 * eps, 1), (32 * eps, 2)):
        tall = np.zeros((6, 2))
        tall[0, 0], tall[1, 1] = 1.0, sigma
        for m in (tall, tall.T):
            s = np.linalg.svd(m, compute_uv=False)
            assert DEFAULT_TOL.rank_cutoff(s, 6) == 4 * 6 * eps
            assert DEFAULT_TOL.rank_cutoff(s) == 4 * 2 * eps
            assert column_span(m)[0].shape == (len(m), rank)
    # a spectrum beyond the float range has no finite cutoff, one row or many
    for spectra in (np.array([np.inf, 1.0]), np.array([[1.0, 2.0], [-np.inf, 0.0]])):
        with pytest.raises(PsdOrderError, match="overflows"):
            DEFAULT_TOL.rank_cutoff(spectra)


def test_rank_cutoff_flips_decision():
    a = np.diag([1.0, 1e-6])
    assert inertia(a).rank == 2
    assert inertia(a, ToleranceConfig(rank_rel_tol=1e-5)).rank == 1
