"""Model efficiency comparison, estimator optimality, and quadratic forms."""

import dataclasses
import re

import numpy as np
import pytest

import oracles
from psdorder import (
    DEFAULT_TOL,
    DimensionMismatch,
    LinearModel,
    NotPositiveSemidefinite,
    PsdOrderError,
    blue_check,
    efficiency_matrix,
    lowner_leq,
    mc_quadratic_forms,
    minus_leq,
    model_compare,
    qform_rank_criterion,
)
from psdorder.numkernel import _spectral_pinv, maxabs
from psdorder.rng import normal_matrix


def ortho(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


def gauss_markov(rng, n, p):
    """Full-rank design, white noise, and the least-squares hat matrix."""
    while True:
        x = rng.standard_normal((n, p))
        if np.linalg.matrix_rank(x) == p:
            break
    h = x @ np.linalg.inv(x.T @ x) @ x.T
    return LinearModel(x=x, d=np.eye(n), sigma2=1.0), h


def test_linear_model_validation():
    m = LinearModel(x=np.ones((3, 1)), d=np.eye(3))
    assert m.n == 3 and m.p == 1
    # noise-free observations are a model too
    assert LinearModel(x=np.ones((3, 1)), d=np.eye(3), sigma2=0.0).sigma2 == 0.0
    with pytest.raises(ValueError):
        LinearModel(x=np.ones((3, 1)), d=np.eye(3), sigma2=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma2"):
            LinearModel(x=np.ones((3, 1)), d=np.eye(3), sigma2=bad)
    with pytest.raises(DimensionMismatch):
        LinearModel(x=np.ones((2, 1)), d=np.eye(3))
    with pytest.raises(NotPositiveSemidefinite):
        LinearModel(x=np.ones((2, 1)), d=np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_efficiency_matrix_examples():
    m = LinearModel(x=np.eye(2), d=np.eye(2))
    np.testing.assert_allclose(efficiency_matrix(m).a, 0.5 * np.eye(2), atol=1e-12)
    m = LinearModel(x=np.zeros((2, 2)), d=np.eye(2))
    np.testing.assert_allclose(efficiency_matrix(m).a, np.zeros((2, 2)), atol=1e-15)


def test_efficiency_matrix_inner_inverse_invariance():
    # Im X always sits inside Im(D + XX^T), so the sandwich is the same for
    # every inner inverse, not just the pseudoinverse
    rng = np.random.default_rng(3)
    for _ in range(40):
        n, p = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        x = rng.standard_normal((n, p))
        r = int(rng.integers(0, n + 1))
        g = rng.standard_normal((n, r)) if r else np.zeros((n, 0))
        d = g @ g.T
        model = LinearModel(x=x, d=d)
        gram = d + x @ x.T
        base = efficiency_matrix(model).a
        plus = _spectral_pinv(*np.linalg.eigh(gram))
        for seed in (1, 2, 3):
            gi = oracles.inner_inverse(gram, plus, normal_matrix(seed, n, n))
            assert maxabs(gram @ gi @ gram - gram) <= 1e-8 * max(1.0, maxabs(gram))
            alt = x.T @ gi @ x
            assert maxabs(alt - base) <= 1e-7 * max(1.0, maxabs(base))


def test_reduced_and_general_order_models_identically():
    # different matrices, same induced ordering
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        x = rng.standard_normal((n, 2))
        base = rng.standard_normal((n, n))
        d1 = base @ base.T + 0.5 * np.eye(n)
        d2 = d1 + np.outer(*(2 * [rng.standard_normal(n)]))
        m1, m2 = LinearModel(x=x, d=d1), LinearModel(x=x, d=d2)
        general = model_compare(m1, m2)
        # the reduced summary X^T D^- X (Im X sits inside Im D, D invertible)
        red1, red2 = x.T @ np.linalg.inv(d1) @ x, x.T @ np.linalg.inv(d2) @ x
        assert general.l1_geq_l2 == lowner_leq(red2, red1).holds
        assert general.l2_geq_l1 == lowner_leq(red1, red2).holds


def test_model_compare_examples():
    m1 = LinearModel(x=np.eye(2), d=np.eye(2))
    m2 = LinearModel(x=np.eye(2), d=2.0 * np.eye(2))
    v = model_compare(m1, m2)
    assert v.l1_geq_l2 and not v.l2_geq_l1
    np.testing.assert_allclose(v.m1.a, 0.5 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(v.m2.a, np.eye(2) / 3.0, atol=1e-12)
    same = model_compare(m1, m1)
    assert same.l1_geq_l2 and same.l2_geq_l1


def test_model_compare_tracks_noise_order():
    # with a shared square invertible design the comparison is equivalent
    # to the PSD comparison of the noise matrices, in both directions
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = int(rng.integers(2, 6))
        while True:
            x = rng.standard_normal((n, n))
            if np.linalg.cond(x) < 1e4:
                break
        g = rng.standard_normal((n, n))
        d1 = g @ g.T + 0.1 * np.eye(n)
        if trial % 2 == 0:
            d2 = d1 + np.outer(*(2 * [rng.standard_normal(n)]))
        else:
            h = rng.standard_normal((n, n))
            d2 = h @ h.T + 0.1 * np.eye(n)
        v = model_compare(LinearModel(x=x, d=d1), LinearModel(x=x, d=d2))
        assert v.l1_geq_l2 == lowner_leq(d1, d2).holds
        assert v.l2_geq_l1 == lowner_leq(d2, d1).holds


def test_model_compare_thin_design_one_direction():
    # a thin design only sees noise through its column space, so more noise
    # still cannot make the model better, but the converse need not hold
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        x = rng.standard_normal((n, int(rng.integers(1, n))))
        g = rng.standard_normal((n, n))
        d1 = g @ g.T + 0.1 * np.eye(n)
        d2 = d1 + np.outer(*(2 * [rng.standard_normal(n)]))
        assert lowner_leq(d1, d2).holds
        v = model_compare(LinearModel(x=x, d=d1), LinearModel(x=x, d=d2))
        assert v.l1_geq_l2


def test_model_compare_dimension_rules():
    # observation counts may differ, parameter dimension may not
    m1 = LinearModel(x=np.ones((4, 2)), d=np.eye(4))
    m2 = LinearModel(x=np.ones((6, 2)), d=np.eye(6))
    model_compare(m1, m2)
    m3 = LinearModel(x=np.ones((4, 3)), d=np.eye(4))
    with pytest.raises(DimensionMismatch):
        model_compare(m1, m3)


@pytest.mark.filterwarnings("error")
def test_model_compare_raises_the_first_models_fault_first():
    # models of one row count go through one pass, and a fault in it is
    # raised again model by model, so the first model's fault wins even
    # where it comes at a later step than the second model's
    tiny = LinearModel(x=np.full((2, 1), 1e-160), d=np.zeros((2, 2)))  # a subnormal Gram matrix: 1 / lambda overflows
    huge = LinearModel(x=np.full((2, 1), 1e160), d=np.eye(2))  # the Gram matrix overflows
    with pytest.raises(PsdOrderError, match=r"^X\^T \(D \+ X X\^T\)\^\+ X overflows"):
        model_compare(tiny, huge)
    with pytest.raises(PsdOrderError, match=r"^D \+ X X\^T overflows"):
        model_compare(huge, tiny)
    # a finite Gram matrix whose eigenvalue 2.5e308 is not: its rank cutoff overflows
    with pytest.raises(PsdOrderError, match="^the rank cutoff overflows"):
        efficiency_matrix(LinearModel(np.zeros((2, 1)), np.full((2, 2), 1.25e308)))


def test_blue_accepts_least_squares_under_white_noise():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        p = int(rng.integers(1, n - 1))
        model, h = gauss_markov(rng, n, p)
        v = blue_check(h, model)
        assert v.cond_i and v.cond_ii
        assert v.is_blue


def _gls_and_ols(seed):
    """A design with p = n - 1 = 7 and a noise covariance D, with the
    generalized least squares L = X (X^T D^-1 X)^-1 X^T D^-1 and the
    ordinary least squares of that design; both are unbiased."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((8, 7))
    g = rng.standard_normal((8, 8))
    d = g @ g.T + 0.5 * np.eye(8)
    d_inv = np.linalg.inv(d)
    gls = x @ np.linalg.solve(x.T @ d_inv @ x, x.T @ d_inv)
    return LinearModel(x, d), gls, x @ np.linalg.solve(x.T @ x, x.T)


def test_blue_accepts_gls_whose_computed_covariances_fail_the_rank_route():
    # computed, D - L D L^T carries a roundoff eigenvalue above the rank
    # route's cutoff, so minus_leq(L D L^T, D) counts ranks (7, 8, 2) and
    # fails; Rao's equation reads no rank and finds the estimator BLUE, as
    # it is
    model, l, _ = _gls_and_ols(1)
    d = model.d.a
    v = minus_leq(l @ d @ l.T, d)
    assert not v.holds
    assert [v.certificate[k] for k in ("rank_a", "rank_b", "rank_diff")] == [7, 8, 2]
    b = blue_check(l, model)
    assert b.cond_i and b.cond_ii and b.is_blue


@pytest.mark.parametrize("delta, factor, blue", [
    (1e-8, 1.0, True), (1e-8, 0.1, False), (1e-7, 1.0, False), (1e-7, 10.0, True),
])
def test_blue_cond_ii_budget_is_recon_tol(delta, factor, blue):
    # L = GLS + delta (OLS - GLS) is unbiased for every delta, and D L^T
    # leaves Im X by about 0.53 delta of its largest entry: condition (ii)
    # flips between delta = 1e-8 and 1e-7 at the default recon_tol of 1e-8,
    # and moves with it
    model, gls, ols = _gls_and_ols(1)
    tol = dataclasses.replace(DEFAULT_TOL, recon_tol=factor * DEFAULT_TOL.recon_tol)
    v = blue_check(gls + delta * (ols - gls), model, tol)
    assert v.cond_i
    assert (v.cond_ii, v.is_blue) == (blue, blue)


def test_blue_rejects_zero_estimator():
    rng = np.random.default_rng(13)
    model, _ = gauss_markov(rng, 4, 2)
    v = blue_check(np.zeros((4, 4)), model)
    assert not v.cond_i and not v.is_blue


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("forms, what", [
    ([1e308 * np.eye(2), 1e308 * np.eye(2)], "the sum of the forms"),
    ([1.7e308 * np.eye(2)], "a quadratic form's value"),
    ([1e307 * np.eye(2), np.eye(2)], "the spread of a form"),
], ids=["sum", "value", "spread"])
def test_mc_quadratic_forms_raises_when_a_statistic_leaves_the_float_range(forms, what):
    # every form is finite, but their sum is not, or W^T A W is finite but
    # x^T A x for a draw x, or the variance of those values, is not
    with pytest.raises(PsdOrderError, match=f"^{re.escape(what)} overflows"):
        mc_quadratic_forms(forms, np.eye(2), np.zeros(2), 64, seed=0)


@pytest.mark.filterwarnings("error")
def test_blue_check_fails_conditions_beyond_the_float_range():
    # L X = 1e400 J is not finite, so condition (i) fails with an infinite
    # residual, with no numpy warning and no NaN; D L^T = 1e-100 J is, and
    # lies in Im X, so condition (ii) holds
    model = LinearModel(1e200 * np.ones((2, 1)), 1e-300 * np.ones((2, 2)))
    v = blue_check(1e200 * np.eye(2), model)
    assert (v.cond_i, v.cond_ii) == (False, True)
    assert v.certificate["residual_lx"] == np.inf


@pytest.mark.filterwarnings("error")
def test_blue_check_reports_how_far_d_lt_leaves_im_x():
    # condition (ii) compares the part of D L^T outside Im X, relative to
    # D L^T, with recon_tol plus the angle of the basis of Im X: L = I under
    # D = I leaves Im X by the whole of (Im X)-perp; beyond the float range
    # the residual is infinite, with no NaN and no numpy warning
    x = np.array([[1.0], [1.0], [0.0]])
    v = blue_check(np.eye(3), LinearModel(x, np.eye(3)))
    assert (v.cond_i, v.cond_ii) == (True, False)
    assert v.certificate["residual_dl"] == 1.0
    assert v.certificate["budget_dl"] == pytest.approx(DEFAULT_TOL.recon_tol)
    v = blue_check(1e200 * np.eye(3), LinearModel(x, 1e200 * np.eye(3)))
    assert not v.cond_ii
    assert (v.certificate["residual_dl"], np.isfinite(v.certificate["budget_dl"])) == (np.inf, True)


def test_blue_decides_the_identity_estimator():
    # L = I is unbiased; it is BLUE exactly when Im D lies in Im X
    rng = np.random.default_rng(17)
    model, _ = gauss_markov(rng, 4, 2)
    v = blue_check(np.eye(4), model)
    assert (v.cond_i, v.cond_ii, v.is_blue) == (True, False, False)
    x = model.x
    v = blue_check(np.eye(4), LinearModel(x, x @ x.T))
    assert (v.cond_i, v.cond_ii, v.is_blue) == (True, True, True)


def test_blue_detects_image_escape():
    # L fixes X but lets Im(D L^T) escape Im X: only condition (ii) should trip
    rng = np.random.default_rng(19)
    q = ortho(rng, 4)
    x = q[:, :2]
    h = x @ x.T
    l = h + np.outer(q[:, 3], q[:, 2])
    model = LinearModel(x=x, d=np.eye(4))
    v = blue_check(l, model)
    assert v.cond_i
    assert not v.cond_ii
    assert not v.is_blue


def test_blue_cond_ii_rejects_a_small_component_outside_im_x():
    rng = np.random.default_rng(21)
    q = ortho(rng, 4)
    x = q[:, :2]
    h = x @ x.T
    model = LinearModel(x=x, d=np.eye(4))
    assert blue_check(h, model).cond_ii
    # 1e-6 of D L^T, relative to its largest entry, points out of Im X,
    # while L X = X still holds
    v = blue_check(h + 1e-6 * np.outer(q[:, 0], q[:, 3]), model)
    assert v.cond_i and not v.cond_ii


def test_blue_cond_ii_with_a_graded_design():
    # X = Q2 diag(1, 1e-9) R spans Im Q2, and L = Q2 Q2^T is its BLUE; the
    # computed basis of Im X is off by about eps * 1e9, which condition (ii)
    # must allow for, while a leak of 1e-6 of D L^T out of Im X still fails
    rng = np.random.default_rng(29)
    rejected = 0
    for _ in range(200):
        q = ortho(rng, 3)
        t = rng.uniform(0.0, 2.0 * np.pi)
        r = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        model = LinearModel(x=q[:, :2] @ np.diag([1.0, 1e-9]) @ r, d=np.eye(3))
        h = q[:, :2] @ q[:, :2].T
        rejected += not blue_check(h, model).cond_ii
        leak = 1e-6 * maxabs(h) * np.outer(q[:, 0], q[:, 2]) / maxabs(np.outer(q[:, 0], q[:, 2]))
        assert not blue_check(h + leak, model).cond_ii
    assert rejected == 0


def test_blue_budget_grows_with_the_size_of_l():
    # L adds a map of (Im X)-perp into itself with entries near 1e8, so
    # L X = X holds exactly; its roundoff grows with |L|, and condition (i)
    # must allow for that
    rng = np.random.default_rng(23)
    residuals = []
    for _ in range(6):
        q = ortho(rng, 4)
        x = q[:, :2] @ rng.standard_normal((2, 2))
        perp = q[:, 2:] @ q[:, 2:].T
        l = q[:, :2] @ q[:, :2].T + 1e8 * q[:, 2:] @ rng.standard_normal((2, 4)) @ perp
        v = blue_check(l, LinearModel(x=x, d=np.eye(4)))
        assert v.cond_i
        residuals.append(v.certificate["residual_lx"])
    # relative to X alone, the roundoff is beyond recon_tol
    assert max(residuals) > 1e-8

def test_blue_detects_covariance_misfit():
    # least squares under heteroscedastic noise: L X = X holds, but D L^T
    # leaves Im X, so L D Z = 0 fails
    p = np.array([1.0, 1.0]) / np.sqrt(2.0)
    x = p[:, None]
    h = np.outer(p, p)
    model = LinearModel(x=x, d=np.diag([1.0, 9.0]))
    v = blue_check(h, model)
    assert v.cond_i
    assert not v.cond_ii and not v.is_blue


def test_qform_cochran_split():
    a1 = np.diag([1.0, 0.0, 0.0])
    a2 = np.diag([0.0, 1.0, 1.0])
    rep = qform_rank_criterion([a1, a2], np.eye(3), np.zeros(3))
    assert rep.overall
    assert rep.s == 3
    assert [f.rank for f in rep.forms] == [1, 2]
    assert all(f.sim is not None for f in rep.forms)


def test_qform_general_projector_family():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(3, 7))
        q = ortho(rng, n)
        cut = sorted(rng.choice(np.arange(1, n), size=2, replace=False))
        blocks = [q[:, :cut[0]], q[:, cut[0]:cut[1]], q[:, cut[1]:]]
        forms = [b @ b.T for b in blocks]
        mu = rng.standard_normal(n)
        rep = qform_rank_criterion(forms, np.eye(n), mu)
        assert rep.overall, rep
        assert sum(f.rank for f in rep.forms) == rep.s


def test_qform_overlap_fails():
    rep = qform_rank_criterion([0.5 * np.eye(2), 0.5 * np.eye(2)],
                               np.eye(2), np.zeros(2))
    assert not rep.overall
    assert all(not f.verdict.holds for f in rep.forms)
    assert all("not below" in f.reason for f in rep.forms)


def test_qform_single_form_passes():
    rep = qform_rank_criterion([np.eye(3)], np.eye(3), np.zeros(3))
    assert rep.overall and rep.s == 3
    with pytest.raises(ValueError):
        qform_rank_criterion([], np.eye(3), np.zeros(3))


def test_mc_cochran_family_is_clean():
    a1 = np.diag([1.0, 0.0, 0.0])
    a2 = np.diag([0.0, 1.0, 1.0])
    rep = mc_quadratic_forms([a1, a2], np.eye(3), np.zeros(3),
                             n_samples=40_000, seed=99)
    assert rep.dfs == [1, 2] and rep.total_df == 3
    assert all(k < 0.02 for k in rep.ks)
    assert rep.total_ks < 0.02
    assert rep.max_abs_corr < 0.03
    assert rep.n_samples == 40_000


def test_mc_is_deterministic_and_seed_sensitive():
    forms = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    r1 = mc_quadratic_forms(forms, np.eye(2), np.zeros(2), n_samples=5_000, seed=5)
    r2 = mc_quadratic_forms(forms, np.eye(2), np.zeros(2), n_samples=5_000, seed=5)
    assert r1.ks == r2.ks and r1.max_abs_corr == r2.max_abs_corr
    r3 = mc_quadratic_forms(forms, np.eye(2), np.zeros(2), n_samples=5_000, seed=6)
    assert r1.ks != r3.ks


def test_mc_flags_overlapping_forms():
    # identical forms are perfectly dependent: the correlation must say so
    forms = [0.5 * np.eye(3), 0.5 * np.eye(3)]
    rep = mc_quadratic_forms(forms, np.eye(3), np.zeros(3), n_samples=10_000, seed=7)
    assert rep.max_abs_corr > 0.5


def test_mc_flags_noncentral_mismatch():
    # a shifted mean pushes Q far from the central reference distribution
    rep = mc_quadratic_forms([np.eye(2)], np.eye(2), np.array([3.0, 0.0]),
                             n_samples=10_000, seed=9)
    assert rep.ks[0] > 0.1


def test_mc_zero_form_has_no_df():
    forms = [np.zeros((2, 2)), np.eye(2)]
    rep = mc_quadratic_forms(forms, np.eye(2), np.zeros(2), n_samples=4_000, seed=11)
    assert rep.dfs[0] == 0 and rep.ks[0] is None
    assert rep.ks[1] is not None
    with pytest.raises(ValueError):
        mc_quadratic_forms(forms, np.eye(2), np.zeros(2), n_samples=0, seed=1)


def test_a_graded_family_reports_one_rank_count():
    # diag(0, 1e-16, 0) lies under the cutoff of its triple (form, total,
    # total - form), which the total's radius sets, so the criterion counts
    # it rank 0, and the Monte Carlo check draws it with no degrees of freedom
    forms = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1e-16, 0.0])]
    rep = qform_rank_criterion(forms, np.eye(3), np.zeros(3))
    assert rep.overall and rep.s == 1 and [e.rank for e in rep.forms] == [1, 0]
    mc = mc_quadratic_forms(forms, np.eye(3), np.zeros(3), n_samples=2000, seed=1)
    assert (mc.dfs, mc.total_df) == ([1, 0], 1) and mc.ks[1] is None
    assert mc.ks[0] < 0.1 and mc.total_ks == mc.ks[0]


def test_mc_takes_a_single_draw():
    forms = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    rep = mc_quadratic_forms(forms, np.eye(2), np.zeros(2), n_samples=1, seed=3)
    assert rep.n_samples == 1
    assert (rep.dfs, rep.total_df) == ([1, 1], 2)
    # one draw has no spread, so it carries no correlation
    assert rep.max_abs_corr == 0.0


def test_an_empty_family_of_forms_raises():
    for check in (lambda *args: mc_quadratic_forms(*args, n_samples=10, seed=0), qform_rank_criterion):
        with pytest.raises(ValueError, match="at least one quadratic form"):
            check([], np.eye(2), np.zeros(2))
        # the covariance and the mean are checked first
        with pytest.raises(NotPositiveSemidefinite):
            check([], -np.eye(2), np.zeros(2))
        with pytest.raises(DimensionMismatch):
            check([], np.eye(2), np.zeros(3))


def test_mc_dimension_checks():
    with pytest.raises(DimensionMismatch):
        mc_quadratic_forms([np.eye(2)], np.eye(2), np.zeros(3),
                           n_samples=100, seed=1)
    with pytest.raises(DimensionMismatch):
        qform_rank_criterion([np.eye(3)], np.eye(2), np.zeros(2))
