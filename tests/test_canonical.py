"""Congruence canonical forms and the shared reduction of minus-ordered pairs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from psdorder import (
    DEFAULT_TOL,
    DimensionMismatch,
    NotMinusComparable,
    NotPositiveSemidefinite,
    PsdOrderError,
    ToleranceConfig,
    inertia,
    minus_leq,
    sim_congruence,
)
from psdorder.numkernel import maxabs, rel_residual
from reference_verdicts import ek
from test_hierarchy import _orthogonal, delta_family

TOL12 = ToleranceConfig(rank_rel_tol=1e-12)


def well_conditioned(rng, n, limit=1e4):
    while True:
        s = rng.uniform(-1.0, 1.0, size=(n, n))
        if np.linalg.cond(s) < limit:
            return s


def test_inertia_examples():
    i = inertia(np.diag([2.0, -3.0, 0.0]))
    assert (i.n_pos, i.n_neg, i.n_zero) == (1, 1, 1)
    assert i.rank == 2 and i.n == 3
    i = inertia(np.eye(4))
    assert (i.n_pos, i.n_neg, i.n_zero) == (4, 0, 0)
    i = inertia(np.zeros((2, 2)))
    assert (i.n_pos, i.n_neg, i.n_zero) == (0, 0, 2)


def test_inertia_oracle_agreement():
    rng = np.random.default_rng(3)
    for _ in range(250):
        n = int(rng.integers(1, 7))
        a = rng.integers(-4, 5, size=(n, n))
        a = a + a.T
        got = inertia(a.astype(float))
        want = oracles.exact_inertia(a)
        assert (got.n_pos, got.n_neg, got.n_zero) == want


def test_congruence_canonical_hand_case():
    # the congruence canonical form of A in the cone is sim_congruence(A, A)
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    res = sim_congruence(a, a)
    assert (res.rank_a, res.rank_b) == (1, 1)
    assert np.linalg.matrix_rank(res.s) == 2
    np.testing.assert_allclose(res.s @ ek(2, 1) @ res.s.T, a, atol=1e-12)
    i = inertia(a)
    assert (i.n_pos, i.n_neg, i.n_zero) == (1, 0, 1)
    # off the cone only the inertia is defined
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    i = inertia(swap)
    assert (i.n_pos, i.n_neg, i.n_zero) == (1, 1, 0)
    with pytest.raises(NotPositiveSemidefinite):
        sim_congruence(swap, swap)


def test_congruence_canonical_reconstruction():
    # on the cone, A below A gives A = S E_r S^T with one invertible S
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        for r in range(n + 1):
            for _ in range(4):
                want = (r, 0, n - r)
                while True:  # exact rank r, by the rational oracle
                    g = rng.integers(-3, 4, size=(n, r))
                    if oracles.exact_inertia(g @ g.T) == want:
                        break
                a = (g @ g.T).astype(float)
                res = sim_congruence(a, a)
                assert (res.rank_a, res.rank_b) == (r, r)
                assert np.linalg.matrix_rank(res.s) == n
                assert rel_residual(res.s @ ek(n, r) @ res.s.T - a, a) <= DEFAULT_TOL.recon_tol
                got = inertia(a)
                assert (got.n_pos, got.n_neg, got.n_zero) == want


def test_sim_congruence_constructed_pairs():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 8))
        r = int(rng.integers(0, n + 1))
        s_rank = int(rng.integers(r, n + 1))
        s0 = well_conditioned(rng, n)
        a = s0 @ ek(n, r) @ s0.T
        b = s0 @ ek(n, s_rank) @ s0.T
        res = sim_congruence(a, b, tol=TOL12)
        assert (res.rank_a, res.rank_b) == (r, s_rank)
        assert res.residual_a <= 1e-8 and res.residual_b <= 1e-8
        assert res.sigma_min > 0
        # the returned transform really does reduce both at once
        er, es = ek(n, r), ek(n, s_rank)
        assert maxabs(res.s @ er @ res.s.T - a) <= 1e-8 * max(1.0, maxabs(a))
        assert maxabs(res.s @ es @ res.s.T - b) <= 1e-8 * max(1.0, maxabs(b))


def test_sim_congruence_integer_pairs():
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        ai, bi = oracles.exact_minus_pair(rng, n)
        res = sim_congruence(ai.astype(float), bi.astype(float))
        assert res.rank_a == oracles.exact_rank(ai)
        assert res.rank_b == oracles.exact_rank(bi)
        assert max(res.residual_a, res.residual_b) <= 1e-8


def test_sim_congruence_equal_pair_and_zero():
    b = np.array([[2.0, 1.0], [1.0, 1.0]])
    res = sim_congruence(b, b)
    assert res.rank_a == res.rank_b == 2
    res = sim_congruence(np.zeros((3, 3)), np.diag([4.0, 1.0, 0.0]))
    assert res.rank_a == 0 and res.rank_b == 2
    res = sim_congruence(np.zeros((2, 2)), np.zeros((2, 2)))
    assert res.rank_a == res.rank_b == 0


def test_sim_congruence_on_canonical_units():
    res = sim_congruence(ek(4, 1), ek(4, 3))
    assert (res.rank_a, res.rank_b) == (1, 3)
    assert max(res.residual_a, res.residual_b) <= 1e-12


def test_sim_congruence_rejects_scaled_support():
    # Loewner-comparable but not rank-subtractive: rank(B - A) is 1, not 0
    with pytest.raises(NotMinusComparable, match=r"rank equation fails: rank\(B - A\) = 1, rank\(B\) - rank\(A\) = 0"):
        sim_congruence(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]))
    with pytest.raises(NotMinusComparable, match="rank equation fails"):
        sim_congruence(np.diag([1.0, 0.0]), np.diag([2.0, 1.0]))


def test_sim_congruence_rejects_image_spill():
    a = np.diag([0.0, 0.0, 1.0])
    b = np.diag([1.0, 0.0, 0.0])
    with pytest.raises(NotMinusComparable, match=r"rank\(B - A\) = 2, rank\(B\) - rank\(A\) = 0"):
        sim_congruence(a, b)


def test_sim_congruence_takes_the_rank_equations_ranks():
    # A = diag(1, 1e-10) is not below I: rank(I - A) = 1
    assert not minus_leq(np.diag([1.0, 1e-10]), np.eye(2)).holds
    with pytest.raises(NotMinusComparable, match="rank equation fails"):
        sim_congruence(np.diag([1.0, 1e-10]), np.eye(2))
    # A = diag(1e-15, 0) is under the pair's cutoff, so it is below
    # B = diag(0, 1) with rank 0; judged against the pair's scale, the
    # reconstruction S E_0 S^T = 0 misses A by 1e-15
    a, b = np.diag([1e-15, 0.0]), np.diag([0.0, 1.0])
    res = sim_congruence(a, b)
    assert (res.rank_a, res.rank_b) == (0, 1)
    assert (res.residual_a, res.residual_b) == (1e-15, 0.0)
    ginv = minus_leq(a, b, method="ginv")
    assert ginv.holds and ginv.certificate["residuals"]["inner"] == 1e-15


def _reduces_then_raises(a, b, ranks, loose, tight, message, psd_tol=1e-9):
    """On a pair whose rank equation holds with `ranks`, sim_congruence
    reduces (a, b) at recon_tol `loose` and raises PsdOrderError with
    `message`, naming a check of its certificate, at `tight`, 10 times
    smaller."""
    verdict = minus_leq(a, b, tol=ToleranceConfig(psd_tol=psd_tol))
    assert verdict.holds and (verdict.certificate["rank_a"], verdict.certificate["rank_b"]) == ranks
    res = sim_congruence(a, b, ToleranceConfig(psd_tol=psd_tol, recon_tol=loose))
    assert (res.rank_a, res.rank_b) == ranks
    with pytest.raises(PsdOrderError, match=message) as info:
        sim_congruence(a, b, ToleranceConfig(psd_tol=psd_tol, recon_tol=tight))
    assert type(info.value) is PsdOrderError


# Each check of the reduction is pinned from both sides, on pairs whose
# rank equation holds: a pair it passes and fails under a tolerance 10
# times tighter, and a pair it fails and passes 10 times looser, or, for
# the direct-sum check, at the edge of the rank cutoff.

def test_sim_congruence_direct_sum_check_is_pinned_from_both_sides():
    # S's columns in Im B hold B's kept eigenvalues as squared singular
    # values, and its null columns the square root of B's largest, so on a
    # PSD pair whose rank equation holds sigma_min / sigma_max exceeds
    # sqrt(rank_rel_tol): below rank_rel_tol 1 the check fails only by
    # roundoff.  At 1 every rank is 0, S is B's orthonormal eigenbasis, and
    # its singular values 1 meet the cutoff; the ginv route's direct-sum
    # check of the unscaled basis fails alike
    a, b = np.diag([1.0, 0.0]), np.eye(2)
    tol = ToleranceConfig(rank_rel_tol=0.99)
    res = sim_congruence(a, b, tol)
    assert (res.rank_a, res.rank_b, res.sigma_min) == (1, 2, 1.0)
    assert minus_leq(a, b, method="ginv", tol=tol).certificate["sigma_min"] == 1.0
    for rel in (1.0, 2.0):
        tol = ToleranceConfig(rank_rel_tol=rel)
        assert minus_leq(a, b, tol=tol).certificate["rank_b"] == 0
        with pytest.raises(PsdOrderError, match="congruence certificate .* direct-sum check: sigma_min 1.000e"):
            sim_congruence(a, b, tol)
        with pytest.raises(PsdOrderError, match="ginv certificate .* direct-sum check: sigma_min 1.000e"):
            minus_leq(a, b, method="ginv", tol=tol)


def test_sim_congruence_residual_check_is_pinned_from_both_sides():
    # 0 below B = diag(1, -delta), PSD at psd_tol 1e-6: B - A's kept
    # negative eigenvalue is taken at the cutoff, so S E_2 S^T misses B by
    # delta, while S E_0 S^T = A = 0 is exact
    for delta, loose, tight in ((5e-9, 1e-8, 1e-9), (5e-8, 1e-7, 1e-8)):
        _reduces_then_raises(np.zeros((2, 2)), np.diag([1.0, -delta]), (0, 2), loose, tight,
                             rf"reconstruction check: residuals \(0.000e\+00, {delta:.3e}\)", psd_tol=1e-6)


def test_sim_congruence_rejects_non_psd():
    with pytest.raises(NotPositiveSemidefinite):
        sim_congruence(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2))
    with pytest.raises(NotPositiveSemidefinite):
        sim_congruence(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_sim_congruence_rejects_size_mismatch():
    # a shape error, as the order checks raise it, not a verdict on the pair
    with pytest.raises(DimensionMismatch, match="size mismatch: 2 vs 3"):
        sim_congruence(np.eye(2), np.eye(3))


def test_sim_congruence_matches_minus_verdict():
    # succeed exactly on the pairs minus_leq accepts, raise on the rest
    rng = np.random.default_rng(17)
    accepted = rejected = 0
    for trial in range(150):
        n = int(rng.integers(1, 6))
        if trial % 2 == 0:
            a, b = oracles.exact_minus_pair(rng, n)
        else:
            a = oracles.integer_psd(rng, n, int(rng.integers(0, n + 1)))
            b = oracles.integer_psd(rng, n, int(rng.integers(0, n + 1)))
        expect = oracles.exact_minus_leq(a, b)
        af, bf = a.astype(float), b.astype(float)
        assert minus_leq(af, bf).holds == expect
        if expect:
            res = sim_congruence(af, bf)
            assert max(res.residual_a, res.residual_b) <= 1e-8
            accepted += 1
        else:
            with pytest.raises(NotMinusComparable):
                sim_congruence(af, bf)
            rejected += 1
    assert accepted > 40 and rejected > 40


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data(), st.integers(2, 6), st.floats(0.0, 12.0), st.integers(0, 2**32 - 1))
def test_sim_congruence_reduces_every_pair_the_ginv_route_holds(data, n, decades, seed):
    # graded pairs A = S E_r S^T, B = S E_s S^T, S = Q1 diag(10^u) Q2 with u
    # uniform on [0, decades], and a pair of the delta family, in both
    # orders.  The ginv route's G and sim_congruence's S are read from one
    # oblique basis; sim_congruence reduces exactly the pairs the ginv route
    # holds, with its ranks and within recon_tol, and fails no check of its
    # certificate, however graded the pair.  The image route checks the same
    # basis, so it holds exactly where the ginv route holds, on those pairs
    # and off the cone, on A = S diag(+-lambda on r) S^T below
    # B = A + S diag(+-mu on the next s - r) S^T and the reverse, and
    # neither fails its direct-sum check
    s_rank = data.draw(st.integers(0, n))
    r_rank = data.draw(st.integers(0, s_rank))
    rng = np.random.default_rng(seed)
    s = (_orthogonal(rng, n) * 10.0 ** rng.uniform(0.0, decades, n)) @ _orthogonal(rng, n).T
    a, b = ((s * np.r_[np.ones(k), np.zeros(n - k)]) @ s.T for k in (r_rank, s_rank))
    (da, db), = delta_family(count=1, seed=seed)
    weights, index = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n), np.arange(n)
    oa = (s * np.where(index < r_rank, weights, 0.0)) @ s.T
    ob = oa + (s * np.where((index >= r_rank) & (index < s_rank), weights, 0.0)) @ s.T
    for x, y in ((oa, ob), (ob, oa)):
        assert minus_leq(x, y, method="image").holds == minus_leq(x, y, method="ginv").holds
    for x, y in ((a, b), (da, db), (db, da)):
        verdict = minus_leq(x, y, method="ginv")
        assert minus_leq(x, y, method="image").holds == verdict.holds
        try:
            res = sim_congruence(x, y)
        except NotMinusComparable:
            assert not verdict.holds
            continue
        assert verdict.holds
        cert = verdict.certificate
        assert (res.rank_a, res.rank_b) == (cert["rank_a"], cert["rank_b"])
        assert max(res.residual_a, res.residual_b) <= DEFAULT_TOL.recon_tol
