"""Congruence canonical forms and the shared reduction of minus-ordered pairs."""

import numpy as np
import pytest

import oracles
from psdorder import (
    DEFAULT_TOL,
    DimensionMismatch,
    NotMinusComparable,
    NotPositiveSemidefinite,
    ToleranceConfig,
    canonical_ek,
    inertia,
    minus_leq,
    sim_congruence,
)
from psdorder.numkernel import maxabs, rel_residual

TOL12 = ToleranceConfig(rank_rel_tol=1e-12)


def well_conditioned(rng, n, limit=1e4):
    while True:
        s = rng.uniform(-1.0, 1.0, size=(n, n))
        if np.linalg.cond(s) < limit:
            return s


def test_canonical_ek():
    np.testing.assert_array_equal(canonical_ek(3, 2), np.diag([1.0, 1.0, 0.0]))
    np.testing.assert_array_equal(canonical_ek(2, 0), np.zeros((2, 2)))
    np.testing.assert_array_equal(canonical_ek(2, 2), np.eye(2))
    with pytest.raises(ValueError):
        canonical_ek(2, 3)
    with pytest.raises(ValueError):
        canonical_ek(2, -1)


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
    np.testing.assert_allclose(res.s @ canonical_ek(2, 1) @ res.s.T, a, atol=1e-12)
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
                assert rel_residual(res.s @ canonical_ek(n, r) @ res.s.T - a, a) <= DEFAULT_TOL.recon_tol
                got = inertia(a)
                assert (got.n_pos, got.n_neg, got.n_zero) == want


def test_sim_congruence_constructed_pairs():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 8))
        r = int(rng.integers(0, n + 1))
        s_rank = int(rng.integers(r, n + 1))
        s0 = well_conditioned(rng, n)
        a = s0 @ canonical_ek(n, r) @ s0.T
        b = s0 @ canonical_ek(n, s_rank) @ s0.T
        res = sim_congruence(a, b, tol=TOL12)
        assert (res.rank_a, res.rank_b) == (r, s_rank)
        assert res.residual_a <= 1e-8 and res.residual_b <= 1e-8
        assert res.sigma_min > 0
        # the returned transform really does reduce both at once
        er, es = canonical_ek(n, r), canonical_ek(n, s_rank)
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
    res = sim_congruence(canonical_ek(4, 1), canonical_ek(4, 3))
    assert (res.rank_a, res.rank_b) == (1, 3)
    assert max(res.residual_a, res.residual_b) <= 1e-12


def test_sim_congruence_rejects_scaled_support():
    # Loewner-comparable but not rank-subtractive: the block spectrum is {1/2}
    with pytest.raises(NotMinusComparable, match="idempotent"):
        sim_congruence(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]))
    with pytest.raises(NotMinusComparable, match="idempotent"):
        sim_congruence(np.diag([1.0, 0.0]), np.diag([2.0, 1.0]))


def test_sim_congruence_rejects_image_spill():
    a = np.diag([0.0, 0.0, 1.0])
    b = np.diag([1.0, 0.0, 0.0])
    with pytest.raises(NotMinusComparable, match="outside"):
        sim_congruence(a, b)


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
