"""Order decision procedures: examples, certificates, and the relation lattice."""

import numpy as np
import pytest

import oracles
from psdorder import (
    DEFAULT_TOL,
    MinusMethod,
    Relation,
    ToleranceConfig,
    canonical_ek,
    inertia,
    lowner_leq,
    matrices_equal,
    minus_leq,
    order_holds_many,
    order_leq,
    pinv,
    sim_congruence,
    star_family_leq,
    sym_eig,
)
from psdorder.errors import DimensionMismatch, PsdOrderError
from psdorder.numkernel import maxabs, outside_span

ALL_RELATIONS = [Relation.LOWNER, Relation.MINUS, Relation.STAR,
                 Relation.LEFT_STAR, Relation.RIGHT_STAR]

# Float-composed fixtures (QR factors, triple products) carry eps-scale noise
# in their null spaces, which sits exactly at the default n*eps rank cutoff
# for small n.  The properties tested here hold at any sane cutoff, so pin
# one comfortably above that noise floor and far below the real eigenvalues.
TOL12 = ToleranceConfig(rank_rel_tol=1e-12)


def check(rel, a, b, **kw):
    if rel is Relation.LOWNER:
        return lowner_leq(a, b, **kw)
    if rel is Relation.MINUS:
        return minus_leq(a, b, **kw)
    return star_family_leq(a, b, variant=rel, **kw)


def random_psd(rng, n, rank=None):
    r = n if rank is None else rank
    g = rng.standard_normal((n, r)) if r else np.zeros((n, 0))
    return g @ g.T


def star_pair(rng, n, r, s):
    """A, B with a shared eigenbasis, B extending A's spectrum: A <=* B."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = rng.uniform(0.5, 2.0, size=n)
    da = np.where(np.arange(n) < r, d, 0.0)
    db = np.where(np.arange(n) < s, d, 0.0)
    return q @ np.diag(da) @ q.T, q @ np.diag(db) @ q.T


# ----- worked examples -------------------------------------------------------

def test_lowner_examples():
    assert lowner_leq(np.diag([1.0, 0.0]), np.eye(2)).holds
    v = lowner_leq(np.diag([2.0, 0.0]), np.diag([1.0, 1.0]))
    assert not v.holds and v.detail == "incomparable"
    v = lowner_leq(np.diag([1.0, 1.0]), np.diag([1.0, 0.0]))
    assert not v.holds and v.detail == "strictly greater"
    assert lowner_leq(np.zeros((3, 3)), random_psd(np.random.default_rng(0), 3)).holds


def test_lowner_witness_certificate():
    v = lowner_leq(np.diag([2.0, 0.0]), np.diag([1.0, 1.0]))
    x = v.certificate["witness"]
    a, b = np.diag([2.0, 0.0]), np.diag([1.0, 1.0])
    assert float(x @ (b - a) @ x) < 0
    assert v.certificate["min_eig"] < -v.certificate["threshold"]
    held = lowner_leq(np.zeros((2, 2)), np.eye(2))
    assert held.certificate["witness"] is None


def test_canonical_units_under_every_relation():
    e1, e2 = canonical_ek(3, 1), canonical_ek(3, 2)
    for rel in ALL_RELATIONS:
        v = check(rel, e1, e2)
        assert v.holds and v.detail == "strictly less", rel


def test_zero_below_everything():
    rng = np.random.default_rng(5)
    for _ in range(20):
        b = random_psd(rng, 4, rank=int(rng.integers(0, 5)))
        z = np.zeros((4, 4))
        for rel in ALL_RELATIONS:
            assert check(rel, z, b).holds, rel


def test_scaled_support_fails_minus_and_star():
    a, b = np.diag([1.0, 0.0]), np.diag([2.0, 0.0])
    assert lowner_leq(a, b).holds
    vm = minus_leq(a, b)
    assert not vm.holds and vm.detail == "incomparable"
    assert not star_family_leq(a, b).holds


def test_projector_below_identity():
    rng = np.random.default_rng(9)
    for n in (2, 4, 6):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        k = n // 2
        p = q[:, :k] @ q[:, :k].T
        assert lowner_leq(p, np.eye(n)).holds
        assert minus_leq(p, np.eye(n), tol=TOL12).holds
        assert star_family_leq(p, np.eye(n), tol=TOL12).holds


def test_computed_projectors_are_minus_below_the_identity_at_the_default_cutoff():
    # P = Q_k Q_k^T with Q from a QR factor: the roundoff eigenvalues of P
    # and I - P, read by eigvalsh as the rank route reads them, crossed the
    # old default cutoff n eps |lambda|max in 298, 130, 23 and 0 of these
    # 3,000 draws at n = 2, 3, 5 and 8 (in 102, 42, 9 and 0 of the first
    # 1,000, which are also decided one at a time; read by eigh, in 298,
    # 179, 38 and 0, and 102, 57, 10 and 0)
    for n in (2, 3, 5, 8):
        rng = np.random.default_rng(0)
        ps = []
        for _ in range(3000):
            k = int(rng.integers(1, n))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            ps.append(q[:, :k] @ q[:, :k].T)
        assert order_holds_many(np.array(ps), np.eye(n), Relation.MINUS).all(), n
        assert all(minus_leq(p, np.eye(n)).holds for p in ps[:1000]), n
    eps = np.finfo(float).eps
    # the draw whose roundoff came closest under eigvalsh in 2,000,000
    # (500,000 at each n = 2 to 5), 8.83 eps = 2.94 n eps |lambda|max: the
    # rank route fails just below it and holds just above, and at the
    # default 4 n eps
    q = np.array([[-0.016605641357583023, -0.9736228863978508],
                  [0.04070758925097986, -0.2280591926111749],
                  [-0.9990331049832522, 0.0068905549745983605]])
    p = q @ q.T
    assert not minus_leq(p, np.eye(3), tol=ToleranceConfig(rank_rel_tol=8.8 * eps)).holds
    assert minus_leq(p, np.eye(3), tol=ToleranceConfig(rank_rel_tol=8.85 * eps)).holds
    v = minus_leq(p, np.eye(3))
    assert v.holds and (v.certificate["rank_a"], v.certificate["rank_diff"]) == (2, 1)
    # the image and ginv routes decide on eigh's values: the draw whose
    # roundoff came closest under eigh in 2,000,000, 9.71 eps = 3.24 n eps,
    # fails at 3 n eps and holds at 4 n eps (eigvalsh reads it at 8.82 eps)
    q = np.array([[-0.20164124457463806, 0.9793315957614259],
                  [-0.9218381158476441, -0.1842940007078269],
                  [-0.3309913845659063, -0.08333874756966933]])
    p = q @ q.T
    for method in (MinusMethod.IMAGE, MinusMethod.GINV):
        assert not minus_leq(p, np.eye(3), method, ToleranceConfig(rank_rel_tol=9 * eps)).holds, method
        v = minus_leq(p, np.eye(3), method)
        assert v.holds and (v.certificate["rank_a"], v.certificate["rank_diff"]) == (2, 1), method
    assert minus_leq(p, np.eye(3), tol=ToleranceConfig(rank_rel_tol=9 * eps)).holds


def test_the_default_cutoff_keeps_a_graded_eigenvalue():
    # an image eigenvalue of 1e-13 |lambda|max at n = 16 is real: the
    # cutoff's margin over roundoff must not drop it
    rng = np.random.default_rng(4)
    n = 16
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d_a = np.r_[1.0, 1e-13, np.zeros(n - 2)]
    d_b = d_a + np.r_[0.0, 0.0, 1.0, np.zeros(n - 3)]
    v = minus_leq((q * d_a) @ q.T, (q * d_b) @ q.T)
    assert v.holds
    assert (v.certificate["rank_a"], v.certificate["rank_b"], v.certificate["rank_diff"]) == (2, 3, 1)


def test_idempotent_characterization():
    # among symmetric P, P is minus-below I exactly when P is a projector
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        k = int(rng.integers(1, n))
        p = q[:, :k] @ q[:, :k].T
        assert minus_leq(p, np.eye(n), tol=TOL12).holds
        # scaling spoils idempotency, and with it the minus relation
        assert not minus_leq(1.7 * p, np.eye(n), tol=TOL12).holds


LOOSE = ToleranceConfig(rank_rel_tol=0.1, psd_tol=0.1, recon_tol=0.1)


@pytest.mark.parametrize("rel", ALL_RELATIONS, ids=lambda r: r.value)
def test_order_leq_matches_the_specific_check(rel):
    rng = np.random.default_rng(31)
    e1, e2 = canonical_ek(3, 1), canonical_ek(3, 2)
    near = (np.diag([1.05, 0.0, 0.0]), np.diag([1.0, 1.0, 0.0]))
    pairs = [(e1, e2), (e2, e1), (e1, e1), star_pair(rng, 3, 1, 2),
             (random_psd(rng, 3), random_psd(rng, 3)), near]
    for tol in (DEFAULT_TOL, LOOSE):
        for a, b in pairs:
            got, want = order_leq(a, b, rel.value, tol), check(rel, a, b, tol=tol)
            assert (got.holds, got.relation, got.detail) == (
                want.holds, want.relation, want.detail)
            assert got.certificate.keys() == want.certificate.keys()
            for key, value in want.certificate.items():
                np.testing.assert_array_equal(got.certificate[key], value)
    # the near pair is related only under the loose tolerances, so the
    # tolerance reaches the specific check
    assert not order_leq(*near, rel).holds and order_leq(*near, rel, LOOSE).holds


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lowner_leq(np.eye(2), np.eye(3))
    with pytest.raises(DimensionMismatch):
        minus_leq(np.eye(3), np.eye(2))


def test_empty_matrices_are_equal_in_the_loewner_order():
    z = np.zeros((0, 0))
    v = lowner_leq(z, z)
    assert (v.holds, v.detail, v.certificate["min_eig"]) == (True, "equal", 0.0)
    assert order_holds_many(np.zeros((2, 0, 0)), z, Relation.LOWNER).tolist() == [True, True]


def test_empty_matrices_carry_both_minus_certificates():
    # the ginv identities and the reconstructions of S have no entries
    z = np.zeros((0, 0))
    v = minus_leq(z, z, method="ginv")
    assert (v.holds, v.detail) == (True, "equal")
    assert v.certificate["residuals"] == {"inner": 0.0, "left": 0.0, "right": 0.0}
    res = sim_congruence(z, z)
    assert (res.s.shape, res.rank_a, res.rank_b, res.residual_a, res.residual_b) == ((0, 0), 0, 0, 0.0, 0.0)


def test_verdicts_near_the_top_of_the_float_range():
    # entries above ~9e307 used to overflow when symmetrized; each verdict
    # must be that of the same pair scaled by 1e-300
    pairs = [
        (np.diag([1e308, 0.0]), np.diag([1.5e308, 1.0])),
        (np.diag([1e308, 0.0]), np.diag([1e308, 1.0])),
    ]
    for a, b in pairs:
        for rel in ALL_RELATIONS:
            got, want = order_leq(a, b, rel), order_leq(1e-300 * a, 1e-300 * b, rel)
            assert (got.holds, got.detail) == (want.holds, want.detail), rel
        for method in MinusMethod:
            got = minus_leq(a, b, method=method)
            want = minus_leq(1e-300 * a, 1e-300 * b, method=method)
            assert (got.holds, got.detail) == (want.holds, want.detail), method
    v = star_family_leq(*pairs[1])
    assert v.holds and v.detail == "equal"
    assert np.isfinite([v.certificate["residual"], v.certificate["budget"]]).all()


def test_a_difference_that_overflows_raises():
    a, b = np.diag([-1e308, 1.0]), np.diag([1e308, 1.0])
    for rel in ALL_RELATIONS:
        with pytest.raises(PsdOrderError, match="overflows"):
            order_leq(a, b, rel)
    with pytest.raises(PsdOrderError, match="overflows"):
        matrices_equal(a, b)


@pytest.mark.filterwarnings("error")
def test_a_spectrum_beyond_the_float_range_raises():
    # finite entries with the eigenvalue 2.5e308: an infinite rank cutoff
    # counted nothing (minus "equal", inertia (0, 0, 2)), and the star
    # budget became NaN; every verdict on such a matrix now raises
    z, big = np.zeros((2, 2)), np.array([[1e308, 1.5e308], [1.5e308, 1e308]])
    for a, b in ((z, big), (big, z)):
        for rel in ALL_RELATIONS:
            with pytest.raises(PsdOrderError, match="overflows"):
                order_leq(a, b, rel)
        for method in MinusMethod:
            with pytest.raises(PsdOrderError, match="overflows"):
                minus_leq(a, b, method=method)
    for rel in ALL_RELATIONS:
        with pytest.raises(PsdOrderError, match="overflows"):
            order_holds_many(z[None], big[None], rel)
    # B - A = 0 has a finite spectrum
    assert lowner_leq(big, big).detail == "equal"
    for m in (big, -big):
        with pytest.raises(PsdOrderError, match="overflows"):
            inertia(m)
        with pytest.raises(PsdOrderError, match="overflows"):
            pinv(m)


def test_order_holds_many_answers_a_star_pair_whose_reverse_test_overflows():
    # the star family no longer reads B = 0's cutoff alone for this pair:
    # it counts ranks against the pair's one cutoff, as minus does, and
    # that cutoff overflows, so the stacked verdict raises as order_leq does
    z, big = np.zeros((2, 2)), np.array([[1e308, 1.5e308], [1.5e308, 1e308]])
    for rel in ALL_RELATIONS[2:]:
        with pytest.raises(PsdOrderError, match="rank cutoff overflows"):
            order_leq(big, z, rel)
        with pytest.raises(PsdOrderError, match="rank cutoff overflows"):
            order_holds_many(big[None], z[None], rel)


def test_matrices_equal_scales():
    a = np.eye(2)
    assert matrices_equal(a, a + 1e-12)
    assert not matrices_equal(a, a + 1e-4)
    big = 1e8 * np.eye(2)
    assert matrices_equal(big, big + 1.0 * np.eye(2) * 1e-3)
    assert not matrices_equal(big, big + 10.0 * np.eye(2))


# ----- preorder axioms -------------------------------------------------------

def test_reflexivity():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        a = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
        for rel in ALL_RELATIONS:
            v = check(rel, a, a)
            assert v.holds and v.detail == "equal", rel


def test_antisymmetry():
    rng = np.random.default_rng(19)
    hits = 0
    for trial in range(200):
        n = int(rng.integers(1, 5))
        a = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
        b = a if trial % 3 == 0 else random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
        for rel in ALL_RELATIONS:
            if check(rel, a, b).holds and check(rel, b, a).holds:
                hits += 1
                assert matrices_equal(a, b), rel
    assert hits > 50  # the a == b branch must actually fire


def test_transitivity_lowner():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        a = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
        b = a + random_psd(rng, n, rank=1)
        c = b + random_psd(rng, n, rank=1)
        assert lowner_leq(a, b).holds and lowner_leq(b, c).holds
        assert lowner_leq(a, c).holds


def test_transitivity_minus_and_star():
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(3, 7))
        r = int(rng.integers(0, n - 1))
        s = int(rng.integers(r, n))
        t = int(rng.integers(s, n + 1))
        a, b = star_pair(rng, n, r, s)
        _, c = star_pair(rng, n, r, t)
        # rebuild c in the same eigenbasis so the chain is genuine
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        d = rng.uniform(0.5, 2.0, size=n)
        mats = [q @ np.diag(np.where(np.arange(n) < k, d, 0.0)) @ q.T for k in (r, s, t)]
        a, b, c = mats
        for rel in (Relation.MINUS, Relation.STAR):
            assert check(rel, a, b, tol=TOL12).holds and check(rel, b, c, tol=TOL12).holds, rel
            assert check(rel, a, c, tol=TOL12).holds, rel


# ----- minus order: methods agree with each other and the oracle -------------

MINUS_CERTIFICATES = {MinusMethod.RANK: set(), MinusMethod.IMAGE: {"contained"},
                      MinusMethod.GINV: {"sigma_min", "g", "residuals"}}


def test_minus_methods_agree():
    rng = np.random.default_rng(31)
    for trial in range(150):
        n = int(rng.integers(1, 6))
        if trial % 3 == 0:
            a, b = oracles.exact_minus_pair(rng, n)
            a, b = a.astype(float), b.astype(float)
        elif trial % 3 == 1:
            a = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
            b = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
        else:
            a = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
            b = a + random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
        verdicts = [minus_leq(a, b, method=m, tol=TOL12) for m in MinusMethod]
        assert len({v.holds for v in verdicts}) == 1, (trial, [v.holds for v in verdicts])
        # the rank route's verdict and certificate under every method; a
        # holding verdict adds the certificate asked for.  The image and ginv
        # routes read eigh's values, the rank route eigvalsh's, so their
        # cutoffs may differ by the gap between the two solvers' radii
        rank = verdicts[0]
        for method, v in zip(MinusMethod, verdicts):
            cutoff = v.certificate["cutoff"]
            assert v.detail == rank.detail, (trial, method)
            assert v.certificate == {**v.certificate, **rank.certificate, "method": method.value, "cutoff": cutoff}
            assert oracles.cutoff_gap(cutoff, rank.certificate["cutoff"], a, b) <= 4.0, (trial, method)
            added = set(v.certificate) - set(rank.certificate)
            assert added == (MINUS_CERTIFICATES[method] if v.holds else set()), (trial, method)
        if rank.holds:
            assert verdicts[1].certificate["contained"] is True


def test_minus_rank_certificate_equation():
    rng = np.random.default_rng(37)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        a, b = oracles.exact_minus_pair(rng, n)
        v = minus_leq(a.astype(float), b.astype(float), method=MinusMethod.RANK)
        assert v.holds
        c = v.certificate
        assert c["rank_diff"] == c["rank_b"] - c["rank_a"]
        assert c["rank_a"] == oracles.exact_rank(a)
        assert c["rank_b"] == oracles.exact_rank(b)


def test_minus_ginv_certificate_identities():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        ai, bi = oracles.exact_minus_pair(rng, n)
        a, b = ai.astype(float), bi.astype(float)
        v = minus_leq(a, b, method=MinusMethod.GINV)
        assert v.holds
        g = v.certificate["g"]
        scale = max(1.0, maxabs(a), maxabs(b)) * max(1.0, maxabs(g))
        assert maxabs(a @ g @ a - a) <= 1e-8 * scale
        assert maxabs(g @ a - g @ b) <= 1e-8 * scale
        assert maxabs(a @ g - b @ g) <= 1e-8 * scale


def test_minus_oracle_agreement():
    rng = np.random.default_rng(43)
    for trial in range(150):
        n = int(rng.integers(1, 6))
        if trial % 2 == 0:
            a, b = oracles.exact_minus_pair(rng, n)
        else:
            a = oracles.integer_psd(rng, n, int(rng.integers(0, n + 1)))
            b = oracles.integer_psd(rng, n, int(rng.integers(0, n + 1)))
        expect = oracles.exact_minus_leq(a, b)
        for m in MinusMethod:
            assert minus_leq(a.astype(float), b.astype(float), method=m).holds == expect


def test_minus_strictness_needs_rank_gap():
    rng = np.random.default_rng(47)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        a, b = oracles.exact_minus_pair(rng, n)
        v = minus_leq(a.astype(float), b.astype(float))
        ra, rb = oracles.exact_rank(a), oracles.exact_rank(b)
        if ra == rb:
            assert v.detail == "equal"
        else:
            assert v.detail == "strictly less"
            assert inertia(b.astype(float)).rank > inertia(a.astype(float)).rank


# ----- minus certificates: the rank equation decides, and a requested
# certificate of a holding verdict is checked before it is returned ---------

# A and B - A carry -1 and 1 along e1, where B is 0, and B's two eigenvalues
# 4e-15 sit just above the cutoff 12 eps while their halves in A and B - A
# sit under it: ranks (1, 2, 1) meet the rank equation, yet Im A leaves Im B
# and Im A + Im(B - A) is not direct
MISCOUNTED = (np.diag([-1.0, 2e-15, 2e-15]), np.diag([0.0, 4e-15, 4e-15]))


def test_a_certificate_that_fails_its_check_raises():
    v = minus_leq(*MISCOUNTED)
    assert (v.holds, v.detail) == (True, "strictly less")
    assert [v.certificate[k] for k in ("rank_a", "rank_b", "rank_diff")] == [1, 2, 1]
    with pytest.raises(PsdOrderError, match="image certificate .* direct-sum check: sigma_min"):
        minus_leq(*MISCOUNTED, method=MinusMethod.IMAGE)
    with pytest.raises(PsdOrderError, match="ginv certificate .* direct-sum check"):
        minus_leq(*MISCOUNTED, method=MinusMethod.GINV)
    # a cutoff of 1e-2 drops A's eigenvalue 1e-3, so A G A misses it
    a, b = np.diag([1.0, 1e-3, 0.0]), np.diag([1.0, 1e-3, 1.0])
    coarse = ToleranceConfig(rank_rel_tol=1e-2)
    assert minus_leq(a, b, method=MinusMethod.IMAGE, tol=coarse).holds
    with pytest.raises(PsdOrderError, match="identity check: inner residual 1.000e-03"):
        minus_leq(a, b, method=MinusMethod.GINV, tol=coarse)
    # roundoff alone fails an identity budget far under eps
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
    s = q * [1.0, 2.0, 0.5]
    a, b = (s * [1.0, 0.0, 0.0]) @ s.T, (s * [1.0, 1.0, 0.0]) @ s.T
    assert minus_leq(a, b, method=MinusMethod.GINV).holds
    with pytest.raises(PsdOrderError, match="ginv certificate .* identity check"):
        minus_leq(a, b, method=MinusMethod.GINV, tol=ToleranceConfig(recon_tol=1e-20))
    # a failing verdict builds no certificate, so nothing fails
    assert not minus_leq(b, a, method=MinusMethod.GINV, tol=ToleranceConfig(recon_tol=1e-20)).holds


# ----- relation lattice ------------------------------------------------------

def test_star_variants_coincide_on_psd():
    rng = np.random.default_rng(53)
    for trial in range(120):
        n = int(rng.integers(1, 6))
        if trial % 2 == 0:
            r = int(rng.integers(0, n + 1))
            s = int(rng.integers(r, n + 1))
            a, b = star_pair(rng, n, r, s)
        else:
            a = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
            b = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
        vs = [star_family_leq(a, b, variant=v, tol=TOL12).holds
              for v in (Relation.STAR, Relation.LEFT_STAR, Relation.RIGHT_STAR)]
        assert len(set(vs)) == 1, (trial, vs)


def test_star_implies_minus_implies_lowner():
    rng = np.random.default_rng(59)
    star_hits = minus_hits = 0
    for trial in range(150):
        n = int(rng.integers(1, 6))
        r = int(rng.integers(0, n + 1))
        s = int(rng.integers(0, n + 1))
        a, b = star_pair(rng, n, min(r, s), max(r, s)) if trial % 2 else (
            random_psd(rng, n, rank=r), random_psd(rng, n, rank=s))
        if star_family_leq(a, b, tol=TOL12).holds:
            star_hits += 1
            assert minus_leq(a, b, tol=TOL12).holds
        if minus_leq(a, b, tol=TOL12).holds:
            minus_hits += 1
            assert lowner_leq(a, b).holds  # both PSD, so minus forces PSD order
    assert star_hits > 30 and minus_hits > 30


def test_lowner_implies_image_containment():
    rng = np.random.default_rng(61)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        b = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        # shrink inside B's range to get a guaranteed PSD-below pair
        a = 0.3 * b
        assert lowner_leq(a, b).holds
        values, vectors = sym_eig(b)
        outside, scale = outside_span(a, vectors[:, np.abs(values) > DEFAULT_TOL.rank_cutoff(values)])
        assert outside <= DEFAULT_TOL.recon_tol * scale
        # and a generic witness with larger image is not PSD-below
        if inertia(b).rank < n:
            big = b + np.eye(n)
            assert not lowner_leq(big, b).holds


def test_rank_one_dominated_is_scalar_multiple():
    # below a rank-one PSD matrix only its own segment [0, A] survives
    rng = np.random.default_rng(67)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        x = rng.standard_normal(n)
        a = np.outer(x, x)
        lam = float(rng.uniform(0.0, 1.0))
        b = lam * a
        assert lowner_leq(b, a).holds
        lam_hat = np.trace(b) / np.trace(a)
        assert lam_hat == pytest.approx(lam, abs=1e-10)
        assert maxabs(b - lam_hat * a) <= 1e-10 * max(1.0, maxabs(a))


def test_congruence_invariance_of_lowner_and_minus():
    rng = np.random.default_rng(71)
    for trial in range(60):
        n = int(rng.integers(2, 6))
        if trial % 2 == 0:
            a, b = oracles.exact_minus_pair(rng, n)
            a, b = a.astype(float), b.astype(float)
        else:
            a = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
            b = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
        s = oracles.integer_invertible(rng, n).astype(float)
        sa, sb = s @ a @ s.T, s @ b @ s.T
        assert lowner_leq(a, b).holds == lowner_leq(sa, sb).holds
        assert minus_leq(a, b).holds == minus_leq(sa, sb).holds


def test_detail_field_all_values():
    a, b = np.diag([1.0, 0.0]), np.eye(2)
    assert lowner_leq(a, b).detail == "strictly less"
    assert lowner_leq(b, a).detail == "strictly greater"
    assert lowner_leq(a, a).detail == "equal"
    assert lowner_leq(np.diag([2.0, 0.0]), np.diag([0.0, 2.0])).detail == "incomparable"
    assert minus_leq(a, b).detail == "strictly less"
    assert minus_leq(b, a).detail == "strictly greater"


def test_equal_is_decided_by_the_verdicts_own_criterion():
    # within recon_tol of each other, but each verdict's own spectrum and
    # cutoff separates them, so neither may read "equal"
    v = lowner_leq(np.eye(2), np.diag([1.0, 1.0 - 5e-9]))
    assert not v.holds and v.detail == "strictly greater"
    e11 = np.diag([1.0, 0.0])
    for method in MinusMethod:
        v = minus_leq(np.eye(2), np.eye(2) + 1e-9 * e11, method=method)
        assert not v.holds and v.detail == "incomparable", method
    # differences at the roundoff level still read equal
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
    a = q @ np.diag([3.0, 1.0, 0.0, 0.0]) @ q.T
    b = q @ np.diag([3.0, 1.0, 0.0, 0.0]) @ q.T + 1e-17 * np.eye(4)
    for rel in ALL_RELATIONS:
        v = check(rel, a, b)
        assert v.holds and v.detail == "equal", rel


def test_star_rejects_unknown_variant():
    with pytest.raises(ValueError):
        star_family_leq(np.eye(2), np.eye(2), variant="lowner")


# ----- graded spectra: containment is tested on the matrices ---------------

def graded_pairs(seed, count=200):
    """A = Q diag(1, 1e-9, 0, 0) Q^T below B = Q diag(1, 1e-9, 1, 0) Q^T in
    every order, for random rotations Q: the eigenvector of 1e-9 is only
    known to about eps / 1e-9."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        yield q @ np.diag([1.0, 1e-9, 0.0, 0.0]) @ q.T, q @ np.diag([1.0, 1e-9, 1.0, 0.0]) @ q.T


def test_image_route_accepts_graded_pairs():
    for a, b in graded_pairs(83):
        v = minus_leq(a, b, method=MinusMethod.IMAGE)
        assert v.holds and v.detail == "strictly less"
        assert v.certificate["contained"]
        assert (v.certificate["rank_a"], v.certificate["rank_b"]) == (2, 3)


@pytest.mark.parametrize("variant", [Relation.LEFT_STAR, Relation.RIGHT_STAR])
def test_one_sided_star_accepts_graded_pairs(variant):
    for a, b in graded_pairs(89):
        v = star_family_leq(a, b, variant)
        assert v.holds and v.detail == "strictly less"
        cert = v.certificate
        assert (cert["rank_a"], cert["rank_b"], cert["rank_diff"]) == (2, 3, 1)
        assert cert["residual"] <= cert["budget"]


@pytest.mark.parametrize("s", [1e-8, 1e-9])
def test_star_identity_is_measured_against_a_and_b(s):
    # A^2 = A B exactly; the roundoff of A B scales with |A| |B|, which is
    # far above |A^2| when A is small next to B
    rng = np.random.default_rng(97)
    for _ in range(200):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a, b = q @ np.diag([s, 0.0, 0.0]) @ q.T, q @ np.diag([s, 1.0, 0.0]) @ q.T
        v = star_family_leq(a, b)
        assert v.holds and v.detail == "strictly less"
        assert v.certificate["residual"] <= v.certificate["budget"]


def test_one_sided_star_rejects_a_component_outside_im_b():
    # A^2 = A B up to 1e-12, yet both steps reject: the rank equation
    # counts the 1e-6 eigenvalue of A and of B - A, and A (B - A), 1e-6
    # times |A| |B - A|, is far over the identity's budget
    rng = np.random.default_rng(101)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a, b = q @ np.diag([1.0, 1e-6, 0.0]) @ q.T, q @ np.diag([1.0, 0.0, 0.0]) @ q.T
        for variant in (Relation.LEFT_STAR, Relation.RIGHT_STAR):
            v = star_family_leq(a, b, variant)
            cert = v.certificate
            assert not v.holds and (cert["rank_a"], cert["rank_b"], cert["rank_diff"]) == (2, 1, 1)
            assert cert["residual"] > cert["budget"]


def test_star_follows_the_rank_equation_where_matrices_equal_calls_equal():
    # diag(1, 1e-9) is within recon_tol of diag(1, 0), but the rank
    # equation counts 1e-9, so in every variant star fails and reads
    # "strictly greater", as minus does: equality is rank(B - A) = 0
    a, b = np.diag([1.0, 1e-9]), np.diag([1.0, 0.0])
    assert matrices_equal(a, b)
    assert minus_leq(a, b).detail == "strictly greater"
    for variant in (Relation.STAR, Relation.LEFT_STAR, Relation.RIGHT_STAR):
        v = star_family_leq(a, b, variant)
        assert not v.holds and v.detail == "strictly greater"
        assert (v.certificate["rank_a"], v.certificate["rank_b"], v.certificate["rank_diff"]) == (2, 1, 1)


def test_star_rejects_a_small_a_orthogonal_to_b():
    # A^2 - A B = A^2 is tiny next to |A| |B|, but it is all of A^2, and
    # all of A lies outside Im B; minus rejects the pair too, and so does
    # Loewner once t passes psd_tol
    for n in (2, 3, 8):
        q, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))
        for t in (1e-6, 5e-9, 1e-12):
            a, b = np.zeros((n, n)), np.zeros((n, n))
            a[1, 1], b[0, 0] = t, 1.0
            for x, y in ((a, b), (q @ a @ q.T, q @ b @ q.T)):
                assert not minus_leq(x, y).holds
                assert lowner_leq(x, y).holds == (t < DEFAULT_TOL.psd_tol)
                for variant in (Relation.STAR, Relation.LEFT_STAR, Relation.RIGHT_STAR):
                    v = star_family_leq(x, y, variant)
                    assert not v.holds and v.detail == "incomparable"
                    cert = v.certificate
                    assert (cert["rank_a"], cert["rank_b"], cert["rank_diff"]) == (1, 1, 2)


def test_star_rejects_a_part_of_a_outside_im_b_in_every_variant():
    # diag(1, t) meets A^2 = A diag(1, 0) up to t^2, within recon_tol for
    # t = 1e-5; but A (B - A) = -diag(0, t^2) is t times |A| |B - A|,
    # linear in t, and the rank equation counts t: both steps reject it,
    # as minus does
    a, b = np.diag([1.0, 1e-5]), np.diag([1.0, 0.0])
    assert not lowner_leq(a, b).holds and not minus_leq(a, b).holds
    for variant in (Relation.STAR, Relation.LEFT_STAR, Relation.RIGHT_STAR):
        v = star_family_leq(a, b, variant)
        assert v.certificate["residual"] > v.certificate["budget"]
        assert not v.holds and (v.certificate["rank_a"], v.certificate["rank_diff"]) == (2, 1)
