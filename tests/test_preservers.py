"""Order-preserver verification and congruence recovery from samples."""

import numpy as np
import pytest

from psdorder import (
    DEFAULT_TOL,
    DimensionMismatch,
    InconsistentSamples,
    MatrixMap,
    PsdOrderError,
    Relation,
    SingularS,
    ToleranceConfig,
    congruence_map,
    fit_congruence,
    lowner_leq,
    minus_leq,
    order_leq,
    preserves_order,
    probe_inputs,
    projector_fixed_point_suite,
    star_family_leq,
)
import per_trial
import reference_preservers as ref
from psdorder.numkernel import SymMatrix, maxabs, sym_stack
from psdorder.orders import holds_stack
from psdorder.preservers import _orthogonal, _projectors, _trial_kinds, sample_pair

TOL12 = ToleranceConfig(rank_rel_tol=1e-12)


def normalize_sign(s):
    col = s[:, 0]
    nz = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())
    return -s if col[nz[0]] < 0 else s


def random_invertible(rng, n, limit=1e4):
    while True:
        s = rng.uniform(-1.0, 1.0, size=(n, n))
        if np.linalg.cond(s) < limit:
            return s


def test_builtin_maps():
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    ti = MatrixMap.trace_inflation()
    np.testing.assert_allclose(ti.apply(a), a + 3.0 * np.eye(2), atol=1e-15)
    rc = MatrixMap.rank_collapse()
    np.testing.assert_allclose(rc.apply(a), np.array([[3.0, 0.0], [0.0, 0.0]]), atol=1e-15)
    cu = MatrixMap("double", lambda m: 2.0 * m)
    assert cu.label == "double"
    np.testing.assert_allclose(cu.apply(a), 2.0 * a, atol=1e-15)
    # every built-in map takes an empty matrix and a stack of them
    for mmap in (ti, rc, cu):
        for shape in ((0, 0), (3, 0, 0)):
            assert mmap.apply(np.empty(shape)).shape == shape, (mmap, shape)


def test_congruence_map_apply_and_reject():
    s = np.array([[1.0, 1.0], [0.0, 1.0]])
    m = congruence_map(s)
    a = np.diag([1.0, 0.0])
    np.testing.assert_allclose(m.apply(a), s @ a @ s.T, atol=1e-15)
    with pytest.raises(SingularS):
        congruence_map(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularS):
        congruence_map(np.zeros((3, 3)))
    with pytest.raises(SingularS, match="nonempty"):
        congruence_map(np.zeros((0, 0)))
    # a factor that is not square is a shape error, not a singular one
    for s in (np.ones((2, 3)), np.ones(3)):
        with pytest.raises(DimensionMismatch):
            congruence_map(s)


def test_a_congruence_applied_at_another_size_raises_dimension_mismatch():
    m = congruence_map(np.eye(3))
    with pytest.raises(DimensionMismatch, match="3x3 congruence"):
        m.apply(np.eye(2))
    with pytest.raises(DimensionMismatch, match="3x3 congruence"):
        preserves_order(m, Relation.LOWNER, 2, trials=4)
    with pytest.raises(DimensionMismatch, match="3x3 congruence"):
        projector_fixed_point_suite(m, 2, trials=4)


@pytest.mark.filterwarnings("error")
def test_map_images_beyond_the_float_range_raise():
    m = congruence_map(1e200 * np.eye(2))
    for a in (np.eye(2), np.array([np.eye(2), np.zeros((2, 2))])):
        with pytest.raises(PsdOrderError, match="^a map image overflows"):
            m.apply(a)


def test_congruence_preserves_lowner_and_minus():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5):
        s = random_invertible(rng, n)
        m = congruence_map(s)
        for rel in (Relation.LOWNER, Relation.MINUS):
            rep = preserves_order(m, rel, n=n, trials=60, seed=17)
            assert rep.preserves_both, (n, rel, rep.forward_failures, rep.backward_failures)
            assert rep.forward_checked > 10 and rep.backward_checked > 10


def test_orthogonal_congruence_preserves_star():
    rng = np.random.default_rng(5)
    for n in (2, 4):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        rep = preserves_order(congruence_map(q), Relation.STAR, n=n, trials=60, seed=23)
        assert rep.preserves_both, (n, rep.forward_failures, rep.backward_failures)


def test_generic_congruence_breaks_star():
    # conjugation mangles A^2 = AB unless the factor is orthogonal
    s = np.array([[2.0, 1.0], [0.0, 1.0]])
    rep = preserves_order(congruence_map(s), Relation.STAR, n=2, trials=80, seed=29)
    assert rep.forward_failures > 0


def test_trace_inflation_breaks_backward_lowner():
    rep = preserves_order(MatrixMap.trace_inflation(), Relation.LOWNER, n=2,
                          trials=120, seed=31)
    assert rep.preserves_forward
    assert rep.backward_failures > 0
    assert rep.counterexamples
    kind, a, b = rep.counterexamples[0]
    assert kind == "backward"
    ti = MatrixMap.trace_inflation()
    assert lowner_leq(ti.apply(a), ti.apply(b)).holds
    assert not lowner_leq(a, b).holds


def test_rank_collapse_breaks_forward_minus():
    rep = preserves_order(MatrixMap.rank_collapse(), Relation.MINUS, n=3,
                          trials=80, seed=37)
    assert rep.forward_failures > 0
    kind, a, b = rep.counterexamples[0]
    assert kind == "forward"
    rc = MatrixMap.rank_collapse()
    assert minus_leq(a, b).holds
    assert not minus_leq(rc.apply(a), rc.apply(b)).holds


def test_preserves_order_deterministic():
    m = MatrixMap.trace_inflation()
    r1 = preserves_order(m, Relation.LOWNER, n=2, trials=50, seed=41)
    r2 = preserves_order(m, Relation.LOWNER, n=2, trials=50, seed=41)
    assert (r1.forward_failures, r1.backward_failures) == (r2.forward_failures, r2.backward_failures)
    assert (r1.forward_checked, r1.backward_checked) == (r2.forward_checked, r2.backward_checked)
    # another seed draws other pairs, trial by trial; the tallies can
    # coincide, so the pair stacks preserves_order checks are compared
    (a1, b1), (a3, b3) = (sample_pair(Relation.LOWNER, seed, np.arange(50), 2) for seed in (41, 42))
    assert not (a1 == a3).all(axis=(1, 2)).any()
    assert not (b1 == b3).all(axis=(1, 2)).any()


def test_sample_pair_mix():
    # comparable trials must relate, engineered-incomparable ones must not
    for rel in (Relation.LOWNER, Relation.MINUS, Relation.STAR):
        related = unrelated = 0
        for t in range(40):
            a, b = sample_pair(rel, seed=7, trial=t, n=3)
            if rel is Relation.LOWNER:
                holds = lowner_leq(a, b).holds
            elif rel is Relation.MINUS:
                holds = minus_leq(a, b, tol=TOL12).holds
            else:
                holds = star_family_leq(a, b, tol=TOL12).holds
            if t % 4 in (0, 3):
                assert holds, (rel, t)
                related += 1
            elif t % 4 == 1:
                assert not holds, (rel, t)
                unrelated += 1
        assert related and unrelated


@pytest.mark.parametrize("relation", ["lowner", "minus", "star", "left-star", "right-star"])
def test_sampled_pairs_are_related_exactly_where_their_trial_kind_says(relation):
    # preserves_order takes each original pair's status from its trial's
    # kind rather than deciding it, so the stacked decision on the drawn
    # pairs must bear every label out
    trials = np.arange(200)
    incomparable, _ = _trial_kinds(trials)
    # the cycle: comparable, incomparable, chain, comparable
    assert incomparable[:8].tolist() == [False, True, False, False] * 2
    for n in (2, 3, 5, 8):
        for seed in range(3):
            a, b = sample_pair(relation, seed, trials, n)
            holds = holds_stack(sym_stack(a), sym_stack(b), relation)
            assert (holds == ~incomparable).all(), (n, seed, np.flatnonzero(holds == incomparable))


@pytest.mark.parametrize("n", [2, 3, 5, 10])
@pytest.mark.parametrize("relation", ["lowner", "minus", "star", "right-star"])
def test_stacked_sampler_matches_per_trial_reference(relation, n):
    for seed in (0, 7, -3, 2**64 + 11):
        a, b = sample_pair(relation, seed, np.arange(13), n)
        assert a.shape == b.shape == (13, n, n)
        for t in range(13):
            want_a, want_b = per_trial.sample_pair(relation, seed, t, n)
            assert a[t].tobytes() == want_a.tobytes() and b[t].tobytes() == want_b.tobytes()
            one_a, one_b = sample_pair(relation, seed, t, n)
            assert one_a.tobytes() == want_a.tobytes() and one_b.tobytes() == want_b.tobytes()
        # any array of trials, in any order
        a, b = sample_pair(relation, seed, np.array([9, 2, 5]), n)
        for i, t in enumerate((9, 2, 5)):
            want_a, want_b = per_trial.sample_pair(relation, seed, t, n)
            assert a[i].tobytes() == want_a.tobytes() and b[i].tobytes() == want_b.tobytes()


def test_drawn_entries_match_recorded_values():
    # (relation, n, seed, trial): A[0, -1] and B[-1, 0], recorded from the
    # per-trial sampler; trials 1, 2 and 3 are incomparable, chain and
    # comparable draws
    recorded = {
        ("lowner", 3, 7, 1): ("-0x1.54020f498f5c6p+0", "-0x1.91d28804c1fc8p+0"),
        ("lowner", 5, -3, 2): ("-0x1.773a3112db8d3p+0", "-0x1.f974d60484964p-1"),
        ("lowner", 2, 2**64 + 11, 3): ("0x1.9aa53c322999ep-1", "-0x1.4e7cc0f0b0461p+0"),
        ("minus", 3, 7, 1): ("0x1.57f1af98b73d6p-2", "0x1.2824d54cfca2ap-1"),
        ("minus", 5, -3, 2): ("-0x1.046e9694f72bbp-2", "-0x1.32472e4000025p-4"),
        ("minus", 2, 2**64 + 11, 3): ("0x0.0p+0", "0x1.f67fd710bd94cp-2"),
        ("star", 3, 7, 1): ("0x1.66232f59044f1p-3", "-0x1.b7689f9e49d2dp-3"),
        ("star", 5, -3, 2): ("-0x1.1b427f6c6508dp-2", "-0x1.71bc510c56f6ep-3"),
        ("star", 2, 2**64 + 11, 3): ("-0x1.1ec41d2958a2ap-11", "-0x1.1ec41d2958a31p-11"),
    }
    for (relation, n, seed, trial), want in recorded.items():
        a, b = sample_pair(relation, seed, np.arange(trial + 1), n)
        assert (a[trial][0, -1].hex(), b[trial][-1, 0].hex()) == want


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
def test_projector_draws_match_per_trial_reference(n):
    for seed in (0, 7, -3, 2**64 + 11):
        ranks, projectors, shrink = _projectors(seed, 13, n)
        for t in range(13):
            k, p, contraction = per_trial.projector_trial(seed, t, n)
            assert ranks[t] == k and projectors[t].tobytes() == p.tobytes()
            assert (shrink[t] * projectors[t]).tobytes() == contraction.tobytes()


def test_matrix_map_applies_to_stacks():
    # a congruence maps a whole stack in one product S X S^T, the built-in
    # maps in one stacked trace: each image is fn's on its matrix alone
    rng = np.random.default_rng(71)
    double = MatrixMap("double", lambda m: 2.0 * m)
    for n in range(1, 13):
        s = random_invertible(rng, n)
        congruences = [congruence_map(c * s) for c in (1e-6, 1.0, 1e6)]
        assert all(type(m) is MatrixMap for m in congruences)
        for k in (1, 2, 3, 7, 16, 48):
            x = rng.standard_normal((k, n, n))
            for mmap in (*congruences, MatrixMap.trace_inflation(), MatrixMap.rank_collapse(), double):
                got = mmap.apply(x)
                assert got.shape == x.shape
                for m, image in zip(x, got):
                    sym = 0.5 * (m + m.T)
                    assert image.tobytes() == mmap.fn(sym[None])[0].tobytes(), (n, k, mmap)
                    assert mmap.apply(m).tobytes() == image.tobytes()
                    assert mmap.apply(SymMatrix(m)).tobytes() == image.tobytes()
                assert mmap.apply(np.empty((0, n, n))).shape == (0, n, n)
    # the stacked trace sums each diagonal as np.trace sums it alone, also
    # past the 8 terms where numpy's sums turn pairwise and past a block of 128
    alone = {"trace-inflation": lambda a: a + np.trace(a) * np.eye(len(a)),
             "rank-collapse": lambda a: np.diag(np.r_[np.trace(a), np.zeros(len(a) - 1)])}
    for n in (13, 20, 50, 130, 300):
        x = rng.standard_normal((5, n, n)) * 10.0 ** rng.integers(-3, 4, size=(5, 1, 1))
        for mmap in (MatrixMap.trace_inflation(), MatrixMap.rank_collapse()):
            for m, image in zip(x, mmap.apply(x)):
                assert image.tobytes() == alone[mmap.label](0.5 * (m + m.T)).tobytes(), (n, mmap)
    x = rng.standard_normal((6, 4, 4))
    bad = x.copy()
    bad[3, 1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        MatrixMap.trace_inflation().apply(bad)
    with pytest.raises(DimensionMismatch):
        MatrixMap.trace_inflation().apply(x[:, :, :3])
    # images of another shape than their matrices', here cropped to 2 x 2,
    # are a fault of the map wherever it is applied
    crop = MatrixMap("crop", lambda x: x[:, :2, :2])
    for call in (lambda: crop.apply(np.eye(3)), lambda: crop.apply(x[:, :3, :3]),
                 lambda: preserves_order(crop, Relation.LOWNER, 3, trials=8),
                 lambda: projector_fixed_point_suite(crop, 3, trials=8)):
        with pytest.raises(DimensionMismatch, match="'crop' gave images of shape"):
            call()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
def test_orthogonal_factor_has_r_with_a_nonnegative_diagonal(n):
    # Q of Z = Q R, drawn for a stack: Q is orthogonal and R = Q^T Z is
    # upper triangular with a nonnegative diagonal, also where a column of
    # Z is zero and R's diagonal entry with it (its sign is taken as +1)
    rng = np.random.default_rng(90 + n)
    z = rng.standard_normal((24, n * n + 3))
    zero = z[:8, :n * n].reshape(8, n, n)
    zero[np.arange(8), :, np.arange(8) % n] = 0.0
    q = _orthogonal(z, n)
    zs = z[:, :n * n].reshape(-1, n, n)
    r = q.swapaxes(-1, -2) @ zs
    assert np.abs(q.swapaxes(-1, -2) @ q - np.eye(n)).max() <= 1e-13
    assert np.abs(np.tril(r, -1)).max() <= 1e-13 * np.abs(zs).max()
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    assert (diagonal >= 0.0).all()
    assert (diagonal[np.arange(8), np.arange(8) % n] == 0.0).all()


def test_probe_inputs():
    probes = probe_inputs(3)
    assert len(probes) == 5
    np.testing.assert_array_equal(probes[0], np.diag([1.0, 0.0, 0.0]))
    np.testing.assert_array_equal(probes[2], np.diag([0.0, 0.0, 1.0]))
    mixed = probes[3]
    np.testing.assert_array_equal(mixed, np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]], dtype=float))
    assert all(p.shape == (3, 3) for p in probes)
    assert len(probe_inputs(1)) == 1


def test_fit_congruence_recovers_s():
    rng = np.random.default_rng(43)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        s = random_invertible(rng, n)
        samples = [(p, s @ p @ s.T) for p in probe_inputs(n)]
        fitted = fit_congruence(samples)
        target = normalize_sign(s)
        assert maxabs(fitted - target) <= 1e-8 * max(1.0, maxabs(target))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [-500, -300, 300, 500])
def test_fit_congruence_recovers_s_at_any_scale(k):
    # s_0^T cross_i s_0 carries four factors of S's scale, so formed as it
    # stands it leaves the float range from about 2^256 and underflows below
    # 2^-256, although every probe image is representable
    s = np.ldexp(np.array([[1.0, 1.0], [0.0, 1.0]]), k)
    samples = [(p, s @ p @ s.T) for p in probe_inputs(2)]
    assert fit_congruence(samples).tobytes() == s.tobytes()


def test_fit_congruence_sign_insensitive():
    rng = np.random.default_rng(47)
    s = random_invertible(rng, 4)
    samples = [(p, s @ p @ s.T) for p in probe_inputs(4)]
    fitted = fit_congruence(samples)
    # congruence by -S is the same map, so only the normalized sign is fixed
    samples_neg = [(p, (-s) @ p @ (-s).T) for p in probe_inputs(4)]
    np.testing.assert_allclose(fit_congruence(samples_neg), fitted, atol=1e-10)
    col = fitted[:, 0]
    nz = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())
    assert col[nz[0]] > 0


def test_fit_congruence_diagonal_with_negative_entries():
    s = np.diag([2.0, -3.0, 0.5])
    samples = [(p, s @ p @ s.T) for p in probe_inputs(3)]
    fitted = fit_congruence(samples)
    predicted = fitted @ np.diag([1.0, 2.0, 3.0]) @ fitted.T
    np.testing.assert_allclose(predicted, s @ np.diag([1.0, 2.0, 3.0]) @ s.T, atol=1e-12)


def test_fit_congruence_validates_extra_samples():
    rng = np.random.default_rng(53)
    s = random_invertible(rng, 3)
    samples = [(p, s @ p @ s.T) for p in probe_inputs(3)]
    extra_in = rng.uniform(-1, 1, size=(3, 3))
    extra_in = extra_in + extra_in.T
    samples.append((extra_in, s @ extra_in @ s.T))
    fit_congruence(samples)  # consistent extras are fine
    samples[-1] = (extra_in, s @ extra_in @ s.T + 1e-3 * np.eye(3))
    with pytest.raises(InconsistentSamples):
        fit_congruence(samples)


@pytest.mark.filterwarnings("error")
def test_fit_congruence_rejects_a_sample_whose_prediction_overflows():
    # S = 1e100 I explains the probes, but S X S^T for X = 1e200 I lies
    # beyond the float range, so it cannot be the sample's I
    s = 1e100 * np.eye(2)
    samples = [(p, s @ p @ s.T) for p in probe_inputs(2)] + [(1e200 * np.eye(2), np.eye(2))]
    with pytest.raises(InconsistentSamples, match="a sample disagrees"):
        fit_congruence(samples)


@pytest.mark.filterwarnings("error")
def test_fit_congruence_rejects_a_column_whose_image_overflows():
    # the mixed probe's image gives s_1 = 1e200 e_1, whose s_1 s_1^T lies
    # beyond the float range, so it cannot be the diagonal probe's e_1 e_1^T
    e0, e1 = np.eye(2)
    s0, s1 = 1e-100 * e0, 1e200 * e1
    images = [np.outer(s0, s0), np.outer(e1, e1)]
    images.append(images[0] + images[1] + np.outer(s0, s1) + np.outer(s1, s0))
    with pytest.raises(InconsistentSamples, match="column 1 reconstructed"):
        fit_congruence(list(zip(probe_inputs(2), images)))


def test_fit_congruence_rejects_samples_of_mixed_shapes():
    samples = [(p, p) for p in probe_inputs(3)] + [(np.eye(2), np.eye(2))]
    with pytest.raises(DimensionMismatch):
        fit_congruence(samples)
    with pytest.raises(DimensionMismatch):
        fit_congruence([(p, p[:, :2]) for p in probe_inputs(3)])


def test_fit_congruence_rejects_empty_matrices():
    with pytest.raises(DimensionMismatch, match="1x1"):
        fit_congruence([(np.zeros((0, 0)), np.zeros((0, 0)))])


def test_fit_congruence_names_the_first_inconsistent_column():
    rng = np.random.default_rng(79)
    s = random_invertible(rng, 5)
    samples = [(p, s @ p @ s.T) for p in probe_inputs(5)]
    for i in (4, 2, 3):  # diagonal probe images of columns 2, 3 and 4
        samples[i] = (samples[i][0], 3.0 * samples[i][1])
    with pytest.raises(InconsistentSamples, match="^column 2 "):
        fit_congruence(samples)


def test_fit_congruence_missing_probe():
    rng = np.random.default_rng(59)
    s = random_invertible(rng, 3)
    samples = [(p, s @ p @ s.T) for p in probe_inputs(3)][:-1]
    with pytest.raises(InconsistentSamples, match="missing"):
        fit_congruence(samples)
    with pytest.raises(InconsistentSamples):
        fit_congruence([])


def test_fit_congruence_rejects_non_congruence_map():
    ti = MatrixMap.trace_inflation()
    samples = [(p, ti.apply(p)) for p in probe_inputs(3)]
    with pytest.raises(InconsistentSamples):
        fit_congruence(samples)


def test_fit_congruence_rejects_corrupted_probe():
    rng = np.random.default_rng(61)
    s = random_invertible(rng, 3)
    samples = [(p, s @ p @ s.T) for p in probe_inputs(3)]
    bad = samples[1][1].copy()
    bad[0, 0] += 0.1
    samples[1] = (samples[1][0], bad)
    with pytest.raises(InconsistentSamples):
        fit_congruence(samples)


def _fit_outcome(fit, samples):
    try:
        return fit(samples).tobytes()
    except InconsistentSamples as exc:
        return str(exc)


def test_fit_congruence_matches_per_sample_reference():
    rng = np.random.default_rng(73)
    outcomes = set()
    for trial in range(70):
        n = int(rng.integers(1, 7))
        s = random_invertible(rng, n)
        given = probe_inputs(n) + [g @ g.T for g in rng.standard_normal((int(rng.integers(0, 5)), n, 2))]
        samples = [(x, s @ x @ s.T) for x in given]
        case = trial % 7
        if case == 1:  # the last probe twice, the first copy's image kept
            last = len(probe_inputs(n)) - 1
            samples.insert(0, (samples[last][0], 2.0 * samples[last][1]))
        elif case == 2:  # a probe missing
            del samples[int(rng.integers(len(probe_inputs(n))))]
        elif case == 3:  # first probe's image not rank one
            samples[0] = (samples[0][0], s @ s.T)
        elif case == 4 and n > 1:  # a diagonal probe image inconsistent with its mixed probe
            samples[n - 1] = (samples[n - 1][0], 3.0 * samples[n - 1][1])
        elif case == 5:  # a sample the fitted S does not explain
            samples.append((np.eye(n), s @ s.T + 1e-3 * np.eye(n)))
        elif case == 6:  # a sample with a probe's diagonal, off it elsewhere
            near = probe_inputs(n)[-1] + 1e-3 * (1.0 - np.eye(n))
            samples.insert(0, (near, s @ near @ s.T))
        got = _fit_outcome(fit_congruence, samples)
        assert got == _fit_outcome(ref.fit_congruence, samples), (trial, n)
        outcomes.add(got if isinstance(got, str) else "fitted")
    # a fit, and each way to fail: missing, first probe, column, sample
    assert {o.split()[0] for o in outcomes} == {"fitted", "probe", "image", "column", "a"}
    with pytest.raises(InconsistentSamples, match="no samples given"):
        fit_congruence([])
    with pytest.raises(InconsistentSamples, match="no samples given"):
        fit_congruence(iter([]))


def test_projector_fixed_point_suite():
    rng = np.random.default_rng(67)
    ident = MatrixMap("identity", lambda m: m.copy())
    rep = projector_fixed_point_suite(ident, n=4, trials=40, seed=3, tol=TOL12)
    assert rep.forward_failures == 0 and rep.backward_failures == 0
    cong = congruence_map(random_invertible(rng, 4))
    rep = projector_fixed_point_suite(cong, n=4, trials=40, seed=3, tol=TOL12)
    assert rep.forward_failures == 0 and rep.backward_failures == 0
    rep = projector_fixed_point_suite(MatrixMap.trace_inflation(), n=4, trials=40,
                                      seed=3, tol=TOL12)
    assert rep.forward_failures == 0
    assert rep.backward_failures > 0


# The sweeps draw all their trials at once and decide them in one stacked
# check; these references draw the same trials one at a time with the
# per-trial samplers of per_trial and decide them pair by pair with the
# scalar verdicts.


def _reference_preserves(mmap, relation, n, trials, seed, tol=DEFAULT_TOL):
    counts = [0, 0, 0, 0]  # forward checked/failures, backward checked/failures
    examples = []
    for t in range(trials):
        a, b = per_trial.sample_pair(relation, seed, t, n)
        before = order_leq(a, b, relation, tol).holds
        after = order_leq(mmap.apply(a), mmap.apply(b), relation, tol).holds
        for side, (given, implied) in enumerate(((before, after), (after, before))):
            if given:
                counts[2 * side] += 1
                if not implied:
                    counts[2 * side + 1] += 1
                    examples.append((("forward", "backward")[side], a, b))
    return counts, examples[:5]


def _reference_projector_suite(mmap, n, trials, seed):
    identity = np.eye(n)

    def on_interval(p, contraction, top, k):
        return (lowner_leq(p, top).holds and minus_leq(p, top).holds
                and lowner_leq(contraction, top).holds
                and (k == 0 or not minus_leq(contraction, top).holds))

    counts = [0, 0, 0, 0]
    examples = []
    for t in range(trials):
        k, p, contraction = per_trial.projector_trial(seed, t, n)
        counts[0] += 1
        if not on_interval(p, contraction, identity, k):
            counts[1] += 1
            examples.append(("invariant", p, identity))
            continue
        counts[2] += 1
        if not on_interval(mmap.apply(p), mmap.apply(contraction), mmap.apply(identity), k):
            counts[3] += 1
            examples.append(("image", p, identity))
    return counts, examples[:5]


def _as_reference(report):
    counts = [report.forward_checked, report.forward_failures,
              report.backward_checked, report.backward_failures]
    return counts, report.counterexamples


def _assert_same(got, want):
    assert got[0] == want[0]
    assert len(got[1]) == len(want[1])
    for (kind, a, b), (want_kind, want_a, want_b) in zip(*(got[1], want[1])):
        assert kind == want_kind
        assert a.tobytes() == want_a.tobytes() and b.tobytes() == want_b.tobytes()


def _sweep_maps(n, k):
    rng = np.random.default_rng(100 * n + k)
    scale = 10.0 ** (k / 2)  # images scale by 10^k
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return [
        congruence_map(scale * random_invertible(rng, n, limit=50.0)),
        congruence_map(scale * q),
        MatrixMap.trace_inflation(),
        MatrixMap.rank_collapse(),
    ]


@pytest.mark.parametrize("n", [2, 3, 5, 10])
@pytest.mark.parametrize("relation", ["lowner", "minus", "star"])
def test_preserves_order_matches_per_pair_reference(relation, n):
    for k in (-6, 0, 6):
        for mmap in _sweep_maps(n, k):
            seed = 7 * n + k
            got = _as_reference(preserves_order(mmap, relation, n, trials=40, seed=seed))
            _assert_same(got, _reference_preserves(mmap, relation, n, 40, seed))


@pytest.mark.parametrize("tol", [ToleranceConfig(psd_tol=0.5), ToleranceConfig(rank_rel_tol=0.5),
                                 ToleranceConfig(psd_tol=1e-12, rank_rel_tol=1e-13)])
@pytest.mark.parametrize("relation", ["lowner", "minus", "star"])
def test_preserves_order_under_other_tolerances_matches_per_pair_reference(relation, tol):
    # away from the default tolerances a sampled pair's label need not be
    # its verdict, so the originals are decided under the same tolerances
    # as their images and the identity still passes
    for n in (2, 5):
        assert preserves_order(congruence_map(np.eye(n)), relation, n, trials=40, seed=n, tol=tol).preserves_both
        for mmap in _sweep_maps(n, 0):
            got = preserves_order(mmap, relation, n, trials=40, seed=n, tol=tol)
            _assert_same(_as_reference(got), _reference_preserves(mmap, relation, n, 40, n, tol))


@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_projector_suite_matches_per_pair_reference(n):
    for k in (-6, 0, 6):
        for mmap in _sweep_maps(n, k):
            seed = 11 * n + k
            got = _as_reference(projector_fixed_point_suite(mmap, n, trials=40, seed=seed))
            _assert_same(got, _reference_projector_suite(mmap, n, 40, seed))


def test_sweep_references_see_failures():
    # the maps above break the orders on some trials, so the comparisons
    # cover counterexamples and not only clean reports
    counts, examples = _reference_preserves(MatrixMap.trace_inflation(), "lowner", 3, 40, 1)
    assert counts[3] > 0 and examples[0][0] == "backward"
    counts, examples = _reference_preserves(MatrixMap.rank_collapse(), "minus", 3, 40, 1)
    assert counts[1] > 0 and examples[0][0] == "forward"
    counts, examples = _reference_projector_suite(MatrixMap.rank_collapse(), 3, 40, 1)
    assert counts[3] > 0 and examples[0][0] == "image"


def test_sweeps_with_no_trials():
    # zero checks show nothing, so a sweep with no trial (or fewer) has no
    # answer to give, where it once reported "preserves"
    m = MatrixMap.trace_inflation()
    for trials in (0, -1):
        for relation in ("lowner", "minus", "star"):
            with pytest.raises(ValueError, match="trials >= 1"):
                preserves_order(m, relation, n=3, trials=trials)
        with pytest.raises(ValueError, match="trials >= 1"):
            projector_fixed_point_suite(m, n=3, trials=trials)


def test_sweeps_reject_sizes_they_cannot_draw():
    # every fourth trial of preserves_order draws an incomparable pair,
    # which needs n >= 2, so n < 2 is refused whatever the trial count;
    # the projector suite draws a projector of any size from 1 up
    m = MatrixMap.trace_inflation()
    for n in (0, 1):
        for trials in (1, 2):
            with pytest.raises(ValueError, match="n >= 2"):
                preserves_order(m, "lowner", n=n, trials=trials)
    with pytest.raises(ValueError, match="n >= 1"):
        projector_fixed_point_suite(m, n=0, trials=1)
    assert preserves_order(m, "lowner", n=2, trials=1).trials == 1
    assert projector_fixed_point_suite(m, n=1, trials=1).forward_checked == 1
