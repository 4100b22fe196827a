"""One owner for a matrix's spectrum and for the scale policy: each call
decomposes the matrices it needs in stacked calls, eigvalsh where it
reads no eigenvector and eigh where it does, and keeps no spectrum on a
matrix object, rank and PSD cutoffs are questions to the spectra it
computed, and every tolerance is relative to the inputs, so scaling a
pair by c > 0 leaves each verdict unchanged."""

import dataclasses
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from psdorder import (
    DEFAULT_TOL,
    DimensionMismatch,
    Inertia,
    LinearModel,
    MinusMethod,
    PsdMatrix,
    PsdOrderError,
    Relation,
    SymMatrix,
    ToleranceConfig,
    blue_check,
    fit_congruence,
    inertia,
    lowner_leq,
    mc_quadratic_forms,
    minus_leq,
    model_compare,
    order_holds_many,
    order_leq,
    preserves_order,
    probe_inputs,
    projector_fixed_point_suite,
    qform_rank_criterion,
    sim_congruence,
    star_family_leq,
)
from psdorder import canonical, numkernel, orders
from psdorder.numkernel import column_span, min_singular_value, rel_residual
from psdorder.preservers import _projectors, congruence_map, sample_pair
from reference_verdicts import canonical_eig


@pytest.fixture
def eigh_calls(monkeypatch):
    """The calls of numpy.linalg.eigh and numpy.linalg.eigvalsh made while
    the test runs, in order, each as (routine, matrices in its stack)."""
    calls = []

    def counting(name):
        real = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            calls.append((name, len(a)))
            return real(a, *args, **kwargs)

        return call

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    return calls


def _routines(calls):
    """The routine of each call eigh_calls recorded."""
    return [name for name, _ in calls]


# the routine a sweep's stacked decision calls: every decision reads
# eigenvalues alone, the star family's those of the minus decision
SWEEP_ROUTINE = {"lowner": "eigvalsh", "minus": "eigvalsh", "star": "eigvalsh"}


def _pairs():
    """(A, B) below each other ("holds") and incomparable ("fails") for
    each relation, built on one well-conditioned congruence."""
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    s = q * np.array([1.0, 2.0, 0.5, 1.5])
    cong = lambda d: (s * np.asarray(d, dtype=float)) @ s.T  # noqa: E731
    orth = lambda d: (q * np.asarray(d, dtype=float)) @ q.T  # noqa: E731
    return {
        "lowner": {
            "holds": (cong([1, 1, 0, 0]), cong([2, 1, 1, 0])),
            "fails": (cong([1, 2, 0, 0]), cong([2, 1, 0, 0])),
        },
        "minus": {
            "holds": (cong([1, 0, 0, 0]), cong([1, 1, 1, 0])),
            "fails": (cong([1, 1, 0, 0]), cong([2, 3, 0, 0])),
        },
        "star": {
            "holds": (orth([1, 0, 0, 0]), orth([1, 2, 0, 0])),
            "fails": (orth([1, 1, 0, 0]), orth([2, 1, 0, 0])),
        },
    }


PAIRS = _pairs()


def _verdict(route, a, b):
    if route == "lowner":
        return lowner_leq(a, b)
    if route.startswith("minus"):
        return minus_leq(a, b, method=route.split("_")[1])
    return star_family_leq(a, b, Relation.STAR)


# the routine of a scalar verdict's one call: the rank route and the star
# family, which decides on it, read eigenvalues alone, every other route
# eigenvectors too (a failing Loewner verdict's witness, the image and
# ginv certificates)
VERDICT_ROUTINE = {"minus_rank": "eigvalsh", "star": "eigvalsh"}


@pytest.mark.parametrize("route, holds_eighs, fails_eighs", [
    ("lowner", 1, 1),
    ("minus_rank", 1, 1),
    ("minus_image", 1, 1),
    ("minus_ginv", 1, 1),
    ("star", 1, 1),  # A, B and B - A in one call, as the rank route
])
def test_eigh_calls_per_verdict(eigh_calls, route, holds_eighs, fails_eighs):
    pairs = PAIRS[route.split("_")[0]]
    for label, expected in (("holds", holds_eighs), ("fails", fails_eighs)):
        eigh_calls.clear()
        verdict = _verdict(route, *pairs[label])
        assert verdict.holds == (label == "holds")
        assert verdict.detail == ("strictly less" if label == "holds" else "incomparable")
        assert _routines(eigh_calls) == [VERDICT_ROUTINE.get(route, "eigh")] * expected, (route, label)


@pytest.mark.parametrize("relation", ["lowner", "minus", "star"])
def test_sweep_eigh_calls_do_not_grow_with_trials(eigh_calls, relation):
    s = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.0, 1.5]])
    mmap = congruence_map(s)
    for trials in (1, 4, 40):
        eigh_calls.clear()
        preserves_order(mmap, relation, n=3, trials=trials, seed=5)
        # the originals' status is known by construction, so only the image
        # pairs are decided: B - A of each (Loewner), or A, B and B - A
        assert eigh_calls == [(SWEEP_ROUTINE[relation], (1 if relation == "lowner" else 3) * trials)], trials
        eigh_calls.clear()
        projector_fixed_point_suite(mmap, n=3, trials=trials, seed=5)
        # one stack per side, P, t P, I and the differences, then their
        # images, all in one call: the Loewner and the minus decisions read
        # the same values-only spectra
        assert eigh_calls == [("eigvalsh", 8 * trials + 2)], trials


@pytest.mark.parametrize("relation", ["lowner", "minus", "star"])
def test_sampler_makes_one_qr_call_per_draw(monkeypatch, relation):
    # every kind of trial is drawn in one pass, so all the orthogonal
    # factors of a call come from one stacked QR, whatever the mix of kinds
    calls = []
    real = np.linalg.qr

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    for trials in (1, 4, 13, 40):
        calls.clear()
        sample_pair(relation, 5, np.arange(trials), 4)
        # the PSD order's comparable and chain pairs need no Q
        assert len(calls) == int(relation != "lowner" or trials > 1), (relation, trials, calls)


@pytest.mark.parametrize("k", [1, 2, 7, 16])
@pytest.mark.parametrize("n", [2, 3, 5, 10, 50])
def test_stacked_eigh_matches_per_matrix_eigh(n, k):
    # the premise of the stacked core: LAPACK on a (k, n, n) stack gives
    # each matrix the bits a call on it alone gives
    rng = np.random.default_rng(1000 * n + k)
    g = rng.standard_normal((k, n, n))
    x = g + g.swapaxes(1, 2)
    q, _ = np.linalg.qr(g[0])
    x[0] = (q * np.r_[np.ones(n // 2), np.zeros(n - n // 2)]) @ q.T  # a projector
    x[-1] = np.diag(np.r_[np.ones(n - 1), 0.0])  # exactly repeated eigenvalues
    values, vectors = np.linalg.eigh(x)
    for i in range(k):
        v, q = np.linalg.eigh(x[i])
        assert v.tobytes() == values[i].tobytes()
        assert q.tobytes() == vectors[i].tobytes()


@pytest.mark.parametrize("k", [1, 2, 7, 48])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 20, 50])
def test_stacked_eigvalsh_matches_per_matrix_eigvalsh(n, k):
    # the premise of the values-only sweeps: eigvalsh on a (k, n, n) stack,
    # and eigvalsh_stack with it, gives each matrix the bits a call on it
    # alone gives
    rng = np.random.default_rng(3000 * n + k)
    g = rng.standard_normal((k, n, n))
    x = g + g.swapaxes(1, 2)
    q, _ = np.linalg.qr(g[0])
    x[0] = (q * np.r_[np.ones(n // 2), np.zeros(n - n // 2)]) @ q.T  # a projector
    x[-1] = np.diag(np.r_[np.ones(n - 1), 0.0])  # exactly repeated eigenvalues
    values = numkernel.eigvalsh_stack(x)
    assert values.tobytes() == np.linalg.eigvalsh(x).tobytes()
    for i in range(k):
        assert np.linalg.eigvalsh(x[i]).tobytes() == values[i].tobytes()


@pytest.mark.parametrize("k", [1, 2, 7, 40])
@pytest.mark.parametrize("n", [2, 3, 5, 10, 16])
def test_stacked_kernels_match_per_matrix_calls(n, k):
    # the premise of the stacked samplers and fit_congruence: QR, gemm,
    # G G^T (syrk) and S X S^T on a (k, n, n) stack give each matrix the
    # bits a call on it alone gives
    rng = np.random.default_rng(2000 * n + k)
    g, x = rng.standard_normal((2, k, n, n))
    d = rng.uniform(0.5, 2.0, (k, n))
    s = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    # a masked projection: eigenvectors with the dropped columns zeroed, a
    # different mask per matrix, projected the way outside_span projects
    v = np.linalg.eigh(x + x.swapaxes(-1, -2))[1]
    keep = rng.uniform(size=(k, n)) < 0.5
    span = v * keep[:, None, :]
    products = {
        "gemm": (g * d[:, None, :]) @ x.swapaxes(-1, -2),
        "syrk": g @ g.swapaxes(-1, -2),
        "sxst": s @ x @ s.T,
        "masked": span @ (span.swapaxes(-1, -2) @ x),
    }
    for i in range(k):
        q_i, r_i = np.linalg.qr(g[i])
        assert q_i.tobytes() == q[i].tobytes() and r_i.tobytes() == r[i].tobytes()
        assert ((g[i] * d[i]) @ x[i].T).tobytes() == products["gemm"][i].tobytes()
        assert (g[i] @ g[i].T).tobytes() == products["syrk"][i].tobytes()
        assert (s @ x[i] @ s.T).tobytes() == products["sxst"][i].tobytes()
        span_i = v[i] * keep[i]
        assert (span_i @ (span_i.T @ x[i])).tobytes() == products["masked"][i].tobytes()


@pytest.mark.parametrize("relation", ["lowner", "minus", "star"])
def test_order_holds_many_with_one_b_decomposes_it_once(eigh_calls, relation):
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    b = (q * np.array([1.0, 1.0, 1.0, 0.0])) @ q.T
    pairs = [sample_pair(relation, 3, t, 4)[0] for t in range(12)]
    a = np.array([*pairs, b, 0.5 * b, (q * np.array([1.0, 0.0, 0.0, 0.0])) @ q.T])
    got = order_holds_many(a, b, relation)
    assert len(eigh_calls) == 1
    # B - A for each A, or the A's, the shared B and the B - A's
    assert eigh_calls[0] == (SWEEP_ROUTINE[relation], len(a) if relation == "lowner" else 2 * len(a) + 1)
    assert got.tolist() == order_holds_many(a, np.broadcast_to(b, a.shape), relation).tolist()
    assert got.tolist() == [order_leq(x, b, relation).holds for x in a]
    assert 0 < got.sum() < len(a)
    with pytest.raises(DimensionMismatch):
        order_holds_many(a, b[:3, :3], relation)
    with pytest.raises(DimensionMismatch):
        order_holds_many(a, b[None], relation)


# Pairs exact in floating point whose answers differ by order: E_1 below I
# in all three; I below E_1 in none; E_1 below diag(2, 1, 0) in the PSD
# order only; E_1 below E_1 + v v^T, v = (1, 1, 0) / sqrt 2, in the PSD
# and minus orders, but E_1 v v^T != 0.  Then As for that B shared: E_1,
# B, 2 B and B / 2.
_E1, _VV = np.diag([1.0, 0.0, 0.0]), np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]])
_EDGE_PAIRS = (np.array([_E1, np.eye(3), _E1, _E1]),
               np.array([np.eye(3), _E1, np.diag([2.0, 1.0, 0.0]), _E1 + _VV]))
_EDGE_SHARED = np.array([_E1, _E1 + _VV, 2.0 * (_E1 + _VV), 0.5 * (_E1 + _VV)]), _E1 + _VV
_EDGE_HOLDS = {
    "lowner": ([True, False, True, True], [True, True, False, True]),
    "minus": ([True, False, False, True], [True, True, False, False]),
    "star": ([True, False, False, False], [False, True, False, False]),
}


@pytest.mark.parametrize("relation", ["lowner", "minus", "star"])
def test_order_holds_many_gathers_each_pair_at_every_edge(relation):
    # the stacked decision reads each pair's entries of [A, B, B - A] in one
    # gather; a stack of 2k + 1 matrices holds a shared B, and at k = 1 the
    # two layouts coincide: k = 0, 1 and 4 pairs of their own, against a
    # shared B, and of 0 x 0 matrices
    pairs, shared = _EDGE_HOLDS[relation]
    cases = [(_EDGE_PAIRS[0][:k], _EDGE_PAIRS[1][:k], pairs[:k]) for k in (0, 1, 4)]
    cases += [(_EDGE_SHARED[0][:k], _EDGE_SHARED[1], shared[:k]) for k in (0, 1, 4)]
    cases += [(np.zeros((k, 0, 0)), b, [True] * k)
              for k in (0, 1, 4) for b in (np.zeros((k, 0, 0)), np.zeros((0, 0)))]
    for a, b, want in cases:
        got = order_holds_many(a, b, relation)
        assert got.dtype == bool and got.shape == (len(a),) and got.tolist() == want, (a.shape, np.shape(b))
        for i, x in enumerate(a):
            assert order_leq(x, b if np.ndim(b) == 2 else b[i], relation).holds == want[i]


@pytest.mark.parametrize("relation", ["lowner", "minus", "star", "left-star", "right-star"])
def test_order_holds_many_matches_order_leq(relation):
    base = relation if relation in ("lowner", "minus") else "star"
    pairs = [sample_pair(base, 3, t, n) for n in (4,) for t in range(24)]
    pairs += [(b, a) for a, b in pairs]
    pairs += [(1e-200 * a, 1e-200 * b) for a, b in pairs[:8]]
    pairs += [(np.zeros((4, 4)), np.zeros((4, 4))), (np.zeros((4, 4)), pairs[0][1])]
    a, b = np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])
    want = [order_leq(x, y, relation).holds for x, y in pairs]
    got = order_holds_many(a, b, relation)
    assert got.dtype == bool and got.tolist() == want
    assert 0 < sum(want) < len(want)
    with pytest.raises(DimensionMismatch):
        order_holds_many(a, b[:, :3, :3], relation)


def _near_cutoff(verdict, a, b):
    """How far, in eps times the spectral radius, the eigenvalue nearest a
    scalar verdict's cutoff lies from it: the smallest eigenvalue of B - A
    from minus the threshold (Loewner), or the magnitude nearest the rank
    cutoff among those of A, B and B - A (minus); inf when every eigenvalue
    is zero, which either solver returns exactly."""
    cert = verdict.certificate
    if verdict.relation == "lowner":
        values = np.linalg.eigvalsh(b - a)
        gap = abs(cert["min_eig"] + cert["threshold"])
    else:
        values = np.linalg.eigvalsh(np.array([a, b, b - a]))
        gap = np.abs(np.abs(values) - cert["cutoff"]).min()
    radius = np.abs(values).max()
    return gap / (np.finfo(float).eps * radius) if radius else np.inf


@pytest.mark.parametrize("relation", ["lowner", "minus"])
def test_order_holds_many_differs_from_order_leq_only_at_a_cutoff(relation):
    # the stacked Loewner decision reads eigvalsh's values and the scalar
    # check eigh's, which may put an eigenvalue within a few eps times the
    # spectral radius of the threshold on either side of it, and nowhere
    # else may they disagree; the minus decisions both read eigvalsh's and
    # agree everywhere: projector suite and sampled pairs, before and after
    # congruences that scale them by 10^k, |k| <= 6
    decided, held = 0, 0
    for n in range(2, 11):
        # entries in [0.5, 1.5): condition numbers up to about 3e4
        s = 0.5 + np.random.default_rng(n).uniform(size=(n, n))
        _, projectors, shrink = _projectors(n, 8, n)
        eye = np.broadcast_to(np.eye(n), projectors.shape)
        x = np.concatenate([projectors, shrink[:, None, None] * projectors])
        pa, pb = sample_pair(relation, n, np.arange(8), n)
        for k in (-6, -3, 0, 3, 6):
            mmap = congruence_map(10.0 ** (k / 2) * s)
            for pair in ((x, np.concatenate([eye, eye])), (pa, pb)):
                for a, b in (pair, tuple(map(mmap.apply, pair))):
                    got = order_holds_many(a, b, relation)
                    for x_a, x_b, holds in zip(a, b, got.tolist()):
                        verdict = order_leq(x_a, x_b, relation)
                        decided, held = decided + 1, held + holds
                        if holds != verdict.holds:
                            assert relation == "lowner", (n, k)
                            assert _near_cutoff(verdict, x_a, x_b) <= 8.0, (n, k)
    assert decided == 9 * 5 * 2 * 24 and 0 < held < decided


@pytest.mark.parametrize("relation", ["lowner", "minus"])
def test_order_holds_many_matches_the_exact_oracle(relation):
    exact = {"lowner": oracles.exact_lowner_leq, "minus": oracles.exact_minus_leq}[relation]
    rng = np.random.default_rng(61)
    for n in range(1, 7):
        pairs = [oracles.exact_minus_pair(rng, n) for _ in range(12)]
        pairs += [(a, a + oracles.integer_psd(rng, n)) for a, _ in pairs[:6]]
        pairs += [(oracles.integer_psd(rng, n), oracles.integer_psd(rng, n)) for _ in range(12)]
        pairs += [(b, a) for a, b in pairs[:12]]
        a, b = (np.array(m, dtype=float) for m in zip(*pairs))
        want = [exact(x, y) for x, y in pairs]
        assert order_holds_many(a, b, relation).tolist() == want, n
        assert 0 < sum(want) < len(want)


@pytest.mark.parametrize("relation", ["star", "left-star", "right-star"])
def test_star_stack_mixes_every_image_rank(relation):
    # one pair per image rank of B, 0 to n, holding and failing, in one
    # stack: each decision is the one a pair alone gets
    n = 5
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    pairs, labels = [], []
    for rank in range(n + 1):
        d_b = np.r_[rng.uniform(0.5, 2.0, rank), np.zeros(n - rank)]
        d_a = d_b * (rng.uniform(size=n) < 0.5)
        pairs.append(((q * d_a) @ q.T, (q * d_b) @ q.T))  # A star-below B
        labels.append(True)
        if rank:
            # B's spectrum moved one place: A^2 != A B
            pairs.append(((q * np.roll(d_b, 1)) @ q.T, (q * d_b) @ q.T))
            labels.append(False)
    a, b = np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])
    assert sorted({int(np.linalg.matrix_rank(x)) for x in b}) == list(range(n + 1))
    assert [order_leq(x, y, relation).holds for x, y in pairs] == labels
    assert order_holds_many(a, b, relation).tolist() == labels


@pytest.fixture
def sign_fixed(monkeypatch):
    """The number of rows of each fix_signs call orders and numkernel make
    while the test runs, in order."""
    rows = []
    real = numkernel.fix_signs

    def counting(x):
        rows.append(int(np.prod(x.shape[:-1])))
        return real(x)

    for module in (orders, numkernel):
        monkeypatch.setattr(module, "fix_signs", counting)
    return rows


def test_star_and_image_routes_order_no_eigenvectors(sign_fixed):
    # the image and ginv routes check the direct sum and read G off eigh's
    # raw factors, whose order and signs neither depends on, and the star
    # family reads eigenvalues alone, so none sign-fixes eigenvectors; nor
    # does a Loewner verdict, whose witness is one column read from eigh's
    # output, or a failing ginv verdict, which carries the rank route's
    # certificate and no inner inverse, its cutoff from eigh's values where
    # the rank route reads eigvalsh's
    for label in ("holds", "fails"):
        assert _verdict("minus_image", *PAIRS["minus"][label]).holds == (label == "holds")
        assert _verdict("minus_ginv", *PAIRS["minus"][label]).holds == (label == "holds")
        assert _verdict("lowner", *PAIRS["lowner"][label]).holds == (label == "holds")
        a, b = PAIRS["star"][label]
        for variant in ("star", "left-star", "right-star"):
            assert star_family_leq(a, b, variant).holds == (label == "holds")
            assert order_holds_many(a[None], b[None], variant).tolist() == [label == "holds"]
    assert lowner_leq(*PAIRS["lowner"]["fails"]).certificate["witness"] is not None
    assert lowner_leq(*PAIRS["lowner"]["fails"][::-1]).detail == "incomparable"
    fails = _verdict("minus_ginv", *PAIRS["minus"]["fails"])
    rank = _verdict("minus_rank", *PAIRS["minus"]["fails"])
    assert (fails.detail, fails.certificate) == (
        "incomparable", {**rank.certificate, "method": "ginv", "cutoff": fails.certificate["cutoff"]})
    assert oracles.cutoff_gap(fails.certificate["cutoff"], rank.certificate["cutoff"], *PAIRS["minus"]["fails"]) <= 4.0
    assert sign_fixed == []
    # sim_congruence sign-fixes S's n columns, once
    assert sim_congruence(*PAIRS["minus"]["holds"]).rank_a == 1
    assert sign_fixed == [4]


@pytest.fixture
def scanned(monkeypatch):
    """The shapes of the maxabs_stack calls orders, canonical and numkernel
    make while the test runs, in order."""
    shapes = []
    real = numkernel.maxabs_stack

    def counting(m):
        shapes.append(np.shape(m))
        return real(m)

    for module in (orders, canonical, numkernel):
        monkeypatch.setattr(module, "maxabs_stack", counting)
    return shapes


def test_holding_ginv_verdict_scans_a_and_b_once(scanned):
    # every largest entry the identity check reads, of the three
    # identities' differences, of the sides of G A = G B and A G = B G, of
    # A and B (the pair's scale) and of G (the budget), comes from one scan
    assert _verdict("minus_ginv", *PAIRS["minus"]["holds"]).holds
    assert scanned == [(10, 4, 4)]


@pytest.mark.parametrize("n", [3, 10])
def test_ginv_and_image_routes_check_one_basis(monkeypatch, n):
    # the ginv certificate reads G off the basis the image route checks,
    # eigh's columns unsorted, so its sigma_min is that route's, bit for bit
    seen = []

    def recording(m, tol):
        seen.append(min_singular_value(m, tol))
        return seen[-1]

    monkeypatch.setattr(orders, "min_singular_value", recording)
    a, b = sample_pair("minus", 11, np.arange(24), n)
    held = 0
    for x, y in [*zip(a, b), *zip(b, a)]:
        seen.clear()
        image = minus_leq(x, y, method="image")
        ginv = minus_leq(x, y, method="ginv")
        assert ginv.holds == image.holds
        if image.holds:
            held += 1
            (sigma_min, direct), again = seen
            assert direct and again == (sigma_min, direct)
            assert struct.pack("<d", ginv.certificate["sigma_min"]) == struct.pack("<d", sigma_min)
        else:
            assert seen == []
    assert held >= 12


def test_star_verdicts_scan_each_pair_once(scanned):
    # the budget and the scale of the identity read one scan of the pair's
    # stack [A, B, B - A]; the other scan is of the products X (B - A)
    a, b = PAIRS["star"]["holds"]
    assert star_family_leq(a, b).holds
    assert scanned == [(3, 4, 4), (2, 4, 4)]
    # a stack of pairs is one stack [A, B, B - A] too, a shared B in it once
    x = np.array([a, b, a])
    for y, rows in ((np.array([b, b, b]), 9), (b, 7)):
        scanned.clear()
        assert order_holds_many(x, y, "star").tolist() == [True, True, True]
        assert scanned == [(rows, 4, 4), (3, 4, 4)]


def test_sim_congruence_scans_a_and_b_once(scanned):
    # the PSD thresholds and the reconstruction residuals read one scan of
    # the (A, B) stack; the other is of the two residuals
    assert sim_congruence(*PAIRS["minus"]["holds"]).rank_a == 1
    assert scanned == [(2, 4, 4), (2, 4, 4)]
    # qform_rank_criterion scans V and the forms, then the compressed forms
    # and their total once; each reduction reuses that scan and scans only
    # its residuals
    scanned.clear()
    assert qform_rank_criterion(*_three_forms()).overall
    assert scanned == [(4, 6, 6), (4, 7, 7)] + [(2, 7, 7)] * 3


def test_fit_congruence_and_a_failing_qform_order_no_eigenvectors(sign_fixed, eigh_calls):
    rng = np.random.default_rng(29)
    s = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    given = probe_inputs(4) + [np.eye(4)]
    fitted = fit_congruence([(x, s @ x @ s.T) for x in given])
    assert np.allclose(fitted, s * np.sign(s[0, 0]), rtol=1e-9, atol=1e-9)
    # the first probe's image alone: its leading column, read unsorted
    assert eigh_calls == [("eigh", 1)]
    # two forms that share a direction: neither is below their total, so
    # no reduction puts eigenvectors in canonical order
    eigh_calls.clear()
    eye = np.eye(4)
    report = qform_rank_criterion([eye[:, :2] @ eye[:, :2].T, eye[:, 1:3] @ eye[:, 1:3].T], eye, np.zeros(4))
    assert not report.overall and not any(entry.verdict.holds for entry in report.forms)
    assert eigh_calls == [("eigh", 3), ("eigh", 5)]
    assert sign_fixed == []
    # the fitted S's pair (S E_1 S^T, S S^T): its ginv certificate reads G
    # off eigh's columns as they come, and its congruence sign-fixes the n
    # columns of S once
    a, b = fitted[:, :1] @ fitted[:, :1].T, fitted @ fitted.T
    assert minus_leq(a, b, method="ginv").holds
    assert sign_fixed == []
    assert sim_congruence(a, b).rank_a == 1
    assert sign_fixed == [4]
    # as does each reduction of a holding qform, from linmodels
    sign_fixed.clear()
    assert qform_rank_criterion(*_three_forms()).overall
    assert sign_fixed == [7, 7, 7]


def test_minus_certificates_make_their_lapack_calls_and_no_more(monkeypatch):
    calls = Counter()

    def counting(name):
        real = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    for name in ("eigh", "eigvalsh", "svd", "inv"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    a, b = PAIRS["minus"]["holds"]
    # A, B and B - A together, and the SVD that certifies S invertible;
    # S is read off their eigenvectors, and S E_k S^T from S's leading k
    # columns
    assert (sim_congruence(a, b).rank_a, calls) == (1, {"eigh": 1, "svd": 1})
    calls.clear()
    # A, B and B - A together, the direct-sum SVD and the inverse of the
    # oblique basis
    assert _verdict("minus_ginv", a, b).holds
    assert calls == {"eigh": 1, "svd": 1, "inv": 1}


@pytest.mark.parametrize("route", ["lowner", "minus_rank", "minus_image", "minus_ginv", "star"])
def test_one_finiteness_scan_per_pair(monkeypatch, route):
    # the pair gate scans B - A alone, which is finite exactly when A and B
    # are and their difference stays in range
    scanned = []
    real = np.isfinite

    def counting(x, *args, **kwargs):
        scanned.append(np.shape(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    for label in ("holds", "fails"):
        scanned.clear()
        _verdict(route, *PAIRS[route.split("_")[0]][label])
        assert scanned == [(4, 4)], (route, label)


def test_image_route_takes_one_svd_on_a_holding_pair(monkeypatch):
    # the direct-sum check's singular values, which a failing verdict skips
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for label, want in (("holds", [{"compute_uv": False}]), ("fails", [])):
        calls.clear()
        assert _verdict("minus_image", *PAIRS["minus"][label]).holds == (label == "holds")
        assert calls == want, label


def test_eigh_calls_sim_congruence(eigh_calls):
    a, b = PAIRS["minus"]["holds"]
    res = sim_congruence(a, b)
    assert (res.rank_a, res.rank_b) == (1, 3)
    # A, B and B - A together, which the rank equation decides, and from
    # whose eigenvectors S is read
    assert eigh_calls == [("eigh", 3)]
    # a PsdMatrix pair keeps no spectrum, so it is decomposed the same way
    pa, pb = PsdMatrix(a), PsdMatrix(b)
    eigh_calls.clear()
    assert _bits(sim_congruence(pa, pb)) == _bits(res)
    assert eigh_calls == [("eigh", 3)]


def test_eigh_calls_inertia(eigh_calls):
    assert inertia(PAIRS["lowner"]["fails"][0]) == Inertia(2, 0, 2)
    assert eigh_calls == [("eigvalsh", 1)]


def test_eigh_calls_model_compare(eigh_calls):
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    l1 = LinearModel(x=x, d=np.eye(3))
    l2 = LinearModel(x=x, d=np.diag([1.0, 2.0, 3.0]))
    assert eigh_calls == [("eigvalsh", 1)] * 2  # each covariance certified PSD from its values
    eigh_calls.clear()
    v = model_compare(l1, l2)
    assert v.l1_geq_l2 and not v.l2_geq_l1
    assert v.certificate["m1_leq_m2"].detail == "strictly greater"
    # both Gram pseudoinverses from one stack, then one stack of M1, M2 and
    # M1 - M2: the PSD certificates of M1 and M2 and both directions
    assert eigh_calls == [("eigh", 2), ("eigh", 3)]
    # designs of two row counts: one Gram matrix at a time
    l3 = LinearModel(x=np.vstack([x, x[:1]]), d=np.eye(4))
    eigh_calls.clear()
    assert model_compare(l3, l1).l1_geq_l2
    assert eigh_calls == [("eigh", 1), ("eigh", 1), ("eigh", 3)]


def test_eigh_calls_blue_check(eigh_calls):
    x = np.array([[1.0], [1.0], [0.0]])
    model = LinearModel(x=x, d=np.eye(3))
    eigh_calls.clear()
    assert blue_check(x @ np.linalg.pinv(x), model).is_blue
    assert not blue_check(np.eye(3), model).is_blue
    # Rao's equation reads residuals of products; Im X comes from an SVD
    assert eigh_calls == []


def _three_forms(n=6):
    """Three orthogonal projectors onto disjoint coordinate pairs, V = I."""
    eye = np.eye(n)
    return [eye[:, 2 * i:2 * i + 2] @ eye[:, 2 * i:2 * i + 2].T for i in range(3)], eye, np.zeros(n)


def test_eigh_calls_qform_rank_criterion(eigh_calls):
    report = qform_rank_criterion(*_three_forms())
    assert report.overall and report.s == 6
    # V and the forms certified in one stack; the compressed forms, their
    # total and the differences total - form in a second, from which each
    # reduction reads its S.  The per-matrix path made 14 calls on 20
    # matrices.
    assert eigh_calls == [("eigh", 4), ("eigh", 7)]


def test_eigh_calls_mc_quadratic_forms(eigh_calls):
    mc = mc_quadratic_forms(*_three_forms(), n_samples=1000, seed=3)
    assert mc.dfs == [2, 2, 2] and mc.total_df == 6
    # the two stacks of qform_rank_criterion, V's root read from the first
    assert eigh_calls == [("eigh", 4), ("eigh", 7)]


def test_psd_matrix_keeps_no_spectrum(eigh_calls):
    # a PsdMatrix is certified from the eigenvalues of one values-only
    # decomposition and keeps none of them
    p = PsdMatrix(PAIRS["lowner"]["holds"][1])
    assert eigh_calls == [("eigvalsh", 1)]
    assert vars(p).keys() == {"_a"}


def _bits(obj):
    """Structure of a result with every float replaced by its bit pattern."""
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (float, np.floating)):
        return struct.pack("<d", float(obj))
    if isinstance(obj, dict):
        return {k: _bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_bits(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return {f.name: _bits(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


@pytest.mark.parametrize("relation", ["lowner", "minus", "star"])
@pytest.mark.parametrize("label", ["holds", "fails"])
def test_verdict_on_sym_matrices_matches_raw_bit_for_bit(relation, label):
    a, b = PAIRS[relation][label]
    if relation == "lowner":
        calls = [lambda x, y: lowner_leq(x, y)]
    elif relation == "minus":
        calls = [lambda x, y, m=m: minus_leq(x, y, method=m) for m in MinusMethod]
    else:
        calls = [lambda x, y, v=v: star_family_leq(x, y, v)
                 for v in (Relation.STAR, Relation.LEFT_STAR, Relation.RIGHT_STAR)]
    if relation != "lowner" and label == "holds":
        calls.append(lambda x, y: sim_congruence(x, y))
    calls.append(lambda x, y: inertia(y))
    sa, sb = SymMatrix(a), SymMatrix(b)
    for call in calls:
        raw = _bits(call(a, b))
        assert _bits(call(sa, sb)) == raw
        assert _bits(call(sa, sb)) == raw  # and so does a second call


def test_canonical_order_matches_per_column_sign_fix():
    # fix_signs, on eigh's columns as rows in a stable descending sort, is
    # the per-column sign loop of the test reference's canonical_eig, bit
    # for bit
    rng = np.random.default_rng(71)
    for n in (1, 2, 3, 6, 10):
        for _ in range(20):
            g = rng.standard_normal((n, n))
            a = (g + g.T) / 2
            if n > 2:
                a[:, 0] = a[0, :] = 0.0  # a zero leading component in some vectors
            values, vectors = np.linalg.eigh(SymMatrix(a).a)
            order = np.argsort(-values, kind="stable")
            rows = numkernel.fix_signs(vectors.T[order])
            want_values, want_vectors = canonical_eig(a)
            assert want_values.tobytes() == values[order].tobytes()
            assert want_vectors.tobytes() == rows.T.tobytes()
    empty_values, empty_vectors = canonical_eig(np.zeros((0, 0)))
    assert empty_values.shape == (0,) and empty_vectors.shape == (0, 0)
    assert numkernel.fix_signs(np.zeros((0, 0))).shape == (0, 0)


def test_eig_decomposition_cutoff_queries():
    values, _ = canonical_eig(np.diag([4.0, -2.0, 1e-17, 0.0]))
    cutoff = DEFAULT_TOL.rank_cutoff(values)
    assert cutoff == 4 * 4 * np.finfo(float).eps * 4.0
    # values are descending: 4, 1e-17, 0, -2
    np.testing.assert_array_equal(np.abs(values) > cutoff, [True, False, False, True])
    assert np.count_nonzero(np.abs(values) > ToleranceConfig(rank_rel_tol=0.6).rank_cutoff(values)) == 1
    assert np.count_nonzero(np.abs(values) > 5.0) == 0
    zero, _ = canonical_eig(np.zeros((3, 3)))
    assert DEFAULT_TOL.rank_cutoff(zero) == 0.0 and np.count_nonzero(np.abs(zero) > 0.0) == 0
    # the minus order counts A, B and B - A against the largest radius of the three
    small = np.diag([1.0, 0.0, 0.0, 0.0])
    cert = minus_leq(small, np.diag([4.0, -2.0, 1e-17, 0.0])).certificate
    assert cert["cutoff"] == cutoff


def test_column_basis_spans_the_columns_at_exact_rank():
    rng = np.random.default_rng(73)
    for _ in range(60):
        r, c = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        m = rng.integers(-2, 3, size=(r, c)).astype(float)
        basis = column_span(m)[0]
        dim = basis.shape[1]
        assert dim == oracles.exact_rank(m.astype(int))
        np.testing.assert_allclose(basis.T @ basis, np.eye(dim), atol=1e-12)
        # every column of m lies in the span
        np.testing.assert_allclose(basis @ (basis.T @ m), m, atol=1e-12)
    assert column_span(np.zeros((3, 2)))[0].shape == (3, 0)
    assert column_span(np.zeros((3, 0)))[0].shape == (3, 0)
    assert column_span(np.zeros((0, 4)))[0].shape == (0, 0)


def test_min_singular_value():
    sigma, ok = min_singular_value(np.diag([3.0, 0.5]))
    assert (sigma, ok) == (0.5, True)
    sigma, ok = min_singular_value(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert not ok and sigma < 1e-15
    assert min_singular_value(np.zeros((2, 2))) == (0.0, False)
    assert min_singular_value(np.zeros((0, 0))) == (1.0, True)


ROUTES = ["lowner", "minus_rank", "minus_image", "minus_ginv", "star"]


@pytest.mark.parametrize("k", [-300, -200, *range(-12, 13, 3), 200, 300])
@pytest.mark.parametrize("label", ["holds", "fails"])
@pytest.mark.parametrize("route", ROUTES)
def test_verdict_is_invariant_under_positive_scaling(route, label, k):
    a, b = PAIRS[route.split("_")[0]][label]
    c = 10.0 ** k
    assert _verdict(route, c * a, c * b).detail == _verdict(route, a, b).detail
    swapped = "strictly greater" if label == "holds" else "incomparable"
    assert _verdict(route, c * b, c * a).detail == swapped


# the power of the pair's scale c each certificate entry carries; every
# other entry is dimensionless
CERTIFICATE_UNITS = {"min_eig": 1, "threshold": 1, "cutoff": 1, "g": -1}


def _reduced(a, b):
    """sim_congruence(a, b), or the type of the error it raises."""
    try:
        return sim_congruence(a, b)
    except PsdOrderError as exc:
        return type(exc)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from(["lowner", "minus", "star"]), st.integers(0, 2**16), st.sampled_from([3, 10]),
       st.sampled_from([-60, -1, 1, 60]), st.booleans())
def test_certificates_scale_with_the_pair_bit_for_bit(relation, trial, n, k, swap):
    # A, B -> 2^k A, 2^k B is exact, and so is every threshold, cutoff and
    # budget taken from the pair's own scale: verdicts and dimensionless
    # entries keep their bits, the others scale by exactly their power of 2^k
    a, b = sample_pair(relation, 13, trial, n)[::-1 if swap else 1]
    c = 2.0 ** k
    for route in ROUTES:
        v, scaled = _verdict(route, a, b), _verdict(route, c * a, c * b)
        assert (scaled.holds, scaled.detail) == (v.holds, v.detail), route
        expected = {key: value * c ** CERTIFICATE_UNITS[key] if key in CERTIFICATE_UNITS else value
                    for key, value in v.certificate.items()}
        assert _bits(scaled.certificate) == _bits(expected), route
    res, scaled = _reduced(a, b), _reduced(c * a, c * b)
    if isinstance(res, type):
        assert scaled is res
        return
    assert (scaled.rank_a, scaled.rank_b) == (res.rank_a, res.rank_b)
    # S takes the square root of the pair's scale, exact at even k, and with
    # it the reconstructions; a zero B's S is B's unit eigenbasis
    if k % 2 == 0:
        assert _bits(scaled.s) == _bits(res.s * (2.0 ** (k // 2) if res.rank_b else 1.0))
        assert (scaled.residual_a, scaled.residual_b) == (res.residual_a, res.residual_b)


def test_scale_defects_of_absolute_floors_are_gone():
    a, b = np.diag([1.0, 0.0]), np.diag([2.0, 0.0])
    # cA - cB has eigenvalue -c, however small c is
    c = 1e-10
    v = lowner_leq(c * b, c * a)
    assert not v.holds and v.detail == "strictly greater"
    # A (B - A) = diag(c^2, 0) is a quarter of the pair's largest entry
    # squared at every scale
    c = 1e-6
    v = star_family_leq(c * a, c * b)
    assert not v.holds and v.certificate["residual"] == 0.25
    assert not lowner_leq(np.zeros((2, 2)), 1e-10 * np.diag([1.0, -1.0])).holds
    # the star products neither underflow nor overflow: A^2 = A = A diag(1, 1)
    for c in (1e-200, 1e200):
        assert not star_family_leq(c * a, c * b).holds
        assert star_family_leq(c * a, c * np.eye(2)).detail == "strictly less"
    # equal images of I at 10^6 that differ by roundoff are equal
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((5, 5)))
    big = 1e6 * np.eye(5)
    v = lowner_leq(big, 1e6 * (q @ q.T))
    assert v.holds and v.detail == "equal"


@pytest.mark.parametrize("c", [1e-300, 1e-40, 1.0, 1e40, 1e300])
def test_sim_congruence_and_qform_criterion_do_not_depend_on_units(c):
    # B's null directions must take the scale of B in S: unit scale makes
    # S singular to its direct-sum check at c = 1e+-40
    a, b = np.diag([1.0, 0.0, 0.0]), np.diag([1.0, 1.0, 0.0])
    res = sim_congruence(c * a, c * b)
    assert (res.rank_a, res.rank_b) == (1, 2)
    np.testing.assert_allclose(res.s, np.sqrt(c) * sim_congruence(a, b).s, rtol=1e-12)
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))
    forms = [c * np.outer(q[:, 0], q[:, 0]), c * np.outer(q[:, 1], q[:, 1])]
    report = qform_rank_criterion(forms, np.eye(4), np.zeros(4))
    assert report.overall and [e.rank for e in report.forms] == [1, 1]


def test_rank_and_ginv_routes_agree_on_a_small_image_eigenvalue():
    # an image eigenvalue of 1e-9 sits far above the rank cutoff; the ginv
    # identities lose about eps |G| |A| to roundoff, and their budget allows it
    rng = np.random.default_rng(29)
    for _ in range(10):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = q @ np.diag([1.0, 1e-9, 0.0, 0.0]) @ q.T
        b = q @ np.diag([1.0, 1e-9, 1.0, 0.0]) @ q.T
        for method in ("rank", "ginv"):
            v = minus_leq(a, b, method=method)
            assert v.holds and v.detail == "strictly less", method

def test_exact_zero_is_its_own_case():
    z = np.zeros((3, 3))
    check = lowner_leq(z, z)
    assert check.holds and check.certificate["threshold"] == 0.0
    for route in ROUTES:
        assert _verdict(route, z, z).detail == "equal", route
    p = np.diag([1e-100, 0.0, 0.0])
    for route in ROUTES:
        assert _verdict(route, z, p).detail == "strictly less", route
        assert _verdict(route, p, z).detail == "strictly greater", route


def test_rel_residual():
    a = np.array([[4.0, -2.0], [0.0, 1.0]])
    assert rel_residual(a - a, a) == 0.0
    assert rel_residual(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
    assert rel_residual(np.zeros((0, 0)), np.zeros((0, 0))) == 0.0
    assert rel_residual(1e-300 * np.eye(2), np.zeros((2, 2))) == np.inf
    assert rel_residual([[1.0, 0.0]], a, 2 * a) == 1.0 / 8.0
    # a float for one matrix, an array for a stack
    assert type(rel_residual([[1.0, 0.0]], a)) is float
    assert rel_residual(np.array([a, a - a]), [a, a]).tolist() == [1.0, 0.0]
    # the same ratio at every scale
    assert rel_residual(1e-200 * np.eye(2), 1e-200 * a) == rel_residual(np.eye(2), a)


@pytest.mark.filterwarnings("error")
def test_a_residual_beyond_the_float_range_fails_its_check():
    # an infinite or NaN residual is inf against any references, infinite
    # ones included, with no numpy warning: it fails every budget
    inf, nan = np.full((2, 2), np.inf), np.full((2, 2), np.nan)
    for diff, ref in ((inf, inf), (inf, np.eye(2)), (nan, inf), (nan, np.eye(2))):
        assert rel_residual(diff, ref) == np.inf
        assert rel_residual(diff[None], ref[None]).tolist() == [np.inf]
    got = rel_residual(np.array([np.eye(2), inf, np.zeros((2, 2))]), np.array([2 * np.eye(2), inf, inf]))
    assert got.tolist() == [0.5, np.inf, 0.0]


def test_negated_spectrum_decomposes_minus_a():
    a, b = PAIRS["lowner"]["fails"]
    values, vectors = canonical_eig(b - a)
    # B - A's spectrum negated and reversed, as views, is a canonical one of A - B
    neg_values, q = -values[::-1], vectors[:, ::-1]
    assert np.all(np.diff(neg_values) <= 0)
    np.testing.assert_allclose((q * neg_values) @ q.T, a - b, atol=1e-12)
    cutoff = DEFAULT_TOL.rank_cutoff(values)
    assert DEFAULT_TOL.rank_cutoff(neg_values) == cutoff
    assert np.count_nonzero(np.abs(neg_values) > cutoff) == np.count_nonzero(np.abs(values) > cutoff)
