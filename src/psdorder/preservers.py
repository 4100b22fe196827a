"""Maps on symmetric matrices and checks of their order behaviour.

A congruence A -> S A S^T with invertible S preserves both the PSD order
and the rank-subtractivity order in both directions, and (up to the usual
symmetries) these are the only maps that do.  This module lets a caller
express a map, stress-test it against sampled pairs whose order status is
known by construction, and recover the congruence factor S from observed
input/output samples.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, InconsistentSamples, SingularS
from .numkernel import (
    SymMatrix,
    _checked,
    _coerce,
    _symmetrize,
    canonical_column,
    derived,
    eigh_stack,
    eigvalsh_stack,
    maxabs_stack,
    min_singular_value,
    rel_residual,
    sym_stack,
)
from .orders import Relation, _lowner_stack, _minus_stack, _per_pair, _scan, holds_stack
from .rng import box_muller, child_key, index_hash, uniform_block
from .tolerances import DEFAULT_TOL, ToleranceConfig

# How many offending pairs a report keeps around for inspection.
_MAX_COUNTEREXAMPLES = 5


@dataclass(frozen=True)
class MatrixMap:
    """A named map on symmetric matrices: fn maps a whole (k, n, n) stack
    at once.  A map written for one matrix f becomes
    MatrixMap(label, lambda x: np.array([f(m) for m in x]))."""

    label: str
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def apply(self, a) -> np.ndarray:
        """The map on one matrix, as a stack of one, or on a (k, n, n)
        stack.  The input is checked and symmetrized as SymMatrix does,
        once for the whole stack (sym_stack), and mapped by _images."""
        a = a.a if isinstance(a, SymMatrix) else a
        single = np.ndim(a) == 2
        out = self._images(sym_stack(np.expand_dims(a, 0) if single else a))
        return out[0] if single else out

    def _images(self, stack) -> np.ndarray:
        """fn on a stack already checked and symmetrized, the one path every
        image takes: images beyond the float range raise PsdOrderError, and
        images not of the stack's shape DimensionMismatch."""
        images = derived("a map image", self.fn, stack)
        if np.shape(images) != stack.shape:
            raise DimensionMismatch(f"map {self.label!r} gave images of shape {np.shape(images)} "
                                    f"for a stack of shape {stack.shape}")
        return images

    @classmethod
    def trace_inflation(cls) -> "MatrixMap":
        """A -> A + tr(A) I; keeps the PSD order forward but not backward."""
        return cls("trace-inflation",
                   lambda x: x + np.trace(x, axis1=-2, axis2=-1)[:, None, None] * np.eye(x.shape[-1]))

    @classmethod
    def rank_collapse(cls) -> "MatrixMap":
        """A -> tr(A) E_11; flattens everything onto one ray."""

        def collapse(x):
            out = np.zeros_like(x)
            out[:, :1, :1] = np.trace(x, axis1=-2, axis2=-1)[:, None, None]  # empty at n = 0
            return out

        return cls("rank-collapse", collapse)


def congruence_map(s, tol: ToleranceConfig = DEFAULT_TOL) -> MatrixMap:
    """The map A -> S A S^T for an invertible S, which maps a whole stack
    in one product.

    Raises SingularS when S is empty or singular to working precision,
    since a non-invertible factor defines no order automorphism; the map
    raises DimensionMismatch on a matrix whose shape is not S's.
    """
    s = _coerce(s)
    if not s.size:
        raise SingularS("transform must be nonempty")
    sigma_min, invertible = min_singular_value(s, tol)
    if not invertible:
        raise SingularS(
            f"transform is singular to working precision (sigma_min={sigma_min:.3e})"
        )
    s.setflags(write=False)

    def congruence(x):
        """S X S^T for every X of a stack in one stacked product, each image
        bit for bit the one of its matrix alone."""
        if x.shape[-2:] != s.shape:
            raise DimensionMismatch(f"a {len(s)}x{len(s)} congruence cannot map shape {x.shape[-2:]}")
        return s @ x @ s.T

    return MatrixMap("congruence", congruence)


@dataclass
class PreservationReport:
    """Tally of forward/backward implication checks for one map and relation.

    Forward failures are sampled pairs with A related to B whose images are
    not; backward failures are pairs whose images are related although the
    originals are not.  A handful of offending pairs is retained.
    """

    relation: str
    map_label: str
    n: int
    trials: int
    forward_checked: int = 0
    forward_failures: int = 0
    backward_checked: int = 0
    backward_failures: int = 0
    counterexamples: list = field(default_factory=list)

    @property
    def preserves_forward(self) -> bool:
        return self.forward_failures == 0

    @property
    def preserves_backward(self) -> bool:
        return self.backward_failures == 0

    @property
    def preserves_both(self) -> bool:
        return self.preserves_forward and self.preserves_backward


def _orthogonal(z, n: int) -> np.ndarray:
    """Q of the QR factorization of the (n, n) matrix of the first n * n
    normals, row-major, of each row of z, with the column signs that make
    the diagonal of R nonnegative."""
    q, r = np.linalg.qr(z[:, :n * n].reshape(-1, n, n))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * np.sign(np.where(d == 0, 1.0, d))[:, None, :]


def _congruent(s, d) -> np.ndarray:
    """S diag(d) S^T for each S of a stack (k, n, n) and row d of a (k, n)
    array, or of each (k, n) block of an (m, k, n) array."""
    return (s * d[..., None, :]) @ s.swapaxes(-1, -2)


# The streams a trial draws from, by relation (the star family shares the
# star order's): a comparable or chain trial's, then an incomparable one's,
# the streams read as normals first.
_STREAMS = {
    Relation.LOWNER: ((0, 2, 1), (7, 9, 8)),
    Relation.MINUS: ((3, 16, 4), (10, 17, 11)),
    Relation.STAR: ((5, 6), (12, 13)),
}
# The index hashes of every fixed stream id, taken once: those of _STREAMS;
# 14, a chain trial's parent, and 15, its H; 1, a projector trial's
# parent, and its streams 1 (normals), 0 and 2.
_STREAM_HASHES = {r: index_hash(np.array(ids, dtype=np.uint64)) for r, ids in _STREAMS.items()}
_CHAIN_HASHES = index_hash(np.array([14, 15], dtype=np.uint64))
_PROJECTOR_HASH = index_hash(np.array([1], dtype=np.uint64))
_PROJECTOR_STREAM_HASHES = index_hash(np.array([1, 0, 2], dtype=np.uint64))


def _even(count: int) -> int:
    """count rounded up to even: the uniforms of `count` normals."""
    return count + count % 2


def _stream_counts(relation: Relation, n: int) -> tuple:
    """The length each stream of a trial is drawn at, in _STREAMS's order:
    the normals of an n x n matrix (the PSD order's H has at most n
    columns), then as many uniforms as the most its recipe reads."""
    count = _even(n * n)
    if relation is Relation.LOWNER:
        return count, count, n
    if relation is Relation.MINUS:
        return count, n, n + 1
    return count, 3 * n


def _trial_kinds(trials):
    """Which trials draw the incomparable pairs (1 mod 4) and the chains (2 mod 4)."""
    return trials % 4 == 1, trials % 4 == 2


def _lowner_pairs(u, u_chain, incomparable, chain, n: int):
    """PSD-order pairs from the uniform block (k, count) of their trials'
    streams 0 (or 7), 2 (or 9) and 1 (or 8), and that of the chain trials'
    H.  Comparable: G G^T below G G^T + H H^T, H of k columns drawn per
    trial.  Incomparable: G G^T, shifted to keep both PD, and Q diag(d) Q^T
    above it, indefinite with positive trace (which also exercises maps
    that inflate by the trace).  Chain: B + H H^T."""
    # the streams read as normals: G and H (or Q and G)
    count = _even(n * n)
    z, v = box_muller(u[:, :2 * count]), u[:, 2 * count:]
    first, third = z[:, :count], z[:, count:]
    g = np.where(incomparable[:, None], third, first)[:, :n * n].reshape(-1, n, n)
    a = g @ g.swapaxes(-1, -2)
    b = a.copy()
    ks = np.where(incomparable, 0, (v[:, 0] * (n + 1)).astype(int))
    # H H^T has k columns, drawn per trial: one product per value of k
    for cols in set(ks[ks > 0].tolist()):
        rows = np.flatnonzero(ks == cols)
        h = third[rows, :n * cols].reshape(-1, n, cols)
        b[rows] = a[rows] + h @ h.swapaxes(-1, -2)
    inc = np.flatnonzero(incomparable)
    if inc.size:
        d = 1.0 + v[inc, :n]
        d[:, -1] = -(0.05 + 0.25 * v[inc, n - 1])
        a[inc] += (np.abs(d[:, -1]) + 0.5)[:, None, None] * np.eye(n)
        b[inc] = a[inc] + _congruent(_orthogonal(first[inc], n), d)
    cols = max(1, n // 2)
    h = box_muller(u_chain)[:, :n * cols].reshape(-1, n, cols)
    b[chain] += h @ h.swapaxes(-1, -2)
    return a, b


def sample_pair(relation, seed: int, trial, n: int):
    """Deterministic pair for one preservation trial, or (k, n, n) stacks
    of the pairs of an array of trials.

    Trials cycle through comparable, incomparable (n >= 2, else ValueError),
    chain-derived and a second comparable draw, so both branches of each
    implication get exercised with known ground truth.  A chain trial draws
    a comparable pair from its own substream; only for the PSD order does it
    extend it to the outer pair of a chain A <= B <= B + H H^T.  All trials
    are drawn in one pass: the keys of every trial, then of its chain
    streams, then of its streams from a table of stream ids per trial, each
    level in one array mix; then one block of uniforms, every stream at the
    length its recipe reads, one Box-Muller pass, one stacked QR and one
    stacked S diag(d) S^T (or G G^T), selecting rows by kind.  Each pair is
    bit for bit its trial's drawn alone.
    """
    relation = Relation(relation)
    trials = np.atleast_1d(trial)
    incomparable, chain = _trial_kinds(trials)
    if n < 2 and incomparable.any():
        raise ValueError("incomparable pairs need n >= 2")
    keys = child_key(seed, index_hash(trials.astype(np.uint64)))
    # the chain trials' parent (stream 14 of the trial key) and H (stream 15)
    chained = child_key(keys[:, None], _CHAIN_HASHES)
    parents = np.where(chain, chained[:, 0], keys)
    hashes = _STREAM_HASHES.get(relation, _STREAM_HASHES[Relation.STAR])[incomparable.astype(int)]
    u = uniform_block(child_key(parents[:, None], hashes), _stream_counts(relation, n))
    count = _even(n * n)
    if relation is Relation.LOWNER:
        u_chain = uniform_block(chained[chain, 1:], (_even(n * max(1, n // 2)),))
        a, b = _lowner_pairs(u, u_chain, incomparable, chain, n)
        return (a[0], b[0]) if np.ndim(trial) == 0 else (a, b)
    inc = incomparable[:, None]
    if relation is Relation.MINUS:
        scale, v = u[:, count:count + n], u[:, count + n:]
        # orthogonal times bounded diagonal keeps S's condition number at most
        # 4, so every intended eigendirection stays a solid fraction of the
        # spectral radius even after a further congruence.  Comparable: E_r
        # below E_k, k >= r; incomparable: E_r (r >= 1) and E_r scaled
        s = _orthogonal(box_muller(u[:, :count]), n) * (0.5 + 1.5 * scale[:, None, :])
        r = (v[:, 0] * (n + 1)).astype(int)
        ranks = np.array([np.where(incomparable, 1 + (v[:, 0] * (n - 1)).astype(int), r),
                          r + (v[:, 1] * (n - r + 1)).astype(int)])
        # rows of as many ones as each rank, then zeros
        d_a, ones_b = (np.arange(n) < ranks[..., None]).astype(float)
        d_b = np.where(inc, d_a * (1.5 + v[:, 1:n + 1]), ones_b)
    else:
        # one eigenbasis.  Comparable: supports nested, shared part
        # identical; incomparable: full supports, B doubling A's first value
        s, v = _orthogonal(box_muller(u[:, :count]), n), u[:, count:]
        support = v[:, :n] < 0.5
        grow = ~support & (v[:, 2 * n:3 * n] < 0.5)
        d_a = np.where(inc, 0.5 + v[:, :n], np.where(support, 0.5 + v[:, n:2 * n], 0.0))
        d_b = np.where(inc, d_a * np.where(np.arange(n) == 0, 2.0, 1.0),
                       d_a + np.where(grow, 0.5 + v[:, n:2 * n], 0.0))
    a, b = _congruent(s, np.array([d_a, d_b]))
    return (a[0], b[0]) if np.ndim(trial) == 0 else (a, b)


def preserves_order(
    mmap: MatrixMap,
    relation,
    n: int,
    trials: int = 200,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> PreservationReport:
    """Sampled check that a map preserves an order forward and backward.

    For each generated pair the forward implication (related originals must
    have related images) and the backward implication (related images must
    come from related originals) are tallied separately; see sample_pair
    for how the pairs are drawn, all in one pass.  They are checked and
    symmetrized once, mapped as one stack whose images are checked and
    symmetrized once.  One stacked check (holds_stack) decides the verdicts
    under `tol` on values-only spectra: the images' alone at the default
    tolerances, where an original pair's status is its trial's kind
    (_trial_kinds, pinned by a test), and the originals' too under others.
    Needs trials >= 1 and n >= 2, else ValueError.
    """
    if trials < 1 or n < 2:
        raise ValueError(f"preserves_order needs trials >= 1 and n >= 2, got trials={trials}, n={n}")
    relation = Relation(relation)
    report = PreservationReport(
        relation=relation.value, map_label=mmap.label, n=n, trials=trials
    )
    a, b = sample_pair(relation, seed, np.arange(trials), n)
    x = sym_stack(np.concatenate([a, b]))
    fx = _symmetrize(mmap._images(x))
    k = trials
    if tol == DEFAULT_TOL:
        before, after = ~_trial_kinds(np.arange(k))[0], holds_stack(fx[:k], fx[k:], relation, tol)
    else:
        holds = holds_stack(np.concatenate([x[:k], fx[:k]]), np.concatenate([x[k:], fx[k:]]), relation, tol)
        before, after = holds.reshape(2, trials)
    report.forward_checked = int(before.sum())
    report.forward_failures = int((before & ~after).sum())
    report.backward_checked = int(after.sum())
    report.backward_failures = int((after & ~before).sum())
    for t in np.flatnonzero(before != after)[:_MAX_COUNTEREXAMPLES]:
        report.counterexamples.append(("forward" if before[t] else "backward", a[t], b[t]))
    return report


def probe_inputs(n: int) -> list:
    """The canonical probe matrices fit_congruence expects to see sampled:
    every e_i e_i^T and every (e_0 + e_i)(e_0 + e_i)^T."""
    return list(_probe_stack(n))


def _probe_stack(n: int) -> np.ndarray:
    """probe_inputs(n) as one (2n - 1, n, n) array."""
    e = np.eye(n)
    v = np.concatenate([e, e[:1] + e[1:]])
    return v[:, :, None] * v[:, None, :]


def fit_congruence(samples, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Recover S from input/output samples of A -> S A S^T.

    The sample list must contain the probe_inputs images: the image of
    e_i e_i^T pins column i up to sign, and the mixed probes
    (e_0 + e_i)(e_0 + e_i)^T fix every sign relative to the first column.
    The global sign is the canonical order's: column 0 is sqrt(lambda) q
    for the leading eigenpair of its probe image, the first entry of q
    above 1e-12 in magnitude positive (one in (1e-12 max|q|, 1e-12] never
    sets it).  Every remaining sample is then validated against the recovered
    S; anything unexplained raises InconsistentSamples.  A column whose
    reconstruction leaves the float range raises PsdOrderError.
    """
    samples = list(samples)
    if not samples:
        raise InconsistentSamples("no samples given")
    try:
        pairs = np.array(list(zip(*samples)), dtype=float)
        given, outputs = pairs
    except ValueError as exc:  # numpy's for matrices of mixed shapes, or samples that are not pairs
        raise DimensionMismatch("samples must be square matrices of one size") from exc
    # one copy, through the gate's checks: the inputs' shape, then every entry
    _checked(given, ndim=3, finite=False)
    _checked(pairs.reshape(2 * len(given), *given.shape[1:]), ndim=3)
    n = given.shape[1]
    if n == 0:
        raise DimensionMismatch("samples must be at least 1x1")
    # every probe against every sample, each probe taking its first match in
    # sample order; only the pairs that agree on the diagonal are compared
    # in full, since every other pair differs by more on the diagonal alone
    probes = _probe_stack(n)
    diag_given, diag_probes = (np.diagonal(m, axis1=1, axis2=2) for m in (given, probes))
    near = np.abs(diag_given - diag_probes[:, None]).max(axis=-1) <= tol.recon_tol
    p, i = np.nonzero(near)
    match = np.zeros_like(near)
    match[p, i] = maxabs_stack(given[i] - probes[p]) <= tol.recon_tol
    if not match.any(axis=1).all():
        raise InconsistentSamples("probe inputs are missing from the samples")
    images = outputs[match.argmax(axis=1)]

    diag_images, mixed_images = images[:n], images[n:]
    # the first probe's image is lambda q q^T: column 0 is sqrt(lambda) q, q in canonical order
    (values,), (vectors,) = eigh_stack(_symmetrize(diag_images[:1]))
    lead = float(values[-1])
    if lead <= 0 or np.count_nonzero(np.abs(values) > tol.rank_cutoff(values)) != 1:
        raise InconsistentSamples(
            "image of the first probe is not rank one; no invertible "
            "congruence explains the samples"
        )
    first = np.sqrt(lead) * canonical_column(values, vectors, last=False)

    def columns():
        # cross_i = s_0 s_i^T + s_i s_0^T, so applying it to s_0 isolates
        # s_i.  s_0^T cross_i s_0 has four factors of S's scale, so s_0 is
        # divided by a power of two u near its largest entry and cross_i by
        # u twice (u^2 can overflow), exactly above the subnormals.  Each
        # s_0 . s_i is its own vector product: as a row of one matrix-vector
        # product it would be summed in another order.
        u = math.ldexp(1.0, math.frexp(float(np.abs(first).max()))[1])
        s_0 = first / u
        cross = (mixed_images - diag_images[0] - diag_images[1:]) / u / u
        norm_sq = float(s_0 @ s_0)
        dots = np.array([row @ s_0 for row in s_0 @ cross]) / (2.0 * norm_sq)
        return (cross @ s_0 - dots[:, None] * s_0) / norm_sq * u

    cols = derived("a column of S", columns)
    # s_i s_i^T and S X S^T enter residuals alone, which fail beyond the float range
    with np.errstate(over="ignore", invalid="ignore"):
        expected, image = cols[:, :, None] * cols[:, None, :], diag_images[1:]
    off = rel_residual(expected - image, expected, image) > tol.recon_tol
    if off.any():
        raise InconsistentSamples(
            f"column {off.argmax() + 1} reconstructed from the mixed probe does "
            "not reproduce its diagonal probe image"
        )
    s = np.concatenate([first[:, None], cols.T], axis=1)

    with np.errstate(over="ignore", invalid="ignore"):
        predicted = s @ given @ s.T
    if (rel_residual(predicted - outputs, predicted, outputs) > tol.recon_tol).any():
        raise InconsistentSamples(
            "a sample disagrees with the congruence fitted from the probes"
        )
    return s


def _projectors(seed: int, trials: int, n: int):
    """The rank k, projector P = Q_k Q_k^T and shrink factor t of every
    projector_fixed_point_suite trial, all drawn at once: streams 1
    (normals, Q), 0 (k) and 2 (t) of each trial's key's child 1."""
    keys = child_key(child_key(seed, index_hash(np.arange(trials, dtype=np.uint64))), _PROJECTOR_HASH)
    count = _even(n * n)
    u = uniform_block(child_key(keys[:, None], _PROJECTOR_STREAM_HASHES), (count, 1, 1))
    ranks = (u[:, count] * (n + 1)).astype(int)
    q = _orthogonal(box_muller(u[:, :count]), n)
    projectors = np.empty((trials, n, n))
    # P has k columns, drawn per trial, so it is formed per trial
    for t, k in enumerate(ranks):
        projectors[t] = q[t, :, :k] @ q[t, :, :k].T
    return ranks, projectors, 0.25 + 0.5 * u[:, count + 1]


def projector_fixed_point_suite(
    mmap: MatrixMap,
    n: int,
    trials: int = 50,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> PreservationReport:
    """Order behaviour of a map on the interval below the identity.

    Every orthogonal projector sits below I in both the PSD and the
    rank-subtractivity orders, while a strict contraction t P (0 < t < 1)
    stays below I only in the PSD sense.  Each trial draws a random
    projector, asserts those facts, applies the map, and tallies whether
    the image pairs still relate the same way.  All trials are drawn at
    once and mapped as one stack.  One stacked values-only call
    (eigvalsh_stack) decomposes every P, t P, I, I - P and I - t P and
    their images: the Loewner verdicts read the differences' spectra, the
    minus verdicts all of them.  Needs trials, n >= 1.
    """
    if trials < 1 or n < 1:
        raise ValueError(f"projector_fixed_point_suite needs trials >= 1 and n >= 1, got trials={trials}, n={n}")
    report = PreservationReport(
        relation="projector-interval", map_label=mmap.label, n=n, trials=trials
    )
    ranks, projectors, shrink = _projectors(seed, trials, n)
    # rows P, t P and I, mapped together: P and t P below I, then their
    # images below the image of I
    identity = np.eye(n)
    x = sym_stack(np.concatenate([projectors, shrink[:, None, None] * projectors, identity[None]]))
    fx = _symmetrize(mmap._images(x))
    # one stack [A, B, B - A] per side, B = I, scanned once, and both sides
    # decomposed in one call for the Loewner and the minus decisions
    stacks = [np.concatenate([m, derived("B - A", np.subtract, m[-1:], m[:-1])]) for m in (x, fx)]
    spectra = [_per_pair(v, 2 * trials) for v in np.split(eigvalsh_stack(np.concatenate(stacks)), 2)]
    lowner = np.reshape([_lowner_stack(_scan(stack, 2 * trials)[0], v[:, 2], tol)[1][:, 0]
                         for stack, v in zip(stacks, spectra)], (2, 2, trials))
    minus = np.reshape([_minus_stack(v, tol)[0][0] for v in spectra], (2, 2, trials))
    # P <= I in both orders, t P <= I in the PSD order only (unless P = 0)
    on_interval = lowner[:, 0] & minus[:, 0] & lowner[:, 1] & ((ranks == 0) | ~minus[:, 1])
    invariant, image = on_interval
    report.forward_checked = trials
    report.forward_failures = int((~invariant).sum())
    report.backward_checked = int(invariant.sum())
    report.backward_failures = int((invariant & ~image).sum())
    for t in np.flatnonzero(~(invariant & image))[:_MAX_COUNTEREXAMPLES]:
        kind = "image" if invariant[t] else "invariant"
        report.counterexamples.append((kind, projectors[t], identity))
    return report
