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
    _coerce,
    _symmetrize,
    derived,
    maxabs_stack,
    min_singular_value,
    rel_residual_stack,
    sym_eig,
    sym_stack,
)
from .orders import Relation, holds_stack
from .rng import box_muller, normal_matrix, substream, uniforms
from .tolerances import DEFAULT_TOL, ToleranceConfig

# How many offending pairs a report keeps around for inspection.
_MAX_COUNTEREXAMPLES = 5


@dataclass(frozen=True)
class MatrixMap:
    """A named map on symmetric matrices."""

    label: str
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def apply(self, a) -> np.ndarray:
        """fn on one matrix, or on each matrix of a (k, n, n) stack.  The
        input is checked and symmetrized as SymMatrix does, once for the
        whole stack (sym_stack); each image has the shape of its input, and
        one beyond the float range raises PsdOrderError."""
        a = a.a if isinstance(a, SymMatrix) else a
        single = np.ndim(a) == 2
        out = derived("a map image", self._images, sym_stack(np.expand_dims(a, 0) if single else a))
        return out[0] if single else out

    def _images(self, stack) -> np.ndarray:
        """fn on each matrix of a stack already checked and symmetrized."""
        return np.array([self.fn(m) for m in stack], dtype=float).reshape(stack.shape)

    @classmethod
    def trace_inflation(cls) -> "MatrixMap":
        """A -> A + tr(A) I; keeps the PSD order forward but not backward."""
        return cls(
            label="trace-inflation",
            fn=lambda a: a + np.trace(a) * np.eye(a.shape[0]),
        )

    @classmethod
    def rank_collapse(cls) -> "MatrixMap":
        """A -> tr(A) E_11; flattens everything onto one ray."""

        def collapse(a):
            out = np.zeros_like(a)
            out[0, 0] = np.trace(a)
            return out

        return cls(label="rank-collapse", fn=collapse)


def congruence_map(s, tol: ToleranceConfig = DEFAULT_TOL) -> MatrixMap:
    """The map A -> S A S^T for an invertible S.

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

    def congruence(a):
        if a.shape != s.shape:
            raise DimensionMismatch(f"a {len(s)}x{len(s)} congruence cannot map shape {a.shape}")
        return s @ a @ s.T

    return MatrixMap(label="congruence", fn=congruence)


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


def _draw(keys, streams, n: int) -> np.ndarray:
    """One block of uniforms (k, len(streams), count) for a stack of trial
    keys: row [i, j] starts the stream substream(keys[i], streams[j]).  The
    rows are long enough for n * n normals and for 3 n uniforms."""
    count = max(n * n, 3 * n)
    children = substream(keys[:, None], np.array(streams, dtype=np.uint64))
    return uniforms(children, count + count % 2)


def _normals(u, n: int) -> np.ndarray:
    """(k, n, n) standard normals, row-major, from uniform rows u (k, count)."""
    return box_muller(u)[:, :n * n].reshape(-1, n, n)


def _orthogonal(z) -> np.ndarray:
    """Q of the QR factorization of each matrix of a stack, with the column
    signs that make the diagonal of R nonnegative."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * np.sign(np.where(d == 0, 1.0, d))[:, None, :]


def _congruent(s, d) -> np.ndarray:
    """S diag(d) S^T for each S of a stack and row d of a (k, n) array."""
    return (s * d[:, None, :]) @ s.swapaxes(-1, -2)


def _leading_ones(counts, n: int) -> np.ndarray:
    """(k, n) rows of counts[i] ones followed by zeros."""
    return (np.arange(n) < counts[:, None]).astype(float)


def _comparable_pair(relation: Relation, keys, n: int):
    """Pairs related by construction (possibly equal), one per trial key."""
    if relation is Relation.LOWNER:
        u = _draw(keys, (0, 1, 2), n)
        g = _normals(u[:, 0], n)
        a = g @ g.swapaxes(-1, -2)
        b = a.copy()
        ks = (u[:, 1, 0] * (n + 1)).astype(int)
        h = box_muller(u[:, 2])
        # H H^T has k columns, drawn per trial, so it is formed per trial
        for i in np.flatnonzero(ks):
            hi = h[i, :n * ks[i]].reshape(n, ks[i])
            b[i] = a[i] + hi @ hi.T
        return a, b
    if relation is Relation.MINUS:
        # Orthogonal times bounded diagonal keeps the factor's condition
        # number at most 4, so every intended eigendirection stays a solid
        # fraction of the spectral radius even after a further congruence.
        u = _draw(keys, (3, 16, 4), n)
        s = _orthogonal(_normals(u[:, 0], n)) * (0.5 + 1.5 * u[:, 1, None, :n])
        r = (u[:, 2, 0] * (n + 1)).astype(int)
        k = r + (u[:, 2, 1] * (n - r + 1)).astype(int)
        return _congruent(s, _leading_ones(r, n)), _congruent(s, _leading_ones(k, n))
    # Star family: common eigenbasis, supports nested, shared part identical.
    u = _draw(keys, (5, 6), n)
    q = _orthogonal(_normals(u[:, 0], n))
    v = u[:, 1]
    support_a = v[:, :n] < 0.5
    d_a = np.where(support_a, 0.5 + v[:, n:2 * n], 0.0)
    grow = (~support_a) & (v[:, 2 * n:3 * n] < 0.5)
    d_b = d_a + np.where(grow, 0.5 + v[:, n:2 * n], 0.0)
    return _congruent(q, d_a), _congruent(q, d_b)


def _incomparable_pair(relation: Relation, keys, n: int):
    """Pairs related in neither direction, by construction, one per trial
    key.

    The PSD-order recipe keeps the difference indefinite with positive
    trace, which also exercises maps that inflate by the trace (their
    images become comparable although the originals are not).
    """
    if n < 2:
        raise ValueError("incomparable pairs need n >= 2")
    if relation is Relation.LOWNER:
        u = _draw(keys, (7, 8, 9), n)
        q = _orthogonal(_normals(u[:, 0], n))
        d = 1.0 + u[:, 1, :n]
        d[:, -1] = -(0.05 + 0.25 * u[:, 1, n - 1])
        g = _normals(u[:, 2], n)
        base = g @ g.swapaxes(-1, -2) + (np.abs(d[:, -1]) + 0.5)[:, None, None] * np.eye(n)
        return base, base + _congruent(q, d)
    if relation is Relation.MINUS:
        u = _draw(keys, (10, 17, 11), n)
        s = _orthogonal(_normals(u[:, 0], n)) * (0.5 + 1.5 * u[:, 1, None, :n])
        d_a = _leading_ones(1 + (u[:, 2, 0] * (n - 1)).astype(int), n)
        d_b = d_a * (1.5 + u[:, 2, 1:n + 1])
        return _congruent(s, d_a), _congruent(s, d_b)
    u = _draw(keys, (12, 13), n)
    q = _orthogonal(_normals(u[:, 0], n))
    d_a = 0.5 + u[:, 1, :n]
    d_b = d_a.copy()
    d_b[:, 0] *= 2.0
    return _congruent(q, d_a), _congruent(q, d_b)


def sample_pair(relation, seed: int, trial, n: int):
    """Deterministic pair for one preservation trial, or (k, n, n) stacks
    of the pairs of an array of trials, all drawn at once.

    Trials cycle through comparable, incomparable, chain-derived and a
    second comparable draw, so both branches of each implication get
    exercised with known ground truth.  A chain trial draws a comparable
    pair from its own substream; only for the PSD order does it extend
    that pair to the outer pair of a three-term ascending chain
    A <= B <= B + H H^T.  Each pair is bit for bit the one a call for its
    trial alone gives.
    """
    relation = Relation(relation)
    trials = np.atleast_1d(trial)
    keys = substream(seed, trials.astype(np.uint64))
    kind = trials % 4
    comparable = np.flatnonzero((kind == 0) | (kind == 3))
    incomparable = np.flatnonzero(kind == 1)
    chain = np.flatnonzero(kind == 2)
    a, b = np.empty((2, len(trials), n, n))
    rows = np.concatenate([comparable, chain])
    if rows.size:
        a[rows], b[rows] = _comparable_pair(
            relation, np.concatenate([keys[comparable], substream(keys[chain], 14)]), n
        )
    if chain.size and relation is Relation.LOWNER:
        h = normal_matrix(substream(keys[chain], 15), n, max(1, n // 2))
        b[chain] += h @ h.swapaxes(-1, -2)
    if incomparable.size:
        a[incomparable], b[incomparable] = _incomparable_pair(relation, keys[incomparable], n)
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
    for how the pairs are drawn.  All trials are drawn in one sample_pair
    call, checked and symmetrized once, mapped as one stack whose images
    are checked and symmetrized once, and all 2 * trials verdicts, before
    and after the map, are decided in one stacked check (holds_stack).
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
    fx = _symmetrize(derived("a map image", mmap._images, x))
    k = trials
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
    e = np.eye(n)
    v = np.concatenate([e, e[:1] + e[1:]])
    return list(v[:, :, None] * v[:, None, :])


def _rank_one_factor(m, tol):
    """Write a PSD rank-one matrix as v v^T; None when it is not one."""
    values, vectors = sym_eig(m)
    lead = float(values[0])
    if lead <= 0 or np.count_nonzero(np.abs(values) > tol.rank_cutoff(values)) != 1:
        return None
    return np.sqrt(lead) * vectors[:, 0]


def fit_congruence(samples, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Recover S from input/output samples of A -> S A S^T.

    The sample list must contain the probe_inputs images: the image of
    e_i e_i^T pins column i up to sign, and the mixed probes
    (e_0 + e_i)(e_0 + e_i)^T fix every sign relative to the first column.
    The global sign is canonical_order's: column 0 is sqrt(lambda) q for
    the leading eigenpair of its probe image, the first entry of q above
    1e-12 in magnitude positive (one in (1e-12 max|q|, 1e-12] never sets
    it).  Every remaining sample is then validated against the recovered
    S; anything unexplained raises InconsistentSamples.  A column whose
    reconstruction leaves the float range raises PsdOrderError.
    """
    samples = list(samples)
    if not samples:
        raise InconsistentSamples("no samples given")
    try:
        given, outputs = np.array(list(zip(*samples)), dtype=float)
    except ValueError as exc:  # numpy's for matrices of mixed shapes, or samples that are not pairs
        raise DimensionMismatch("samples must be square matrices of one size") from exc
    given, outputs = _coerce(given, ndim=3), _coerce(outputs, ndim=3)
    n = given.shape[1]
    if n == 0:
        raise DimensionMismatch("samples must be at least 1x1")
    # every probe against every sample, each probe taking its first match in
    # sample order; only the pairs that agree on the diagonal are compared
    # in full, since every other pair differs by more on the diagonal alone
    probes = np.array(probe_inputs(n))
    diag_given, diag_probes = (np.diagonal(m, axis1=1, axis2=2) for m in (given, probes))
    near = np.abs(diag_given - diag_probes[:, None]).max(axis=-1) <= tol.recon_tol
    p, i = np.nonzero(near)
    match = np.zeros_like(near)
    match[p, i] = maxabs_stack(given[i] - probes[p]) <= tol.recon_tol
    if not match.any(axis=1).all():
        raise InconsistentSamples("probe inputs are missing from the samples")
    images = outputs[match.argmax(axis=1)]

    diag_images, mixed_images = images[:n], images[n:]
    first = _rank_one_factor(diag_images[0], tol)
    if first is None:
        raise InconsistentSamples(
            "image of the first probe is not rank one; no invertible "
            "congruence explains the samples"
        )

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
    off = rel_residual_stack(expected - image, expected, image) > tol.recon_tol
    if off.any():
        raise InconsistentSamples(
            f"column {off.argmax() + 1} reconstructed from the mixed probe does "
            "not reproduce its diagonal probe image"
        )
    s = np.column_stack([first, *cols])

    with np.errstate(over="ignore", invalid="ignore"):
        predicted = s @ given @ s.T
    if (rel_residual_stack(predicted - outputs, predicted, outputs) > tol.recon_tol).any():
        raise InconsistentSamples(
            "a sample disagrees with the congruence fitted from the probes"
        )
    return s


def _projectors(seed: int, trials: int, n: int):
    """The rank k, projector P = Q_k Q_k^T and shrink factor t of every
    projector_fixed_point_suite trial, all drawn at once."""
    keys = substream(seed, np.arange(trials, dtype=np.uint64), 1)
    u = _draw(keys, (0, 1, 2), n)
    ranks = (u[:, 0, 0] * (n + 1)).astype(int)
    q = _orthogonal(_normals(u[:, 1], n))
    projectors = np.empty((trials, n, n))
    # P has k columns, drawn per trial, so it is formed per trial
    for t, k in enumerate(ranks):
        projectors[t] = q[t, :, :k] @ q[t, :, :k].T
    return ranks, projectors, 0.25 + 0.5 * u[:, 2, 0]


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
    once and mapped as one stack.  The Loewner verdicts of all trials below
    I are decided in one stacked check and those of their images below the
    image of I in another, and so are the minus verdicts, each check
    decomposing its shared upper matrix once.  Needs trials, n >= 1.
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
    fx = _symmetrize(derived("a map image", mmap._images, x))
    sides = ((x[:-1], x[-1:]), (fx[:-1], fx[-1:]))
    lowner, minus = (
        np.array([holds_stack(below, top, rel, tol) for below, top in sides]).reshape(2, 2, trials)
        for rel in (Relation.LOWNER, Relation.MINUS)
    )
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
