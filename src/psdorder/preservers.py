"""Maps on symmetric matrices and checks of their order behaviour.

A congruence A -> S A S^T with invertible S preserves both the PSD order
and the rank-subtractivity order in both directions, and (up to the usual
symmetries) these are the only maps that do.  This module lets a caller
express a map, stress-test it against sampled pairs whose order status is
known by construction, and recover the congruence factor S from observed
input/output samples.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InconsistentSamples, SingularS
from .numkernel import SymMatrix, maxabs, min_singular_value, rel_residual, sym_eig
from .orders import Relation, order_holds_many
from .rng import normal_matrix, substream, uniforms
from .tolerances import DEFAULT_TOL, ToleranceConfig

# How many offending pairs a report keeps around for inspection.
_MAX_COUNTEREXAMPLES = 5


@dataclass(frozen=True)
class MatrixMap:
    """A named map on symmetric matrices."""

    label: str
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def apply(self, a) -> np.ndarray:
        sym = a if isinstance(a, SymMatrix) else SymMatrix(a)
        return np.asarray(self.fn(sym.a), dtype=float)

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

    Raises SingularS when S is singular to working precision, since a
    non-invertible factor does not define an order automorphism.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or not s.size:
        raise SingularS(f"transform must be square and nonempty, got shape {s.shape}")
    sigma_min, invertible = min_singular_value(s, tol)
    if not invertible:
        raise SingularS(
            f"transform is singular to working precision (sigma_min={sigma_min:.3e})"
        )
    s = s.copy()
    s.setflags(write=False)
    return MatrixMap(label="congruence", fn=lambda a: s @ a @ s.T)


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


def _orthogonal(seed: int, n: int) -> np.ndarray:
    q, r = np.linalg.qr(normal_matrix(seed, n, n))
    return q * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))


def _comparable_pair(relation: Relation, seed: int, n: int):
    """A pair related by construction (possibly equal)."""
    if relation is Relation.LOWNER:
        g = normal_matrix(substream(seed, 0), n, n)
        a = g @ g.T
        k = int(uniforms(substream(seed, 1), 1)[0] * (n + 1))
        if k == 0:
            return a, a.copy()
        h = normal_matrix(substream(seed, 2), n, k)
        return a, a + h @ h.T
    if relation is Relation.MINUS:
        # Orthogonal times bounded diagonal keeps the factor's condition
        # number at most 4, so every intended eigendirection stays a solid
        # fraction of the spectral radius even after a further congruence.
        q = _orthogonal(substream(seed, 3), n)
        s = q * (0.5 + 1.5 * uniforms(substream(seed, 16), n))
        u = uniforms(substream(seed, 4), 2)
        r = int(u[0] * (n + 1))
        k = r + int(u[1] * (n - r + 1))
        d_a = np.array([1.0] * r + [0.0] * (n - r))
        d_b = np.array([1.0] * k + [0.0] * (n - k))
        return (s * d_a) @ s.T, (s * d_b) @ s.T
    # Star family: common eigenbasis, supports nested, shared part identical.
    q = _orthogonal(substream(seed, 5), n)
    u = uniforms(substream(seed, 6), 3 * n)
    support_a = u[:n] < 0.5
    d_a = np.where(support_a, 0.5 + u[n:2 * n], 0.0)
    grow = (~support_a) & (u[2 * n:] < 0.5)
    d_b = d_a + np.where(grow, 0.5 + u[n:2 * n], 0.0)
    return (q * d_a) @ q.T, (q * d_b) @ q.T


def _incomparable_pair(relation: Relation, seed: int, n: int):
    """A pair related in neither direction, by construction.

    The PSD-order recipe keeps the difference indefinite with positive
    trace, which also exercises maps that inflate by the trace (their
    images become comparable although the originals are not).
    """
    if n < 2:
        raise ValueError("incomparable pairs need n >= 2")
    if relation is Relation.LOWNER:
        q = _orthogonal(substream(seed, 7), n)
        u = uniforms(substream(seed, 8), n)
        d = 1.0 + u
        d[-1] = -(0.05 + 0.25 * u[-1])
        diff = (q * d) @ q.T
        g = normal_matrix(substream(seed, 9), n, n)
        base = g @ g.T + (abs(d[-1]) + 0.5) * np.eye(n)
        return base, base + diff
    if relation is Relation.MINUS:
        q = _orthogonal(substream(seed, 10), n)
        s = q * (0.5 + 1.5 * uniforms(substream(seed, 17), n))
        u = uniforms(substream(seed, 11), n + 1)
        k = 1 + int(u[0] * (n - 1))
        d_a = np.array([1.0] * k + [0.0] * (n - k))
        d_b = d_a * (1.5 + u[1:])
        return (s * d_a) @ s.T, (s * d_b) @ s.T
    q = _orthogonal(substream(seed, 12), n)
    u = uniforms(substream(seed, 13), n)
    d_a = 0.5 + u
    d_b = d_a.copy()
    d_b[0] *= 2.0
    return (q * d_a) @ q.T, (q * d_b) @ q.T


def _chain_pair(relation: Relation, seed: int, n: int):
    """A comparable pair; for the PSD order, the outer pair of a three-term
    ascending chain A <= B <= B + H H^T."""
    a, b = _comparable_pair(relation, substream(seed, 14), n)
    if relation is Relation.LOWNER:
        h = normal_matrix(substream(seed, 15), n, max(1, n // 2))
        return a, b + h @ h.T
    return a, b


def sample_pair(relation, seed: int, trial: int, n: int):
    """Deterministic pair for one preservation trial.

    Trials cycle through comparable, incomparable, chain-derived and a
    second comparable draw, so both branches of each implication get
    exercised with known ground truth.  Only the PSD order draws a
    chain-extended pair; for the minus and star orders the chain trial is
    one more comparable draw from its own substream.
    """
    relation = Relation(relation)
    key = substream(seed, trial)
    kind = trial % 4
    if kind == 0 or kind == 3:
        return _comparable_pair(relation, key, n)
    if kind == 1:
        return _incomparable_pair(relation, key, n)
    return _chain_pair(relation, key, n)


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
    for how the pairs are drawn.  The map is applied to each matrix, and
    all 2 * trials verdicts, before and after the map, are decided in one
    stacked check (order_holds_many).
    """
    relation = Relation(relation)
    report = PreservationReport(
        relation=relation.value, map_label=mmap.label, n=n, trials=trials
    )
    pairs = [sample_pair(relation, seed, t, n) for t in range(trials)]
    a, b = (np.array([p[i] for p in pairs]).reshape(trials, n, n) for i in (0, 1))
    fa, fb = (np.array([mmap.apply(x) for x in m]).reshape(a.shape) for m in (a, b))
    holds = order_holds_many(np.concatenate([a, fa]), np.concatenate([b, fb]), relation, tol)
    before, after = holds.reshape(2, trials)
    report.forward_checked = int(before.sum())
    report.forward_failures = int((before & ~after).sum())
    report.backward_checked = int(after.sum())
    report.backward_failures = int((after & ~before).sum())
    for t in np.flatnonzero(before != after)[:_MAX_COUNTEREXAMPLES]:
        report.counterexamples.append(("forward" if before[t] else "backward", *pairs[t]))
    return report


def probe_inputs(n: int) -> list:
    """The canonical probe matrices fit_congruence expects to see sampled:
    every e_i e_i^T and every (e_0 + e_i)(e_0 + e_i)^T."""
    probes = []
    for i in range(n):
        e = np.zeros((n, 1))
        e[i, 0] = 1.0
        probes.append(e @ e.T)
    for i in range(1, n):
        e = np.zeros((n, 1))
        e[0, 0] = 1.0
        e[i, 0] = 1.0
        probes.append(e @ e.T)
    return probes


def _find_output(samples, probe, tol):
    for given, image in samples:
        if maxabs(np.asarray(given, dtype=float) - probe) <= tol.recon_tol:
            return np.asarray(image, dtype=float)
    return None


def _rank_one_factor(m, tol):
    """Write a PSD rank-one matrix as v v^T; None when it is not one."""
    eig = sym_eig(m)
    lead = float(eig.values[0]) if eig.values.size else 0.0
    if lead <= 0 or eig.rank(tol) != 1:
        return None
    return np.sqrt(lead) * eig.vectors[:, 0]


def fit_congruence(samples, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Recover S from input/output samples of A -> S A S^T.

    The sample list must contain the probe_inputs images: the image of
    e_i e_i^T pins column i up to sign, and the mixed probes
    (e_0 + e_i)(e_0 + e_i)^T fix every sign relative to the first column.
    The global sign is normalized so the first nonzero entry of column 0 is
    positive.  Every remaining sample is then validated against the
    recovered S; anything unexplained raises InconsistentSamples.
    """
    pairs = [
        (np.asarray(x, dtype=float), np.asarray(y, dtype=float)) for x, y in samples
    ]
    if not pairs:
        raise InconsistentSamples("no samples given")
    n = pairs[0][0].shape[0]
    probes = probe_inputs(n)
    images = []
    for probe in probes:
        out = _find_output(pairs, probe, tol)
        if out is None:
            raise InconsistentSamples("probe inputs are missing from the samples")
        images.append(out)

    diag_images, mixed_images = images[:n], images[n:]
    first = _rank_one_factor(diag_images[0], tol)
    if first is None:
        raise InconsistentSamples(
            "image of the first probe is not rank one; no invertible "
            "congruence explains the samples"
        )
    nz = np.flatnonzero(np.abs(first) > 1e-12 * np.abs(first).max())
    if first[nz[0]] < 0:
        first = -first
    norm_sq = float(first @ first)

    columns = [first]
    for i in range(1, n):
        cross = mixed_images[i - 1] - diag_images[0] - diag_images[i]
        # cross = s_0 s_i^T + s_i s_0^T, so applying it to s_0 isolates s_i.
        dot = float(first @ cross @ first) / (2.0 * norm_sq)
        col = (cross @ first - dot * first) / norm_sq
        expected, image = np.outer(col, col), diag_images[i]
        if rel_residual(expected - image, expected, image) > tol.recon_tol:
            raise InconsistentSamples(
                f"column {i} reconstructed from the mixed probe does not "
                "reproduce its diagonal probe image"
            )
        columns.append(col)
    s = np.column_stack(columns)

    for given, image in pairs:
        predicted = s @ given @ s.T
        if rel_residual(predicted - image, predicted, image) > tol.recon_tol:
            raise InconsistentSamples(
                "a sample disagrees with the congruence fitted from the probes"
            )
    return s


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
    the image pairs still relate the same way.  The Loewner verdicts of all
    trials, before and after the map, are decided in one stacked check, and
    so are the minus verdicts.
    """
    report = PreservationReport(
        relation="projector-interval", map_label=mmap.label, n=n, trials=trials
    )
    ranks, projectors, contractions = [], [], []
    for t in range(trials):
        key = substream(seed, t, 1)
        k = int(uniforms(substream(key, 0), 1)[0] * (n + 1))
        q = _orthogonal(substream(key, 1), n)
        p = q[:, :k] @ q[:, :k].T
        shrink = 0.25 + 0.5 * float(uniforms(substream(key, 2), 1)[0])
        ranks.append(k)
        projectors.append(p)
        contractions.append(shrink * p)

    # rows: P and t P below I, then their images below the image of I
    identity = np.eye(n)
    below = np.array([*projectors, *contractions]).reshape(2 * trials, n, n)
    mapped = np.array([mmap.apply(x) for x in below]).reshape(below.shape)
    above = np.concatenate([
        np.broadcast_to(identity, below.shape),
        np.broadcast_to(mmap.apply(identity), below.shape),
    ])
    lowner, minus = (
        order_holds_many(np.concatenate([below, mapped]), above, rel, tol).reshape(2, 2, trials)
        for rel in (Relation.LOWNER, Relation.MINUS)
    )
    # P <= I in both orders, t P <= I in the PSD order only (unless P = 0)
    on_interval = lowner[:, 0] & minus[:, 0] & lowner[:, 1] & ((np.array(ranks) == 0) | ~minus[:, 1])
    invariant, image = on_interval
    report.forward_checked = trials
    report.forward_failures = int((~invariant).sum())
    report.backward_checked = int(invariant.sum())
    report.backward_failures = int((invariant & ~image).sum())
    for t in np.flatnonzero(~(invariant & image))[:_MAX_COUNTEREXAMPLES]:
        kind = "image" if invariant[t] else "invariant"
        report.counterexamples.append((kind, projectors[t], identity))
    return report
