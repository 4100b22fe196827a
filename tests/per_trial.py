"""Per-trial reference samplers for the preserver sweeps.

Each function here builds one trial at a time, from streams keyed by one
seed and with one 2-D product per matrix.  The samplers in
psdorder.preservers draw whole stacks of trials at once and must
reproduce every matrix these build bit for bit.
"""

import numpy as np

from psdorder.orders import Relation
from psdorder.rng import normal_matrix, substream, uniforms


def orthogonal(seed, n):
    q, r = np.linalg.qr(normal_matrix(seed, n, n))
    return q * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))


def comparable_pair(relation, seed, n):
    if relation is Relation.LOWNER:
        g = normal_matrix(substream(seed, 0), n, n)
        a = g @ g.T
        k = int(uniforms(substream(seed, 1), 1)[0] * (n + 1))
        if k == 0:
            return a, a.copy()
        h = normal_matrix(substream(seed, 2), n, k)
        return a, a + h @ h.T
    if relation is Relation.MINUS:
        q = orthogonal(substream(seed, 3), n)
        s = q * (0.5 + 1.5 * uniforms(substream(seed, 16), n))
        u = uniforms(substream(seed, 4), 2)
        r = int(u[0] * (n + 1))
        k = r + int(u[1] * (n - r + 1))
        d_a = np.array([1.0] * r + [0.0] * (n - r))
        d_b = np.array([1.0] * k + [0.0] * (n - k))
        return (s * d_a) @ s.T, (s * d_b) @ s.T
    q = orthogonal(substream(seed, 5), n)
    u = uniforms(substream(seed, 6), 3 * n)
    support_a = u[:n] < 0.5
    d_a = np.where(support_a, 0.5 + u[n:2 * n], 0.0)
    grow = (~support_a) & (u[2 * n:] < 0.5)
    d_b = d_a + np.where(grow, 0.5 + u[n:2 * n], 0.0)
    return (q * d_a) @ q.T, (q * d_b) @ q.T


def incomparable_pair(relation, seed, n):
    if relation is Relation.LOWNER:
        q = orthogonal(substream(seed, 7), n)
        u = uniforms(substream(seed, 8), n)
        d = 1.0 + u
        d[-1] = -(0.05 + 0.25 * u[-1])
        diff = (q * d) @ q.T
        g = normal_matrix(substream(seed, 9), n, n)
        base = g @ g.T + (abs(d[-1]) + 0.5) * np.eye(n)
        return base, base + diff
    if relation is Relation.MINUS:
        q = orthogonal(substream(seed, 10), n)
        s = q * (0.5 + 1.5 * uniforms(substream(seed, 17), n))
        u = uniforms(substream(seed, 11), n + 1)
        k = 1 + int(u[0] * (n - 1))
        d_a = np.array([1.0] * k + [0.0] * (n - k))
        d_b = d_a * (1.5 + u[1:])
        return (s * d_a) @ s.T, (s * d_b) @ s.T
    q = orthogonal(substream(seed, 12), n)
    u = uniforms(substream(seed, 13), n)
    d_a = 0.5 + u
    d_b = d_a.copy()
    d_b[0] *= 2.0
    return (q * d_a) @ q.T, (q * d_b) @ q.T


def chain_pair(relation, seed, n):
    a, b = comparable_pair(relation, substream(seed, 14), n)
    if relation is Relation.LOWNER:
        h = normal_matrix(substream(seed, 15), n, max(1, n // 2))
        return a, b + h @ h.T
    return a, b


def sample_pair(relation, seed, trial, n):
    """The pair of one preserves_order trial."""
    relation = Relation(relation)
    key = substream(seed, trial)
    kind = trial % 4
    if kind == 0 or kind == 3:
        return comparable_pair(relation, key, n)
    if kind == 1:
        return incomparable_pair(relation, key, n)
    return chain_pair(relation, key, n)


def projector_trial(seed, trial, n):
    """The rank k, projector P and contraction t P of one
    projector_fixed_point_suite trial."""
    key = substream(seed, trial, 1)
    k = int(uniforms(substream(key, 0), 1)[0] * (n + 1))
    q = orthogonal(substream(key, 1), n)
    p = q[:, :k] @ q[:, :k].T
    return k, p, (0.25 + 0.5 * float(uniforms(substream(key, 2), 1)[0])) * p
