"""Deterministic, counter-based random streams.

Everything stochastic in this package (sampled order-preservation trials,
Monte Carlo draws) is keyed by an integer seed and produced by SplitMix64
counters mapped through Box-Muller.  Counter-based
generation means a stream can be sharded by offset: draws [k, k+m) are the
same whether produced in one call or many, so parallel shards and a single
sequential run agree bit for bit.
"""

import numpy as np

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(x):
    """SplitMix64 finalizer, wrapping at 2**64: on a Python int in
    [0, 2**64), or elementwise on a uint64 array (which wraps by itself)."""
    x ^= x >> 30
    x = (x * _MIX1) & _M64
    x ^= x >> 27
    x = (x * _MIX2) & _M64
    return x ^ (x >> 31)


def substream(seed: int, *indices: int) -> int:
    """Derive a child seed from a parent seed and a path of indices.

    Children of distinct paths are statistically independent streams; this is
    how trial loops and Monte Carlo shards get their private keys.  The
    arithmetic runs on Python ints, reduced mod 2**64 like the uint64 array
    arithmetic of the streams themselves.
    """
    key = seed & _M64
    for idx in indices:
        key = _mix64(key ^ ((_mix64(idx & _M64) + _GOLDEN) & _M64))
    return key


def _raw(seed: int, count: int, offset: int) -> np.ndarray:
    counters = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    return _mix64(np.uint64(seed & _M64) + counters * np.uint64(_GOLDEN))


def uniforms(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """`count` doubles in [0, 1) from the stream keyed by `seed`, starting at
    counter position `offset`."""
    bits = _raw(seed, count, offset)
    return (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def normals(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """`count` standard normal doubles via Box-Muller.

    Each counter position yields one normal; positions pair up as (even, odd)
    so offset-based sharding remains exact as long as shard boundaries are
    even.  Internally u1 is reflected into (0, 1] to keep log finite.
    """
    if count == 0:
        return np.zeros(0)
    start = offset - (offset % 2)
    n_pos = (offset + count) - start
    n_pairs = (n_pos + 1) // 2
    u = uniforms(seed, 2 * n_pairs, start)
    u1 = 1.0 - u[0::2]
    u2 = u[1::2]
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(2 * n_pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    lead = offset - start
    return out[lead:lead + count]


def normal_matrix(seed: int, rows: int, cols: int, offset: int = 0) -> np.ndarray:
    """Row-major (rows, cols) matrix of standard normals from one stream."""
    return normals(seed, rows * cols, offset).reshape(rows, cols)
