"""Deterministic, counter-based random streams.

Everything stochastic in this package (sampled order-preservation trials,
Monte Carlo draws) is keyed by an integer seed and produced by SplitMix64
counters mapped through Box-Muller.  Every draw reads its stream from the
first counter on; independent draws come from independent keys, derived
from a parent seed by substream.

Streams can also be keyed by arrays.  substream, uniforms, normals and
normal_matrix accept a uint64 array of seeds where they accept one seed,
and draw every stream at once, with the array's shape as leading axes:
each stream's values are bit for bit those of a call with its seed alone,
which is the case of a single seed.  The samplers draw all their trials
this way (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3",
SC'11, on keyed counter-based streams).
"""

import operator

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


def _key(x):
    """A uint64 array as it is, an integer scalar as its Python int mod 2**64."""
    return x if isinstance(x, np.ndarray) else operator.index(x) & _M64


def substream(seed, *indices):
    """Derive a child seed from a parent seed and a path of indices.

    Children of distinct paths are statistically independent streams; this is
    how trial loops and Monte Carlo shards get their private keys.  On Python
    ints the arithmetic is reduced mod 2**64 like the uint64 array
    arithmetic of the streams themselves; uint64 arrays of seeds or indices
    give the children of every combination, broadcast together.
    """
    key = _key(seed)
    for idx in indices:
        key = _mix64(key ^ ((_mix64(_key(idx)) + _GOLDEN) & _M64))
    return key


def _raw(seed, count: int) -> np.ndarray:
    counters = np.arange(1, count + 1, dtype=np.uint64)
    keys = np.asarray(_key(seed), dtype=np.uint64)[..., None]
    return _mix64(keys + counters * np.uint64(_GOLDEN))


def uniforms(seed, count: int) -> np.ndarray:
    """`count` doubles in [0, 1) from the stream keyed by `seed`; one row of
    them per seed of a seed array."""
    bits = _raw(seed, count)
    return (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def box_muller(u: np.ndarray) -> np.ndarray:
    """Standard normals from uniforms in [0, 1), one per uniform: entries
    (2i, 2i + 1) of the last axis, which must have even length, make a
    pair.  u1 is reflected into (0, 1] to keep log finite."""
    radius = np.sqrt(-2.0 * np.log(1.0 - u[..., 0::2]))
    angle = 2.0 * np.pi * u[..., 1::2]
    out = np.empty(u.shape)
    out[..., 0::2] = radius * np.cos(angle)
    out[..., 1::2] = radius * np.sin(angle)
    return out


def normals(seed, count: int) -> np.ndarray:
    """`count` standard normal doubles via Box-Muller, one row per seed of
    a seed array: counter positions (2i, 2i + 1) make the pair of normals
    2i and 2i + 1, and an odd count drops the last normal of its pair."""
    return box_muller(uniforms(seed, count + count % 2))[..., :count]


def normal_matrix(seed, rows: int, cols: int) -> np.ndarray:
    """Row-major (rows, cols) matrix of standard normals from one stream,
    one per seed of a seed array."""
    return normals(seed, rows * cols).reshape(*np.shape(seed), rows, cols)
