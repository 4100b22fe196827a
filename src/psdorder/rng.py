"""Deterministic, counter-based random streams.

Everything stochastic in this package (sampled order-preservation trials,
Monte Carlo draws) is keyed by an integer seed and produced by SplitMix64
counters mapped through Box-Muller.  Every draw reads its stream from the
first counter on; independent draws come from independent keys, derived
from a parent seed by substream.

A child key is derived one index at a time: the index's hash
mix64(index) + golden, taken mod 2**64, is XORed into the parent's key
and the result mixed again, so substream(seed, i, j) is
mix64(mix64(seed ^ hash(i)) ^ hash(j)).  A fixed index can have its hash
taken once (index_hash) and a child derived from it (child_key).

Streams can also be keyed by arrays.  substream, index_hash, child_key,
uniforms, normals and normal_matrix accept a uint64 array of seeds (or
indices) where they accept one, and derive or draw every key or stream at
once, with the array's shape as leading axes: each stream's values are
bit for bit those of a call with its seed alone, which is the case of a
single seed.  On Python ints the arithmetic is reduced mod 2**64 by
masks; uint64 arrays wrap by themselves and take no mask.  The samplers
derive all their trials' keys this way, one array mix per level of the
path, and draw all their streams in one block (uniform_block) (Salmon et
al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11, on keyed
counter-based streams).
"""

import functools
import operator

import numpy as np

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_GOLDEN_U, _MIX1_U, _MIX2_U = np.uint64(_GOLDEN), np.uint64(_MIX1), np.uint64(_MIX2)


def _mix64(x):
    """SplitMix64 finalizer: on a Python int in [0, 2**64), reduced mod
    2**64 by masks, or elementwise on a uint64 array (which wraps by itself
    and is not modified)."""
    if isinstance(x, np.ndarray):
        x = x ^ (x >> 30)
        x *= _MIX1_U
        x ^= x >> 27
        x *= _MIX2_U
        return x ^ (x >> 31)
    x ^= x >> 30
    x = (x * _MIX1) & _M64
    x ^= x >> 27
    x = (x * _MIX2) & _M64
    return x ^ (x >> 31)


def _key(x):
    """A uint64 array of one axis or more as it is, an integer scalar (0-d
    arrays included) as its Python int mod 2**64."""
    return x if isinstance(x, np.ndarray) and x.ndim else operator.index(x) & _M64


def index_hash(idx):
    """mix64(idx) + golden mod 2**64, the term an index XORs into its
    parent's key; elementwise on a uint64 array."""
    idx = _key(idx)
    if isinstance(idx, np.ndarray):
        return _mix64(idx) + _GOLDEN_U
    return (_mix64(idx) + _GOLDEN) & _M64


def child_key(key, hashed):
    """The key of the child of `key` whose index has the hash `hashed`;
    uint64 arrays of keys and hashes give every child, broadcast together."""
    return _mix64(_key(key) ^ _key(hashed))


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
        key = child_key(key, index_hash(idx))
    return key


def _counters(count: int) -> np.ndarray:
    """golden times the counters 1, ..., count."""
    return np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN_U


def _unit(bits: np.ndarray) -> np.ndarray:
    """The top 53 bits of each uint64 as a double in [0, 1)."""
    return (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


@functools.lru_cache(maxsize=32)
def _block_layout(counts: tuple):
    """The stream of each column of a uniform_block and its counters,
    kept per tuple of lengths (one row's worth each, read-only)."""
    streams = np.repeat(np.arange(len(counts)), counts)
    counters = np.concatenate([_counters(c) for c in counts])
    for a in (streams, counters):
        a.setflags(write=False)
    return streams, counters


def uniform_block(keys, counts: tuple) -> np.ndarray:
    """The streams keyed by the last axis of the uint64 array `keys`, the
    j-th drawn at its own length counts[j], side by side in one block of
    shape keys.shape[:-1] + (sum(counts),): columns sum(counts[:j]) on hold
    uniforms(keys[..., j], counts[j]) bit for bit."""
    streams, counters = _block_layout(tuple(counts))
    return _unit(_mix64(keys[..., streams] + counters))


def uniforms(seed, count: int) -> np.ndarray:
    """`count` doubles in [0, 1) from the stream keyed by `seed`; one row of
    them per seed of a seed array.  A stream's values do not depend on
    `count`: a shorter draw is a prefix of a longer one."""
    keys = np.asarray(_key(seed), dtype=np.uint64)[..., None]
    return _unit(_mix64(keys + _counters(count)))


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
