"""Counter-based random streams: determinism, seed arrays, rough moments."""

import numpy as np

from psdorder.rng import normal_matrix, normals, substream, uniforms


def test_uniforms_deterministic_and_in_range():
    u1 = uniforms(123, 1000)
    u2 = uniforms(123, 1000)
    np.testing.assert_array_equal(u1, u2)
    assert np.all((u1 >= 0.0) & (u1 < 1.0))
    assert np.any(uniforms(124, 1000) != u1)


def test_normals_rough_moments():
    z = normals(2024, 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert abs((z**3).mean()) < 0.03
    assert abs((z**4).mean() - 3.0) < 0.1


def test_normals_finite():
    # u1 = 1 - u keeps log() away from zero for every counter value tried
    z = normals(0, 500_000)
    assert np.all(np.isfinite(z))


def test_substream_children_differ():
    seeds = {substream(42, i, j) for i in range(10) for j in range(10)}
    assert len(seeds) == 100
    assert substream(42, 3) != substream(43, 3)
    assert substream(42, 1, 2) == substream(42, 1, 2)
    streams = [normals(substream(7, k), 1000) for k in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            r = np.corrcoef(streams[i], streams[j])[0, 1]
            assert abs(r) < 0.1


def test_normal_matrix_shape_and_determinism():
    m = normal_matrix(3, 4, 5)
    assert m.shape == (4, 5)
    np.testing.assert_array_equal(m.ravel(), normals(3, 20))


def test_streams_match_recorded_values():
    # recorded from the numpy uint64 implementation, so any rewrite of the
    # SplitMix64 arithmetic must reproduce every stream bit for bit
    assert substream(0, 0) == 16294208416658607535
    assert substream(42, 3, 5) == 944763023252005333
    assert substream(-1, 2**64 + 5, 7) == 15114195839707298658
    assert substream(2**70, -3) == 2785712103215064854
    assert substream(99) == 99
    assert [x.hex() for x in uniforms(123, 11)[7:]] == [
        "0x1.edeefa1936476p-2", "0x1.3d5bb34b7924bp-1",
        "0x1.2039dbff563a0p-3", "0x1.755024737c6f4p-1",
    ]
    assert [x.hex() for x in normals(5, 8)[3:]] == [
        "0x1.b396091aef4d0p-2", "-0x1.e36b85ef4593ap-2", "0x1.c27e53b70a828p-2",
        "-0x1.73bf54d378d81p+1", "-0x1.9f8f75ae48aefp-3",
    ]


def test_seed_arrays_draw_each_stream_as_its_seed_alone():
    seeds = [0, 7, 2**63 + 5, 2**64 - 1, substream(-3, 4)]
    keys = np.array(seeds, dtype=np.uint64)
    for count in (0, 1, 2, 3, 7, 25):
        u, z = uniforms(keys, count), normals(keys, count)
        assert u.shape == z.shape == (len(seeds), count)
        for i, seed in enumerate(seeds):
            assert u[i].tobytes() == uniforms(seed, count).tobytes()
            assert z[i].tobytes() == normals(seed, count).tobytes()
    m = normal_matrix(keys.reshape(5, 1), 3, 4)
    assert m.shape == (5, 1, 3, 4)
    for i, seed in enumerate(seeds):
        assert m[i, 0].tobytes() == normal_matrix(seed, 3, 4).tobytes()


def test_substream_of_arrays_broadcasts_seeds_and_indices():
    seeds = [0, 42, 2**64 - 1]
    indices = [0, 14, 2**64 - 1]
    keys = substream(np.array(seeds, dtype=np.uint64)[:, None], np.array(indices, dtype=np.uint64), 1)
    assert keys.dtype == np.uint64 and keys.shape == (3, 3)
    assert keys.tolist() == [[substream(s, i, 1) for i in indices] for s in seeds]
    assert substream(-3, np.arange(4, dtype=np.uint64)).tolist() == [substream(-3, t) for t in range(4)]
