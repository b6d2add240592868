import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastslow import RngStream
from fastslow.rng import StreamBlock, _key_halves, _run_keys


def _philox_key(root_seed, key):
    """The 128-bit Philox key of a stream, as two uint64 halves."""
    return np.array(_key_halves(root_seed, key), dtype=np.uint64)


def test_normals_moments():
    stream = RngStream(2024)
    n = 10 ** 6
    draws = np.concatenate([stream.normals(3) for _ in range(0, n, 3)])[:n]
    # 3-sigma Monte Carlo bands around mean 0 and variance 1
    assert abs(draws.mean()) < 3 * np.sqrt(1 / n)
    assert abs(draws.var() - 1) < 3 * np.sqrt(2) / np.sqrt(n)


def test_same_stream_is_bitwise_reproducible():
    a = RngStream(7, (1, 2)).normals(5)
    b = RngStream(7, (1, 2)).normals(5)
    assert np.array_equal(a, b)
    # and the draw index matters: a second draw differs
    s = RngStream(7, (1, 2))
    first = s.normals(5)
    second = s.normals(5)
    assert not np.array_equal(first, second)


def test_distinct_keys_are_uncorrelated():
    n = 10 ** 5
    a = RngStream(99).child(0, 0).normals(n)
    b = RngStream(99).child(1, 0).normals(n)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.01


def test_chunked_draws_match_single_draws():
    a = RngStream(5, (3,)).normals(12)
    s = RngStream(5, (3,))
    b = np.concatenate([s.normals(4) for _ in range(3)])
    assert np.array_equal(a, b)
    # shape does not matter either, only the draw order
    c = RngStream(5, (3,)).normals((4, 3)).reshape(-1)
    assert np.array_equal(a, c)


def test_child_extends_key():
    s = RngStream(11, (4,))
    assert s.child(2, 9).stream_key == (4, 2, 9)
    assert s.child(2, 9).root_seed == 11


def test_numpy_integer_seeds_and_parts_key_like_python_ints():
    a = RngStream(np.int64(3)).child(np.int64(-1), np.uint64(2 ** 63)).normals(4)
    b = RngStream(3).child(-1, 2 ** 63).normals(4)
    assert np.array_equal(a, b)
    block = RngStream(np.uint64(3), (np.int32(-1),)).children([[2 ** 63]])
    assert np.array_equal(block.normals(4)[0], b)


@pytest.mark.parametrize("stream", [
    lambda: RngStream(3).child(0.9), lambda: RngStream(2.7),
    lambda: RngStream(3, (np.float64(1.0),)), lambda: RngStream(3.0).child(1)])
def test_non_integer_seeds_and_parts_are_refused(stream):
    # int() would truncate them: child(0.9) would key what child(0) keys
    with pytest.raises(TypeError):
        stream().normals(1)
    with pytest.raises(TypeError):
        stream().children(np.zeros((1, 1), dtype=int))


@pytest.mark.parametrize("key", [(), (5, -2)])
def test_a_lone_run_is_keyed_by_its_stream(key):
    base = RngStream(17, key)
    ids, block = _run_keys(base)
    assert ids.tolist() == [0]
    assert np.array_equal(block.keys(), _philox_key(17, key)[None])
    assert np.array_equal(block.normals(5)[0], base.normals(5))


@pytest.mark.parametrize("key", [(), (5, -2)])
def test_batched_runs_are_keyed_by_their_ids(key):
    ids, block = _run_keys(RngStream(17, key), np.array([4, 0, -1, 4]))
    assert ids.tolist() == [4, 0, -1, 4]
    assert np.array_equal(block.keys(), np.stack(
        [_philox_key(17, key + (i,)) for i in (4, 0, -1, 4)]))


@pytest.mark.parametrize("ids", [[0.5, 1.5], [True, False], [[0, 1]]])
def test_run_ids_must_be_1d_integers(ids):
    # a float id cast to int would key chain 0 twice, a flag would key 0/1
    with pytest.raises(ValueError,
                       match="^ids must be a 1-D array of integers"):
        _run_keys(RngStream(1), ids)


def test_negative_key_parts_are_distinct():
    a = RngStream(3).child(-1, 0).normals(8)
    b = RngStream(3).child(0, 0).normals(8)
    c = RngStream(3).child(-2, 0).normals(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# stream blocks

def _single(root, row, m):
    return RngStream(root, tuple(int(p) for p in row)).normals(m)


@settings(max_examples=60, deadline=None)
@given(root=st.integers(-2 ** 63, 2 ** 64 - 1), k=st.integers(0, 4),
       m=st.sampled_from([0, 1, 200]), data=st.data())
def test_block_rows_equal_single_streams(root, k, m, data):
    rows = data.draw(st.lists(
        st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=k, max_size=k),
        max_size=5))
    parts = np.array(rows, dtype=np.int64).reshape(len(rows), k)
    block = RngStream(root).children(parts)
    out = block.normals(m)
    assert out.shape == (len(rows), m)
    for r, row in enumerate(parts):
        assert np.array_equal(block.keys()[r], _philox_key(root, tuple(
            int(p) for p in row)))
        assert np.array_equal(out[r], _single(root, row, m))


@settings(max_examples=60, deadline=None)
@given(root=st.integers(-2 ** 63, 2 ** 64 - 1), k=st.integers(0, 3),
       b=st.integers(0, 6), data=st.data())
def test_child_and_selection_fold_like_full_keys(root, k, b, data):
    parts = np.array(data.draw(st.lists(
        st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=k + 1,
                 max_size=k + 1), min_size=b, max_size=b)),
        dtype=np.int64).reshape(b, k + 1)
    n = data.draw(st.integers(0, 2 ** 64 - 1))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=b,
                                       max_size=b)), dtype=bool)
    full = np.column_stack([parts.view(np.uint64),
                            np.full(b, n, dtype=np.uint64)])
    prefix = RngStream(root).children(parts[:, :k])
    assert len(prefix) == b
    # one column, then one scalar shared by all rows
    assert np.array_equal(prefix.child(parts[:, k]).child(n).keys(),
                          RngStream(root).children(full).keys())
    # selecting lanes commutes with folding
    assert np.array_equal(prefix[mask].child(parts[mask, k]).child(n).keys(),
                          RngStream(root).children(full[mask]).keys())


def test_child_column_must_match_the_block():
    block = RngStream(1).children(np.zeros((3, 1), dtype=int))
    with pytest.raises(ValueError, match="2 key parts for a block of 3"):
        block.child(np.arange(2))
    with pytest.raises(TypeError):
        block.child(1.5)


def test_plain_int_reset_draws_like_a_freshly_keyed_philox():
    # high halves at and above 2**63 pass through Python ints unchanged
    h0 = np.array([0, 1, 2 ** 63, 2 ** 64 - 1, 12345], dtype=np.uint64)
    h1 = np.array([2 ** 64 - 1, 0, 7, 2 ** 63 + 1, 12345], dtype=np.uint64)
    block = StreamBlock(h0, h1)
    for m in (1, 3, 257):
        out = block.normals(m)
        for row, key in zip(out, block.keys()):
            fresh = np.random.Generator(np.random.Philox(key=key))
            assert np.array_equal(row, fresh.standard_normal(m))


def test_keyed_generators_draw_like_philox_of_their_key():
    # RngStream.generator sets the keyed state on a Philox from a
    # placeholder seed; its draws must be those of Philox(key=k)
    streams = [RngStream(5, (r, -2, 0)) for r in range(4)]
    for s in streams:
        gen, key = s.generator, _philox_key(s.root_seed, s.stream_key)
        fresh = np.random.Generator(np.random.Philox(key=key))
        for m in (3, 257):
            assert np.array_equal(gen.standard_normal(m),
                                  fresh.standard_normal(m))
        assert np.array_equal(gen.random(5), fresh.random(5))


@pytest.mark.parametrize("m", [1, 7, 512])
def test_uniforms_read_each_stream_at_a_counter_offset(m):
    base = RngStream(13)
    parts = np.array([[0, 1], [5, -1], [2 ** 62, 1]])
    block = base.children(parts)
    for start in (0, 4, 512, 64 * m):
        out = block.uniforms(m, start)
        assert out.shape == (3, m)
        for row, part in zip(out, parts):
            gen = base.child(*map(int, part)).generator
            assert np.array_equal(row, gen.random(start + m)[start:])
    assert block[:0].uniforms(m, 4).shape == (0, m)


@pytest.mark.parametrize("start", [-4, -1, 2, 6, 513])
def test_uniforms_refuse_a_start_off_the_philox_blocks(start):
    block = RngStream(13).children(np.zeros((3, 1), dtype=int))
    with pytest.raises(ValueError, match="nonnegative multiple of 4"):
        block.uniforms(8, start)


def test_block_negative_parts_key_like_their_uint64_residues():
    parts = np.array([[3, -1, 0], [3, -2, 0], [0, -1, 7]])
    as_u64 = RngStream(9).children(parts.astype(np.uint64)).normals(16)
    block = RngStream(9).children(parts).normals(16)
    assert np.array_equal(block, as_u64)
    for r, row in enumerate(parts):
        assert np.array_equal(block[r], _single(9, row, 16))
    # the uint64 residue of -1 keys the stream of 2**64 - 1
    assert np.array_equal(block[0], RngStream(9, (3, 2 ** 64 - 1, 0)).normals(16))


def test_block_of_a_keyed_stream_extends_its_key():
    base = RngStream(2 ** 63 + 5, (4, -7))
    parts = np.array([[0, 1], [2, -2]])
    out = base.children(parts).normals(9)
    for r, row in enumerate(parts):
        assert np.array_equal(out[r], base.child(*map(int, row)).normals(9))


def test_empty_block():
    out = RngStream(5).children(np.zeros((0, 3), dtype=int)).normals(7)
    assert out.shape == (0, 7)


def test_parts_beyond_int64_key_exactly_or_raise():
    # uint64 parts at or above 2**63 key what the per-stream path keys
    parts = np.array([[2 ** 63, 2 ** 64 - 1]], dtype=np.uint64)
    assert np.array_equal(RngStream(1).children(parts).normals(5)[0],
                          RngStream(1, (2 ** 63, 2 ** 64 - 1)).normals(5))
    # Python ints numpy cannot hold as int64 or uint64 are refused
    for rows in ([[2 ** 64]], [[-2 ** 63 - 1]], [[-1, 2 ** 63]], [[1.5]],
                 [[True]], [1, 2]):
        with pytest.raises(ValueError, match="key parts"):
            RngStream(1).children(rows)


def test_concurrent_blocks_equal_serial_blocks():
    blocks = [RngStream(s).children(np.column_stack(
        [np.arange(40), np.full(40, -1), np.arange(40) % 3]))
        for s in range(4)]
    serial = [b.normals(300) for b in blocks]
    start = threading.Barrier(len(blocks))

    def draw(b):
        start.wait(timeout=10)
        return [b.normals(300) for _ in range(10)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
            futures = [pool.submit(draw, b) for b in blocks]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for ref, got in zip(serial, results):
        assert all(np.array_equal(ref, g) for g in got)
