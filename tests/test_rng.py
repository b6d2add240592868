import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastslow import RngStream, gaussian_increment
from fastslow.rng import _philox_key


def test_gaussian_increment_moments():
    stream = RngStream(2024)
    n = 10 ** 6
    draws = np.concatenate([gaussian_increment(stream, 3, 0.1)
                            for _ in range(0, n, 3)])[:n]
    # 3-sigma Monte Carlo bands around mean 0 and variance dt = 0.1
    assert abs(draws.mean()) < 3 * np.sqrt(0.1 / n)
    assert abs(draws.var() - 0.1) < 3 * np.sqrt(2) * 0.1 / np.sqrt(n)


def test_gaussian_increment_rejects_bad_dt():
    with pytest.raises(ValueError):
        gaussian_increment(RngStream(1), 3, 0.0)
    with pytest.raises(ValueError):
        gaussian_increment(RngStream(1), 3, -1.0)


def test_same_stream_is_bitwise_reproducible():
    a = gaussian_increment(RngStream(7, (1, 2)), 5, 0.3)
    b = gaussian_increment(RngStream(7, (1, 2)), 5, 0.3)
    assert np.array_equal(a, b)
    # and the draw index matters: a second draw differs
    s = RngStream(7, (1, 2))
    first = gaussian_increment(s, 5, 0.3)
    second = gaussian_increment(s, 5, 0.3)
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
