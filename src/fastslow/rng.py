"""Deterministic, splittable random-number streams.

Streams are built on numpy's counter-based Philox generator. A stream is
identified by a 64-bit root seed plus a tuple of integer key components;
``child`` derives substreams by extending the key. Distinct keys yield
statistically independent streams, and the sequence drawn from a given
(root_seed, key) pair is the same regardless of process, thread count or
scheduling order. Values are consumed sequentially, so drawing a block of
n values is bitwise identical to n single draws.

Key layout conventions used by the integrators (all internal, documented
here so outputs can be reproduced externally):

* ensemble chain / passage sample ``i``   -> ``base.child(i)``
* micro burst of replica ``j`` at macro step ``n`` -> ``chain.child(j, n)``
* equilibration burst of replica ``j``     -> ``chain.child(-1, j)``
* sequential draws of a direct integration -> ``chain.child(-2, 0)``

Blocks of streams. :meth:`RngStream.children` turns a ``(B, k)`` integer
array of key parts into a :class:`StreamBlock`, the streams
``child(*parts[r])`` for each row ``r``. Its keys come from one vectorised
uint64 splitmix pass that is bit-equal to the per-stream derivation, and
key parts are taken modulo 2**64, so ``-1`` keys the same stream as
``2**64 - 1``. ``StreamBlock.normals(m)`` returns a ``(B, m)`` block whose
row ``r`` is bitwise equal to ``RngStream(root_seed, tuple(parts[r]))
.normals(m)``. It builds one Philox and one Generator per call and, for each
row, resets the Philox state to counter 0 and that row's key with an empty
output buffer, which is exactly the state of a freshly keyed Philox; so no
per-row seeding and no OS entropy are needed. The generator is local to the
call, so concurrent calls from several threads are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


_U64 = np.uint64
_GOLDEN_U64, _MIX1_U64, _MIX2_U64 = (
    _U64(_GOLDEN), _U64(0xBF58476D1CE4E5B9), _U64(0x94D049BB133111EB))


def _splitmix64_u64(z: np.ndarray) -> np.ndarray:
    """Element-wise :func:`_splitmix64` of a uint64 array (wraps mod 2**64).

    The Python-int version stays for single streams, where it is faster than
    numpy calls on one-element arrays.
    """
    z = z + _GOLDEN_U64
    z = (z ^ (z >> _U64(30))) * _MIX1_U64
    z = (z ^ (z >> _U64(27))) * _MIX2_U64
    return z ^ (z >> _U64(31))


def _philox_key(root_seed: int, key: tuple[int, ...]) -> np.ndarray:
    """Mix (root_seed, key...) into the 128-bit Philox key."""
    h0 = _splitmix64(int(root_seed) & _MASK64)
    h1 = _splitmix64(h0 ^ 0xA5A5A5A5A5A5A5A5)
    for part in key:
        p = int(part) & _MASK64
        h0 = _splitmix64(h0 ^ p)
        h1 = _splitmix64((h1 + _splitmix64(p ^ _GOLDEN)) & _MASK64)
    return np.array([h0, h1], dtype=np.uint64)


@dataclass
class RngStream:
    """A keyed random stream with a sequential draw cursor.

    The stream is defined by ``root_seed`` and ``stream_key``; the attached
    generator is created lazily and advances as values are drawn. A stream
    is meant to be consumed by a single worker; derive independent
    substreams with :meth:`child` for concurrent work.
    """

    root_seed: int
    stream_key: tuple[int, ...] = ()
    _gen: np.random.Generator | None = field(
        default=None, repr=False, compare=False
    )

    def child(self, *parts: int) -> "RngStream":
        """Derive an independent substream by extending the key."""
        return RngStream(self.root_seed, self.stream_key + tuple(parts))

    def children(self, parts) -> "StreamBlock":
        """The substreams ``child(*parts[r])`` for the rows of a (B, k) array."""
        parts = _key_parts(parts)
        prefix = np.array([int(p) & _MASK64 for p in self.stream_key],
                          dtype=np.uint64)
        return StreamBlock(self.root_seed, np.hstack(
            [np.broadcast_to(prefix, (parts.shape[0], prefix.size)), parts]))

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            bitgen = np.random.Philox(key=_philox_key(self.root_seed, self.stream_key))
            self._gen = np.random.Generator(bitgen)
        return self._gen

    def normals(self, shape) -> np.ndarray:
        """Draw the next block of standard normal values."""
        return self.generator.standard_normal(shape)


def _key_parts(parts) -> np.ndarray:
    """(B, k) key parts as uint64, each part taken modulo 2**64.

    Raises:
        ValueError: unless ``parts`` is a 2-D array of a signed or unsigned
            integer dtype, or empty (Python ints outside the int64 and
            uint64 ranges give an object array and are refused).
    """
    arr = np.asarray(parts)
    if arr.ndim != 2 or (arr.dtype.kind not in "iu" and arr.size):
        raise ValueError("key parts must be a 2-D integer array, got shape "
                         f"{arr.shape} and dtype {arr.dtype}")
    if arr.dtype.kind == "i":
        return arr.astype(np.int64).view(np.uint64)
    return arr.astype(np.uint64)


@dataclass(frozen=True, eq=False)
class StreamBlock:
    """The streams ``RngStream(root_seed, tuple(parts[r]))``, one per row.

    ``parts`` is a (B, k) uint64 array; build blocks with
    :meth:`RngStream.children`.
    """

    root_seed: int
    parts: np.ndarray

    def keys(self) -> np.ndarray:
        """(B, 2) uint64 Philox keys, row r bit-equal to ``_philox_key``."""
        h0 = _splitmix64(int(self.root_seed) & _MASK64)
        h1 = _splitmix64(h0 ^ 0xA5A5A5A5A5A5A5A5)
        n = self.parts.shape[0]
        h0 = np.full(n, h0, dtype=np.uint64)
        h1 = np.full(n, h1, dtype=np.uint64)
        mixed = _splitmix64_u64(self.parts ^ _GOLDEN_U64)
        for p, q in zip(self.parts.T, mixed.T):
            h0 = _splitmix64_u64(h0 ^ p)
            h1 = _splitmix64_u64(h1 + q)
        return np.stack([h0, h1], axis=1)

    def normals(self, m: int) -> np.ndarray:
        """(B, m) block: row r holds the first m normals of stream r."""
        keys = self.keys()
        out = np.empty((keys.shape[0], m))
        # a fixed placeholder seed; every row overwrites the whole state
        bitgen = np.random.Philox(0)
        gen = np.random.Generator(bitgen)
        state = {"bit_generator": "Philox",
                 "state": {"counter": np.zeros(4, dtype=np.uint64),
                           "key": None},
                 "buffer": np.zeros(4, dtype=np.uint64),
                 "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        for row, key in zip(out, keys):
            state["state"]["key"] = key
            bitgen.state = state
            gen.standard_normal(out=row)
        return out

    def generators(self) -> list[np.random.Generator]:
        """One generator per row, for streams drawn across several calls."""
        return [np.random.Generator(np.random.Philox(key=k))
                for k in self.keys()]


def gaussian_increment(stream: RngStream, dim: int, dt: float) -> np.ndarray:
    """Draw a vector of ``dim`` independent N(0, dt) increments.

    Deterministic given the stream identity and the number of values drawn
    from it so far.

    Raises:
        ValueError: if ``dt <= 0`` or ``dim < 1``.
    """
    if not (dt > 0.0) or not math.isfinite(dt):
        raise ValueError(f"dt must be a positive finite real, got {dt}")
    if dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim}")
    return stream.normals(dim) * math.sqrt(dt)
