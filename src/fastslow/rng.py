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

``run_scheme`` runs one lane of the same drivers with no chain key, so its
streams hang directly off ``base = RngStream(root_seed)``:

* direct scheme, all sequential draws      -> ``base.child(-2, 0)``
* hmm burst at macro step ``n``            -> ``base.child(0, n)``
* phmm burst of replica ``j`` at step ``n`` -> ``base.child(j, n)``

A lane with e fast components draws e normals per micro or direct step,
step-major, from its one stream.

Blocks of streams. A :class:`StreamBlock` holds B streams as their folded
Philox key halves, two (B,) uint64 arrays. Key parts fold in one at a time,
so a block built once for a key prefix serves every longer key:
``block.child(part)`` folds one more part (a scalar or a (B,) column, mod
2**64, so ``-1`` keys what ``2**64 - 1`` keys) bit-equal to the per-stream
derivation; ``block[idx]`` selects rows; :meth:`RngStream.children` folds
the columns of a (B, k) part array. ``StreamBlock.normals(m)`` returns a
(B, m) block whose row r is bitwise the stream's own ``normals(m)``: one
Philox per call is reset for each row, from plain Python ints, to counter
0, the row's key and an empty buffer, the state of a freshly keyed Philox.
The generator is local to the call, so concurrent calls are safe.
"""

from __future__ import annotations

import operator
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


def _key_halves(root_seed: int, key: tuple[int, ...]) -> tuple[int, int]:
    """Fold (root_seed, key...), one part at a time, into the two 64-bit
    Philox key halves."""
    h0 = _splitmix64(int(root_seed) & _MASK64)
    h1 = _splitmix64(h0 ^ 0xA5A5A5A5A5A5A5A5)
    for part in key:
        p = int(part) & _MASK64
        h0 = _splitmix64(h0 ^ p)
        h1 = _splitmix64((h1 + _splitmix64(p ^ _GOLDEN)) & _MASK64)
    return h0, h1


# a Philox seeded from it and then given a freshly keyed state draws what
# Philox(key=...) draws, which first seeds a SeedSequence from OS entropy
_PLACEHOLDER_SEED = np.random.SeedSequence(0)


def _fresh_state(k0: int, k1: int) -> dict:
    """A freshly keyed Philox state, from plain ints: counter 0, key
    (k0, k1) and an empty buffer."""
    return {"bit_generator": "Philox", "buffer": [0, 0, 0, 0],
            "state": {"counter": [0, 0, 0, 0], "key": [k0, k1]},
            "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _keyed_generator(k0: int, k1: int) -> np.random.Generator:
    bitgen = np.random.Philox(_PLACEHOLDER_SEED)
    bitgen.state = _fresh_state(k0, k1)
    return np.random.Generator(bitgen)


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
        block = StreamBlock(*(np.full(parts.shape[0], h, dtype=np.uint64) for h
                              in _key_halves(self.root_seed, self.stream_key)))
        for column in parts.T:
            block = block.child(column)
        return block

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = _keyed_generator(*_key_halves(self.root_seed,
                                                      self.stream_key))
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
    """B streams, row r keyed by the ``_key_halves`` ``(h0[r], h1[r])``;
    build blocks with :meth:`RngStream.children`."""

    h0: np.ndarray
    h1: np.ndarray

    def __len__(self) -> int:
        return self.h0.shape[0]

    def __getitem__(self, idx) -> "StreamBlock":
        return StreamBlock(self.h0[idx], self.h1[idx])

    def child(self, part) -> "StreamBlock":
        """The block of ``stream.child(part)`` for every row; ``part`` is
        one integer for all rows or a (B,) integer column (ValueError if its
        length is not B), taken modulo 2**64."""
        if np.ndim(part) == 0:
            p = operator.index(part) & _MASK64
            p, q = _U64(p), _U64(_splitmix64(p ^ _GOLDEN))
        else:
            p = _key_parts(np.reshape(part, (-1, 1)))[:, 0]
            if p.shape != self.h0.shape:
                raise ValueError(f"{p.size} key parts for a block of "
                                 f"{len(self)} streams")
            q = _splitmix64_u64(p ^ _GOLDEN_U64)
        return StreamBlock(_splitmix64_u64(self.h0 ^ p),
                           _splitmix64_u64(self.h1 + q))

    def keys(self) -> np.ndarray:
        """(B, 2) uint64 Philox keys, row r the ``_key_halves`` of stream r."""
        return np.stack([self.h0, self.h1], axis=1)

    def normals(self, m: int) -> np.ndarray:
        """(B, m) block: row r holds the first m normals of stream r."""
        out = np.empty((len(self), m))
        bitgen = np.random.Philox(_PLACEHOLDER_SEED)
        gen = np.random.Generator(bitgen)
        state = _fresh_state(0, 0)  # every row sets its key
        for row, k0, k1 in zip(out, self.h0.tolist(), self.h1.tolist()):
            state["state"]["key"] = [k0, k1]
            bitgen.state = state
            gen.standard_normal(out=row)
        return out

    def generators(self) -> list[np.random.Generator]:
        """One generator per row, for streams drawn across several calls."""
        return [_keyed_generator(k0, k1)
                for k0, k1 in zip(self.h0.tolist(), self.h1.tolist())]
