"""Deterministic random-stream derivation.

One master seed fans out into independent substreams keyed by stable
identifiers (purpose strings, image ids, repetition indices).  String keys
are hashed with SHA-256 rather than the process-salted builtin ``hash`` so
the same key yields the same stream in every interpreter run.

:func:`substream` builds one numpy generator per key.  :func:`uniforms`
derives the first uniforms of many such streams at once: it codes every
key component, hashing each distinct one once, then reproduces numpy's
``SeedSequence`` entropy mix and ``PCG64`` (XSL-RR) output over arrays of
rows, so row ``i`` equals ``substream(seed, *keys[i]).random(m)`` bit for bit.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from itertools import chain, islice

import numpy as np

__all__ = ["substream", "key_words", "uniforms"]

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
# key types memoized by uniforms(): no value of one equals a value of another
_CACHED_KEY_TYPES = frozenset((str, bytes, int))
# rows derived per batch by uniforms(); bounds its temporary arrays
_CHUNK_ROWS = 2048
# a SHA-256 digest as four little-endian 64-bit words
_FOUR_WORDS = struct.Struct("<4Q")

# numpy.random.SeedSequence constants (pool of four uint32 words)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

# PCG64's 128-bit LCG multiplier as its high and low 64-bit words
_PCG_MULT_HI = 0x2360ED051FC65DA4
_PCG_MULT_LO = 0x4385DF649FCCF645
_U64 = np.uint64
_SHIFT32 = _U64(32)
_LOW32 = _U64(_MASK32)


def key_words(key) -> tuple:
    """Map a seed key to a tuple of unsigned 64-bit words.

    Integers pass through (masked to 64 bits); strings and bytes are hashed
    with SHA-256 and split into four words.  Nested tuples/lists flatten.
    """
    if isinstance(key, str):
        key = key.encode("utf-8")
    if isinstance(key, (bytes, bytearray)):
        return _FOUR_WORDS.unpack(hashlib.sha256(bytes(key)).digest())
    if isinstance(key, (int, np.integer)):
        return (int(key) & _MASK64,)
    if isinstance(key, (tuple, list)):
        words = []
        for part in key:
            words.extend(key_words(part))
        return tuple(words)
    raise TypeError(f"cannot derive stream key from {type(key).__name__}")


def substream(seed: int, *keys) -> np.random.Generator:
    """Child generator for (seed, keys...), independent across distinct keys."""
    words = [int(seed) & _MASK64]
    for key in keys:
        words.extend(key_words(key))
    entropy, _ = _entropy_words(words)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def uniforms(seed: int, keys, m: int) -> np.ndarray:
    """First ``m`` uniforms of the stream of each key tuple, as ``float64[N, m]``.

    Row ``i`` is bit-identical to ``substream(seed, *keys[i]).random(m)``.
    ``keys`` may be any iterable of key tuples.  All of it is coded first
    (:func:`_code`); then each chunk is derived one entropy length at a time.
    """
    chunks, entropy, bounds = _code(int(seed) & _MASK64, keys)
    out = np.empty((sum(len(widths) for widths, _ in chunks), m), dtype=np.float64)
    done = 0
    for widths, codes in chunks:
        # each row's codes: the seed's (code 0), then its components'
        heads = np.cumsum(widths) - widths
        codes = np.insert(codes, heads, 0)
        sizes = bounds[codes + 1] - bounds[codes]
        lengths = np.add.reduceat(sizes, heads + np.arange(len(widths)))
        # every row's entropy, one row after another
        words = entropy[_ranges(bounds[codes], sizes)]
        firsts = np.cumsum(lengths) - lengths
        for length in np.flatnonzero(np.bincount(lengths)):
            rows = np.flatnonzero(lengths == length)
            if len(rows) == len(widths):
                block = words.reshape(len(rows), length)
            else:
                block = words[firsts[rows, None] + np.arange(length)]
            out[done + rows] = _pcg64_uniforms(_seed_state(block), m)
        done += len(widths)
    return out


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each ``range(s, s + n)`` of ``starts`` and ``sizes``, concatenated, as int32."""
    ends = np.cumsum(sizes)
    index = np.arange(ends[-1], dtype=np.int32)
    index += np.repeat((starts - ends + sizes).astype(np.int32), sizes)
    return index


def _code(seed: int, keys):
    """``keys`` coded chunk by chunk as ``(widths, codes)``: each row's width
    and each component's code, in row order; and the entropy of code ``c``
    (code 0 is the seed) as ``entropy[bounds[c]:bounds[c + 1]]``."""
    table = _KeyTable(seed)
    chunks, rows = [], iter(keys)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        widths = np.fromiter(map(len, chunk), np.intp, len(chunk))
        chunks.append((widths, table.codes(list(chain.from_iterable(chunk)))))
    # a code's entropy ends where its last word's does (where it starts for ())
    entropy, sizes = _entropy_words(table.words)
    bounds = np.cumsum(np.concatenate(([0], sizes)), dtype=np.int32)
    return chunks, entropy, bounds[table.ends]


class _KeyTable(dict):
    """The components of one :func:`uniforms` call's keys, coded: a dict from
    each distinct str, bytes or int component to its code; code ``c`` owns
    the words ``words[ends[c]:ends[c + 1]]``.  Any other component gets a new
    code each time, so ``1.0`` after ``1`` still meets :func:`key_words` and raises."""

    def __init__(self, head: int):
        super().__init__()
        self.words = array("Q", (head,))
        self.ends = [0, 1]

    def __missing__(self, key) -> int:
        code = self[key] = self.add(key)
        return code

    def add(self, key) -> int:
        """A new code for ``key``."""
        self.words.extend(key_words(key))
        self.ends.append(len(self.words))
        return len(self.ends) - 2

    def codes(self, keys: list) -> np.ndarray:
        """The code of each of ``keys``."""
        cached = set(map(type, keys)) <= _CACHED_KEY_TYPES
        lookup = self.__getitem__ if cached else self._lookup
        return np.fromiter(map(lookup, keys), np.int32, len(keys))

    def _lookup(self, key) -> int:
        return self[key] if type(key) in _CACHED_KEY_TYPES else self.add(key)


def _entropy_words(words):
    """numpy's uint32 entropy words for 64-bit ``words``, and how many per word.

    A word below 2**32 (0 included) is one uint32, a larger one its low
    then high half, as ``SeedSequence`` splits a list of ints; passing the
    split array gives the same state without the per-int conversion.
    """
    # a little-endian uint64 viewed as two uint32 is (low, high)
    halves = np.array(words, dtype="<u8").view("<u4").reshape(-1, 2)
    keep = halves != 0
    keep[:, 0] = True
    return halves[keep], keep.sum(axis=1)


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, uint64)`` per row, as uint64[4, n].

    ``entropy`` is uint32[n, L].  The pool is one uint32[4, n] array, so
    numpy's updates of several pool words from one word are one operation.
    """
    n, length = entropy.shape
    size = _POOL_SIZE
    # one row per entropy word, zero-padded to the pool size
    words = np.zeros((max(length, size), n), dtype=np.uint32)
    words[:length] = entropy.T
    consts = _hash_consts(_INIT_A, _MULT_A, size * len(words))
    pool = _hashmix(words[:size], consts[: size + 1])
    at = size
    for src in range(size):
        other = np.arange(size) != src
        pool[other] = _mix(pool[other], _hashmix(pool[src], consts[at : at + size]))
        at += size - 1
    for word in words[size:]:
        pool = _mix(pool, _hashmix(word, consts[at : at + size + 1]))
        at += size
    # eight uint32 words cycling over the pool; pairs are (low, high) halves
    state = _hashmix(np.tile(pool, (2, 1)), _hash_consts(_INIT_B, _MULT_B, 2 * size))
    state = state.astype(np.uint64)
    return state[0::2] | (state[1::2] << _SHIFT32)


def _hash_consts(value: int, mult: int, count: int) -> np.ndarray:
    """``value * mult**i`` mod 2**32 for ``i`` in 0..count, as uint32[count + 1, 1]."""
    consts = np.array([value] + [mult] * count, dtype=np.uint32)
    return np.cumprod(consts, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """numpy's hashmix; call ``i`` uses the hash constants ``consts[i : i + 2]``."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit product of uint64 ``a`` and constant ``b``."""
    a0, a1 = a & _LOW32, a >> _SHIFT32
    b0, b1 = _U64(b & _MASK32), _U64(b >> 32)
    lo_hi = a0 * b1
    hi_lo = a1 * b0
    mid = ((a0 * b0) >> _SHIFT32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)
    return a1 * b1 + (lo_hi >> _SHIFT32) + (hi_lo >> _SHIFT32) + (mid >> _SHIFT32)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One 128-bit LCG step ``state * MULT + inc`` on (high, low) word arrays."""
    prod_lo = lo * _U64(_PCG_MULT_LO)
    new_lo = prod_lo + inc_lo
    carry = (new_lo < prod_lo).astype(np.uint64)
    new_hi = (
        _mulhi64(lo, _PCG_MULT_LO)
        + lo * _U64(_PCG_MULT_HI)
        + hi * _U64(_PCG_MULT_LO)
        + inc_hi
        + carry
    )
    return new_hi, new_lo


def _pcg64_uniforms(seed_state: np.ndarray, m: int) -> np.ndarray:
    """Seed PCG64 from ``generate_state`` words and return its first ``m`` doubles.

    Seeding follows ``pcg_setseq_128_srandom_r``: state 0, increment
    ``(initseq << 1) | 1``, step, add ``initstate``, step.  Each output
    steps the LCG, applies the XSL-RR output function and keeps the top
    53 bits, as ``Generator.random`` does.
    """
    init_hi, init_lo, seq_hi, seq_lo = seed_state
    inc_hi = (seq_hi << _U64(1)) | (seq_lo >> _U64(63))
    inc_lo = (seq_lo << _U64(1)) | _U64(1)
    # state 0 stepped once is the increment itself
    lo = inc_lo + init_lo
    hi = inc_hi + init_hi + (lo < init_lo).astype(np.uint64)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)

    out = np.empty((init_lo.size, m), dtype=np.float64)
    for j in range(m):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        word = hi ^ lo
        rot = hi >> _U64(58)
        # rotate right by rot; the (64 - rot) & 63 shift keeps rot == 0 exact
        word = (word >> rot) | (word << ((_U64(64) - rot) & _U64(63)))
        out[:, j] = (word >> _U64(11)).astype(np.float64) * 2.0**-53
    return out
