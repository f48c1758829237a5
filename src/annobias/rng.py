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
from itertools import islice

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
    (:func:`_code`); then each chunk's rows are derived, one width at a time.
    """
    n, groups, entropy, bounds = _code(int(seed) & _MASK64, keys)
    out = np.empty((n, m), dtype=np.float64)
    for rows, codes in groups:
        for sel, block in _entropy_blocks(entropy, bounds, codes):
            out[rows[sel]] = _pcg64_uniforms(_seed_state(block), m)
    return out


def _code(seed: int, keys):
    """``keys`` coded: their count, ``(rows, codes)`` per width per chunk,
    and the entropy of code ``c`` as ``entropy[bounds[c]:bounds[c + 1]]``.
    Chunks are coded key position by key position into one table, whose
    words are then split into entropy in one pass."""
    table = _KeyTable(seed)
    groups, n, rows = [], 0, iter(keys)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        widths = np.fromiter(map(len, chunk), np.intp, len(chunk))
        for width in np.flatnonzero(np.bincount(widths)):
            at = np.flatnonzero(widths == width)
            group = chunk if len(at) == len(chunk) else [chunk[i] for i in at]
            # column 0 is the seed's code; column j codes key position j - 1
            codes = np.zeros((len(at), width + 1), dtype=np.intp)
            for j, column in enumerate(zip(*group), 1):
                codes[:, j] = table.codes(column)
            groups.append((n + at, codes))
        n += len(chunk)
    # a code's entropy ends where its last word's does (where it starts for ())
    entropy, sizes = _entropy_words(table.words)
    return n, groups, entropy, np.cumsum(np.concatenate(([0], sizes)))[table.ends]


class _KeyTable(dict):
    """The key components of one :func:`uniforms` call, coded.

    The dict maps each distinct str, bytes or int component to its code,
    and code ``c`` owns the 64-bit words ``words[ends[c]:ends[c + 1]]``;
    code 0 is the seed.  A key position holding any other type gets a new
    code for every component, so ``1.0`` after ``1`` still meets
    :func:`key_words` and raises.
    """

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

    def codes(self, column) -> np.ndarray:
        """The code of each component at one key position."""
        lookup = self.__getitem__
        if not set(map(type, column)) <= _CACHED_KEY_TYPES:
            lookup = self.add
        return np.fromiter(map(lookup, column), np.intp, len(column))


def _entropy_blocks(entropy: np.ndarray, bounds: np.ndarray, codes: np.ndarray):
    """Yield ``(rows, block)``: rows of ``codes`` (an index or a slice) and
    their entropy words, their codes' in order, as ``uint32[n, L]``.

    Rows are grouped by the number of words each code contributes;
    a chunk usually has one such profile.
    """
    starts = bounds[codes]
    sizes = bounds[codes + 1] - starts
    if (sizes == sizes[0]).all():
        groups = [(slice(None), sizes[0])]
    else:
        profiles, group = np.unique(sizes, axis=0, return_inverse=True)
        group = group.ravel()
        groups = [(np.flatnonzero(group == g), p) for g, p in enumerate(profiles)]
    for rows, profile in groups:
        firsts = starts[rows]
        block = np.empty((len(firsts), profile.sum()), dtype=np.uint32)
        at = 0
        for j, size in enumerate(profile.tolist()):
            block[:, at : at + size] = entropy[firsts[:, j, None] + np.arange(size)]
            at += size
        yield rows, block


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

    ``entropy`` is uint32[n, L]; every row has the same length, so the
    hash constants are shared scalars.
    """
    n, length = entropy.shape
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    zero = np.zeros(n, dtype=np.uint32)
    pool = [
        hashmix(entropy[:, i] if i < length else zero) for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    # consecutive uint32 pairs are (low, high) halves of one uint64
    return np.stack([state[i] | (state[i + 1] << _SHIFT32) for i in range(0, 8, 2)])


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
