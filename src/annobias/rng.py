"""Deterministic random-stream derivation.

One master seed fans out into independent substreams keyed by stable
identifiers (purpose strings, image ids, repetition indices).  String keys
are hashed with SHA-256 rather than the process-salted builtin ``hash`` so
the same key yields the same stream in every interpreter run.

:func:`substream` builds one numpy generator per key.  :func:`uniforms`
derives the first uniforms of many such streams at once: it reproduces
numpy's ``SeedSequence`` entropy mix and ``PCG64`` (XSL-RR) output over
arrays of rows, so row ``i`` equals ``substream(seed, *keys[i]).random(m)``
bit for bit.
"""

from __future__ import annotations

import hashlib
from itertools import islice

import numpy as np

__all__ = ["substream", "key_words", "uniforms"]

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
# key types memoized by uniforms(): no value of one equals a value of another
_CACHED_KEY_TYPES = frozenset((str, bytes, int))
# rows derived per batch by uniforms(); bounds its temporary arrays
_CHUNK_ROWS = 2048

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
    if isinstance(key, (int, np.integer)):
        return (int(key) & _MASK64,)
    if isinstance(key, str):
        key = key.encode("utf-8")
    if isinstance(key, (bytes, bytearray)):
        digest = hashlib.sha256(bytes(key)).digest()
        return tuple(
            int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)
        )
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
    ``keys`` may be any iterable of key tuples; it is consumed in chunks
    so the working set stays small.  Each distinct str, bytes or int key
    component is mapped to its words once per call.
    """
    head = int(seed) & _MASK64
    cache = {}
    rows = iter(keys)
    chunks = []
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        chunks.append(_chunk_uniforms(head, chunk, m, cache))
    return np.concatenate(chunks) if chunks else np.empty((0, m))


def _chunk_uniforms(head: int, keys: list, m: int, cache: dict) -> np.ndarray:
    """:func:`uniforms` of one chunk; ``cache`` maps key components to words."""
    words, starts = [], []
    for row in keys:
        starts.append(len(words))
        words.append(head)
        for key in row:
            cached = type(key) in _CACHED_KEY_TYPES
            found = cache.get(key) if cached else None
            if found is None:
                found = key_words(key)
                if cached:
                    cache[key] = found
            words.extend(found)

    entropy, sizes = _entropy_words(words)
    lengths = np.add.reduceat(sizes, starts)
    offsets = np.cumsum(lengths) - lengths

    out = np.empty((len(keys), m), dtype=np.float64)
    for length in np.flatnonzero(np.bincount(lengths)):
        rows = np.flatnonzero(lengths == length)
        block = entropy[offsets[rows, None] + np.arange(length)]
        out[rows] = _pcg64_uniforms(_seed_state(block), m)
    return out


def _entropy_words(words: list):
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
