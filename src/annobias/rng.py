"""Deterministic random-stream derivation.

One master seed fans out into independent substreams keyed by stable
identifiers (purpose strings, image ids, repetition indices).  String keys
are hashed with SHA-256 rather than the process-salted builtin ``hash`` so
the same key yields the same stream in every interpreter run.

:func:`substream` builds one numpy generator per key.  :func:`uniforms`
derives the first uniforms of many such streams at once from key columns,
coding each column once; it reproduces numpy's ``SeedSequence`` entropy
mix and ``PCG64`` (XSL-RR) output over arrays, bit for bit.
"""

from __future__ import annotations

import hashlib
import struct
from itertools import chain, count

import numpy as np

__all__ = ["substream", "key_words", "uniforms"]

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
# key types memoized by uniforms(): no value of one equals a value of another
_CACHED_KEY_TYPES = frozenset((str, bytes, int))
# a uniforms() column of these is one key shared by every row
_SHARED_KEY_TYPES = (str, bytes, int, np.integer)
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
    # the split of _entropy_words, without its array temporaries
    entropy = []
    for word in words:
        entropy.append(word & _MASK32)
        if word > _MASK32:
            entropy.append(word >> 32)
    seeds = np.random.SeedSequence(np.array(entropy, dtype=np.uint32))
    return np.random.Generator(np.random.PCG64(seeds))


def uniforms(seed: int, columns, m: int) -> np.ndarray:
    """First ``m`` uniforms of each row's stream, as ``float64[N, m]``.

    A column is one key shared by every row (a str, bytes, int or numpy
    integer) or a sized sequence of N keys (a list, or an integer array).
    Row ``i`` is bit-identical to ``substream(seed, *row_i).random(m)``; with
    no sequence column there is one row.  The pool is mixed once per distinct
    value of the first sequence column, after the seed and the shared keys
    before it, then gathered to the rows and continued with the rest.
    """
    memo, head, coded = {}, [int(seed) & _MASK64], []
    for column in columns:
        if not isinstance(column, _SHARED_KEY_TYPES):
            coded.append(_coded(column, memo))
        elif coded:
            words, _ = _entropy_words(key_words(column))
            coded.append((words[None], np.zeros_like(coded[0][1])))
        else:
            head.extend(key_words(column))
    if len({len(codes) for _, codes in coded}) > 1:
        raise ValueError("key columns differ in length")
    (first, codes), *others = coded or [(np.empty((1, 0), np.int64), np.zeros(1, np.intp))]
    n, (lead, _) = len(codes), _entropy_words(head)
    prefix = np.hstack([np.tile(lead, (len(first), 1)), first])
    rest = np.hstack([np.empty((n, 0), np.int64)] + [t[c] for t, c in others])
    if ((prefix >= 0).sum(axis=1) < _POOL_SIZE).any():
        # the leading words do not fill the pool: mix each row in full
        prefix, codes, rest = np.hstack([prefix[codes], rest]), np.arange(n), rest[:, :0]
    lengths = (prefix >= 0).sum(axis=1)
    pools = np.empty((_POOL_SIZE, len(prefix)), dtype=np.uint32)
    for length in np.flatnonzero(np.bincount(lengths)):
        values = np.flatnonzero(lengths == length)
        words = _entropy_rows(prefix, values)
        pools[:, values] = _mix_in(_fill(words[:_POOL_SIZE]), words[_POOL_SIZE:], _POOL_SIZE)
    # rows continue from their prefix's length, grouped by both lengths
    starts = lengths[codes]
    groups = starts * (rest.shape[1] + 1) + (rest >= 0).sum(axis=1)
    out = np.empty((n, m), dtype=np.float64)
    for group in np.flatnonzero(np.bincount(groups)):
        rows = np.flatnonzero(groups == group)
        pool = _mix_in(pools[:, codes[rows]], _entropy_rows(rest, rows), starts[rows[0]])
        out[rows] = _pcg64_uniforms(_generate_state(pool), m)
    return out


def _coded(column, memo: dict) -> tuple:
    """A sequence column as the :func:`_table` of its distinct keys and each
    row's index into it.  Only str, bytes and int keys merge, hashed once per
    call (``memo``); any other reaches :func:`key_words` on every use."""
    if isinstance(column, np.ndarray) and column.ndim == 1 and column.dtype.kind in "iu":
        # the cast wraps as ``int(key) & _MASK64`` does
        keys, codes = np.unique(column.astype(np.uint64), return_inverse=True)
        return _table(*_entropy_words(keys)), codes.ravel()
    keys = list(column)
    if set(map(type, keys)) <= _CACHED_KEY_TYPES:
        index = dict(zip(dict.fromkeys(keys), count()))
        codes = np.fromiter(map(index.__getitem__, keys), np.intp, len(keys))
        keys = list(index)
    else:
        codes = np.arange(len(keys))
    cached = dict.fromkeys(k for k in keys if type(k) in _CACHED_KEY_TYPES)
    memo.update((k, key_words(k)) for k in cached if k not in memo)
    words = [memo[k] if type(k) in _CACHED_KEY_TYPES else key_words(k) for k in keys]
    halves, per_word = _entropy_words(list(chain.from_iterable(words)))
    ends = np.concatenate(([0], np.cumsum(per_word)))[np.cumsum([0, *map(len, words)])]
    return _table(halves, np.diff(ends)), codes


def _table(halves: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Keys' entropy as the rows of ``int64[D, W]``, -1 past each key's end:
    key ``j`` has the next ``sizes[j]`` of the uint32 ``halves``."""
    table = np.full((len(sizes), sizes.max(initial=0)), -1, dtype=np.int64)
    table[np.arange(table.shape[1]) < sizes[:, None]] = halves
    return table


def _entropy_rows(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The entropy of ``table``'s ``rows``, all of one length L, as uint32[L, n]."""
    block = table[rows]
    return block[block >= 0].reshape(len(rows), -1).T.astype(np.uint32)


def _entropy_words(words):
    """numpy's uint32 entropy words for 64-bit ``words``, and how many per word:
    a word below 2**32 (0 included) is one uint32, a larger one its low then
    high half, as ``SeedSequence`` splits a list of ints.  ``substream`` makes
    the same split in a scalar loop; an edit to one must change both."""
    # a little-endian uint64 viewed as two uint32 is (low, high)
    halves = np.array(words, dtype="<u8").view("<u4").reshape(-1, 2)
    keep = halves != 0
    keep[:, 0] = True
    return halves[keep], keep.sum(axis=1)


def _fill(words: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s pool, uint32[4, n], after the first entropy ``words``
    (uint32[<=4, n], zero-padded) and the cross-mix, one array operation each."""
    size = _POOL_SIZE
    pool = np.zeros((size, words.shape[1]), dtype=np.uint32)
    pool[: len(words)] = words
    consts = _hash_consts(_INIT_A, _MULT_A, size * size)
    pool = _hashmix(pool, consts[: size + 1])
    for src, at in enumerate(range(size, size * size, size - 1)):
        other = np.arange(size) != src
        pool[other] = _mix(pool[other], _hashmix(pool[src], consts[at : at + size]))
    return pool


def _mix_in(pool: np.ndarray, words: np.ndarray, start: int) -> np.ndarray:
    """``pool`` continued with entropy words ``start`` (>= 4) onwards, uint32[L, n]:
    word ``w`` meets the hash constants after the ``4 * w`` hashmix calls."""
    at = _POOL_SIZE * int(start)
    consts = _hash_consts(_INIT_A, _MULT_A, at + _POOL_SIZE * len(words))
    for word in words:
        pool = _mix(pool, _hashmix(word, consts[at : at + _POOL_SIZE + 1]))
        at += _POOL_SIZE
    return pool


def _generate_state(pool: np.ndarray) -> np.ndarray:
    """``generate_state(4, uint64)`` of mixed pools uint32[4, n], as uint64[4, n]."""
    # eight uint32 words cycling over the pool; pairs are (low, high) halves
    consts = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    state = _hashmix(np.tile(pool, (2, 1)), consts).astype(np.uint64)
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
