"""Batched stream derivation against numpy's SeedSequence -> PCG64 oracle."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annobias import AcceptanceRecord, LabelDistribution, SimulationParams, Strategy
from annobias import metrics, rng
from annobias.metrics import build_bin_matrix, compare_strategies, sod
from annobias.rng import substream, uniforms
from annobias.simulation import simulate_with_strategy

from conftest import build_dataset, campaign_records

# key components covering every entropy-word shape: hashed (four words,
# each one or two uint32s), 0, ints below and at/above 2**32, out-of-range
# ints that wrap to 64 bits, numpy integers, and nested sequences
_ATOMS = st.one_of(
    st.text(max_size=6),
    st.binary(max_size=6),
    st.booleans(),
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)
_KEYS = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.tuples(inner, inner), st.lists(inner, max_size=3)
    ),
    max_leaves=6,
)
_SEEDS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, -1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 7]),
)


def _int_array(n, dtype, edges, low, high):
    """``n`` integers of ``dtype`` in ``[low, high]``, often one of ``edges``."""
    values = st.one_of(st.sampled_from(edges), st.integers(low, high))
    return st.lists(values, min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=dtype)
    )


@st.composite
def _columns(draw):
    """Key columns of ``n`` rows: shared keys (every atom is one), lists of
    keys (some drawn from a small pool, so values repeat), and int64 and
    uint64 arrays."""
    n = draw(st.integers(0, 6))
    pool = draw(st.lists(_KEYS, min_size=1, max_size=3))
    column = st.one_of(
        _ATOMS,
        st.lists(_KEYS, min_size=n, max_size=n),
        st.lists(st.sampled_from(pool), min_size=n, max_size=n),
        _int_array(n, np.int64, [0, -1, 2**32, -(2**63)], -(2**63), 2**63 - 1),
        _int_array(n, np.uint64, [0, 2**32, 2**63, 2**64 - 1], 0, 2**64 - 1),
    )
    return draw(st.lists(column, max_size=4))


def _rows(columns):
    """The key rows of ``columns``: one per entry of the sequence columns
    (one row when there is none), shared keys repeated in every row."""
    shared = [isinstance(c, (str, bytes, int, np.integer)) for c in columns]
    n = min((len(c) for c, s in zip(columns, shared) if not s), default=1)
    return [[c if s else c[i] for c, s in zip(columns, shared)] for i in range(n)]


def _reference(seed, columns, m):
    rows = _rows(columns)
    out = [substream(seed, *row).random(m) for row in rows]
    return np.array(out, dtype=np.float64).reshape(len(rows), m)


@settings(max_examples=300, deadline=None)
@given(seed=_SEEDS, columns=_columns(), m=st.integers(0, 5))
def test_uniforms_match_substream_bit_for_bit(seed, columns, m):
    got = uniforms(seed, columns, m)
    assert got.shape == (len(_rows(columns)), m)
    assert np.array_equal(got, _reference(seed, columns, m))


@settings(max_examples=200, deadline=None)
@given(seed=_SEEDS, row=st.lists(_KEYS, max_size=4))
def test_substream_seeds_from_the_key_words_as_ints(seed, row):
    # substream hands SeedSequence pre-split uint32 words; the oracle hands
    # it the 64-bit words as Python ints and lets numpy split them
    words = [int(seed) & (2**64 - 1)]
    for key in row:
        words.extend(rng.key_words(key))
    oracle = np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))
    assert np.array_equal(substream(seed, *row).random(5), oracle.random(5))


def test_mixed_entropy_lengths_in_one_call():
    # one column's keys span 0 to 13 entropy words, so rows of one call
    # differ in length both before and after the first sequence column
    keys = [
        (),
        0,
        2**32,
        (5, 2**40, 0),
        "image",
        (b"image", (2**33, [7, True])),
        tuple(range(12)),
        -1,
    ]
    columns = [
        ("strategy-comparison", keys, keys[::-1]),
        (keys, np.arange(8) << 31, "image", keys),
        (np.array([0, 2**32, 1, 0, 2**32, 7, 1, 2**40]), keys),
    ]
    for seed in (0, 3, -1, 2**64 + 3):
        for cols in columns:
            got = uniforms(seed, cols, 200)
            assert np.array_equal(got, _reference(seed, cols, 200))
    assert uniforms(0, [[]], 3).shape == (0, 3)
    assert uniforms(0, ["a", np.array([], np.int64), []], 0).shape == (0, 0)


@pytest.mark.parametrize("lead", [("purpose",), ()], ids=["default", "small"])
def test_key_positions_of_mixed_widths_and_entropy_lengths(lead):
    # one- and two-word ints, a hashed string and a nested tuple share
    # each key position; behind the shared "purpose" the leading words fill
    # the pool, behind the seed alone a one-word first key leaves it short
    atoms = [0, 2**32 - 1, 2**40, -1, "img"]
    mixed = [*atoms, ("img", (2**40, [0, -1]))]
    columns = [
        *lead,
        mixed * 2,
        [atoms[i % 5] for i in range(12)],
        np.arange(12) << 30,
        "tail",
        [atoms[-1 - i % 5] for i in range(12)],
    ]
    for seed in (0, 2**64 - 1):
        got = uniforms(seed, columns, 4)
        assert np.array_equal(got, _reference(seed, columns, 4))


def test_each_distinct_component_is_hashed_once_per_call(monkeypatch):
    # the shared key once, each distinct list key once, the integer array
    # split as an array without meeting key_words
    calls = []
    key_words = rng.key_words

    def counted_key_words(key):
        calls.append(key)
        return key_words(key)

    monkeypatch.setattr(rng, "key_words", counted_key_words)
    columns = ("compare", ["img_7"] * 9, [i % 3 for i in range(9)], np.arange(9))
    got = uniforms(5, columns, 3)
    assert len(calls) == 5
    assert set(calls) == {"compare", "img_7", 0, 1, 2}
    monkeypatch.undo()
    assert np.array_equal(got, _reference(5, columns, 3))


def _seed_sequence_state(entropy):
    """numpy's ``generate_state(4, uint64)`` per row of ``entropy``, as uint64[4, n]."""
    states = [np.random.SeedSequence(row).generate_state(4, np.uint64) for row in entropy]
    return np.array(states).reshape(len(entropy), 4).T


@pytest.mark.parametrize("length", range(1, 13))
def test_seed_state_matches_seed_sequence_at_each_entropy_length(length):
    # below the pool size of four the pool is zero-padded
    entropy = np.random.default_rng(length).integers(
        0, 2**32, (6, length), dtype=np.uint32
    )
    entropy[0] = 0
    words = entropy.T
    pool = rng._mix_in(rng._fill(words[:4]), words[4:], 4)
    assert np.array_equal(rng._generate_state(pool), _seed_sequence_state(entropy))


@pytest.mark.parametrize("prefix", [4, 5, 9, 17])
@pytest.mark.parametrize("suffix", [0, 1, 2, 7])
def test_a_prefix_mixed_once_continues_per_row(prefix, suffix):
    # one pool per distinct prefix, gathered to the rows that share it,
    # then continued with each row's own words from position ``prefix``
    gen = np.random.default_rng(prefix * 100 + suffix)
    heads = gen.integers(0, 2**32, (3, prefix), dtype=np.uint32)
    heads[0] = 0
    which = np.array([0, 2, 2, 1, 0, 2])
    tails = gen.integers(0, 2**32, (len(which), suffix), dtype=np.uint32)
    pools = rng._mix_in(rng._fill(heads.T[:4]), heads.T[4:], 4)
    pool = rng._mix_in(pools[:, which], tails.T, prefix)
    want = _seed_sequence_state(np.hstack([heads[which], tails]))
    assert np.array_equal(rng._generate_state(pool), want)


def test_rows_are_derived_once_per_pair_of_lengths(monkeypatch):
    # prefixes (the seed, "a", then the first column) of 10, 11 and 17
    # words; the rest of each row 1, 2 or 8 words: one pool fill per prefix
    # length and one generator batch per (prefix length, rest length) pair,
    # rows 0 and 3 sharing theirs
    fills, states = [], []
    fill, generate_state = rng._fill, rng._generate_state
    monkeypatch.setattr(rng, "_fill", lambda w: fills.append(w.shape) or fill(w))
    monkeypatch.setattr(
        rng, "_generate_state", lambda p: states.append(p.shape) or generate_state(p)
    )
    columns = ("a", [1, 2**40, "b", 1, 2**40, 1], [0, 0, 0, 0, 2**40, "c"])
    got = uniforms(3, columns, 4)
    assert sorted(fills) == [(4, 1), (4, 1), (4, 1)]
    assert sorted(states) == [(4, 1), (4, 1), (4, 1), (4, 1), (4, 2)]
    monkeypatch.undo()
    assert np.array_equal(got, _reference(3, columns, 4))


def test_a_string_beside_a_nested_key_is_hashed_once(monkeypatch):
    calls = []
    key_words = rng.key_words

    def counted_key_words(key):
        calls.append(key)
        return key_words(key)

    monkeypatch.setattr(rng, "key_words", counted_key_words)
    columns = (["img", (2, [3]), "img"], [(2, [3]), "img", "img"])
    got = uniforms(5, columns, 2)
    assert calls.count("img") == 1
    monkeypatch.undo()
    assert np.array_equal(got, _reference(5, columns, 2))


def test_uniforms_reject_what_substream_rejects():
    with pytest.raises(TypeError):
        substream(0, 1.0)
    # an int of equal value earlier in the column must not admit the float
    with pytest.raises(TypeError):
        uniforms(0, [[1, 1.0]], 1)
    # arrays of bools or floats hold keys substream refuses, not ints
    for values in ([True, False], [1.0, 2.0]):
        with pytest.raises(TypeError):
            substream(0, np.array(values)[0])
        with pytest.raises(TypeError):
            uniforms(0, ["a", np.array(values)], 1)
    with pytest.raises(TypeError):
        uniforms(0, ["a", 1.5], 1)
    with pytest.raises(ValueError):
        uniforms(0, [[1]], -1)
    with pytest.raises(ValueError, match="differ in length"):
        uniforms(0, [[1, 2], [3]], 1)


def _per_draw_compare(records, strategy, p, repetitions, seed):
    """compare_strategies as one substream per draw: the reference loop."""
    m_real = build_bin_matrix(records)
    ordinals = {}
    keyed = []
    for rec in records:
        ordinal = ordinals.get(rec.image_id, 0)
        ordinals[rec.image_id] = ordinal + 1
        keyed.append((rec, ordinal))
    sods = []
    for rep in range(repetitions):
        simulated = []
        for rec, ordinal in keyed:
            stream = substream(
                seed, "strategy-comparison", rec.image_id, ordinal, rep
            )
            annotated = simulate_with_strategy(
                strategy, rec.gt, rec.proposal, p, stream
            )
            simulated.append(
                AcceptanceRecord(rec.image_id, rec.proposal, annotated, rec.gt)
            )
        sods.append(sod(m_real, build_bin_matrix(simulated), normalized=True))
    mean = statistics.mean(sods)
    std = math.sqrt(statistics.mean((s - mean) ** 2 for s in sods))
    return tuple(sods), mean, std


@pytest.mark.parametrize("fallback", ["first", "random"])
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.name)
def test_compare_strategies_matches_per_draw_streams(strategy, fallback):
    ds = build_dataset(15, seed=3, jitter=0.4)
    records = campaign_records(
        ds, delta=0.1, annotations_per_image=3, seed=5, proposal_mode="random"
    )
    p = SimulationParams(delta=0.1, reject_fallback=fallback)
    got = compare_strategies(records, strategy, p, 3, seed=17)
    assert (got.sods, got.mean, got.std) == _per_draw_compare(
        records, strategy, p, 3, 17
    )


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.name)
def test_compare_strategies_takes_records_of_different_class_counts(strategy):
    gen = substream(9, "mixed-class-counts")
    records = []
    for i in range(30):
        k = 2 + i % 3
        gt = LabelDistribution(gen.dirichlet(np.ones(k)))
        proposal, annotated = int(gen.random() * k), int(gen.random() * k)
        records.append(AcceptanceRecord(f"im{i % 7}", proposal, annotated, gt))
    p = SimulationParams(delta=0.1)
    got = compare_strategies(records, strategy, p, 2, seed=4)
    want = _per_draw_compare(records, strategy, p, 2, 4)
    assert (got.sods, got.mean, got.std) == want


def test_compare_strategies_raises_when_a_draw_overreads_its_row(monkeypatch):
    # zero proposal mass and zero offset: the acceptance draw rejects, so
    # ACCEPT_GT needs a second uniform for the rejected class
    records = [AcceptanceRecord("im", 0, 1, LabelDistribution([0.0, 0.5, 0.5]))]
    monkeypatch.setattr(metrics, "_MAX_UNIFORMS_PER_DRAW", 1)
    with pytest.raises(RuntimeError, match="more than 1 pre-drawn uniforms"):
        compare_strategies(
            records, Strategy.ACCEPT_GT, SimulationParams(delta=0.0), 1, seed=1
        )
