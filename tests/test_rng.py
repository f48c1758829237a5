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
_ROWS = st.lists(st.lists(_KEYS, max_size=4).map(tuple), max_size=8)
_SEEDS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, -1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 7]),
)


def _reference(seed, rows, m):
    out = [substream(seed, *row).random(m) for row in rows]
    return np.array(out, dtype=np.float64).reshape(len(rows), m)


@settings(max_examples=200, deadline=None)
@given(seed=_SEEDS, rows=_ROWS, m=st.integers(0, 5))
def test_uniforms_match_substream_bit_for_bit(seed, rows, m):
    got = uniforms(seed, rows, m)
    assert got.shape == (len(rows), m)
    assert np.array_equal(got, _reference(seed, rows, m))


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


def test_mixed_entropy_lengths_in_one_call(monkeypatch):
    # small chunks: rows of one length straddle chunk boundaries
    monkeypatch.setattr(rng, "_CHUNK_ROWS", 3)
    rows = [
        (),
        (0,),
        (2**32,),
        (5, 2**40, 0),
        ("image", 3, 1),
        (b"image", (2**33, [7, True])),
        ("strategy-comparison", "img_0001", 0, 2),
        tuple(range(12)),
    ]
    for seed in (0, 3, -1, 2**64 + 3):
        got = uniforms(seed, iter(rows), 200)
        assert np.array_equal(got, _reference(seed, rows, 200))
    assert uniforms(0, [], 3).shape == (0, 3)


@pytest.mark.parametrize("chunk_rows", [rng._CHUNK_ROWS, 2], ids=["default", "small"])
def test_key_positions_of_mixed_widths_and_entropy_lengths(monkeypatch, chunk_rows):
    monkeypatch.setattr(rng, "_CHUNK_ROWS", chunk_rows)
    # one- and two-word ints and a hashed string share key positions, on
    # their own (memoized) and next to a nested tuple (not memoized);
    # rows of widths 0, 1, 3 and 4 alternate within a chunk
    atoms = [0, 2**32 - 1, 2**40, -1, "img"]
    mixed = [*atoms, ("img", (2**40, [0, -1]))]
    rows = []
    for i, key in enumerate(mixed):
        rows += [("purpose", key, atoms[i % 5]), (key,)]
        rows += [("purpose", atoms[-1 - i % 5], i, key), ()]
    for seed in (0, 2**64 - 1):
        got = uniforms(seed, rows, 4)
        assert np.array_equal(got, _reference(seed, rows, 4))


def test_each_distinct_component_is_hashed_once_per_call(monkeypatch):
    # a one-shot iterator whose rows repeat one image id across chunks of
    # two rows: a table kept per chunk would hash the id again, and a
    # split per chunk would call _entropy_words once per chunk
    monkeypatch.setattr(rng, "_CHUNK_ROWS", 2)
    calls = {"key_words": [], "_entropy_words": 0}
    key_words, entropy_words = rng.key_words, rng._entropy_words

    def counted_key_words(key):
        calls["key_words"].append(key)
        return key_words(key)

    def counted_entropy_words(words):
        calls["_entropy_words"] += 1
        return entropy_words(words)

    monkeypatch.setattr(rng, "key_words", counted_key_words)
    monkeypatch.setattr(rng, "_entropy_words", counted_entropy_words)
    rows = [("compare", "img_7", i % 3) for i in range(9)]
    got = uniforms(5, iter(rows), 3)
    assert len(calls["key_words"]) == 5
    assert set(calls["key_words"]) == {"compare", "img_7", 0, 1, 2}
    assert calls["_entropy_words"] == 1
    monkeypatch.undo()
    assert np.array_equal(got, _reference(5, rows, 3))


@pytest.mark.parametrize("length", range(1, 13))
def test_seed_state_matches_seed_sequence_at_each_entropy_length(length):
    # below the pool size of four the pool is zero-padded
    entropy = np.random.default_rng(length).integers(
        0, 2**32, (6, length), dtype=np.uint32
    )
    entropy[0] = 0
    want = [np.random.SeedSequence(row).generate_state(4, np.uint64) for row in entropy]
    assert np.array_equal(rng._seed_state(entropy), np.array(want).T)


def test_a_chunk_is_derived_once_per_entropy_length(monkeypatch):
    # widths 1, 8, 2 and 2; entropy lengths 9, 9, 10 and 10 (seed, then a
    # hashed string's eight words or one word per small int)
    calls = []
    seed_state = rng._seed_state

    def counted_seed_state(entropy):
        calls.append(entropy.shape)
        return seed_state(entropy)

    monkeypatch.setattr(rng, "_seed_state", counted_seed_state)
    rows = [("a",), tuple(range(8)), (1, "a"), ("a", 1)]
    got = uniforms(3, rows, 4)
    assert sorted(calls) == [(2, 9), (2, 10)]
    monkeypatch.undo()
    assert np.array_equal(got, _reference(3, rows, 4))


def test_a_string_beside_a_nested_key_is_hashed_once(monkeypatch):
    calls = []
    key_words = rng.key_words

    def counted_key_words(key):
        calls.append(key)
        return key_words(key)

    monkeypatch.setattr(rng, "key_words", counted_key_words)
    rows = [("img",), ((2, [3]),), ("img",), ((2, [3]), "img")]
    got = uniforms(5, rows, 2)
    assert calls.count("img") == 1
    monkeypatch.undo()
    assert np.array_equal(got, _reference(5, rows, 2))


def test_uniforms_reject_what_substream_rejects():
    with pytest.raises(TypeError):
        substream(0, 1.0)
    # an int of equal value earlier in the call must not admit the float
    with pytest.raises(TypeError):
        uniforms(0, [(1,), (1.0,)], 1)
    with pytest.raises(ValueError):
        uniforms(0, [(1,)], -1)


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
