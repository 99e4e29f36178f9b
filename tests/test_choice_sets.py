"""The array batch draw: choice_sets against numpy's own
default_rng((seed, j)).choice(B, r, replace=False), sorted, on the Floyd
shapes, the tail-shuffle shapes numpy draws otherwise, and a shape where
Lemire rejections are common; and bits_to_blocks against the row-wise
packing it replaces."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gachagt import core_model
from gachagt.core_model import choice_sets, seed_states
from gachagt.gacha_core import bits_to_blocks, default_params
from scaffolding import bits_to_blocks_reference

SEEDS = st.one_of(st.sampled_from([0, (1 << 32) - 1, 1 << 32, (1 << 63) - 1]),
                  st.integers(0, (1 << 64) - 1))
PERSONS = st.lists(st.integers(0, 1 << 62), max_size=6)


def reference(seed, js, B, r):
    out = np.empty((len(js), r), dtype=np.int64)
    for i, j in enumerate(js):
        out[i] = np.sort(np.random.default_rng((seed, j)).choice(B, size=r, replace=False))
    return out


def counted_fallbacks(monkeypatch):
    calls = []

    def person_rng(seed, j):
        calls.append(j)
        return np.random.default_rng((seed, j))

    monkeypatch.setattr(core_model, "person_rng", person_rng)
    return calls


@st.composite
def shapes(draw):
    B = draw(st.integers(1, 10000))
    r = draw(st.one_of(st.integers(1, min(B, 40)), st.integers(max(1, B - 40), B),
                       st.sampled_from([1, B])))
    return B, r


@settings(max_examples=300, deadline=None)
@given(shape=shapes(), seed=SEEDS, js=PERSONS)
def test_choice_sets_match_default_rng(shape, seed, js):
    B, r = shape
    got = choice_sets(seed, np.array(js, dtype=np.int64), B, r)
    assert got.shape == (len(js), r) and got.dtype == np.int64
    assert np.array_equal(got, reference(seed, js, B, r))


@settings(max_examples=60, deadline=None)
@given(B=st.integers(1, 60), seed=SEEDS, js=PERSONS)
def test_choice_sets_every_batch_and_near_it(B, seed, js):
    # r = B and r just below it: most steps repeat and the repeats chain
    for r in range(max(1, B - 3), B + 1):
        assert np.array_equal(choice_sets(seed, js, B, r), reference(seed, js, B, r))


@pytest.mark.parametrize("B,r", [(384, 18), (384, 17), (40, 9), (10000, 200), (10001, 200)])
def test_floyd_shapes_draw_in_arrays(monkeypatch, B, r):
    js = list(range(0, 6400, 50))
    calls = counted_fallbacks(monkeypatch)
    assert np.array_equal(choice_sets(5, js, B, r), reference(5, js, B, r))
    assert calls == []


@pytest.mark.parametrize("B,r", [(20000, 401), (10001, 201)])
def test_tail_shuffle_shapes_fall_back(monkeypatch, B, r):
    # numpy shuffles a tail instead of running Floyd's rule when
    # B > 10000 and r > B // 50; one side of that boundary is above
    js = [0, 3, (1 << 32) + 1]
    calls = counted_fallbacks(monkeypatch)
    assert np.array_equal(choice_sets(11, js, B, r), reference(11, js, B, r))
    assert calls == js


@pytest.mark.parametrize("B,r", [(20000, 400), (10001, 200)])
def test_tail_shuffle_boundary_runs_floyd(B, r):
    js = [0, 3, (1 << 32) + 1]
    assert np.array_equal(choice_sets(11, js, B, r), reference(11, js, B, r))


def test_lemire_rejections_fall_back_per_person(monkeypatch):
    # at bound 3 * 2^30 a uint32 draw rejects with probability 1/4, so
    # about 45% of persons drawing 2 hit a rejection
    B, r = 3 << 30, 2
    js = list(range(64))
    calls = counted_fallbacks(monkeypatch)
    assert np.array_equal(choice_sets(2024, js, B, r), reference(2024, js, B, r))
    assert 10 <= len(calls) <= 54 and calls == sorted(calls)


def test_largest_uint32_bound():
    # the j = 2^32 - 1 step reads a whole uint32 in numpy; Lemire with
    # bound 2^32 gives the same
    js = [0, 1, 2]
    assert np.array_equal(choice_sets(3, js, 1 << 32, 3), reference(3, js, 1 << 32, 3))


def test_no_persons():
    assert choice_sets(7, [], 384, 18).shape == (0, 18)
    assert choice_sets(7, np.zeros(0, dtype=np.int64), 20000, 401).shape == (0, 401)


@pytest.mark.parametrize("seed,js", [(-1, [0]), (1 << 64, [0]), (3, [-1]), (3, [0.5])])
def test_choice_sets_reject_bad_seeds(seed, js):
    with pytest.raises(ValueError):
        choice_sets(seed, js, 384, 18)


# seed words of 1, 2 and 3 uint32 words; j's words then land inside the
# pool of 4, straddle its end, or fall past it, with a tag word one later
PREFIX_WORDS = st.sampled_from([(0, 1 << 32), (1 << 32, 1 << 64), (1 << 64, 1 << 96)]).flatmap(
    lambda span: st.integers(span[0], span[1] - 1))
TAGS = st.one_of(st.just(()), st.tuples(st.one_of(st.just(13), st.integers(0, (1 << 32) - 1))))
J_WORDS = st.one_of(st.sampled_from([0, (1 << 32) - 1, 1 << 32, (1 << 64) - 1]),
                    st.integers(0, (1 << 64) - 1))


@settings(max_examples=150, deadline=None)
@given(seed=PREFIX_WORDS, tag=TAGS, js=st.lists(J_WORDS, max_size=6))
def test_seed_states_with_a_prefix_match_seed_sequence(seed, tag, js):
    prefix = (seed, *tag)
    states = seed_states(prefix, np.array(js, dtype=np.uint64))
    assert states.shape == (len(js), 4) and states.dtype == np.uint64
    for j, state in zip(js, states):
        want = np.random.SeedSequence((*prefix, j)).generate_state(4, np.uint64)
        assert np.array_equal(state, want)


@pytest.mark.parametrize("R,rho", [(32, 4), (8, 3), (16, 5)])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 1 << 96), js=st.lists(J_WORDS, max_size=6))
def test_choice_sets_with_a_tagged_seed_match_default_rng(R, rho, seed, js):
    got = choice_sets((seed, 13), np.array(js, dtype=np.uint64), R, rho)
    want = [np.sort(np.random.default_rng((seed, 13, j)).choice(R, size=rho, replace=False))
            for j in js]
    assert np.array_equal(got, np.array(want, dtype=np.int64).reshape(-1, rho))


@pytest.mark.parametrize("seed,js", [((-1, 13), [0]), ((3, 0.5), [0]), ((3, 13), [-1]),
                                     ((3, 13), [0.5]), (((3, 13), 1), [0])])
def test_seed_prefixes_reject_bad_words(seed, js):
    with pytest.raises(ValueError):
        choice_sets(seed, js, 32, 4)


def block_params(ell, blocks, B):
    return SimpleNamespace(inner=SimpleNamespace(ell=ell, blocks=blocks), B=B, m=B * blocks * ell)


@pytest.mark.parametrize("ell", range(1, 65))
def test_bits_to_blocks_matches_row_packing(ell):
    rng = np.random.default_rng(ell)
    for blocks in (1, 2, 3):
        for B in (1, 7, 9):
            for nrows in (1, 2, 3):
                p = block_params(ell, blocks, B)
                bits = rng.integers(0, 2, nrows * p.m, dtype=np.uint8)
                got = bits_to_blocks(p, bits, nrows)
                assert got.shape == (nrows * B, blocks) and got.dtype == np.uint64
                assert np.array_equal(got, bits_to_blocks_reference(p, bits, nrows))
    assert np.array_equal(bits_to_blocks(p, np.ones(p.m, dtype=np.uint8)),
                          np.full((B, blocks), (1 << ell) - 1, dtype=np.uint64))


@settings(max_examples=40, deadline=None)
@given(crossover=st.sampled_from([None, 0.05]), B=st.integers(9, 60),
       nrows=st.integers(1, 3), seed=st.integers(0, 1 << 32))
def test_bits_to_blocks_matches_row_packing_on_both_inner_codes(crossover, B, nrows, seed):
    p = default_params(1 << 12, 2, channel_crossover=crossover, B=B)
    bits = np.random.default_rng(seed).integers(0, 2, nrows * p.m, dtype=np.uint8)
    assert np.array_equal(bits_to_blocks(p, bits, nrows), bits_to_blocks_reference(p, bits, nrows))


def test_bits_to_blocks_checks_length():
    p = block_params(28, 2, 5)
    with pytest.raises(ValueError, match="observed length"):
        bits_to_blocks(p, np.zeros(p.m - 1, dtype=np.uint8))
