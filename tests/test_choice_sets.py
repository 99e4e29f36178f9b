"""The array batch draw: choice_sets against a scalar loop of the same
keyed hash, its rows as functions of (seed, j) alone, their form (r
distinct sorted batches), and their law (uniform batch counts, independent
persons); and bits_to_blocks against the row-wise packing it replaces."""

from math import comb, sqrt
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gachagt.core_model import choice_sets
from gachagt.gacha_core import bits_to_blocks, default_params
from scaffolding import bits_to_blocks_reference, choice_set_reference

SEEDS = st.one_of(st.sampled_from([0, (1 << 32) - 1, 1 << 32, (1 << 63) - 1, (1 << 64) - 1]),
                  st.integers(0, (1 << 64) - 1))
PERSONS = st.lists(st.integers(0, 1 << 62), max_size=6)


def reference(seed, js, B, r):
    out = np.array([choice_set_reference(seed, j, B, r) for j in js], dtype=np.int64)
    return out.reshape(len(js), r)


@st.composite
def shapes(draw):
    # r near B only while a row of B fits: such a row lists what it leaves out
    B = draw(st.one_of(st.integers(1, 10000), st.integers(1, 1 << 62)))
    small = st.integers(1, min(B, 40))
    r = draw(st.one_of(small, st.integers(max(1, B - 40), B), st.sampled_from([1, B]))
             if B <= 10000 else small)
    return B, r


@settings(max_examples=300, deadline=None)
@given(shape=shapes(), seed=SEEDS, js=PERSONS)
def test_choice_sets_match_scalar_reference(shape, seed, js):
    B, r = shape
    got = choice_sets(seed, np.array(js, dtype=np.int64), B, r)
    assert got.shape == (len(js), r) and got.dtype == np.int64
    assert np.array_equal(got, reference(seed, js, B, r))


@settings(max_examples=60, deadline=None)
@given(B=st.integers(1, 60), seed=SEEDS, js=PERSONS)
def test_choice_sets_every_batch_and_near_it(B, seed, js):
    # r = B and r just below it: the row draws the few batches it leaves out
    for r in range(max(1, B - 3), B + 1):
        assert np.array_equal(choice_sets(seed, js, B, r), reference(seed, js, B, r))


@pytest.mark.parametrize("B,r", [(384, 18), (384, 17), (40, 9), (10000, 200), (10001, 200)])
def test_floyd_shapes_draw_in_arrays(B, r):
    # the shapes numpy drew by Floyd's rule, the bench's (384, 18) among them
    js = list(range(0, 6400, 50))
    assert np.array_equal(choice_sets(5, js, B, r), reference(5, js, B, r))


# numpy shuffled a tail instead of running Floyd's rule when B > 10000 and
# r > B // 50; the keyed draw has one rule on both sides of that boundary
@pytest.mark.parametrize("B,r", [(20000, 401), (10001, 201)])
def test_tail_shuffle_shapes_fall_back(B, r):
    js = [0, 3, (1 << 32) + 1]
    assert np.array_equal(choice_sets(11, js, B, r), reference(11, js, B, r))


@pytest.mark.parametrize("B,r", [(20000, 400), (10001, 200)])
def test_tail_shuffle_boundary_runs_floyd(B, r):
    js = [0, 3, (1 << 32) + 1]
    assert np.array_equal(choice_sets(11, js, B, r), reference(11, js, B, r))


def test_lemire_rejections_fall_back_per_person():
    # B = 3 * 2^30, where a Lemire uint32 draw rejected a quarter of its
    # words: the keyed draw's residues take no rejection step, and each row
    # is still the scalar loop's
    B, r = 3 << 30, 2
    js = list(range(64))
    assert np.array_equal(choice_sets(2024, js, B, r), reference(2024, js, B, r))


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, js=st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=12),
       others=st.lists(st.integers(0, (1 << 64) - 1), max_size=12),
       shape=st.sampled_from([(384, 18), (40, 9), (6, 2), (16, 4)]))
def test_rows_depend_only_on_seed_and_person(seed, js, others, shape):
    # a row is the same whatever else js holds, in any order, repeated or not
    B, r = shape
    rows = choice_sets(seed, np.array(js, dtype=np.uint64), B, r)
    mixed = np.array(others + js[::-1] + js, dtype=np.uint64)
    rows_mixed = choice_sets(seed, mixed, B, r)[len(others):]
    for i, j in enumerate(js):
        alone = choice_sets(seed, np.array([j], dtype=np.uint64), B, r)[0]
        assert np.array_equal(rows[i], alone)
        assert np.array_equal(rows_mixed[len(js) - 1 - i], alone)
        assert np.array_equal(rows_mixed[len(js) + i], alone)


@pytest.mark.parametrize("B,r", [(1, 1), (2, 1), (2, 2), (7, 1), (7, 7), (7, 6), (40, 9),
                                 (384, 1), (384, 18), (384, 192), (384, 193), (384, 383),
                                 (384, 384), (1 << 40, 3), (1 << 63, 5)])
def test_rows_are_r_distinct_sorted_batches(B, r):
    rows = choice_sets(2024, np.arange(300), B, r)
    assert rows.shape == (300, r) and rows.dtype == np.int64
    assert (rows >= 0).all() and (rows < B).all()
    assert (rows[:, 1:] > rows[:, :-1]).all()  # strictly increasing: sorted and distinct
    if r == B:
        assert (rows == np.arange(B)).all()


# and batches past int64
@pytest.mark.parametrize("B,r", [(384, 385), (0, 1), (1, 2), ((1 << 63) + 1, 3)])
def test_more_batches_than_there_are_raises(B, r):
    with pytest.raises(ValueError, match="distinct batches"):
        choice_sets(3, [0, 1], B, r)


def test_batch_counts_are_uniform():
    # 20,000 persons draw 18 of 384 batches.  Under uniform r-subsets each
    # count has mean N r / B = 937.5, and Pearson's statistic has mean
    # B - r = 366 (below the B - 1 = 383 of independent draws, as a person's
    # batches are distinct) and a standard deviation near sqrt(2 (B - 1)) =
    # 27.7.  The bound, fixed before the run: within 6 of those deviations
    # of the mean, [366 - 166, 383 + 166] = [200, 549]; too good a fit
    # fails as a too poor one does.
    N, B, r = 20_000, 384, 18
    counts = np.bincount(choice_sets(2027, np.arange(N), B, r).ravel(), minlength=B)
    expected = N * r / B
    chi2 = ((counts - expected) ** 2 / expected).sum()
    spread = 6 * sqrt(2 * (B - 1))
    assert B - r - spread < chi2 < B - 1 + spread, chi2


def test_two_persons_sets_are_independent():
    # persons 2i and 2i + 1 each draw 2 of 6 batches: 15 subsets a person,
    # 225 joint cells.  If the two sets are independent uniform subsets,
    # each cell holds N / 225 of the N pairs, and Pearson's statistic over
    # the cells has mean 224 and deviation sqrt(2 * 224) = 21.2.  The bound,
    # fixed before the run: below 224 + 6 * 21.2 = 351.  A shared seed
    # prefix under a tag is checked the same way.
    N, B, r = 22_500, 6, 2
    cells = comb(B, r) ** 2
    index = {tuple(s): i for i, s in enumerate(sorted({(a, b) for a in range(B)
                                                       for b in range(a + 1, B)}))}
    for seed in (91, (91, 13)):
        rows = choice_sets(seed, np.arange(2 * N), B, r)
        subset = np.array([index[tuple(row)] for row in rows.tolist()])
        joint = np.bincount(subset[0::2] * comb(B, r) + subset[1::2], minlength=cells)
        expected = N / cells
        chi2 = ((joint - expected) ** 2 / expected).sum()
        assert chi2 < (cells - 1) + 6 * sqrt(2 * (cells - 1)), (seed, chi2)


def test_largest_uint32_bound():
    # B = 2^32 and past it: the modulo takes any B below 2^64
    js = [0, 1, 2]
    for B in (1 << 32, (1 << 32) + 1, 1 << 63):
        assert np.array_equal(choice_sets(3, js, B, 3), reference(3, js, B, 3))


def test_no_persons():
    assert choice_sets(7, [], 384, 18).shape == (0, 18)
    assert choice_sets(7, np.zeros(0, dtype=np.int64), 20000, 401).shape == (0, 401)
    assert choice_sets(7, np.zeros(0, dtype=np.int64), 24, 20).shape == (0, 20)


@pytest.mark.parametrize("seed,js", [(-1, [0]), (1 << 64, [0]), (3, [-1]), (3, [0.5])])
def test_choice_sets_reject_bad_seeds(seed, js):
    with pytest.raises(ValueError):
        choice_sets(seed, js, 384, 18)


J_WORDS = st.one_of(st.sampled_from([0, (1 << 32) - 1, 1 << 32, (1 << 64) - 1]),
                    st.integers(0, (1 << 64) - 1))


@pytest.mark.parametrize("R,rho", [(32, 4), (8, 3), (16, 5)])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 1 << 96), js=st.lists(J_WORDS, max_size=6))
def test_choice_sets_with_a_tagged_seed_match_scalar_reference(R, rho, seed, js):
    # a tag is one more key word; a prefix word past 2^64 is two
    got = choice_sets((seed, 13), np.array(js, dtype=np.uint64), R, rho)
    assert np.array_equal(got, reference((seed, 13), js, R, rho))


def test_a_tag_changes_the_draw():
    js = np.arange(50)
    untagged = choice_sets(5, js, 32, 4)
    assert not np.array_equal(choice_sets((5, 13), js, 32, 4), untagged)
    assert not np.array_equal(choice_sets((5, 0), js, 32, 4), untagged)


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
