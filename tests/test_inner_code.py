"""Inner layer: combinadics, constant-weight images, linear codes, classifiers."""

from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gachagt.inner_code import (
    BinaryLinearCode,
    ConstantWeightCode,
    Occupancy,
    UnsupportedCodeSize,
    WeightClassifier,
    _binomials,
    _rank_many,
    combination_rank,
    combination_unrank,
    linear_code,
    min_even_block_length,
    or_weight_identity_check,
)


# ---------------------------------------------------------------------------
# combinadics
# ---------------------------------------------------------------------------

def test_unrank_zero_is_lowest_combination():
    assert combination_unrank(0, 4, 2) == 0b0011


def test_rank_unrank_round_trip_exhaustive():
    ell, weight = 10, 4
    seen = set()
    for rank in range(comb(ell, weight)):
        mask = combination_unrank(rank, ell, weight)
        assert mask.bit_count() == weight
        assert combination_rank(mask) == rank
        seen.add(mask)
    assert len(seen) == comb(ell, weight)


def test_unrank_colex_order_matches_enumeration():
    # colex order = subsets sorted by their bitmask value
    ell, weight = 8, 3
    masks = sorted(
        sum(1 << c for c in subset) for subset in combinations(range(ell), weight)
    )
    for rank, mask in enumerate(masks):
        assert combination_unrank(rank, ell, weight) == mask


# ---------------------------------------------------------------------------
# constant-weight code
# ---------------------------------------------------------------------------

def test_cw_capacity_checked():
    with pytest.raises(ValueError):
        ConstantWeightCode(8, 4, 7)  # C(8,4)=70 < 128


def test_cw_round_trip_exhaustive():
    code = ConstantWeightCode(8, 4, 6)  # C(8,4) = 70 >= 64
    for v in range(64):
        image = code.encode(v)
        assert image.bit_count() == 4
        kind, payload = code.classify_noiseless(image)
        assert kind is Occupancy.ONE and payload == v


def test_cw_or_of_distinct_images_collides_exhaustive():
    code = ConstantWeightCode(8, 4, 6)
    images = [code.encode(v) for v in range(64)]
    for a, b in combinations(images, 2):
        merged = a | b
        assert merged.bit_count() > 4  # distinct same-weight strings OR heavier
        kind, _ = code.classify_noiseless(merged)
        assert kind is Occupancy.MANY


def test_cw_classify_empty_and_non_image():
    code = ConstantWeightCode(8, 4, 6)
    assert code.classify_noiseless(0) == (Occupancy.EMPTY, None)
    # weight-4 string with rank >= 64 is not an image: conservative collision
    heavy = combination_unrank(69, 8, 4)
    assert code.classify_noiseless(heavy) == (Occupancy.MANY, None)


CW_CODES = [(8, 4, 6), (28, 14, 16), (28, 14, 25), (20, 3, 10), (33, 2, 9),
            (40, 20, 36), (64, 32, 60)]


def test_cw_binomial_table_is_exact():
    for ell, weight, _ in CW_CODES:
        table = _binomials(ell, weight)
        want = [[comb(c, i) for c in range(ell + 1)] for i in range(weight + 1)]
        assert table.dtype == np.uint64 and table.tolist() == want


@st.composite
def cw_words(draw, code):
    """Observed strings of every class: images, empty, wrong weight, and
    right-weight strings whose rank is past the payload range."""
    kind = draw(st.sampled_from(["image", "empty", "weight", "non-image"]))
    if kind == "image":
        return code.encode(draw(st.integers(0, (1 << code.payload_bits) - 1)))
    if kind == "empty":
        return 0
    if kind == "non-image":
        rank = draw(st.integers(1 << code.payload_bits, comb(code.ell, code.weight) - 1))
        return combination_unrank(rank, code.ell, code.weight)
    bits = draw(st.sets(st.integers(0, code.ell - 1), min_size=1, max_size=code.ell)
                .filter(lambda b: len(b) != code.weight))
    return sum(1 << b for b in bits)


@pytest.mark.parametrize("ell,weight,payload_bits", CW_CODES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cw_encode_many_matches_scalar(ell, weight, payload_bits, data):
    code = ConstantWeightCode(ell, weight, payload_bits)
    payloads = data.draw(st.lists(st.integers(0, (1 << payload_bits) - 1),
                                  min_size=1, max_size=24))
    want = [combination_unrank(v, ell, weight) for v in payloads]
    assert code.encode_many(np.array(payloads)).tolist() == want
    grid = np.array(payloads[:len(payloads) // 2 * 2]).reshape(-1, 2)
    assert code.encode_many(grid).tolist() == [want[i:i + 2] for i in range(0, grid.size, 2)]


@pytest.mark.parametrize("ell,weight,payload_bits", CW_CODES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cw_classify_many_matches_scalar(ell, weight, payload_bits, data):
    code = ConstantWeightCode(ell, weight, payload_bits)
    words = data.draw(st.lists(cw_words(code), min_size=1, max_size=24))
    kinds, payloads = code.classify_many(np.array(words, dtype=np.uint64))
    got = [(Occupancy(k), int(v) if k == Occupancy.ONE.value else None)
           for k, v in zip(kinds, payloads)]
    assert got == [code.classify_noiseless(w) for w in words]
    for w, (kind, payload) in zip(words, got):
        if kind is Occupancy.ONE:
            assert combination_rank(w) == payload


@pytest.mark.parametrize("ell,weight,payload_bits", CW_CODES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rank_many_matches_combination_rank(ell, weight, payload_bits, data):
    # every weight-`weight` string, past the payload range too
    ranks = data.draw(st.lists(st.integers(0, comb(ell, weight) - 1), max_size=24))
    strings = np.array([combination_unrank(v, ell, weight) for v in ranks], dtype=np.uint64)
    got = _rank_many(strings, ell, weight)
    assert got.dtype == np.uint64 and got.tolist() == ranks


@pytest.mark.parametrize("ell,weight,payload_bits", CW_CODES)
def test_rank_many_on_strings_in_one_byte_and_at_the_ends(ell, weight, payload_bits):
    # every string whose bits all sit in one byte (weight <= 8), plus the
    # lowest and the highest string of the code
    strings = [sum(1 << b for b in bits) for k in range(0, ell, 8)
               for bits in combinations(range(k, min(k + 8, ell)), weight)]
    strings += [(1 << weight) - 1, ((1 << weight) - 1) << (ell - weight)]
    got = _rank_many(np.array(strings, dtype=np.uint64), ell, weight)
    assert got.tolist() == [combination_rank(v) for v in strings]
    assert got[-1] == comb(ell, weight) - 1


def test_cw_non_image_words_exist_for_every_code():
    # the "non-image" draws above need room past the payload range
    for ell, weight, payload_bits in CW_CODES:
        assert comb(ell, weight) > 1 << payload_bits


@pytest.mark.parametrize("ell,weight,payload_bits", [(28, 14, 16), (63, 3, 10)])
def test_cw_bulk_rejects_long_words_and_payloads(ell, weight, payload_bits):
    code = ConstantWeightCode(ell, weight, payload_bits)
    for bit in (ell, 63):
        word = (1 << bit) | code.encode(3)
        with pytest.raises(ValueError, match="longer than ell"):
            code.classify_noiseless(word)
        with pytest.raises(ValueError, match="longer than ell"):
            code.classify_many(np.array([code.encode(1), word], dtype=np.uint64))
    for bad in (-1, 1 << payload_bits):
        with pytest.raises(ValueError):
            code.encode(bad)
        with pytest.raises(ValueError):
            code.encode_many(np.array([0, bad]))


def test_cw_block_longer_than_a_word_rejected():
    with pytest.raises(ValueError):
        ConstantWeightCode(66, 2, 8)


def test_min_even_block_length():
    assert min_even_block_length(16) == 20   # C(20,10) = 184756 >= 65536
    assert comb(18, 9) < 65536


# ---------------------------------------------------------------------------
# binary linear code
# ---------------------------------------------------------------------------

def naive_generator_encode(code, payload):
    word = 0
    for i in range(code.dim):
        if (payload >> i) & 1:
            word ^= code.generator_rows[i]
    return word


def test_lin_encode_matches_naive_oracle():
    code = linear_code(32, 12, seed=7)
    rng = np.random.default_rng(0)
    assert code.encode(0) == 0
    for v in rng.integers(0, 1 << 12, size=200):
        assert code.encode(int(v)) == naive_generator_encode(code, int(v))


def test_lin_linearity():
    code = linear_code(32, 12, seed=7)
    rng = np.random.default_rng(1)
    for _ in range(100):
        u, v = (int(x) for x in rng.integers(0, 1 << 12, size=2))
        assert code.encode(u) ^ code.encode(v) == code.encode(u ^ v)


def test_lin_full_row_rank():
    # systematic construction: identity part guarantees distinct codewords
    code = linear_code(32, 12, seed=3)
    assert len(set(int(c) for c in code.codebook)) == 1 << 12


def test_lin_decode_exact_and_single_flip():
    code = linear_code(32, 12, seed=7)
    assert code.min_weight() >= 3
    rng = np.random.default_rng(2)
    for v in rng.integers(0, 1 << 12, size=50):
        v = int(v)
        word = code.encode(v)
        assert code.decode(word) == v
        flipped = word ^ (1 << int(rng.integers(0, 32)))
        assert code.decode(flipped) == v


def test_lin_decode_many_matches_scalar():
    code = linear_code(32, 12, seed=7)
    rng = np.random.default_rng(4)
    words = rng.integers(0, 1 << 32, size=300, dtype=np.uint64)
    bulk = code.decode_many(words)
    for w, v in zip(words, bulk):
        assert code.decode(int(w)) == int(v)


# codes small enough to get a coset-leader table (ell <= 2 dim); (32, 16, 7)
# is the code of the noisy AC-6 shape, (34, 17, 7) the default at n = 2^32
TABLE_CODES = [(32, 16, 7), (34, 17, 7), (24, 12, 7), (20, 16, 3)] + [(12, 6, s) for s in range(4)]


def syndrome_of(code, word):
    lo = word & ((1 << code.dim) - 1)
    return (word ^ code.encode(lo)) >> code.dim


def word_in_coset(code, lo, syndrome):
    """The received word with payload part lo whose syndrome is `syndrome`."""
    return lo | ((syndrome ^ (code.encode(lo) >> code.dim)) << code.dim)


@st.composite
def received_words(draw, code):
    """Codeword + low-weight noise, uniform garbage, or a word in a tied coset."""
    kind = draw(st.sampled_from(["noisy", "garbage", "tie"]))
    lo = draw(st.integers(0, (1 << code.dim) - 1))
    if kind == "noisy":
        flips = draw(st.sets(st.integers(0, code.ell - 1), max_size=4))
        return code.encode(lo) ^ sum(1 << b for b in flips)
    if kind == "garbage":
        return draw(st.integers(0, (1 << code.ell) - 1))
    tied = np.flatnonzero(code.coset_table[0])
    return word_in_coset(code, lo, int(tied[draw(st.integers(0, len(tied) - 1))]))


@pytest.mark.parametrize("ell,dim,seed", TABLE_CODES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lin_decode_many_table_matches_scalar(ell, dim, seed, data):
    code = linear_code(ell, dim, seed)
    assert code.coset_table is not None
    words = data.draw(st.lists(received_words(code), min_size=1, max_size=40))
    bulk = code.decode_many(np.array(words, dtype=np.uint64))
    assert [int(v) for v in bulk] == [code.decode(w) for w in words]


@pytest.mark.parametrize("ell,dim,seed", TABLE_CODES)
def test_lin_tie_words_land_in_tied_cosets(ell, dim, seed):
    # the "tie" draws above must exercise the exhaustive fallback
    code = linear_code(ell, dim, seed)
    tie_table = code.coset_table[0]
    assert tie_table.any() and not tie_table.all()
    s = int(np.flatnonzero(tie_table)[0])
    assert tie_table[syndrome_of(code, word_in_coset(code, 5, s))]


@pytest.mark.parametrize("ell,dim,seed", [(14, 7, s) for s in range(4)]
                         + [(12, 6, s) for s in range(4)]
                         + [(18, 9, s) for s in range(4)]
                         + [(20, 10, 0), (20, 16, 3), (17, 16, 1), (16, 16, 0)])
def test_lin_coset_table_matches_brute_force(ell, dim, seed):
    # coset s holds the error patterns x | (s ^ P(x)) << dim, one per payload x;
    # weigh all of them and compare the table's tie flag and, for every coset,
    # tied or not, its full ascending set of minimum-weight leader low parts
    code = BinaryLinearCode(ell, dim, seed)
    tie_table, start, leaders = code.coset_table
    payloads = np.arange(1 << dim, dtype=np.uint64)
    syndromes = np.arange(1 << (ell - dim), dtype=np.uint64)
    parity = code.codebook >> np.uint64(dim)
    weights = (np.bitwise_count(payloads)[None, :].astype(np.int64)
               + np.bitwise_count(syndromes[:, None] ^ parity[None, :]))
    lightest = weights == weights.min(axis=1, keepdims=True)
    tied = lightest.sum(axis=1) > 1
    assert np.array_equal(tie_table, tied)
    assert np.array_equal(np.diff(start), lightest.sum(axis=1))
    _, lows = np.nonzero(lightest)  # row-major: by syndrome, then low part
    assert np.array_equal(leaders, lows)


def test_lin_decode_many_matches_nearest_on_the_widest_table_code():
    # (40, 20, 7) is the default code for noisy n <= 1024 (w = 10); about
    # 55% of uniform words land in a tied coset
    code = linear_code(40, 20, 7)
    words = np.random.default_rng(10).integers(0, 1 << 40, size=300, dtype=np.uint64)
    lo = words & np.uint64((1 << 20) - 1)
    syndrome = (words ^ code.codebook[lo]) >> np.uint64(20)
    assert code.coset_table[0][syndrome].mean() > 0.4
    assert np.array_equal(code.decode_many(words), code._nearest(words))
    assert code.decode_many(words[:0]).shape == (0,)


def test_lin_coset_table_only_when_no_larger_than_codebook():
    assert linear_code(32, 12, seed=7).coset_table is None
    assert linear_code(64, 20, seed=7).coset_table is None
    assert linear_code(32, 16, seed=7).coset_table is not None


@pytest.mark.parametrize("ell,dim", [(32, 16), (32, 12)])
def test_lin_decode_many_rejects_long_words(ell, dim):
    code = linear_code(ell, dim, seed=7)
    for bit in (ell, 63):
        words = np.array([code.encode(1), 1 << bit], dtype=np.uint64)
        with pytest.raises(ValueError, match="longer than ell"):
            code.decode_many(words)
        with pytest.raises(ValueError, match="longer than ell"):
            code.decode(1 << bit)


def test_lin_block_error_rate_bsc005():
    # seeded (32,12) code through BSC(0.05): block error rate <= 2%
    code = linear_code(32, 12, seed=7)
    rng = np.random.default_rng(99)
    trials = 10 ** 4
    payloads = rng.integers(0, 1 << 12, size=trials)
    sent = code.codebook[payloads]
    flips = rng.random((trials, 32)) < 0.05
    weights = np.uint64(1) << np.arange(32, dtype=np.uint64)
    noise = (flips * weights).sum(axis=1, dtype=np.uint64)
    decoded = code.decode_many(sent ^ noise)
    errors = int((decoded != payloads).sum())
    assert errors / trials <= 0.02, f"block error rate {errors / trials}"


def test_lin_dim_cap():
    with pytest.raises(UnsupportedCodeSize):
        BinaryLinearCode(64, 21, seed=0)


# ---------------------------------------------------------------------------
# OR-weight identity and concentration
# ---------------------------------------------------------------------------

def test_or_weight_identity_degenerate():
    code = linear_code(32, 12, seed=7)
    assert or_weight_identity_check(code, 5, 5)
    assert or_weight_identity_check(code, 5, 0)


def test_or_weight_identity_random_pairs():
    code = linear_code(32, 12, seed=7)
    rng = np.random.default_rng(5)
    for _ in range(1000):
        u, v = (int(x) for x in rng.integers(0, 1 << 12, size=2))
        assert or_weight_identity_check(code, u, v)


def binomial_band_mass(n, lo, hi):
    return sum(comb(n, w) for w in range(lo, hi + 1)) / 2 ** n


def test_weight_concentration_tracks_binomial():
    # random-code codeword weights follow Bin(ell, 1/2); the empirical in-band
    # fraction must match the exact binomial mass (computed oracle) within 3 sigma
    code = linear_code(64, 20, seed=7)
    rng = np.random.default_rng(6)
    n = 10 ** 4
    words = code.codebook[rng.integers(0, 1 << 20, size=n)]
    w = np.bitwise_count(words).astype(int)
    frac = float(((w >= 24) & (w <= 40)).mean())
    expect = binomial_band_mass(64, 24, 40)
    sigma = (expect * (1 - expect) / n) ** 0.5
    assert abs(frac - expect) < 3 * sigma + 0.01, (frac, expect)


def test_or_weight_concentration():
    # OR of two random codewords lands in (3/4 +- 3/16) ell at least 98% of the time
    code = linear_code(32, 12, seed=7)
    rng = np.random.default_rng(8)
    n = 10 ** 4
    a = code.codebook[rng.integers(0, 1 << 12, size=n)]
    b = code.codebook[rng.integers(0, 1 << 12, size=n)]
    w = np.bitwise_count(a | b).astype(int)
    frac = float(((w >= 18) & (w <= 30)).mean())
    assert frac >= 0.98, frac


# ---------------------------------------------------------------------------
# weight classifier
# ---------------------------------------------------------------------------

def test_classifier_thresholds_p0():
    clf = WeightClassifier(ell=64, p=0.0)
    assert clf.tau == 0.25
    assert clf.theta == 0.625


def test_classifier_tau_below_theta():
    for p in (0.0, 0.1, 0.3, 0.49):
        clf = WeightClassifier(ell=32, p=p)
        assert clf.tau < clf.theta


def test_classifier_all_zero_is_empty():
    for p in (0.0, 0.2, 0.4):
        clf = WeightClassifier(ell=32, p=p)
        assert clf.classify(0) is Occupancy.EMPTY


def test_classifier_monotone_in_weight():
    clf = WeightClassifier(ell=32, p=0.1)
    order = {Occupancy.EMPTY: 0, Occupancy.ONE: 1, Occupancy.MANY: 2}
    prev = 0
    for ones in range(33):
        cur = order[clf.classify_weight(ones)]
        assert cur >= prev  # a 0 -> 1 flip never moves toward EMPTY
        prev = cur


def exact_single_codeword_misclass(ell, p, tau, theta):
    """P(observed mean outside [tau, theta)) for a uniform-random codeword
    through BSC(p), computed exactly: weight w is Bin(ell, 1/2), the observed
    weight is w - Bin(w, p) + Bin(ell - w, p)."""
    def binom_pmf(n, q):
        pmf = [0.0] * (n + 1)
        for i in range(n + 1):
            pmf[i] = comb(n, i) * q ** i * (1 - q) ** (n - i)
        return pmf

    total_in = 0.0
    for w in range(ell + 1):
        pw = comb(ell, w) / 2 ** ell
        down = binom_pmf(w, p)
        up = binom_pmf(ell - w, p)
        for a, pa in enumerate(down):
            for b, pb in enumerate(up):
                x = w - a + b
                if tau <= x / ell < theta:
                    total_in += pw * pa * pb
    return 1.0 - total_in


def test_classifier_misclassification_rate():
    # rate-0.3 code at ell=64 under BSC(0.1): measured single-codeword
    # misclassification matches the exact oracle, and stays a small fraction
    code = linear_code(64, 19, seed=7)
    clf = WeightClassifier(ell=64, p=0.1)
    rng = np.random.default_rng(9)
    trials = 10 ** 4
    sent = code.codebook[rng.integers(0, 1 << 19, size=trials)]
    flips = rng.random((trials, 64)) < 0.1
    weights = np.uint64(1) << np.arange(64, dtype=np.uint64)
    noise = (flips * weights).sum(axis=1, dtype=np.uint64)
    w = np.bitwise_count(sent ^ noise) / 64.0
    miss = float(((w < clf.tau) | (w >= clf.theta)).mean())
    expect = exact_single_codeword_misclass(64, 0.1, clf.tau, clf.theta)
    sigma = (expect * (1 - expect) / trials) ** 0.5
    assert abs(miss - expect) < 3 * sigma + 0.005, (miss, expect)
    assert miss <= 0.06, miss


@pytest.mark.parametrize("ell,p", [(32, 0.0), (64, 0.05), (64, 1 / 21), (40, 0.2), (7, 0.49)])
def test_classify_weights_matches_scalar(ell, p):
    clf = WeightClassifier(ell=ell, p=p)
    ones = np.arange(ell + 1)
    want = [clf.classify_weight(int(v)).value for v in ones]
    assert clf.classify_weights(ones).tolist() == want
    assert clf.classify_weights(ones.reshape(1, -1)).tolist() == [want]
