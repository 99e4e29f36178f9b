"""The packed Bernoulli design behind COMP and the oracle: the design
against the one-row-at-a-time reference of its byte draw, its density
against p, its byte levels at k = 1 and at a k where only ties set a bit,
a smaller population's design as the leading rows of a larger one's, the
design whatever the size of the buffer it is drawn through, COMP's word
ANDs against the column loop (no tests included), and the handle's observe
against run_tests.  The word layout itself is checked in
test_packed_format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gachagt import sim_cli
from gachagt.baselines import bits_to_words, comp_decode, comp_decode_words
from gachagt.core_model import ConfigMatrix, ProblemInstance
from gachagt.scheme import WORD, pack_groups, unpack_groups, zero_words
from gachagt.sim_cli import (DESIGN_CHUNK, SimConfig, _bernoulli_design, build_scheme,
                             parse_config)
from scaffolding import (bernoulli_columns_reference, build_matrix, comp_decode_reference, row_sets,
                         run_tests)

# (n, m, k, matrix_seed), m = 0 for the default test count; seeds on both
# sides of 2^32, n on both sides of a design chunk, and m of one word, a full
# word, and a partial last word
SHAPES = [
    (50, 40, 2, 0),
    (50, 40, 2, (1 << 32) - 1),
    (300, 0, 3, 1 << 32),
    (513, 25, 1, 7),
    (1000, 0, 8, (1 << 62) + 12345),
    (4096, 0, 8, (1 << 63) - 1),
    (50, 1, 2, 3),
    (50, 63, 2, 1 << 33),
    (50, 64, 2, 9),
    (50, 65, 2, (1 << 32) + 5),
    (300, 65, 3, 11),
]


def bernoulli_handle(scheme, n, m, k, matrix_seed):
    text = f"scheme={scheme}\nn={n}\nk={k}\ntrials=1\nmaster_seed=1\n" + (f"m={m}\n" if m else "")
    return build_scheme(parse_config(text), matrix_seed, 0)


@pytest.mark.parametrize("shape", SHAPES)
def test_design_equals_per_column_build(shape):
    n, m, k, matrix_seed = shape
    h = bernoulli_handle("comp", *shape)
    assert h.m == (m or int(np.ceil(np.e * k * np.log(n))))
    ref = bernoulli_columns_reference(n, k, h.m, matrix_seed)
    for j in range(n):
        assert np.array_equal(h.column(j), ref[j])


@pytest.mark.parametrize("shape", [s for s in SHAPES if s[0] <= 50])
def test_oracle_design_equals_per_column_build(shape):
    n, m, k, matrix_seed = shape
    h = bernoulli_handle("oracle", *shape)
    ref = bernoulli_columns_reference(n, k, h.m, matrix_seed)
    assert all(np.array_equal(h.column(j), ref[j]) for j in range(n))


@pytest.mark.parametrize("shape", SHAPES)
def test_comp_decode_matches_column_loop(shape):
    n, _, k, matrix_seed = shape
    h = bernoulli_handle("comp", *shape)
    matrix = build_matrix(h)
    rng = np.random.default_rng(matrix_seed % 1000)
    ys = [np.zeros(h.m, dtype=np.uint8), np.ones(h.m, dtype=np.uint8)]
    ys += [(rng.random(h.m) < density).astype(np.uint8) for density in (0.3, 0.7, 0.95)]
    ys += [h.observed_bits(set(rng.choice(n, size=k, replace=False).tolist())) for _ in range(4)]
    for y in ys:
        want = comp_decode_reference(matrix, y)
        assert h.decode(h.from_bits(y, 1)) == want
        assert comp_decode(matrix, y) == want


@pytest.mark.parametrize("shape", SHAPES)
def test_observe_equals_run_tests(shape):
    n, _, k, matrix_seed = shape
    h = bernoulli_handle("comp", *shape)
    matrix = build_matrix(h)
    rng = np.random.default_rng(matrix_seed % 997)
    sick_sets = [set(rng.choice(n, size=k, replace=False).tolist()) for _ in range(5)]
    for sick in sick_sets:
        inst = ProblemInstance(n=n, k=k, sick_set=frozenset(sick))
        assert np.array_equal(h.observed_bits(sick), run_tests(matrix, inst))
    # stacked: copy r holds the OR of the persons placed in it, duplicates too
    js = np.concatenate([sorted(s) for s in sick_sets] + [[0, 0]])
    rows = np.concatenate([np.full(k, r) for r in range(5)] + [[5, 5]])
    stacked = h.to_bits(h.observe(js, rows, 7))
    assert stacked.dtype == np.uint8 and stacked.shape == (7 * h.m,)
    for r, sick in enumerate(sick_sets):
        assert np.array_equal(stacked[r * h.m:(r + 1) * h.m], h.observed_bits(sick))
    assert np.array_equal(stacked[5 * h.m:6 * h.m], h.observed_bits({0}))
    assert not stacked[6 * h.m:].any()


def test_comp_decode_checks_length():
    words = np.zeros((3, 1), dtype=WORD)
    with pytest.raises(ValueError, match="observed length 5 != m = 4$"):
        bits_to_words(4, np.zeros(5, dtype=np.uint8))
    with pytest.raises(ValueError, match="observed length 9 != 2 copies of m = 4$"):
        bits_to_words(4, np.zeros(9, dtype=np.uint8), 2)
    for y, nrows in ((zero_words(1, 65), 1), (zero_words(1, 4)[0], 1), (zero_words(1, 4), 2),
                     (np.zeros((1, 1), dtype=np.int64), 1), ([[0]], 1)):
        with pytest.raises(ValueError, match="observed words"):
            comp_decode_words(words, 4, y, nrows)
    row, index = comp_decode_words(words, 4, bits_to_words(4, np.zeros(4, dtype=np.uint8)))
    assert row.tolist() == [0, 0, 0] and index.tolist() == [0, 1, 2]


def test_comp_decode_of_no_tests_keeps_everyone():
    # vacuously true: with m = 0 there is no word, so no pad word to mask
    matrix = ConfigMatrix(m=0, n=3, columns=[np.zeros(0, dtype=np.int64)] * 3)
    assert comp_decode(matrix, np.zeros(0, dtype=np.uint8)) == {0, 1, 2}
    row, index = comp_decode_words(zero_words(3, 0), 0, zero_words(2, 0), 2)
    assert row.tolist() == [0, 0, 0, 1, 1, 1] and index.tolist() == [0, 1, 2, 0, 1, 2]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), m=st.sampled_from([1, 63, 64, 65, 130]),
       seed=st.integers(0, 1 << 32))
def test_comp_decode_words_matches_column_loop(n, m, seed):
    rng = np.random.default_rng(seed)
    design = rng.random((n, m)) < rng.random()
    matrix = ConfigMatrix(m=m, n=n, columns=[np.flatnonzero(row) for row in design])
    ys = [np.zeros(m, np.uint8), np.ones(m, np.uint8), (rng.random(m) < 0.8).astype(np.uint8)]
    want = [comp_decode_reference(matrix, y) for y in ys]
    for y, found in zip(ys, want):
        assert comp_decode_words(pack_groups(design), m, bits_to_words(m, y))[1].tolist() == sorted(found)
        assert comp_decode(matrix, y) == found
    stacked = bits_to_words(m, np.concatenate(ys), 3)
    assert row_sets(comp_decode_words(pack_groups(design), m, stacked, 3), 3) == want


def comp_design(n, m, k, matrix_seed):
    text = f"scheme=comp\nn={n}\nk={k}\ntrials=1\nmaster_seed=1\nm={m}\n"
    return _bernoulli_design(parse_config(text), matrix_seed)[0]


@pytest.mark.parametrize("m", [1, 40, 64, 65, 181])
@pytest.mark.parametrize("matrix_seed", [0, (1 << 32) + 5, (1 << 63) - 1])
def test_fewer_persons_design_is_the_leading_rows(m, matrix_seed):
    # row j depends on (matrix_seed, m, j) alone: the draw is one stream,
    # whatever chunk a row lands in
    n_big = 2 * DESIGN_CHUNK + 3
    big = comp_design(n_big, m, 3, matrix_seed)
    for n in (4, DESIGN_CHUNK - 1, DESIGN_CHUNK, DESIGN_CHUNK + 1, n_big - 1):
        assert np.array_equal(comp_design(n, m, 3, matrix_seed), big[:n])
    assert not np.array_equal(comp_design(n_big, m, 3, matrix_seed + 1), big)


@pytest.mark.parametrize("shape", SHAPES)
def test_setter_path_design_equals_copy_path(shape, monkeypatch):
    # the reused buffer's size sets only where the stream is cut: a design
    # drawn one row at a time, or seven rows at a time, is the same design
    n, m, k, matrix_seed = shape
    text = f"scheme=comp\nn={n}\nk={k}\ntrials=1\nmaster_seed=1\n" + (f"m={m}\n" if m else "")
    config = parse_config(text)
    words, m_words = _bernoulli_design(config, matrix_seed)
    for chunk in (1, 7):
        monkeypatch.setattr(sim_cli, "DESIGN_CHUNK", chunk)
        cut, m_cut = _bernoulli_design(config, matrix_seed)
        assert m_cut == m_words and np.array_equal(cut, words)


def stream_bytes(n, m, matrix_seed):
    """The (n, m) bytes the design's rows read: row j the first m bytes of
    its own ceil(m / 8) words of default_rng(matrix_seed)'s raw stream."""
    words = np.random.default_rng(matrix_seed).bit_generator.random_raw(n * -(-m // 8))
    return words.astype("<u8").view(np.uint8).reshape(n, -1)[:, :m]


def byte_level(k):
    p = 1 - 2 ** (-1.0 / k)
    return p, math.floor(256 * p), 256 * p - math.floor(256 * p)


def test_design_density_is_p_and_needs_the_tie_rule():
    # k = 16: p = 0.04240, level = 10, frac = 0.8536.  One design of
    # N = 4096 * 300 = 1,228,800 tests has sigma = sqrt(p (1 - p) / N) =
    # 1.82e-4.  Ties read as 0 would take frac / 256 = 3.33e-3 (18 sigma) off
    # the mean, and the tie rule inverted (a 1 when the uniform is at or
    # above frac) would move it by (1 - 2 frac) / 256 = -2.76e-3 (15 sigma).
    n, m, k, matrix_seed = 4096, 300, 16, 20251
    p, level, frac = byte_level(k)
    sigma = math.sqrt(p * (1 - p) / (n * m))
    assert (level, round(frac, 4)) == (10, 0.8536)
    assert frac / 256 > 8 * sigma and abs(1 - 2 * frac) / 256 > 8 * sigma
    bits = unpack_groups(comp_design(n, m, k, matrix_seed), m)
    assert abs(bits.mean() - p) < 4 * sigma
    octets = stream_bytes(n, m, matrix_seed)
    assert np.array_equal(bits[octets != level], octets[octets != level] < level)


def test_k_1_is_the_bytes_below_128():
    # p = 1/2 exactly: 256 p = 128 is whole, frac = 0, and no tie sets a bit
    n, m, matrix_seed = 1000, 181, 77
    assert byte_level(1) == (0.5, 128, 0.0)
    bits = unpack_groups(comp_design(n, m, 1, matrix_seed), m)
    assert np.array_equal(bits, stream_bytes(n, m, matrix_seed) < 128)
    assert abs(bits.mean() - 0.5) < 4 * math.sqrt(0.25 / (n * m))


def test_large_k_sets_bits_only_on_ties():
    # k = 200: 256 p = 0.8857 < 1, so level = 0 and a bit is set only on a
    # zero byte, on a fraction frac of them: about 16,000 ties, each a 1
    # with probability frac
    n, m, k, matrix_seed = 4096, 1000, 200, 3
    p, level, frac = byte_level(k)
    assert level == 0 and 0.88 < frac < 0.89
    bits = unpack_groups(comp_design(n, m, k, matrix_seed), m).astype(bool)
    ties = stream_bytes(n, m, matrix_seed) == 0
    assert not (bits & ~ties).any()
    won = bits.sum() / ties.sum()
    assert abs(won - frac) < 4 * math.sqrt(frac * (1 - frac) / ties.sum())


SIZES = [1, 7, 8, 63, 64, 65, 181]


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from(SIZES), m=st.sampled_from(SIZES), k=st.sampled_from([1, 2, 8, 16, 200]),
       matrix_seed=st.integers(0, (1 << 63) - 1))
def test_design_equals_row_reference(n, m, k, matrix_seed):
    # the draw itself takes n = 1 and k >= n, which a config does not
    config = SimConfig(scheme="comp", n=n, k=k, trials=1, master_seed=1, m=m)
    words, m_words = _bernoulli_design(config, matrix_seed)
    assert m_words == m
    ref = bernoulli_columns_reference(n, k, m, matrix_seed)
    assert all(np.array_equal(np.flatnonzero(row), col)
               for row, col in zip(unpack_groups(words, m), ref))
