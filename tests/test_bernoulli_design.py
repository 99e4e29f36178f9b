"""The packed Bernoulli design behind COMP and the oracle: the one-pass
seeding against numpy's own SeedSequence and default_rng (on the state
copy and on the setter it falls back to), the design against
the per-column build it replaces, COMP's word ANDs against the column loop
(no tests included), and the handle's observe against run_tests.  The word
layout itself is checked in test_packed_format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gachagt import core_model
from gachagt.baselines import bits_to_words, comp_decode, comp_decode_words
from gachagt.core_model import ConfigMatrix, ProblemInstance, person_streams, run_tests, seed_states
from gachagt.scheme import WORD, pack_groups, zero_words
from gachagt.sim_cli import _bernoulli_design, build_scheme, parse_config
from scaffolding import bernoulli_columns_reference, comp_decode_reference, row_sets

# (n, m, k, matrix_seed), m = 0 for the default test count; seeds on both
# sides of 2^32 (one and two entropy words), n on both sides of a design chunk,
# and m of one word, a full word, and a partial last word
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
    assert all(np.array_equal(a, b) for a, b in zip(h.build().columns, ref))


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
    matrix = h.build()
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
    matrix = h.build()
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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, (1 << 63) - 1),
       j=st.sampled_from([0, (1 << 32) - 1, 1 << 32, 1 << 40]))
def test_person_streams_match_default_rng(seed, j):
    gen = next(person_streams(seed, [j]))
    ref = np.random.default_rng((seed, j))
    assert np.array_equal(gen.random(7), ref.random(7))
    assert np.array_equal(gen.bit_generator.random_raw(5), ref.bit_generator.random_raw(5))
    assert np.array_equal(gen.choice(1000, size=6, replace=False),
                          ref.choice(1000, size=6, replace=False))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, (1 << 64) - 1),
       js=st.lists(st.integers(0, (1 << 64) - 1), max_size=6))
def test_seed_states_match_seed_sequence(seed, js):
    states = seed_states(seed, np.array(js, dtype=np.uint64))
    assert states.shape == (len(js), 4) and states.dtype == np.uint64
    for j, state in zip(js, states):
        assert np.array_equal(state, np.random.SeedSequence((seed, j)).generate_state(4, np.uint64))


def test_person_streams_run_in_order():
    js = [5, 0, 4095, 5]
    for j, gen in zip(js, person_streams(99, js)):
        assert gen.bit_generator.state == np.random.default_rng((99, j)).bit_generator.state
    assert list(person_streams(99, [])) == []


@pytest.fixture(params=["copy", "setter"])
def writer(request, monkeypatch):
    """person_streams on the memory copy, or with the probe made to fail."""
    if request.param == "setter":
        monkeypatch.setattr(core_model, "_pcg_layout", lambda: None)
    return request.param


def test_state_probe_finds_the_layout():
    assert core_model._pcg_layout() is not None  # so the copy path is what runs here


@pytest.mark.parametrize("seed", [0, (1 << 32) + 5, (1 << 64) - 1, (7, 13)])
def test_person_streams_state_exact_after_a_buffered_uint32(writer, seed):
    # a uint32 draw leaves half an output buffered (has_uint32 = 1); the next
    # person's state must clear it, as the setter does
    js = [3, 0, 1 << 33, 3, 4095]
    for j, gen in zip(js, person_streams(seed, js)):
        assert gen.bit_generator.state == np.random.default_rng((seed, j)).bit_generator.state
        gen.integers(0, 2**32, dtype=np.uint32)
        assert gen.bit_generator.state["has_uint32"] == 1


@pytest.mark.parametrize("shape", SHAPES)
def test_setter_path_design_equals_copy_path(shape, monkeypatch):
    n, m, k, matrix_seed = shape
    text = f"scheme=comp\nn={n}\nk={k}\ntrials=1\nmaster_seed=1\n" + (f"m={m}\n" if m else "")
    config = parse_config(text)
    copied, m_copy = _bernoulli_design(config, matrix_seed)
    monkeypatch.setattr(core_model, "_pcg_layout", lambda: None)
    set_words, m_set = _bernoulli_design(config, matrix_seed)
    assert m_copy == m_set and np.array_equal(copied, set_words)


@pytest.mark.parametrize("seed,js", [(-1, [0]), (1 << 64, [0]), (3, [-1]), (3, [0.5])])
def test_person_streams_reject_bad_seeds_at_the_call(seed, js):
    with pytest.raises(ValueError):
        person_streams(seed, js)
