"""Single-layer scheme: encoding layout, synthesis, list decoding, budgets."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gachagt.gacha_core as gacha_core
from gachagt.channels import apply_plan_many, bsc, plan_symmetrize, fp_channel
from gachagt.core_model import sample_instance, score
from gachagt.gf2e import FieldSpec, field
from gachagt.gacha_core import (
    COLLISION,
    GachaParams,
    NoiselessInner,
    analytic_budget,
    bits_to_blocks,
    blocks_to_bits,
    build_column,
    column_symbols,
    decode_rows,
    default_params,
    gacha_scheme,
    list_decode,
    notes,
    recover_from_groups,
    recover_rows,
    whiten_keys,
    observed_blocks,
    synthesize_blocks,
)
from scaffolding import (
    build_matrix,
    choice_set_reference,
    combination_unrank,
    index_to_poly,
    package_users,
    poly_eval_reference,
    poly_to_index,
    recover_from_groups_reference,
    recover_in_order,
    reference_symbols,
    row_lists,
    row_sets,
    run_tests,
    scalar_gacha_decode,
    splitmix_key,
)


def small_params(seed=1, n=1 << 12, k=2):
    # w=12, d=1: constant polynomials, single-block constant-weight inner
    return default_params(n, k, matrix_seed=seed)


def ac1_params(seed=1, k=8):
    return default_params(1 << 16, k, matrix_seed=seed, w=16, d=2, r=18, B=384,
                          ell=28, weight=14)


def test_params_validation():
    inner = ac1_params().inner
    with pytest.raises(ValueError):
        GachaParams(n=1 << 20, k_cap=2, w=4, d=2, r=9, B=48, inner=inner)  # n > 2^(wd)
    with pytest.raises(ValueError):
        GachaParams(n=16, k_cap=2, w=8, d=1, r=9, B=8, inner=inner)  # B < r
    with pytest.raises(ValueError):
        GachaParams(n=16, k_cap=2, w=4, d=1, r=9, B=100, inner=inner)  # B+1 > 2^w


def test_default_ratios():
    p = default_params(65536, 8)
    assert (p.d, p.w, p.r, p.B) == (1, 16, 9, 192)
    assert p.r * p.k_cap * 3 == p.B * 9 // 8  # r k / B = 3/8
    assert p.r / p.d == 9


def test_column_ones_count_noiseless():
    p = ac1_params()
    image_weight = p.inner.blocks * p.inner.code.weight
    for j in (0, 123, 65535):
        col = build_column(p, j)
        assert len(col) == p.r * image_weight
        assert len(np.unique(col)) == len(col)
        assert col[0] >= 0 and col[-1] < p.m


def test_column_deterministic():
    p = ac1_params(seed=9)
    a, b = build_column(p, 777), build_column(p, 777)
    assert np.array_equal(a, b)
    p2 = ac1_params(seed=10)
    assert not np.array_equal(build_column(p2, 777), a)


def test_shared_batch_is_or_of_images():
    p = ac1_params(seed=4)
    # find two persons sharing a chosen batch
    j1 = 100
    batches1 = {s for s, _ in column_symbols(p, j1)}
    j2 = next(
        j for j in range(101, 400)
        if {s for s, _ in column_symbols(p, j)} & batches1
    )
    shared = sorted({s for s, _ in column_symbols(p, j2)} & batches1)[0]
    y = np.zeros(p.m, dtype=np.uint8)
    for j in (j1, j2):
        y[build_column(p, j)] = 1
    words1 = dict(column_symbols(p, j1))[shared]
    words2 = dict(column_symbols(p, j2))[shared]
    got = bits_to_blocks(p, y)
    assert got.shape == (p.B, p.inner.blocks) and got.dtype == np.uint64
    expect = np.array(words1, dtype=np.uint64) | np.array(words2, dtype=np.uint64)
    assert np.array_equal(got[shared], expect)


def test_build_matrix_shape_and_m():
    p = small_params(n=64, k=2)
    A = build_matrix(gacha_scheme(p))
    assert A.m == p.B * p.bits_per_symbol
    assert A.n == 64
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = default_params(int(rng.integers(8, 64)), int(rng.integers(1, 4)) + 1)
        assert q.m == q.B * q.bits_per_symbol


def test_single_column_matrix():
    p = default_params(1, 1, matrix_seed=3)
    A = build_matrix(gacha_scheme(p))
    assert A.n == 1
    image_weight = p.inner.blocks * p.inner.code.weight
    assert len(A.columns[0]) == p.r * image_weight


def test_classic_sizing_ratio():
    # with r = 3 sqrt(nu), B = 8 k sqrt(nu) and 7 sqrt(nu) bits per symbol,
    # the matrix has 56 k nu tests (nu = 36, k = 2 instantiation)
    nu, k = 36, 2
    root = 6
    p = default_params(1 << 16, k, matrix_seed=1, w=18, d=2, r=3 * root,
                       B=8 * k * root, ell=21, weight=10)
    assert p.bits_per_symbol == 7 * root
    assert p.m == 56 * k * nu


def test_lazy_observed_equals_run_tests():
    p = small_params(seed=8, n=128, k=3)
    A = build_matrix(gacha_scheme(p))
    h = gacha_scheme(p)
    for seed in range(5):
        inst = sample_instance(128, 3, seed)
        lazy = h.observed_bits(inst.sick_set)
        full = run_tests(A, inst)
        assert np.array_equal(lazy, full)
        # the packed-block path agrees bit for bit too
        words = observed_blocks(p, inst.sick_set)
        assert np.array_equal(words, bits_to_blocks(p, full))


def test_synthesize_all_zero():
    p = small_params()
    word = synthesize_blocks(p, bits_to_blocks(p, np.zeros(p.m, dtype=np.uint8)))
    assert len(word.symbols) == p.B
    assert all(sym is None for sym in word.symbols)


def test_synthesize_single_person():
    p = ac1_params(seed=2)
    j = 31337
    h = gacha_scheme(p)
    word = synthesize_blocks(p, bits_to_blocks(p, h.observed_bits({j})))
    g = index_to_poly(p.field, j, p.d)
    hi = poly_eval_reference(p.field, g, 0)
    chosen = {s for s, _ in column_symbols(p, j)}
    for s, sym in enumerate(word.symbols):
        if s in chosen:
            assert sym == (hi, poly_eval_reference(p.field, g, s + 1))
        else:
            assert sym is None


def test_synthesize_shared_batch_collision():
    p = ac1_params(seed=4)
    j1 = 100
    batches1 = {s for s, _ in column_symbols(p, j1)}
    j2 = next(
        j for j in range(101, 400)
        if {s for s, _ in column_symbols(p, j)} & batches1
    )
    shared = {s for s, _ in column_symbols(p, j2)} & batches1
    h = gacha_scheme(p)
    word = synthesize_blocks(p, bits_to_blocks(p, h.observed_bits({j1, j2})))
    for s in shared:
        assert word.symbols[s] is COLLISION
    only1 = batches1 - shared
    g1 = index_to_poly(p.field, j1, p.d)
    for s in only1:
        assert word.symbols[s] == (
            poly_eval_reference(p.field, g1, 0), poly_eval_reference(p.field, g1, s + 1)
        )


def test_list_decode_empty_word():
    p = small_params()
    from gachagt.gacha_core import SynthWord

    assert list_decode(p, SynthWord(symbols=[None] * p.B)) == set()


def test_list_decode_single_person_exact():
    p = ac1_params(seed=6)
    h = gacha_scheme(p)
    for j in (0, 5, 99, 65535):
        word = synthesize_blocks(p, bits_to_blocks(p, h.observed_bits({j})))
        assert list_decode(p, word) == {j}


def test_decode_deterministic():
    p = ac1_params(seed=12)
    h = gacha_scheme(p)
    inst = sample_instance(p.n, 8, 3)
    y = h.observed_words(inst.sick_set)
    assert h.decode(y) == h.decode(y)


def test_decode_pipeline_k1_exact_all_seeds():
    p = ac1_params(seed=13, k=1)
    h = gacha_scheme(p)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        inst = sample_instance(p.n, 1, rng)
        y = h.observed_words(inst.sick_set)
        assert h.decode(y) == inst.sick_set


def test_decode_pipeline_length_check():
    p = small_params()
    with pytest.raises(ValueError):
        gacha_scheme(p).decode(np.zeros(p.m + 1, dtype=np.uint8))


def test_budget_formula():
    # budget = k exp(-2 (5/8 - d/r)^2 r) + k^2 / 2^(w+1)
    b = analytic_budget(8, 16, 2, 18)
    import math

    expect = 8 * math.exp(-2 * (5 / 8 - 2 / 18) ** 2 * 18) + 64 / 2 ** 17
    assert abs(b - expect) < 1e-15


def test_mean_errors_within_budget_k4():
    # 500 seeded trials at k=4 stay under the analytic budget
    p = ac1_params(seed=21, k=4)
    h = gacha_scheme(p)
    total = 0
    for t in range(500):
        rng = np.random.default_rng((555, t))
        inst = sample_instance(p.n, 4, rng)
        got = h.decode(h.observed_words(inst.sick_set))
        s = score(inst, got)
        total += s.false_positives + s.false_negatives
    budget = analytic_budget(4, p.w, p.d, p.r)
    assert total / 500 <= budget, (total, budget)


def test_circle_survival_rate():
    # empirical per-circle erasure at density 3/8 stays under 3/8 + 0.02
    p = default_params(1 << 16, 8, matrix_seed=31, w=16, d=2, r=18, B=384,
                      ell=28, weight=14)
    erased = total = 0
    for t in range(700):
        rng = np.random.default_rng((77, t))
        inst = sample_instance(p.n, 8, rng)
        owners = {}
        for j in inst.sick_set:
            for s, _ in column_symbols(p, j):
                owners.setdefault(s, []).append(j)
        for s, js in owners.items():
            total += len(js)
            if len(js) > 1:
                erased += len(js)
    assert total >= 10 ** 5
    assert erased / total <= 3 / 8 + 0.02, erased / total


def test_noiseless_fp_rate_bounded_by_birthday_mass():
    # false positives need a field-level double collision: over 10^4 trials the
    # FP rate stays under k^2 / 2^(w+1) plus a 3 sigma Monte-Carlo band
    k = 4
    p = default_params(1 << 16, k, matrix_seed=61, w=16, d=2, r=18, B=192,
                       ell=28, weight=14)
    assert p.w >= 2 * np.log2(k) + 10
    h = gacha_scheme(p)
    fps = []
    for t in range(10 ** 4):
        rng = np.random.default_rng((1212, t))
        inst = sample_instance(p.n, k, rng)
        got = h.decode(h.observed_words(inst.sick_set))
        fps.append(len(got - inst.sick_set))
    fps = np.array(fps, dtype=float)
    band = 3 * fps.std() / np.sqrt(len(fps))
    assert fps.mean() <= k * k / 2 ** (p.w + 1) + band


def test_monotone_degradation_in_crossover():
    # mean FN+FP at p=0 <= p=0.1 <= p=0.2, up to a 3 sigma Monte-Carlo band
    trials = 40
    means, sigmas = [], []
    for p_ch in (0.0, 0.1, 0.2):
        params = default_params(1 << 16, 8, channel_crossover=p_ch,
                                matrix_seed=41, w=16, d=2, r=18, B=384, code_seed=7)
        h = gacha_scheme(params)
        ch = bsc(p_ch) if p_ch > 0 else None
        errs = []
        for t in range(trials):
            rng = np.random.default_rng((888, t))
            inst = sample_instance(params.n, 8, rng)
            y = h.observed_bits(inst.sick_set)
            z = ch.transmit_many(y, rng).astype(np.uint8) if ch else y
            s = score(inst, h.decode(h.from_bits(z, 1)))
            errs.append(s.false_positives + s.false_negatives)
        errs = np.array(errs, dtype=float)
        means.append(errs.mean())
        sigmas.append(errs.std() / np.sqrt(trials))
    assert means[0] <= means[1] + 3 * (sigmas[0] + sigmas[1])
    assert means[1] <= means[2] + 3 * (sigmas[1] + sigmas[2])


def test_fp_channel_with_plan_decodes():
    # symmetrized FP channel runs through the full pipeline
    ch = fp_channel(0.05)
    plan = plan_symmetrize(ch)
    params = default_params(1 << 16, 4, channel_crossover=plan.crossover,
                            matrix_seed=51, w=16, d=2, r=18, B=192, code_seed=7)
    h = gacha_scheme(params)
    hits = 0
    for t in range(10):
        rng = np.random.default_rng((999, t))
        inst = sample_instance(params.n, 4, rng)
        y = h.observed_bits(inst.sick_set)
        z = ch.transmit_many(y, rng)
        got = h.decode(h.from_bits(apply_plan_many(plan, z, rng), 1))
        hits += len(got & inst.sick_set)
    assert hits >= 38  # crossover 1/21: nearly all persons recovered


# ---------------------------------------------------------------------------
# bulk encode and synthesis against a scalar per-batch reference
# ---------------------------------------------------------------------------

INNER_SHAPES = {
    "cw-2-blocks": lambda: ac1_params(seed=3),
    "cw-1-block": lambda: small_params(seed=3),
    "lin-2-blocks": lambda: default_params(1 << 16, 8, channel_crossover=0.05, matrix_seed=3,
                                           w=16, d=2, r=18, B=384, code_seed=7),
    "lin-1-block": lambda: default_params(256, 2, channel_crossover=0.05, matrix_seed=3,
                                          w=8, code_seed=7),
    # 14-bit payloads carrying 12-bit halves: garbage reads pairs outside GF(2^12)
    "lin-wide": lambda: default_params(4096, 4, channel_crossover=0.05, matrix_seed=3,
                                       w=12, lin_dim=14, code_seed=7),
}


def scalar_payloads(inner, hi, lo):
    return [(hi << inner.w) | lo] if inner.blocks == 1 else [hi, lo]


def reference_words(p, j):
    """[(batch, block words)] of person j through scalar references: the
    colex unrank, or the codebook row."""
    inner = p.inner
    batches = choice_set_reference(p.matrix_seed, j, p.B, p.r)
    g = index_to_poly(p.field, j, p.d)
    hi = poly_eval_reference(p.field, g, 0)
    out = []
    for s in batches:
        pay = scalar_payloads(inner, hi, poly_eval_reference(p.field, g, s + 1))
        if isinstance(inner, NoiselessInner):
            words = tuple(combination_unrank(v, inner.code.ell, inner.code.weight) for v in pay)
        else:
            words = tuple(int(inner.code.codebook[v ^ splitmix_key(s, b, inner.code.dim)])
                          for b, v in enumerate(pay))
        out.append((s, words))
    return out


def reference_column(p, j):
    ell = p.inner.ell
    return sorted(s * p.bits_per_symbol + b * ell + c
                  for s, words in reference_words(p, j)
                  for b, word in enumerate(words)
                  for c in range(ell) if word >> c & 1)


@pytest.mark.parametrize("shape", INNER_SHAPES)
def test_bulk_encode_matches_scalar_reference(shape):
    p = INNER_SHAPES[shape]()
    rng = np.random.default_rng(17)
    for j in [0, 1, p.n - 1] + [int(v) for v in rng.integers(0, p.n, size=12)]:
        assert column_symbols(p, j) == reference_words(p, j)
        col = build_column(p, j)
        assert col.dtype == np.int64 and col.tolist() == reference_column(p, j)


def test_whiten_keys_match_splitmix():
    for blocks, dim in ((1, 16), (2, 16), (2, 20)):
        batches = np.array([0, 1, 2, 191, 383, 65535])
        want = [[splitmix_key(s, b, dim) for b in range(blocks)] for s in batches.tolist()]
        assert whiten_keys(batches, blocks, dim).tolist() == want


def or_of_sick_blocks(p, rng):
    """OR of a random sick set, lightly to heavily loaded; under BSC noise
    for the linear inner code."""
    k = int(rng.choice([1, p.k_cap, 3 * p.k_cap]))
    sick = set(int(v) for v in rng.choice(p.n, size=min(k, p.n), replace=False))
    if isinstance(p.inner, NoiselessInner):
        return observed_blocks(p, sick)
    y = gacha_scheme(p).observed_bits(sick)
    return bits_to_blocks(p, bsc(0.05).transmit_many(y, rng).astype(np.uint8))


def garbage_blocks(p, rng):
    """Uniform block words, and for the constant-weight code a mix of empty
    blocks, images and right-weight non-images so every kind turns up."""
    ell, shape = p.inner.ell, (p.B, p.inner.blocks)
    words = rng.integers(0, 1 << ell, size=shape, dtype=np.uint64)
    if isinstance(p.inner, NoiselessInner):
        code = p.inner.code
        pick = rng.integers(0, 4, size=shape)
        images = code.encode_many(rng.integers(0, 1 << code.payload_bits, size=shape))
        words = np.where(pick == 1, images, words)
        words[pick == 2] = 0
        top = (1 << code.payload_bits) + rng.integers(0, 1 << 10, size=int((pick == 3).sum()))
        words[pick == 3] = [combination_unrank(int(r), ell, code.weight) for r in top]
    return words


@pytest.mark.parametrize("source", [or_of_sick_blocks, garbage_blocks])
@pytest.mark.parametrize("shape", INNER_SHAPES)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_synthesize_blocks_matches_scalar_reference(shape, source, seed):
    p = INNER_SHAPES[shape]()
    words = source(p, np.random.default_rng(seed))
    assert synthesize_blocks(p, words).symbols == reference_symbols(p, words)


def reference_one_writer(p, copies):
    """(batch, hi, lo) of the tuple entries of reference_symbols over stacked
    copies, batch counted across them."""
    return [(c * p.B + s, *sym) for c, words in enumerate(copies)
            for s, sym in enumerate(reference_symbols(p, words)) if type(sym) is tuple]


@pytest.mark.parametrize("source", [or_of_sick_blocks, garbage_blocks])
@pytest.mark.parametrize("shape", INNER_SHAPES)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), nrows=st.sampled_from([1, 3]))
def test_one_writer_matches_scalar_reference(shape, source, seed, nrows):
    p = INNER_SHAPES[shape]()
    rng = np.random.default_rng(seed)
    copies = [source(p, rng) for _ in range(nrows)]
    got = p.inner.one_writer(np.concatenate(copies), p.B)
    assert all(a.dtype == np.int64 for a in got)
    assert list(zip(*(a.tolist() for a in got))) == reference_one_writer(p, copies)


def test_wide_payload_reads_pairs_outside_the_field():
    # the decode drops them, as the scalar decode does
    p = INNER_SHAPES["lin-wide"]()
    words = garbage_blocks(p, np.random.default_rng(4))
    _, hi, lo = p.inner.one_writer(words, p.B)
    assert (np.maximum(hi, lo) >= 1 << p.w).any()
    assert row_lists(decode_rows(p, words, 1), 1) == scalar_decode_rows(p, [words])


@pytest.mark.parametrize("shape", INNER_SHAPES)
def test_one_writer_on_no_rows_and_no_one_writer(shape):
    # zero copies, every batch empty, and every batch full: empty int64 arrays
    p = INNER_SHAPES[shape]()
    blocks = p.inner.blocks
    for words, nrows in ((np.zeros((0, blocks), dtype=np.uint64), 0),
                         (np.zeros((2 * p.B, blocks), dtype=np.uint64), 2),
                         (np.full((p.B, blocks), (1 << p.inner.ell) - 1, dtype=np.uint64), 1)):
        got = p.inner.one_writer(words, p.B)
        assert [(a.dtype, a.shape) for a in got] == [(np.dtype(np.int64), (0,))] * 3
        row, index = decode_rows(p, words, nrows)
        assert row.dtype == index.dtype == np.int64 and len(row) == len(index) == 0


@pytest.mark.parametrize("shape", INNER_SHAPES)
def test_one_writer_rejects_bits_past_ell(shape):
    # a bit at ell in one person's lightest batch, which still reads as one
    # writer by weight; ell < 64 in every shape
    p = INNER_SHAPES[shape]()
    words = observed_blocks(p, [1])
    batch = p.inner.one_writer(words, p.B)[0]
    s = int(batch[np.argmin(np.bitwise_count(words[batch]).sum(axis=1))])
    words[s, 0] |= np.uint64(1 << p.inner.ell)
    with pytest.raises(ValueError):
        p.inner.one_writer(words, p.B)
    with pytest.raises(ValueError):
        decode_rows(p, words, 1)


def test_bits_to_blocks_matches_scalar_packing():
    for p in (ac1_params(), small_params(), INNER_SHAPES["lin-2-blocks"]()):
        bits = np.random.default_rng(5).integers(0, 2, size=p.m, dtype=np.uint8)
        ell, nb = p.inner.ell, p.inner.blocks
        want = [[sum(int(bits[(s * nb + b) * ell + c]) << c for c in range(ell))
                 for b in range(nb)] for s in range(p.B)]
        assert bits_to_blocks(p, bits).tolist() == want


def test_synthesize_blocks_shape_checked():
    p = ac1_params()
    with pytest.raises(ValueError):
        synthesize_blocks(p, np.zeros(p.B * p.inner.blocks, dtype=np.uint64))


# ---------------------------------------------------------------------------
# stacked array decode against the scalar list decode
# ---------------------------------------------------------------------------

# d = 3; w = 17, which multiplies by shift and add; and w * d = 68 > 63,
# whose indices can overflow int64
DECODE_SHAPES = {
    **INNER_SHAPES,
    "cw-d3": lambda: default_params(4096, 4, matrix_seed=3, d=3),
    "cw-w17": lambda: default_params(4096, 4, matrix_seed=3, B=40, w=17),
    "cw-d4-w17": lambda: default_params(4096, 4, matrix_seed=3, d=4, w=17, B=40),
}


def bsc_blocks(p, rng):
    """The OR of a random sick set through BSC(0.05), for either inner code."""
    sick = set(int(v) for v in rng.choice(p.n, size=min(p.k_cap, p.n), replace=False))
    y = gacha_scheme(p).observed_bits(sick)
    return bits_to_blocks(p, bsc(0.05).transmit_many(y, rng).astype(np.uint8))


def crafted_blocks(p, rng):
    """Fragments written straight into batches, group by group: some under
    their polynomial's own birthday, some under a birthday from a small
    shared pool (wrong, and merging groups), indices inside and outside
    [0, n), and a quarter of the fragments garbage.  So the birthday check,
    the index bound, the majority rule and the retry all decide groups."""
    fld, q = p.field, 1 << p.w
    pool = rng.integers(0, q, size=3).tolist()
    batches, his, los = [], [], []
    free = rng.permutation(p.B).tolist()
    while len(free) > 2 * p.d + 2:
        j = int(rng.integers(0, p.n)) if rng.random() < 0.6 else int(
            rng.integers(0, 1 << min(p.w * p.d, 62)))
        g = index_to_poly(fld, j, p.d)
        hi = poly_eval_reference(fld, g, 0) if rng.random() < 0.7 else int(rng.choice(pool))
        for _ in range(int(rng.integers(1, 2 * p.d + 3))):
            s = free.pop()
            lo = (poly_eval_reference(fld, g, s + 1) if rng.random() < 0.75
                  else int(rng.integers(0, q)))
            batches.append(s)
            his.append(hi)
            los.append(lo)
    words = np.zeros((p.B, p.inner.blocks), dtype=np.uint64)
    words[batches] = p.inner.encode_blocks(np.array(his), np.array(los), np.array(batches))
    return words


def scalar_decode_rows(p, copies):
    """The per-copy scalar decode of (B, blocks) block words, as lists in
    arrival order."""
    decode = scalar_gacha_decode(p)
    return [decode(blocks_to_bits(p, words)) for words in copies]


@pytest.mark.parametrize("source", [or_of_sick_blocks, bsc_blocks, garbage_blocks, crafted_blocks])
@pytest.mark.parametrize("shape", DECODE_SHAPES)
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), nrows=st.sampled_from([1, 3]))
def test_decode_rows_matches_scalar_decode(shape, source, seed, nrows):
    p = DECODE_SHAPES[shape]()
    rng = np.random.default_rng(seed)
    copies = [source(p, rng) for _ in range(nrows)]
    got = decode_rows(p, np.concatenate(copies), nrows)
    assert row_lists(got, nrows) == scalar_decode_rows(p, copies)


def test_decode_rows_shared_birthdays():
    # d = 3 over w = 11 and n = 4096: persons j and j + 2048 share a birthday
    p = DECODE_SHAPES["cw-d3"]()
    h = gacha_scheme(p)
    for sick in ({5, 5 + 2048}, {7, 7 + 2048, 9, 9 + 2048}, {100, 2148, 300}):
        words = bits_to_blocks(p, h.observed_bits(sick))
        got = decode_rows(p, words, 1)
        assert row_lists(got, 1) == scalar_decode_rows(p, [words])


def test_decode_rows_keeps_arrival_order():
    # the indices come in the order of their groups' first batches, not of
    # birthdays or indices
    p = ac1_params(seed=6)
    h = gacha_scheme(p)
    sick = [64 * v + 3 for v in (900, 17, 450, 3, 777, 120)]
    words = bits_to_blocks(p, h.observed_bits(set(sick)))
    want = scalar_decode_rows(p, [words])[0]
    assert sorted(want) == sorted(sick) and want != sorted(sick)
    assert row_lists(decode_rows(p, words, 1), 1) == [want]
    assert h.decode(h.observed_words(set(sick))) == set(want)


def test_decode_rows_retries_on_the_next_slots():
    # the first attempt (two smallest batches) holds a garbage fragment, the
    # retry on the next two batches recovers the person
    p = ac1_params(seed=6)
    fld, j = p.field, (12345 << 16) | 777
    g = index_to_poly(fld, j, p.d)
    batches = np.array([3, 10, 20, 30, 40])
    los = [poly_eval_reference(fld, g, int(s) + 1) for s in batches]
    los[0] ^= 1
    words = np.zeros((p.B, p.inner.blocks), dtype=np.uint64)
    words[batches] = p.inner.encode_blocks(np.full(5, poly_eval_reference(fld, g, 0)),
                                           np.array(los),
                                           batches)
    assert row_sets(decode_rows(replace(p, n=1 << 32), words, 1), 1) == [{j}]
    assert row_sets(decode_rows(p, words, 1), 1) == [set()]  # j >= n


def test_decode_rows_rejects_indices_past_int64():
    # w * d = 68: a top coefficient of 2^13 puts the index at 2^64 + 5, which
    # wraps to 5 in int64, and one of 2^12 at 2^63 + 5, which wraps negative;
    # both lie outside [0, n), as the scalar reference finds, and are rejected
    p = DECODE_SHAPES["cw-d4-w17"]()
    fld, batches = p.field, np.arange(0, 40, 5)
    for g, want in (((5, 0, 0, 1 << 13), set()), ((5, 0, 0, 1 << 12), set()),
                    ((5, 0, 0, 0), {5})):
        assert (poly_to_index(fld, g) + (1 << 63)) % (1 << 64) - (1 << 63) < p.n  # as int64
        los = np.array([poly_eval_reference(fld, g, int(s) + 1) for s in batches])
        words = np.zeros((p.B, p.inner.blocks), dtype=np.uint64)
        words[batches] = p.inner.encode_blocks(
            np.full(len(batches), poly_eval_reference(fld, g, 0)), los, batches)
        assert row_sets(decode_rows(p, words, 1), 1) == [want]
        assert scalar_decode_rows(p, [words]) == [list(want)]


@pytest.mark.parametrize("shape", DECODE_SHAPES)
def test_decode_rows_never_reaches_the_scalar_path(shape, monkeypatch):
    p = DECODE_SHAPES[shape]()
    rng = np.random.default_rng(11)
    copies = [source(p, rng) for source in (or_of_sick_blocks, bsc_blocks, garbage_blocks,
                                            crafted_blocks) for _ in range(2)]
    want = scalar_decode_rows(p, copies)

    def scalar(*args):
        raise AssertionError("the stacked decode reached a scalar oracle")

    monkeypatch.setattr(gacha_core, "recover_from_groups", scalar)
    monkeypatch.setattr(FieldSpec, "interpolate", scalar)
    monkeypatch.setattr(FieldSpec, "poly_eval", scalar)
    got = decode_rows(p, np.concatenate(copies), len(copies))
    assert row_lists(got, len(copies)) == want


@settings(max_examples=100, deadline=None)
@given(w=st.sampled_from([8, 16, 17]), d=st.integers(1, 4), data=st.data())
def test_notes_match_poly_eval_reference(w, d, data):
    # each person writes g(0) as its birthday and g(s + 1) in slot s
    fld = field(w)
    js = data.draw(st.lists(st.integers(0, (1 << min(w * d, 63)) - 1), max_size=6))
    r = data.draw(st.integers(1, 5))
    slots = data.draw(st.lists(st.lists(st.integers(0, (1 << w) - 2), min_size=r, max_size=r),
                               min_size=len(js), max_size=len(js)))
    birthdays, fragments = notes(fld, d, np.array(js, dtype=np.int64),
                                 np.array(slots, dtype=np.int64).reshape(len(js), r))
    polys = [index_to_poly(fld, j, d) for j in js]
    assert birthdays.tolist() == [[poly_eval_reference(fld, g, 0)] for g in polys]
    assert fragments.tolist() == [[poly_eval_reference(fld, g, s + 1) for s in row]
                                  for g, row in zip(polys, slots)]


def test_recover_from_groups_reads_only_the_notes_convention():
    # the adapter keeps its birthday point and point map for bench/tracer.py,
    # and accepts only the ones recover_rows reads: 0 and slot s at s + 1
    fld, d, n = field(16), 2, 1 << 20
    g = index_to_poly(fld, 12345, d)
    groups = {poly_eval_reference(fld, g, 0): [(s, poly_eval_reference(fld, g, s + 1))
                                               for s in (0, 3, 4, 9)]}
    arrays = tuple(np.array(col, dtype=np.int64) for col in
                   zip(*[(0, s, hi, lo) for hi, pts in groups.items() for s, lo in pts]))
    assert recover_from_groups(fld, d, 0, groups, lambda s: s + 1, n) == {12345}
    assert row_sets(recover_rows(fld, d, arrays, n), 1) == [{12345}]
    for b0, point_of_slot in ((1, lambda s: s + 1), (0, lambda s: s + 2),
                              (0, lambda s: 2 * s + 1)):  # the last agrees at slot 0 only
        with pytest.raises(ValueError, match="slot s at s \\+ 1"):
            recover_from_groups(fld, d, b0, groups, point_of_slot, n)


def test_only_gacha_core_converts_indices():
    # the birthday-number code has one writer and one reader, both in
    # gacha_core: no other module turns indices into polynomials or back
    users = package_users({"index_to_poly_many", "poly_to_index_many"})
    assert "gacha_core.py" in users  # the scan sees the owner's own calls
    assert sorted(users) == ["gacha_core.py"], f"index conversion outside gacha_core: {users}"


@st.composite
def fragment_rows(draw, widths=(8, 17, 32)):
    """(w, d, nrows, fragments) for recover_rows over GF(2^w), w drawn from
    widths: per row, slots in ascending order, each holding fragments of
    distinct birthdays in any order; fragments from a few polynomials, half
    of them with an index below 2^24, some under wrong birthdays, some
    garbage."""
    w = draw(st.sampled_from(widths))
    d = draw(st.sampled_from([1, 2, 3, 4]))
    nrows = draw(st.integers(1, 3))
    fld, q = field(w), 1 << w
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    frags = []
    for row in range(nrows):
        polys = [index_to_poly(fld, int(rng.integers(0, 1 << min(24, w * d))), d)
                 if rng.random() < 0.5 else tuple(rng.integers(0, q, size=d).tolist())
                 for _ in range(int(rng.integers(1, 6)))]
        births = [poly_eval_reference(fld, g, 0) if rng.random() < 0.7
                  else int(rng.integers(0, 4)) for g in polys]
        for slot in range(int(rng.integers(1, 40))):
            seen = set()
            for i in rng.permutation(len(polys)).tolist():
                if rng.random() < 0.5 or births[i] in seen:
                    continue
                seen.add(births[i])
                lo = poly_eval_reference(fld, polys[i], slot + 1)
                frags.append((row, slot, births[i], lo if rng.random() < 0.8 else
                              int(rng.integers(0, q))))
    return w, d, nrows, frags


@settings(max_examples=300, deadline=None)
@given(case=fragment_rows(), n=st.sampled_from([1 << 8, 1 << 12, 1 << 24]))
def test_recover_rows_matches_recover_from_groups(case, n):
    w, d, nrows, frags = case
    fld = field(w)
    arrays = tuple(np.array([f[i] for f in frags], dtype=np.int64).reshape(-1) for i in range(4))
    got = row_lists(recover_rows(fld, d, arrays, n), nrows)
    want = []
    for row in range(nrows):
        groups = {}
        for r, slot, hi, lo in frags:
            if r == row:
                groups.setdefault(hi, []).append((slot, lo))
        want.append(recover_in_order(fld, d, groups, n))
        # the adapter bench/tracer.py wraps, over the same groups
        assert recover_from_groups(fld, d, 0, groups, lambda s: s + 1, n) == set(want[-1])
    assert got == want


@settings(max_examples=100, deadline=None)
@given(case=fragment_rows(widths=(32,)), data=st.data())
def test_recover_rows_groups_far_apart_rows(case, data):
    # rows up to 2^20 over GF(2^32): the grouping key row << 32 | birthday
    # keeps every (row, birthday) group apart, row by row as the reference
    w, d, nrows, frags = case
    fld, n = field(w), 1 << 24
    labels = sorted(data.draw(st.lists(st.integers(0, 1 << 20), min_size=nrows,
                                       max_size=nrows, unique=True)))
    labelled = [(labels[r], slot, hi, lo) for r, slot, hi, lo in frags]
    arrays = tuple(np.array([f[i] for f in labelled], dtype=np.int64) for i in range(4))
    row, index = recover_rows(fld, d, arrays, n)
    for r, label in enumerate(labels):
        groups = {}
        for fr, slot, hi, lo in frags:
            if fr == r:
                groups.setdefault(hi, []).append((slot, lo))
        want = recover_in_order(fld, d, groups, n)
        assert index[row == label].tolist() == want
        assert set(want) == recover_from_groups_reference(fld, d, groups, n)
    assert set(row.tolist()) <= set(labels) and (np.diff(row) >= 0).all()


def test_recover_rows_retries_after_an_index_past_int64():
    # d = 3 over GF(2^32): P = Q + x (x + 7) shares the birthday P(0) = Q(0)
    # and the point x = 7 with Q, and its index passes 2^64.  Slots 0..2 lie
    # on P, slots 3..5 on Q, slot 6 on both: the first attempt finds P, whose
    # index no person has, so the retry on slots 3..5 must find Q, which
    # matches 4 of the 7 points
    fld, d, n = field(32), 3, 1 << 24
    q = index_to_poly(fld, 12345, d)
    p = (q[0], q[1] ^ 7, q[2] ^ 1)  # x (x + 7) = x^2 + 7 x
    assert poly_eval_reference(fld, p, 7) == poly_eval_reference(fld, q, 7)
    assert poly_to_index(fld, p) >= 1 << 64
    frags = [(0, s, q[0], poly_eval_reference(fld, p if s < 3 else q, s + 1)) for s in range(7)]
    arrays = tuple(np.array(col, dtype=np.int64) for col in zip(*frags))
    groups = {q[0]: [(s, lo) for _, s, _, lo in frags]}
    assert recover_from_groups_reference(fld, d, groups, n) == {12345}
    assert row_sets(recover_rows(fld, d, arrays, n), 1) == [{12345}]


@pytest.mark.parametrize("retried", [False, True])
def test_recover_rows_passes_once_when_no_group_can_retry(monkeypatch, retried):
    # GF(2^8), d = 2: birthday 5 has four fragments on the constant 5, and
    # birthday 7 fails with exactly d fragments (no retry) or with d + 1
    fld, d = field(8), 2
    hi, lo = [5, 5, 5, 5, 7, 7] + [7] * retried, [5, 5, 5, 5, 1, 2] + [3] * retried
    arrays = tuple(np.array(col, dtype=np.int64)
                   for col in ([0] * len(hi), range(len(hi)), hi, lo))
    shapes = []
    real = FieldSpec.interpolate_many

    def spied(self, xs, ys):
        shapes.append(np.shape(xs))
        return real(self, xs, ys)

    monkeypatch.setattr(FieldSpec, "interpolate_many", spied)
    got = recover_rows(fld, d, arrays, 1 << 16)
    assert shapes == [(2, 2), (1, 2)] if retried else shapes == [(2, 2)]
    groups = {}
    for slot, (h, v) in enumerate(zip(hi, lo)):
        groups.setdefault(h, []).append((slot, v))
    assert row_lists(got, 1) == [recover_in_order(fld, d, groups, 1 << 16)]
