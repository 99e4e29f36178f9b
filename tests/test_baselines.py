"""Reference decoders: COMP and the exhaustive consistent/ML oracle, the
oracle's packed scoring against the scalar one on int masks (supports,
ranking and every float), its running best against the scalar ranking's
first, an oracle trial's time at m = 2^20, and its memory at C(n, k) near
the enumeration cap."""

import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gachagt import sim_cli
from gachagt import baselines
from gachagt.baselines import brute_force_best, brute_force_decode, comp_decode
from gachagt.channels import DiscreteChannel, bec, bsc, fn_channel, fp_channel
from gachagt.core_model import ConfigMatrix, ProblemInstance, sample_instance
from gachagt.scheme import pack_groups
from scaffolding import brute_force_reference, run_tests


def oracle(A, observations, k, channel=None):
    """The exhaustive oracle on the packed rows of a ConfigMatrix."""
    return brute_force_decode(pack_groups(A.dense()), A.m, observations, k, channel)


def bernoulli_matrix(m, n, p, seed):
    rng = np.random.default_rng(seed)
    cols = [np.flatnonzero(rng.random(m) < p).astype(np.int64) for _ in range(n)]
    return ConfigMatrix(m=m, n=n, columns=cols)


def test_comp_all_positive_returns_everyone():
    A = bernoulli_matrix(6, 5, 0.5, 0)
    assert comp_decode(A, np.ones(6, dtype=np.uint8)) == set(range(5))


def test_comp_negative_test_excludes():
    A = ConfigMatrix(m=2, n=2, columns=[np.array([0]), np.array([1])])
    y = np.array([0, 1], dtype=np.uint8)
    assert comp_decode(A, y) == {1}


def test_comp_superset_of_truth_100_seeds():
    for seed in range(100):
        A = bernoulli_matrix(30, 12, 0.25, seed)
        inst = sample_instance(12, 2, seed + 1000)
        y = run_tests(A, inst)
        assert inst.sick_set <= comp_decode(A, y)


def test_brute_force_unique_support_distinct_columns():
    A = ConfigMatrix(m=3, n=6, columns=[
        np.array([0]), np.array([1]), np.array([2]),
        np.array([0, 1]), np.array([0, 2]), np.array([1, 2]),
    ])
    inst = ProblemInstance(n=6, k=1, sick_set=frozenset({3}))
    y = run_tests(A, inst)
    got = oracle(A, y, 1)
    assert got.consistent_supports == [(3,)]
    assert got.best == (3,)


def test_brute_force_identical_columns_both_listed():
    col = np.array([0, 2])
    A = ConfigMatrix(m=3, n=4, columns=[col, col.copy(), np.array([1]), np.array([], dtype=np.int64)])
    inst = ProblemInstance(n=4, k=2, sick_set=frozenset({0, 2}))
    y = run_tests(A, inst)
    got = oracle(A, y, 2)
    assert (0, 2) in got.consistent_supports
    assert (1, 2) in got.consistent_supports  # identical column swap


def test_brute_force_truth_always_consistent():
    for seed in range(50):
        A = bernoulli_matrix(25, 10, 0.3, seed)
        inst = sample_instance(10, 2, seed)
        y = run_tests(A, inst)
        got = oracle(A, y, 2)
        assert tuple(sorted(inst.sick_set)) in got.consistent_supports


def test_brute_force_enumeration_cap():
    A = bernoulli_matrix(5, 200, 0.3, 0)
    with pytest.raises(ValueError):
        oracle(A, np.zeros(5, dtype=np.uint8), 4)


def test_map_decoder_recovers_often_under_bsc():
    # regression floor: exact-likelihood argmax finds the truth >= 85% of trials
    ch = bsc(0.1)
    hits = 0
    trials = 200
    for t in range(trials):
        rng = np.random.default_rng((42, t))
        A = bernoulli_matrix(30, 12, 0.3, int(rng.integers(1 << 32)))
        inst = sample_instance(12, 2, rng)
        y = run_tests(A, inst)
        z = ch.transmit_many(y, rng)
        got = oracle(A, z, 2, channel=ch)
        if set(got.best) == inst.sick_set:
            hits += 1
    assert hits / trials >= 0.85, hits


def test_map_ties_break_lexicographically():
    # two identical columns: (0,2) and (1,2) tie; smallest support wins
    col = np.array([0, 2])
    A = ConfigMatrix(m=3, n=4, columns=[col, col.copy(), np.array([1]), np.array([], dtype=np.int64)])
    inst = ProblemInstance(n=4, k=2, sick_set=frozenset({1, 2}))
    y = run_tests(A, inst)
    got = oracle(A, y, 2, channel=bsc(0.05))
    assert got.best == (0, 2)


def test_map_handles_zero_probability_symbols():
    # FN channel: a positive observation is impossible under input 0
    from gachagt.channels import fn_channel

    ch = fn_channel(0.3)
    A = ConfigMatrix(m=2, n=3, columns=[np.array([0]), np.array([1]), np.array([0, 1])])
    z = np.array([1, 0], dtype=np.int64)  # test 0 fired: person 0 or 2 must be sick
    got = oracle(A, z, 1, channel=ch)
    assert set(got.best) in ({0}, {2})
    lls = dict((s, ll) for ll, s in got.consistent_supports)
    assert lls[(1,)] == -np.inf


CHANNELS = {
    "none": None, "bsc": bsc(0.1), "fp": fp_channel(0.2), "fn": fn_channel(0.2),
    "bec": bec(0.2),
    # q = 3, every symbol possible under both inputs
    "custom": DiscreteChannel(mu0=(0.9, 0.07, 0.03), mu1=(0.05, 0.15, 0.8)),
}


def exact(result, noisy=True):
    """An OracleResult's lists, each score as float.hex (so -0.0 and 0.0
    differ, and -inf reads '-inf')."""
    listed = result.consistent_supports
    return [(float.hex(ll), s) for ll, s in listed] if noisy else listed, result.best


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 8), m=st.integers(0, 200), data=st.data(),
       channel=st.sampled_from(sorted(CHANNELS)), seed=st.integers(0, 1 << 32))
def test_packed_oracle_matches_the_scalar_reference(n, m, data, channel, seed):
    k = data.draw(st.integers(1, min(3, n - 1)))
    ch = CHANNELS[channel]
    rng = np.random.default_rng(seed)
    design = rng.random((n, m)) < rng.random()
    A = ConfigMatrix(m=m, n=n, columns=[np.flatnonzero(row) for row in design])
    sick = frozenset(rng.choice(n, size=k, replace=False).tolist())
    y = run_tests(A, ProblemInstance(n=n, k=k, sick_set=sick))
    if ch is None:
        observations = [y, (rng.random(m) < 0.5).astype(np.uint8)]
    else:  # the sick set's results through the channel, and symbols drawn at random
        observations = [ch.transmit_many(y, rng), rng.integers(0, ch.q, size=m)]
    for z in observations:
        got, want = oracle(A, z, k, ch), brute_force_reference(A, z, k, ch)
        assert exact(got, ch is not None) == exact(want, ch is not None)


def test_packed_oracle_ranks_impossible_supports_at_minus_inf():
    # person 0 alone covers test 0, which read 1 under a false-negative
    # channel: every support without person 0 is impossible
    A = ConfigMatrix(m=70, n=4, columns=[np.array([0, 69]), np.array([69]), np.array([1]),
                                          np.array([], dtype=np.int64)])
    z = np.zeros(70, dtype=np.int64)
    z[[0, 69]] = 1
    got = oracle(A, z, 2, fn_channel(0.2))
    assert exact(got) == exact(brute_force_reference(A, z, 2, fn_channel(0.2)))
    assert [s for ll, s in got.consistent_supports if ll == -np.inf] == [
        (1, 2), (1, 3), (2, 3)]
    assert got.best == (0, 1)


def test_oracle_trial_is_linear_in_m():
    # n = 2, k = 1, m = 2^20 under bsc:0.05: scoring a support one covered
    # test at a time on an m-bit Python int (each step O(m)) did not finish
    # in 120 s on a 2-core machine, while the packed scoring decodes in about
    # 0.04 s there and the whole trial takes about 0.07 s.  30 s leaves a
    # slow or loaded machine 400 times that, and is still far below any
    # loop quadratic in m.
    config = sim_cli.parse_config("scheme=oracle\nn=2\nk=1\ntrials=1\nmaster_seed=1\n"
                                  f"channel=bsc:0.05\nm={1 << 20}\n")
    start = time.perf_counter()
    row = sim_cli.run_trial(config, 0)
    assert time.perf_counter() - start < 30.0
    assert row[4] == 1 << 20


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 8), m=st.integers(0, 120), data=st.data(),
       channel=st.sampled_from(sorted(CHANNELS)), seed=st.integers(0, 1 << 32))
def test_running_best_matches_the_scalar_reference(n, m, data, channel, seed):
    # blocks from one support up to all of them, so the best is carried
    # across blocks, ties included (identical rows, or m = 0)
    k = data.draw(st.integers(1, min(3, n - 1)))
    ch = CHANNELS[channel]
    rng = np.random.default_rng(seed)
    design = rng.random((n, m)) < rng.random()
    design[1] = design[0] if rng.random() < 0.3 else design[1]
    A = ConfigMatrix(m=m, n=n, columns=[np.flatnonzero(row) for row in design])
    sick = frozenset(rng.choice(n, size=k, replace=False).tolist())
    y = run_tests(A, ProblemInstance(n=n, k=k, sick_set=sick))
    if ch is None:
        observations = [y, (rng.random(m) < 0.5).astype(np.uint8)]
    else:
        observations = [ch.transmit_many(y, rng), rng.integers(0, ch.q, size=m)]
    cells = data.draw(st.integers(1, 64)) * (m + 1) * k
    with mock.patch.object(baselines, "SCORE_CELLS", cells):
        for z in observations:
            got = brute_force_best(pack_groups(A.dense()), A.m, z, k, ch)
            assert got == brute_force_reference(A, z, k, ch).best


def test_oracle_trial_memory_is_one_block():
    # n = 1414, k = 2 under bsc:0.05 with m = 40: C(n, k) = 998,991 supports,
    # which the enumeration cap admits.  Ranking all of them to read the
    # first peaked at 341 MB under tracemalloc; the running best keeps one
    # block of SCORE_CELLS float64 terms, about 4 MB in all
    config = sim_cli.parse_config("scheme=oracle\nn=1414\nk=2\ntrials=1\nmaster_seed=1\n"
                                  "channel=bsc:0.05\nm=40\n")
    tracemalloc.start()
    try:
        row = sim_cli.run_trial(config, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row[2:5] == (1414, 2, 40)
    assert peak < 32 << 20, peak
