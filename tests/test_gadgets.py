"""Composition gadgets: vote logic, partitioning, expander reassembly and its
tie rule, pyramid."""

from dataclasses import replace
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gachagt.gadgets as gadgets
from gachagt.channels import bsc
from gachagt.core_model import sample_instance, score
from gachagt.gacha_core import default_params, gacha_scheme
from gachagt.gadgets import (
    expander_build,
    parallel_build,
    pyramid_build,
    pyramid_shape,
    serial_build,
)
from gachagt.sim_cli import parse_config
from scaffolding import (
    choice_set_reference,
    fault_injected,
    identity_scheme,
    index_to_poly,
    majority_vote_reference,
    poly_eval_reference,
    row_sets,
)


PYRAMID = dict(n=500, k=4, rho=3, R=8, outer_w=0, tau_depth=2, sigma=3, pi=2)
REJECTED = {
    "rho above R": (dict(rho=5, R=4), "need 1 < rho < R"),
    "rho 1": (dict(rho=1, R=4), "need 1 < rho < R"),
    "tau_depth 1": (dict(tau_depth=1), "need tau_depth >= 2"),
    "sigma 0": (dict(sigma=0), "need sigma >= 1"),
}


def pyramid_config(**keys) -> str:
    return "scheme=gacha+gadgets\ntrials=1\nmaster_seed=1\n" + "".join(
        f"{key}={value}\n" for key, value in keys.items())


def test_pyramid_shape_validation():
    # outer_w 4 holds R + 1 = 9 points; the capacity is 2 * 2^(4 * 2) = 512
    assert pyramid_shape(**PYRAMID) == (4, 1 << 8, 3, 8)
    assert parse_config(pyramid_config(**PYRAMID)).sigma == 3
    for bad, message in REJECTED.values():
        with pytest.raises(ValueError, match=message):
            pyramid_shape(**{**PYRAMID, **bad})
        with pytest.raises(ValueError, match=message):
            parse_config(pyramid_config(**{**PYRAMID, **bad}))


def serial_vote(sigma: int, reports) -> list:
    """The vote of serial_build over the 8-person identity scheme, where copy
    c of row t reports the persons reports[t][c]: copy c of person j is the
    one test of its column in copy c."""
    h = serial_build(identity_scheme(8), sigma, seed=3)
    bits = np.zeros(len(reports) * h.m, dtype=np.uint8)
    for t, copies in enumerate(reports):
        for c, found in enumerate(copies):
            for j in found:
                bits[t * h.m + h.column(j)[c]] = 1
    return row_sets(h.decode_rows(bits, len(reports)), len(reports))


def test_majority_vote_exact_multiplicity():
    sets = [{1, 2}, {2, 3}, {2, 4}, {1, 2}]
    assert serial_vote(4, [sets]) == [{1, 2}]  # threshold 2
    assert serial_vote(8, [sets + [set()] * 4]) == [{2}]  # threshold 4
    assert serial_vote(1, [[s] for s in sets]) == sets  # threshold 1, four rows
    assert serial_vote(2, [sets[:2], sets[2:]]) == [{1, 2, 3}, {1, 2, 4}]
    assert serial_vote(3, [[set()] * 3]) == [set()]
    rng = np.random.default_rng(9)
    for sigma in (2, 3, 5, 6):
        reports = [[set(np.flatnonzero(rng.random(8) < 0.4).tolist()) for _ in range(sigma)]
                   for _ in range(3)]
        assert serial_vote(sigma, reports) == [
            majority_vote_reference(copies, (sigma + 1) // 2) for copies in reports]


def test_identity_scheme_round_trip():
    h = identity_scheme(16)
    inst = sample_instance(16, 3, 0)
    assert h.decode(h.observed_words(inst.sick_set)) == inst.sick_set


# ---------------------------------------------------------------------------
# parallel
# ---------------------------------------------------------------------------

def test_parallel_pi1_single_copy():
    inner = identity_scheme(16)
    h = parallel_build(inner, 1, seed=3)
    assert (h.n, h.m) == (16, 16)
    assert h.k_design == inner.k_design // 2
    inst = sample_instance(16, 4, 1)
    assert h.decode(h.observed_words(inst.sick_set)) == inst.sick_set


def test_parallel_assignment_deterministic():
    inner = identity_scheme(8)
    a = parallel_build(inner, 4, seed=9)
    b = parallel_build(inner, 4, seed=9)
    for j in range(32):
        assert np.array_equal(a.column(j), b.column(j))


def test_parallel_copies_partition_population():
    inner = identity_scheme(8)
    h = parallel_build(inner, 4, seed=5)
    copy_of = {}
    for j in range(32):
        tests = h.column(j)
        copies = {int(t) // inner.m for t in tests}
        assert len(copies) == 1
        copy_of[j] = copies.pop()
    sizes = np.bincount(list(copy_of.values()), minlength=4)
    assert sizes.tolist() == [8, 8, 8, 8]
    # distinct slots within a copy: decode of everyone-sick returns everyone
    bits = np.ones(h.m, dtype=np.uint8)
    assert h.decode(bits) == set(range(32))


def test_parallel_overload_matches_binomial_tail():
    # pi=8 copies, inner capacity 8, load K=32: P(copy draws > 8 sick)
    inner = replace(identity_scheme(256), k_design=8)
    h = parallel_build(inner, 8, seed=7)
    assert h.k_design == 32
    overloaded = copies = 0
    for t in range(1000):
        rng = np.random.default_rng((101, t))
        sick = rng.choice(h.n, size=32, replace=False)
        counts = np.zeros(8, dtype=int)
        for j in sick:
            counts[int(h.column(int(j))[0]) // inner.m] += 1
        overloaded += int((counts > 8).sum())
        copies += 8
    tail = sum(comb(32, i) * (1 / 8) ** i * (7 / 8) ** (32 - i) for i in range(9, 33))
    assert abs(overloaded / copies - tail) < 0.02


# ---------------------------------------------------------------------------
# serial
# ---------------------------------------------------------------------------

def test_serial_sigma1_identity():
    inner = identity_scheme(16)
    h = serial_build(inner, 1, seed=2)
    inst = sample_instance(16, 3, 5)
    assert h.decode(h.observed_words(inst.sick_set)) == inst.sick_set
    assert h.m == inner.m


def test_serial_threshold_endpoints():
    inner = identity_scheme(16)
    h = serial_build(inner, 3, seed=2)
    inst = sample_instance(16, 4, 8)
    # all copies perfect: every sick index appears sigma times, kept
    assert h.decode(h.observed_words(inst.sick_set)) == inst.sick_set
    # nobody tested positive: absent everywhere
    assert h.decode(np.zeros(h.m, dtype=np.uint8)) == set()


def test_serial_vote_suppresses_faults():
    # eps=0.2, sigma=4: observed post-vote per-person failure stays under the
    # loose 3 (4 eps)^(sigma/2) / 2 budget (exact binomial predicts ~0.027)
    eps, sigma, k, trials = 0.2, 4, 4, 1000
    inner = fault_injected(identity_scheme(32), eps, seed=5)
    h = serial_build(inner, sigma, seed=6)
    bad = 0
    for t in range(trials):
        rng = np.random.default_rng((300, t))
        inst = sample_instance(32, k, rng)
        got = h.decode(h.observed_words(inst.sick_set))
        s = score(inst, got)
        bad += s.false_positives + s.false_negatives
    rate = bad / (trials * k)
    assert rate <= 3 * (4 * eps) ** (sigma / 2) / 2, rate


# ---------------------------------------------------------------------------
# expander
# ---------------------------------------------------------------------------

def test_expander_design_load_formula():
    inner = replace(identity_scheme(1 << 16), k_design=8)
    h = expander_build(inner, rho=4, R=32, outer_w=8, seed=1)
    assert h.k_design == 32 * 8 // (2 * 4)
    assert h.n == 1 << 16
    assert h.m == 32 * inner.m


def test_expander_preconditions():
    inner = identity_scheme(256)
    with pytest.raises(ValueError):
        expander_build(inner, rho=5, R=4, outer_w=4)
    with pytest.raises(ValueError):
        expander_build(inner, rho=3, R=20, outer_w=4)  # R+1 > 2^4
    with pytest.raises(ValueError):
        expander_build(inner, rho=3, R=12, outer_w=5)  # 2^10 > 256


def test_expander_person_joins_rho_copies_and_load():
    inner = replace(identity_scheme(1 << 16), k_design=4)
    rho, R = 4, 16
    h = expander_build(inner, rho=rho, R=R, outer_w=8, seed=3)
    K = h.k_design
    loads = np.zeros(R)
    trials = 200
    for t in range(trials):
        rng = np.random.default_rng((404, t))
        sick = rng.choice(h.n, size=K, replace=False)
        for j in sick:
            copies = {int(x) // inner.m for x in h.column(int(j))}
            assert len(copies) == rho
            for c in copies:
                loads[c] += 1
    mean_load = loads.sum() / (R * trials)
    expect = K * rho / R  # = k/2
    assert abs(mean_load - expect) / expect < 0.05


def test_expander_observe_draws_copies_without_per_person_generators(monkeypatch):
    # 32 persons' copies come from one array draw, equal to each person's
    # own scalar keyed draw under (seed, 13), at seeds of 1 and 2 words
    inner = identity_scheme(1 << 16)
    R, rho = 32, 4
    js = np.random.default_rng(8).choice(1 << 16, size=32, replace=False)
    for seed in (5, (1 << 40) + 3, (1 << 82) + 11):
        h = expander_build(inner, rho=rho, R=R, outer_w=8, seed=seed)
        want = [set(choice_set_reference((seed, 13), int(j), R, rho)) for j in js]
        calls = []
        real = np.random.default_rng

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        bits = h.observe(js, np.arange(32), 32).reshape(32, R, inner.m)
        monkeypatch.undo()
        assert calls == []
        for row, copies in zip(bits, want):
            assert set(np.flatnonzero(row.any(axis=1))) == copies


def reported_backwards(inner):
    """inner with each copy's indices reported in reverse arrival order."""
    def decode_rows(bits, nrows):
        row, index = inner.decode_rows(bits, nrows)
        order = np.lexsort((-np.arange(len(row)), row))
        return row[order], index[order]

    return replace(inner, decode_rows=decode_rows, decode=None)


@pytest.mark.parametrize("backwards", [False, True])
def test_expander_regroups_the_pair_that_arrives_first(backwards, monkeypatch):
    # one copy reports two pairs under one birthday, the person's own and a
    # decoy; the identity inner lists them by value, or the reverse, and the
    # one it lists first is the fragment the expander regroups
    inner = identity_scheme(256)
    h = expander_build(reported_backwards(inner) if backwards else inner,
                       rho=3, R=12, outer_w=4, seed=4)
    calls = []
    real = gadgets.recover_rows

    def recorded(fld, d, fragments, n):
        calls.append(fragments)
        return real(fld, d, fragments, n)

    monkeypatch.setattr(gadgets, "recover_rows", recorded)
    for j in (0, 77, 200):
        copy, v = divmod(int(h.column(j)[0]), inner.m)
        hi, lo = v >> 4, v & 15
        for decoy in (lo ^ 1, lo ^ 8):
            bits = h.observed_bits({j})
            bits[copy * inner.m + (hi << 4 | decoy)] = 1
            h.decode_rows(bits, 1)
            row, slot, his, los = calls[-1]
            first = max(lo, decoy) if backwards else min(lo, decoy)
            assert los[(slot == copy) & (his == hi)].tolist() == [first]
            assert len(slot) == 3  # one fragment per copy the person joins


def test_expander_single_sick_exact():
    inner = replace(identity_scheme(1 << 16), k_design=4)
    h = expander_build(inner, rho=3, R=12, outer_w=8, seed=4)
    for j in (0, 17, 4095, h.n - 1):
        assert h.decode(h.observed_words({j})) == {j}


def test_expander_matches_oracle_on_tiny_composite():
    # identity inner on 2^8; expander output never fabricates, and equals the
    # truth whenever the sick birthdays are distinct in the outer field
    from gachagt.gf2e import field

    inner = replace(identity_scheme(256), k_design=2)
    h = expander_build(inner, rho=3, R=12, outer_w=4, seed=9)
    fld = field(4)
    K = h.k_design  # 12*2/6 = 4
    equal = collided = 0
    for t in range(200):
        rng = np.random.default_rng((505, t))
        inst = sample_instance(h.n, K, rng)
        got = h.decode(h.observed_words(inst.sick_set))
        assert got <= inst.sick_set  # verification never emits an outsider here
        birthdays = [poly_eval_reference(fld, index_to_poly(fld, j, 2), 0) for j in inst.sick_set]
        if len(set(birthdays)) == K:
            assert got == inst.sick_set
            equal += 1
        else:
            collided += 1
    assert equal >= 120  # most trials have distinct birthdays
    assert equal + collided == 200


# ---------------------------------------------------------------------------
# pyramid
# ---------------------------------------------------------------------------

def test_pyramid_structure_and_layer_count():
    base = identity_scheme(1 << 16)
    h = pyramid_build(base, tau_depth=3, rho=3, R=8, outer_w=8, sigma=3, pi=2, seed=1)
    kinds = [name.split("(")[0] for name in h.layers]
    assert kinds == ["identity", "expander", "expander", "serial", "parallel"]
    h2 = pyramid_build(base, tau_depth=2, rho=3, R=8, outer_w=8, sigma=1, pi=1, seed=1)
    kinds2 = [name.split("(")[0] for name in h2.layers]
    assert kinds2 == ["identity", "expander"]


def test_pyramid_reports_failing_layer():
    base = identity_scheme(256)
    with pytest.raises(ValueError, match="expander layer 0"):
        pyramid_build(base, tau_depth=2, rho=5, R=4, outer_w=4, seed=0)


LEAST = {"rho": 2, "tau_depth": 2, "sigma": 1, "pi": 1}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(1, 8), rho=st.integers(2, 6), R=st.integers(3, 20),
       outer_w=st.integers(0, 5), tau_depth=st.integers(2, 3), sigma=st.integers(1, 3),
       pi=st.integers(1, 2), below=st.lists(st.sampled_from(sorted(LEAST)), max_size=2))
def test_pyramid_shape_raises_exactly_where_the_build_fails(data, k, rho, R, outer_w,
                                                             tau_depth, sigma, pi, below):
    # rho <= 6 and outer_w <= 5 keep every permuted population below 2^16;
    # each key named in `below` is set one under its least legal value
    least = {key: LEAST[key] - 1 for key in below}
    rho, tau_depth = least.get("rho", rho), least.get("tau_depth", tau_depth)
    sigma, pi = least.get("sigma", sigma), least.get("pi", pi)
    w = outer_w or next(w for w in range(2, 33) if R < 1 << w)  # the narrowest field
    base_k = max(1, 2 * k * rho // R)
    try:
        base = gacha_scheme(default_params(1 << (2 * w), base_k))
        handle = pyramid_build(base, tau_depth, rho, R, w, sigma, pi)
    except ValueError:
        handle = None
    # any population, or one next to the capacity the build reached
    near = [] if handle is None else [c for c in (handle.n - 1, handle.n, handle.n + 1) if c > k]
    n = data.draw(st.integers(k + 1, 1 << 17) | st.sampled_from(near or [k + 1]))
    try:
        shape = pyramid_shape(n, k, rho, R, outer_w, tau_depth, sigma, pi)
    except ValueError:
        shape = None
    assert (shape is not None) == (handle is not None and handle.n >= n)
    if shape is not None:
        assert shape == (w, 1 << (2 * w), base_k, (handle.n // pi).bit_length() - 1)


def test_pyramid_default_schedule_runs():
    base = identity_scheme(1 << 16)
    # rho = log2 n, R = 4 rho and outer_w = (log2 n) / 2 over 2^16 persons
    h = pyramid_build(base, tau_depth=2, rho=16, R=64, outer_w=8, seed=2)
    assert h.n >= 1 << 16
    j = 12345
    assert h.decode(h.observed_words({j})) == {j}


def test_pyramid_depth_trend_under_bsc():
    # matched (N, K): deeper stacking is no worse than shallow + 3 sigma
    def noisy_base(k_cap, matrix_seed):
        return gacha_scheme(default_params(
            1 << 16, k_cap, channel_crossover=0.05, matrix_seed=matrix_seed,
            w=8, d=2, r=18, B=24 * 2 * k_cap, code_seed=7))

    ch = bsc(0.05)
    trials = 120
    means = {}
    sigmas = {}
    for depth in (2, 3):
        errs = []
        for t in range(trials):
            rng = np.random.default_rng((606, depth, t))
            mseed = int(rng.integers(1 << 48))
            gseed = int(rng.integers(1 << 48))
            if depth == 2:
                h = expander_build(noisy_base(2, mseed), rho=4, R=16, outer_w=8,
                                   seed=gseed)
            else:
                inner = expander_build(noisy_base(2, mseed), rho=4, R=8, outer_w=8,
                                       seed=gseed)
                h = expander_build(inner, rho=4, R=16, outer_w=8, seed=gseed + 1)
            assert (h.n, h.k_design) == (1 << 16, 4)
            inst = sample_instance(h.n, h.k_design, rng)
            y = h.observed_bits(inst.sick_set)
            z = ch.transmit_many(y, rng).astype(np.uint8)
            s = score(inst, h.decode(h.from_bits(z, 1)))
            errs.append(s.false_positives + s.false_negatives)
        errs = np.array(errs, dtype=float)
        means[depth] = errs.mean()
        sigmas[depth] = errs.std() / np.sqrt(trials)
    band = 3 * (sigmas[2] + sigmas[3])
    assert means[3] <= means[2] + band, (means, band)


def test_fault_injection_wrapper_rates():
    inner = identity_scheme(64)
    h = fault_injected(inner, 0.25, seed=1)
    dropped = injected = total = 0
    for t in range(400):
        rng = np.random.default_rng((707, t))
        inst = sample_instance(64, 4, rng)
        got = h.decode(h.observed_words(inst.sick_set))
        dropped += len(inst.sick_set - got)
        injected += len(got - inst.sick_set)
        total += 4
    assert abs(dropped / total - 0.25) < 0.04
    assert 0 < injected / 400 < 0.3  # one uniform index added w.p. eps
