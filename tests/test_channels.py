"""Channels: exact transition vectors, sampling frequencies, symmetrization."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gachagt.channels import (
    DiscreteChannel,
    NoiseModel,
    ZeroCapacityError,
    apply_plan_many,
    bec,
    bsc,
    fn_channel,
    fp_channel,
    parse_channel_spec,
    plan_symmetrize,
    _error_rates,
)
from gachagt.scheme import SchemeHandle
from scaffolding import (custom_channel_spec, noise_model, sparse_flips_reference,
                         transmit_many_reference)


def test_bsc_zero_is_identity():
    ch = bsc(0.0)
    assert ch.mu0 == (1.0, 0.0)
    assert ch.mu1 == (0.0, 1.0)


def test_fp_channel_exact_vectors():
    ch = fp_channel(0.2)
    assert ch.mu0 == (0.8, 0.2)
    assert ch.mu1 == (0.0, 1.0)


def test_bec_exact_vectors():
    ch = bec(0.2)
    assert ch.mu0 == (0.8, 0.2, 0.0)
    assert ch.mu1 == (0.0, 0.2, 0.8)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        bsc(0.6)
    with pytest.raises(ValueError):
        fp_channel(1.0)
    with pytest.raises(ValueError):
        parse_channel_spec("bogus:0.1")
    with pytest.raises(ValueError):
        DiscreteChannel((0.5, 0.6), (0.2, 0.8))  # does not sum to 1
    with pytest.raises(ZeroCapacityError):
        DiscreteChannel((0.5, 0.5), (0.5, 0.5))


def test_rows_are_probability_vectors():
    for ch in (bsc(0.3), bec(0.4), fp_channel(0.2), fn_channel(0.25)):
        for mu in (ch.mu0, ch.mu1):
            assert abs(sum(mu) - 1.0) < 1e-12
            assert all(p >= 0 for p in mu)


def test_transmit_deterministic_cases():
    rng = np.random.default_rng(0)
    assert bsc(0.0).transmit_many(np.ones(20, dtype=np.uint8), rng).tolist() == [1] * 20
    assert fn_channel(0.25).transmit_many(np.zeros(20, dtype=np.uint8), rng).tolist() == [0] * 20


def test_transmit_frequency_bsc():
    ch = bsc(0.3)
    rng = np.random.default_rng(7)
    out = ch.transmit_many(np.zeros(10 ** 6, dtype=np.uint8), rng)
    assert abs(out.mean() - 0.30) < 0.005


def test_transmit_many_matches_scalar_distribution():
    ch = bec(0.4)
    rng = np.random.default_rng(3)
    out = ch.transmit_many(np.ones(200000, dtype=np.uint8), rng)
    counts = np.bincount(out, minlength=3) / len(out)
    assert abs(counts[1] - 0.4) < 0.01
    assert abs(counts[2] - 0.6) < 0.01
    assert counts[0] == 0


@st.composite
def channels(draw):
    """A q-ary channel, 2 <= q <= 6, with zero-mass symbols allowed; each
    distribution is normalised and may be scaled down by up to 5e-13, so its
    float sum can end below 1.0."""
    q = draw(st.integers(2, 6))

    def mu():
        weights = draw(st.lists(st.integers(0, 9), min_size=q, max_size=q)
                       .filter(lambda w: sum(w) > 0))
        scale = 1 - draw(st.sampled_from([0.0, 1e-16, 2e-13, 5e-13]))
        return tuple(w / sum(weights) * scale for w in weights)

    mu0, mu1 = mu(), mu()
    assume(any(abs(a - b) > 1e-9 for a, b in zip(mu0, mu1)))  # positive capacity
    return DiscreteChannel(mu0, mu1)


@settings(max_examples=150, deadline=None)
@given(ch=channels(), bits=st.lists(st.integers(0, 1), max_size=300),
       seed=st.integers(0, 2 ** 32))
def test_transmit_many_matches_masked_searchsorted(ch, bits, seed):
    bits = np.array(bits, dtype=np.uint8)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = ch.transmit_many(bits, rng)
    want = transmit_many_reference(ch, bits, ref_rng)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class FixedDraws:
    """A stand-in generator whose random(n) returns the next n given draws."""

    def __init__(self, u):
        self.u = list(u)

    def random(self, n):
        out, self.u = np.array(self.u[:n], dtype=np.float64), self.u[n:]
        return out


@settings(max_examples=150, deadline=None)
@given(ch=channels(), data=st.data())
def test_transmit_many_matches_masked_searchsorted_at_cdf_edges(ch, data):
    # draws exactly at a cdf entry, one ulp either side, and past a cdf that
    # ends below 1.0: the edges the count and the clip must agree on
    edges = [float(c) for c in np.cumsum((ch.mu0, ch.mu1), axis=1).ravel() if c < 1.0]
    edges += [np.nextafter(c, 0.0) for c in edges] + [np.nextafter(c, 1.0) for c in edges]
    edges += [0.0, np.nextafter(1.0, 0.0)]
    u = data.draw(st.lists(st.sampled_from([e for e in edges if 0.0 <= e < 1.0]),
                           min_size=1, max_size=40))
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(u), max_size=len(u))),
                    dtype=np.uint8)
    got = ch.transmit_many(bits, FixedDraws(u))
    assert np.array_equal(got, transmit_many_reference(ch, bits, FixedDraws(u)))


@pytest.mark.parametrize("bits", [[0, 1, 2], [1, -1], [255], [0, 0.5], [True, 3]])
def test_transmit_many_rejects_bits_outside_0_1(bits):
    ch = bec(0.2)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="0 or 1"):
        ch.transmit_many(np.array(bits), rng)
    assert rng.bit_generator.state == state  # rejected before any draw


def test_transmit_many_accepts_any_0_1_dtype():
    ch = bec(0.2)
    want = ch.transmit_many(np.array([0, 1, 1, 0], dtype=np.uint8), np.random.default_rng(4))
    for bits in ([0, 1, 1, 0], [False, True, True, False], [0.0, 1.0, 1.0, 0.0]):
        assert np.array_equal(ch.transmit_many(np.array(bits), np.random.default_rng(4)), want)


def test_symmetrize_fp_exact_crossover():
    plan = plan_symmetrize(fp_channel(0.2))
    assert abs(plan.crossover - 1 / 6) < 1e-9
    p10, p01 = _error_rates(fp_channel(0.2), plan.order, plan.t)
    assert abs(p10 - p01) < 1e-9


def test_symmetrize_bsc_fixed_point():
    for s in (0.05, 0.2, 0.4):
        plan = plan_symmetrize(bsc(s))
        assert abs(plan.crossover - s) < 1e-9


def test_symmetrize_bec_half_mass():
    plan = plan_symmetrize(bec(0.4))
    assert abs(plan.crossover - 0.2) < 1e-9


def test_symmetrize_fn_self_consistent():
    ch = fn_channel(0.3)
    plan = plan_symmetrize(ch)
    p10, p01 = _error_rates(ch, plan.order, plan.t)
    assert abs(p10 - p01) < 1e-9
    assert abs(plan.crossover - 3 / 13) < 1e-6  # solves 1 - t = 0.3 t


def test_likelihood_order_non_decreasing():
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = int(rng.integers(2, 7))
        mu0 = rng.random(q) + 1e-3
        mu1 = rng.random(q) + 1e-3
        mu0, mu1 = tuple(mu0 / mu0.sum()), tuple(mu1 / mu1.sum())
        try:
            ch = DiscreteChannel(mu0, mu1)
        except ZeroCapacityError:
            continue
        plan = plan_symmetrize(ch)
        ratios = [ch.mu1[s] / ch.mu0[s] for s in plan.order]
        assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))
        p10, p01 = _error_rates(ch, plan.order, plan.t)
        assert abs(p10 - p01) < 1e-9
        assert plan.crossover < 0.5


def test_apply_symmetrized_empirical_fp():
    ch = fp_channel(0.2)
    plan = plan_symmetrize(ch)
    rng = np.random.default_rng(11)
    n = 10 ** 6
    z0 = ch.transmit_many(np.zeros(n, dtype=np.uint8), rng)
    z1 = ch.transmit_many(np.ones(n, dtype=np.uint8), rng)
    b0 = apply_plan_many(plan, z0, rng)
    b1 = apply_plan_many(plan, z1, rng)
    assert abs(b0.mean() - 1 / 6) < 0.005          # P(1 | 0)
    assert abs((1 - b1.mean()) - 1 / 6) < 0.005    # P(0 | 1)


def apply_plan_reference(plan, symbols, rng):
    """apply_plan_many one symbol at a time: a symbol at 1-based position i
    in likelihood order reads 1 when its uniform draw u has u <= i - t."""
    u = rng.random(len(symbols))
    return np.array([1 if x <= plan.order.index(s) + 1 - plan.t else 0
                     for x, s in zip(u.tolist(), symbols.tolist())], dtype=np.uint8)


def test_apply_symmetrized_scalar_agrees():
    ch = bec(0.4)
    plan = plan_symmetrize(ch)
    z = transmit_many_reference(ch, np.zeros(20000, dtype=np.uint8), np.random.default_rng(13))
    flips = apply_plan_many(plan, z, np.random.default_rng(14))
    assert np.array_equal(flips, apply_plan_reference(plan, z, np.random.default_rng(14)))
    assert abs(flips.mean() - 0.2) < 0.02


def test_symmetrized_bsc_preserves_distribution():
    # over an already-symmetric channel the plan reproduces the crossover
    ch = bsc(0.15)
    plan = plan_symmetrize(ch)
    rng = np.random.default_rng(17)
    z = ch.transmit_many(np.zeros(200000, dtype=np.uint8), rng)
    b = apply_plan_many(plan, z, rng)
    assert abs(b.mean() - 0.15) < 0.005


def test_parse_channel_spec():
    assert parse_channel_spec("none") is None
    assert parse_channel_spec("bsc:0.1").mu0 == (0.9, 0.1)
    assert parse_channel_spec("fp:0.2").mu1 == (0.0, 1.0)
    with pytest.raises(ValueError):
        parse_channel_spec("bsc:0.6")
    with pytest.raises(ValueError):
        parse_channel_spec("what:0.1")


def test_parse_kind_is_case_insensitive_but_path_is_not(tmp_path):
    assert parse_channel_spec("BSC:0.1") == parse_channel_spec("bsc:0.1")
    path = tmp_path / "Mixed" / "Ch.CSV"
    path.parent.mkdir()
    path.write_text("symbol,mu0,mu1\n0,0.9,0.1\n1,0.1,0.9\n")
    assert parse_channel_spec(f" Custom:{path} ").mu0 == (0.9, 0.1)
    assert parse_channel_spec(f"CUSTOM:{path}").mu0 == (0.9, 0.1)
    lower = path.parent / "ch.csv"  # the path itself keeps its case
    with pytest.raises(OSError):
        parse_channel_spec(f"custom:{lower}")
    assert NoiseModel.parse(f"Custom:{path}").plan == plan_symmetrize(parse_channel_spec(
        f"custom:{path}"))


def test_parse_custom_csv(tmp_path):
    path = tmp_path / "ch.csv"
    path.write_text("symbol,mu0,mu1\n0,0.9,0.1\n1,0.1,0.9\n")
    ch = parse_channel_spec(f"custom:{path}")
    assert ch.mu0 == (0.9, 0.1)
    assert ch.mu1 == (0.1, 0.9)
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        parse_channel_spec(f"custom:{bad}")


def test_noise_model_resolution(tmp_path):
    assert NoiseModel.parse("none") == NoiseModel()
    assert NoiseModel.parse("none", raw=True) == NoiseModel(raw=True)
    # a bsc needs no plan: the decoder assumes s
    assert NoiseModel.parse("BSC:0.05") == NoiseModel(bsc(0.05), crossover=0.05)
    fp = NoiseModel.parse("fp:0.2")
    assert fp.plan == plan_symmetrize(fp_channel(0.2))
    assert fp.crossover == pytest.approx(1 / 6)
    # every other kind is planned, and nothing is under raw
    for spec in ("bsc:0.05", "bec:0.2", "fp:0.2", "fn:0.1", custom_channel_spec(tmp_path)):
        channel = parse_channel_spec(spec)
        model = NoiseModel.parse(spec)
        assert model.channel == channel
        assert (model.plan is None) == spec.startswith("bsc")
        if model.plan is not None:
            assert model.plan == plan_symmetrize(channel)
            assert model.crossover == model.plan.crossover
            # the composite channel's flips, exactly as the plan's error rates
            assert model.flips == _error_rates(channel, model.plan.order, model.plan.t)
        else:  # and each bit of a bsc flips with s
            assert model.flips == (channel.mu0[1], channel.mu0[1])
        assert NoiseModel.parse(spec, raw=True) == NoiseModel(channel, raw=True)


def plain_layout(m: int) -> SchemeHandle:
    """A scheme in the plain-bit layout, whose to_bits hands back its input."""
    return SchemeHandle(n=m, k_design=1, m=m, observe=None, decode_rows=None)


def test_noise_model_receive_dtypes():
    y = np.array([0, 1] * 50, dtype=np.uint8)
    layout = plain_layout(len(y))
    assert NoiseModel().receive(y, layout, np.random.default_rng(0)) is y
    cases = [("bsc:0.1", False, np.uint8), ("bec:0.2", False, np.uint8),
             ("bec:0.2", True, np.int64)]
    for spec, raw, dtype in cases:
        model = NoiseModel.parse(spec, raw=raw)
        got = model.receive(y, layout, np.random.default_rng(1))
        assert got.dtype == dtype and got.shape == y.shape
        # raw: the channel's symbols; else the composite flips, drawn sparsely
        rng = np.random.default_rng(1)
        expect = (model.channel.transmit_many(y, rng) if raw
                  else sparse_flips_reference(model.flips, y, rng))
        assert np.array_equal(got, expect)
    assert np.array_equal(y, [0, 1] * 50)  # the words handed in are not flipped


@pytest.mark.parametrize("spec", ["bsc:0.05", "fp:0.2", "fn:0.2", "bec:0.2", "custom",
                                  "unplanned-fp:0.3"])
def test_receive_flips_each_input_bit_at_its_rate(spec, tmp_path):
    # Bound, fixed before the run: the flips among n sent zeros are
    # Binomial(n, p10) and among n sent ones Binomial(n, p01), so each count
    # lies within 5 standard deviations sqrt(n p (1 - p)) of n p (a chance of
    # about 6e-7 per count to fail a correct draw).  At p = 1/6 and
    # n = 10^5 that is 16,667 +- 589, which rejects a draw that leaves the
    # reliable side of a Z-channel unflipped.  The dense reference, the
    # channel's symbols then the plan's threshold, meets the same bound.  A
    # binary channel without a plan keeps its own rates, here (0.3, 0), so
    # only its flips of a 0 survive the thinning.
    model = noise_model(spec, tmp_path)
    n = 10 ** 5
    sent = np.repeat(np.array([0, 1], dtype=np.uint8), n)
    sparse = model.receive(sent, plain_layout(2 * n), np.random.default_rng(2029))
    rng = np.random.default_rng(2030)
    dense = model.channel.transmit_many(sent, rng)
    if model.plan is not None:
        dense = apply_plan_many(model.plan, dense, rng)
    for got in (sparse, dense):
        flipped = (got != sent).reshape(2, n).sum(axis=1)
        for count, p in zip(flipped.tolist(), model.flips):
            assert abs(count - n * p) <= 5 * np.sqrt(n * p * (1 - p)), (spec, count, p)
