"""The stacked decode through the gadgets: the expander's regroup against
its per-copy loop, index for index in arrival order, and its tie rule; the
one base call a gadget or a whole pyramid decode makes, length checks that
name each handle's own m, and a total decoder on the bench configs that
never falls back to an exhaustive codebook search."""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gachagt.gacha_core as gacha_core
from gachagt import sim_cli
from gachagt.channels import bsc
from gachagt.gacha_core import default_params, gacha_scheme
from gachagt.gadgets import expander_build, parallel_build, pyramid_build, serial_build
from gachagt.gf2e import FieldSpec
from scaffolding import expander_decode_reference, identity_scheme, row_sets, scalar_gacha_decode

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_expander():
    """The bench's expander shape: one expander layer (rho 4, R 32, outer
    w 16) over a w = 16, d = 2, B = 384 constant-weight base; with the
    reference decode built over the scalar base decode."""
    p = default_params(1 << 32, 8, matrix_seed=11, w=16, d=2, r=18, B=384, ell=28, weight=14)
    h = expander_build(gacha_scheme(p), rho=4, R=32, outer_w=16, seed=12)

    def reference(bits):
        return expander_decode_reference(scalar_gacha_decode(p), p.m, 32, 16, 4, bits)

    return h, reference


def two_layer_pyramid():
    """Two expander layers (rho 3, R 8, outer w 8) over a d = 1 base, the
    shape of a tau_depth = 3 pyramid; with its reference decode."""
    p = default_params(1 << 16, 3, matrix_seed=5, B=24)
    mid = expander_build(gacha_scheme(p), rho=3, R=8, outer_w=8, seed=1)
    top = expander_build(mid, rho=3, R=8, outer_w=8, seed=2)

    def mid_reference(bits):
        return expander_decode_reference(scalar_gacha_decode(p), p.m, 8, 8, 3, bits)

    def reference(bits):
        return expander_decode_reference(mid_reference, mid.m, 8, 8, 3, bits)

    return top, reference


def over_identity():
    """An expander (rho 4, R 8, outer w 4) over the 256-person identity
    scheme, whose per-copy results are any set bits, in ascending order: so
    one copy often holds several pairs under one birthday, and the first one
    to arrive wins."""
    inner = identity_scheme(256)
    h = expander_build(inner, rho=4, R=8, outer_w=4, seed=3)

    def reference(bits):
        return expander_decode_reference(lambda b: inner.decode_rows(b, 1)[1].tolist(),
                                         inner.m, 8, 4, 4, bits)

    return h, reference


SHAPES = {"bench-expander": bench_expander, "tau3": two_layer_pyramid,
          "over-identity": over_identity}


def expander_input(h, rng, kind):
    """Observed bits: the OR of a design-sized or overloaded sick set, the
    same through BSC(0.01), or uniform garbage at a random density."""
    if kind == "garbage":
        return (rng.random(h.m) < rng.uniform(0.05, 0.6)).astype(np.uint8)
    k = min(int(rng.choice([h.k_design, 2 * h.k_design])), h.n // 8)
    y = h.observed_bits(set(rng.choice(h.n, size=k, replace=False).tolist()))
    return y if kind == "sick" else bsc(0.01).transmit_many(y, rng).astype(np.uint8)


@pytest.mark.parametrize("kind", ["sick", "bsc", "garbage"])
@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_expander_decode_matches_copy_loop(shape, kind, seed):
    h, reference = SHAPES[shape]()
    bits = expander_input(h, np.random.default_rng(seed), kind)
    assert h.decode_rows(h.from_bits(bits, 1), 1)[1].tolist() == reference(bits)


@pytest.mark.parametrize("shape", SHAPES)
def test_expander_decode_never_reaches_the_scalar_path(shape, monkeypatch):
    h, reference = SHAPES[shape]()
    rng = np.random.default_rng(13)
    inputs = [expander_input(h, rng, kind) for kind in ("sick", "bsc", "garbage")]
    want = [reference(bits) for bits in inputs]

    def scalar(*args):
        raise AssertionError("the stacked decode reached a scalar oracle")

    monkeypatch.setattr(gacha_core, "recover_from_groups", scalar)
    monkeypatch.setattr(FieldSpec, "interpolate", scalar)
    monkeypatch.setattr(FieldSpec, "poly_eval", scalar)
    assert [h.decode_rows(h.from_bits(bits, 1), 1)[1].tolist() for bits in inputs] == want


def test_expander_decodes_all_copies_in_one_inner_call(monkeypatch):
    p = default_params(1 << 16, 4, matrix_seed=3, w=8, d=2, B=48)
    calls = {"decode_rows": 0, "blocks_to_bits": 0, "bits_to_blocks": 0, "synthesize_blocks": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("blocks_to_bits", "bits_to_blocks", "synthesize_blocks"):
        monkeypatch.setattr(gacha_core, name, counted(name, getattr(gacha_core, name)))
    base = gacha_scheme(p)
    base = replace(base, decode_rows=counted("decode_rows", base.decode_rows))
    h = expander_build(base, rho=4, R=16, outer_w=8, seed=3)
    sick = {1, 500, 60000}
    assert h.decode(h.observed_words(sick)) == sick
    assert calls == {"decode_rows": 1, "blocks_to_bits": 0, "bits_to_blocks": 0,
                     "synthesize_blocks": 0}


def test_pyramid_decodes_all_copies_in_one_base_call():
    # tau_depth 3, sigma 3, pi 2: two expander layers, a vote layer and a
    # parallel layer, 8 * 8 * 3 * 2 = 384 base copies in one decode
    base = gacha_scheme(default_params(1 << 16, 4, matrix_seed=3, B=24))
    calls = []

    def counted(words, nrows):
        calls.append(nrows)
        return base.decode_rows(words, nrows)

    h = pyramid_build(replace(base, decode_rows=counted), 3, rho=3, R=8, outer_w=8,
                      sigma=3, pi=2, seed=5)
    sick = {2, 40000, 70001, 131000}
    assert h.decode(h.observed_words(sick)) == sick
    assert calls == [384]


def gadget_handles():
    base = gacha_scheme(default_params(1 << 16, 4, matrix_seed=3, B=24))
    return {
        "expander": expander_build(base, rho=4, R=8, outer_w=8, seed=1),
        "serial": serial_build(base, 3, seed=1),
        "parallel": parallel_build(base, 2, seed=1),
        "expander-expander": expander_build(expander_build(base, rho=4, R=8, outer_w=8, seed=1),
                                            rho=4, R=8, outer_w=8, seed=2),
        "serial-expander": serial_build(expander_build(base, rho=4, R=8, outer_w=8, seed=1),
                                        3, seed=2),
        "parallel-serial": parallel_build(serial_build(base, 3, seed=1), 2, seed=2),
    }


GADGETS = ["expander", "serial", "parallel", "expander-expander", "serial-expander",
           "parallel-serial"]


@pytest.mark.parametrize("name", GADGETS)
def test_gadget_decode_checks_its_own_length(name):
    h = gadget_handles()[name]
    for length in (h.m + 7, h.m - 3, 0):
        with pytest.raises(ValueError, match=rf"observed length {length} != m = {h.m}$"):
            h.from_bits(np.zeros(length, dtype=np.uint8), 1)
        with pytest.raises(ValueError, match="observed words"):
            h.decode(np.zeros(length, dtype=np.uint8))
    with pytest.raises(ValueError, match="observed words"):
        h.decode(h.from_bits(np.zeros(2 * h.m, dtype=np.uint8), 2))


@pytest.mark.parametrize("name", GADGETS)
def test_gadget_decode_rows_is_decode_per_copy(name):
    h = gadget_handles()[name]
    rng = np.random.default_rng(7)
    ys = [h.observed_words(set(rng.choice(h.n, size=3, replace=False).tolist()))
          for _ in range(2)]
    ys.append(ys[0])  # the same birthdays in two copies
    assert row_sets(h.decode_rows(np.concatenate(ys), 3), 3) == [h.decode(y) for y in ys]
    with pytest.raises(ValueError, match=rf"!= 2 copies of m = {h.m}$"):
        h.from_bits(np.zeros(2 * h.m + 1, dtype=np.uint8), 2)


def test_gacha_decode_rows_checks_length():
    p = default_params(1 << 12, 2, matrix_seed=3)
    h = gacha_scheme(p)
    with pytest.raises(ValueError, match=rf"observed length {p.m + 1} != m = {p.m}$"):
        h.from_bits(np.zeros(p.m + 1, dtype=np.uint8), 1)
    with pytest.raises(ValueError, match=rf"!= 3 copies of m = {p.m}$"):
        h.from_bits(np.zeros(3 * p.m - 1, dtype=np.uint8), 3)
    words = h.from_bits(np.zeros(3 * p.m, dtype=np.uint8), 3)
    for bad in (words, words[:-1], words.astype(np.int64), words.tolist()):
        with pytest.raises(ValueError, match="observed words"):
            h.decode_rows(bad, 2 if bad is words else 3)


@pytest.fixture(scope="module")
def workloads():
    # read-only: no bytecode cache is written under bench/
    bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = bytecode
    return workloads.WORKLOADS


@pytest.mark.parametrize("name", ["noiseless", "noisy", "expander"])
def test_decoder_is_total_on_bench_configs(workloads, name):
    config = sim_cli.parse_config(workloads[name].config + "trials=1\nmaster_seed=1\n")
    h = sim_cli.build_scheme(config, 3, 4)
    rng = np.random.default_rng(5)
    for bits in (rng.integers(0, 2, size=h.m, dtype=np.uint8),
                 np.ones(h.m, dtype=np.uint8), np.zeros(h.m, dtype=np.uint8)):
        found = h.decode(h.from_bits(bits, 1))
        assert all(isinstance(j, int) and 0 <= j < h.n for j in found)


def test_decoder_is_total_on_wide_inner_payloads():
    # two blocks of 14 payload bits read birthdays and fragments up to 2^14,
    # outside GF(2^12); such ONE fragments are dropped before grouping
    p = default_params(4096, 4, channel_crossover=0.05, matrix_seed=3, w=12, lin_dim=14)
    assert p.inner.code.dim * p.inner.blocks > 2 * p.w
    h = gacha_scheme(p)
    rng = np.random.default_rng(6)
    for _ in range(10):
        found = h.decode(h.from_bits(rng.integers(0, 2, size=h.m, dtype=np.uint8), 1))
        assert all(isinstance(j, int) and 0 <= j < h.n for j in found)
    assert h.decode_rows(h.from_bits(rng.integers(0, 2, size=4 * h.m, dtype=np.uint8), 4),
                         4) is not None
    sick = {1, 77, 900, 4000}
    assert h.decode(h.observed_words(sick)) == sick
