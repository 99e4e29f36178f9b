"""Each handle's observation layout against the dense bits it stands for.

For every kind of handle (the Gacha base with one and two blocks and with
the linear inner code, the expander, vote and parallel gadgets, a tau 3
pyramid, COMP and the oracle): to_bits of a stacked observe is the OR of the
reference columns, copy by copy; from_bits inverts to_bits; the decode of
from_bits of any bit vector matches the scalar reference decode; and wrong
lengths, shapes and dtypes raise ValueError.  A channel-free trial never
converts its observation to bits and back, and a channel's receive draws
exactly what transmitting the bits draws: the raw symbols for the oracle,
and otherwise what the scalar sparse draw of the BSC the channel and its
symmetrizer make draws from the same rng.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gachagt.gacha_core as gacha_core
from gachagt import sim_cli
from gachagt.channels import NoiseModel
from gachagt.gacha_core import build_column, gacha_scheme
from gachagt.gadgets import _PARALLEL_TAG, _SERIAL_TAG
from gachagt.scheme import decode_copies
from scaffolding import (
    bernoulli_columns_reference,
    brute_force_reference,
    build_matrix,
    comp_decode_reference,
    expander_decode_reference,
    majority_vote_reference,
    noise_model,
    row_sets,
    scalar_gacha_decode,
    sparse_flips_reference,
)
from test_observe import Ref, cw, expander_ref, lin, parallel_ref, serial_ref


# Each handle comes with its reference columns (built one person at a time
# from the definitions, as in test_observe), its scalar reference decode of
# one copy's bits, and the (shape, dtype) of its observation of nrows copies.

def gacha(p):
    return (gacha_scheme(p), partial(build_column, p), scalar_gacha_decode(p),
            lambda nrows: ((nrows * p.B, p.inner.blocks), np.uint64))


def expander(inner, rho, R, outer_w, seed):
    h, column, decode, layout = inner
    out, ref = expander_ref((h, Ref(h.n, h.m, column)), rho, R, outer_w, seed)
    return (out, ref.column,
            lambda bits: expander_decode_reference(decode, h.m, R, outer_w, rho, bits),
            lambda nrows: layout(nrows * R))


def serial(inner, sigma, seed):
    h, column, decode, layout = inner
    rng = np.random.default_rng((seed, _SERIAL_TAG))
    invs = [np.argsort(rng.permutation(h.n)) for _ in range(sigma)]

    def reference(bits):
        copies = [{int(invs[c][i]) for i in decode(bits[c * h.m:(c + 1) * h.m])}
                  for c in range(sigma)]
        return majority_vote_reference(copies, (sigma + 1) // 2)

    out, ref = serial_ref((h, Ref(h.n, h.m, column)), sigma, seed)
    return out, ref.column, reference, lambda nrows: layout(nrows * sigma)


def parallel(inner, pi, seed):
    h, column, decode, layout = inner
    inv = np.argsort(np.random.default_rng((seed, _PARALLEL_TAG)).permutation(pi * h.n))

    def reference(bits):
        return {int(inv[c * h.n + i]) for c in range(pi)
                for i in decode(bits[c * h.m:(c + 1) * h.m])}

    out, ref = parallel_ref((h, Ref(h.n, h.m, column)), pi, seed)
    return out, ref.column, reference, lambda nrows: layout(nrows * pi)


def bernoulli(scheme, n, k, m, matrix_seed=9):
    config = sim_cli.parse_config(f"scheme={scheme}\nn={n}\nk={k}\nm={m}\ntrials=1\n"
                                  "master_seed=1\n")
    h = sim_cli.build_scheme(config, matrix_seed, 0)
    columns = bernoulli_columns_reference(n, k, m, matrix_seed)
    matrix = build_matrix(h)
    if scheme == "comp":
        return (h, columns.__getitem__, partial(comp_decode_reference, matrix),
                lambda nrows: ((nrows, -(-m // 64)), np.uint64))
    return (h, columns.__getitem__, lambda bits: set(brute_force_reference(matrix, bits, k).best),
            lambda nrows: ((nrows * m,), np.uint8))


HANDLES = {
    "cw-1-block": lambda: gacha(cw(1 << 12)),
    "cw-2-blocks": lambda: gacha(cw(1 << 16, w=16, d=2, r=18, B=40, ell=28, weight=14)),
    "linear": lambda: gacha(lin(1 << 16, w=16, d=2, r=18, B=40)),
    "expander": lambda: expander(gacha(cw(1 << 16, B=24)), 3, 8, 8, seed=5),
    "serial": lambda: serial(gacha(cw(1 << 12)), 3, seed=7),
    "parallel": lambda: parallel(gacha(lin(256, w=8)), 2, seed=8),
    "tau3": lambda: expander(expander(gacha(cw(1 << 16, B=24)), 3, 8, 8, seed=1), 3, 8, 8,
                             seed=2),
    "comp": lambda: bernoulli("comp", 300, 3, 65),
    "oracle": lambda: bernoulli("oracle", 12, 2, 14),
}
_BUILT = {}


def handle(name):
    if name not in _BUILT:
        _BUILT[name] = HANDLES[name]()
    return _BUILT[name]


def reference_bits(column, m, js, rows, nrows):
    y = np.zeros(nrows * m, dtype=np.uint8)
    for j, row in zip(js, rows):
        y[np.asarray(column(j), dtype=np.int64) + row * m] = 1
    return y


@pytest.mark.parametrize("name", HANDLES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_to_bits_of_observe_is_the_or_of_columns(name, data):
    h, column, _, layout = handle(name)
    nrows = data.draw(st.integers(1, 3))
    js = data.draw(st.lists(st.integers(0, h.n - 1), max_size=5))
    rows = data.draw(st.lists(st.integers(0, nrows - 1), min_size=len(js), max_size=len(js)))
    words = h.observe(np.array(js, dtype=np.int64), np.array(rows, dtype=np.int64), nrows)
    shape, dtype = layout(nrows)
    assert words.shape == shape and words.dtype == dtype
    bits = h.to_bits(words)
    assert bits.dtype == np.uint8 and bits.shape == (nrows * h.m,)
    assert np.array_equal(bits, reference_bits(column, h.m, js, rows, nrows))
    back = h.from_bits(bits, nrows)
    assert back.dtype == words.dtype and np.array_equal(back, words)
    # copies stack along axis 0 in every layout
    copies = [h.from_bits(bits[r * h.m:(r + 1) * h.m], 1) for r in range(nrows)]
    assert np.array_equal(np.concatenate(copies), words)


@pytest.mark.parametrize("name", HANDLES)
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), density=st.sampled_from([0.02, 0.2, 0.5, 0.9]))
def test_decode_of_from_bits_matches_scalar_reference(name, seed, density):
    h, _, reference, _ = handle(name)
    rng = np.random.default_rng(seed)
    bits = [(rng.random(h.m) < density).astype(np.uint8)]
    sick = rng.choice(h.n, size=min(3, h.n - 1), replace=False)
    bits.append(h.observed_bits(set(sick.tolist())))
    want = [set(reference(b)) for b in bits]
    assert [h.decode(h.from_bits(b, 1)) for b in bits] == want
    stacked = h.from_bits(np.concatenate(bits), 2)
    assert row_sets(h.decode_rows(stacked, 2), 2) == want


@pytest.mark.parametrize("name", HANDLES)
def test_wrong_lengths_and_shapes_raise(name):
    h, _, _, _ = handle(name)
    for length, nrows in ((h.m + 1, 1), (h.m - 1, 1), (0, 1), (2 * h.m - 1, 2)):
        with pytest.raises(ValueError, match="observed length"):
            h.from_bits(np.zeros(length, dtype=np.uint8), nrows)
    words = h.from_bits(np.zeros(2 * h.m, dtype=np.uint8), 2)
    for bad, nrows in ((words, 1), (words, 3), (words[:-1], 2)):
        with pytest.raises(ValueError):
            h.decode_rows(bad, nrows)
    if name != "oracle":  # a packed layout: another dtype or a list is not its words
        for bad in (words.astype(np.int64), words.tolist()):
            with pytest.raises(ValueError, match="observed words"):
                h.decode_rows(bad, 2)


def test_decode_copies_hands_raw_symbols_unchanged():
    # the oracle reads a custom channel's raw symbols, which can pass 255
    seen = []
    z = np.array([299, 256, 1, 0, 2, 299])
    row, index = decode_copies(lambda copy: seen.append(copy) or [len(seen)], 3, z, 2)
    assert [copy.tolist() for copy in seen] == [[299, 256, 1], [0, 2, 299]]
    assert row.tolist() == [0, 1] and index.tolist() == [1, 2]


def trial_config(text):
    return sim_cli.parse_config(text + "trials=2\nmaster_seed=3\n")


CHANNEL_FREE = {
    "gacha": "scheme=gacha\nn=4096\nk=4\nB=40\n",
    "gadgets": ("scheme=gacha+gadgets\nn=65536\nk=4\nrho=3\nR=8\ntau_depth=3\nsigma=3\npi=2\n"
                "outer_w=8\nB=24\n"),
}


@pytest.mark.parametrize("name", CHANNEL_FREE)
def test_channel_free_trial_never_converts_to_bits(name, monkeypatch):
    calls = []

    def spy(real):
        def wrapper(*args):
            calls.append(real.__name__)
            return real(*args)
        return wrapper

    for attr in ("blocks_to_bits", "bits_to_blocks"):
        monkeypatch.setattr(gacha_core, attr, spy(getattr(gacha_core, attr)))
    quiet = trial_config(CHANNEL_FREE[name])
    for t in range(2):
        sim_cli.run_trial(quiet, t)
    assert calls == []
    # the spies are live: a channel unpacks and packs once a trial
    sim_cli.run_trial(trial_config(CHANNEL_FREE[name] + "channel=bsc:0.05\n"), 0)
    assert calls == ["blocks_to_bits", "bits_to_blocks"]


@pytest.mark.parametrize("spec", ["bsc:0.05", "fp:0.1", "bec:0.1"])
@pytest.mark.parametrize("name", ["linear", "expander", "comp", "oracle"])
def test_receive_draws_what_transmitting_the_bits_draws(name, spec):
    h, _, _, _ = handle(name)
    model = NoiseModel.parse(spec, raw=name == "oracle")
    words = h.observed_words({0, h.n - 1})
    got = model.receive(words, h, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    if name == "oracle":
        z = model.channel.transmit_many(h.to_bits(words), rng)
    else:
        z = sparse_flips_reference(model.crossover, h.to_bits(words), rng)
    assert got.dtype == words.dtype or name == "oracle"
    assert np.array_equal(h.to_bits(got), z)
    assert NoiseModel().receive(words, h, np.random.default_rng(4)) is words


@pytest.fixture(scope="module")
def channel_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("channels")


# every channel kind and a flip-free bsc
@pytest.mark.parametrize("spec", ["bsc:0.05", "bsc:0", "fp:0.1", "fn:0.2", "bec:0.1", "custom"])
@pytest.mark.parametrize("name", ["linear", "expander", "comp"])
@settings(max_examples=5, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 64 - 1))
def test_receive_matches_the_scalar_sparse_draw(name, spec, channel_dir, data, seed):
    h, _, _, layout = handle(name)
    model = noise_model(spec, channel_dir)
    js = data.draw(st.sets(st.integers(0, h.n - 1), min_size=1, max_size=4))
    words = h.observed_words(js)
    got = model.receive(words, h, np.random.default_rng(seed))
    assert (got.shape, got.dtype) == layout(1)
    want = sparse_flips_reference(model.crossover, h.to_bits(words),
                                  np.random.default_rng(seed))
    assert np.array_equal(h.to_bits(got), want)
    assert np.array_equal(h.to_bits(words), h.observed_bits(js))  # words left as they were
