"""Config parsing, CSV emission, determinism, CLI entry points."""

import csv
import itertools
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gachagt
import gachagt.sim_cli as sim_cli
from gachagt.channels import parse_channel_spec
from gachagt.sim_cli import (
    AGG_HEADER,
    TRIAL_HEADER,
    SimConfig,
    build_scheme,
    derive_seed,
    main,
    oracle_check,
    parse_config,
    run,
    run_fingerprint,
    run_trial,
)

MINIMAL = """
# minimal config
scheme=gacha
n=65536
k=8
channel=none
trials=4
master_seed=1
"""


def test_parse_minimal_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert (cfg.scheme, cfg.n, cfg.k, cfg.trials, cfg.master_seed) == ("gacha", 65536, 8, 4, 1)
    from gachagt.sim_cli import gacha_params_for

    p = gacha_params_for(cfg, matrix_seed=0)
    assert (p.d, p.w, p.r, p.B) == (1, 16, 9, 192)


def test_parse_rejects_unknown_key(tmp_path, capsys):
    with pytest.raises(ValueError, match="unknown key"):
        parse_config(MINIMAL + "wat=1\n")
    # the channel picks the inner layer: no key restates it
    for inner in ("auto", "cw", "linear"):
        with pytest.raises(ValueError, match="unknown key 'inner'"):
            parse_config(MINIMAL + f"inner={inner}\n")
    # nor whether the symmetrizer runs: every channel kind but bsc has it
    for symmetrize in ("auto", "on", "off"):
        with pytest.raises(ValueError, match="unknown key 'symmetrize'"):
            parse_config(MINIMAL + f"symmetrize={symmetrize}\n")
    cfg_path = tmp_path / "sim.cfg"
    cfg_path.write_text(MINIMAL.replace("channel=none", "channel=fp:0.05") + "symmetrize=on\n")
    out = tmp_path / "o"
    assert main(["simulate", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'symmetrize'" in err
    assert not out.exists()


def test_comment_starts_only_at_a_hash_after_whitespace(tmp_path):
    # a custom channel path may hold a #: cut there, it would name another file
    (tmp_path / "a").write_text("symbol,mu0,mu1\n0,0.9,0.1\n1,0.1,0.9\n")
    (tmp_path / "a#2.csv").write_text("symbol,mu0,mu1\n0,0.9,0.05\n1,0.07,0.15\n2,0.03,0.8\n")
    spec = f"custom:{tmp_path / 'a#2.csv'}"
    text = MINIMAL.replace("channel=none", f"channel={spec}  # a comment")
    channel = parse_config(text).noise.channel
    assert channel == parse_channel_spec(spec) and channel.q == 3
    with pytest.raises(ValueError, match="integer"):
        parse_config(MINIMAL.replace("trials=4", "trials=4#x"))


def test_noiseless_bsc_runs_the_linear_layer():
    # bsc:0 flips no bit: the linear layer with a weight test at p = 0
    from gachagt.gacha_core import NoiselessInner, NoisyInner
    from gachagt.sim_cli import gacha_params_for

    assert isinstance(gacha_params_for(parse_config(MINIMAL), 0).inner, NoiselessInner)
    inner = gacha_params_for(parse_config(MINIMAL.replace("=none", "=bsc:0")), 0).inner
    assert isinstance(inner, NoisyInner) and inner.classifier.p == 0


def test_parse_rejects_bad_channel():
    with pytest.raises(ValueError, match="crossover"):
        parse_config(MINIMAL.replace("channel=none", "channel=bsc:0.6"))


def test_parse_rejects_bad_expander():
    bad = MINIMAL.replace("scheme=gacha", "scheme=gacha+gadgets") + "rho=5\nR=4\nouter_w=8\n"
    with pytest.raises(ValueError, match="1 < rho < R"):
        parse_config(bad)


@pytest.mark.parametrize("key", ["w", "d", "r", "B", "ell", "weight", "lin_dim", "code_seed",
                                 "outer_w", "m"])
def test_parse_rejects_negative_sizing_keys(key):
    # caught at parse time, not at the first trial deep in a build; 0 fills
    # the key from the defaults (n = 1000 fits the default gadget stack's
    # composed capacity of 2^10)
    scheme = {"outer_w": "gacha+gadgets", "m": "comp"}.get(key, "gacha")
    text = f"scheme={scheme}\nn=1000\nk=2\ntrials=1\nmaster_seed=1\n{key}=-3\n"
    with pytest.raises(ValueError, match=rf"^{key} must be >= 0, got -3$"):
        parse_config(text)
    assert getattr(parse_config(text.replace("=-3", "=0")), key) == 0


def test_parse_rejects_duplicate_and_malformed():
    with pytest.raises(ValueError, match="duplicate"):
        parse_config(MINIMAL + "n=2\n")
    with pytest.raises(ValueError, match="key=value"):
        parse_config(MINIMAL + "just words\n")
    with pytest.raises(ValueError, match="integer"):
        parse_config(MINIMAL.replace("n=65536", "n=big"))


def test_parse_requires_keys():
    with pytest.raises(ValueError, match="missing required"):
        parse_config("scheme=gacha\nn=16\nk=2\n")


def test_seed_fold_distinct():
    seeds = {derive_seed(1, t) for t in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(1, 0) != derive_seed(2, 0)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_run_zero_trials(tmp_path):
    cfg = parse_config(MINIMAL.replace("trials=4", "trials=0"))
    report = run(cfg, out_dir=tmp_path)
    rows = read_rows(tmp_path / "trials.csv")
    assert rows == [TRIAL_HEADER]
    assert report.trials == 0
    assert report.mean_fp == 0.0 and report.ci95_fn == 0.0
    agg = [r for r in read_rows(tmp_path / "aggregate.csv") if not r[0].startswith("#")]
    assert agg[0] == AGG_HEADER
    assert all(x == x for x in agg[1])  # no NaNs serialized


def test_run_deterministic_apart_from_timing(tmp_path):
    cfg = parse_config(MINIMAL.replace("n=65536", "n=4096").replace("k=8", "k=2"))
    run(cfg, out_dir=tmp_path / "a")
    run(cfg, out_dir=tmp_path / "b")
    ra = read_rows(tmp_path / "a" / "trials.csv")
    rb = read_rows(tmp_path / "b" / "trials.csv")
    ts = TRIAL_HEADER.index("decode_ns")
    stripped_a = [r[:ts] + r[ts + 1:] for r in ra]
    stripped_b = [r[:ts] + r[ts + 1:] for r in rb]
    assert stripped_a == stripped_b  # wall time is the only varying column


def assert_threads_agree(cfg, tmp_path):
    """Rows apart from decode_ns are identical for --threads 1 and 2."""
    run(cfg, out_dir=tmp_path / "serial", threads=1)
    run(cfg, out_dir=tmp_path / "pool", threads=2)
    ts = TRIAL_HEADER.index("decode_ns")
    a = [r[:ts] + r[ts + 1:] for r in read_rows(tmp_path / "serial" / "trials.csv")]
    b = [r[:ts] + r[ts + 1:] for r in read_rows(tmp_path / "pool" / "trials.csv")]
    assert len(a) == 1 + cfg.trials and a == b


def test_run_parallel_workers_match_serial(tmp_path):
    assert_threads_agree(
        parse_config(MINIMAL.replace("n=65536", "n=4096").replace("k=8", "k=2")), tmp_path)


def test_run_parallel_workers_match_serial_gadgets(tmp_path):
    # a vote layer under a parallel layer: the gadget seeds and permutations
    # are drawn per trial, in whichever worker runs it
    cfg = parse_config("scheme=gacha+gadgets\nn=100000\nk=8\nchannel=bsc:0.01\ntrials=4\n"
                       "master_seed=5\nrho=4\nR=8\nsigma=3\npi=2\nouter_w=8\nB=24\n")
    assert_threads_agree(cfg, tmp_path)


@pytest.mark.parametrize("text", [
    MINIMAL.replace("n=65536", "n=4096").replace("k=8", "k=2"),
    "scheme=oracle\nn=12\nk=2\nchannel=none\ntrials=5\nmaster_seed=3\nm=30\n",
], ids=["auto", "off"])
def test_channel_kind_is_case_insensitive(text):
    # BSC:0.05 is the same channel as bsc:0.05, both where the channel kind
    # picks the plan (auto: gacha, which a bsc needs no symmetrizer for) and
    # where none is made (off: the oracle's raw symbols); identical rows
    # apart from timing
    lower = parse_config(text.replace("channel=none", "channel=bsc:0.05"))
    upper = parse_config(text.replace("channel=none", "channel=BSC:0.05"))
    assert upper.noise == lower.noise and lower.noise.plan is None
    assert lower.noise.raw == (lower.scheme == "oracle")
    assert lower.noise.crossover == (None if lower.noise.raw else 0.05)
    ts = TRIAL_HEADER.index("decode_ns")
    for t in range(3):
        a, b = run_trial(lower, t), run_trial(upper, t)
        assert a[:ts] + a[ts + 1:] == b[:ts] + b[ts + 1:]


def test_trial_rows_schema():
    cfg = parse_config(MINIMAL.replace("n=65536", "n=4096").replace("k=8", "k=2"))
    row = run_trial(cfg, 0)
    assert len(row) == len(TRIAL_HEADER)
    assert row[0] == 0 and row[2] == 4096 and row[3] == 2
    assert row[4] > 0 and row[7] > 0


def test_comp_scheme_runs(tmp_path):
    text = "scheme=comp\nn=50\nk=2\nchannel=none\ntrials=5\nmaster_seed=3\nm=40\n"
    cfg = parse_config(text)
    report = run(cfg, out_dir=tmp_path)
    assert report.trials == 5
    assert report.mean_fn == 0.0  # COMP never misses a sick person


@pytest.mark.parametrize("scheme,channel", [("comp", "none"), ("oracle", "bsc:0.1")])
def test_bernoulli_column_rejects_out_of_range_index(scheme, channel):
    # a list lookup would wrap -1 around to column n - 1
    text = f"scheme={scheme}\nn=12\nk=2\nchannel={channel}\ntrials=1\nmaster_seed=3\nm=30\n"
    h = build_scheme(parse_config(text), 1, 2)
    for j in (-1, 12):
        with pytest.raises(ValueError, match="out of range"):
            h.column(j)
        with pytest.raises(ValueError, match="out of range"):
            h.observed_bits({j})
    assert h.column(11).tolist() == h.build().columns[11].tolist()
    y = np.zeros(h.m, dtype=np.uint8)
    for j in (0, 11):
        y[h.column(j)] = 1
    assert np.array_equal(h.observed_bits({0, 11}), y)
    assert np.array_equal(h.observed_bits(set()), np.zeros(h.m, dtype=np.uint8))


def test_oracle_scheme_runs(tmp_path):
    text = "scheme=oracle\nn=12\nk=2\nchannel=bsc:0.1\ntrials=5\nmaster_seed=3\nm=30\n"
    cfg = parse_config(text)
    report = run(cfg, out_dir=tmp_path)
    assert report.trials == 5


def test_gadget_scheme_runs(tmp_path):
    text = (
        "scheme=gacha+gadgets\nn=65536\nk=4\nchannel=none\ntrials=3\nmaster_seed=5\n"
        "rho=4\nR=16\ntau_depth=2\nouter_w=8\n"
    )
    cfg = parse_config(text)
    report = run(cfg, out_dir=tmp_path)
    assert report.trials == 3
    assert report.m > 0


def test_oracle_check_passes_on_tiny_noiseless():
    text = "scheme=gacha\nn=64\nk=2\nchannel=none\ntrials=25\nmaster_seed=11\n"
    trials, unique, full, mismatches, comp_bad = oracle_check(parse_config(text))
    assert trials == 25
    assert unique > 0 and full > 0
    assert mismatches == 0
    assert comp_bad == 0


def test_cli_simulate_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "sim.cfg"
    cfg_path.write_text(MINIMAL.replace("n=65536", "n=4096").replace("k=8", "k=2"))
    assert main(["simulate", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "trials.csv").exists()
    bad = tmp_path / "bad.cfg"
    bad.write_text("scheme=gacha\n")
    assert main(["simulate", str(bad)]) == 2


def test_cli_oracle_check(tmp_path):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text("scheme=gacha\nn=64\nk=2\nchannel=none\ntrials=10\nmaster_seed=2\n")
    assert main(["oracle-check", str(cfg_path)]) == 0


def test_env_thread_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("GACHA_THREADS", "2")
    cfg_path = tmp_path / "sim.cfg"
    cfg_path.write_text(MINIMAL.replace("n=65536", "n=4096").replace("k=8", "k=2").replace("trials=4", "trials=2"))
    assert main(["simulate", str(cfg_path), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("argv,env", [([], "abc"), (["--threads", "-3"], None),
                                      (["--threads", "0"], "2"), ([], "0")])
def test_cli_bad_thread_counts_are_config_errors(tmp_path, monkeypatch, capsys, argv, env):
    if env is None:
        monkeypatch.delenv("GACHA_THREADS", raising=False)
    else:
        monkeypatch.setenv("GACHA_THREADS", env)
    cfg_path = tmp_path / "sim.cfg"
    cfg_path.write_text(MINIMAL)
    out = tmp_path / "o"
    assert main(["simulate", str(cfg_path), "--out", str(out), *argv]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()  # no trial ran


def test_validate_inapplicable_keys():
    base = "n=50\nk=2\nchannel=none\ntrials=1\nmaster_seed=1\n"
    for scheme, key in (("comp", "rho"), ("oracle", "w"), ("gacha", "m"), ("gacha", "pi"),
                        ("gacha+gadgets", "m")):
        with pytest.raises(ValueError, match=rf"keys \['{key}'\] do not apply to scheme="):
            parse_config(f"scheme={scheme}\n{base}{key}=3\n")
    with pytest.raises(ValueError, match="noiseless results"):
        parse_config("scheme=comp\nn=50\nk=2\nchannel=bsc:0.1\ntrials=1\nmaster_seed=1\n")


def test_oracle_reads_raw_symbols_without_symmetrizer(tmp_path):
    # the oracle ranks supports by the channel's own likelihoods, so a
    # non-binary channel gets no plan
    text = "scheme=oracle\nn=12\nk=2\nchannel=bec:0.2\ntrials=5\nmaster_seed=3\nm=30\n"
    cfg = parse_config(text)
    assert cfg.noise.plan is None and cfg.noise.raw
    report = run(cfg, out_dir=tmp_path)
    assert report.trials == 5


def test_oracle_check_builds_the_configured_scheme():
    text = "scheme=comp\nn=64\nk=2\nchannel=none\ntrials=3\nmaster_seed=1\nm=40\n"
    # seeded count: COMP keeps a false positive in one of the three trials,
    # so it emits k indices in two; it never misses and never disagrees
    assert oracle_check(parse_config(text)) == (3, 3, 2, 0, 0)
    gadgets = ("scheme=gacha+gadgets\nn=64\nk=2\nchannel=none\ntrials=3\nmaster_seed=1\n"
               "rho=4\nR=16\n")
    with pytest.raises(ValueError, match="gacha\\+gadgets"):
        oracle_check(parse_config(gadgets))


def test_custom_channel_is_read_once(tmp_path):
    csv_path = tmp_path / "channel.csv"
    csv_path.write_text("symbol,mu0,mu1\n0,0.9,0.05\n1,0.07,0.15\n2,0.03,0.8\n")
    text = MINIMAL.replace("n=65536", "n=4096").replace("k=8", "k=2")
    cfg = parse_config(text.replace("channel=none", f"channel=custom:{csv_path}"))
    expect = [run_trial(cfg, t) for t in range(2)]
    csv_path.unlink()
    ts = TRIAL_HEADER.index("decode_ns")
    for t, row in enumerate(expect):
        got = run_trial(cfg, t)
        assert got[:ts] == row[:ts]


@pytest.mark.parametrize("scheme", ["scheme=gacha\nn=4096\nk=2\n", "scheme=oracle\nn=12\nk=2\n"])
@pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "1.5"])
def test_custom_channel_rejects_bad_probabilities_at_parse(tmp_path, capsys, scheme, entry):
    csv_path = tmp_path / "channel.csv"
    csv_path.write_text(f"symbol,mu0,mu1\n0,0.9,0.05\n1,{entry},0.15\n2,0.03,0.8\n")
    text = scheme + f"channel=custom:{csv_path}\ntrials=3\nmaster_seed=1\n"
    with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
        parse_config(text)
    cfg_path = tmp_path / "sim.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "o"
    assert main(["simulate", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()  # no trial ran


def test_run_parallel_workers_match_serial_noisy(tmp_path):
    text = MINIMAL.replace("n=65536", "n=4096").replace("k=8", "k=2")
    cfg = parse_config(text.replace("channel=none", "channel=fp:0.05"))
    assert cfg.noise.plan is not None
    assert_threads_agree(cfg, tmp_path)


def test_cli_oracle_check_rejects_unsupported_scheme(tmp_path, capsys):
    cfg_path = tmp_path / "gadgets.cfg"
    cfg_path.write_text("scheme=gacha+gadgets\nn=64\nk=2\nchannel=none\ntrials=2\n"
                        "master_seed=2\nrho=4\nR=16\n")
    assert main(["oracle-check", str(cfg_path)]) == 2
    assert "gacha+gadgets" in capsys.readouterr().err


def test_import_leaves_process_pool_and_argparse_unloaded():
    # both load only where used: the pool for threads > 1, argparse in main
    code = ("import sys, gachagt.sim_cli; "
            "print(sorted({'concurrent.futures.process', 'argparse'} & sys.modules.keys()))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def custom_channel_config(tmp_path, csv_text, trials=1):
    """A config file for a small gacha run through a custom channel CSV."""
    csv_path = tmp_path / "channel.csv"
    csv_path.write_text(csv_text)
    cfg_path = tmp_path / "sim.cfg"
    cfg_path.write_text(f"scheme=gacha\nn=4096\nk=2\nchannel=custom:{csv_path}\n"
                        f"trials={trials}\nmaster_seed=1\n")
    return cfg_path


def test_custom_channel_header_names_may_carry_spaces(tmp_path):
    spaced = parse_config(custom_channel_config(
        tmp_path, "symbol, mu0 , mu1\n0,0.9,0.05\n1,0.07,0.15\n2,0.03,0.8\n").read_text())
    plain = parse_config(custom_channel_config(
        tmp_path, "symbol,mu0,mu1\n0,0.9,0.05\n1,0.07,0.15\n2,0.03,0.8\n").read_text())
    assert spaced.noise == plain.noise


@pytest.mark.parametrize("rows", ["0,0.9,0.05\n1,0.07\n2,0.03,0.8\n",
                                  "0,0.9,0.05\n1,0.07,0.15,0.1\n2,0.03,0.8\n"],
                         ids=["short", "long"])
def test_custom_channel_row_of_wrong_width_is_a_config_error(tmp_path, capsys, rows):
    cfg_path = custom_channel_config(tmp_path, "symbol,mu0,mu1\n" + rows)
    assert main(["simulate", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: custom channel CSV row 3")


@pytest.mark.parametrize("symbols", [(1, 0, 2), (0, 2, 1), (1, 2, 3), (0, 0, 1)])
def test_custom_channel_symbols_out_of_order_are_a_config_error(tmp_path, capsys, symbols):
    # the rows are read as symbols 0, 1, ... in order; a symbol column that
    # says otherwise would swap two symbols' likelihoods unnoticed
    mus = ("0.9,0.05", "0.07,0.15", "0.03,0.8")
    rows = "".join(f"{s},{mu}\n" for s, mu in zip(symbols, mus))
    cfg_path = custom_channel_config(tmp_path, "symbol,mu0,mu1\n" + rows)
    assert main(["simulate", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: custom channel CSV row")
    assert not (tmp_path / "o").exists()


# custom channel CSVs a drawn config may name: one valid, the rest not
CUSTOM_CSVS = {
    "valid": "symbol,mu0,mu1\n0,0.9,0.05\n1,0.07,0.15\n2,0.03,0.8\n",
    "empty": "",
    "header-only": "symbol,mu0,mu1\n",
    "no-header": "0,0.9,0.1\n1,0.1,0.9\n",
    "short-row": "symbol,mu0,mu1\n0,0.9\n1,0.1,0.9\n",
    "swapped": "symbol,mu0,mu1\n1,0.9,0.1\n0,0.1,0.9\n",
    "nan": "symbol,mu0,mu1\n0,nan,0.1\n1,0.1,0.9\n",
    "not-a-number": "symbol,mu0,mu1\n0,x,0.1\n1,0.1,0.9\n",
    "sums-wrong": "symbol,mu0,mu1\n0,0.5,0.1\n1,0.1,0.9\n",
    "zero-capacity": "symbol,mu0,mu1\n0,0.5,0.5\n1,0.5,0.5\n",
    "one-symbol": "symbol,mu0,mu1\n0,1,1\n",
    "huge-field": "symbol,mu0,mu1\n0," + "1" * 200_000 + ",0.1\n",
}
INT_TEXT = st.one_of(
    st.integers(-5, 70).map(str),
    st.integers(-(10 ** 30), 10 ** 30).map(str),
    st.sampled_from(["", "x", "1.5", "1e3", "0x10", " 7 ", "-0", "1_000", "9" * 5000]),
)


def mostly(good, bad):
    """good nine draws in ten, else bad (not on a bound, which hypothesis
    favours)."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 5 else good)


VALUES = {
    "scheme": mostly(st.sampled_from(["gacha", "gacha+gadgets", "comp", "oracle"]),
                     st.sampled_from(["GACHA", "", "x"])),
    "n": mostly(st.integers(3, 5000).map(str), INT_TEXT),
    "k": mostly(st.integers(1, 8).map(str), INT_TEXT),
    "trials": mostly(st.integers(0, 3).map(str), INT_TEXT),
    "master_seed": mostly(st.integers(0, 2 ** 64).map(str), INT_TEXT),
    "channel": st.one_of(
        st.sampled_from(["none", "bsc:0.05", "BSC:0.1", "bsc:0.5", "bsc:-1", "bsc:nan",
                         "bsc:", "fp:0.2", "fn:1", "bec:0.1", "bec:2", "bogus", "custom:",
                         "custom:/nonexistent/channel.csv", "custom:\0"]),
        st.sampled_from(sorted(CUSTOM_CSVS)).map(lambda name: "custom:{%s}" % name)),
    "symmetrize": st.sampled_from(["auto", "on", "off"]),  # a retired key, now unknown
    "out": st.sampled_from(["out", ""]),
}
KEYS = ["scheme", "n", "k", "trials", "master_seed", "channel", "symmetrize",
        "out", "w", "d", "r", "B", "ell", "weight", "lin_dim", "code_seed", "m", "pi",
        "sigma", "rho", "R", "tau_depth", "outer_w", "wat", ""]


@st.composite
def config_texts(draw):
    """key=value text: the required keys and a channel, each missing one
    draw in twenty, and up to three more keys of any kind, unknown and
    repeated ones too, in any order; now and then a malformed line."""
    keys = [key for key in KEYS[:6] if draw(st.integers(0, 19)) != 10]
    keys += draw(st.lists(st.sampled_from(KEYS), max_size=3))
    lines = [f"{key}={draw(VALUES.get(key, INT_TEXT))}" for key in keys]
    lines += draw(mostly(st.just([]), st.lists(st.sampled_from(["just words", "=3", "# c"]),
                                               min_size=1, max_size=2)))
    return "\n".join(draw(st.permutations(lines)))


@pytest.fixture(scope="module")
def custom_csvs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("channels")
    for name, text in CUSTOM_CSVS.items():
        (folder / f"{name}.csv").write_text(text)
    return folder


@settings(max_examples=300, deadline=None)
@given(text=config_texts())
def test_parse_config_accepts_or_rejects_as_a_config_error(custom_csvs, text):
    text = text.format(**{name: custom_csvs / f"{name}.csv" for name in CUSTOM_CSVS})
    try:
        parse_config(text)
    except (OSError, ValueError):
        cfg_path = custom_csvs / "sim.cfg"
        cfg_path.write_text(text)
        out = custom_csvs / "never"
        assert main(["simulate", str(cfg_path), "--out", str(out)]) == 2
        assert not out.exists()


# sizes no trial can build: each parsed, then failed its first trial with exit 1
UNBUILDABLE = {
    "field too wide": ("scheme=gacha\nn=1000000000000000000000000000000\nk=2\n",
                       r"field width must be in \[2, 32\], got 34"),
    "pair map": ("scheme=gacha+gadgets\nn=1000\nk=2\nrho=2\nR=16\ntau_depth=3\n",
                 "expander layer 1: pair map not injective"),
    "capacity": ("scheme=gacha+gadgets\nn=2000\nk=2\nR=16\n",  # outer_w 5, 2^(5 * 2) persons
                 "population 2000 exceeds the composed capacity 1 \\* 2\\^10"),
    "capacity at outer_w 8": ("scheme=gacha+gadgets\nn=70000\nk=2\nR=16\nouter_w=8\n",
                         "exceeds the composed capacity 1 \\* 2\\^16"),
    "R past outer_w": ("scheme=gacha+gadgets\nn=64\nk=2\nR=16\nouter_w=3\n", "R \\+ 1 <= 2\\^outer_w"),
    "outer_w too wide": ("scheme=gacha+gadgets\nn=64\nk=2\nouter_w=33\n", "outer_w <= 32"),
    "huge outer_w": ("scheme=gacha+gadgets\nn=64\nk=2\nouter_w=" + "9" * 30 + "\n", "outer_w <= 32"),
    # person indices are int64: sample_instance cannot draw from 2^63 persons
    "n 2^63": ("scheme=gacha\nn=9223372036854775808\nk=2\n",
               "population 9223372036854775808 is 2\\^63 or more"),
    "pyramid n 2^64 - 1": ("scheme=gacha+gadgets\nn=18446744073709551615\nk=2\nrho=4\nR=32\n"
                           "outer_w=32\n", "population 18446744073709551615 is 2\\^63 or more"),
    # a [40, 8] inner code: 2^32 syndromes, too many for a coset table
    "inner code past its table": ("scheme=gacha\nn=4096\nk=2\nchannel=bsc:0.05\nlin_dim=8\n"
                                  "ell=40\n", "no coset-leader table"),
    # an empty out would write the CSVs into the working directory
    "empty out": ("scheme=gacha\nn=4096\nk=2\nout=\n", "out must name an output directory"),
    "empty out before a comment": ("scheme=gacha\nn=4096\nk=2\nout=  # x\n",
                                   "out must name an output directory"),
}
# sizes whose trials would do unbounded work: each parsed, then built m =
# R^(tau_depth - 1) base tests, or permuted 2^32 persons, in its first trial
OVERSIZED = {
    "tau_depth 1500": ("scheme=gacha+gadgets\nn=64\nk=2\nrho=4\nR=16\ntau_depth=1500\n",
                       "more than 2\\^26 tests"),
    "tau_depth 10^9": ("scheme=gacha+gadgets\nn=64\nk=2\nrho=4\nR=16\ntau_depth=1000000000\n",
                       "more than 2\\^26 tests"),
    "tau_depth 6 at R 32": ("scheme=gacha+gadgets\nn=64\nk=2\nrho=4\nR=32\ntau_depth=6\n",
                            "more than 2\\^26 tests"),
    "B 2^31": ("scheme=gacha\nn=4096\nk=2\nB=2147483648\nw=32\n", "more than 2\\^26 tests"),
    "comp m": ("scheme=comp\nn=100\nk=2\nm=67108865\n", "more than 2\\^26 tests"),
    # a 128 GiB draw buffer and 7.8 GiB of design words; 80 TB of design words
    "comp n * m": ("scheme=comp\nn=1000\nk=2\nm=67108864\n", "more than 2\\^27 bits"),
    "comp n 10^12": ("scheme=comp\nn=1000000000000\nk=8\n", "more than 2\\^27 bits"),
    "oracle n * m": ("scheme=oracle\nn=1000000\nk=1\nm=1000\n", "more than 2\\^27 bits"),
    "sigma over 2^32 persons": ("scheme=gacha+gadgets\nn=1000\nk=2\nrho=4\nR=16\nsigma=2\n"
                                "outer_w=16\n", "permute 2 \\* 2\\^32 persons"),
    "pi over 2^22 persons": ("scheme=gacha+gadgets\nn=1000\nk=2\nrho=4\nR=16\npi=3\n"
                             "outer_w=11\n", "permute 3 \\* 2\\^22 persons"),
}
UNBUILDABLE.update(OVERSIZED)


@pytest.mark.parametrize("case", UNBUILDABLE)
def test_sizing_no_trial_can_build_is_a_config_error(tmp_path, capsys, case):
    text, message = UNBUILDABLE[case]
    text += "trials=1\nmaster_seed=1\n"
    with pytest.raises(ValueError, match=message):
        parse_config(text)
    cfg_path = tmp_path / "sim.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "o"
    assert main(["simulate", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("case", OVERSIZED)
def test_oversized_trial_is_a_config_error_within_a_second(tmp_path, capsys, case):
    cfg_path = tmp_path / "sim.cfg"
    cfg_path.write_text(OVERSIZED[case][0] + "trials=1\nmaster_seed=1\n")
    start = time.perf_counter()
    assert main(["simulate", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("config error:")


def test_oracle_past_its_test_cap_is_rejected_at_parse():
    # n = 2, k = 1 passes the enumeration and design caps, and m = 2^26 the
    # MAX_TESTS one, but its trial would hold about 7.6 GB: parsed, never run
    base = "scheme=oracle\nn=2\nk=1\ntrials=1\nmaster_seed=1\nchannel=bec:0.2\n"
    for m in (1 << 26, (1 << 23) + 1):
        with pytest.raises(ValueError, match="an oracle trial would run more than 2\\^23 tests"):
            parse_config(base + f"m={m}\n")
    assert parse_config(base + f"m={1 << 23}\n").m == 1 << 23


def test_sizes_under_the_caps_parse():
    # a tau_depth 3 pyramid of the bench's expander shape: m = 32^2 * 21,504
    # = 2^24.4 tests; and a vote layer over 2^16 persons at sigma 3, pi 2
    text = ("scheme=gacha+gadgets\nn=4294967296\nk=32\nw=16\nd=2\nr=18\nB=384\nell=28\n"
            "weight=14\nrho=4\nR=32\ntau_depth=3\nouter_w=16\ntrials=1\nmaster_seed=1\n")
    assert parse_config(text).tau_depth == 3
    text = ("scheme=gacha+gadgets\nn=100000\nk=8\nrho=4\nR=8\nsigma=3\npi=2\nouter_w=8\n"
            "trials=1\nmaster_seed=1\n")
    assert parse_config(text).sigma == 3
    # a Bernoulli design of exactly 2^27 bits, and the bench's comp shape
    for text in ("scheme=comp\nn=2048\nk=2\nm=65536\n", "scheme=comp\nn=4096\nk=8\n"):
        assert parse_config(text + "trials=1\nmaster_seed=1\n").scheme == "comp"


def test_largest_population_runs_a_trial(tmp_path):
    # n = 2^63 - 1, the largest population validate_config accepts
    config = parse_config("scheme=gacha\nn=9223372036854775807\nk=2\ntrials=1\nmaster_seed=1\n")
    run(config, out_dir=tmp_path)
    header, row = (tmp_path / "trials.csv").read_text().splitlines()[:2]
    assert dict(zip(header.split(","), row.split(",")))["m"] == "8064"


def test_aggregate_records_every_run(tmp_path):
    # a second run appended to aggregate.csv says what reran it
    cfg = parse_config(MINIMAL.replace("n=65536", "n=4096").replace("k=8", "k=2"))
    other = parse_config(MINIMAL.replace("n=65536", "n=4096").replace("k=8", "k=3"))
    for config in (cfg, cfg, other):
        run(config, out_dir=tmp_path)
    lines = (tmp_path / "aggregate.csv").read_text().splitlines()
    runs = [i for i, line in enumerate(lines) if line.startswith("# run: ")]
    assert len(runs) == 3 and lines[runs[0] - 1] == ",".join(AGG_HEADER)
    for i in runs:
        assert not lines[i + 1].startswith("#")
    fingerprints = [dict(f.split("=", 1) for f in lines[i][len("# run: "):].split())
                    for i in runs]
    assert fingerprints[0] == fingerprints[1] == run_fingerprint_fields(cfg)
    assert fingerprints[2]["config_sha256"] != fingerprints[0]["config_sha256"]
    assert run_fingerprint(replace(cfg, out="elsewhere")) == run_fingerprint(cfg)


def run_fingerprint_fields(config):
    return {"gachagt": gachagt.__version__, "numpy": np.__version__,
            "master_seed": str(config.master_seed),
            "config_sha256": run_fingerprint(config).rsplit("=", 1)[1]}


RUN_FILES = Path(__file__).resolve().parent / "data" / "run_files"
# a pyramid, whose budget reads the base sizing; a noisy gacha run; and COMP,
# whose budget is 0, appended to one aggregate.csv
PINNED_RUNS = {
    "gadgets": ("scheme=gacha+gadgets\nn=65536\nk=8\ntrials=3\nmaster_seed=5\nchannel=none\n"
                "rho=4\nR=16\ntau_depth=2\nouter_w=8\nB=24\n"),
    "gacha-bsc": "scheme=gacha\nn=4096\nk=4\ntrials=8\nmaster_seed=5\nB=40\nchannel=bsc:0.05\n",
    "comp": "scheme=comp\nn=50\nk=2\ntrials=4\nmaster_seed=5\nm=40\nchannel=none\n",
}


def test_run_writes_the_pinned_files(tmp_path, monkeypatch):
    # trials.csv after each run and the shared aggregate.csv, byte for byte
    # as saved, with the decode clock replaced by ticks 37 i^2 so decode_ns
    # is fixed; a gachagt version bump rewrites the saved aggregate.csv
    saved = (RUN_FILES / "aggregate.csv").read_bytes()
    written = saved.decode().splitlines()[2]
    if written != f"# numpy={np.__version__}":
        pytest.skip(f"run_files were written by {written[2:]}, this is numpy={np.__version__}")
    ticks = (37 * i * i for i in itertools.count())
    monkeypatch.setattr(sim_cli, "time", SimpleNamespace(perf_counter_ns=lambda: next(ticks)))
    for name, text in PINNED_RUNS.items():
        run(parse_config(text), out_dir=tmp_path)
        assert (tmp_path / "trials.csv").read_bytes() == \
            (RUN_FILES / f"trials_{name}.csv").read_bytes(), name
    assert (tmp_path / "aggregate.csv").read_bytes() == saved


def test_composed_capacity_counts_pi():
    # pi = 2 parallel copies double the expander's 2^16 persons
    text = "scheme=gacha+gadgets\nn=70000\nk=2\nR=16\nouter_w=8\npi=2\ntrials=1\nmaster_seed=1\n"
    assert parse_config(text).pi == 2
    assert build_scheme(parse_config(text), 1, 1).n == 2 << 16


@st.composite
def small_configs(draw):
    """Config text of any scheme over a small population, with a few sizing
    and gadget keys drawn from small ranges, buildable or not; a gadget
    stack's composed population (pi 2^(outer_w ceil(rho / 2))) is at most
    2^20, since serial and parallel layers permute all of it."""
    scheme = draw(st.sampled_from(["gacha", "gacha+gadgets", "comp", "oracle"]))
    n = draw(st.integers(3, {"oracle": 64, "gacha+gadgets": 512}.get(scheme, 4096)))
    lines = [f"scheme={scheme}", f"n={n}", f"k={draw(st.integers(1, min(6, n - 1)))}",
             "trials=1", f"master_seed={draw(st.integers(0, 2 ** 32))}",
             "channel=" + draw(st.sampled_from(["none", "bsc:0.05", "fp:0.1", "bec:0.1"]))]
    optional = {"comp": {"m": 200}, "oracle": {"m": 60}}.get(
        scheme, {"w": 20, "d": 4, "r": 40, "B": 200, "ell": 40, "weight": 20, "lin_dim": 20})
    for key, top in optional.items():
        if draw(st.integers(0, 3)) == 0:
            lines.append(f"{key}={draw(st.integers(0, top))}")
    if scheme in ("gacha", "gacha+gadgets") and draw(st.integers(0, 2)) == 0:
        lines[5] = "channel=bsc:0"  # over the drawn channel: the linear layer, noiseless
    if scheme == "gacha+gadgets":
        R, outer_w, pi = (draw(st.integers(3, 40)), draw(st.sampled_from([0, 2, 4, 5, 6])),
                          draw(st.integers(1, 2)))
        width = outer_w or max(2, math.ceil(math.log2(R + 1)))
        rho = draw(st.integers(2, max(2, 2 * ((20 - pi + 1) // width))))
        lines += [f"R={R}", f"outer_w={outer_w}", f"pi={pi}", f"rho={rho}",
                  f"sigma={draw(st.integers(1, 3))}", f"tau_depth={draw(st.integers(2, 3))}"]
    return "\n".join(lines) + "\n"


@settings(max_examples=120, deadline=None)
@given(text=small_configs())
def test_small_config_that_parses_runs_a_trial(text):
    try:
        config = parse_config(text)
    except ValueError:
        return
    row = run_trial(config, 0)
    assert row[2:4] == (config.n, config.k)
