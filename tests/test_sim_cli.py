"""Config parsing, CSV emission, determinism, CLI entry points."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def test_parse_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config(MINIMAL + "wat=1\n")


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
    # the key from the defaults
    scheme = {"outer_w": "gacha+gadgets", "m": "comp"}.get(key, "gacha")
    text = f"scheme={scheme}\nn=4096\nk=2\ntrials=1\nmaster_seed=1\n{key}=-3\n"
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


def test_run_parallel_workers_match_serial(tmp_path):
    cfg = parse_config(MINIMAL.replace("n=65536", "n=4096").replace("k=8", "k=2"))
    run(cfg, out_dir=tmp_path / "serial", threads=1)
    run(cfg, out_dir=tmp_path / "pool", threads=2)
    ts = TRIAL_HEADER.index("decode_ns")
    a = [r[:ts] + r[ts + 1:] for r in read_rows(tmp_path / "serial" / "trials.csv")]
    b = [r[:ts] + r[ts + 1:] for r in read_rows(tmp_path / "pool" / "trials.csv")]
    assert a == b


@pytest.mark.parametrize("symmetrize", ["auto", "off"])
def test_channel_kind_is_case_insensitive(symmetrize):
    # BSC:0.05 is the same channel as bsc:0.05: no symmetrizer under auto, no
    # "asymmetric" rejection under off, and identical rows apart from timing
    text = (MINIMAL.replace("n=65536", "n=4096").replace("k=8", "k=2")
            + f"symmetrize={symmetrize}\n")
    lower = parse_config(text.replace("channel=none", "channel=bsc:0.05"))
    upper = parse_config(text.replace("channel=none", "channel=BSC:0.05"))
    assert upper.noise.crossover == lower.noise.crossover == 0.05
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
    with pytest.raises(ValueError, match="only apply"):
        parse_config("scheme=comp\nn=50\nk=2\nchannel=none\ntrials=1\nmaster_seed=1\nrho=3\n")
    with pytest.raises(ValueError, match="noiseless-only"):
        parse_config(MINIMAL.replace("channel=none", "channel=bsc:0.1") + "inner=cw\n")
    with pytest.raises(ValueError, match="noiseless results"):
        parse_config("scheme=comp\nn=50\nk=2\nchannel=bsc:0.1\ntrials=1\nmaster_seed=1\n")


def test_oracle_reads_raw_symbols_without_symmetrizer(tmp_path):
    # the oracle ranks supports by the channel's own likelihoods, so a
    # non-binary channel needs no plan even under symmetrize=off
    text = ("scheme=oracle\nn=12\nk=2\nchannel=bec:0.2\nsymmetrize=off\n"
            "trials=5\nmaster_seed=3\nm=30\n")
    cfg = parse_config(text)
    assert cfg.noise.plan is None and cfg.noise.raw
    report = run(cfg, out_dir=tmp_path)
    assert report.trials == 5


def test_oracle_check_builds_the_configured_scheme():
    text = "scheme=comp\nn=64\nk=2\nchannel=none\ntrials=3\nmaster_seed=1\nm=40\n"
    assert oracle_check(parse_config(text)) == (3, 3, 3, 0, 0)
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


def test_run_parallel_workers_match_serial_noisy(tmp_path):
    text = MINIMAL.replace("n=65536", "n=4096").replace("k=8", "k=2")
    cfg = parse_config(text.replace("channel=none", "channel=fp:0.05"))
    assert cfg.noise.plan is not None
    run(cfg, out_dir=tmp_path / "serial", threads=1)
    run(cfg, out_dir=tmp_path / "pool", threads=2)
    ts = TRIAL_HEADER.index("decode_ns")
    a = [r[:ts] + r[ts + 1:] for r in read_rows(tmp_path / "serial" / "trials.csv")]
    b = [r[:ts] + r[ts + 1:] for r in read_rows(tmp_path / "pool" / "trials.csv")]
    assert len(a) == 1 + cfg.trials and a == b


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
