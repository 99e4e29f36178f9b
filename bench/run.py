"""gachagt benchmark: seeded `gacha-sim simulate` trials on one workload.

    python3 bench/run.py --workload noisy --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; it imports gachagt from ./src.  Trials run
back to back through `gachagt.sim_cli.run(config, out_dir, threads=1)` in
chunks (one closed-loop client, one worker).  Each chunk is one `run` call
with its own master_seed derived from --seed, so a seed fixes every input.

--trace 0 measures the end-to-end metrics with the program untouched.
--trace 1 runs each chunk untraced and then traced (see tracer.py) and
reports per-layer self times and counts, the tracing overhead, and checks
that tracing changed no trial row.

Either way it checks the trial rows (see workloads.py for the gates), prints
every metric with its unit, writes a self-describing record and the traced
spans to .bench_out/, and prints one JSON result as its last line.  Without
src/gachagt it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import Tracer
from workloads import WORKLOADS, Workload, config_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 6     # fresh interpreters per run; setup_s is their median
TRACE_SHARE = 0.9     # share of --seconds the traced run spends on its trials
DIGEST_TRIALS = 16    # leading trials whose rows every run digests

# The bounded metrics.  Throughput and decode latency are tail figures: on a
# shared machine whose speed drifts by up to 2x, medians move with the
# machine and the slow tail moves much less (NOTES.md has the measurements).
END_TO_END = {
    "trials_per_s_p10": "1/s",
    "decode_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (metric, unit, kind, argument).  Kinds: "self" per-trial median self time of
# a span; "calls" per-trial median call count of a span; "count" per-trial
# median of a tracer counter; "setup" and "cold" self time and duration of a
# span in the traced cold set-up; "pooled" is computed in traced_run.
PER_LAYER = (
    ("gf2e.poly_eval_ms", "ms", "self", "gf2e.poly_eval"),
    ("gf2e.poly_eval_calls", "count", "calls", "gf2e.poly_eval"),
    ("gf2e.interpolate_ms", "ms", "self", "gf2e.interpolate"),
    ("gf2e.interpolate_calls", "count", "calls", "gf2e.interpolate"),
    ("gf2e.field_build_ms", "ms", "setup", "gf2e.field_build"),
    ("inner_code.linear_code_build_ms", "ms", "setup", "inner_code.linear_code_build"),
    ("inner_code.cw_encode_ms", "ms", "self", "inner_code.cw_encode"),
    ("inner_code.cw_encode_calls", "count", "calls", "inner_code.cw_encode"),
    ("inner_code.cw_classify_ms", "ms", "self", "inner_code.cw_classify"),
    ("inner_code.cw_classify_calls", "count", "calls", "inner_code.cw_classify"),
    ("inner_code.lin_encode_ms", "ms", "self", "inner_code.lin_encode"),
    ("inner_code.decode_many_ms", "ms", "self", "inner_code.decode_many"),
    ("inner_code.decode_many_words", "count", "count", "decode_many_words"),
    ("inner_code.decode_us_per_word", "us", "pooled", None),
    ("inner_code.one_writer_ratio", "ratio", "pooled", None),
    ("channels.transmit_many_ms", "ms", "self", "channels.transmit_many"),
    ("channels.apply_plan_many_ms", "ms", "self", "channels.apply_plan_many"),
    ("channels.plan_symmetrize_ms", "ms", "self", "channels.plan_symmetrize"),
    ("channels.plan_symmetrize_calls", "count", "calls", "channels.plan_symmetrize"),
    ("gacha_core.column_symbols_ms", "ms", "self", "gacha_core.column_symbols"),
    ("gacha_core.column_symbols_calls", "count", "calls", "gacha_core.column_symbols"),
    ("gacha_core.build_column_ms", "ms", "self", "gacha_core.build_column"),
    ("scheme.observed_bits_ms", "ms", "self", "scheme.observed_bits"),
    ("gacha_core.bits_to_blocks_ms", "ms", "self", "gacha_core.bits_to_blocks"),
    ("gacha_core.synthesize_blocks_ms", "ms", "self", "gacha_core.synthesize_blocks"),
    ("gacha_core.list_decode_ms", "ms", "self", "gacha_core.list_decode"),
    ("gacha_core.birthday_groups", "count", "count", "birthday_groups"),
    ("gacha_core.emit_ratio", "ratio", "pooled", None),
    ("gadgets.expander_decode_ms", "ms", "self", "gadgets.expander_decode"),
    ("gadgets.expander_column_ms", "ms", "self", "gadgets.expander_column"),
    ("gadgets.inner_decode_calls", "count", "count", "inner_decode_calls"),
    ("sim_cli.build_scheme_ms", "ms", "self", "sim_cli.build_scheme"),
    ("sim_cli.build_scheme_cold_ms", "ms", "cold", "sim_cli.build_scheme"),
    ("sim_cli.run_trial_ms", "ms", "self", "sim_cli.run_trial"),
    ("sim_cli.run_self_ms", "ms", "pooled", None),
    ("core_model.config_matrix_ms", "ms", "self", "core_model.config_matrix"),
    ("core_model.sample_instance_us", "us", "self", "core_model.sample_instance"),
    ("core_model.score_us", "us", "self", "core_model.score"),
    ("baselines.comp_decode_ms", "ms", "self", "baselines.comp_decode"),
    ("trace.trials", "count", "pooled", None),
    ("trace.trial_ms", "ms", "pooled", None),
    ("trace.trials_per_s_untraced", "1/s", "pooled", None),
    ("trace.trials_per_s_traced", "1/s", "pooled", None),
    ("trace.overhead_pct", "%", "pooled", None),
)
_SCALE = {"ms": 1e-6, "us": 1e-3}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Chunk:
    index: int
    master_seed: int
    seconds: float
    rows: list | None    # trial rows as ints; None when the run raised
    error: str = ""


# ---------------------------------------------------------------------------
# running and checking trials
# ---------------------------------------------------------------------------

def run_chunk(sim_cli, workload: Workload, seed: int, index: int, work_dir: Path) -> Chunk:
    config = sim_cli.parse_config(config_text(workload, seed, index))
    out = work_dir / f"chunk{index}"
    t0 = time.perf_counter()
    try:
        sim_cli.run(config, str(out), threads=1)
    except Exception:  # a raising trial fails its chunk; the run goes on
        return Chunk(index, config.master_seed, time.perf_counter() - t0, None,
                     traceback.format_exc())
    seconds = time.perf_counter() - t0
    with (out / "trials.csv").open(newline="") as fh:
        rows = [[int(v) for v in row] for row in list(csv.reader(fh))[1:]]
    shutil.rmtree(out)
    return Chunk(index, config.master_seed, seconds, rows)


def measure(sim_cli, workload, seed, seconds, work_dir):
    """Chunks 0, 1, ... until `seconds` have passed (at least one chunk)."""
    chunks = []
    deadline = time.perf_counter() + seconds
    while not chunks or time.perf_counter() < deadline:
        chunks.append(run_chunk(sim_cli, workload, seed, len(chunks), work_dir))
    return chunks


def bad_rows(workload: Workload, chunk: Chunk) -> int:
    """Trials of the chunk that raised, are missing, or fail a row check."""
    if chunk.rows is None:
        return workload.chunk
    bad = max(0, workload.chunk - len(chunk.rows))
    n, k = _config_nk(workload)
    for t, row in enumerate(chunk.rows):
        trial, seed_t, rn, rk, m, fp, fn, decode_ns = row
        ok = (trial == t and seed_t == trial_seed(chunk.master_seed, t)
              and (rn, rk, m) == (n, k, workload.m)
              and fp >= 0 and 0 <= fn <= k and decode_ns > 0
              and not (workload.never_misses and fn > 0))
        bad += not ok
    return bad


def trial_seed(master_seed: int, t: int) -> int:
    """The per-trial seed the README documents for gacha-sim."""
    return (master_seed ^ ((t + 1) * 0x9E3779B97F4A7C15)) & ((1 << 63) - 1)


def _config_nk(workload: Workload):
    keys = dict(line.split("=", 1) for line in workload.config.splitlines())
    return int(keys["n"]), int(keys["k"])


def rows_digest(chunks) -> str:
    """sha256 of the trial rows without decode_ns, the only measured column."""
    h = hashlib.sha256()
    for chunk in chunks:
        for row in chunk.rows or []:
            h.update((",".join(map(str, row[:7])) + "\n").encode())
    return h.hexdigest()


def tally(workload: Workload, chunks):
    """(attempted, failed, errors_per_trial, gate problems); errors_per_trial
    is over the trials that produced a row."""
    attempted = workload.chunk * len(chunks)
    failed = sum(bad_rows(workload, c) for c in chunks)
    rows = [r for c in chunks for r in c.rows or []]
    errors = statistics.fmean(r[5] + r[6] for r in rows) if rows else float("nan")
    problems = [f"chunk {c.index} raised: {c.error}" for c in chunks if c.rows is None]
    if failed:
        problems.append(f"{failed} of {attempted} trials raised or failed a row check")
    bar = workload.max_errors_per_person
    if bar is not None and rows:
        # as AC-1 does, allow three standard errors of this run's own mean
        spread = statistics.pstdev(r[5] + r[6] for r in rows) / len(rows) ** 0.5
        limit = bar * _config_nk(workload)[1] + 3 * spread
        if not errors <= limit:
            problems.append(f"errors_per_trial {errors:.4f} > {limit:.4f} "
                            f"({bar:.5f} per sick person + 3 standard errors)")
    return attempted, failed, errors, problems


def chunk_rates(chunks, workload: Workload):
    return [workload.chunk / c.seconds for c in chunks if c.rows is not None]


def digest_chunks(chunks, workload: Workload):
    """The leading chunks that hold the first DIGEST_TRIALS trials."""
    return chunks[:-(-DIGEST_TRIALS // workload.chunk)]


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def setup_seconds(workload: Workload, seed: int, repeats: int) -> list:
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), workload.name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def end_to_end_run(sim_cli, workload, seed, seconds, work_dir):
    # probes before and after the trials, so set-up samples the machine twice
    setups = setup_seconds(workload, seed, SETUP_REPEATS // 2)
    warm = sim_cli.parse_config(config_text(workload, seed, 0))
    sim_cli.build_scheme(warm, warm.master_seed, warm.master_seed)  # fill the caches
    chunks = measure(sim_cli, workload, seed, seconds, work_dir)
    setups += setup_seconds(workload, seed, SETUP_REPEATS - SETUP_REPEATS // 2)
    attempted, failed, errors, problems = tally(workload, chunks)
    good = [c for c in chunks if c.rows is not None]
    if not good:
        raise BenchError(f"all {len(chunks)} chunks raised; the first: {chunks[0].error}")
    rates = chunk_rates(chunks, workload)
    decode_ms = np.array([r[7] for c in good for r in c.rows], dtype=float) / 1e6
    p50, p90, p95 = np.percentile(decode_ms, [50, 90, 95])
    metrics = {
        "trials_per_s_p10": float(np.percentile(rates, 10)),
        "decode_ms_p90": float(p90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "trials_per_s_p10": len(rates),
        "decode_ms_p90": len(decode_ms),
        "setup_s": len(setups),
        "peak_rss_mb": 1,
    }
    also = {
        "trials_per_s": (statistics.median(rates), "1/s", len(rates)),
        "decode_ms_p50": (float(p50), "ms", len(decode_ms)),
        "decode_ms_p95": (float(p95), "ms", len(decode_ms)),
        "errors_per_trial": (errors, "count", sum(len(c.rows or []) for c in chunks)),
        "trial_failure_rate": (failed / attempted, "ratio", attempted),
    }
    extra = {
        "decode_samples_beyond_p90": int((decode_ms > p90).sum()),
        "decode_samples_beyond_p95": int((decode_ms > p95).sum()),
        "rows_digest": rows_digest(digest_chunks(chunks, workload)),
        "rows_digest_trials": min(DIGEST_TRIALS, workload.chunk * len(chunks)),
        "setup_s_each": setups,
        "chunk_seconds": [c.seconds for c in good],
        "decode_ns": [r[7] for c in good for r in c.rows],
    }
    return attempted, failed, problems, metrics, samples, also, extra


def traced_run(package, sim_cli, workload, seed, seconds, work_dir):
    tracer = Tracer(package)
    with tracer.installed():  # cold set-up, so the cache builds show
        cold = sim_cli.parse_config(config_text(workload, seed, 0))
        sim_cli.build_scheme(cold, cold.master_seed, cold.master_seed)
    cold_spans = tracer.spans()
    setup = {span: cold_spans.outside_trials(span) for span in
             ("gf2e.field_build", "inner_code.linear_code_build", "sim_cli.build_scheme")}

    # each chunk untraced, then traced: both see the same machine state
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds * TRACE_SHARE
    while not traced or time.perf_counter() < deadline:
        index = len(traced)
        untraced.append(run_chunk(sim_cli, workload, seed, index, work_dir))
        with tracer.installed():
            tracer.trial_base = index * workload.chunk
            traced.append(run_chunk(sim_cli, workload, seed, index, work_dir))

    attempted, failed, errors, problems = tally(workload, untraced + traced)
    if rows_digest(untraced) != rows_digest(traced):
        problems.append("traced trial rows differ from untraced ones")
    spans = tracer.spans()
    problems += spans.check()
    ids, self_ns, calls = spans.per_trial()
    if len(ids) == 0:
        raise BenchError(f"no traced trial completed; the first error: {traced[0].error}")
    col = tracer.names.index

    def counter(key):
        return np.array([tracer.counts.get((t, key), 0) for t in ids])

    def ratio(num, den):
        return float(num / den) if den else 0.0

    paired = [t.seconds / u.seconds for u, t in zip(untraced, traced)
              if u.rows is not None and t.rows is not None]
    pooled = {
        "inner_code.decode_us_per_word": ratio(
            self_ns[:, col("inner_code.decode_many")].sum() / 1e3,
            counter("decode_many_words").sum()),
        "inner_code.one_writer_ratio": ratio(
            counter("one_writer_batches").sum(), counter("batches").sum()),
        "gacha_core.emit_ratio": ratio(counter("emitted").sum(), counter("groups_ready").sum()),
        "sim_cli.run_self_ms": spans.outside_trials("sim_cli.run")[0] / 1e6 / len(ids),
        "trace.trials": len(ids),
        # the self times of a trial's spans add up to its root span's duration
        "trace.trial_ms": float(np.median(self_ns.sum(axis=1))) / 1e6,
        "trace.trials_per_s_untraced": statistics.median(chunk_rates(untraced, workload)),
        "trace.trials_per_s_traced": statistics.median(chunk_rates(traced, workload)),
        "trace.overhead_pct": (statistics.median(paired) - 1) * 100,
    }
    metrics = {}
    for name, unit, kind, arg in PER_LAYER:
        if kind == "self":
            metrics[name] = float(np.median(self_ns[:, col(arg)])) * _SCALE[unit]
        elif kind == "calls":
            metrics[name] = float(np.median(calls[:, col(arg)]))
        elif kind == "count":
            metrics[name] = float(np.median(counter(arg)))
        elif kind in ("setup", "cold"):
            metrics[name] = setup[arg][kind == "cold"] * _SCALE[unit]
        else:
            metrics[name] = pooled[name]
    samples = {name: (1 if kind in ("setup", "cold") else len(ids))
               for name, _, kind, _ in PER_LAYER}
    samples["trace.overhead_pct"] = len(paired)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.npz"
    spans.save(spans_path)
    also = {
        "errors_per_trial": (errors, "count", sum(len(c.rows or []) for c in untraced + traced)),
        "trial_failure_rate": (failed / attempted, "ratio", attempted),
    }
    extra = {
        "spans": len(spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "rows_digest": rows_digest(digest_chunks(untraced, workload)),
        "rows_digest_trials": min(DIGEST_TRIALS, workload.chunk * len(untraced)),
    }
    return attempted, failed, problems, metrics, samples, also, extra


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def describe(package, workload, args) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "gachagt").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():  # a bare checkout has no sha; src_sha256 still names it
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            git_sha = done.stdout.strip() or None
        except OSError:
            pass
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": config_text(workload, args.seed, 0),
        "chunk_trials": workload.chunk,
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gachagt": package.__version__,
        "machine": platform.machine(),
    }


def report(meta, units, metrics, samples, also, extra, problems):
    print(f"gachagt bench: workload={meta['workload']} seed={meta['seed']} "
          f"trace={meta['trace']} seconds={meta['seconds']}")
    print(f"  git_sha={meta['git_sha']} src_sha256={meta['src_sha256'][:16]} "
          f"nproc={meta['nproc']} python={meta['python']} numpy={meta['numpy']}")
    print("  config: " + " ".join(meta["config"].split()))
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:14.6g} {unit:6s} (n={samples[name]})")
    for name, (value, unit, n) in also.items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} (n={n}, not bounded)")
    for name, value in extra.items():
        if not isinstance(value, list):
            print(f"  {name:34s} {value}")
    print("  checks: " + ("ok" if not problems else "FAILED"))
    for problem in problems:  # a traceback shows as its first and last lines
        lines = problem.strip().splitlines()
        print("    " + lines[0] + (f" ... {lines[-1].strip()}" if len(lines) > 1 else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "gachagt" / "__init__.py").is_file():
        print(f"bench: no gachagt package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gachagt
    import gachagt.sim_cli as sim_cli

    if Path(gachagt.__file__).resolve().parent != SRC / "gachagt":
        print(f"bench: imported gachagt from {gachagt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    meta = describe(gachagt, workload, args)
    work_dir = OUT / f"tmp-{os.getpid()}"
    try:
        if args.trace:
            result = traced_run(gachagt, sim_cli, workload, args.seed, args.seconds, work_dir)
            units = {name: unit for name, unit, _, _ in PER_LAYER}
        else:
            result = end_to_end_run(sim_cli, workload, args.seed, args.seconds, work_dir)
            units = END_TO_END
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted, failed, problems, metrics, samples, also, extra = result

    record = dict(meta, correct=not problems, attempted=attempted, failed=failed,
                  problems=problems, samples=samples, extra=extra,
                  also={n: {"value": v, "unit": u, "samples": k} for n, (v, u, k) in also.items()},
                  metrics={n: {"value": metrics[n], "unit": u} for n, u in units.items()})
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    report(meta, units, metrics, samples, also, extra, problems)
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
