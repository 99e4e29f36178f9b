"""Batch simulation driver: flat key=value configs, seeded trials, CSV out.

Per-trial seeds are derived by folding the master seed with the trial index
through a fixed multiplier (seed_t = master_seed XOR ((t + 1) * 0x9E3779B97F4A7C15,
truncated to 63 bits)), so any run is replayable trial-by-trial regardless of
worker count.  A trial's draws come from numpy's PCG64 via default_rng(seed_t)
(its matrix and gadget seeds, instance and channel) and default_rng(matrix_seed)
(a Bernoulli design: one raw stream byte a test, 8 a PCG64 word, compared
against 256 p, and on the rare byte equal to floor(256 p) one uniform of
that generator's first spawned child), and from a splitmix64 hash keyed by
the matrix or gadget seed and the person (a Gacha person's batches, an
expander person's copies).
The channel draws only the flips of the BSC that the channel and its
symmetrizer make end to end: a binomial count of flipped tests and a
uniform subset of that size (the oracle alone draws raw symbols, one uniform
a test).  The family and numpy version are recorded in the aggregate file
header.
"""

from __future__ import annotations

import csv
import math
import os
import re
import sys
import time
from dataclasses import MISSING, astuple, dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import (bits_to_words, brute_force_best, brute_force_decode, comp_decode_words,
                        observe_words, words_to_bits)
from .channels import NoiseModel
from .core_model import sample_instance, score
from .gacha_core import analytic_budget, default_params, gacha_scheme
from .gadgets import PyramidShape, pyramid_build, pyramid_shape
from .inner_code import DEFAULT_CODE_SEED
from .scheme import SchemeHandle, decode_copies, pack_groups, zero_words

SEED_FOLD = 0x9E3779B97F4A7C15
SEED_MASK = (1 << 63) - 1


@dataclass(frozen=True)
class SimConfig:
    scheme: str
    n: int
    k: int
    trials: int
    master_seed: int
    noise: NoiseModel = NoiseModel()  # the channel= key, resolved
    # core sizing (0 = fill from the standard ratios)
    w: int = 0
    d: int = 0
    r: int = 0
    B: int = 0
    ell: int = 0            # per-block length
    weight: int = 0         # constant-weight ones per block
    lin_dim: int = 0        # linear-code payload bits per block
    code_seed: int = DEFAULT_CODE_SEED
    # gadget stack
    pi: int = 1
    sigma: int = 1
    rho: int = 4
    R: int = 16
    tau_depth: int = 2
    outer_w: int = 0
    # comp sizing
    m: int = 0
    out: str = "out"


# one key per field but noise, which the channel key is parsed into
_INT_KEYS = {f.name for f in fields(SimConfig) if f.type == "int"}
_STR_KEYS = {f.name for f in fields(SimConfig) if f.type == "str"} | {"channel"}
_REQUIRED = tuple(f.name for f in fields(SimConfig) if f.default is MISSING)
# the keys each scheme takes beside the ones every scheme takes
_GACHA_KEYS = {"w", "d", "r", "B", "ell", "weight", "lin_dim", "code_seed"}
SCHEME_KEYS = {
    "gacha": _GACHA_KEYS,
    "gacha+gadgets": _GACHA_KEYS | {"pi", "sigma", "rho", "R", "tau_depth", "outer_w"},
    "comp": {"m"},
    "oracle": {"m"},
}
_COMMON_KEYS = (_INT_KEYS | _STR_KEYS).difference(*SCHEME_KEYS.values())
# a comment starts at a # that begins the line or follows whitespace, so a
# channel=custom: path may hold one
_COMMENT = re.compile(r"(?<!\S)#")


def parse_config(text: str) -> SimConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _INT_KEYS and key not in _STR_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        if key in _INT_KEYS:
            try:
                values[key] = int(val)
            except ValueError:
                raise ValueError(f"line {lineno}: key {key!r} needs an integer, got {val!r}")
        else:
            values[key] = val
    for key in _REQUIRED:
        if key not in values:
            raise ValueError(f"missing required key {key!r}")
    scheme = values["scheme"]
    if scheme not in SCHEME_KEYS:
        raise ValueError(f"scheme must be one of {tuple(SCHEME_KEYS)}, got {scheme!r}")
    bad = sorted(values.keys() - _COMMON_KEYS - SCHEME_KEYS[scheme])
    if bad:
        raise ValueError(f"keys {bad} do not apply to scheme={scheme}")
    # the oracle reads raw symbols
    noise = NoiseModel.parse(values.pop("channel", "none"), raw=scheme == "oracle")
    config = SimConfig(noise=noise, **values)
    validate_config(config)
    return config


# Caps on the work one trial does, checked at parse time.  A trial under a
# channel holds at most about 17.5 bytes a test at once (tracemalloc, m =
# 2^22.1 at bsc:0.49: the bits, their copy and their packed temporaries, and
# numpy's int64 range over every test, which Generator.choice shuffles once
# it draws more than a twentieth of them), so m = 2^26 tests is about 1.2 GB;
# the bench's expander shape has m = 688,128 (2^19.4), and a tau_depth 3
# pyramid of that shape 2^24.4.
MAX_TESTS = 1 << 26
# The oracle reads raw channel symbols: a whole trial holds about 47 bytes a
# test at n = 2, m = 2^14, bsc:0.05, and 34 at m = 2^20 and 2^23
# (tracemalloc): its receive about 33, then the symbols, each test's l0 and
# l1 - l0, and one block of supports' m + 1 float64 terms and covered bits
# (9 bytes a test a support; one support a block once m reaches
# baselines.SCORE_CELLS = 2^18).  So m = 2^23 is about 0.29 GB.  Memory
# would allow 2^25 (1.1 GB); the cap stays, as the decode, linear in m times
# C(n, k), already takes about 0.2 s a support there (2-core machine).
MAX_ORACLE_TESTS = 1 << 23
# A vote layer draws sigma permutations of the population above it and a
# parallel layer one of pi times that population, afresh every trial (they
# depend on gadget_seed), each with its argsort inverse: 2^22 permuted
# persons is 64 MB and about a second a trial.
MAX_PERMUTED = 1 << 22
# A Bernoulli design trial (comp, oracle) keeps its n * m bits packed (n * m / 8
# bytes) and draws them 256 rows at a time as one stream byte a test: the
# bytes, their tie mask and the word-padded bool buffer they are compared
# into, about 3 bytes a test of min(256, n) rows (tracemalloc: 424 MB at
# n = 256, m = 2^19, the packed design included).  The oracle scores on the
# packed rows too, unpacking one block of supports' tests at a time.  So
# n * m = 2^27 holds at most about 0.42 GB while it draws, at n <= 256; the
# bench's comp shape has n * m = 741,376 (2^19.5).
MAX_DESIGN_BITS = 1 << 27


def validate_config(config: SimConfig) -> None:
    if not config.out:
        raise ValueError("out must name an output directory, got an empty value")
    if not 0 < config.k < config.n:
        raise ValueError(f"need 0 < k < n, got k={config.k}, n={config.n}")
    for key in ("trials", "w", "d", "r", "B", "ell", "weight", "lin_dim", "code_seed",
                "outer_w", "m"):
        if getattr(config, key) < 0:
            raise ValueError(f"{key} must be >= 0, got {getattr(config, key)}")
    if config.scheme == "comp" and config.noise.channel is not None:
        raise ValueError("comp decodes noiseless results only; use channel=none")
    if config.scheme in ("gacha", "gacha+gadgets"):
        m = gacha_params_for(config, 0).m  # the base every trial builds, under its pyramid
    else:
        m = bernoulli_m(config)
    if config.scheme == "gacha+gadgets":
        bits = pyramid_of(config).bits
        # the vote and parallel layers permute (sigma + pi) 2^bits persons
        permuted = (config.sigma if config.sigma > 1 else 0) + (config.pi if config.pi > 1 else 0)
        if permuted and (bits >= MAX_PERMUTED.bit_length() or permuted << bits > MAX_PERMUTED):
            raise ValueError(f"the vote and parallel layers would permute {permuted} * "
                             f"2^{bits} persons a trial, more than "
                             f"2^{MAX_PERMUTED.bit_length() - 1}")
        # R >= 3, so each expander layer at least doubles m: past
        # log2(MAX_TESTS) layers m is over the cap without forming R^layers
        layers = config.tau_depth - 1
        m = (MAX_TESTS + 1 if layers >= MAX_TESTS.bit_length()
             else m * config.R ** layers * config.sigma * config.pi)
    if m > MAX_TESTS:
        raise ValueError(f"a trial would run more than 2^{MAX_TESTS.bit_length() - 1} tests")
    if config.scheme == "oracle" and m > MAX_ORACLE_TESTS:
        raise ValueError(f"an oracle trial would run more than "
                         f"2^{MAX_ORACLE_TESTS.bit_length() - 1} tests")
    if config.n >= 1 << 63:  # person indices are int64
        raise ValueError(f"population {config.n} is 2^63 or more")
    if config.scheme in ("comp", "oracle") and config.n * m > MAX_DESIGN_BITS:
        raise ValueError(f"a trial would draw a design of more than "
                         f"2^{MAX_DESIGN_BITS.bit_length() - 1} bits (n * m)")
    # C(n, k) > 10^6 once min(k, n - k) > 20, where comb itself grows slow
    if config.scheme == "oracle" and (min(config.k, config.n - config.k) > 20
                                      or math.comb(config.n, config.k) > 10 ** 6):
        raise ValueError("oracle scheme needs C(n, k) <= 10^6")


def derive_seed(master_seed: int, trial: int) -> int:
    return (master_seed ^ ((trial + 1) * SEED_FOLD)) & SEED_MASK


def pyramid_of(config: SimConfig) -> PyramidShape:
    """The gadget stack's shape, by gadgets.pyramid_shape, which raises where
    no pyramid of this config can be built."""
    return pyramid_shape(config.n, config.k, config.rho, config.R, config.outer_w,
                         config.tau_depth, config.sigma, config.pi)


def base_population(config: SimConfig) -> tuple:
    """(n, k) of the Gacha base: the config's own, or its pyramid's innermost
    layer."""
    if config.scheme == "gacha+gadgets":
        shape = pyramid_of(config)
        return shape.base_n, shape.base_k
    return config.n, config.k


def gacha_params_for(config: SimConfig, matrix_seed: int):
    """The Gacha base's params; the channel picks its inner layer, the
    constant-weight one only without a channel."""
    return default_params(
        *base_population(config),
        channel_crossover=config.noise.crossover,
        matrix_seed=matrix_seed,
        w=config.w, d=config.d, r=config.r, B=config.B,
        ell=config.ell, weight=config.weight, lin_dim=config.lin_dim,
        code_seed=config.code_seed,
    )


def build_scheme(config: SimConfig, matrix_seed: int, gadget_seed: int) -> SchemeHandle:
    if config.scheme in ("gacha", "gacha+gadgets"):
        base = gacha_scheme(gacha_params_for(config, matrix_seed))
        if config.scheme == "gacha":
            return base
        return pyramid_build(
            base, config.tau_depth, rho=config.rho, R=config.R,
            outer_w=pyramid_of(config).outer_w,
            sigma=config.sigma, pi=config.pi, seed=gadget_seed,
        )
    if config.scheme in ("comp", "oracle"):
        return _bernoulli_scheme(config, matrix_seed)
    raise ValueError(f"unknown scheme {config.scheme!r}")


# design rows drawn at a time, one stream byte a test (a row reads its own
# ceil(m / 8) words), compared against p's byte level into a reused
# word-padded bool buffer and packed from it; where the stream is cut, and
# so which chunk a tie falls in, changes no row
DESIGN_CHUNK = 256


def bernoulli_m(config: SimConfig) -> int:
    """The Bernoulli design's test count: m, else e k ln n."""
    return config.m or math.ceil(math.e * config.k * math.log(config.n))


def _bernoulli_design(config: SimConfig, matrix_seed: int) -> tuple:
    """The packed Bernoulli(p) design and its m, p = 1 - 2^(-1/k), one
    stream byte a test.

    Row j reads the first m bytes of its own ceil(m / 8) words of
    default_rng(matrix_seed)'s raw PCG64 stream (byte b of a word is its
    bits 8b ... 8b + 7), so 8 tests share a word.  With level = floor(256 p)
    and frac = 256 p - level, both exact, a byte u is a 1 when u < level and
    a 0 when u > level; on a tie, u == level (probability 1/256), it is a 1
    when the next uniform double of the stream's first spawned child is
    below frac, the ties taken in row-major order.  So P(1) = level / 256 +
    frac / 256 = p, to 2^-61, and row j depends on (matrix_seed, m, j)
    alone.  DESIGN_CHUNK rows at a time are compared into a reused
    word-padded bool buffer, whose pad stays 0, and packed from it.
    """
    m = bernoulli_m(config)
    p = 1 - 2 ** (-1.0 / config.k)
    level = math.floor(256 * p)
    frac = 256 * p - level
    stride = 8 * -(-m // 8)  # the bytes of a row's own words
    words = zero_words(config.n, m)
    bits = np.zeros((min(DESIGN_CHUNK, config.n), 64 * words.shape[1]), dtype=bool)
    rng = np.random.default_rng(matrix_seed)
    raw, tie_draws = rng.bit_generator.random_raw, rng.spawn(1)[0].random
    for start in range(0, config.n, len(bits)):
        rows = min(len(bits), config.n - start)
        octets = raw(rows * stride // 8).astype("<u8", copy=False).view(np.uint8)
        np.less(octets.reshape(rows, stride)[:, :m], level, out=bits[:rows, :m])
        row, test = np.divmod(np.flatnonzero(octets == level), stride)
        row, test = row[test < m], test[test < m]
        won = tie_draws(len(row)) < frac
        bits[row[won], test[won]] = True
        pack_groups(bits[:rows], out=words[start:start + rows])
    return words, m


def _bernoulli_scheme(config: SimConfig, matrix_seed: int) -> SchemeHandle:
    """A Bernoulli design decoded by COMP on packed words, or by the
    exhaustive oracle on bits or the channel's raw symbols."""
    words, m = _bernoulli_design(config, matrix_seed)
    if config.scheme == "comp":
        return SchemeHandle(
            n=config.n, k_design=config.k, m=m,
            observe=partial(observe_words, words, m),
            decode_rows=partial(comp_decode_words, words, m),
            to_bits=partial(words_to_bits, m),
            from_bits=partial(bits_to_words, m),
            layers=("comp",),
        )

    def observe(js, rows, nrows):
        return words_to_bits(m, observe_words(words, m, js, rows, nrows))

    def decode(z):
        return brute_force_best(words, m, z, config.k, config.noise.channel)

    return SchemeHandle(  # the plain-bit layout
        n=config.n, k_design=config.k, m=m,
        observe=observe,
        decode_rows=partial(decode_copies, decode, m),
        layers=("oracle",),
    )


def trial_setup(config: SimConfig, trial: int):
    """(seed_t, rng, handle, instance) of one seeded trial: its rng draws the
    matrix seed, then the gadget seed, which build the scheme, then the
    instance, and is left for the trial's channel draws."""
    seed_t = derive_seed(config.master_seed, trial)
    rng = np.random.default_rng(seed_t)
    matrix_seed = int(rng.integers(SEED_MASK))
    handle = build_scheme(config, matrix_seed, int(rng.integers(SEED_MASK)))
    return seed_t, rng, handle, sample_instance(config.n, config.k, rng)


def run_trial(config: SimConfig, trial: int):
    """One seeded trial; returns the per-trial CSV row as a tuple."""
    seed_t, rng, handle, inst = trial_setup(config, trial)
    words = config.noise.receive(handle.observed_words(inst.sick_set), handle, rng)
    t0 = time.perf_counter_ns()
    estimate = handle.decode(words)
    decode_ns = time.perf_counter_ns() - t0
    metrics = score(inst, estimate)
    return (trial, seed_t, config.n, config.k, handle.m,
            metrics.false_positives, metrics.false_negatives, decode_ns)


def _trial_star(args):
    return run_trial(*args)


@dataclass
class AggregateReport:
    """One aggregate.csv row: run writes its fields in order, under
    AGG_HEADER, their names."""

    trials: int
    mean_fp: float
    std_fp: float
    ci95_fp: float
    mean_fn: float
    std_fn: float
    ci95_fn: float
    m: int
    mean_decode_ns: float
    analytic_budget: float


def aggregate_rows(config: SimConfig, rows) -> AggregateReport:
    if config.scheme in ("gacha", "gacha+gadgets"):
        p = gacha_params_for(config, 0)
        budget = analytic_budget(p.k_cap, p.w, p.d, p.r)
    else:
        budget = 0.0
    if not rows:
        return AggregateReport(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0.0, budget)
    fp = np.array([r[5] for r in rows], dtype=float)
    fn = np.array([r[6] for r in rows], dtype=float)
    dns = np.array([r[7] for r in rows], dtype=float)
    t = len(rows)
    std_fp, std_fn = fp.std(), fn.std()
    return AggregateReport(
        trials=t,
        mean_fp=float(fp.mean()), std_fp=float(std_fp),
        ci95_fp=float(1.96 * std_fp / math.sqrt(t)),
        mean_fn=float(fn.mean()), std_fn=float(std_fn),
        ci95_fn=float(1.96 * std_fn / math.sqrt(t)),
        m=int(rows[0][4]),
        mean_decode_ns=float(dns.mean()),
        analytic_budget=budget,
    )


TRIAL_HEADER = ["trial", "seed", "n", "k", "m", "fp", "fn", "decode_ns"]
AGG_HEADER = [f.name for f in fields(AggregateReport)]


def run_fingerprint(config: SimConfig) -> str:
    """The `#` line before each aggregate.csv row: what reruns it.  The
    config hash covers every resolved key but the output directory."""
    import hashlib  # here, not at the top: it costs set-up time and only run needs it

    digest = hashlib.sha256(repr(replace(config, out="")).encode()).hexdigest()[:16]
    return (f"# run: gachagt={__version__} numpy={np.__version__} "
            f"master_seed={config.master_seed} config_sha256={digest}")


def run(config: SimConfig, out_dir: str | None = None, threads: int = 1):
    """Execute all trials, write trials.csv and aggregate.csv, return the report."""
    out = Path(out_dir or config.out)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(config, t) for t in range(config.trials)]
    rows = []
    if threads > 1 and config.trials > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            for row in pool.map(_trial_star, tasks, chunksize=8):
                rows.append(row)
    else:
        for task in tasks:
            rows.append(_trial_star(task))

    trials_path = out / "trials.csv"
    with trials_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_HEADER)
        writer.writerows(rows)

    report = aggregate_rows(config, rows)
    with (out / "aggregate.csv").open("a", newline="") as fh:
        if fh.tell() == 0:  # a new or empty file: the header first
            fh.write(f"# gachagt={__version__}\n")
            fh.write("# rng_family=numpy-PCG64/default_rng+splitmix64-keyed-batches"
                     "+sparse-composite-flips+byte-bernoulli-design\n")
            fh.write(f"# numpy={np.__version__}\n")
            fh.write(f"# seed_fold=seed_t=(master_seed^((t+1)*{SEED_FOLD:#x}))&(2^63-1)\n")
            fh.write(f"# master_seed={config.master_seed}\n")
            csv.writer(fh).writerow(AGG_HEADER)
        fh.write(run_fingerprint(config) + "\n")
        csv.writer(fh).writerow(astuple(report))
    return report


# ---------------------------------------------------------------------------
# oracle cross-check
# ---------------------------------------------------------------------------

def oracle_check(config: SimConfig):
    """Run the scheme and the exhaustive decoder side by side on tiny instances.

    Returns (trials, unique_explanation_trials, full_emits, mismatches,
    comp_violations): mismatches counts unique-explanation trials where the
    scheme emitted k indices differing from the oracle's support;
    comp_violations counts trials where COMP missed a sick person.
    """
    if config.n > 4096:
        raise ValueError("oracle-check is for tiny instances (n <= 4096)")
    if config.noise.channel is not None:
        raise ValueError("oracle-check compares noiseless decoders; use channel=none")
    if config.scheme == "gacha+gadgets":
        raise ValueError("oracle-check does not take scheme=gacha+gadgets: its composed "
                         "population exceeds n")
    unique = full = mismatches = comp_bad = 0
    everyone = np.arange(config.n)
    for trial in range(config.trials):
        _, _, handle, inst = trial_setup(config, trial)
        m = handle.m  # the design's packed rows: copy j of a stacked observe is person j
        design = bits_to_words(m, handle.to_bits(handle.observe(everyone, everyone, config.n)),
                               config.n)
        y = observe_words(design, m, inst.sick_set, [0] * config.k, 1)
        bits = words_to_bits(m, y)
        estimate = handle.decode(handle.from_bits(bits, 1))
        oracle = brute_force_decode(design, m, bits, config.k)
        if set(oracle.best) and len(oracle.consistent_supports) == 1:
            unique += 1
            if len(estimate) == config.k:
                full += 1
                if estimate != set(oracle.best):
                    mismatches += 1
        if not inst.sick_set <= set(comp_decode_words(design, m, y)[1].tolist()):
            comp_bad += 1
    return config.trials, unique, full, mismatches, comp_bad


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _thread_count(args) -> int:
    """--threads, else GACHA_THREADS, else 1; ValueError unless a positive integer."""
    threads = args.threads
    if threads is None:
        env = os.environ.get("GACHA_THREADS") or "1"
        try:
            threads = int(env)
        except ValueError:
            raise ValueError(f"GACHA_THREADS must be an integer, got {env!r}") from None
    if threads < 1:
        raise ValueError(f"need at least 1 worker process, got {threads}")
    return threads


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="gacha-sim",
                                     description="group-testing Monte-Carlo driver")
    sub = parser.add_subparsers(dest="command", required=True)
    sim = sub.add_parser("simulate", help="run seeded trials and write CSVs")
    sim.add_argument("config", help="key=value config file")
    sim.add_argument("--out", default=None, help="output directory")
    sim.add_argument("--threads", type=int, default=None,
                     help="worker processes (default: GACHA_THREADS or 1)")
    orc = sub.add_parser("oracle-check",
                         help="compare against the exhaustive decoder on tiny instances")
    orc.add_argument("config", help="key=value config file")
    args = parser.parse_args(argv)

    try:
        config = parse_config(Path(args.config).read_text())
        threads = _thread_count(args) if args.command == "simulate" else 1
    except (OSError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    if args.command == "simulate":
        try:
            report = run(config, out_dir=args.out, threads=threads)
        except Exception as e:  # a failed trial aborts the whole run
            print(f"run aborted: {e}", file=sys.stderr)
            return 1
        print(f"trials={report.trials} m={report.m} "
              f"mean_fp={report.mean_fp:.6f} mean_fn={report.mean_fn:.6f} "
              f"mean_decode_ms={report.mean_decode_ns / 1e6:.3f} "
              f"budget={report.analytic_budget:.6g}")
        return 0

    try:
        trials, unique, full, mismatches, comp_bad = oracle_check(config)
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    print(f"trials={trials} unique_explanation={unique} full_emits={full} "
          f"mismatches={mismatches} comp_violations={comp_bad}")
    return 0 if mismatches == 0 and comp_bad == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
