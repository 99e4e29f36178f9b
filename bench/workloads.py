"""The benchmark's workloads and their correctness gates.

Each workload is a `gacha-sim simulate` config without `trials` and
`master_seed`; the runner adds both per chunk of trials, deriving the master
seed from the workload seed.  Sizes are the acceptance-test shapes (AC-1,
AC-6, AC-10, COMP).  BENCHMARK.json and NOTES.md say why each one is here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    config: str          # key=value lines, without trials/master_seed
    chunk: int           # trials per sim_cli.run call (0.1-0.2 s of work)
    m: int               # test count the config implies, checked on every row
    max_errors_per_person: float | None  # bar on mean (FN+FP)/k; None: no bar
    never_misses: bool   # FN must be 0 on every trial (COMP)


# The AC-1 and AC-6a bar is a mean FN+FP of at most 0.05 per trial at k = 8.
# Per sick person that is 0.05 / 8; the expander workload has k = 32.
AC1_ERRORS_PER_PERSON = 0.05 / 8

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="noiseless",
            config="scheme=gacha\nn=65536\nk=8\nchannel=none\n"
                   "w=16\nd=2\nr=18\nB=384\nell=28\nweight=14\n",
            chunk=16,
            m=384 * 2 * 28,
            max_errors_per_person=AC1_ERRORS_PER_PERSON,
            never_misses=False,
        ),
        Workload(
            name="noisy",
            config="scheme=gacha\nn=65536\nk=8\nchannel=fp:0.05\n"
                   "w=16\nd=2\nr=18\nB=384\ncode_seed=7\n",
            chunk=2,
            m=384 * 2 * 32,
            max_errors_per_person=AC1_ERRORS_PER_PERSON,
            never_misses=False,
        ),
        Workload(
            name="expander",
            config="scheme=gacha+gadgets\nn=4294967296\nk=32\nchannel=none\n"
                   "w=16\nd=2\nr=18\nB=384\nell=28\nweight=14\n"
                   "rho=4\nR=32\ntau_depth=2\nouter_w=16\n",
            chunk=1,
            m=32 * 384 * 2 * 28,
            max_errors_per_person=AC1_ERRORS_PER_PERSON,
            never_misses=False,
        ),
        Workload(
            name="comp",
            config="scheme=comp\nn=4096\nk=8\nchannel=none\n",
            chunk=1,
            m=181,
            max_errors_per_person=None,
            never_misses=True,
        ),
    )
}


def chunk_master_seed(seed: int, chunk: int) -> int:
    """The master_seed of chunk `chunk` of a run with workload seed `seed`."""
    digest = hashlib.sha256(f"gachagt-bench:{seed}:{chunk}".encode()).digest()
    return int.from_bytes(digest[:7], "big")


def config_text(workload: Workload, seed: int, chunk: int) -> str:
    return (workload.config
            + f"trials={workload.chunk}\nmaster_seed={chunk_master_seed(seed, chunk)}\n")
