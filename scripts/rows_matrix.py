"""Digest the trial rows of a grid of small configs, to compare two trees.

Every combination of a channel and a scheme is parsed and run with
`sim_cli.run`; each prints one line with the SHA-256 of its `trials.csv`
rows without the `decode_ns` column, or the error it raised.
The REJECTED configs must fail at parse time, and print that error.
The first line names the numpy version, since numpy keeps its Generator
streams identical only within one version.  Run it against each tree and
diff the outputs:

    PYTHONPATH=src python scripts/rows_matrix.py > rows_a.txt
    PYTHONPATH=src python scripts/rows_matrix.py --against rows_a.txt

With --against FILE it prints only the lines that differ from the saved
output FILE, as a unified diff, and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import hashlib
import itertools
import sys
import tempfile
from pathlib import Path

import numpy as np

from gachagt import sim_cli

CHANNELS = ("none", "bsc:0.05", "BSC:0.05", "fp:0.05", "fn:0.1", "bec:0.1", "custom")
# sized tight enough that noise moves the fp/fn columns
SCHEMES = {
    "gacha": "scheme=gacha\nn=4096\nk=4\ntrials=8\nmaster_seed=5\nB=40\n",
    # a larger d, and a field above the log tables' 16 bits
    "gacha-d3": "scheme=gacha\nn=4096\nk=4\ntrials=8\nmaster_seed=5\nd=3\n",
    "gacha-w17": "scheme=gacha\nn=4096\nk=4\ntrials=8\nmaster_seed=5\nB=40\nw=17\n",
    # the default sizing at n = 2^32 (w = 17, d = 2), and w * d = 68 > 63
    "gacha-n2^32": "scheme=gacha\nn=4294967296\nk=4\ntrials=4\nmaster_seed=5\n",
    "gacha-d4-w17": "scheme=gacha\nn=4096\nk=4\ntrials=8\nmaster_seed=5\nd=4\nw=17\nB=40\n",
    "gacha+gadgets": ("scheme=gacha+gadgets\nn=65536\nk=8\ntrials=3\nmaster_seed=5\n"
                      "rho=4\nR=16\ntau_depth=2\nouter_w=8\nB=24\n"),
    # two stacked expander layers, and a vote layer under a parallel one
    # k = 16 over 2^8 outer birthdays: a copy often decodes two pairs under
    # one birthday, and the expander keeps the one its inner decode lists first
    "gadgets-ties": ("scheme=gacha+gadgets\nn=65536\nk=16\ntrials=40\nmaster_seed=5\n"
                     "rho=4\nR=16\ntau_depth=2\nouter_w=8\nB=24\n"),
    "gadgets-tau3": ("scheme=gacha+gadgets\nn=65536\nk=4\ntrials=2\nmaster_seed=5\n"
                     "rho=3\nR=8\ntau_depth=3\nouter_w=8\nB=24\n"),
    "gadgets-sigma3-pi2": ("scheme=gacha+gadgets\nn=100000\nk=8\ntrials=2\nmaster_seed=5\n"
                           "rho=4\nR=8\nsigma=3\npi=2\nouter_w=8\nB=24\n"),
    # every gadget kind under another: expander over expander, vote over
    # expander, parallel over vote
    "gadgets-tau3-sigma3-pi2": ("scheme=gacha+gadgets\nn=100000\nk=4\ntrials=2\nmaster_seed=5\n"
                                "rho=3\nR=8\ntau_depth=3\nsigma=3\npi=2\nouter_w=8\nB=24\n"),
    # the bench's expander shape: 32 persons draw 4 of 32 copies each
    "gadgets-bench": ("scheme=gacha+gadgets\nn=4294967296\nk=32\ntrials=2\nmaster_seed=5\n"
                      "w=16\nd=2\nr=18\nB=384\nell=28\nweight=14\n"
                      "rho=4\nR=32\ntau_depth=2\nouter_w=16\n"),
    # persons past 2^32, whose copy draws key on j's high bits too
    "gadgets-rho5-w16": ("scheme=gacha+gadgets\nn=1099511627776\nk=4\ntrials=2\nmaster_seed=5\n"
                         "rho=5\nR=16\ntau_depth=2\nouter_w=16\nB=24\n"),
    # an outer dimension of 3 (rho = 6) over a w = 17 base
    "gadgets-rho6-w16": ("scheme=gacha+gadgets\nn=1099511627776\nk=4\ntrials=2\nmaster_seed=5\n"
                         "rho=6\nR=16\ntau_depth=2\nouter_w=16\nB=48\n"),
    "oracle": "scheme=oracle\nn=12\nk=2\ntrials=8\nmaster_seed=5\nm=12\n",
    # the oracle's ranking over a design of 32 words a person
    "oracle-wide": "scheme=oracle\nn=6\nk=2\ntrials=4\nmaster_seed=5\nm=2048\n",
    "comp": "scheme=comp\nn=50\nk=2\ntrials=4\nmaster_seed=5\nm=40\n",
    # the bench's comp shape, m from its default
    "comp-bench": "scheme=comp\nn=4096\nk=8\ntrials=4\nmaster_seed=5\n",
    # a design exactly one 64-bit word wide, and one with a single bit in a second word
    "comp-m64": "scheme=comp\nn=200\nk=3\ntrials=4\nmaster_seed=5\nm=64\n",
    "comp-m65": "scheme=comp\nn=200\nk=3\ntrials=4\nmaster_seed=5\nm=65\n",
    # a last design chunk of a single row
    "comp-n4097": "scheme=comp\nn=4097\nk=8\ntrials=4\nmaster_seed=5\n",
    # a linear inner payload wider than the (birthday, fragment) pair
    "gacha-wide": "scheme=gacha\nn=4096\nk=4\ntrials=8\nmaster_seed=5\nw=12\nlin_dim=14\n",
    # a wide batch draw (B > 10000, r > B // 50), and a person in every
    # batch (r = B), whose draw lists the batches it leaves out: none
    "gacha-tail": "scheme=gacha\nn=4096\nk=4\ntrials=4\nmaster_seed=5\nB=10240\nr=205\n",
    "gacha-allbatches": "scheme=gacha\nn=4096\nk=1\ntrials=8\nmaster_seed=5\nB=24\nr=24\n",
    # the bench's noisy shape, whose linear inner code is (32, 16)
    "gacha-noisy-bench": ("scheme=gacha\nn=65536\nk=8\ntrials=2\nmaster_seed=5\n"
                          "w=16\nd=2\nr=18\nB=384\ncode_seed=7\n"),
    # w = 10 by default, so the linear inner code is (40, 20): a dim-20 table
    "gacha-n600": "scheme=gacha\nn=600\nk=2\ntrials=8\nmaster_seed=5\n",
    # outer_w from its default, the narrowest field with R + 1 points: 5 at
    # R = 16, so a 2^10-person base and a composed capacity of pi * 2^10,
    # which n = 1000 stays under and n = 2048 at pi = 2 meets exactly
    "gadgets-default-w": ("scheme=gacha+gadgets\nn=1000\nk=2\ntrials=4\nmaster_seed=5\n"
                          "rho=4\nR=16\ntau_depth=2\n"),
    "gadgets-capacity": ("scheme=gacha+gadgets\nn=2048\nk=2\ntrials=4\nmaster_seed=5\n"
                         "rho=4\nR=16\ntau_depth=2\npi=2\n"),
    # under a channel, a [26, 6] linear inner code, two blocks a pair at
    # w = 6: a coset table of 2^20 syndromes over 2^6 codewords
    "gacha-lin-r20": ("scheme=gacha\nn=4096\nk=4\ntrials=8\nmaster_seed=5\nw=6\nd=2\nB=40\n"
                      "lin_dim=6\nell=26\n"),
}
# configs that must fail at parse time: one person past the composed
# capacity, and R + 1 = 17 points in a 2^4 field
REJECTED = {
    "rejected-capacity": ("scheme=gacha+gadgets\nn=2049\nk=2\ntrials=4\nmaster_seed=5\n"
                          "rho=4\nR=16\ntau_depth=2\npi=2\n"),
    "rejected-R-past-outer_w": ("scheme=gacha+gadgets\nn=64\nk=2\ntrials=4\nmaster_seed=5\n"
                                "rho=4\nR=16\ntau_depth=2\nouter_w=4\n"),
}
CUSTOM_CSV = "symbol,mu0,mu1\n0,0.9,0.05\n1,0.07,0.15\n2,0.03,0.8\n"


def digest(text: str, out: Path) -> str:
    try:
        config = sim_cli.parse_config(text)
    except ValueError as e:
        return f"config error: {type(e).__name__}"
    try:
        sim_cli.run(config, out_dir=str(out))
    except Exception as e:  # a failed trial aborts the run
        return f"run error: {type(e).__name__}: {e}"
    with (out / "trials.csv").open(newline="") as fh:
        rows = [r[:7] for r in csv.reader(fh)]  # decode_ns is column 7, the last
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def matrix_lines():
    """The numpy version, then one line per (scheme, channel) combination."""
    yield f"# numpy={np.__version__}"
    with tempfile.TemporaryDirectory() as tmp:
        custom = Path(tmp) / "channel.csv"
        custom.write_text(CUSTOM_CSV)
        configs = {**SCHEMES, **REJECTED}
        for i, (scheme, channel) in enumerate(itertools.product(configs, CHANNELS)):
            spec = f"custom:{custom}" if channel == "custom" else channel
            text = configs[scheme] + f"channel={spec}\n"
            yield f"{scheme} {channel}: {digest(text, Path(tmp) / str(i))}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="FILE",
                        help="print the lines that differ from this saved output; "
                             "exit 1 on any difference")
    args = parser.parse_args(argv)
    if args.against is None:
        for line in matrix_lines():
            print(line, flush=True)
        return 0
    saved = Path(args.against).read_text().splitlines()
    diff = list(difflib.unified_diff(saved, list(matrix_lines()), args.against, "this tree",
                                     n=0, lineterm=""))
    for line in diff:
        print(line)
    print(f"rows_matrix: {'differs from' if diff else 'identical to'} {args.against}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
