"""Time one cold set-up in a fresh interpreter and print it in seconds.

Set-up is what `gacha-sim simulate` pays before its first trial: importing
gachagt (and numpy), parsing the config, and the first build_scheme, which
builds the cold caches (the GF(2^w) field, the linear-code codebook, the
symmetrizer plan, the COMP matrix).  The runner starts this script several
times per run and reports the median.

    python3 bench/setup_probe.py <src dir> <workload> <seed>
"""

import sys
import time


def main() -> None:
    src, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    from workloads import WORKLOADS, config_text

    text = config_text(WORKLOADS[name], seed, 0)
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from gachagt import sim_cli

    config = sim_cli.parse_config(text)
    sim_cli.build_scheme(config, config.master_seed, config.master_seed)
    print(f"{time.perf_counter() - t0!r}")


if __name__ == "__main__":
    main()
