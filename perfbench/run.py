"""The repository benchmark: one command, four workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the same workload with spans around the calls into
each layer and prints the per-layer metrics instead.  Either way the
outputs are checked, human-readable notes come first, and the last line
of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

See README.md in this directory for the workloads, the metrics and how
steady they are.
"""

import argparse
import importlib
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

#: Workload name -> the module in this directory that runs it.
WORKLOADS = {
    "paper-sweep": "wl_sweep",
    "explore-search": "wl_explore",
    "codec-roundtrip": "wl_codec",
    "serve-mixed": "wl_serve",
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        parser.error("no repro sources under %s" % common.SRC)
    sys.path.insert(1, common.SRC)

    # SIGTERM unwinds like ^C, so servers and child processes are
    # stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    module = importlib.import_module(WORKLOADS[args.workload])
    work = common.make_workdir()
    try:
        attempted, failed, values, notes = module.run(
            args.seed, args.seconds, bool(args.trace), work)
    finally:
        common.remove_workdir(work)
    units = (common.per_layer_names() if args.trace
             else common.end_to_end_units())
    common.emit(failed == 0, attempted, failed,
                common.metric_table(values, units), notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
