"""One cold round of ``paper-sweep`` or ``explore-search``, in its own
process.

Each round starts a fresh interpreter, so nothing the previous round
memoised (programs, traces, profiles, decode closures) carries over:
this is what a user pays for one ``python -m repro.eval all`` or one
``python -m repro.tools.explore`` run.  The parent (``run.py``) times
the process and reads back one JSON file with the round's outputs, its
timestamps and, in traced mode, its spans.

Usage::

    python3 perfbench/child.py sweep   --scale S --out FILE [--trace]
                                       [--setup-only] [--pause-fds W,R]
    python3 perfbench/child.py explore --scale S --budget B --search-seed N
                                       --out FILE [--trace]
                                       [--setup-only] [--pause-fds W,R]
"""

import time

STARTED = time.time()

import argparse  # noqa: E402
from contextlib import nullcontext  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402


def layer_calls():
    """``(module, function, span name)`` of the public calls the sweep
    and the explorer make into the workloads, codepack and sim layers."""
    from repro.codepack import compressor, dictionary
    from repro.sim import machine, replay, vecreplay
    from repro.workloads import suite

    return [
        (suite, "build_benchmark", "workloads.build"),
        (dictionary, "build_dictionaries", "codepack.dictionary"),
        (compressor, "compress_program", "codepack.compress"),
        (machine, "prepare", "sim.predecode"),
        (replay, "record_trace", "sim.trace"),
        (vecreplay, "trace_columns", "sim.columns"),
        (replay, "get_profile", "sim.profile"),
        (vecreplay, "price_grid", "sim.price"),
        (machine, "simulate", "sim.price"),
    ]


def layer_counters():
    """Per-span counters recorded beside the spans of :func:`layer_calls`."""
    profile_keys = set()

    def count_profile(args, kwargs, profile):
        static, trace, arch = args[:3]
        key = (id(trace), arch.icache, arch.dcache, arch.predictor)
        if key in profile_keys:
            return {}
        profile_keys.add(key)
        return {"sim.profiles": 1}

    def count_grid(args, kwargs, priced):
        return {"sim.cells_priced": len(priced),
                "sim.vec_declines": len(args[1]) - len(priced),
                "sim.sim_insts": sum(r.instructions
                                     for r in priced.values())}

    return {
        "compress_program": lambda a, k, image: {
            "codepack.compressed_bytes": image.compressed_bytes},
        "record_trace": lambda a, k, trace: {"sim.trace.insts": trace.n},
        "get_profile": count_profile,
        "price_grid": count_grid,
        "simulate": lambda a, k, result: {
            "sim.cells_priced": 1, "sim.sim_insts": result.instructions},
    }


def mark(args, what):
    """Mark a milestone to the parent, which times this process in
    slices from outside (``common.Slicer``), and wait for its ack:
    ``b"r"`` ready with no timed round to follow, ``b"s"`` ready and an
    untraced round starts, ``b"e"`` the round ended.  Without the pipes
    (a child run by hand) there is nobody to tell."""
    if args.pause_fds:
        marks, acks = (int(fd) for fd in args.pause_fds.split(","))
        os.write(marks, what)
        os.read(acks, 1)


def start_round(args, tracer):
    """Mark the start of an untraced round, or instrument the layers for
    a traced one, which times itself with its spans."""
    if tracer is not None:
        mark(args, b"r")
        counters = layer_counters()
        for module, attr, name in layer_calls():
            tracer.instrument(module, attr, name, counters.get(attr))
    else:
        mark(args, b"s")


def end_round(args, out, tracer):
    out["done"] = time.time()
    if tracer is not None:
        tracer.restore()
    else:
        mark(args, b"e")


def run_sweep(args, tracer):
    from repro.eval.experiments import ALL_EXPERIMENTS, sweep_cells
    from repro.eval.runner import Workbench
    from repro.eval.tables import format_table
    from repro.tools.container import dump_image

    # What ``python -m repro.eval all --jobs 1`` does: no result or
    # trace cache, the whole grid prefetched, then every exhibit.
    wb = Workbench(scale=args.scale, jobs=1)
    names = list(ALL_EXPERIMENTS)
    out = {"ready": time.time()}
    if args.setup_only:
        mark(args, b"r")
        return out
    start_round(args, tracer)
    cells = sweep_cells(names, wb=wb)
    wb.prefetch(cells)
    for name in names:
        with tracer.span("eval.exhibit") if tracer else nullcontext():
            format_table(ALL_EXPERIMENTS[name](wb=wb))
    end_round(args, out, tracer)
    out["cells"] = [[c[0], c[1].name, c[2] is not None,
                     wb.run(*c).cycles, wb.run(*c).instructions]
                    for c in cells]
    # The images the CodePack cells ran from, for the parent's
    # decompress-to-source check.
    out["images"] = {bench: dump_image(wb.image(bench)).hex()
                     for bench in sorted({c[0] for c in cells
                                          if c[2] is not None})}
    out["declines"] = sum(wb.stats.vec_declines.values())
    return out


def run_explore(args, tracer):
    from repro.eval.sweep import ResultCache
    from repro.explore.backends import LocalBackend
    from repro.explore.journal import RunJournal
    from repro.explore.search import Explorer
    from repro.explore.space import default_space

    work = args.out + ".d"
    space = default_space()
    cache = ResultCache(os.path.join(work, "cache"))
    journal = RunJournal(os.path.join(work, "journal.jsonl"))
    backend = LocalBackend(scale=args.scale)
    explorer = Explorer(space, backend, seed=args.search_seed,
                        budget=args.budget, cache=cache, journal=journal)
    out = {"ready": time.time()}
    if args.setup_only:
        mark(args, b"r")
        return out
    start_round(args, tracer)
    if tracer is None:
        result = explorer.run()
    else:
        backend.price = tracer.wrap(backend.price, "explore.price")
        cache.get = tracer.wrap(cache.get, "eval.cache_get")
        cache.put = tracer.wrap(cache.put, "eval.cache_put")
        journal.append = tracer.wrap(journal.append, "explore.journal")
        journal.close = tracer.wrap(journal.close, "explore.journal")
        # The engine's own time (proposals, dedupe, frontier updates)
        # is this span's self time.
        with tracer.span("explore.propose"):
            result = explorer.run()
    end_round(args, out, tracer)
    dims = space.dimensions
    visited = []
    with open(os.path.join(work, "journal.jsonl")) as handle:
        for line in handle:
            entry = json.loads(line)
            if "key" not in entry:
                continue  # the header line
            point = tuple(choices.index(entry["point"][name])
                          for name, choices in dims)
            visited.append({"key": entry["key"],
                            "objectives": entry["objectives"],
                            "config": space.config(point),
                            "cycles": entry["meta"]["cycles"],
                            "instructions": entry["meta"]["instructions"]})
    out["visited"] = visited
    out["frontier"] = [[m.key, list(m.values)]
                       for m in result.frontier.members()]
    out["attempts"] = result.stats.attempts
    out["duplicates"] = result.stats.duplicates
    return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("sweep", "explore"))
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--budget", type=int, default=0)
    parser.add_argument("--search-seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pause-fds", default=None)
    args = parser.parse_args(argv)
    tracer = Tracer(clock=time.time) if args.trace else None
    run = run_sweep if args.workload == "sweep" else run_explore
    out = run(args, tracer)
    out["started"] = STARTED
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["spans"] = tracer.export()
        out["counts"] = dict(tracer.counts)
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
