"""``explore-search``: cold seeded ``repro.explore`` searches.

One round is one fresh process running a local-backend search over the
default space with a fixed budget, an empty result cache and an empty
journal (child.py).  Each round of a run searches with its own seed,
derived from the benchmark seed.  Checks, made apart from the search:

* a seeded sample of the visited cells is simulated again with the
  execute-driven models; cycles and instructions must match exactly;
* the reported frontier must equal a brute-force non-dominated filter
  over the objective vectors of every visited cell.
"""

import random

import common

SCALE = 0.02
BUDGET = 48
SAMPLE = 3
SETUPS = 10           # set-up-only processes timed for setup_s


def non_dominated(vectors):
    """The distinct vectors no other vector dominates (all objectives
    minimised), by pairwise comparison."""
    distinct = sorted(set(vectors))
    keep = set()
    for v in distinct:
        if not any(all(a <= b for a, b in zip(u, v)) and u != v
                   for u in distinct):
            keep.add(v)
    return keep


def check_frontier(output):
    """True when the frontier is exactly the non-dominated visited set."""
    visited = {row["key"]: tuple(row["objectives"])
               for row in output["visited"]}
    members = [(key, tuple(values)) for key, values in output["frontier"]]
    if any(visited.get(key) != values for key, values in members):
        return False
    vectors = [values for _key, values in members]
    return (len(set(vectors)) == len(vectors)
            and set(vectors) == non_dominated(list(visited.values())))


class Resimulator:
    """Execute-driven re-simulation of explored cells."""

    def __init__(self):
        self.built = {}

    def __call__(self, config):
        from repro.codepack.compressor import compress_program
        from repro.explore.space import cell_from_config
        from repro.sim.machine import prepare, simulate
        from repro.workloads.suite import build_benchmark

        bench, arch, codepack = cell_from_config(config)
        if bench not in self.built:
            program = build_benchmark(bench, SCALE)
            self.built[bench] = (program, prepare(program),
                                 compress_program(program))
        program, static, image = self.built[bench]
        result = simulate(program, arch, codepack=codepack,
                          image=image if codepack is not None else None,
                          static=static, replay=None, vec=False)
        return result.cycles, result.instructions


def check_round(output, rng, resimulate):
    """Failed operations of one round: one per wrong sampled cell, one
    for a frontier that is not the non-dominated set."""
    visited = output["visited"]
    failed = 0 if check_frontier(output) else 1
    for row in rng.sample(visited, min(SAMPLE, len(visited))):
        if resimulate(row["config"]) != (row["cycles"], row["instructions"]):
            failed += 1
    return failed


def run(seed, seconds, trace, work):
    rounds = common.ChildRounds(
        lambda i: ["explore", "--scale", repr(SCALE), "--budget",
                   str(BUDGET), "--search-seed", str(seed * 1000 + i)],
        seconds, trace, work, SETUPS)

    rng = random.Random(seed)
    resimulate = Resimulator()
    attempted = failed = 0
    for output in rounds.outputs:
        attempted += len(output["visited"]) + 1
        failed += check_round(output, rng, resimulate)

    notes = ["explore-search: %d rounds, scale %s, budget %d"
             % (len(rounds.outputs), SCALE, BUDGET), rounds.note()]
    if trace:
        outputs = rounds.outputs
        values = {"explore.duplicate_frac":
                  sum(o["duplicates"] for o in outputs)
                  / sum(o["attempts"] for o in outputs)}
        return attempted, failed, rounds.layer_metrics(values), notes
    return attempted, failed, rounds.metrics(), notes
