"""``paper-sweep``: cold ``repro.eval all`` rounds over the 309-cell grid.

One round is one fresh process doing what ``python -m repro.eval all
--jobs 1`` does, with no result or trace cache on disk (child.py).  The
round's outputs -- every cell's cycles and instructions, and the
CodePack images the cells ran from -- are checked here against
computations made apart from the sweep:

* a seeded sample, one cell per architecture of the grid (so every
  pipeline shape and every cache/bus/latency variant), is simulated
  again with the execute-driven models (no trace replay, no column
  kernels); cycles and instructions must match exactly;
* every CodePack cell must execute as many instructions as the native
  cell of the same benchmark on the same architecture;
* every image must decompress back to its program's text.
"""

import random

import common

SCALE = 0.05
SETUPS = 10           # set-up-only processes timed for setup_s


def cell_label(cell):
    bench, arch, codepack = cell
    return [bench, arch.name, codepack is not None]


def sample_indices(cells, seed):
    """One seeded cell index per architecture of the grid."""
    rng = random.Random(seed)
    by_arch = {}
    for index, (_bench, arch, _cp) in enumerate(cells):
        by_arch.setdefault(arch.name, []).append(index)
    return [rng.choice(by_arch[name]) for name in sorted(by_arch)]


def reference_sample(cells, seed, programs):
    """Execute-driven results for the sampled cells:
    ``{cell index: (cycles, instructions)}``."""
    from repro.codepack.compressor import compress_program
    from repro.sim.machine import prepare, simulate

    prepared = {}
    out = {}
    for index in sample_indices(cells, seed):
        bench, arch, codepack = cells[index]
        program = programs[bench]
        if bench not in prepared:
            prepared[bench] = (prepare(program), compress_program(program))
        static, image = prepared[bench]
        result = simulate(program, arch, codepack=codepack,
                          image=image if codepack is not None else None,
                          static=static, replay=None, vec=False)
        out[index] = (result.cycles, result.instructions)
    return out


def check_round(cells, output, reference, texts):
    """Failed operations of one round: one per wrong cell, one per
    image that does not decompress to its program's text."""
    from repro.codepack.decompressor import decompress_program
    from repro.codepack.errors import DecompressionError
    from repro.tools.container import ContainerError, parse_image

    got = output["cells"]
    if len(got) != len(cells):
        return len(cells) + len(texts)
    bad = set()
    native = {}
    for index, (cell, row) in enumerate(zip(cells, got)):
        if row[:3] != cell_label(cell):
            bad.add(index)
        elif not row[2]:
            native[(row[0], row[1])] = row[4]
    for index, row in enumerate(got):
        if index in reference and tuple(row[3:5]) != reference[index]:
            bad.add(index)
        if row[2] and native.get((row[0], row[1]), row[4]) != row[4]:
            bad.add(index)
    failed = len(bad)
    for bench, text in texts.items():
        blob = output["images"].get(bench)
        try:
            words = decompress_program(parse_image(bytes.fromhex(blob)))
        except (TypeError, ValueError, ContainerError, DecompressionError):
            words = None
        if words != text:
            failed += 1
    return failed


def run(seed, seconds, trace, work):
    from repro.eval.experiments import ALL_EXPERIMENTS, sweep_cells
    from repro.eval.runner import Workbench
    from repro.workloads.suite import build_benchmark

    rounds = common.ChildRounds(
        lambda i: ["sweep", "--scale", repr(SCALE)], seconds, trace, work,
        SETUPS)

    cells = sweep_cells(list(ALL_EXPERIMENTS), wb=Workbench(scale=SCALE))
    programs = {bench: build_benchmark(bench, SCALE)
                for bench in sorted({c[0] for c in cells})}
    reference = reference_sample(cells, seed, programs)
    texts = {bench: programs[bench].text
             for bench in sorted({c[0] for c in cells if c[2] is not None})}
    attempted = failed = 0
    for output in rounds.outputs:
        attempted += len(cells) + len(texts)
        failed += check_round(cells, output, reference, texts)

    notes = ["paper-sweep: %d rounds, scale %s, %d cells/round"
             % (len(rounds.outputs), SCALE, len(cells)), rounds.note()]
    if trace:
        return attempted, failed, rounds.layer_metrics({}), notes
    return attempted, failed, rounds.metrics(), notes
