"""``codec-roundtrip``: the suite through the batch codec, in process.

One round compresses the six suite programs with ``compress_many``,
writes every image with ``dump_image`` and reads it back with
``parse_image``, decompresses the parsed images with
``decompress_many``, then decodes seeded random-access group windows
with ``decode_groups_batch``, shaped like the server's micro-batches
(1 to 32 groups of one image).  Whole-image decode runs wide kernel
lanes; the windows run narrow ones.

Checks, made apart from the codec: every program must come back
unchanged, every window must equal the matching slice of the source
text, and for one seeded program the per-bit reference compressor
(``repro.codepack.reference``) must give the same code bytes and ratio.
"""

import random
import resource
import time

import common
import spans

WINDOWS = 96          # group windows per round
MAX_WINDOW = 32       # groups per window, at most
BUILD_SETUPS = 3      # input builds timed for setup_s
PROBES = 5            # host-speed probes between measurements


def build_inputs():
    from repro.workloads.suite import BENCHMARK_NAMES, build_benchmark

    return [build_benchmark(name) for name in BENCHMARK_NAMES]


def make_windows(rng, programs, group_words):
    """Seeded ``(program index, first group, group count)`` windows."""
    windows = []
    for _ in range(WINDOWS):
        index = rng.randrange(len(programs))
        n_groups = -(-len(programs[index].text) // group_words)
        count = rng.randint(1, MAX_WINDOW)
        first = rng.randrange(max(1, n_groups - count + 1))
        windows.append((index, first, min(count, n_groups - first)))
    return windows


def one_round(programs, windows):
    """One timed round; returns its outputs and per-stage seconds."""
    from repro.codepack import batch
    from repro.tools import container

    stages = {}
    t0 = time.perf_counter()
    images = batch.compress_many(programs)
    t1 = time.perf_counter()
    blobs = [container.dump_image(image) for image in images]
    t2 = time.perf_counter()
    parsed = [container.parse_image(blob) for blob in blobs]
    t3 = time.perf_counter()
    words = batch.decompress_many(parsed)
    t4 = time.perf_counter()
    decoded = [batch.decode_groups_batch(
        [(parsed[index], g) for g in range(first, first + count)])
        for index, first, count in windows]
    t5 = time.perf_counter()
    stages.update(compress=t1 - t0, dump=t2 - t1, parse=t3 - t2,
                  decompress=t4 - t3, windows=t5 - t4, round=t5 - t0)
    return images, blobs, words, decoded, stages


def check_round(programs, windows, words, decoded, group_words):
    """Failed operations: one per program that does not round-trip, one
    per window whose groups differ from the source slice."""
    failed = sum(1 for program, got in zip(programs, words)
                 if list(got) != list(program.text))
    for (index, first, count), groups in zip(windows, decoded):
        text = programs[index].text
        expect = [tuple(text[g * group_words:(g + 1) * group_words])
                  for g in range(first, first + count)]
        if [g if isinstance(g, Exception) else tuple(g)
                for g in groups] != expect:
            failed += 1
    return failed


def check_reference(programs, images, rng):
    """The per-bit reference compressor agrees on one seeded program."""
    from repro.codepack.reference import compress_program_reference

    index = rng.randrange(len(programs))
    ref = compress_program_reference(programs[index])
    return (ref.code_bytes == images[index].code_bytes
            and ref.compression_ratio == images[index].compression_ratio)


def instrument(tracer):
    from repro.codepack import batch, dictionary
    from repro.tools import container

    def count_compress(args, kwargs, images):
        return {"codepack.compressed_bytes":
                sum(im.compressed_bytes for im in images)}

    def count_dump(args, kwargs, blob):
        return {"tools.container.bytes": len(blob)}

    def count_groups(args, kwargs, groups):
        return {"codepack.groups_decoded": len(groups)}

    tracer.instrument(dictionary, "build_dictionaries",
                      "codepack.dictionary")
    tracer.instrument(batch, "compress_many", "codepack.compress",
                      count_compress)
    tracer.instrument(container, "dump_image", "tools.container.dump",
                      count_dump)
    tracer.instrument(container, "parse_image", "tools.container.parse")
    tracer.instrument(batch, "decompress_many", "codepack.decompress")
    tracer.instrument(batch, "decode_groups_batch", "codepack.group_decode",
                      count_groups)


def run(seed, seconds, trace, work):
    from repro.codepack.compressor import BLOCK_INSTRUCTIONS, GROUP_BLOCKS

    group_words = BLOCK_INSTRUCTIONS * GROUP_BLOCKS
    host = common.HostSpeed(PROBES)
    host.gap()
    setups, raw_setups = [], []
    for _ in range(BUILD_SETUPS):
        t0 = time.perf_counter()
        programs = build_inputs()
        raw = time.perf_counter() - t0
        host.gap()
        raw_setups.append(raw)
        setups.append(host.scaled(raw))
    rng = random.Random(seed)
    n_insts = sum(len(p.text) for p in programs)

    stage_rows, untraced, traced = [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    while common.keep_going(started, seconds) or (
            trace and not traced):
        windows = make_windows(rng, programs, group_words)
        tracing = trace and (len(untraced) + len(traced)) % 2 == 1
        tracer = spans.Tracer() if tracing else None
        if tracer is not None:
            instrument(tracer)
            opened = tracer.open("round")
        images, _blobs, words, decoded, stages = one_round(programs,
                                                           windows)
        if tracer is not None:
            tracer.close(opened)
            tracer.restore()
        host.gap()
        stages["scaled"] = host.scaled(stages["round"])
        stages["group_rate"] = (sum(c for _i, _f, c in windows)
                                / stages["windows"])
        if tracer is not None:
            traced.append((stages["round"],
                           spans.self_times(tracer.export()),
                           dict(tracer.counts)))
        else:
            stage_rows.append(stages)
            untraced.append(stages["round"])
        attempted += len(programs) + len(windows)
        failed += check_round(programs, windows, words, decoded,
                              group_words)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted += 1
    if not check_reference(programs, images, rng):
        failed += 1

    ratio = (sum(im.compressed_bytes for im in images)
             / sum(im.original_bytes for im in images))
    med = {key: common.median([row[key] for row in stage_rows])
           for key in stage_rows[0]} if stage_rows else {}
    notes = ["codec-roundtrip: %d rounds, %d programs, %d instructions, "
             "%d windows/round" % (len(stage_rows) + len(traced),
                                   len(programs), n_insts, WINDOWS),
             "  " + host.note()]
    if med:
        notes.append(
            "  raw: round%s  set-up%s  compress %.3f Minst/s  "
            "decompress %.3f Minst/s  group decodes %.0f groups/s  "
            "compression ratio %.4f"
            % (common.raw_vs_scaled([row["round"] for row in stage_rows],
                                    [row["scaled"] for row in stage_rows]),
               common.raw_vs_scaled(raw_setups, setups),
               n_insts / med["compress"] / 1e6,
               n_insts / med["decompress"] / 1e6,
               med["group_rate"], ratio))
    if trace:
        return attempted, failed, common.layer_metrics(
            traced, {}, untraced), notes
    metrics = {"setup_s": common.median(setups),
               "wall_s": med["scaled"],
               "peak_rss_mb": peak}
    return attempted, failed, metrics, notes
