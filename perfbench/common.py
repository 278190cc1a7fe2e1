"""Shared plumbing: paths, child processes, statistics, metric tables."""

import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
#: Scratch space inside the checkout (listed in .gitignore).
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def make_workdir():
    os.makedirs(WORK_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)


def remove_workdir(path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass  # another run still uses it


def run_child(argv, out_path, host, timeout=170.0):
    """Run ``child.py`` with *argv*, timed from here in slices.

    Returns ``(output, setup, round, maxrss_mb)``: *output* is the
    child's JSON output; *setup* and *round* are ``(raw seconds,
    reference seconds)`` of the set-up (process start until the child
    is ready) and of the round (``None`` for a set-up-only or traced
    child), measured by a :class:`Slicer` probing with *host*; and
    ``maxrss_mb`` is the child's peak resident set size, which the child
    reads from its own rusage as it exits.
    """
    err_path = out_path + ".err"
    marks_r, marks_w = os.pipe()
    acks_r, acks_w = os.pipe()
    slicer = Slicer(host)
    with open(err_path, "wb") as err:
        try:
            slicer.resumed = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, CHILD] + argv
                + ["--pause-fds", "%d,%d" % (marks_w, acks_r),
                   "--out", out_path],
                stdout=subprocess.DEVNULL, stderr=err, env=child_env(),
                cwd=ROOT, pass_fds=(marks_w, acks_r))
        finally:
            os.close(marks_w)
            os.close(acks_r)
        deadline = time.monotonic() + timeout
        try:
            with os.fdopen(marks_r, "rb", buffering=0) as marks, \
                    os.fdopen(acks_w, "wb", buffering=0) as acks:
                slicer.run(proc, marks, acks, deadline)
            proc.wait(max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("child %s timed out" % argv[0])
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0:
        with open(err_path) as handle:
            raise RuntimeError("child %s failed:\n%s"
                               % (argv[0], handle.read()[-4000:]))
    with open(out_path) as handle:
        output = json.load(handle)
    setup, round_ = slicer.phases()
    return output, setup, round_, output["maxrss_kb"] / 1024.0


class Slicer:
    """Times a child process from outside, in slices.

    From the child's start until it is ready, and again from the start
    to the end of a timed round, this process stops the child (SIGSTOP)
    every ``SETUP_SLICE_S`` or ``ROUND_SLICE_S`` seconds, and whenever
    the child marks a milestone on the marks pipe: ``r`` (ready, no
    timed round follows), ``s`` (ready, a timed round starts) and ``e``
    (the round ended).  After a mark the child waits for an ack.  While
    the child -- every thread of it -- is stopped, this process probes
    the host; then it sends SIGCONT.  A slice runs from one SIGCONT to
    the next stop, so no probe runs while the program does, and no
    probe time is in a slice.  Every stop comes from here, so each is
    answered by exactly one ``waitpid``.
    """

    SETUP_SLICE_S = 0.1
    ROUND_SLICE_S = 0.5

    def __init__(self, host):
        self.host = host
        self.slices = []
        self.gaps = [host.gap()]    # probed before the child starts
        self.ready = None           # slices before the child was ready
        self.timed = False          # a timed round follows "ready"
        self.resumed = None         # last SIGCONT, while slicing

    def run(self, proc, marks, acks, deadline):
        """Serve marks and slices until the child closes the pipe."""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise subprocess.TimeoutExpired("child", 0)
            wait = remaining
            if self.resumed is not None:
                period = (self.SETUP_SLICE_S if self.ready is None
                          else self.ROUND_SLICE_S)
                wait = min(wait, self.resumed + period
                           - time.perf_counter())
            if select.select([marks], [], [], max(0.0, wait))[0]:
                mark = marks.read(1)
                if not mark:
                    return      # the child is exiting
                if not self._stop(proc):
                    return
                if mark in (b"r", b"s"):
                    self.ready = len(self.slices)
                    self.timed = mark == b"s"
                self._cont(proc, running=mark == b"s")
                acks.write(b"a")
            elif self.resumed is not None:
                if not self._stop(proc):
                    return
                self._cont(proc, running=True)

    def phases(self):
        """``(setup, round)``, each ``(raw, reference seconds)``; the
        round is None when the child timed none."""
        k = self.ready
        setup = (sum(self.slices[:k]), scale_slices(
            self.slices[:k], self.gaps[:k + 1], self.host.reference))
        if not self.timed:
            return setup, None
        return setup, (sum(self.slices[k:]), scale_slices(
            self.slices[k:], self.gaps[k:], self.host.reference))

    def _stop(self, proc):
        """Stop the child, end the running slice and probe; False if the
        child has exited instead."""
        ended = time.perf_counter()
        os.kill(proc.pid, signal.SIGSTOP)
        _pid, status = os.waitpid(proc.pid, os.WUNTRACED)
        if not os.WIFSTOPPED(status):
            proc.returncode = os.waitstatus_to_exitcode(status)
            return False
        if self.resumed is not None:
            self.slices.append(ended - self.resumed)
        self.gaps.append(self.host.gap())
        return True

    def _cont(self, proc, running):
        """Resume the child; *running* starts the next slice."""
        self.resumed = time.perf_counter() if running else None
        os.kill(proc.pid, signal.SIGCONT)


class ChildRounds:
    """Cold rounds of ``child.py``, each in a fresh process.

    *argv(i)* gives round *i*'s arguments.  First *setups* set-up-only
    processes time the set-up, then rounds run until *seconds* are
    nearly spent; with *trace*, every second round is traced (at least
    one).  Every child is timed from here in slices (:class:`Slicer`),
    with probes while it is stopped, so every time is also available in
    reference seconds.
    """

    PROBES = 2         # host-speed probes at each stop of a child

    def __init__(self, argv, seconds, trace, work, setups):
        self.host = HostSpeed(self.PROBES)
        self.setups = []      # reference seconds
        self.raw_setups = []  # seconds
        self.walls = []       # reference seconds, untraced rounds
        self.raw_walls = []   # seconds, untraced rounds
        self.rss = []         # MB, untraced rounds
        self.untraced = []    # raw round seconds after set-up
        self.traced = []      # (round seconds, self times, counts)
        self.outputs = []
        out_path = os.path.join(work, "round.json")
        for i in range(setups):
            _output, setup, _round, _peak = run_child(
                argv(i) + ["--setup-only"], "%s.setup%d" % (out_path, i),
                self.host)
            self.raw_setups.append(setup[0])
            self.setups.append(setup[1])
        started = time.perf_counter()
        while keep_going(started, seconds) or (
                trace and not self.traced):
            i = len(self.outputs)
            tracing = trace and i % 2 == 1
            output, setup, round_, peak = run_child(
                argv(i) + (["--trace"] if tracing else []),
                "%s.%d" % (out_path, i), self.host)
            self.raw_setups.append(setup[0])
            self.setups.append(setup[1])
            if tracing:
                self.traced.append((output["done"] - output["ready"],
                                    spans.self_times(output["spans"]),
                                    output["counts"]))
            else:
                self.raw_walls.append(setup[0] + round_[0])
                self.walls.append(setup[1] + round_[1])
                self.rss.append(peak)
                self.untraced.append(round_[0])
            self.outputs.append(output)

    def metrics(self):
        return {"setup_s": median(self.setups),
                "wall_s": median(self.walls),
                "peak_rss_mb": median(self.rss)}

    def layer_metrics(self, values):
        return layer_metrics(self.traced, values, self.untraced)

    def note(self):
        return "  raw wall %s s%s; set-up%s; %s" % (
            " ".join("%.2f" % w for w in self.raw_walls),
            raw_vs_scaled(self.raw_walls, self.walls),
            raw_vs_scaled(self.raw_setups, self.setups), self.host.note())


def median(values):
    return statistics.median(values)


def raw_vs_scaled(raw, scaled):
    """A note comparing the raw and scaled medians of the same times:
    if they part ways, the probes, not only the measured work, moved."""
    if not raw:
        return ""
    return " (median raw %.4f s, scaled %.4f s)" % (median(raw),
                                                   median(scaled))


#: The probe loop's time at the reference interpreter speed.  A time
#: metric is a raw time scaled by ``PROBE_REF_S`` over the median of the
#: probes taken next to it (see README.md, "Steadiness").
PROBE_REF_S = 0.010


def probe_once():
    """One fixed pure-Python loop; its time tracks the host's current
    interpreter speed."""
    started = time.perf_counter()
    total = 0
    table = {}
    for i in range(60000):
        total += (i * 7) % 13
        table[i & 1023] = total
    return time.perf_counter() - started


class HostSpeed:
    """Probe samples taken in the gaps between a run's measurements.

    Call :meth:`gap` before the first measurement and after each one;
    :meth:`scaled` then turns the raw time of the measurement just
    ended into reference seconds, using the probes on both sides of it.
    The host's speed drifts by tens of percent within a minute, and the
    probes track it (see README.md, "Steadiness").  *probe* is a
    zero-argument callable returning seconds, *reference* its time at
    the reference speed.
    """

    def __init__(self, per_gap, probe=probe_once, reference=PROBE_REF_S):
        self.per_gap = per_gap
        self.probe = probe
        self.reference = reference
        self.gaps = []

    def sample(self):
        """One gap's probe times (not recorded)."""
        return [self.probe() for _ in range(self.per_gap)]

    def gap(self):
        """Take and record one gap's probes; returns them."""
        self.gaps.append(self.sample())
        return self.gaps[-1]

    def scaled(self, raw):
        around = self.gaps[-2] + self.gaps[-1]
        return raw * self.reference / median(around)

    def note(self):
        probes = [t for gap in self.gaps for t in gap]
        return ("host probe median %.2f ms, range %.2f-%.2f ms "
                "(reference %.2f ms)" % (1000 * median(probes),
                                         1000 * min(probes),
                                         1000 * max(probes),
                                         1000 * self.reference))


#: The echo probe's helper: answers each byte after the same spin.
_ECHO_HELPER = """
import os
def spin():
    total = 0
    for i in range(400):
        total += (i * 7) % 13
    return total
while True:
    byte = os.read(0, 1)
    if not byte:
        break
    spin()
    os.write(1, byte)
"""


def _spin():
    total = 0
    for i in range(400):
        total += (i * 7) % 13
    return total


class EchoProbe:
    """A miniature closed loop: 25 one-byte round trips to a helper
    process, each side spinning a short loop first.

    For a workload of two processes answering each other, whose speed
    depends on both CPUs and on how fast a waiting process wakes up --
    none of which :func:`probe_once` sees.
    """

    TRIPS = 25
    #: The probe's time at the reference host speed.
    REFERENCE_S = 0.0025

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-c", _ECHO_HELPER],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, bufsize=0)

    def __call__(self):
        started = time.perf_counter()
        for _ in range(self.TRIPS):
            _spin()
            self.proc.stdin.write(b"x")
            self.proc.stdout.read(1)
        return time.perf_counter() - started

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def scale_slices(slices, gaps, reference):
    """Reference seconds of a round timed in *slices* (:class:`Slicer`):
    slice *i* is scaled by the probe gaps *i* and *i* + 1 on both sides
    of it."""
    if len(gaps) != len(slices) + 1:
        raise RuntimeError("%d probe gaps for %d slices"
                           % (len(gaps), len(slices)))
    return sum(seconds * reference / median(gaps[i] + gaps[i + 1])
               for i, seconds in enumerate(slices))


def keep_going(started, seconds):
    """True while a new round may start: until *seconds* have passed
    (the last round runs to its end)."""
    return time.perf_counter() - started < seconds


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Self-time shares of a traced round, by span name (unit %).
SHARE_SPANS = [
    "workloads.build",
    "codepack.dictionary",
    "codepack.compress",
    "codepack.decompress",
    "codepack.group_decode",
    "tools.container.dump",
    "tools.container.parse",
    "sim.predecode",
    "sim.trace",
    "sim.columns",
    "sim.profile",
    "sim.price",
    "eval.exhibit",
    "eval.cache_get",
    "eval.cache_put",
    "explore.propose",
    "explore.price",
    "explore.journal",
    "serve.request",
]

#: Per-layer counters and ratios: name -> unit.
LAYER_VALUES = {
    "workloads.build_calls": "count",
    "codepack.compress_calls": "count",
    "codepack.compressed_bytes": "bytes",
    "codepack.groups_decoded": "count",
    "codepack.groups_per_call": "groups/call",
    "tools.container.bytes": "bytes",
    "sim.trace_insts": "count",
    "sim.profiles": "count",
    "sim.price_calls": "count",
    "sim.cells_priced": "count",
    "sim.sim_insts": "count",
    "sim.price_minst_per_s": "Minst/s",
    "sim.vec_declines": "count",
    "explore.price_calls": "count",
    "explore.duplicate_frac": "ratio",
    "serve.in_server_share": "%",
    "serve.cache_hit_frac": "ratio",
    "serve.group_decodes": "count",
    "serve.groups_per_batch": "groups/batch",
    "serve.requests_per_batch": "req/batch",
    "serve.queue_peak": "count",
    "serve.compress_batches": "count",
    "serve.errors": "count",
    "serve.rejected": "count",
    "wall_traced_s": "s",
    "trace_overhead_share": "%",
}


def share_name(span):
    return span + "_share"


def per_layer_names():
    """Every per-layer metric name with its unit, in print order."""
    names = [(share_name(s), "%") for s in SHARE_SPANS]
    names.append(("unattributed_share", "%"))
    names.extend(LAYER_VALUES.items())
    return names


def layer_metrics(rounds, values, untraced_walls):
    """The per-layer metric table for one traced run.

    *rounds* is a list of ``(round_wall_s, self_times, counts)`` for the
    traced rounds; shares are summed self times over summed round wall,
    counts are per round.  *values* overrides or adds per-layer values
    (per round).  Every metric is present: a layer the workload never
    calls reads 0.
    """
    wall = sum(r[0] for r in rounds)
    selfs = Counter()
    counts = Counter()
    for _wall, self_time, count in rounds:
        selfs.update(self_time)
        counts.update(count)
    n = len(rounds)
    out = {}
    attributed = 0.0
    for span in SHARE_SPANS:
        attributed += selfs.get(span, 0.0)
        out[share_name(span)] = 100.0 * selfs.get(span, 0.0) / wall
    out["unattributed_share"] = 100.0 * (wall - attributed) / wall

    price_self = selfs.get("sim.price", 0.0)
    decoded = counts.get("codepack.groups_decoded", 0)
    decode_calls = counts.get("codepack.group_decode.calls", 0)
    table = {
        "workloads.build_calls": counts.get("workloads.build.calls", 0) / n,
        "codepack.compress_calls":
            counts.get("codepack.compress.calls", 0) / n,
        "codepack.compressed_bytes":
            counts.get("codepack.compressed_bytes", 0) / n,
        "codepack.groups_decoded": decoded / n,
        "codepack.groups_per_call":
            decoded / decode_calls if decode_calls else 0.0,
        "tools.container.bytes": counts.get("tools.container.bytes", 0) / n,
        "sim.trace_insts": counts.get("sim.trace.insts", 0) / n,
        "sim.profiles": counts.get("sim.profiles", 0) / n,
        "sim.price_calls": counts.get("sim.price.calls", 0) / n,
        "sim.cells_priced": counts.get("sim.cells_priced", 0) / n,
        "sim.sim_insts": counts.get("sim.sim_insts", 0) / n,
        "sim.price_minst_per_s": (counts.get("sim.sim_insts", 0) / price_self
                                  / 1e6 if price_self else 0.0),
        "sim.vec_declines": counts.get("sim.vec_declines", 0) / n,
        "explore.price_calls": counts.get("explore.price.calls", 0) / n,
        "wall_traced_s": wall / n,
        "trace_overhead_share": (100.0 * (wall / n - median(untraced_walls))
                                 / median(untraced_walls)),
    }
    table.update(values)
    for name, _unit in LAYER_VALUES.items():
        out[name] = float(table.get(name, 0.0))
    return out


def metric_table(values, units):
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units}


def end_to_end_units():
    return [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]


def emit(correct, attempted, failed, metrics, notes=()):
    """Print the human-readable notes, then the one-line JSON result."""
    for line in notes:
        print(line)
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    sys.stdout.flush()
