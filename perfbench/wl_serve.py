"""``serve-mixed``: closed-loop reads and writes against one server.

One ``python -m repro.tools.serve serve`` process serves the run.  Its
decoded-group cache (``--group-cache``) holds fewer groups than the read
working set, so reads both hit the cache and decode.  The benchmark
process drives it closed-loop over two connections -- a decompression
client, like the paper's fetch unit, waits for the code it asked for
before asking for more:

* reads ask for 8-group spans of the six registered suite images, drawn
  Zipf-skewed (s = 1.1) from 32 evenly spread spans per image: the span
  length, skew and working set per image of ``repro.serve.loadgen``;
* a fixed number of requests in each round are writes: compresses of a
  pool of fresh seeded programs, sharing the server's codec executor
  with the reads.  The repository has no measured read/write mix to
  copy, so the counts are chosen so that reads and writes each take
  about half of the round's request time (README.md, "serve-mixed
  traffic mix"); every run prints the share it saw.  The pool stays
  below the server's 64-image registry bound, so writes never evict
  the read set.

One round is a fixed number of requests; round and set-up times are
scaled by the echo probe (``common.EchoProbe``), which runs while the
server process is stopped (SIGSTOP), so nothing the server does between
requests slows the probe and is scaled away.  Checks, made on the
client after each round: every read must return the slice of source
text for its span, computed from the programs built here, and every
write's container must parse and decode, client side, to the submitted
words.
"""

import asyncio
import bisect
import hashlib
import os
import random
import signal
import subprocess
import sys
import time

import common
import spans
from repro.codepack.compressor import BLOCK_INSTRUCTIONS, GROUP_BLOCKS
from repro.serve.metrics import percentile

GROUP_WORDS = BLOCK_INSTRUCTIONS * GROUP_BLOCKS

SPAN_GROUPS = 8         # groups per read (loadgen's span)
ZIPF_S = 1.1            # popularity skew (loadgen's skew)
SPANS_PER_IMAGE = 32    # read spans per image (loadgen's working_set)
GROUP_CACHE = 768       # decoded groups the server may keep: about half
                        # of the ~1,500-group read working set
ROUND_READS = 240       # per round, over both connections
ROUND_WRITES = 32       # per round; reads and writes take about half
                        # of the request time each
WRITE_POOL = 40         # distinct write programs (registry bound is 64)
CONNECTIONS = 2
SERVER_SETUPS = 5
PROBES = 9              # host-speed probes between measurements


def build_inputs(seed):
    from repro.workloads.generators import CallHeavyParams, build_call_heavy
    from repro.workloads.suite import BENCHMARK_NAMES, build_benchmark

    programs = [build_benchmark(name) for name in BENCHMARK_NAMES]
    writes = [build_call_heavy("write%d" % i, CallHeavyParams(
        n_funcs=64, hot_funcs=16, iterations=10, seed=seed * 100 + i))
        for i in range(WRITE_POOL)]
    return programs, writes


class Server:
    """One server process on an ephemeral port."""

    def __init__(self, work, index):
        self.log_path = os.path.join(work, "server%d.log" % index)
        self.proc = None
        self.port = None

    def pause(self):
        """Stop the server (every thread of it) until :meth:`resume`."""
        os.kill(self.proc.pid, signal.SIGSTOP)
        # wait4, not waitpid: should the server have exited, its rusage
        # is what stop() reports.
        _pid, status, self.usage = os.wait4(self.proc.pid, os.WUNTRACED)
        if not os.WIFSTOPPED(status):
            self.proc = None
            raise RuntimeError("server exited")

    def resume(self):
        os.kill(self.proc.pid, signal.SIGCONT)

    def start(self, timeout=60.0):
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.tools.serve", "serve",
                 "--host", "127.0.0.1", "--port", "0",
                 "--group-cache", str(GROUP_CACHE)],
                stdout=log, stderr=subprocess.STDOUT,
                env=common.child_env(), cwd=common.ROOT)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path) as log:
                for line in log:
                    if line.startswith("repro.serve listening on"):
                        address = line.split()[3]
                        self.port = int(address.rsplit(":", 1)[1])
                        return self
            if os.waitpid(self.proc.pid, os.WNOHANG) != (0, 0):
                self.proc.returncode = -1
                self.proc = None
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError("server did not start")

    def stop(self, timeout=3.0):
        """SIGTERM (drain) and reap; returns the peak RSS in MB.

        The server does not always exit on SIGTERM -- now and then it
        hangs, sometimes after printing "shutdown complete" -- so after
        *timeout* seconds it is killed.
        """
        if self.proc is None:
            return 0.0
        # Not Popen.poll(): that would reap the process and lose its
        # rusage.  An exited, unreaped process still takes the signal.
        os.kill(self.proc.pid, signal.SIGTERM)
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                os.kill(self.proc.pid, signal.SIGKILL)
                _pid, status, usage = os.wait4(self.proc.pid, 0)
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                break
            time.sleep(0.02)
        self.proc = None
        return usage.ru_maxrss / 1024.0


class Loader:
    """The closed-loop client side of one server."""

    def __init__(self, port, programs, writes, rng):
        self.port = port
        self.programs = programs
        self.writes = writes
        self.rng = rng
        self.clients = []
        self.digests = []
        self.write_index = 0
        catalogue = []
        for index, program in enumerate(programs):
            # As repro.serve.loadgen places its working set.
            n_groups = -(-len(program.text) // GROUP_WORDS)
            n_starts = min(SPANS_PER_IMAGE, n_groups - SPAN_GROUPS + 1)
            stride = max(1, (n_groups - SPAN_GROUPS) // n_starts)
            catalogue.extend((index, (i * stride)
                              % (n_groups - SPAN_GROUPS + 1))
                             for i in range(n_starts))
        rng.shuffle(catalogue)   # the seed decides which spans are hot
        self.catalogue = catalogue
        weights = [1.0 / (rank + 1) ** ZIPF_S
                   for rank in range(len(catalogue))]
        total = 0.0
        self.cumulative = []
        for w in weights:
            total += w
            self.cumulative.append(total)

    async def connect(self):
        from repro.serve.client import ServeClient

        for _ in range(CONNECTIONS):
            self.clients.append(await ServeClient(
                "127.0.0.1", self.port).connect())

    async def register(self):
        for program in self.programs:
            digest, _blob = await self.clients[0].compress(
                program.text, text_base=program.text_base,
                name=program.name)
            self.digests.append(digest)

    async def close(self):
        for client in self.clients:
            await client.close()

    def plan(self):
        """The next round's requests: ``("read", index, start)`` or
        ``("write", program index)``.  The writes are spread evenly and
        alternate between the connections, so every round, and each
        connection within it, carries the same load."""
        total = ROUND_READS + ROUND_WRITES
        stride = total // max(1, ROUND_WRITES)
        write_slots = {i * stride + i % CONNECTIONS
                       for i in range(ROUND_WRITES)}
        requests = []
        for slot in range(total):
            if slot in write_slots:
                requests.append(("write", self.write_index % WRITE_POOL))
                self.write_index += 1
            else:
                pick = bisect.bisect_left(
                    self.cumulative, self.rng.random() * self.cumulative[-1])
                requests.append(("read",) + self.catalogue[pick])
        return requests

    async def _one(self, client, request):
        if request[0] == "read":
            _kind, index, start = request
            return await client.decompress(
                digest=self.digests[index], group_start=start,
                group_count=SPAN_GROUPS, timeout=30.0)
        program = self.writes[request[1]]
        return await client.compress(program.text,
                                     text_base=program.text_base,
                                     name=program.name, timeout=30.0)

    async def round(self, requests, tracer=None):
        """Run *requests* closed-loop; returns ``(wall, results)`` where
        each result is ``(request, seconds, reply or exception)``."""
        results = [None] * len(requests)

        async def connection(client, slots):
            for slot in slots:
                opened = tracer.open("serve.request") if tracer else None
                t0 = time.perf_counter()
                try:
                    reply = await self._one(client, requests[slot])
                except Exception as exc:  # counted as a failed operation
                    reply = exc
                results[slot] = (requests[slot], time.perf_counter() - t0,
                                 reply)
                if tracer:
                    tracer.close(opened)

        t0 = time.perf_counter()
        await asyncio.gather(*[
            connection(client, range(i, len(requests), CONNECTIONS))
            for i, client in enumerate(self.clients)])
        return time.perf_counter() - t0, results

    async def metrics(self):
        return await self.clients[0].metrics()


def check(results, programs, writes):
    """Failed operations of one round."""
    from repro.codepack.decompressor import decompress_program
    from repro.codepack.errors import DecompressionError
    from repro.tools.container import ContainerError, parse_image

    failed = 0
    for request, _seconds, reply in results:
        if isinstance(reply, Exception):
            failed += 1
        elif request[0] == "read":
            _kind, index, start = request
            text = programs[index].text
            if reply != list(text[start * GROUP_WORDS:
                                  (start + SPAN_GROUPS) * GROUP_WORDS]):
                failed += 1
        else:
            digest, blob = reply
            try:
                words = decompress_program(parse_image(blob))
            except (ValueError, ContainerError, DecompressionError):
                words = None
            if (words != list(writes[request[1]].text)
                    or digest != hashlib.sha256(blob).digest()):
                failed += 1
    return failed


def server_values(before, after, client_p50_ms, rounds):
    """Per-layer serve metrics from two in-band metrics snapshots taken
    *rounds* rounds apart; counts are per round."""
    batches = after["batch"]["batches"] - before["batch"]["batches"]
    requests = after["batch"]["requests"] - before["batch"]["requests"]
    groups = after["batch"]["groups"] - before["batch"]["groups"]
    cache_a, cache_b = after["gauges"]["cache"], before["gauges"]["cache"]
    hits = cache_a["hits"] - cache_b["hits"]
    misses = cache_a["misses"] - cache_b["misses"]
    return {
        "serve.in_server_share":
            100.0 * after["latency"]["p50_ms"] / client_p50_ms,
        "serve.cache_hit_frac": hits / (hits + misses) if hits + misses
        else 0.0,
        "serve.group_decodes": groups / rounds,
        "serve.groups_per_batch": groups / batches if batches else 0.0,
        "serve.requests_per_batch": requests / batches if batches else 0.0,
        "serve.queue_peak": after["gauges"]["queue_peak"],
        "serve.compress_batches": (after["batch"]["compress_batches"]
                                   - before["batch"]["compress_batches"])
        / rounds,
        "serve.errors": (sum(after["errors"].values())
                         - sum(before["errors"].values())),
        "serve.rejected": after["rejected"] - before["rejected"],
    }


async def start_and_register(work, index, programs, writes, rng):
    spawned = time.perf_counter()
    server = Server(work, index).start()
    loader = Loader(server.port, programs, writes, rng)
    try:
        await loader.connect()
        await loader.register()
    except BaseException:
        await loader.close()
        server.stop()
        raise
    return time.perf_counter() - spawned, server, loader


async def run_async(seed, seconds, trace, work):
    programs, writes = build_inputs(seed)
    # Two processes answering each other: the echo probe sees both CPUs
    # and wake-up latency, which the interpreter-only probe misses.
    echo = common.EchoProbe()
    try:
        return await measure(seed, seconds, trace, work, programs, writes,
                             common.HostSpeed(PROBES, echo,
                                              echo.REFERENCE_S))
    finally:
        echo.close()


async def measure(seed, seconds, trace, work, programs, writes, host):
    setups, raw_setups, servers = [], [], []

    def gap():
        """Probe the host with every live server stopped."""
        live = [server for server in servers if server.proc is not None]
        for server in live:
            server.pause()
        try:
            host.gap()
        finally:
            for server in live:
                if server.proc is not None:
                    server.resume()

    try:
        for i in range(SERVER_SETUPS):
            gap()
            setup, server, loader = await start_and_register(
                work, i, programs, writes, random.Random(seed))
            servers.append(server)
            gap()
            raw_setups.append(setup)
            setups.append(host.scaled(setup))
            if i < SERVER_SETUPS - 1:
                await loader.close()
                server.stop()
        before = await loader.metrics()
        walls, untraced, traced = [], [], []
        latencies = {"read": [], "write": []}
        attempted = failed = 0
        started = time.perf_counter()
        while common.keep_going(started, seconds) or (
                trace and not traced):
            requests = loader.plan()
            tracing = trace and (len(untraced) + len(traced)) % 2 == 1
            tracer = spans.Tracer() if tracing else None
            wall, results = await loader.round(requests, tracer)
            gap()
            if tracer is not None:
                covered = spans.covered([(s[3], s[4])
                                          for s in tracer.export()])
                traced.append((wall, {"serve.request": covered},
                               dict(tracer.counts)))
            else:
                walls.append(host.scaled(wall))
                untraced.append(wall)
                for request, secs, _reply in results:
                    latencies[request[0]].append(secs * 1000.0)
            attempted += len(results)
            failed += check(results, programs, writes)
        after = await loader.metrics()
        await loader.close()
    finally:
        # The last server served the rounds; the others are stopped
        # already and report 0.
        for server in servers:
            peak = server.stop()

    reads, writes_ms = latencies["read"], latencies["write"]
    every = reads + writes_ms
    busy = sum(every) or 1.0
    notes = [
        "serve-mixed: %d rounds of %d reads and %d writes"
        % (len(walls) + len(traced), ROUND_READS, ROUND_WRITES),
        "  " + host.note(),
        "  raw: read %.0f req/s  read p50 %.3f ms  read p99 %.3f ms  "
        "write p50 %.3f ms  round%s  set-up%s" % (
            len(reads) / sum(untraced), percentile(reads, 0.5),
            percentile(reads, 0.99), percentile(writes_ms, 0.5),
            common.raw_vs_scaled(untraced, walls),
            common.raw_vs_scaled(raw_setups, setups)),
        "  request time: reads %.1f %%, writes %.1f %%"
        % (100.0 * sum(reads) / busy, 100.0 * sum(writes_ms) / busy)]
    if trace:
        values = server_values(before, after, percentile(every, 0.5),
                               len(walls) + len(traced))
        return attempted, failed, common.layer_metrics(
            traced, values, untraced), notes
    metrics = {"setup_s": common.median(setups),
               "wall_s": common.median(walls),
               "peak_rss_mb": peak}
    return attempted, failed, metrics, notes


def run(seed, seconds, trace, work):
    return asyncio.run(run_async(seed, seconds, trace, work))
