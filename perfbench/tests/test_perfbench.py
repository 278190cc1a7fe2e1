"""The benchmark's own tests: each workload at a small size, and
corrupted outputs counted as failed operations rather than crashes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import signal
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                "src"))

import common  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import wl_codec  # noqa: E402
import wl_explore  # noqa: E402
import wl_serve  # noqa: E402
import wl_sweep  # noqa: E402

END_TO_END = {name for name, _unit in common.end_to_end_units()}


@pytest.fixture
def work():
    path = common.make_workdir()
    yield path
    common.remove_workdir(path)


def run_main(capsys, workload, seed):
    """Run the command as ``run.py`` would; returns its result line."""
    handler = signal.getsignal(signal.SIGTERM)
    try:
        assert run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0.1", "--trace", "0"]) == 0
    finally:
        signal.signal(signal.SIGTERM, handler)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def assert_clean(result):
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == END_TO_END
    assert all(m["value"] > 0 for m in metrics.values())


def assert_one_failure(result):
    assert not result["correct"] and result["failed"] == 1


def corrupting_child(monkeypatch, corrupt):
    """Make ``run_child`` hand every round's output through *corrupt*."""
    real = common.run_child

    def run_child(argv, out_path, host, **kwargs):
        output, setup, round_, peak = real(argv, out_path, host, **kwargs)
        if "--setup-only" not in argv:
            corrupt(output)
        return output, setup, round_, peak

    monkeypatch.setattr(common, "run_child", run_child)


# -- spans --------------------------------------------------------------------

def test_self_time_subtracts_nested_and_overlapping_children():
    exported = [
        [0, "round", None, 0.0, 10.0],
        [1, "sim.price", 0, 1.0, 5.0],
        [2, "sim.profile", 1, 2.0, 3.0],
        [3, "serve.request", 0, 4.0, 8.0],   # overlaps span 1
    ]
    selfs = spans.self_times(exported)
    assert selfs["round"] == pytest.approx(10.0 - 7.0)
    assert selfs["sim.price"] == pytest.approx(3.0)
    assert selfs["sim.profile"] == pytest.approx(1.0)
    assert spans.covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)


def test_instrument_wraps_import_sites_and_restores():
    from repro.codepack import compressor, dictionary

    original = dictionary.build_dictionaries
    tracer = spans.Tracer()
    tracer.instrument(dictionary, "build_dictionaries", "codepack.dictionary")
    assert compressor.build_dictionaries is not original
    compressor.compress_words([1, 2, 3, 1, 2, 3])
    tracer.restore()
    assert compressor.build_dictionaries is original
    assert tracer.counts["codepack.dictionary.calls"] == 1


# -- paper-sweep --------------------------------------------------------------

def test_paper_sweep_small(monkeypatch, capsys):
    monkeypatch.setattr(wl_sweep, "SCALE", 0.01)
    result = run_main(capsys, "paper-sweep", 3)
    assert_clean(result)
    assert result["attempted"] >= 309


def test_paper_sweep_changed_cycle_count_is_one_failure(monkeypatch, capsys):
    monkeypatch.setattr(wl_sweep, "SCALE", 0.01)

    def corrupt(output):
        # A cell the seed-3 reference sample simulates again.
        from repro.eval.experiments import ALL_EXPERIMENTS, sweep_cells
        from repro.eval.runner import Workbench

        cells = sweep_cells(list(ALL_EXPERIMENTS),
                            wb=Workbench(scale=0.01))
        index = wl_sweep.sample_indices(cells, 3)[0]
        output["cells"][index][3] += 1

    corrupting_child(monkeypatch, corrupt)
    result = run_main(capsys, "paper-sweep", 3)
    assert_one_failure(result)
    assert result["attempted"] >= 309


# -- explore-search -----------------------------------------------------------

def test_frontier_check_spots_a_dominated_member():
    output = {
        "visited": [{"key": "a", "objectives": [1.0, 2.0]},
                    {"key": "b", "objectives": [2.0, 1.0]},
                    {"key": "c", "objectives": [2.0, 2.0]}],
        "frontier": [["a", [1.0, 2.0]], ["b", [2.0, 1.0]]],
    }
    assert wl_explore.check_frontier(output)
    output["frontier"].append(["c", [2.0, 2.0]])
    assert not wl_explore.check_frontier(output)


def test_explore_search_small_and_dominated_member(monkeypatch, capsys):
    monkeypatch.setattr(wl_explore, "SCALE", 0.01)
    monkeypatch.setattr(wl_explore, "BUDGET", 6)
    result = run_main(capsys, "explore-search", 4)
    assert_clean(result)
    assert result["attempted"] == 7

    def corrupt(output):
        # A visited cell now dominates the first frontier member.
        key, values = output["frontier"][0]
        row = next(r for r in output["visited"] if r["key"] != key)
        row["objectives"] = [v - 1.0 for v in values]

    corrupting_child(monkeypatch, corrupt)
    result = run_main(capsys, "explore-search", 4)
    assert_one_failure(result)
    assert result["attempted"] == 7


# -- codec-roundtrip ----------------------------------------------------------

def test_codec_roundtrip_small(monkeypatch, capsys):
    monkeypatch.setattr(wl_codec, "WINDOWS", 8)
    monkeypatch.setattr(wl_codec, "BUILD_SETUPS", 1)
    result = run_main(capsys, "codec-roundtrip", 5)
    assert_clean(result)
    assert result["attempted"] == 6 + 8 + 1


def test_codec_flipped_window_word_is_one_failure(monkeypatch, capsys):
    monkeypatch.setattr(wl_codec, "WINDOWS", 8)
    monkeypatch.setattr(wl_codec, "BUILD_SETUPS", 1)
    real = wl_codec.one_round

    def one_round(programs, windows):
        images, blobs, words, decoded, stages = real(programs, windows)
        group = list(decoded[0][0])
        group[0] ^= 1
        decoded[0][0] = tuple(group)
        return images, blobs, words, decoded, stages

    monkeypatch.setattr(wl_codec, "one_round", one_round)
    result = run_main(capsys, "codec-roundtrip", 5)
    assert_one_failure(result)
    assert result["attempted"] == 6 + 8 + 1


# -- serve-mixed --------------------------------------------------------------

def test_serve_mixed_small_and_flipped_read_word(monkeypatch, capsys):
    monkeypatch.setattr(wl_serve, "ROUND_READS", 40)
    monkeypatch.setattr(wl_serve, "ROUND_WRITES", 8)
    monkeypatch.setattr(wl_serve, "SERVER_SETUPS", 1)
    monkeypatch.setattr(wl_serve, "WRITE_POOL", 4)
    result = run_main(capsys, "serve-mixed", 6)
    assert_clean(result)
    assert result["attempted"] == 48

    real = wl_serve.Loader._one
    flipped = []

    async def one(self, client, request):
        reply = await real(self, client, request)
        if request[0] == "read" and not flipped:
            reply[5] ^= 0x80000000
            flipped.append(request)
        return reply

    monkeypatch.setattr(wl_serve.Loader, "_one", one)
    result = run_main(capsys, "serve-mixed", 6)
    assert flipped
    assert_one_failure(result)
    assert result["attempted"] == 48


def test_traced_run_reports_every_per_layer_metric(monkeypatch, work):
    monkeypatch.setattr(wl_codec, "WINDOWS", 8)
    monkeypatch.setattr(wl_codec, "BUILD_SETUPS", 1)
    _attempted, failed, metrics, _notes = wl_codec.run(7, 0.1, True, work)
    assert failed == 0
    assert set(metrics) == {name for name, _ in common.per_layer_names()}
    shares = [metrics[common.share_name(s)] for s in common.SHARE_SPANS]
    assert sum(shares) + metrics["unattributed_share"] == pytest.approx(100)
    assert metrics["codepack.compress_share"] > 0


def test_benchmark_json_lists_what_the_runs_print():
    import json

    root = os.path.dirname(os.path.dirname(HERE))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == common.end_to_end_units()
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == common.per_layer_names()


def test_slices_are_scaled_by_the_gaps_on_both_sides():
    gaps = [[0.010, 0.010], [0.020, 0.020], [0.010, 0.010]]
    # Slice 0 sits between probes of median 15 ms, so at the 10-ms
    # reference it counts two thirds; likewise slice 1.
    assert common.scale_slices([3.0, 1.5], gaps, 0.010) \
        == pytest.approx(2.0 + 1.0)
    with pytest.raises(RuntimeError):
        common.scale_slices([3.0], gaps, 0.010)


def test_slicer_probes_only_while_the_child_is_stopped():
    import subprocess
    import time

    marks_r, marks_w = os.pipe()
    acks_r, acks_w = os.pipe()
    busy = ("import os, time\n"
            "def spin(seconds):\n"
            "    t = time.perf_counter()\n"
            "    while time.perf_counter() - t < seconds:\n"
            "        pass\n"
            "spin(0.3)\n"
            "os.write(%d, b's'); os.read(%d, 1)\n"
            "spin(1.2)\n"
            "os.write(%d, b'e'); os.read(%d, 1)\n"
            % (marks_w, acks_r, marks_w, acks_r))
    states = []

    class Host:
        reference = 0.010
        proc = None

        def gap(self):
            if self.proc is not None:
                with open("/proc/%d/stat" % self.proc.pid) as handle:
                    states.append(
                        handle.read().rsplit(")", 1)[1].split()[0])
            return [0.010]

    host = Host()
    slicer = common.Slicer(host)
    slicer.resumed = time.perf_counter()
    host.proc = proc = subprocess.Popen([sys.executable, "-c", busy],
                                        pass_fds=(marks_w, acks_r))
    os.close(marks_w)
    os.close(acks_r)
    with os.fdopen(marks_r, "rb", buffering=0) as marks, \
            os.fdopen(acks_w, "wb", buffering=0) as acks:
        slicer.run(proc, marks, acks, time.monotonic() + 60)
    assert proc.wait(60) == 0
    assert states and set(states) == {"T"}     # stopped at every probe
    assert len(slicer.gaps) == len(slicer.slices) + 1
    (setup_raw, setup_ref), (round_raw, round_ref) = slicer.phases()
    assert setup_raw == pytest.approx(setup_ref)
    assert round_raw == pytest.approx(round_ref)
    assert setup_raw == pytest.approx(0.35, abs=0.25)
    assert round_raw == pytest.approx(1.2, abs=0.3)
    assert len(slicer.slices) >= 2 + 2       # set-up and round sliced
