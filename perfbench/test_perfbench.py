"""Tests of the benchmark itself: run with ``python -m pytest perfbench``.

They use small inputs, so they check the benchmark's mechanics — wrapper
transparency, self-time arithmetic, the printed metric names, failure
counting — not the program's speed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import workloads  # noqa: E402
from layers import LAYERS, TARGETS, WAIT_SPANS, layer_of  # noqa: E402
from tracing import Recorder, install, span_problems, sweep_self_times  # noqa: E402

from repro import PreprocessJob, Scenario  # noqa: E402
from repro.serve.service import PreprocessService  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _small_fleet(seed):
    return workloads.FleetFaults(seed, num_jobs=40)


# -- wrappers ---------------------------------------------------------------


def _outputs():
    """Digests of one small run through every traced layer."""
    fleet = _small_fleet(5)
    return (
        workloads.run_result_digest(Scenario(model="RM1", system="Disagg").run()),
        PreprocessJob(model="RM1", num_rows=600, num_shards=3, seed=4)
        .run(parallel=False).digest,
        fleet._simulator(*fleet.day_inputs(0)).run().digest,
    )


def test_wrappers_are_transparent_and_removable():
    untraced = _outputs()
    originals = {
        target.attr: getattr(__import__(target.module, fromlist=["_"]),
                             target.attr.split(".")[0])
        for target in TARGETS
    }
    recorder = Recorder("test")
    with install(recorder, TARGETS):
        traced = _outputs()
    assert traced == untraced
    assert len(recorder) > 0
    names = {name for _, _, name, *_ in recorder.spans()}
    assert {"api.scenario", "core.make_worker", "ops.transform",
            "dataio.encode", "fleet.simulator", "faults.check"} <= names
    # every wrapper is gone again
    for target in TARGETS:
        module = __import__(target.module, fromlist=["_"])
        owner = getattr(module, target.attr.split(".")[0])
        assert owner is originals[target.attr]
        if "." in target.attr:
            method = owner.__dict__[target.attr.split(".")[1]]
            assert not hasattr(method, "__wrapped__")
        else:
            assert not hasattr(owner, "__wrapped__")


def test_served_job_digest_matches_serial_run_under_tracing(tmp_path):
    job = PreprocessJob(model="RM1", num_rows=256, seed=9)
    recorder = Recorder("serve")
    with install(recorder, TARGETS):
        with PreprocessService(spool_dir=str(tmp_path), index_fsync=True) as service:
            record = service.wait(service.submit(job).job_id, timeout=60)
    assert record.digest == job.run(parallel=False).digest
    assert recorder.counters["serve.index.bytes"] > 0


# -- self-time arithmetic ----------------------------------------------------


def test_sweep_splits_concurrent_instants_and_reports_leftover():
    # thread 1: X [0, 4] with child Y [1, 2]; thread 2: Z [3, 6]; window [0, 8]
    spans = [
        (0, -1, "serve.x", 0.0, 4.0, 1),
        (1, 0, "ops.y", 1.0, 2.0, 1),
        (2, -1, "dataio.z", 3.0, 6.0, 2),
    ]
    owned, leftover = sweep_self_times(spans, 0.0, 8.0)
    assert owned == pytest.approx({"serve.x": 2.5, "ops.y": 1.0, "dataio.z": 2.5})
    assert leftover == pytest.approx(2.0)
    # a wait span's instants are idle: they go to the leftover
    owned, leftover = sweep_self_times(spans, 0.0, 8.0, frozenset({"dataio.z"}))
    assert owned == pytest.approx({"serve.x": 3.0, "ops.y": 1.0})
    assert leftover == pytest.approx(4.0)


def test_span_problems_flags_a_broken_tree():
    spans = [
        (0, -1, "serve.x", 1.0, 4.0, 1),
        (1, 0, "ops.y", 3.0, 5.0, 1),  # ends after its parent
        (2, 0, "ops.z", 2.0, 3.0, 2),  # parent on another thread
        (3, 9, "ops.w", 2.0, 3.0, 1),  # unknown parent
        (4, -1, "faults.v", 7.0, 9.0, 1),  # past the window
    ]
    problems = span_problems(spans, 0.0, 8.0)
    assert len(problems) == 4
    assert span_problems(spans[:1], 0.0, 8.0) == []


def test_traced_run_self_times_add_up_to_the_traced_wall():
    workload = workloads.PreprocessRm5(seed=2, num_rows=900, num_shards=3)
    recorder = Recorder("arith")
    traced = workload.traced(recorder, lambda rec: install(rec, TARGETS))
    assert traced.failed == 0
    spans = recorder.spans()
    assert span_problems(spans, traced.start, traced.end) == []
    owned, leftover = recorder.self_times(traced.start, traced.end, WAIT_SPANS)
    wall = traced.end - traced.start
    assert leftover >= 0
    assert all(seconds >= -1e-9 for seconds in owned.values())
    assert sum(owned.values()) + leftover == pytest.approx(wall, rel=1e-9)
    assert {layer_of(name) for name in owned} <= set(LAYERS)
    # children never exceed their parent: inclusive >= self, per name
    inclusive = recorder.inclusive()
    for name, seconds in owned.items():
        assert seconds <= inclusive[name][1] + 1e-9


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert workloads.tail([5.0]) == (5.0, "max", 1)
    assert workloads.tail([5.0, 4.0]) == (5.0, "max", 2)
    # below 100 samples a tenth of them, at least one, lie beyond it
    assert workloads.tail([3.0, 1.0, 2.0]) == (2.0, "p66.7", 3)
    assert workloads.tail([float(i) for i in range(1, 9)]) == (7.0, "p87.5", 8)
    assert workloads.tail([float(i) for i in range(1, 31)]) == (27.0, "p90.0", 30)
    values = [float(i) for i in range(1, 101)]
    assert workloads.tail(values) == (90.0, "p90.0", 100)
    values = [float(i) for i in range(1, 271)]
    assert workloads.tail(values) == (260.0, "p96.3", 270)
    # with rounds, the median of the rounds' tails
    rounds = [[1.0, 2.0, 3.0], [4.0, 5.0, 60.0], [7.0, 8.0, 9.0]]
    measured = workloads.Measured(latencies_ms=sum(rounds, []), rounds_ms=rounds)
    value, label, n = measured.tail()
    assert (value, n) == (5.0, 9) and "median over 3 rounds" in label


# -- the command --------------------------------------------------------------


def _main(monkeypatch, capsys, workload, trace):
    monkeypatch.setattr(run, "build", lambda name, seed: workload)
    monkeypatch.setattr(run, "SETUP_CALLS_PER_REPETITION", 1)
    code = run.main(["--workload", workload.name, "--seed", "3",
                     "--seconds", "0.01", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(monkeypatch, capsys, trace, section):
    code, result = _main(monkeypatch, capsys, _small_fleet(3), trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {entry["name"]: entry["unit"] for entry in _spec()[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        layers = sum(metrics[f"layer.{layer}.self_s"] for layer in LAYERS)
        assert layers + metrics["layer.leftover_s"] == pytest.approx(
            metrics["trace.wall_s"], rel=1e-6)
        assert metrics["faults.check.calls"] > 0


def test_wrong_reference_digest_is_a_failure(monkeypatch, capsys):
    wrong = {"RM1/PreSto/8gpu": "0" * 64}
    measured = workloads.DesSweep(1, wrong, models=("RM1",),
                                  systems=("PreSto",)).measure(0.0)
    assert (measured.attempted, measured.failed) == (1, 1)
    workload = workloads.DesSweep(1, wrong, models=("RM1",), systems=("PreSto",))
    code, result = _main(monkeypatch, capsys, workload, 0)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_committed_reference_matches_the_program():
    with open(os.path.join(HERE, "reference.json")) as handle:
        reference = json.load(handle)
    measured = workloads.DesSweep(5, reference, models=("RM1",),
                                  systems=("Disagg", "PreSto")).measure(0.0)
    assert (measured.attempted, measured.failed) == (2, 0)


def test_meta_layer_map_names_known_metrics():
    with open(os.path.join(HERE, "meta.json")) as handle:
        meta = json.load(handle)
    spec = _spec()
    per_layer = {entry["name"] for entry in spec["per_layer"]}
    end_to_end = {entry["name"] for entry in spec["end_to_end"]} | {"failed"}
    workload_names = {entry["name"] for entry in spec["workloads"]}
    assert set(meta["workloads"]) == workload_names == set(run.WORKLOADS)
    for entry in meta["layer_map"]:
        assert entry["layer_metric"] in per_layer
        assert set(entry["moves"]) <= end_to_end
        assert entry["workload"] in workload_names
    assert meta["default_seed"] != meta["held_out_seed"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "des-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
