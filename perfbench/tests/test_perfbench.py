"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def signelim():
    run.pin_threads()
    package, _ = run.import_signelim()
    return package


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _first_pass_inputs(workload, seed, directory):
    items = workloads.schedule(workload, seed, 1)[0]
    for slot, variant in items:
        workloads.write_inputs(workload, slot, variant, directory)
    return items


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_input_files(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (first, second, other):
        d.mkdir()
    items = _first_pass_inputs(workload, 7, first)
    assert _first_pass_inputs(workload, 7, second) == items
    assert _files(first) == _files(second)
    _first_pass_inputs(workload, 8, other)
    assert _files(other) != _files(first)


def _smoke_slots(workload):
    return [workloads.slot_named(workload, n) for n in workload.smoke]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_passes(name, signelim, tmp_path):
    workload = workloads.WORKLOADS[name]
    runner = run.Runner(signelim, workload, tmp_path, run.load_expected(name))
    results = run.run_passes(runner, workloads.schedule(workload, 5, 2, _smoke_slots(workload)))
    assert len(results) == 2 * len(workload.smoke)
    assert [r.error for r in results] == [""] * len(results)


def test_traced_and_untraced_digests_match(signelim, tmp_path):
    workload = workloads.WORKLOADS["analyze_wide"]
    slots = _smoke_slots(workload)
    runner = run.Runner(signelim, workload, tmp_path, run.load_expected(workload.name))
    passes = workloads.schedule(workload, 11, 1, slots)
    plain = run.run_passes(runner, passes)
    tracer = tracing.Tracer()
    runner.tracer = tracer
    tracer.install()
    tracer.on = True
    try:
        traced = run.run_passes(runner, passes)
    finally:
        tracer.on = False
        tracer.uninstall()
    assert [(r.slot, r.variant, r.digest) for r in traced] == [
        (r.slot, r.variant, r.digest) for r in plain
    ]
    assert all(r.digest for r in plain)
    assert tracer.layer_metrics()["cli.main.calls"][0] == len(slots)
    assert 0 < tracer.overhead < sum(r.latency for r in traced)
    assert signelim.cli.main is not None and not hasattr(signelim.cli.main, "__wrapped__")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_full_runs_time_the_same_ops_for_every_seed(name):
    workload = workloads.WORKLOADS[name]
    passes = workload.passes(BENCHMARK["run_seconds"])
    assert passes == workload.variants
    assert workload.warm_up_variant < workloads.VARIANTS
    every = {(s.name, v) for s in workload.slots for v in range(workload.variants)}
    for seed in (1, 2, 3):
        ops = [(s.name, v) for items in workloads.schedule(workload, seed, passes) for s, v in items]
        assert len(ops) == len(every) and set(ops) == every


def test_missing_entry_point_is_reported_absent(signelim, monkeypatch):
    monkeypatch.delattr(signelim.counting, "count_eliminated_oracle")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["counting.count_eliminated_oracle"]
    assert "counting.count_eliminated_oracle.calls" not in tracer.layer_metrics()


def test_metric_names_are_valid_and_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert "setup_s" in e2e
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_reports_every_declared_metric(trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "analyze_wide", "--seed", "2", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
