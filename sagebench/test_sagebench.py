"""The benchmark's own tests, at a tiny size.

    python -m pytest sagebench/test_sagebench.py -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Every workload shrunk to a few hours; work files under tmp_path."""
    monkeypatch.setattr(workloads, "STEADY_HOURS", 30)
    monkeypatch.setattr(workloads, "STEADY_WARM_PIPELINES", 5)
    monkeypatch.setattr(workloads, "CONTENTION_BURSTS", 3)
    monkeypatch.setattr(workloads, "CONTENTION_BURST", 10)
    monkeypatch.setattr(workloads, "DURABLE_HOURS", 23)
    monkeypatch.setattr(workloads, "SNAPSHOT_EVERY", 10)
    monkeypatch.setattr(workloads, "RECOVERIES", 1)
    specs = dict(workloads.SPECS)
    specs["contention"] = dataclasses.replace(specs["contention"], pre_ingest=50)
    specs["durable"] = dataclasses.replace(specs["durable"], pre_ingest=200)
    monkeypatch.setattr(workloads, "SPECS", specs)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    # The untraced side of a traced run in-process, so it sees the
    # shrunk sizes too.
    monkeypatch.setattr(run, "reference_child", run.reference)
    return specs


def _result(capsys, argv):
    """Run the benchmark in-process: (final JSON object, whole stdout)."""
    assert run.main(argv) == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, workload, trace):
    result, _ = _result(
        capsys,
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)],
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in declared:
        assert metric["better"] in ("lower", "higher")
        value = result["metrics"][metric["name"]]["value"]
        assert isinstance(value, float) and np.isfinite(value)
        if not trace:
            assert value > 0.0


def test_layer_map_names_only_declared_metrics():
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    workloads_ = {w["name"] for w in BENCHMARK["workloads"]}
    for entry in layer_map["layers"]:
        assert set(entry["metrics"]) <= per_layer, entry
        for metric, workload in entry["moves"] + entry.get("unchanged", []):
            assert metric in end_to_end | per_layer and workload in workloads_
    for prediction in layer_map["predictions"]:
        for metric, workload in prediction["moves"] + prediction["unchanged"]:
            assert metric in end_to_end | per_layer and workload in workloads_
    mapped = {name for entry in layer_map["layers"] for name in entry["metrics"]}
    assert per_layer - mapped <= {
        "trace.coverage",
        "trace.overhead_frac",
        "workload.release_hours_mean",
        "durability.recover_ms",
        "durability.disk_mb",
    }


def test_same_seed_same_inputs_and_release_time(tiny, tmp_path):
    spec = tiny["steady"]
    a, b, c = spec.traffic(7), spec.traffic(7), spec.traffic(8)
    assert np.array_equal(a.arrivals, b.arrivals)
    assert np.array_equal(a.complexities, b.complexities)
    assert a.sage_seed == b.sage_seed
    assert not np.array_equal(a.complexities, c.complexities)
    first = workloads.run_episode(spec, a, tmp_path)
    again = workloads.run_episode(spec, b, tmp_path)
    other = workloads.run_episode(spec, c, tmp_path)
    assert first.release_hours_mean == again.release_hours_mean
    assert first.digest == again.digest
    assert other.release_hours_mean != first.release_hours_mean


def test_digest_check_fires_on_a_state_perturbing_wrapper(tiny, capsys, monkeypatch):
    def perturb(args, kwargs):
        table = args[0]
        table.matrix[args[1]] += 1e-9  # leaks budget into a settled row
        return 0.0

    targets = [
        (name, owner, attr, perturb, None, "cells")
        if name == "reservations.release"
        else (name, owner, attr, before, after, counter)
        for name, owner, attr, before, after, counter in layers.TARGETS
    ]
    monkeypatch.setattr(layers, "TARGETS", targets)
    result, out = _result(
        capsys, ["--workload", "steady", "--seed", "3", "--seconds", "0", "--trace", "1"]
    )
    assert result["correct"] is False
    assert "traced digest" in out


def test_traced_self_times_add_up_to_the_hour_wall(tiny, tmp_path):
    spec = tiny["contention"]
    with layers.LayerTracer() as tracer:
        episode = workloads.run_episode(spec, spec.traffic(1), tmp_path, tracer)
    coverage, advance_s, self_sum_s = tracer.hour_coverage()
    assert self_sum_s == pytest.approx(advance_s, rel=1e-9)
    assert advance_s == pytest.approx(sum(episode.hour_walls), rel=0.05)
    assert 0.0 < coverage < 1.0
    # Wrappers are removed afterwards.
    assert not hasattr(workloads.Sage.advance, "__wrapped__")


def test_recovery_check_fires_on_a_diverging_recovery(tiny, tmp_path, monkeypatch):
    spec = tiny["durable"]
    real_recover = workloads.Sage.recover

    def lossy_recover(self, pipelines=()):
        report = real_recover(self, pipelines)
        self.reservation_table.matrix[0] += 1e-9
        return report

    monkeypatch.setattr(workloads.Sage, "recover", lossy_recover)
    episode = workloads.run_episode(spec, spec.traffic(2), tmp_path)
    assert any("recovered digest" in problem for problem in episode.problems)
    assert not any(tmp_path.iterdir())  # the WAL directory is cleaned up


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "sagebench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "sagebench/run.py", "--workload", "steady", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
