"""Tests for the benchmark itself, at tiny sizes (a few seconds per workload).

They catch a wrapper that a by-name import bypasses (an entry point that
reads zero calls on the workload that must use it), self times that do not
fit in the traced wall time, and metrics that drift from ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

REQUEST_PATH = {
    "workload.search",
    "workload.route",
    "workload.render_viewport",
    "workload.localize",
    "queue.process",
    "network.round_trip",
    "discovery.discover_at",
    "discovery.discover_region",
    "discovery.discover_along",
    "dns.resolve",
    "spatialindex.from_point",
    "spatialindex.cells_at_level",
    "spatialindex.cover_polygon",
    "geometry.haversine_distance",
    "services.request",
    "mapserver.search",
    "mapserver.route",
    "mapserver.get_tile",
    "routing.query",
    "worldgen.build_scenario",
}
CONTROL_SIDE = {
    "churn.apply_until",
    "faults.apply_until",
    "faults.inject_round_load",
    "control.set_weight",
    "telemetry.begin",
    "telemetry.record_request",
    "telemetry.observe_servers",
    "telemetry.flush",
    "telemetry.finalize",
    "autoscale.begin",
    "autoscale.observe",
    "operator.handle",
    "operator.request",
    "operator.apply_batch",
}
EXPECTED_ENTRIES = {
    "exact-fleet": REQUEST_PATH,
    "cohort-scale": REQUEST_PATH | {"queue.phantom_arrivals"},
    "control-storm": REQUEST_PATH | CONTROL_SIDE,
}
"""Entry points each workload must call; every other layer may read zero."""


def _python(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def _sample(workload: str, trace: int) -> dict:
    options = ["--workload", workload, "--seed", "7", "--scale", "tiny", "--trace", str(trace)]
    done = _python(str(HERE / "sample.py"), *options)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return {workload: _sample(workload, trace=1) for workload in EXPECTED_ENTRIES}


def test_every_workload_has_expectations():
    assert set(EXPECTED_ENTRIES) == set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(EXPECTED_ENTRIES))
def test_every_expected_entry_point_is_hit(traced, workload):
    entries = traced[workload]["trace"]["entries"]
    assert not sorted(name for name in EXPECTED_ENTRIES[workload] if entries[name] == 0)


def test_phantom_jobs_are_counted_on_cohort_scale(traced):
    trace = traced["cohort-scale"]["trace"]
    assert trace["entries"]["queue.phantom_arrivals"] > 0
    assert trace["counters"]["queue.phantom_arrivals"] > trace["entries"]["queue.phantom_arrivals"]


@pytest.mark.parametrize("workload", sorted(EXPECTED_ENTRIES))
def test_self_times_fit_in_the_traced_wall_time(traced, workload):
    sample = traced[workload]
    self_times = [sample["trace"]["layers"][layer]["self_s"] for layer in LAYERS]
    assert min(self_times) >= 0.0
    assert sum(self_times) <= sample["wall_s"]


@pytest.mark.parametrize("workload", sorted(EXPECTED_ENTRIES))
def test_outputs_pass_the_check(traced, workload):
    assert traced[workload]["failures"] == []


@pytest.mark.parametrize("workload", sorted(EXPECTED_ENTRIES))
def test_speed_probe_time_is_left_out(traced, workload):
    sample = traced[workload]
    assert sample["probes"] >= 1 and sample["probe_s"] > 0.0
    assert 0.0 < sample["setup_s"] + sample["run_s"] < sample["wall_s"]


def test_tracing_does_not_change_simulated_behaviour(traced):
    assert _sample("control-storm", trace=0)["digest"] == traced["control-storm"]["digest"]


def test_tracer_restores_every_binding():
    import repro.discovery.discoverer as discoverer
    import repro.geometry.point as point
    from repro.spatialindex.cellid import CellId

    originals = (point.haversine_distance, discoverer.cells_at_level, CellId.__dict__["from_point"])
    with Tracer():
        assert point.haversine_distance is not originals[0]
        assert discoverer.cells_at_level is not originals[1]
    assert (point.haversine_distance, discoverer.cells_at_level, CellId.__dict__["from_point"]) == originals


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    options = ["--workload", "control-storm", "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    done = _python("perfbench/run.py", *options, "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == declared
    assert all(isinstance(metric["value"], (int, float)) for metric in result["metrics"].values())


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.fullmatch(metric["name"]) and metric["unit"]
    bounds = {metric["name"]: metric["bound"] for metric in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = [sys.executable, "perfbench/run.py", "--workload", "exact-fleet", "--seed", "7", "--seconds", "1"]
    done = subprocess.run([*command, "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "correct" not in done.stdout
