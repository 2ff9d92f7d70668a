"""The experiment smoke registry and the entry point every smoke shares.

``SMOKES`` in ``benchmarks/_util.py`` is the one place an experiment smoke
is declared.  This file pins it — ids, scripts and default budgets — and
checks that every registered artifact is committed and its full sweep
ignored; ``tests/test_ci_pipeline.py`` checks that the CI upload glob,
the step-summary renderers and the smoke stage cover every registered
smoke.  ``bench_main`` is exercised with a fake sweep (no simulation):
artifact choice, budget, failures, exit code.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
from _util import SMOKES, bench_main, smoke_for  # noqa: E402

SCRIPT = SMOKES[0].script


class TestRegistry:
    def test_experiments_scripts_and_budgets_are_pinned(self):
        assert [(s.id, s.script, s.budget_env, s.budget_seconds) for s in SMOKES] == [
            ("e13", "bench_e13_workload.py", "E13_SMOKE_BUDGET_SECONDS", 20.0),
            ("e14", "bench_e14_churn.py", "E14_SMOKE_BUDGET_SECONDS", 20.0),
            ("e15", "bench_e15_control.py", "E15_SMOKE_BUDGET_SECONDS", 20.0),
            ("e16", "bench_e16_scale.py", "E16_SMOKE_BUDGET_SECONDS", 20.0),
            ("e17", "bench_e17_faults.py", "E17_SMOKE_BUDGET_SECONDS", 20.0),
            ("e18", "bench_e18_telemetry.py", "E18_SMOKE_BUDGET_SECONDS", 40.0),
            ("e19", "bench_e19_autoscale.py", "E19_SMOKE_BUDGET_SECONDS", 40.0),
            ("e20", "bench_e20_operator.py", "E20_SMOKE_BUDGET_SECONDS", 40.0),
        ]

    def test_artifact_names_derive_from_the_id(self):
        for smoke in SMOKES:
            assert smoke.artifact == f"BENCH_{smoke.id}.json"
            assert smoke.full_artifact == f"BENCH_{smoke.id}_full.json"
            assert (REPO_ROOT / "benchmarks" / smoke.script).is_file()
            assert smoke_for(smoke.script) is smoke

    def test_every_artifact_is_tracked_and_every_full_sweep_ignored(self):
        tracked = subprocess.run(
            ["git", "ls-files"], cwd=REPO_ROOT, capture_output=True, text=True, check=True
        ).stdout.split()
        for smoke in SMOKES:
            assert smoke.artifact in tracked, f"{smoke.artifact} is not committed"
            ignored = subprocess.run(
                ["git", "check-ignore", "--no-index", "-q", smoke.full_artifact], cwd=REPO_ROOT
            )
            assert ignored.returncode == 0, f"{smoke.full_artifact} is not gitignored"


class TestBenchMain:
    @staticmethod
    def run(argv, failures=(), sweep_seconds=0.0):
        seen = {}

        def sweep(smoke):
            seen["smoke"] = smoke
            time.sleep(sweep_seconds)
            return "result"

        def report(result, json_path):
            seen["result"] = result
            seen["json_path"] = json_path
            return list(failures), "all claims hold"

        return bench_main(SCRIPT, "fake experiment", sweep, report, argv), seen

    def test_smoke_writes_the_committed_artifact(self, capsys):
        code, seen = self.run(["--smoke"])
        assert code == 0
        assert seen == {
            "smoke": True,
            "result": "result",
            "json_path": REPO_ROOT / SMOKES[0].artifact,
        }
        assert "OK: all claims hold (" in capsys.readouterr().out

    def test_full_mode_writes_the_full_artifact(self):
        code, seen = self.run([])
        assert code == 0
        assert seen["smoke"] is False
        assert seen["json_path"] == REPO_ROOT / SMOKES[0].full_artifact

    def test_failures_print_fail_and_exit_1(self, capsys):
        code, _ = self.run(["--smoke"], failures=["band missed", "rerun differs"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL: band missed" in out
        assert "FAIL: rerun differs" in out
        assert "OK:" not in out

    def test_over_budget_prints_fail_and_exits_1(self, capsys):
        code, _ = self.run(["--smoke", "--budget-seconds", "0.01"], sweep_seconds=0.05)
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL: sweep took" in out
        assert "over the 0.0s budget" in out

    def test_under_budget_passes(self):
        code, _ = self.run(["--smoke", "--budget-seconds", "60"])
        assert code == 0

    def test_removed_flags_are_rejected(self):
        for flag in (["--json", "x.json"], ["--no-json"], ["--steps", "2"], ["--record-overhead"]):
            with pytest.raises(SystemExit):
                self.run(["--smoke", *flag])

    def test_unregistered_script_is_rejected(self):
        with pytest.raises(KeyError):
            smoke_for("bench_unregistered.py")
        assert smoke_for(str(REPO_ROOT / "benchmarks" / SCRIPT)) is SMOKES[0]
