"""Structural validation of the CI pipeline and its local counterparts.

``actionlint`` is not part of the offline toolchain, so tier-1 carries a
lightweight stand-in: the workflow must parse as YAML, trigger on pushes and
pull requests, cover Python 3.10–3.12 with pip caching, call the staged
``scripts/check.sh`` entry points, and gate/upload every BENCH artifact of
the smoke registry (``SMOKES`` in ``benchmarks/_util.py``).  The same file
checks that the stages the workflow calls actually exist in ``check.sh``,
that the smoke stage runs every registered smoke under its budget, and
that the ruff configuration the lint stage enforces is present in
``pyproject.toml``.
"""

from __future__ import annotations

import fnmatch
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

yaml = pytest.importorskip("yaml")

REPO_ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"
CHECK_SH = REPO_ROOT / "scripts" / "check.sh"
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
import smoke as smoke_stage  # noqa: E402
from _util import SMOKES  # noqa: E402


@pytest.fixture(scope="module")
def workflow() -> dict:
    assert WORKFLOW.is_file(), "CI workflow missing"
    return yaml.safe_load(WORKFLOW.read_text())


def triggers(workflow: dict) -> dict:
    # PyYAML parses the bare `on:` key as boolean True.
    return workflow.get("on") or workflow[True]


class TestWorkflow:
    def test_triggers_on_push_and_pull_request(self, workflow):
        on = triggers(workflow)
        assert "push" in on
        assert "pull_request" in on

    def test_three_parallel_jobs_call_the_stages(self, workflow):
        jobs = workflow["jobs"]
        assert {"lint", "tier1", "smoke"} <= set(jobs)

        def job_commands(job):
            return [step.get("run", "") for step in job["steps"]]

        assert any("check.sh --lint" in cmd for cmd in job_commands(jobs["lint"]))
        assert any("check.sh --tier1" in cmd for cmd in job_commands(jobs["tier1"]))
        assert any("check.sh --smoke" in cmd for cmd in job_commands(jobs["smoke"]))
        # The stages parallelize: no job waits on another.
        assert all("needs" not in job for job in jobs.values())

    def test_tier1_matrix_covers_310_through_312(self, workflow):
        matrix = workflow["jobs"]["tier1"]["strategy"]["matrix"]
        assert matrix["python-version"] == ["3.10", "3.11", "3.12"]

    def test_pip_caching_is_on_for_every_job(self, workflow):
        for name, job in workflow["jobs"].items():
            setup = [
                step
                for step in job["steps"]
                if str(step.get("uses", "")).startswith("actions/setup-python")
            ]
            assert setup, f"job {name!r} does not set up python"
            with_block = setup[0]["with"]
            assert with_block.get("cache") == "pip", f"job {name!r} lacks pip caching"
            assert with_block.get("cache-dependency-path") == "requirements-dev.txt"

    def test_smoke_job_uploads_every_bench_artifact(self, workflow):
        steps = workflow["jobs"]["smoke"]["steps"]
        uploads = [s for s in steps if str(s.get("uses", "")).startswith("actions/upload-artifact")]
        assert uploads, "smoke job uploads no artifacts"
        globs = uploads[0]["with"]["path"].split()
        for smoke in SMOKES:
            assert any(fnmatch.fnmatchcase(smoke.artifact, glob) for glob in globs), (
                f"smoke job does not upload {smoke.artifact}"
            )
        assert any("ci_summary" in s.get("run", "") for s in steps), "no step-summary step"

    def test_workflow_steps_are_well_formed(self, workflow):
        for name, job in workflow["jobs"].items():
            assert "runs-on" in job, f"job {name!r} has no runner"
            for step in job["steps"]:
                assert ("run" in step) != ("uses" in step), (
                    f"job {name!r} has a step with both/neither of run and uses"
                )


def run_fake_smoke_stage(monkeypatch, budgets):
    """``benchmarks/smoke.py``'s main with every subprocess faked and only
    the ``budgets`` overrides in the environment.

    Returns the commands it ran and the artifacts it handed to the gate.
    """
    commands, gated = [], []

    def fake_run(command, **_kwargs):
        commands.append(command)
        return SimpleNamespace(returncode=0)

    def fake_gate(artifacts):
        gated.extend(artifacts)
        return []

    monkeypatch.setattr(smoke_stage, "subprocess", SimpleNamespace(run=fake_run))
    monkeypatch.setattr(smoke_stage, "gate_failures", fake_gate)
    for smoke in SMOKES:
        monkeypatch.delenv(smoke.budget_env, raising=False)
    for name, value in budgets.items():
        monkeypatch.setenv(name, value)
    assert smoke_stage.main() == 0
    return commands, gated


class TestCheckShStages:
    def test_stage_flags_exist(self, monkeypatch):
        script = CHECK_SH.read_text()
        for flag in ("--tier1", "--smoke", "--lint"):
            assert flag in script
        # The smoke stage is the registry driver, and it byte-gates every
        # registered artifact.
        assert "python benchmarks/smoke.py" in script
        _, gated = run_fake_smoke_stage(monkeypatch, {})
        assert gated == [smoke.artifact for smoke in SMOKES]

    def test_smoke_stage_runs_every_budgeted_bench(self, monkeypatch):
        """Each experiment smoke runs in its own process under its own
        wall-clock budget knob, defaulting to the registry's budget."""
        overridden = SMOKES[-1]
        commands, _ = run_fake_smoke_stage(monkeypatch, {overridden.budget_env: "7"})
        assert len(commands) == len(SMOKES)
        for smoke, command in zip(SMOKES, commands):
            assert command[0] == sys.executable
            assert Path(command[1]) == REPO_ROOT / "benchmarks" / smoke.script
            assert Path(command[1]).is_file()
            budget = "7" if smoke is overridden else str(smoke.budget_seconds)
            assert command[2:] == ["--smoke", "--budget-seconds", budget]

    def test_smoke_gate_rejects_an_untracked_artifact(self):
        failures = smoke_stage.gate_failures(["BENCH_untracked.json"])
        assert len(failures) == 1
        assert "not tracked by git" in failures[0]

    def test_ci_summary_renders_every_artifact(self):
        summary_path = REPO_ROOT / "scripts" / "ci_summary.py"
        spec = importlib.util.spec_from_file_location("ci_summary_for_pipeline", summary_path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for smoke in SMOKES:
            assert smoke.id in module.RENDERERS, f"ci_summary.py ignores {smoke.artifact}"
        # The step summary points readers at the docs layer for column
        # definitions and regeneration commands.
        assert "docs/BENCHMARKS.md" in summary_path.read_text()

    def test_lint_stage_runs_the_docs_link_checker(self):
        script = CHECK_SH.read_text()
        assert "check_docs_links.py" in script, "lint stage skips the docs link checker"

    def test_requirements_file_exists_for_pip_cache(self):
        requirements = (REPO_ROOT / "requirements-dev.txt").read_text()
        for package in ("pytest", "hypothesis", "numpy", "ruff"):
            assert package in requirements


class TestDocsLinks:
    """The docs link checker the lint stage runs: clean on the real tree,
    and actually capable of flagging a dead relative link."""

    def _checker(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "check_docs_links", REPO_ROOT / "scripts" / "check_docs_links.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_repo_docs_have_no_dead_links(self):
        checker = self._checker()
        assert checker.dead_links(REPO_ROOT) == []

    def test_checker_flags_a_dead_relative_link(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "See [architecture](docs/ARCHITECTURE.md) and [gone](docs/missing.md).\n"
        )
        (tmp_path / "docs" / "ARCHITECTURE.md").write_text(
            "Back to the [README](../README.md); [web](https://example.com) "
            "and [anchor](#section) are skipped.\n"
        )
        checker = self._checker()
        failures = checker.dead_links(tmp_path)
        assert len(failures) == 1
        assert "docs/missing.md" in failures[0]
    def test_pyproject_configures_ruff(self):
        pyproject = (REPO_ROOT / "pyproject.toml").read_text()
        assert "[tool.ruff]" in pyproject
        assert "[tool.ruff.lint]" in pyproject

    def test_fallback_lint_is_clean(self):
        """The offline stand-in for ruff must keep passing (compile +
        unused-import audit over the whole tree)."""
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "lint_fallback.py")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout
