#!/usr/bin/env python
"""Run every registered experiment smoke, then byte-gate the artifacts.

``scripts/check.sh --smoke`` is this script: ``python benchmarks/smoke.py``
(no options).  Each smoke in :data:`_util.SMOKES` runs ``--smoke`` in its
own process — process-wide memos stay cold, so the timings are comparable
run to run — under its wall-clock budget: the ``ENN_SMOKE_BUDGET_SECONDS``
environment variable, or the registry's default.  The first failing smoke
stops the stage.  Then every artifact must be tracked by git and reproduce
the committed bytes (``git diff --quiet``).
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections.abc import Iterable
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _util import REPO_ROOT, SMOKES  # noqa: E402


def gate_failures(artifacts: Iterable[str]) -> list[str]:
    """Artifacts that are untracked or differ from their committed bytes."""
    failures = []
    for artifact in artifacts:
        # `git diff` exits 0 for untracked paths, which would make the gate
        # vacuous for an artifact nobody committed — require the baseline.
        tracked = subprocess.run(
            ["git", "ls-files", "--error-unmatch", artifact], cwd=REPO_ROOT, capture_output=True
        )
        if tracked.returncode != 0:
            failures.append(
                f"{artifact} is not tracked by git (the byte-for-byte gate needs a committed baseline)"
            )
            continue
        diff = subprocess.run(["git", "diff", "--quiet", "--", artifact], cwd=REPO_ROOT, capture_output=True)
        if diff.returncode != 0:
            failures.append(f"smoke did not reproduce the committed {artifact}")
    return failures


def main() -> int:
    for smoke in SMOKES:
        budget = os.environ.get(smoke.budget_env, str(smoke.budget_seconds))
        print(f"\n== benchmark smoke: {smoke.id.upper()} {smoke.script} (budget {budget}s) ==", flush=True)
        script = REPO_ROOT / "benchmarks" / smoke.script
        command = [sys.executable, str(script), "--smoke", "--budget-seconds", budget]
        if subprocess.run(command, cwd=REPO_ROOT).returncode != 0:
            return 1
    failures = gate_failures(smoke.artifact for smoke in SMOKES)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
