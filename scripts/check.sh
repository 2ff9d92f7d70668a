#!/usr/bin/env bash
# Repo check, split into the three stages the CI pipeline parallelizes:
#
#   --tier1   the tier-1 pytest suite
#   --smoke   every registered experiment smoke (wall-clock budgeted) plus
#             the byte-for-byte reproducibility gate on its committed
#             artifact (the smoke sweeps write the artifacts themselves, so
#             a drifting simulation fails the gate): benchmarks/smoke.py
#   --lint    ruff check + ruff format --check (skipped with a notice when
#             ruff is not installed, so offline containers stay one-command;
#             CI installs ruff and enforces it), plus the docs link
#             checker (a dead relative link in README.md or docs/ fails)
#
# With no stage flag every stage runs in order — the local one-command check.
# The experiments, their artifacts and their budgets (each overridable by an
# ENN_SMOKE_BUDGET_SECONDS environment variable) are registered once, in
# SMOKES in benchmarks/_util.py.
# Usage: scripts/check.sh [--tier1|--smoke|--lint]...
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

run_tier1=false
run_smoke=false
run_lint=false
if [ "$#" -eq 0 ]; then
  run_tier1=true
  run_smoke=true
  run_lint=true
fi
for arg in "$@"; do
  case "$arg" in
    --tier1) run_tier1=true ;;
    --smoke) run_smoke=true ;;
    --lint) run_lint=true ;;
    *)
      echo "unknown stage '$arg' (expected --tier1, --smoke and/or --lint)" >&2
      exit 2
      ;;
  esac
done

if $run_tier1; then
  echo "== tier-1: pytest =="
  python -m pytest -x -q
fi

if $run_smoke; then
  echo
  echo "== benchmark smokes + artifact byte-gates =="
  python benchmarks/smoke.py
fi

if $run_lint; then
  echo
  echo "== lint: ruff check + format =="
  if command -v ruff >/dev/null 2>&1; then
    ruff check .
    ruff format --check .
  else
    echo "ruff not installed; running the fallback audit instead"
    echo "(CI installs ruff and enforces the full rule set)"
    python scripts/lint_fallback.py
  fi

  echo
  echo "== lint: docs relative links =="
  python scripts/check_docs_links.py
fi

echo
echo "All checks passed."
