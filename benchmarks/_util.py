"""Small helpers shared by the benchmark files, and the smoke registry.

:data:`SMOKES` is the one place an experiment smoke is registered: its id
names the committed artifact, the full-sweep output and the budget knob,
and every consumer — ``benchmarks/smoke.py`` (the ``check.sh --smoke``
stage), ``scripts/ci_summary.py`` and the CI tests — iterates it.
:func:`bench_main` is the standalone entry point those scripts share.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TypeVar

REPO_ROOT = Path(__file__).resolve().parents[1]

T = TypeVar("T")


@dataclass(frozen=True)
class Smoke:
    """One budgeted experiment smoke; every other name derives from ``id``."""

    id: str
    """Lower-case experiment id, e.g. ``"e13"``."""
    script: str
    """The benchmark file under ``benchmarks/``."""
    budget_seconds: float
    """Default wall-clock budget of the smoke sweep."""

    @property
    def artifact(self) -> str:
        """The committed, byte-gated output of the smoke sweep."""
        return f"BENCH_{self.id}.json"

    @property
    def full_artifact(self) -> str:
        """The full sweep's output, ignored by git so it never clobbers the gated file."""
        return f"BENCH_{self.id}_full.json"

    @property
    def budget_env(self) -> str:
        """Environment variable that overrides :attr:`budget_seconds`."""
        return f"{self.id.upper()}_SMOKE_BUDGET_SECONDS"


SMOKES: tuple[Smoke, ...] = (
    Smoke("e13", "bench_e13_workload.py", 20.0),
    Smoke("e14", "bench_e14_churn.py", 20.0),
    Smoke("e15", "bench_e15_control.py", 20.0),
    # E16 runs 100,000 clients on the cohort fast path; E17 plays the whole
    # disaster library.  Both finish in seconds, so only an
    # order-of-magnitude hot-path regression trips the budget.
    Smoke("e16", "bench_e16_scale.py", 20.0),
    Smoke("e17", "bench_e17_faults.py", 20.0),
    # Runs the 100k-client fleet twice, telemetry on and off.
    Smoke("e18", "bench_e18_telemetry.py", 40.0),
    # Seven provisioning cells.
    Smoke("e19", "bench_e19_autoscale.py", 40.0),
    # Three drain transports, the partitioned-operator race and two
    # autoscaler reaction cells.
    Smoke("e20", "bench_e20_operator.py", 40.0),
)


def smoke_for(script: str) -> Smoke:
    """The registered smoke of a benchmark file (a name or a path)."""
    name = Path(script).name
    for smoke in SMOKES:
        if smoke.script == name:
            return smoke
    raise KeyError(f"{name} is not a registered smoke")


def bench_main(
    script: str,
    description: str | None,
    sweep: Callable[[bool], T],
    report: Callable[[T, Path], tuple[list[str], str]],
    argv: list[str] | None = None,
) -> int:
    """Standalone entry point of a registered experiment smoke.

    ``sweep(smoke)`` is the timed region, held to ``--budget-seconds``.
    ``report(result, json_path)`` prints the tables, runs the acceptance
    checks and any determinism rerun, writes the artifact to ``json_path``
    and returns ``(failures, ok_line)``.  ``--smoke`` writes the committed
    artifact; full mode writes the ``_full`` one.  Returns the exit code.
    """
    smoke = smoke_for(script)
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"the seconds-scale sweep that writes the committed {smoke.artifact} "
        f"(default: the full sweep, written to {smoke.full_artifact})",
    )
    parser.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="fail (exit 1) if the sweep takes longer than this wall-clock budget",
    )
    args = parser.parse_args(argv)
    json_path = REPO_ROOT / (smoke.artifact if args.smoke else smoke.full_artifact)

    started = time.perf_counter()
    result = sweep(args.smoke)
    elapsed = time.perf_counter() - started

    failures, ok_line = report(result, json_path)
    print(f"\nwrote {json_path}")
    if args.budget_seconds is not None and elapsed > args.budget_seconds:
        failures.append(
            f"sweep took {elapsed:.1f}s, over the {args.budget_seconds:.1f}s budget "
            "(hot-path regression?)"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"\nOK: {ok_line} ({elapsed:.1f}s)")
    return 0


def snapshot_digest(snapshot: dict[str, float]) -> str:
    """A short stable fingerprint of a run's full snapshot (determinism)."""
    payload = json.dumps(snapshot, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def md1_mean_wait_ms(service_ms: float, utilization: float) -> float:
    """Mean queueing wait of an M/D/1 server (milliseconds).

    Pollaczek–Khinchine with deterministic service: Wq = ρ·S / (2·(1−ρ)).
    Used as an analytic sanity check on the measured wait-time curves: the
    simulated arrival process is round-phased rather than Poisson, so the
    comparison is a sanity band, not an identity.  Utilization at or above
    1.0 has no steady state — callers must not ask.
    """
    if service_ms < 0.0:
        raise ValueError("service time cannot be negative")
    if not (0.0 <= utilization < 1.0):
        raise ValueError("M/D/1 has a steady state only for utilization in [0, 1)")
    return utilization * service_ms / (2.0 * (1.0 - utilization))


def batch_md1_mean_wait_ms(service_ms: float, batch_size: float, utilization: float) -> float:
    """Mean wait of an M/D/1 queue fed one batch of ``batch_size`` per arrival.

    The fleet engine issues each round's requests from the same simulated
    instant, so a server's arrivals are closer to periodic *batches* than to
    a Poisson stream.  If a whole round's K requests truly landed at one
    instant, the k-th would wait (k−1)·S, giving a batch mean of
    ``(K−1)/2·S`` on top of the Poisson-congestion term — the upper edge of
    the analytic band (clients' differing DNS walks spread real arrivals
    out, so measured waits fall below it).
    """
    if batch_size < 1.0:
        return md1_mean_wait_ms(service_ms, utilization)
    return (batch_size - 1.0) / 2.0 * service_ms + md1_mean_wait_ms(service_ms, utilization)


def check_md1_sanity(
    server_stats: dict[str, dict[str, float]],
    steps: int,
    max_utilization: float = 0.7,
    rel_tolerance: float = 1.5,
    abs_slack_ms: float = 0.5,
) -> list[str]:
    """Check measured mean waits against the M/D/1 analytic band.

    For every server comfortably below saturation (utilization ≤
    ``max_utilization``; beyond that the finite buffer dominates), the
    measured mean wait must lie between the Poisson M/D/1 lower bound (the
    least bursty arrival process at the observed rate) and the
    one-batch-per-round upper bound (the most bursty the round structure
    allows), each with tolerance.  Returns human-readable failure strings
    (empty = all sane) so callers can aggregate across sweep rows.
    """
    failures: list[str] = []
    for server_id, stats in sorted(server_stats.items()):
        served = stats.get("served", 0.0)
        utilization = stats.get("utilization", 0.0)
        if served < 10 or not (0.0 < utilization <= max_utilization):
            continue
        mean_service_ms = stats.get("busy_ms", 0.0) / served
        measured = stats.get("mean_wait_ms", 0.0)
        lower = md1_mean_wait_ms(mean_service_ms, min(utilization, 0.999))
        batch = stats.get("arrivals", served) / max(1, steps)
        upper = batch_md1_mean_wait_ms(mean_service_ms, batch, min(utilization, 0.999))
        if measured > rel_tolerance * upper + abs_slack_ms:
            failures.append(
                f"{server_id}: measured wait {measured:.3f}ms above batch-M/D/1 "
                f"upper bound {upper:.3f}ms (util {utilization:.2f}, batch {batch:.1f})"
            )
        elif measured < lower / rel_tolerance - abs_slack_ms:
            failures.append(
                f"{server_id}: measured wait {measured:.3f}ms below M/D/1 "
                f"lower bound {lower:.3f}ms (util {utilization:.2f})"
            )
    return failures


def print_table(title: str, rows: list[dict[str, object]]) -> None:
    """Print an experiment's result rows in a compact aligned table."""
    print(f"\n## {title}")
    if not rows:
        print("(no rows)")
        return
    keys = list(rows[0].keys())
    header = " | ".join(f"{key:>18s}" for key in keys)
    print(header)
    print("-" * len(header))
    for row in rows:
        cells = []
        for key in keys:
            value = row.get(key)
            if isinstance(value, float):
                cells.append(f"{value:>18.3f}")
            else:
                cells.append(f"{str(value):>18s}")
        print(" | ".join(cells))
