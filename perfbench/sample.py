"""One benchmark sample: set up and run one workload in this fresh process.

Usage::

    PYTHONPATH=src python3 perfbench/sample.py --workload exact-fleet --seed 7 [--trace 1]

Prints one JSON object: host seconds of set-up and of ``run()``, the
machine speed measured while they ran, peak resident memory, the run's
snapshot digest, the output check's failures and, when traced, the
per-layer summary.  ``run.py`` starts one process per sample, because
process-wide memos (discovery ancestor walks, cached cell math) warm up
during a run and every user run pays that warm-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402

PROBE_INTERVAL_S = 0.05


def _probe_loop() -> float:
    """A fixed mix of the simulator's staple operations: dict updates, tuple
    allocation, float math and a keyed sort (about half a millisecond)."""
    table: dict[int, float] = {}
    items = []
    total = 0.0
    for i in range(600):
        key = i % 251
        point = (i * 0.001, key)
        table[key] = table.get(key, 0.0) + point[0]
        items.append(point)
        total += math.sqrt(point[0] + 1.0)
    items.sort(key=lambda item: item[1])
    return total


class SpeedProbe:
    """Times ``_probe_loop`` every ``PROBE_INTERVAL_S`` of wall time while the
    sample runs, from a timer signal.  The loop's median time is how fast the
    machine ran Python during the sample; the probes' own time is left out of
    the intervals the sample reports."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []

    def _probe(self, signum=None, frame=None) -> None:
        begun = time.perf_counter()
        _probe_loop()
        self.probes.append((begun, time.perf_counter() - begun))

    def __enter__(self) -> SpeedProbe:
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, start: float, end: float) -> float:
        """Host seconds from ``start`` to ``end``, less the probes taken in between."""
        return end - start - sum(spent for begun, spent in self.probes if start <= begun < end)

    def median_s(self) -> float:
        return statistics.median(spent for _, spent in self.probes)


def snapshot_digest(snapshot: dict[str, float]) -> str:
    payload = json.dumps(snapshot, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def check_outputs(workload, report, clients: int, steps: int) -> list[str]:
    """The output check: every simulated client-step is accounted for, and
    the run took the execution path its workload is meant to measure."""
    failures = []
    accounted = sum(
        counter.value
        for name, counter in report.metrics.counters.items()
        if name.startswith(("requests.", "errors.", "skipped."))
    )
    if accounted != clients * steps:
        failures.append(f"weighted requests + errors + skipped = {accounted}, expected {clients * steps}")
    if bool(report.sampling) != workload.cohort:
        failures.append(f"the run took the {'cohort fast path' if report.sampling else 'exact path'}")
    return failures


def outcomes(report) -> dict[str, float]:
    """Useful outcomes read from the report, for the traced run's ratios."""
    arrivals = sum(stats.get("arrivals", 0.0) for stats in report.server_stats.values())
    return {
        "discovery.cache_hit_rate": report.discovery_cache_hit_rate,
        "dns.cache_hit_rate": report.dns_cache_hit_rate,
        "tiles.cache_hit_rate": report.tile_cache_hit_rate,
        "queue.drop_rate": report.dropped_requests / arrivals if arrivals else 0.0,
        "services.failovers": float(report.failover.failovers),
    }


def measure(workload_name: str, seed: int, scale: str, tracer=None) -> dict[str, object]:
    workload = WORKLOADS[workload_name]
    size = workload.size(scale)
    with SpeedProbe() as probe:
        started = time.perf_counter()
        engine = workload.build(scale, seed)
        built = time.perf_counter()
        report = engine.run()
        finished = time.perf_counter()
    result: dict[str, object] = {
        "workload": workload_name,
        "seed": seed,
        "client_steps": size.clients * size.steps,
        "setup_s": probe.seconds(started, built),
        "run_s": probe.seconds(built, finished),
        "wall_s": finished - started,
        "probe_s": probe.median_s(),
        "probes": len(probe.probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": snapshot_digest(report.snapshot()),
        "failures": check_outputs(workload, report, size.clients, size.steps),
        "outcomes": outcomes(report),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None, help="where a traced sample writes its spans")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    result = measure(args.workload, args.seed, args.scale, tracer)
    if tracer is not None and args.spans is not None:
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
