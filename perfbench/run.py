"""Run one benchmark workload for a fixed time and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload exact-fleet --seed 7 --seconds 40 --trace 0

Each sample is a fresh process (``sample.py``) that builds the workload's
world and engine, runs it and checks its outputs.  Samples run two at a
time, one per core, until the next one would overrun ``--seconds``; every
metric is the median over the samples.

* ``--trace 0`` prints the end-to-end metrics: ``client_steps_per_s``
  (simulated client-steps per second inside ``WorkloadEngine.run()``),
  ``setup_s`` (seconds to build the scenario and the engine) and
  ``peak_rss_mb`` (the sample process's peak resident memory).
* ``--trace 1`` runs untraced and traced samples side by side and prints the
  per-layer metrics of the traced ones, plus the tracing overhead.

Host seconds are reported in reference seconds.  The machine this benchmark
was tuned on changes speed by up to 1.8x within a minute, from load outside
it, which spreads the raw host times of whole runs by 12-16% (interquartile
range over median).  So a speed probe in every sample times a small fixed
loop twenty times a second while the sample runs, and the sample's host
seconds are rescaled by ``REFERENCE_PROBE_S`` over the probe's median: a
sample that ran while the machine was slow is credited with the time it
would have taken at reference speed.  The raw seconds and rates are printed
and recorded beside the metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A sample fails if it
raises or if its output check fails; the run is correct only if no sample
failed and every sample, traced or not, produced the same snapshot digest.
Results and the first traced sample's spans are written under
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SAMPLE_TIMEOUT_S = 170.0
"""No sample may outlive the 180 s a run is allowed."""
SLOTS = min(2, os.cpu_count() or 1)
"""Samples run side by side, one per core.  Each is one single-threaded
process, and twice the samples per run narrows the median."""
REFERENCE_PROBE_S = 0.00039
"""The speed probe's median time on the 2-core Xeon KVM guest the bounds
were set on (Python 3.11, numpy 2.4)."""

sys.path.insert(0, str(HERE))

from tracer import LAYERS, REQUEST_KINDS  # noqa: E402

END_TO_END_UNITS = {"client_steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units["unattributed.self_s"] = "s"
    for kind in REQUEST_KINDS.values():
        units[f"workload.{kind}.p50_ms"] = "ms"
        units[f"workload.{kind}.p99_ms"] = "ms"
        units[f"workload.{kind}.samples"] = "count"
    for ratio in (
        "dns.resolves_per_discovery",
        "geometry.haversine_per_request",
        "queue.phantom_jobs_per_call",
        "discovery.cache_hit_rate",
        "dns.cache_hit_rate",
        "tiles.cache_hit_rate",
        "queue.drop_rate",
        "services.failover_attempts_per_request",
    ):
        units[ratio] = "ratio"
    units["trace.overhead_pct"] = "%"
    return units


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(f" {ref}"):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict[str, object]:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git_commit(),
    }


class SampleFailed(Exception):
    pass


def run_sample(args, trace: bool, index: int, spans: Path | None) -> dict:
    """Run one sample process, with ``PYTHONHASHSEED=index``.

    The hash seed lays out the simulator's string-keyed dicts and sets, and a
    random one moved a sample's speed by several percent; fixing it per
    sample index makes every run draw from the same hash seeds."""
    command = [sys.executable, str(HERE / "sample.py"), "--workload", args.workload, "--seed", str(args.seed)]
    command += ["--scale", args.scale, "--trace", str(int(trace))]
    if spans is not None:
        command += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED=str(index))
    env["PYTHONPATH"] = os.pathsep.join(part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part)
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise SampleFailed(f"sample exceeded {SAMPLE_TIMEOUT_S:.0f} s") from exc
    if done.returncode != 0:
        raise SampleFailed(f"sample exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise SampleFailed(f"sample printed no result: {done.stdout[-500:]!r}") from exc
    if result["failures"]:
        raise SampleFailed("output check failed: " + "; ".join(result["failures"]))
    return result


def collect(args) -> tuple[list[dict], list[dict], list[str]]:
    """Run samples, ``SLOTS`` at a time, until the next would overrun ``--seconds``.

    With tracing, untraced and traced samples alternate, so the two kinds run
    side by side on the same machine.  Returns the untraced samples, the
    traced samples and the failures.
    """
    samples: dict[bool, list[dict]] = {False: [], True: []}
    longest = {False: 0.0, True: 0.0}
    launched = {False: 0, True: 0}
    failures: list[str] = []
    started = time.perf_counter()

    def timed(trace: bool, index: int, spans: Path | None) -> tuple[float, dict]:
        begun = time.perf_counter()
        result = run_sample(args, trace, index, spans)
        return time.perf_counter() - begun, result

    def next_kind() -> bool:
        return bool(args.trace) and launched[True] < launched[False]

    def launch(pool, pending: dict) -> None:
        trace = next_kind()
        spans = OUT / f"spans-{args.workload}.npz" if trace and not launched[True] else None
        pending[pool.submit(timed, trace, launched[trace], spans)] = trace
        launched[trace] += 1

    def fits(trace: bool) -> bool:
        expected = longest[trace] or 2.0 * max(longest.values())
        return time.perf_counter() - started + expected <= args.seconds

    with ThreadPoolExecutor(max_workers=SLOTS) as pool:
        pending: dict = {}
        for _ in range(max(SLOTS, 1 + args.trace)):
            launch(pool, pending)
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                trace = pending.pop(future)
                try:
                    duration, result = future.result()
                except SampleFailed as exc:
                    failures.append(str(exc))
                    continue
                samples[trace].append(result)
                longest[trace] = max(longest[trace], duration)
            while not failures and len(pending) < SLOTS and fits(next_kind()):
                launch(pool, pending)
    return samples[False], samples[True], failures


def reference_s(sample: dict, seconds: float) -> float:
    """Host seconds rescaled to the speed probe's reference speed."""
    return seconds * REFERENCE_PROBE_S / sample["probe_s"]


def rate(sample: dict) -> float:
    return sample["client_steps"] / reference_s(sample, sample["run_s"])


def raw_rate(sample: dict) -> float:
    return sample["client_steps"] / sample["run_s"]


def end_to_end(plain: list[dict]) -> dict[str, float]:
    return {
        "client_steps_per_s": statistics.median(rate(s) for s in plain),
        "setup_s": statistics.median(reference_s(s, s["setup_s"]) for s in plain),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Layer metrics: medians over the traced samples; request times pooled
    over them (the same simulated requests, timed again); work and outcome
    ratios from the first, since simulated behaviour is identical in all."""
    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = statistics.median(s["trace"]["layers"][layer]["calls"] for s in traced)
        values[f"{layer}.self_s"] = statistics.median(s["trace"]["layers"][layer]["self_s"] for s in traced)
    values["unattributed.self_s"] = statistics.median(
        s["wall_s"] - sum(layer["self_s"] for layer in s["trace"]["layers"].values()) for s in traced
    )
    for kind in REQUEST_KINDS.values():
        pooled = [ms for s in traced for ms in s["trace"]["request_ms"][kind]]
        values[f"workload.{kind}.p50_ms"] = _percentile(pooled, 0.50)
        values[f"workload.{kind}.p99_ms"] = _percentile(pooled, 0.99)
        values[f"workload.{kind}.samples"] = len(pooled)
    trace, outcomes = traced[0]["trace"], traced[0]["outcomes"]
    calls = {layer: trace["layers"][layer]["calls"] for layer in LAYERS}
    values["dns.resolves_per_discovery"] = _ratio(calls["dns"], calls["discovery"])
    values["geometry.haversine_per_request"] = _ratio(calls["geometry"], calls["workload"])
    phantom_calls = trace["entries"]["queue.phantom_arrivals"]
    values["queue.phantom_jobs_per_call"] = _ratio(trace["counters"]["queue.phantom_arrivals"], phantom_calls)
    for name in ("discovery.cache_hit_rate", "dns.cache_hit_rate", "tiles.cache_hit_rate", "queue.drop_rate"):
        values[name] = outcomes[name]
    # Failovers are counted per simulated device (tracers only on the cohort
    # path), so their base is the unweighted request count the trace saw.
    values["services.failover_attempts_per_request"] = _ratio(outcomes["services.failovers"], calls["workload"])
    untraced = statistics.median(rate(s) for s in plain)
    values["trace.overhead_pct"] = (untraced / statistics.median(rate(s) for s in traced) - 1.0) * 100.0
    return values


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: sizes for the tests")
    args = parser.parse_args(argv)

    machine = fingerprint()
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    plain, traced, failures = collect(args)
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    if not plain or (args.trace and not traced):
        print("error: no sample completed", file=sys.stderr)
        return 1
    samples = plain + traced
    digests = sorted({s["digest"] for s in samples})
    print(f"snapshot digest: {' '.join(digests)}")
    for s in samples:
        print(
            f"sample: traced={'trace' in s} setup_s={s['setup_s']:.3f} run_s={s['run_s']:.3f} "
            f"raw_client_steps_per_s={raw_rate(s):.1f} probe_ms={s['probe_s'] * 1000:.4f} "
            f"client_steps_per_s={rate(s):.1f} peak_rss_mb={s['peak_rss_mb']:.1f}"
        )
    print(f"raw client_steps_per_s median: {statistics.median(raw_rate(s) for s in plain):.1f}")
    if args.trace:
        values, units = per_layer(plain, traced), per_layer_units()
    else:
        values, units = end_to_end(plain), END_TO_END_UNITS
    result = {
        "correct": not failures and len(digests) == 1,
        "attempted": len(samples) + len(failures),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    for s in traced:
        del s["trace"]["request_ms"]
    record = {"machine": machine, "args": vars(args), "digests": digests, "failures": failures, "samples": samples}
    record.update(result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
