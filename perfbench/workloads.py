"""The benchmark's workloads, built from the public ``repro`` API only.

Every constant here belongs to the benchmark.  Nothing is imported from the
``benchmarks/bench_e*`` experiments, so editing an experiment can never
silently change what this benchmark measures.

Each workload is a closed batch: the fleet is fixed and the engine runs its
rounds back to back in one process and one thread, on the default
``engine="event"`` loop.  ``build`` returns the engine, ready to ``run()``;
everything it does (world generation, fleet build, cohort planning) is the
set-up the benchmark times as ``setup_s``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.autoscale import AutoscalerConfig
from repro.churn import ChurnSchedule, RetryPolicy
from repro.core.config import FederationConfig
from repro.faults.schedule import FaultPlan
from repro.operator import OperatorConfig
from repro.simulation.queueing import ServiceTimeModel
from repro.telemetry import SLOConfig, TelemetryConfig
from repro.workload import WorkloadConfig, WorkloadEngine
from repro.worldgen import scenario as scenario_module

WORLD_SEED = 33
"""The world (city, stores, products) is fixed; ``--seed`` drives the fleet and the churn tape."""

DEFAULT_SEED = 7
HELD_OUT_SEED = 1009
"""A seed kept out of tuning, for confirming a claimed gain."""

SERVICE_TIMES = ServiceTimeModel(
    default_ms=2.0,
    per_kind_ms={"search": 1.5, "routing": 4.0, "tiles": 0.5, "localization": 2.5},
)


@dataclass(frozen=True)
class Size:
    clients: int
    steps: int


@dataclass(frozen=True)
class Workload:
    builder: Callable[[int, int, int], WorkloadEngine]
    """``builder(clients, steps, seed)`` returns the engine, ready to run."""
    full: Size
    tiny: Size
    """A seconds-long size for the benchmark's own tests."""
    cohort: bool
    """Whether the run must take the cohort fast path (``report.sampling``)."""

    def size(self, scale: str) -> Size:
        return self.tiny if scale == "tiny" else self.full

    def build(self, scale: str, seed: int) -> WorkloadEngine:
        size = self.size(scale)
        return self.builder(size.clients, size.steps, seed)


# ----------------------------------------------------------------------
# exact-fleet / cohort-scale: the fleet-proportional two-store city
# ----------------------------------------------------------------------
CLIENTS_PER_WORKER = 2000


def _scale_world(clients: int):
    config = FederationConfig(
        device_discovery_cache_ttl_seconds=120.0,
        client_tile_cache_entries=256,
        service_times=SERVICE_TIMES,
        server_queue_capacity=512,
        server_workers=max(2, clients // CLIENTS_PER_WORKER),
    )
    return scenario_module.build_scenario(store_count=2, city_rows=5, city_cols=5, config=config, seed=WORLD_SEED)


def _build_fleet(clients: int, steps: int, seed: int) -> WorkloadEngine:
    return WorkloadEngine(_scale_world(clients), WorkloadConfig(clients=clients, steps=steps, seed=seed))


# ----------------------------------------------------------------------
# control-storm: replicated stores under a flash crowd, churn and autoscaling
# ----------------------------------------------------------------------
STORM_STEP_SECONDS = 20.0
STORM_CROWD = (60.0, 240.0, 300)
"""(start s, end s, extra jobs per round) slammed onto store 0's replicas."""
STORM_TELEMETRY = TelemetryConfig(window_seconds=40.0, slo=SLOConfig(latency_ms=250.0, availability_target=0.99))
STORM_CHURN_PER_MINUTE = 1.0
STORM_DOWNTIME_SECONDS = 60.0
STORM_AUTOSCALE = AutoscalerConfig(
    wait_high_ms=25.0,
    wait_low_ms=8.0,
    burn_high=0.0,
    breach_evals=1,
    recover_evals=2,
    cooldown_seconds=60.0,
    ramp_cooldown_seconds=30.0,
    park_delay_seconds=40.0,
)


def _build_storm(clients: int, steps: int, seed: int) -> WorkloadEngine:
    config = FederationConfig(
        device_discovery_cache_ttl_seconds=30.0,
        registration_ttl_seconds=60.0,
        client_tile_cache_entries=256,
        service_times=SERVICE_TIMES,
        server_queue_capacity=256,
        retry_policy=RetryPolicy.full_jitter(),
    )
    scenario = scenario_module.build_scenario(
        store_count=2,
        city_rows=5,
        city_cols=5,
        config=config,
        seed=WORLD_SEED,
        store_replicas=2,
    )
    crowded = scenario.store_replica_ids(0)
    scenario.federation.attach_warm_pool(scenario.stores[0].name, 2)
    start, end, extra = STORM_CROWD
    churn = ChurnSchedule.poisson(
        scenario.store_replica_ids(1),
        rate_per_minute=STORM_CHURN_PER_MINUTE,
        horizon_seconds=steps * STORM_STEP_SECONDS,
        downtime_seconds=STORM_DOWNTIME_SECONDS,
        seed=seed,
    )
    workload = WorkloadConfig(
        clients=clients,
        steps=steps,
        seed=seed,
        step_seconds=STORM_STEP_SECONDS,
        resolver_pools=2,
        churn=churn,
        faults=FaultPlan.flash_crowd(crowded, start, end, extra_load=extra),
        telemetry=STORM_TELEMETRY,
        autoscale=STORM_AUTOSCALE,
        operator=OperatorConfig(transport="network"),
    )
    return WorkloadEngine(scenario, workload)


WORKLOADS = {
    "exact-fleet": Workload(_build_fleet, full=Size(3000, 2), tiny=Size(60, 2), cohort=False),
    "cohort-scale": Workload(_build_fleet, full=Size(200_000, 3), tiny=Size(6000, 2), cohort=True),
    "control-storm": Workload(_build_storm, full=Size(200, 36), tiny=Size(12, 14), cohort=False),
}
"""Why each workload was chosen is recorded in ``BENCHMARK.json``."""
