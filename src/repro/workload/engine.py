"""The workload engine: run a fleet of clients against one federation.

The engine owns nothing but orchestration: it builds one
:class:`repro.core.client.OpenFlameClient` per simulated device (so every
device has its own discovery and tile caches), assigns each a mobility model
and a seed-derived RNG, and then drives the fleet through a plain round
loop over the shared :class:`~repro.simulation.clock.SimulatedClock`: each
round applies due fault, churn and control tape events at the round
boundary, runs every device (or cohort) from the same instant, advances the
clock by the slowest request plus the inter-round pacing, and then runs the
end-of-round checks and observers.  All latency comes from the
federation's simulated network, and per-service latency is recorded into
percentile histograms so a run can report tail latency (p50/p95/p99)
alongside cache hit-rates.

Small fleets run every device through the full client stack (the *exact*
path).  At :attr:`WorkloadConfig.cohort_min_clients` and above the engine
switches to the cohort fast path (:mod:`repro.workload.cohort`): devices
that are statistically identical — same mobility family, same resolver
pool, no individual state — are represented by a few fully simulated
*tracer* devices plus integer phantom counts whose server-side load is
charged in batch, which is what lets one process reach 100k clients inside
a smoke budget and a million in a full sweep.

Everything is deterministic: the same scenario and :class:`WorkloadConfig`
produce byte-identical :meth:`WorkloadReport.snapshot` dictionaries.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.autoscale.policy import AutoscalerConfig
from repro.autoscale.scaler import Autoscaler
from repro.churn.controller import ChurnController
from repro.churn.failover import FailoverRecorder
from repro.churn.schedule import ChurnSchedule
from repro.control.plane import ControlPlane
from repro.control.schedule import ControlSchedule
from repro.core.client import OpenFlameClient
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultPlan
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng
from repro.localization.cues import CueBundle, GnssCue
from repro.operator.api import OperatorApi
from repro.operator.client import (
    NetworkedControlPlayer,
    OperatorClient,
    OperatorControlAdapter,
)
from repro.operator.config import OperatorConfig
from repro.operator.permissions import ALL_PERMISSIONS, PrincipalRegistry
from repro.services.routing import FederatedRoutingError
from repro.simulation.metrics import MetricsRegistry
from repro.simulation.queueing import load_cv
from repro.spatialindex.cellid import CellId
from repro.telemetry import TelemetryConfig, TelemetryPipeline
from repro.workload.cohort import Cohort, plan_periodic_cohorts
from repro.workload.mobility import (
    AisleWalk,
    CommuterHandoff,
    CommuterTrace,
    MobilityModel,
    RandomWaypoint,
)
from repro.workload.traffic import RequestKind, RequestMix, ZipfSampler
from repro.worldgen.scenario import FederatedScenario

RoundObserver = Callable[[int, float], None]
"""A round-boundary hook: called with ``(round_index, now_seconds)`` after
each round's end-of-round observations.  Observers must not mutate engine
state — they exist so subsystems like telemetry can snapshot at round
granularity without the loop knowing about them."""

_CLIENT_SEED_STRIDE = 1_000_003
"""Prime stride separating per-client RNG streams derived from one seed."""

_SELECTION_SEED_SALT = 0xD15C
"""XOR salt deriving a device's RFC 2782 weighted-selection stream."""

_JITTER_SEED_SALT = 0x5EED
"""XOR salt deriving a device's network jitter/loss stream."""

_BACKOFF_SEED_SALT = 0xB0FF
"""XOR salt deriving a device's retry-backoff jitter stream."""

_OPERATOR_SEED_SALT = 0xC7A1
"""XOR salt deriving the operator console's control-hop jitter/loss stream
(bare run seed, not a device base, so it collides with no device stream
under the same argument as the POI shuffle)."""


def operator_seed(seed: int) -> int:
    """The operator client's network-draw stream seed for a run seed."""
    return seed ^ _OPERATOR_SEED_SALT


def client_base_seed(seed: int, index: int) -> int:
    """Device ``index``'s base (mobility/traffic) RNG seed for a run seed."""
    return seed + _CLIENT_SEED_STRIDE * (index + 1)


def derived_seed_streams(seed: int, index: int) -> dict[str, int]:
    """Every RNG stream seed derived for one device, by family.

    Collision-freedom argument (audited for 100k–1M-device fleets): base
    seeds are ``seed + stride·(i+1)`` with a stride of 1,000,003, so two
    distinct devices' base seeds differ by at least the stride.  The
    selection, jitter and backoff families are the base XOR a salt below
    2^16; two integers whose XOR is below 2^16 agree on every bit from 16
    up and so differ by less than 65,536 < stride.  Hence a salted seed
    can never collide with any *other* device's seed in the same or
    another family, and within one device the three salts (and their
    pairwise XORs) are non-zero, so all four streams are distinct.  The
    engine-level POI shuffle uses the bare run ``seed`` — device index −1
    under the same argument — and can collide with nothing either.
    ``tests/test_rng_streams.py`` asserts both the pairwise-distinctness
    and the salts-below-stride invariant this argument rests on.
    """
    base = client_base_seed(seed, index)
    return {
        "base": base,
        "selection": base ^ _SELECTION_SEED_SALT,
        "jitter": base ^ _JITTER_SEED_SALT,
        "backoff": base ^ _BACKOFF_SEED_SALT,
    }


@dataclass(frozen=True)
class PointOfInterest:
    """One named place requests can target, ranked by popularity."""

    name: str
    location: LatLng
    store_index: int | None = None


@dataclass(frozen=True)
class WorkloadConfig:
    """Tunables of one workload run."""

    clients: int = 25
    steps: int = 8
    seed: int = 0
    mix: RequestMix = field(default_factory=RequestMix)
    zipf_exponent: float = 1.0
    search_radius_meters: float = 350.0
    viewport_meters: float = 120.0
    tile_zoom: int = 17
    gnss_error_meters: float = 12.0
    step_seconds: float = 2.0
    """Wall-clock pacing between fleet rounds (thinking/walking time)."""
    resolver_pools: int = 1
    """Recursive resolvers to shard the fleet across (round-robin).  One pool
    is the historical single-shared-resolver deployment; more pools model
    regional resolver deployments, each with its own DNS cache."""
    long_traces: bool = False
    """Give the fleet's commuter cohort scripted multi-stop journeys
    (:class:`~repro.workload.mobility.CommuterTrace`) instead of the fast
    ping-pong handoff.  With dwell times, a circuit spans multiple
    registration/discovery TTLs of simulated time, so commuters re-enter
    zones with every cache layer gone stale."""
    trace_dwell_steps: int = 3
    """Steps a long-trace commuter dwells at each stop (``long_traces``
    only).  Bigger dwells stretch the journey across more TTL windows."""
    churn: ChurnSchedule | None = None
    """Membership churn applied while the fleet runs: the engine plays the
    schedule through a :class:`~repro.churn.controller.ChurnController` at
    round boundaries, so crashes/leaves/rejoins land between concurrent
    rounds exactly as TTL expiry does."""
    churn_lease_seconds: float | None = None
    """Registration-lease override for crashed servers (``None`` uses the
    federation's ``registration_ttl_seconds``)."""
    control: ControlSchedule | None = None
    """Operator actions applied while the fleet runs: the engine plays the
    tape through a :class:`~repro.control.plane.ControlPlane` at round
    boundaries (same granularity as churn), then tracks each device's
    stale SRV view until it converges on the new advertisement —
    ``WorkloadReport.control_stats`` reports the convergence tail."""
    faults: FaultPlan | None = None
    """Correlated-disaster tape applied while the fleet runs: the engine
    plays the plan through a :class:`~repro.faults.injector.FaultInjector`
    at round boundaries (before churn and control), mutating the network's
    fault state — partitions, gray failures, authority outages — and
    charging active flash crowds' load.
    ``None`` attaches no fault state at all, keeping fault-free runs
    byte-identical to the pre-fault engine."""
    telemetry: TelemetryConfig | None = None
    """Windowed-telemetry pipeline config.  ``None`` (default) collects no
    telemetry and adds no snapshot keys, so telemetry-free runs stay
    byte-identical to builds without the telemetry subsystem; set one and
    the run's windows become queryable via ``WorkloadReport.telemetry``."""
    autoscale: AutoscalerConfig | None = None
    """Closed-loop autoscaler config.  Requires ``telemetry`` (the scaler
    reads only telemetry roll-ups); it evaluates once per sealed window at
    round boundaries and drives the federation's warm pools
    (``Federation.attach_warm_pool``) through its own control plane.
    ``None`` (default) builds no scaler, registers no observer and adds no
    snapshot keys, so autoscaler-off runs stay byte-identical to builds
    without the autoscale subsystem."""
    operator: OperatorConfig | None = None
    """Route the run's control traffic through the operator API layer
    (:mod:`repro.operator`): the control tape is replayed as authenticated
    ``ControlRequest`` messages by a
    :class:`~repro.operator.client.NetworkedControlPlayer`, and (by
    default) the autoscaler's batches travel the same door.  With
    ``transport="network"`` every request pays simulated control-hop
    latency/loss/partitions; ``"direct"`` keeps the exchange in-process.
    ``None`` (default) builds no API, charges nothing, and adds no
    snapshot keys, so operator-free runs stay byte-identical to builds
    without the operator subsystem."""
    cohort_min_clients: int = 5000
    """Fleet size at or above which the engine stops materializing
    every device and switches to the cohort fast path (tracers + phantom
    batch load).  Fleets below the threshold — including every committed
    byte-gated benchmark — run the exact per-device path."""
    tracers_per_cohort: int = 16
    """Fully simulated devices per cohort on the fast path.  Tracers keep
    their true index-derived RNG streams and all individual state (caches,
    replica-health memories, SRV views) — they are the slow-path escape
    hatch — so more tracers buys fidelity at the cost of scale."""

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError("a workload needs at least one client")
        if self.steps < 1:
            raise ValueError("a workload needs at least one step")
        if self.step_seconds < 0.0:
            raise ValueError("step pacing cannot be negative")
        if self.resolver_pools < 1:
            raise ValueError("a workload needs at least one resolver pool")
        if self.trace_dwell_steps < 0:
            raise ValueError("trace dwell steps cannot be negative")
        if self.cohort_min_clients < 1:
            raise ValueError("cohort threshold must be positive")
        if self.tracers_per_cohort < 1:
            raise ValueError("a cohort needs at least one tracer")
        if self.autoscale is not None and self.telemetry is None:
            raise ValueError(
                "the autoscaler reads only telemetry roll-ups; "
                "set WorkloadConfig.telemetry alongside autoscale"
            )


@dataclass
class FleetClient:
    """One simulated device: client stack + mobility + its own RNG stream."""

    index: int
    client: OpenFlameClient
    mobility: MobilityModel
    rng: random.Random
    net_rng: random.Random | None = None
    """Jitter/loss RNG stream for this device's network exchanges (only set
    when the federation's latency model is stochastic)."""
    weight: int = 1
    """Devices this client stands for: 1 on the exact path; a tracer on the
    cohort fast path answers for itself plus ``weight - 1`` phantoms."""
    position: LatLng = field(init=False)

    def __post_init__(self) -> None:
        self.position = self.mobility.reset(self.rng)

    def advance(self) -> LatLng:
        self.position = self.mobility.step(self.rng)
        return self.position


@dataclass
class WorkloadReport:
    """The outcome of one workload run."""

    metrics: MetricsRegistry
    requests: int
    errors: int
    discovery_cache_hits: int
    discovery_cache_misses: int
    tile_cache_hits: int
    tile_cache_misses: int
    dns_cache_hit_rate: float
    simulated_seconds: float
    server_stats: dict[str, dict[str, float]] = field(default_factory=dict)
    """Per-map-server load-model snapshot (utilization, queue depth, drops,
    workers); empty when the federation runs without a server-side queue
    model."""
    dns_pool_hit_rates: tuple[float, ...] = ()
    """Hit rate of each shared regional resolver pool, in pool order."""
    failover: FailoverRecorder = field(default_factory=FailoverRecorder)
    """Fleet-aggregated failover accounting (attempts, failed chains, stale
    attempts, failover latencies)."""
    failed_requests: int = 0
    """Client requests that got no service at all: every map-server chain
    they tried exhausted its replicas (or routing found nothing to stitch)."""
    churn_events_applied: int = 0
    rediscoveries: int = 0
    rejoins_unseen: int = 0
    """Rejoined servers that saw no traffic again before the run ended."""
    replica_groups: dict[str, tuple[str, ...]] = field(default_factory=dict)
    """Replica-group membership at the end of the run (group id → server
    ids), used to fold ``server_stats`` into per-group balance metrics."""
    control_stats: dict[str, float] = field(default_factory=dict)
    """Operator-control-plane outcome: events applied/rejected, devices whose
    stale SRV view was tracked, and the time-to-converge tail (p50/p95 of
    seconds from a control event landing at the authority to each tracked
    device's view catching up).  Empty when the run had no control tape."""
    sampling: dict[str, float] = field(default_factory=dict)
    """Cohort-fast-path accounting (cohorts, tracers, max weight); empty on
    the exact path, so small-fleet snapshots carry no extra keys and the
    committed benchmark artifacts stay byte-identical."""
    degraded_requests: int = 0
    """Requests served from a stale-while-unreachable cached SRV view after
    live discovery failed (graceful degradation, not full service)."""
    fault_stats: dict[str, float] = field(default_factory=dict)
    """Fault-injection outcome: tape events applied/skipped, degraded
    (stale-served) requests and stale cache serves.  Empty when the run had
    no fault plan, so fault-free snapshots carry no extra keys."""
    telemetry: TelemetryPipeline | None = None
    """The run's sealed telemetry windows and their roll-up queries (demand
    heatmaps, per-cell percentiles, zonal queue maps, per-region SLO burn).
    ``None`` when the run collected no telemetry, so telemetry-free
    snapshots carry no extra keys."""
    autoscale_stats: dict[str, float] = field(default_factory=dict)
    """Autoscaler outcome: evaluations, applied/rejected ops, promotions,
    ramp steps, parks, flaps, and the replica-seconds cost integral.  Empty
    when the run had no autoscaler, so scaler-free snapshots carry no
    extra keys."""
    operator_stats: dict[str, float] = field(default_factory=dict)
    """Operator-API outcome: requests issued/delivered, replays, per-family
    rejections, timeouts, audit-log length, and — when a control tape rode
    the API — tape retries and the delivery-lag tail (seconds from an
    event's scripted instant to its op landing at the authority).  Empty
    when the run had no operator config, so operator-free snapshots carry
    no extra keys."""

    @property
    def discovery_cache_hit_rate(self) -> float:
        total = self.discovery_cache_hits + self.discovery_cache_misses
        return self.discovery_cache_hits / total if total else 0.0

    @property
    def tile_cache_hit_rate(self) -> float:
        total = self.tile_cache_hits + self.tile_cache_misses
        return self.tile_cache_hits / total if total else 0.0

    def latency_percentiles(self, service: str = "all") -> dict[str, float]:
        # Read without the creating accessor: querying a service that saw no
        # traffic must not grow the registry (snapshots stay deterministic).
        histogram = self.metrics.histograms.get(f"latency_ms.{service}")
        if histogram is None:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {"p50": histogram.p50, "p95": histogram.p95, "p99": histogram.p99}

    @property
    def dropped_requests(self) -> int:
        """Requests shed by overloaded map servers across the whole run."""
        return int(sum(stats.get("dropped", 0.0) for stats in self.server_stats.values()))

    def group_load_cvs(self) -> dict[str, float]:
        """Per-replica-group coefficient of variation of replica utilization.

        0.0 is a perfectly balanced group; the first-healthy funnel over an
        all-healthy 4-replica group reads ≈1.73 (one replica serves, three
        idle).  Groups without queue-model stats are skipped.
        """
        cvs: dict[str, float] = {}
        for group_id, server_ids in sorted(self.replica_groups.items()):
            loads = [
                self.server_stats[server_id].get("utilization", 0.0)
                for server_id in server_ids
                if server_id in self.server_stats
            ]
            if len(loads) >= 2:
                cvs[group_id] = load_cv(loads)
        return cvs

    @property
    def replica_load_cv(self) -> float:
        """The run's balance headline: mean utilization CV over replica groups."""
        cvs = self.group_load_cvs()
        return sum(cvs.values()) / len(cvs) if cvs else 0.0

    @property
    def failed_request_rate(self) -> float:
        """Fraction of client requests that got no service at all."""
        total = self.requests + self.errors
        return self.failed_requests / total if total else 0.0

    def availability(self) -> dict[str, float]:
        """The run's availability metrics in one flat dict."""
        recorder = self.failover
        failover_tail = self.latency_percentiles("failover")
        rediscovery = self.metrics.summaries.get("availability.rediscovery_seconds")
        return {
            "failed_requests": float(self.failed_requests),
            "failed_request_rate": self.failed_request_rate,
            "request_chains": float(recorder.chains),
            "failed_chains": float(recorder.chains_failed),
            "failed_chain_rate": recorder.failed_chain_rate,
            "stale_attempts": float(recorder.stale_attempts),
            "stale_attempt_rate": recorder.stale_attempt_rate,
            "failovers": float(recorder.failovers),
            "backoff_ms_total": recorder.backoff_ms_total,
            "dead_detections_own": float(recorder.dead_detections_own),
            "dead_detections_shared": float(recorder.dead_detections_shared),
            "detect_mean_ms": recorder.detect_mean_ms,
            "failover_p50_ms": failover_tail["p50"],
            "failover_p95_ms": failover_tail["p95"],
            "failover_p99_ms": failover_tail["p99"],
            "churn_events_applied": float(self.churn_events_applied),
            "rediscoveries": float(self.rediscoveries),
            "rejoins_unseen": float(self.rejoins_unseen),
            "rediscovery_seconds_mean": rediscovery.mean if rediscovery is not None else 0.0,
            "rediscovery_seconds_max": (
                rediscovery.maximum if rediscovery is not None and rediscovery.count else 0.0
            ),
        }

    def snapshot(self) -> dict[str, float]:
        """One flat, deterministic dict describing the whole run."""
        data = dict(sorted(self.metrics.snapshot().items()))
        data["requests"] = float(self.requests)
        data["errors"] = float(self.errors)
        data["discovery_cache.hit_rate"] = self.discovery_cache_hit_rate
        data["tile_cache.hit_rate"] = self.tile_cache_hit_rate
        data["dns_cache.hit_rate"] = self.dns_cache_hit_rate
        data["simulated_seconds"] = self.simulated_seconds
        for server_id in sorted(self.server_stats):
            for stat, value in sorted(self.server_stats[server_id].items()):
                data[f"server.{server_id}.{stat}"] = value
        for pool_index, hit_rate in enumerate(self.dns_pool_hit_rates):
            data[f"dns_pool.{pool_index}.hit_rate"] = hit_rate
        for key, value in sorted(self.availability().items()):
            data[f"availability.{key}"] = value
        for group_id, cv in self.group_load_cvs().items():
            data[f"balance.{group_id}.util_cv"] = cv
        data["balance.replica_load_cv"] = self.replica_load_cv
        for key, value in sorted(self.control_stats.items()):
            data[f"control.{key}"] = value
        for key, value in sorted(self.sampling.items()):
            data[f"sampling.{key}"] = value
        for key, value in sorted(self.fault_stats.items()):
            data[f"faults.{key}"] = value
        if self.telemetry is not None:
            for key, value in sorted(self.telemetry.summary().items()):
                data[f"telemetry.{key}"] = value
        for key, value in sorted(self.autoscale_stats.items()):
            data[f"autoscale.{key}"] = value
        for key, value in sorted(self.operator_stats.items()):
            data[f"operator.{key}"] = value
        return data


class WorkloadEngine:
    """Drives a fleet of simulated clients through a federated scenario."""

    def __init__(
        self,
        scenario: FederatedScenario,
        config: WorkloadConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.scenario = scenario
        self.config = config or WorkloadConfig()
        self._cohort_mode = self.config.clients >= self.config.cohort_min_clients
        # Large fleets get bounded streaming histograms by default so a
        # million-client sweep does not retain one float per observation; an
        # explicitly supplied registry always wins.
        self.metrics = metrics or MetricsRegistry(streaming_histograms=self._cohort_mode)
        self.pois = self._build_poi_pool()
        self._poi_sampler: ZipfSampler[PointOfInterest] = ZipfSampler(
            self.pois, self.config.zipf_exponent
        )
        self.cohorts: list[Cohort] = []
        self.fleet = self._build_fleet()
        self._device_by_index = {device.index: device for device in self.fleet}
        # Multiplier applied to every metric a request records; 1 except
        # while a cohort tracer answers for its phantoms.
        self._active_weight = 1
        self.fault_injector: FaultInjector | None = None
        if self.config.faults is not None:
            self.fault_injector = FaultInjector(
                federation=scenario.federation, plan=self.config.faults
            )
        self.churn_controller: ChurnController | None = None
        if self.config.churn is not None:
            self.churn_controller = ChurnController(
                federation=scenario.federation,
                schedule=self.config.churn,
                lease_seconds=self.config.churn_lease_seconds,
            )
        # Rejoined servers whose return traffic has not been seen yet:
        # server_id -> (rejoin instant, served-requests baseline).
        self._pending_rediscovery: dict[str, tuple[float, int]] = {}
        self.operator_api: OperatorApi | None = None
        self.operator_client: OperatorClient | None = None
        self._operator_adapter: OperatorControlAdapter | None = None
        if self.config.operator is not None:
            op_config = self.config.operator
            principals = PrincipalRegistry()
            principals.register(op_config.principal, ALL_PERMISSIONS)
            self.operator_api = OperatorApi(
                federation=scenario.federation,
                principals=principals,
            )
            endpoint_id = op_config.endpoint_id
            if endpoint_id is None:
                endpoint_id = scenario.federation.discovery_authority_id
            self.operator_client = OperatorClient(
                api=self.operator_api,
                principal=op_config.principal,
                transport=op_config.transport,
                endpoint_id=endpoint_id,
                region=op_config.region,
                timeout_ms=op_config.timeout_ms,
                # The console's own network-draw stream: save/restored
                # around each exchange, so device streams never shift.
                jitter_rng=(
                    random.Random(operator_seed(self.config.seed))
                    if op_config.transport == "network"
                    else None
                ),
            )
        self.control_plane: ControlPlane | NetworkedControlPlayer | None = None
        if self.config.control is not None:
            if self.operator_client is not None:
                self.control_plane = NetworkedControlPlayer(
                    schedule=self.config.control, client=self.operator_client
                )
            else:
                self.control_plane = ControlPlane(
                    federation=scenario.federation, schedule=self.config.control
                )
        # Devices holding a stale SRV view of a re-weighted server:
        # (device index, server_id) -> (event instant, target (prio, weight)).
        self._pending_convergence: dict[tuple[int, str], tuple[float, tuple[int, int]]] = {}
        self._devices_tracked = 0
        # Round-boundary observers.  An empty list is a strict no-op, so
        # observer-free runs stay byte-identical.
        self._round_observers: list[RoundObserver] = []
        self.telemetry: TelemetryPipeline | None = None
        if self.config.telemetry is not None:
            registry = scenario.federation.registry
            self.telemetry = TelemetryPipeline(
                config=self.config.telemetry,
                server_cells={
                    server_id: tuple(cell.token for cell in registration.cells)
                    for server_id, registration in sorted(registry.registrations.items())
                },
            )
            self.add_round_observer(self._telemetry_flush)
        self.autoscaler: Autoscaler | None = None
        if self.config.autoscale is not None:
            # Registered after the telemetry flush observer, so each
            # evaluation sees the window that round just sealed.
            from repro.telemetry.reader import TelemetryReader

            assert self.telemetry is not None  # enforced by WorkloadConfig
            scaler_control = None
            if self.operator_client is not None:
                # The autoscaler's batches travel the operator API like any
                # console's: authenticated, audited, and (over the network
                # transport) paying the same control-hop latency and loss.
                self._operator_adapter = OperatorControlAdapter(
                    client=self.operator_client
                )
                scaler_control = self._operator_adapter
            self.autoscaler = Autoscaler(
                federation=scenario.federation,
                reader=TelemetryReader(pipeline=self.telemetry),
                config=self.config.autoscale,
                control=scaler_control,
            )
            self.add_round_observer(self.autoscaler.observe)

    def add_round_observer(self, observer: RoundObserver) -> None:
        """Register a hook called as ``observer(round_index, now_seconds)``
        after each round's end-of-round observations."""
        self._round_observers.append(observer)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_poi_pool(self) -> list[PointOfInterest]:
        """All POIs requests can target, in a deterministic popularity order.

        Products from every store are interleaved with the city POIs so the
        popular head of the Zipf distribution spans several map servers.
        """
        pois: list[PointOfInterest] = []
        for store_index, store in enumerate(self.scenario.stores):
            for name in sorted(store.product_locations):
                pois.append(
                    PointOfInterest(name, store.product_locations[name], store_index)
                )
        for name in sorted(self.scenario.city.poi_locations):
            pois.append(PointOfInterest(name, self.scenario.city.poi_locations[name]))
        if not pois:
            raise ValueError("scenario has no POIs to build a workload from")
        # Deterministic popularity shuffle so rank is not correlated with
        # store order.
        random.Random(self.config.seed).shuffle(pois)
        return pois

    def _mobility_spec(self, index: int) -> tuple[str, int]:
        """Which mobility family (and store, for aisle walks) a device gets.

        Shared by both fleet builders so the cohort planner's equivalence
        classes are exactly the families the exact path would construct.
        """
        if self.scenario.stores and index % 3 == 1:
            return ("aisle", (index // 3) % len(self.scenario.stores))
        if index % 3 == 2:
            return ("trace" if self.config.long_traces else "commute", 0)
        return ("waypoint", 0)

    def _mobility_period(self) -> int:
        """``_mobility_spec(index)`` equals ``_mobility_spec(index % period)``."""
        return 3 * max(1, len(self.scenario.stores))

    def _commute_routes(self) -> tuple[list[LatLng], list[LatLng]]:
        stores = self.scenario.stores
        city_bounds = self.scenario.city.bounds
        commute_stops = [store.entrance for store in stores[:2]]
        if len(commute_stops) < 2:
            commute_stops = [
                city_bounds.south_west,
                stores[0].entrance if stores else city_bounds.north_east,
            ]
        # Long traces tour the whole city: every store plus the far corners,
        # so a circuit crosses each coverage boundary and — with dwell —
        # outlives the registration TTLs.
        trace_stops = [store.entrance for store in stores] + [
            city_bounds.south_west,
            city_bounds.north_east,
        ]
        return commute_stops, trace_stops

    def _make_mobility(
        self,
        spec: tuple[str, int],
        commute_stops: list[LatLng],
        trace_stops: list[LatLng],
    ) -> MobilityModel:
        family, store_index = spec
        if family == "aisle":
            return AisleWalk(self.scenario.stores[store_index])
        if family == "trace":
            return CommuterTrace(
                list(trace_stops), dwell_steps=self.config.trace_dwell_steps
            )
        if family == "commute":
            return CommuterHandoff(list(commute_stops))
        return RandomWaypoint(self.scenario.city.bounds)

    def _make_device(
        self,
        index: int,
        pools,
        stochastic: bool,
        mobility: MobilityModel,
        weight: int = 1,
    ) -> FleetClient:
        seeds = derived_seed_streams(self.config.seed, index)
        return FleetClient(
            index=index,
            client=self.scenario.federation.client(
                stub_resolver=pools[index % len(pools)],
                # A distinct weighted-selection stream per device: replica
                # draws must not depend on fleet interleaving.
                selection_seed=seeds["selection"],
                backoff_seed=seeds["backoff"],
            ),
            mobility=mobility,
            rng=random.Random(seeds["base"]),
            # A distinct stream per device: network draws must not depend
            # on how the fleet's requests interleave.
            net_rng=random.Random(seeds["jitter"]) if stochastic else None,
            weight=weight,
        )

    def _build_fleet(self) -> list[FleetClient]:
        federation = self.scenario.federation
        pools = federation.resolver_pool(self.config.resolver_pools)
        # Fault runs always get per-device jitter streams: a gray failure can
        # make a deterministic latency model draw loss mid-run, and those
        # draws must not depend on how the fleet's requests interleave.
        stochastic = (
            federation.network.latency.is_stochastic or self.config.faults is not None
        )
        commute_stops, trace_stops = self._commute_routes()
        if self._cohort_mode:
            return self._build_cohort_fleet(pools, stochastic, commute_stops, trace_stops)
        fleet: list[FleetClient] = []
        for index in range(self.config.clients):
            mobility = self._make_mobility(
                self._mobility_spec(index), commute_stops, trace_stops
            )
            fleet.append(self._make_device(index, pools, stochastic, mobility))
        return fleet

    def _build_cohort_fleet(
        self,
        pools,
        stochastic: bool,
        commute_stops: list[LatLng],
        trace_stops: list[LatLng],
    ) -> list[FleetClient]:
        """Plan cohorts over the whole fleet, materialize only the tracers.

        A cohort is (mobility spec, resolver pool index): every device in it
        would be built from the same store/route/bounds and talk to the same
        shared resolver, so they differ only by RNG stream — exactly the
        statistical identity tracer sampling needs.  Keys repeat every
        ``lcm(mobility period, pools)`` indices, so planning reads only the
        first few periods; device objects exist only for tracers, which is
        what makes million-client fleets affordable.
        """

        def assignment(index: int) -> tuple[tuple[tuple[str, int], int], str]:
            spec = self._mobility_spec(index)
            pool_index = index % len(pools)
            return (spec, pool_index), f"{spec[0]}{spec[1]}-pool{pool_index}"

        self.cohorts = plan_periodic_cohorts(
            assignment,
            self.config.clients,
            math.lcm(self._mobility_period(), len(pools)),
            self.config.tracers_per_cohort,
        )
        fleet: list[FleetClient] = []
        for cohort in self.cohorts:
            spec, _pool_index = cohort.key
            weights = cohort.tracer_weights()
            for tracer_index, weight in zip(cohort.tracer_indices, weights):
                device = self._make_device(
                    tracer_index,
                    pools,
                    stochastic,
                    self._make_mobility(spec, commute_stops, trace_stops),
                    weight=weight,
                )
                cohort.tracers.append(device)
                fleet.append(device)
        # Fleet order (and thus every per-round interleaving) stays index
        # order regardless of how cohorts were discovered.
        fleet.sort(key=lambda device: device.index)
        return fleet

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> WorkloadReport:
        """Run the configured number of steps across the whole fleet.

        Each round applies due faults, churn and control at the round
        boundary, then runs the fleet from one instant: below the cohort
        threshold every device in index order, at or above it every cohort.
        Clients within one round act *concurrently*: each runs serially from
        the same simulated instant and the clock is rewound between them, so
        a round advances time by its slowest request (plus the configured
        inter-round pacing) rather than by the sum over the whole fleet.
        Without this, large fleets would spuriously age every TTL between one
        client's consecutive requests.  The round starts *after* any control
        exchange, so a networked operator's control-hop time delays the
        round's traffic rather than being overlapped by it.
        """
        network = self.scenario.federation.network
        clock = network.clock
        started_at = clock.now()
        self._telemetry_begin(clock.now())
        try:
            for round_index in range(self.config.steps):
                self._apply_faults(clock.now())
                self._apply_churn(clock.now())
                self._apply_control(clock.now())
                round_start = clock.now()
                self._round_slowest = 0.0
                if self._cohort_mode:
                    for cohort in self.cohorts:
                        self._run_cohort(cohort, round_start)
                else:
                    for device in self.fleet:
                        self._run_device(device, round_start)
                clock.advance(self._round_slowest + self.config.step_seconds)
                self._observe_rediscoveries(clock.now())
                self._observe_convergence(clock.now())
                for observer in self._round_observers:
                    observer(round_index, clock.now())
        finally:
            # Leave the shared network on its default jitter stream: direct
            # (non-fleet) use after a run must not inherit the last device's.
            network.set_jitter_stream(None)
        return self._report(clock.now() - started_at)

    def _run_device(self, device: FleetClient, round_start: float) -> None:
        """One device's round: advance, issue, track the slowest, rewind."""
        clock = self.scenario.federation.network.clock
        device.advance()
        kind = self.config.mix.sample(device.rng)
        self._issue(device, kind)
        self._round_slowest = max(self._round_slowest, clock.now() - round_start)
        clock.rewind_to(round_start)

    def _run_cohort(self, cohort: Cohort, round_start: float) -> None:
        """One cohort's round: tracers run for real, phantoms ride along.

        Each tracer runs the full client stack with ``_active_weight`` set,
        so every metric it records counts for its whole share of the cohort.
        Server-side, the tracer's per-kind queue arrivals are diffed around
        its turn and replayed ``weight − 1`` times as batch phantom load at
        the same instant — phantoms occupy real worker capacity (later
        requests queue behind them, overflow is dropped) without the engine
        simulating their client stacks.
        """
        federation = self.scenario.federation
        queues = {
            server_id: server.queue
            for server_id, server in federation.all_servers.items()
            if server.queue is not None
        }
        for device in cohort.tracers:
            weight = device.weight
            before = (
                {server_id: dict(queue.kind_arrivals) for server_id, queue in queues.items()}
                if weight > 1 and queues
                else None
            )
            self._active_weight = weight
            try:
                self._run_device(device, round_start)
            finally:
                self._active_weight = 1
            if before is None:
                continue
            for server_id, queue in queues.items():
                prior = before[server_id]
                for kind, arrivals in queue.kind_arrivals.items():
                    delta = arrivals - prior.get(kind, 0)
                    if delta > 0:
                        # The clock is back at round_start, so phantom jobs
                        # land at the same instant their tracer's did.
                        queue.phantom_arrivals(kind, delta * (weight - 1))

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _telemetry_begin(self, now: float) -> None:
        """Open the pipeline's first window, priming server baselines so
        queue activity predating the run is never attributed to it."""
        if self.telemetry is not None:
            self.telemetry.begin(now, self._telemetry_frames())
        if self.autoscaler is not None:
            self.autoscaler.begin(now)

    def _telemetry_frames(self) -> dict[str, dict[str, object]]:
        """Cumulative queue frames for every server (offline ones included:
        a server that crashed mid-window still emitted into it)."""
        frames: dict[str, dict[str, object]] = {}
        for server_id, server in sorted(self.scenario.federation.all_servers.items()):
            frame = server.telemetry_frame()
            if frame is not None:
                frames[server_id] = frame
        return frames

    def _telemetry_flush(self, round_index: int, now: float) -> None:
        """The pipeline's round observer: fold this round's server deltas
        in, annotate active fault families, and seal the window if due."""
        del round_index  # windows key on simulated time, not round count
        assert self.telemetry is not None
        self.telemetry.observe_servers(self._telemetry_frames())
        faults_active: tuple[str, ...] = ()
        if self.fault_injector is not None:
            faults_active = self.fault_injector.active_fault_kinds()
        self.telemetry.flush(now, faults_active)

    def _device_cell(self, device: FleetClient) -> str:
        """The covering-cell token request records key on: the device's
        current position at the pipeline's configured (finest) level."""
        assert self.telemetry is not None
        return CellId.from_point(device.position, self.telemetry.config.cell_level).token

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def _apply_faults(self, now: float) -> None:
        """Apply due fault-tape events at a round boundary, then charge any
        active flash crowd's load for the round about to run.

        Like churn, disasters land *between* concurrent rounds: a partition
        is open or healed for a whole round, never half of one.
        """
        if self.fault_injector is None:
            return
        for event in self.fault_injector.apply_until(now):
            if event.applied:
                self.metrics.counter(f"faults.{event.kind}").increment()
            else:
                self.metrics.counter("faults.skipped").increment()
        self.fault_injector.inject_round_load()

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    def _apply_churn(self, now: float) -> None:
        """Apply due membership events at a round boundary.

        Events land *between* concurrent rounds — the same granularity at
        which the round clock advances — so a server is either up or down
        for a whole round, never half of one.
        """
        if self.churn_controller is None:
            return
        federation = self.scenario.federation
        for event in self.churn_controller.apply_until(now):
            if not event.applied:
                continue
            self.metrics.counter(f"churn.{event.kind}").increment()
            if event.kind == "join":
                server = federation.servers.get(event.server_id)
                baseline = server.stats.total_requests if server is not None else 0
                self._pending_rediscovery[event.server_id] = (event.at_seconds, baseline)

    def _observe_rediscoveries(self, now: float) -> None:
        """Check whether rejoined servers have been found by clients again.

        Time-to-rediscovery is measured at round granularity: the first
        round after which a rejoined server's served-request counter moved.
        """
        if not self._pending_rediscovery:
            return
        federation = self.scenario.federation
        found: list[str] = []
        for server_id, (rejoined_at, baseline) in self._pending_rediscovery.items():
            server = federation.servers.get(server_id)
            if server is None:  # crashed again before being rediscovered
                continue
            if server.stats.total_requests > baseline:
                self.metrics.summary("availability.rediscovery_seconds").observe(
                    now - rejoined_at
                )
                found.append(server_id)
        for server_id in found:
            del self._pending_rediscovery[server_id]

    # ------------------------------------------------------------------
    # Operator control plane
    # ------------------------------------------------------------------
    def _apply_control(self, now: float) -> None:
        """Apply due operator actions at a round boundary, then start the
        convergence stopwatch for every device holding a stale view.

        A device is *tracked* only if it actually holds cached SRV data for
        the re-weighted server that disagrees with the new advertisement —
        devices that never resolved the server bootstrap straight onto the
        live values and have nothing to converge."""
        if self.control_plane is None:
            return
        for event in self.control_plane.apply_until(now):
            if not event.applied:
                self.metrics.counter("control.rejected").increment()
                continue
            self.metrics.counter(f"control.{event.kind}").increment()
            target = (event.priority, event.weight)
            for device in self.fleet:
                held = device.client.context.discoverer.srv_view.get(event.server_id)
                if held is None:
                    continue
                key = (device.index, event.server_id)
                if held == target:
                    # The newest advertisement matches what the device
                    # already holds (e.g. an undrain restored the weight
                    # before this device ever saw the drain): the change is
                    # invisible to it, so any stopwatch still running toward
                    # the now-obsolete value is voided, not left to report
                    # phantom non-convergence.
                    if self._pending_convergence.pop(key, None) is not None:
                        self._devices_tracked -= 1
                    continue
                if key not in self._pending_convergence:
                    self._devices_tracked += 1
                # A second event against the same server restarts the
                # stopwatch toward the *newest* advertisement.
                self._pending_convergence[key] = (now, target)

    def _observe_convergence(self, now: float) -> None:
        """Check tracked devices' SRV views against their targets.

        Time-to-converge is measured at round granularity, like rediscovery:
        the first round end at which the device's view — refreshed only by a
        fresh discovery once its cache entries lapsed — matches the new
        advertisement."""
        if not self._pending_convergence:
            return
        converged: list[tuple[int, str]] = []
        for (index, server_id), (since, target) in self._pending_convergence.items():
            view = self._device_by_index[index].client.context.discoverer.srv_view
            if view.get(server_id) == target:
                self.metrics.histogram("control.converge_seconds").observe(now - since)
                converged.append((index, server_id))
        for key in converged:
            del self._pending_convergence[key]

    def _issue(self, device: FleetClient, kind: RequestKind) -> None:
        network = self.scenario.federation.network
        if device.net_rng is not None:
            network.set_jitter_stream(device.net_rng)
        # 1 everywhere except a cohort tracer's turn, where one request
        # records on behalf of the tracer's whole phantom share.
        weight = self._active_weight
        latency_before = network.stats.total_latency_ms
        recorder = device.client.context.failover
        chains_ok_before = recorder.chains_ok
        chains_failed_before = recorder.chains_failed
        discoverer = device.client.context.discoverer
        stale_before = discoverer.stale_serves
        faults = network.faults if self.fault_injector is not None else None
        if faults is not None:
            # Which side of a region-scoped partition this device's
            # exchanges see: its resolver-pool index is its client region.
            faults.active_region = device.index % self.config.resolver_pools
        issued = True
        try:
            if kind == RequestKind.SEARCH:
                self._do_search(device)
            elif kind == RequestKind.ROUTE:
                issued = self._do_route(device)
            elif kind == RequestKind.TILES:
                self._do_tiles(device)
            else:
                self._do_localize(device)
        except FederatedRoutingError:
            # Failed requests are counted separately; their (often short)
            # abort latency must not dilute the success-path percentiles.
            self.metrics.counter(f"errors.{kind.value}").increment(weight)
            self.metrics.counter("availability.failed_requests").increment(weight)
            if self.telemetry is not None:
                self.telemetry.record_request(
                    self._device_cell(device),
                    device.index % self.config.resolver_pools,
                    kind.value,
                    network.stats.total_latency_ms - latency_before,
                    float(weight),
                    ok=False,
                    degraded=discoverer.stale_serves > stale_before,
                )
            return
        finally:
            if faults is not None:
                faults.active_region = None
            if discoverer.stale_serves > stale_before:
                # The request got *degraded* service: at least one cell was
                # answered from a stale-while-unreachable cached SRV view.
                self.metrics.counter("degraded.requests").increment(weight)
        chains_all_failed = (
            recorder.chains_failed > chains_failed_before
            and recorder.chains_ok == chains_ok_before
        )
        if chains_all_failed:
            # Every map server this request tried was unreachable or
            # overloaded past its whole replica chain: the user got nothing.
            self.metrics.counter("availability.failed_requests").increment(weight)
        if not issued:
            # No traffic was generated; recording a request with 0 ms latency
            # would dilute the tail percentiles the benchmarks compare.  The
            # counter lives outside the "requests." namespace so _report's
            # prefix sum counts only real traffic.
            self.metrics.counter(f"skipped.{kind.value}").increment(weight)
            return
        self.metrics.counter(f"requests.{kind.value}").increment(weight)
        latency_ms = network.stats.total_latency_ms - latency_before
        self.metrics.histogram("latency_ms.all").observe(latency_ms, weight)
        self.metrics.histogram(f"latency_ms.{kind.value}").observe(latency_ms, weight)
        if self.telemetry is not None:
            # A request whose every chain failed was *issued* (its latency
            # counts) but got no service — for SLO purposes it is bad.
            self.telemetry.record_request(
                self._device_cell(device),
                device.index % self.config.resolver_pools,
                kind.value,
                latency_ms,
                float(weight),
                ok=not chains_all_failed,
                degraded=discoverer.stale_serves > stale_before,
            )

    def _do_search(self, device: FleetClient) -> None:
        weight = self._active_weight
        poi = self._poi_sampler.sample(device.rng)
        result = device.client.search(
            poi.name, near=poi.location, radius_meters=self.config.search_radius_meters
        )
        self.metrics.counter("search.results").increment(len(result) * weight)
        self.metrics.counter("dns.lookups").increment(result.dns_lookups * weight)

    def _do_route(self, device: FleetClient) -> bool:
        """Route to a popular POI; returns False if no route was worth issuing.

        A shopper standing on the very shelf it would route to resamples a
        few times before giving up, so zero-length "routes" never happen.
        """
        weight = self._active_weight
        for _ in range(4):
            poi = self._poi_sampler.sample(device.rng)
            if device.position.distance_to(poi.location) < 1.0:
                continue
            result = device.client.route(device.position, poi.location)
            self.metrics.histogram("route.length_meters").observe(
                result.length_meters, weight
            )
            self.metrics.counter("dns.lookups").increment(result.dns_lookups * weight)
            return True
        return False

    def _do_tiles(self, device: FleetClient) -> None:
        weight = self._active_weight
        viewport = BoundingBox.around(device.position, self.config.viewport_meters)
        result = device.client.render_viewport(viewport, zoom=self.config.tile_zoom)
        self.metrics.counter("tiles.downloaded").increment(result.tiles_downloaded * weight)
        self.metrics.counter("tiles.from_cache").increment(result.tiles_from_cache * weight)
        self.metrics.counter("dns.lookups").increment(result.dns_lookups * weight)

    def _do_localize(self, device: FleetClient) -> None:
        weight = self._active_weight
        cues = self._sense(device)
        result = device.client.localize(device.position, cues)
        if result.best is not None:
            self.metrics.counter("localize.fixes").increment(weight)
        self.metrics.counter("dns.lookups").increment(result.dns_lookups * weight)

    def _sense(self, device: FleetClient) -> CueBundle:
        """What the device senses where it stands.

        Devices walking a store sense that store's beacons and imagery (the
        rich indoor bundle); everyone else has only a noisy satellite fix.
        """
        if isinstance(device.mobility, AisleWalk):
            store = device.mobility.store
            local = store.geographic_to_local(device.position)
            if store.contains_local(local):
                return store.sense_cues(local, device.rng)
        bearing = device.rng.uniform(0.0, 360.0)
        offset = abs(device.rng.gauss(0.0, self.config.gnss_error_meters))
        return CueBundle(
            gnss=GnssCue(
                device.position.destination(bearing, offset),
                accuracy_meters=self.config.gnss_error_meters,
            )
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _report(self, simulated_seconds: float) -> WorkloadReport:
        if self.telemetry is not None:
            # Seal a trailing partial window so short runs still report.
            self.telemetry.finalize(self.scenario.federation.network.clock.now())
        requests = sum(
            counter.value
            for name, counter in self.metrics.counters.items()
            if name.startswith("requests.")
        )
        errors = sum(
            counter.value
            for name, counter in self.metrics.counters.items()
            if name.startswith("errors.")
        )
        discovery_hits = discovery_misses = 0
        tile_hits = tile_misses = 0
        fleet_failover = FailoverRecorder()
        for device in self.fleet:
            stats = device.client.cache_stats()
            # Weight is 1 on the exact path; on the cohort fast path a
            # tracer's cache behaviour stands in for its phantom share.
            discovery_hits += int(stats["discovery.hits"]) * device.weight
            discovery_misses += int(stats["discovery.misses"]) * device.weight
            tile_hits += int(stats["tiles.hits"]) * device.weight
            tile_misses += int(stats["tiles.misses"]) * device.weight
            # Failover accounting stays tracer-only (unweighted): the
            # recorder holds raw latency lists that cannot be scaled.
            fleet_failover.merge_from(device.client.context.failover)
        if fleet_failover.failover_ms:
            # Failover latencies land in the shared registry so the snapshot
            # and latency_percentiles("failover") see them.
            self.metrics.histogram("latency_ms.failover").observe_many(
                fleet_failover.failover_ms
            )

        federation = self.scenario.federation
        server_stats: dict[str, dict[str, float]] = {}
        # Include servers currently offline: a server that crashed mid-run
        # keeps its accumulated load statistics in the books.
        for server_id, server in federation.all_servers.items():
            if server.queue is not None:
                server_stats[server_id] = server.queue.snapshot(
                    window_seconds=simulated_seconds
                )

        # Aggregate the DNS hit rate over every pool the fleet was sharded
        # across (pool 0 alone is the historical single-resolver number).
        pools = federation.resolver_pool(self.config.resolver_pools)
        pool_hit_rates = tuple(pool.recursive.cache.stats.hit_rate for pool in pools)
        answered = total = 0
        for pool in pools:
            stats = pool.recursive.cache.stats
            answered += stats.hits + stats.negative_hits
            total += stats.hits + stats.negative_hits + stats.misses
        failed_counter = self.metrics.counters.get("availability.failed_requests")
        churn_applied = 0
        if self.churn_controller is not None:
            churn_applied = sum(1 for event in self.churn_controller.applied if event.applied)
        rediscovery = self.metrics.summaries.get("availability.rediscovery_seconds")
        control_stats: dict[str, float] = {}
        if self.control_plane is not None:
            converge = self.metrics.histograms.get("control.converge_seconds")
            applied = sum(1 for event in self.control_plane.applied if event.applied)
            rejected = sum(1 for event in self.control_plane.applied if not event.applied)
            control_stats = {
                "events_applied": float(applied),
                "events_rejected": float(rejected),
                "devices_tracked": float(self._devices_tracked),
                "devices_converged": float(converge.count if converge is not None else 0),
                "devices_unconverged": float(len(self._pending_convergence)),
                "converge_p50_s": converge.p50 if converge is not None else 0.0,
                "converge_p95_s": converge.p95 if converge is not None else 0.0,
                "converge_mean_s": converge.mean if converge is not None else 0.0,
            }
        degraded_counter = self.metrics.counters.get("degraded.requests")
        degraded = degraded_counter.value if degraded_counter is not None else 0
        fault_stats: dict[str, float] = {}
        if self.fault_injector is not None:
            applied = sum(1 for event in self.fault_injector.applied if event.applied)
            skipped = sum(1 for event in self.fault_injector.applied if not event.applied)
            stale_serves = sum(
                device.client.context.discoverer.stale_serves * device.weight
                for device in self.fleet
            )
            fault_stats = {
                "events_applied": float(applied),
                "events_skipped": float(skipped),
                "degraded_requests": float(degraded),
                "stale_serves": float(stale_serves),
            }
        operator_stats: dict[str, float] = {}
        if self.operator_client is not None and self.operator_api is not None:
            operator_stats = {
                key: float(value)
                for key, value in self.operator_client.counters.items()
            }
            operator_stats["audit_records"] = float(len(self.operator_api.audit))
            if isinstance(self.control_plane, NetworkedControlPlayer):
                player = self.control_plane
                operator_stats["tape_retries"] = float(player.retries)
                operator_stats["tape_pending"] = float(player.pending_events)
                for key, value in player.lag_stats().items():
                    operator_stats[f"delivery_lag_{key}"] = value
        sampling: dict[str, float] = {}
        if self._cohort_mode:
            sampling = {
                "cohorts": float(len(self.cohorts)),
                "tracers": float(len(self.fleet)),
                "fleet_clients": float(self.config.clients),
                "phantom_clients": float(self.config.clients - len(self.fleet)),
                "max_weight": float(max((d.weight for d in self.fleet), default=1)),
            }
        return WorkloadReport(
            metrics=self.metrics,
            requests=requests,
            errors=errors,
            discovery_cache_hits=discovery_hits,
            discovery_cache_misses=discovery_misses,
            tile_cache_hits=tile_hits,
            tile_cache_misses=tile_misses,
            dns_cache_hit_rate=answered / total if total else 0.0,
            simulated_seconds=simulated_seconds,
            server_stats=server_stats,
            dns_pool_hit_rates=pool_hit_rates,
            failover=fleet_failover,
            failed_requests=failed_counter.value if failed_counter is not None else 0,
            churn_events_applied=churn_applied,
            rediscoveries=rediscovery.count if rediscovery is not None else 0,
            rejoins_unseen=len(self._pending_rediscovery),
            replica_groups={
                group_id: group.server_ids
                for group_id, group in sorted(federation.replica_groups.items())
            },
            control_stats=control_stats,
            sampling=sampling,
            degraded_requests=degraded,
            fault_stats=fault_stats,
            telemetry=self.telemetry,
            autoscale_stats=(
                self.autoscaler.stats() if self.autoscaler is not None else {}
            ),
            operator_stats=operator_stats,
        )
