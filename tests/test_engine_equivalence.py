"""Golden snapshots: the round loop against pinned reference digests.

Each case runs one fresh scenario+fleet and compares the sha256 prefix of
its canonical ``WorkloadReport.snapshot()`` JSON with a pinned digest.  The
exact-path digests were produced when the engine still had two loops (an
event heap and a plain round loop) and both produced them byte-for-byte,
so every scenario here — seeds, mobility mixes, resolver shardings, churn
and control tapes, stochastic network jitter, telemetry and the
autoscaler — stays covered against a fixed reference rather than against
a second implementation.  A digest that moves means simulated behaviour
moved: regenerate it only together with the committed artifacts, and say
why in the change log.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.autoscale import AutoscalerConfig
from repro.churn.schedule import ChurnEvent, ChurnEventKind, ChurnSchedule
from repro.control.schedule import ControlEvent, ControlEventKind, ControlSchedule
from repro.core.config import FederationConfig
from repro.simulation.network import LatencyModel
from repro.simulation.queueing import ServiceTimeModel
from repro.telemetry import TelemetryConfig
from repro.workload import WorkloadConfig, WorkloadEngine
from repro.worldgen.scenario import build_scenario


def digest(snapshot: dict[str, float]) -> str:
    return hashlib.sha256(json.dumps(snapshot, sort_keys=True).encode()).hexdigest()[:16]


def scenario_for(**scenario_kw):
    scenario_kw.setdefault("store_count", 2)
    scenario_kw.setdefault("city_rows", 4)
    scenario_kw.setdefault("city_cols", 4)
    scenario_kw.setdefault("seed", 33)
    return build_scenario(**scenario_kw)


def snapshot_for(*, scenario=None, scenario_kw=None, **config_kw) -> dict[str, float]:
    """Run one fleet and return its snapshot.

    Scenarios are never shared between runs: runs mutate caches, queues
    and the clock, so each case starts from freshly built world state.
    """
    if scenario is None:
        scenario = scenario_for(**dict(scenario_kw or {}))
    config_kw.setdefault("clients", 24)
    config_kw.setdefault("steps", 3)
    return WorkloadEngine(scenario, WorkloadConfig(**config_kw)).run().snapshot()


class TestByteIdenticalSnapshots:
    SEED_DIGESTS = {0: "032e1be3b2c20dc8", 7: "6eba6f285a3610fe", 21: "b01e7191238eafc1"}
    SHAPE_DIGESTS = {
        (1, 1): "72679bf46c7892e4",
        (5, 2): "01a537686a723b0a",
        (40, 4): "21d0b3f6c0283d97",
    }

    @pytest.mark.parametrize("seed", sorted(SEED_DIGESTS))
    def test_across_seeds(self, seed):
        assert digest(snapshot_for(seed=seed)) == self.SEED_DIGESTS[seed]

    @pytest.mark.parametrize("clients,steps", sorted(SHAPE_DIGESTS))
    def test_across_fleet_shapes(self, clients, steps):
        snapshot = snapshot_for(clients=clients, steps=steps, seed=7)
        assert digest(snapshot) == self.SHAPE_DIGESTS[(clients, steps)]

    def test_with_long_traces_and_dwell(self):
        snapshot = snapshot_for(seed=7, long_traces=True, trace_dwell_steps=2, steps=5)
        assert digest(snapshot) == "9fcf53aa800408b3"

    def test_with_resolver_pools(self):
        assert digest(snapshot_for(seed=7, resolver_pools=3)) == "a6e9c91b50005a8e"

    def test_with_stochastic_network_jitter(self):
        snapshot = snapshot_for(
            seed=7,
            scenario_kw={"config": FederationConfig(latency=LatencyModel(jitter_sigma=0.4))},
        )
        assert digest(snapshot) == "3d238cca3b691e08"

    def test_with_churn_tape(self):
        scenario = scenario_for(store_replicas=2, seed=21)
        victim = scenario.store_replica_ids(0)[0]
        churn = ChurnSchedule.from_events(
            [
                ChurnEvent(4.0, ChurnEventKind.CRASH, victim),
                ChurnEvent(20.0, ChurnEventKind.JOIN, victim),
            ]
        )
        snapshot = snapshot_for(scenario=scenario, seed=11, steps=6, churn=churn)
        assert digest(snapshot) == "730e56d8e27a317b"

    def test_with_control_tape(self):
        scenario = scenario_for(store_replicas=3, seed=21)
        replicas = scenario.store_replica_ids(0)
        control = ControlSchedule.from_events(
            [
                ControlEvent(6.0, ControlEventKind.SET_WEIGHT, replicas[1], 7),
                ControlEvent(14.0, ControlEventKind.DRAIN, replicas[2]),
            ]
        )
        snapshot = snapshot_for(scenario=scenario, seed=11, steps=6, control=control)
        assert digest(snapshot) == "6a27c3834aae185f"

    def test_kitchen_sink(self):
        """Everything at once: replicas, queue model, jitter, churn AND
        control tapes, long traces, sharded resolvers."""
        fed = FederationConfig(
            latency=LatencyModel(jitter_sigma=0.3),
            service_times=ServiceTimeModel(default_ms=2.0, per_kind_ms={"routing": 5.0}),
            server_queue_capacity=64,
        )
        scenario = scenario_for(store_replicas=2, seed=21, config=fed)
        replicas = scenario.store_replica_ids(0)
        churn = ChurnSchedule.from_events(
            [
                ChurnEvent(4.0, ChurnEventKind.CRASH, replicas[0]),
                ChurnEvent(24.0, ChurnEventKind.JOIN, replicas[0]),
            ]
        )
        control = ControlSchedule.from_events(
            [ControlEvent(10.0, ControlEventKind.SET_WEIGHT, replicas[1], 9)]
        )
        snapshot = snapshot_for(
            scenario=scenario,
            seed=3,
            steps=7,
            clients=30,
            resolver_pools=2,
            long_traces=True,
            churn=churn,
            control=control,
        )
        assert digest(snapshot) == "304e1e51d8046dfe"

    def test_cohort_branch(self):
        """The cohort fast path (3,000 clients, 64 tracers in 4 cohorts)."""
        snapshot = snapshot_for(
            scenario_kw={"reuse_worlds": True},
            clients=3000,
            seed=7,
            cohort_min_clients=500,
        )
        assert snapshot["sampling.tracers"] == 64.0
        assert digest(snapshot) == "1cabe8d63dbb718c"


class TestRoundObserverHook:
    """The round-boundary observer hook must be byte-transparent."""

    def _snapshot_with_observer(self, observe: bool) -> tuple[dict[str, float], list]:
        engine = WorkloadEngine(scenario_for(), WorkloadConfig(clients=24, steps=4, seed=7))
        seen: list[tuple[int, float]] = []
        if observe:
            engine.add_round_observer(lambda index, now: seen.append((index, now)))
        return engine.run().snapshot(), seen

    def test_noop_observer_is_byte_transparent(self):
        """A registered observer that does nothing changes no snapshot
        byte — the hook itself is free."""
        bare, _ = self._snapshot_with_observer(observe=False)
        observed, seen = self._snapshot_with_observer(observe=True)
        assert observed == bare
        assert [index for index, _ in seen] == [0, 1, 2, 3]

    def test_observers_fire_at_pinned_instants(self):
        """Each round's observers see the clock after the round's slowest
        request plus the 2 s pacing — pinned to the exact float bits."""
        _, seen = self._snapshot_with_observer(observe=True)
        assert [(index, now.hex()) for index, now in seen] == [
            (0, "0x1.ea3d70a3d70a6p+1"),
            (1, "0x1.8b43958106248p+2"),
            (2, "0x1.10b439581061ep+3"),
            (3, "0x1.5bc6a7ef9db27p+3"),
        ]

    def test_telemetry_on_event_legacy_equivalence(self):
        """With telemetry collecting, the snapshot (including every
        ``telemetry.*`` key) matches the digest both former loops produced."""
        snapshot = snapshot_for(seed=7, steps=5, telemetry=TelemetryConfig(window_seconds=4.0))
        assert any(key.startswith("telemetry.") for key in snapshot)
        assert digest(snapshot) == "2596d3ee320d2413"

    def test_autoscaler_on_event_legacy_equivalence(self):
        """With a live autoscaler driving warm-pool weights mid-run, the
        snapshot (including every ``autoscale.*`` key) matches the digest
        both former loops produced: the scaler's round observer fires at
        the same instants, so the whole decision tape is unchanged."""
        scenario = scenario_for(
            store_replicas=2,
            config=FederationConfig(
                service_times=ServiceTimeModel(default_ms=2.0),
                server_queue_capacity=64,
            ),
        )
        scenario.federation.attach_warm_pool(sorted(scenario.federation.replica_groups)[0], 1)
        snapshot = snapshot_for(
            scenario=scenario,
            clients=24,
            steps=6,
            seed=7,
            step_seconds=10.0,
            telemetry=TelemetryConfig(window_seconds=20.0),
            autoscale=AutoscalerConfig(
                wait_high_ms=1.0,
                wait_low_ms=0.5,
                burn_high=0.0,
                breach_evals=1,
                recover_evals=1,
                cooldown_seconds=10.0,
                ramp_cooldown_seconds=10.0,
                park_delay_seconds=10.0,
            ),
        )
        assert any(key.startswith("autoscale.") for key in snapshot)
        assert digest(snapshot) == "34f2e103463dfb20"


class TestEquivalenceBoundary:
    def test_snapshot_has_no_sampling_keys_below_threshold(self):
        assert not any(key.startswith("sampling.") for key in snapshot_for(seed=7))

    def test_snapshot_has_no_telemetry_keys_when_disabled(self):
        assert not any(key.startswith("telemetry.") for key in snapshot_for(seed=7))
