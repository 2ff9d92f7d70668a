"""Tests for the server-side load model (service times + bounded queue).

Covers the queueing model in isolation (service, backlog, drops, the
utilization→1 saturation property), its wiring into map servers and the
federation, and the jittered latency / resolver-pool refinements that ride
on the same fleet experiments.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right, insort

import pytest

from repro.core.config import FederationConfig
from repro.simulation.network import LatencyModel, SimulatedNetwork
from repro.simulation.queueing import (
    QueueStats,
    ServerOverloadedError,
    ServerQueue,
    ServiceTimeModel,
    _WorkerFull,
    _WorkerSchedule,
    _water_fill,
)
from repro.worldgen.scenario import build_scenario


def drive_open_arrivals(queue: ServerQueue, interarrival_s: float, count: int) -> None:
    """Feed ``count`` arrivals spaced ``interarrival_s`` apart.

    ``process`` advances the clock past each request's completion (the caller
    waits synchronously), so the driver rewinds/advances the clock to each
    arrival instant — the same concurrent-branch pattern the workload engine
    uses for fleet rounds.
    """
    clock = queue.network.clock
    for index in range(count):
        arrival = index * interarrival_s
        if clock.now() > arrival:
            clock.rewind_to(arrival)
        elif clock.now() < arrival:
            clock.advance(arrival - clock.now())
        try:
            queue.process("search")
        except ServerOverloadedError:
            pass  # shed load still counts in queue.stats.dropped


class TestServiceTimeModel:
    def test_default_and_override(self):
        model = ServiceTimeModel(default_ms=2.0, per_kind_ms={"routing": 8.0})
        assert model.service_ms("search") == 2.0
        assert model.service_ms("routing") == 8.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ServiceTimeModel(default_ms=-1.0)
        with pytest.raises(ValueError):
            ServiceTimeModel(per_kind_ms={"tiles": -0.5})


class TestServerQueue:
    def make_queue(self, service_ms: float = 10.0, capacity: int = 64) -> ServerQueue:
        return ServerQueue(
            network=SimulatedNetwork(),
            service_times=ServiceTimeModel(default_ms=service_ms),
            capacity=capacity,
        )

    def test_idle_server_charges_only_service_time(self):
        queue = self.make_queue(service_ms=10.0)
        total_ms = queue.process("search")
        assert total_ms == pytest.approx(10.0)
        assert queue.network.clock.now() == pytest.approx(0.010)
        assert queue.network.stats.total_latency_ms == pytest.approx(10.0)
        assert queue.stats.mean_wait_ms == 0.0

    def test_concurrent_arrivals_queue_behind_each_other(self):
        # Three requests arriving at the same instant (clock rewound between
        # them, as the workload engine does within a round) serialize: the
        # k-th pays k-1 service times of waiting.
        queue = self.make_queue(service_ms=10.0)
        clock = queue.network.clock
        totals = []
        for _ in range(3):
            clock.rewind_to(0.0)
            totals.append(queue.process("search"))
        assert totals == [pytest.approx(10.0), pytest.approx(20.0), pytest.approx(30.0)]
        assert queue.stats.max_depth == 2

    def test_backlog_drains_with_time(self):
        queue = self.make_queue(service_ms=10.0)
        clock = queue.network.clock
        for _ in range(3):
            clock.rewind_to(0.0)
            queue.process("search")
        clock.rewind_to(0.0)
        clock.advance(1.0)  # everything has completed by now
        assert queue.depth == 0
        assert queue.process("search") == pytest.approx(10.0)

    def test_bounded_queue_drops_when_full(self):
        queue = self.make_queue(service_ms=10.0, capacity=2)
        clock = queue.network.clock
        for _ in range(2):
            clock.rewind_to(0.0)
            queue.process("search")
        clock.rewind_to(0.0)
        with pytest.raises(ServerOverloadedError):
            queue.process("search")
        assert queue.stats.dropped == 1
        assert queue.stats.served == 2
        assert queue.stats.drop_rate == pytest.approx(1.0 / 3.0)

    def test_utilization_tracks_offered_load(self):
        # Offered load rho = service / interarrival; utilization ~= rho.
        for rho in (0.25, 0.5, 0.9):
            queue = self.make_queue(service_ms=10.0, capacity=10_000)
            drive_open_arrivals(queue, interarrival_s=0.010 / rho, count=400)
            window = 400 * (0.010 / rho)
            assert queue.stats.utilization(window) == pytest.approx(rho, rel=0.05)

    def test_utilization_approaches_one_at_saturation(self):
        # Offered load beyond the service rate: the server is busy the whole
        # horizon it worked through, i.e. utilization -> 1.
        queue = self.make_queue(service_ms=10.0, capacity=10_000)
        drive_open_arrivals(queue, interarrival_s=0.005, count=400)  # rho = 2
        utilization = queue.stats.utilization(queue.busy_until)
        assert utilization == pytest.approx(1.0, rel=0.01)
        assert queue.stats.mean_wait_ms > 100.0  # backlog grew without bound

    def test_deterministic(self):
        def one_run() -> dict[str, float]:
            queue = self.make_queue(service_ms=7.0, capacity=32)
            drive_open_arrivals(queue, interarrival_s=0.004, count=100)
            return queue.stats.snapshot(window_seconds=queue.busy_until)

        assert one_run() == one_run()

    def test_snapshot_fields(self):
        queue = self.make_queue()
        queue.process("search")
        snapshot = queue.stats.snapshot(window_seconds=1.0)
        for key in ("arrivals", "served", "dropped", "drop_rate", "busy_ms",
                    "mean_wait_ms", "mean_depth", "max_depth", "utilization"):
            assert key in snapshot

    def test_rejects_silly_capacity(self):
        with pytest.raises(ValueError):
            ServerQueue(network=SimulatedNetwork(), capacity=0)


class TestMapServerQueueWiring:
    def make_scenario(self, **config_kwargs):
        config = FederationConfig(
            service_times=ServiceTimeModel(default_ms=5.0, per_kind_ms={"routing": 12.0}),
            **config_kwargs,
        )
        return build_scenario(store_count=1, city_rows=3, city_cols=3, config=config, seed=11)

    def test_servers_get_queues_and_charge_latency(self):
        scenario = self.make_scenario()
        federation = scenario.federation
        assert all(server.queue is not None for server in federation.servers.values())
        client = federation.client()
        before = federation.network.stats.server_processing_ms
        client.search("milk", near=scenario.stores[0].entrance, radius_meters=200.0)
        after = federation.network.stats.server_processing_ms
        assert after > before  # the consulted servers' service time was charged

    def test_no_service_times_means_no_queue(self):
        scenario = build_scenario(store_count=1, city_rows=3, city_cols=3, seed=11)
        assert all(server.queue is None for server in scenario.federation.servers.values())

    def test_overloaded_server_is_skipped_not_fatal(self):
        config = FederationConfig(
            # One slot, and a service slow enough that the backlog outlives
            # the client's own DNS walk to the server.
            service_times=ServiceTimeModel(default_ms=60_000.0),
            server_queue_capacity=1,
        )
        scenario = build_scenario(store_count=1, city_rows=3, city_cols=3, config=config, seed=11)
        federation = scenario.federation
        server = scenario.store_server(0)
        # Saturate the store server's queue with a request whose completion
        # (at t=160s) outlives everything the client's fan-out does first —
        # including a full 60s service at the city server.
        clock = federation.network.clock
        clock.advance(100.0)
        server.queue.process("search")
        clock.rewind_to(10.0)
        client = federation.client()
        # The fan-out search must survive the overloaded server (it is
        # skipped like a denied one) and still consult the city server.
        result = client.search("milk", near=scenario.stores[0].entrance, radius_meters=200.0)
        assert result.servers_consulted >= 1
        assert server.queue.stats.dropped >= 1


class TestJitteredLatency:
    def test_default_latency_model_is_deterministic(self):
        model = LatencyModel()
        assert not model.is_stochastic
        network = SimulatedNetwork(latency=model)
        assert network.client_map_server_exchange() == pytest.approx(50.0)

    def test_jitter_varies_latency_reproducibly(self):
        model = LatencyModel(jitter_sigma=0.5)

        def draws(seed: int) -> list[float]:
            network = SimulatedNetwork(latency=model, jitter_seed=seed)
            network.reseed_jitter(7)
            return [network.client_map_server_exchange() for _ in range(5)]

        first = draws(1)
        assert draws(1) == first  # deterministic per seed/stream
        assert draws(2) != first  # distinct streams differ
        assert len(set(first)) > 1  # latency actually varies

    def test_loss_charges_retransmissions(self):
        model = LatencyModel(loss_probability=0.5)
        network = SimulatedNetwork(latency=model, jitter_seed=3)
        network.reseed_jitter(1)
        total = sum(network.client_map_server_exchange() for _ in range(50))
        assert network.stats.retransmissions > 0
        # Every retransmission costs one extra full round trip.
        expected = 50 * 50.0 + network.stats.retransmissions * 50.0
        assert total == pytest.approx(expected)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(jitter_sigma=-0.1)
        with pytest.raises(ValueError):
            LatencyModel(loss_probability=1.0)


class TestQueueStatsEdgeCases:
    def test_empty_stats(self):
        stats = QueueStats()
        assert stats.drop_rate == 0.0
        assert stats.mean_wait_ms == 0.0
        assert stats.mean_depth == 0.0
        assert stats.utilization(0.0) == 0.0


class TestPhantomArrivals:
    """The cohort fast path's batch admission must match sequential reality."""

    def make_queue(self, service_ms: float = 10.0, capacity: int = 8, workers: int = 1) -> ServerQueue:
        return ServerQueue(
            network=SimulatedNetwork(),
            service_times=ServiceTimeModel(default_ms=service_ms),
            capacity=capacity,
            workers=workers,
        )

    def test_batch_matches_sequential_concurrent_admissions(self):
        """One phantom_arrivals(n) call must book the same aggregate stats as
        n sequential same-instant process() calls (the concurrent-round
        rewind pattern the engine uses)."""
        count = 30
        sequential = self.make_queue(service_ms=2.0, capacity=8, workers=3)
        clock = sequential.network.clock
        for _ in range(count):
            start = clock.now()
            try:
                sequential.process("search")
            except ServerOverloadedError:
                pass
            clock.rewind_to(start)

        batch = self.make_queue(service_ms=2.0, capacity=8, workers=3)
        batch.phantom_arrivals("search", count)

        a, b = sequential.stats, batch.stats
        assert (a.arrivals, a.served, a.dropped) == (b.arrivals, b.served, b.dropped)
        assert a.busy_ms == pytest.approx(b.busy_ms)
        assert a.wait_ms_total == pytest.approx(b.wait_ms_total)
        assert a.depth_total == b.depth_total
        assert a.max_depth == b.max_depth

    def test_phantoms_never_advance_the_clock(self):
        queue = self.make_queue()
        queue.phantom_arrivals("search", 5)
        assert queue.network.clock.now() == 0.0

    def test_later_real_request_queues_behind_phantom_load(self):
        """Phantom jobs occupy real worker time: a request issued after a
        batch waits behind it rather than seeing an idle server."""
        queue = self.make_queue(service_ms=10.0, capacity=8, workers=1)
        queue.phantom_arrivals("search", 3)
        total_ms = queue.process("search")
        assert total_ms == pytest.approx(40.0)  # 3 phantoms ahead + own service

    def test_capacity_bounds_batch_admission(self):
        queue = self.make_queue(service_ms=10.0, capacity=4, workers=2)
        admitted, dropped = queue.phantom_arrivals("search", 100)
        assert admitted == 8  # capacity x workers
        assert dropped == 92
        assert queue.stats.dropped == 92

    def test_kind_arrivals_tracks_per_kind_counts(self):
        queue = self.make_queue(capacity=64)
        queue.process("search")
        queue.process("search")
        queue.process("tiles")
        assert queue.kind_arrivals == {"search": 2, "tiles": 1}
        # ...and deliberately stays out of the committed snapshot keys.
        assert not any("kind" in key for key in queue.snapshot(window_seconds=1.0))

    def test_rejects_negative_count_and_accepts_zero(self):
        queue = self.make_queue()
        with pytest.raises(ValueError):
            queue.phantom_arrivals("search", -1)
        assert queue.phantom_arrivals("search", 0) == (0, 0)
        assert queue.stats.arrivals == 0


# ---------------------------------------------------------------------------
# Reference admission algorithms.  These are the plain backlog walk and the
# one-job-at-a-time water-fill that the gap index and the closed-form
# placement replaced; every simulated number must stay bit-for-bit equal to
# what they produce, so they stay here as oracles.


def reference_place(
    starts: list[float], ends: list[float], now: float, service_s: float, capacity: int
) -> tuple[float, int]:
    """Walk every live interval until a gap fits; raise once ``capacity`` are passed."""
    first_live = bisect_right(ends, now)
    cursor = now
    queued_behind = 0
    for index in range(first_live, len(starts)):
        if starts[index] - cursor >= service_s:
            break
        interval_end = ends[index]
        if interval_end > cursor:
            cursor = interval_end
            queued_behind += 1
            if queued_behind >= capacity:
                raise _WorkerFull()
    return cursor, queued_behind


def reference_water_fill(
    tails: list[float], caps: list[int], service_s: float, admitted: int
) -> list[int]:
    """Hand each job to the earliest-finishing worker with room, lowest index on ties."""
    assigned = [0] * len(tails)
    for _ in range(admitted):
        best_index = -1
        best_finish = math.inf
        for index in range(len(tails)):
            if assigned[index] >= caps[index]:
                continue
            finish = tails[index] + assigned[index] * service_s
            if finish < best_finish:
                best_finish = finish
                best_index = index
        assigned[best_index] += 1
    return assigned


class ReferenceQueue:
    """The same queue model on plain sorted lists, admitted with the oracles."""

    def __init__(self, service_times: ServiceTimeModel, capacity: int, workers: int) -> None:
        self.service_times = service_times
        self.capacity = capacity
        self.workers = workers
        self.stats = QueueStats()
        self.starts: list[list[float]] = [[] for _ in range(workers)]
        self.ends: list[list[float]] = [[] for _ in range(workers)]

    def _maybe_prune(self, now: float) -> None:
        if sum(len(ends) for ends in self.ends) > 1024:
            cutoff = now - ServerQueue._PRUNE_LAG_SECONDS
            for starts, ends in zip(self.starts, self.ends):
                cut = bisect_right(ends, cutoff)
                del starts[:cut]
                del ends[:cut]

    def _commit(self, index: int, start: float, service_s: float) -> None:
        insort(self.starts[index], start)
        insort(self.ends[index], start + service_s)

    def process(self, kind: str, now: float) -> float | None:
        """Total server-side ms, or None when every worker is full."""
        self.stats.arrivals += 1
        self._maybe_prune(now)
        service_ms = self.service_times.service_ms(kind)
        service_s = service_ms / 1000.0
        best = None
        for index in range(self.workers):
            try:
                start, queued_behind = reference_place(
                    self.starts[index], self.ends[index], now, service_s, self.capacity
                )
            except _WorkerFull:
                continue
            if best is None or start < best[0]:
                best = (start, queued_behind, index)
                if start <= now:
                    break
        if best is None:
            self.stats.dropped += 1
            return None
        start, queued_behind, index = best
        self.stats.depth_total += queued_behind
        self.stats.max_depth = max(self.stats.max_depth, queued_behind)
        wait_ms = (start - now) * 1000.0
        self._commit(index, start, service_s)
        self.stats.served += 1
        self.stats.busy_ms += service_ms
        self.stats.wait_ms_total += wait_ms
        return wait_ms + service_ms

    def phantom_arrivals(self, kind: str, count: int, now: float) -> tuple[int, int]:
        if count == 0:
            return (0, 0)
        self.stats.arrivals += count
        self._maybe_prune(now)
        service_ms = self.service_times.service_ms(kind)
        service_s = service_ms / 1000.0
        tails = [max(now, ends[-1] if ends else 0.0) for ends in self.ends]
        lives = [len(ends) - bisect_right(ends, now) for ends in self.ends]
        caps = [max(0, self.capacity - live) for live in lives]
        admitted = min(count, sum(caps))
        dropped = count - admitted
        self.stats.dropped += dropped
        if admitted == 0:
            return (0, dropped)
        if service_s <= 0.0:
            assigned = [0] * self.workers
            remaining = admitted
            while remaining:
                for index in range(self.workers):
                    if remaining and assigned[index] < caps[index]:
                        take = min(remaining, caps[index] - assigned[index])
                        assigned[index] += take
                        remaining -= take
        else:
            assigned = reference_water_fill(tails, caps, service_s, admitted)
        for index, jobs in enumerate(assigned):
            for position in range(jobs):
                start = tails[index] + position * service_s
                self._commit(index, start, service_s)
                self.stats.wait_ms_total += (start - now) * 1000.0
                queued_behind = lives[index] + position
                self.stats.depth_total += queued_behind
                self.stats.max_depth = max(self.stats.max_depth, queued_behind)
            self.stats.served += jobs
            self.stats.busy_ms += jobs * service_ms
        return (admitted, dropped)


def set_clock(queue: ServerQueue, instant: float) -> float:
    clock = queue.network.clock
    if clock.now() > instant:
        clock.rewind_to(instant)
    elif clock.now() < instant:
        clock.advance(instant - clock.now())
    return clock.now()


def assert_schedule_indexes(schedule: _WorkerSchedule) -> None:
    """The gap and repeated-end indexes match a from-scratch rebuild."""
    starts, ends = schedule.starts, schedule.ends
    assert starts == sorted(starts) and ends == sorted(ends)
    gaps = [i for i in range(1, len(starts)) if starts[i] - ends[i - 1] >= schedule.min_gap]
    repeats = [ends[i] for i in range(1, len(ends)) if ends[i] == ends[i - 1]]
    assert schedule.gap_starts == [starts[i] for i in gaps]
    assert schedule.gap_widths == [starts[i] - ends[i - 1] for i in gaps]
    assert schedule.repeat_ends == repeats


def assert_same_process(queue: ServerQueue, reference: ReferenceQueue, kind: str, now: float) -> None:
    """One real arrival: the same total ms, or an overload on both sides."""
    expected = reference.process(kind, now)
    if expected is None:
        with pytest.raises(ServerOverloadedError):
            queue.process(kind)
    else:
        assert queue.process(kind) == expected


def assert_same_state(queue: ServerQueue, reference: ReferenceQueue) -> None:
    assert queue.stats == reference.stats  # dataclass equality: exact floats
    for index, schedule in enumerate(queue._schedules):
        assert schedule.starts == reference.starts[index]
        assert schedule.ends == reference.ends[index]
        assert_schedule_indexes(schedule)
    assert queue._intervals == sum(len(ends) for ends in reference.ends)


MIXED_MODEL = ServiceTimeModel(
    default_ms=2.0,
    per_kind_ms={"search": 1.5, "routing": 4.0, "tiles": 0.5, "localization": 2.5, "ping": 0.0},
)
KINDS = ("search", "routing", "tiles", "localization", "ping", "other")


def run_mixed_sequence(
    seed: int, workers: int, capacity: int, model: ServiceTimeModel = MIXED_MODEL, steps: int = 400
) -> None:
    """Drive the queue and the reference through one random op sequence, comparing every step.

    Arrivals cluster in concurrent rounds (the clock rewinds within a
    round), rounds occasionally jump past the prune lag, and phantom
    batches large enough to saturate every worker are mixed in.
    """
    rng = random.Random(seed)
    queue = ServerQueue(network=SimulatedNetwork(), service_times=model, capacity=capacity, workers=workers)
    reference = ReferenceQueue(model, capacity, workers)
    round_start = 0.0
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.05:
            round_start += rng.choice((0.5, 5.0, 150.0))
        elif roll < 0.25:
            round_start += rng.uniform(0.0, 0.02)
        now = set_clock(queue, round_start + rng.choice((0.0, 0.0, rng.uniform(0.0, 0.03))))
        kind = rng.choice(KINDS)
        if rng.random() < 0.3:
            count = rng.choice((1, 2, rng.randrange(0, 4 * capacity * workers + 2)))
            assert queue.phantom_arrivals(kind, count) == reference.phantom_arrivals(kind, count, now)
            assert queue.network.clock.now() == now
        else:
            assert_same_process(queue, reference, kind, now)
        assert_same_state(queue, reference)


class TestAdmissionMatchesReference:
    """Gap-indexed placement and closed-form phantom fill are bit-for-bit the oracles."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 7, 16])
    @pytest.mark.parametrize("capacity", [1, 2, 5, 64])
    def test_random_mixed_sequences(self, workers: int, capacity: int):
        for seed in range(3):
            run_mixed_sequence(seed * 1000 + workers * 10 + capacity, workers, capacity)

    @pytest.mark.parametrize("workers", [64, 128])
    def test_random_mixed_sequences_wide_pools(self, workers: int):
        run_mixed_sequence(workers, workers, capacity=8, steps=120)

    def test_zero_length_only_model(self):
        # No positive service time at all: nothing is indexed, every
        # placement takes the narrow path.
        model = ServiceTimeModel(default_ms=0.0)
        for seed in range(4):
            run_mixed_sequence(seed, workers=3, capacity=4, model=model)

    def test_sequences_past_the_prune_trigger(self):
        # Enough phantom load to keep >1024 intervals held, with rounds that
        # jump past the prune lag, so placement runs on pruned schedules.
        rng = random.Random(5)
        model = ServiceTimeModel(default_ms=2.0, per_kind_ms={"ping": 0.0})
        queue = ServerQueue(network=SimulatedNetwork(), service_times=model, capacity=300, workers=4)
        reference = ReferenceQueue(model, 300, 4)
        pruned = False
        for step in range(300):
            instant = 100.0 * (step // 25) + rng.uniform(0.0, 0.5)
            now = set_clock(queue, instant)
            held = queue._intervals
            if rng.random() < 0.2:
                assert queue.phantom_arrivals("search", 600) == reference.phantom_arrivals("search", 600, now)
            else:
                assert_same_process(queue, reference, rng.choice(("search", "ping")), now)
            pruned = pruned or queue._intervals < held
            assert_same_state(queue, reference)
        assert pruned

    @pytest.mark.parametrize("capacity", [1, 2, 7])
    def test_backlog_of_exactly_capacity(self, capacity: int):
        for service_s, spacing in ((0.002, 0.002), (0.002, 0.0025), (0.0, 0.001)):
            schedule = _WorkerSchedule(min_gap=0.0005)
            for position in range(capacity):
                schedule.commit(position * spacing, service_s)
            starts, ends = schedule.starts, schedule.ends
            for probe in (0.002, 0.0015, 0.0):
                for limit in (capacity, capacity + 1):
                    try:
                        expected = reference_place(starts, ends, 0.0, probe, limit)
                    except _WorkerFull:
                        with pytest.raises(_WorkerFull):
                            schedule.place(0.0, probe, limit)
                    else:
                        assert schedule.place(0.0, probe, limit) == expected

    def test_tail_extend_equals_one_commit_per_interval(self):
        # Dyadic times make gaps of exactly ``min_gap`` and repeated ends
        # common, so both index boundaries are hit.
        rng = random.Random(3)
        for _ in range(200):
            committed = _WorkerSchedule(min_gap=0.5)
            extended = _WorkerSchedule(min_gap=0.5)
            for _ in range(rng.randrange(0, 6)):
                start, length = rng.randrange(0, 16) / 4, rng.randrange(0, 4) / 4
                committed.commit(start, length)
                extended.commit(start, length)
            tail = max(committed.ends[-1:] + [0.0]) + rng.randrange(0, 4) / 4
            length = rng.randrange(0, 4) / 4
            starts = [tail + position * length for position in range(rng.randrange(1, 6))]
            for start in starts:
                committed.commit(start, length)
            extended.extend(starts, [start + length for start in starts])
            assert extended == committed
            assert_schedule_indexes(extended)

    @pytest.mark.parametrize("dyadic", [False, True])
    def test_place_on_random_schedules(self, dyadic: bool):
        # Dyadic times (quarter units) make gaps exactly as wide as a
        # service time; random floats exercise rounding at the boundaries.
        rng = random.Random(11)
        lengths = (0.0, 0.25, 0.5, 0.75) if dyadic else (0.0, 0.0005, 0.0015, 0.004)
        horizon = 12.0 if dyadic else 0.05

        def instant() -> float:
            if dyadic:
                return rng.randrange(0, int(horizon * 4)) / 4
            return rng.choice((0.0, 0.001, rng.uniform(0.0, horizon)))

        for _ in range(300):
            schedule = _WorkerSchedule(min_gap=lengths[1])
            for _ in range(rng.randrange(0, 40)):
                schedule.commit(instant(), rng.choice(lengths))
            if rng.random() < 0.3:
                schedule.prune(instant() * 0.6)
            assert_schedule_indexes(schedule)
            for _ in range(10):
                now = instant()
                service_s = rng.choice(lengths)
                capacity = rng.randrange(1, 12)
                try:
                    expected = reference_place(schedule.starts, schedule.ends, now, service_s, capacity)
                except _WorkerFull:
                    with pytest.raises(_WorkerFull):
                        schedule.place(now, service_s, capacity)
                else:
                    assert schedule.place(now, service_s, capacity) == expected


class TestWaterFillMatchesReference:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5, 16, 64, 128])
    def test_random_tails_and_caps(self, workers: int):
        rng = random.Random(workers)
        for _ in range(40 if workers < 64 else 8):
            # 1e-17 is below the tails' float resolution: slots collapse onto
            # equal start times and the level-based estimate undershoots.
            service_s = rng.choice((0.0005, 0.0015, 0.002, 0.004, 1e-9, 1e-17))
            now = rng.choice((0.0, 3.7, 1234.5678))
            tails = [now + rng.choice((0.0, rng.randrange(0, 50) * service_s, rng.uniform(0.0, 0.1)))
                     for _ in range(workers)]
            caps = [rng.choice((0, rng.randrange(0, 20), 512)) for _ in range(workers)]
            if not sum(caps):
                continue
            admitted = rng.randrange(1, sum(caps) + 1)
            assert _water_fill(tails, caps, service_s, admitted) == reference_water_fill(
                tails, caps, service_s, admitted
            )

    @pytest.mark.parametrize("workers", [2, 7, 128])
    def test_equal_tails_break_ties_toward_low_index(self, workers: int):
        for admitted in (1, workers - 1, workers, workers + 1, 3 * workers + 2):
            tails = [10.0] * workers
            caps = [8] * workers
            admitted = min(admitted, sum(caps))
            result = _water_fill(tails, caps, 0.002, admitted)
            assert result == reference_water_fill(tails, caps, 0.002, admitted)
            assert sum(result) == admitted

    def test_full_and_nearly_full_pools(self):
        tails = [0.5, 0.5, 0.501, 0.0]
        caps = [3, 0, 1, 2]
        for admitted in range(1, sum(caps) + 1):
            assert _water_fill(tails, caps, 0.001, admitted) == reference_water_fill(
                tails, caps, 0.001, admitted
            )


PINNED_COUNTS = (2340, 1242, 1098)
PINNED_DEPTHS = (8452, 11)
PINNED_BUSY_MS_HEX = "0x1.91b0000000005p+11"
PINNED_WAIT_MS_HEX = "0x1.45f2cccccccf1p+14"


class TestQueueStatsFloatOrder:
    """Pins the exact bytes of a saturated multi-worker run.

    ``wait_ms_total`` and ``busy_ms`` are accumulated one job at a time in a
    fixed order; any reordering or a switch to ``sum()`` (compensated since
    CPython 3.12) shows up here on every supported interpreter.
    """

    def test_saturated_sequence_bytes(self):
        model = ServiceTimeModel(
            default_ms=2.0,
            per_kind_ms={"search": 1.5, "routing": 4.0, "tiles": 0.5, "localization": 2.3},
        )
        queue = ServerQueue(network=SimulatedNetwork(), service_times=model, capacity=12, workers=5)
        clock = queue.network.clock
        for round_index in range(30):
            round_start = round_index * 0.0213
            for client in range(9):
                set_clock(queue, round_start + client * 0.0007)
                try:
                    queue.process(("search", "routing", "tiles", "localization", "other")[client % 5])
                except ServerOverloadedError:
                    pass
                clock.rewind_to(round_start)
            queue.phantom_arrivals(("search", "routing")[round_index % 2], 40 + 2 * round_index)
        stats = queue.stats
        assert (stats.arrivals, stats.served, stats.dropped) == PINNED_COUNTS
        assert (stats.depth_total, stats.max_depth) == PINNED_DEPTHS
        assert stats.busy_ms.hex() == PINNED_BUSY_MS_HEX
        assert stats.wait_ms_total.hex() == PINNED_WAIT_MS_HEX
