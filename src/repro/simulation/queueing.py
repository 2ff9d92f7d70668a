"""Server-side load model: per-server service times and a bounded queue.

The single-request experiments treat every map server as infinitely fast —
useful for isolating discovery and network costs, but useless for answering
the fleet-scale question of *where map servers saturate*.  This module adds
the missing half: each map server owns a :class:`ServerQueue` that models a
pool of ``workers`` logical workers, each with its own bounded FIFO, and
deterministic per-request-kind service times.

The model is deliberately simple and exactly reproducible:

* A request arriving at simulated time ``t`` starts service at the earliest
  idle slot at or after ``t`` on the worker that can start it first — it
  waits behind every request still outstanding ahead of that slot.
* Requests arriving while a worker has ``capacity`` requests outstanding
  ahead of its earliest fitting slot cannot join that worker; when no worker
  can take them they are dropped (load shedding), and callers surface the
  drop as :class:`ServerOverloadedError` so clients fall back to other
  servers.
* Waiting time plus service time is charged against the simulated network's
  latency accounting, so client-observed percentiles include queueing delay.

The model composes with the workload engine's concurrent-round clock: the
engine rewinds the clock between clients of one round, so the server sees
its round's requests *out of processing order* but with true (overlapping)
arrival timestamps.  Each worker therefore keeps its schedule as a sorted
list of busy intervals and places each request into the earliest idle gap
at or after its own arrival: two requests contend only when their arrival
instants genuinely overlap the same busy period, never merely because one
was simulated after the other.

Admission cost follows the number of *usable* gaps, not the backlog length:
each worker indexes the gaps at least as wide as the model's shortest
positive service time and placement hops between them (see
:class:`_WorkerSchedule`).  The cohort fast path's batched phantom arrivals
are split across workers in closed form (:func:`_water_fill`) and appended
to each worker's tail in one step.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from heapq import heapify, heappop, heappush
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (network imports nothing here)
    from repro.simulation.network import SimulatedNetwork


class ServerOverloadedError(Exception):
    """Raised when a map server's bounded queue rejects a request."""


def load_cv(values: Sequence[float]) -> float:
    """Coefficient of variation (population std / mean) of a load vector.

    The balance metric for a replica group: per-replica utilizations of
    ``[u, u, u, u]`` give 0.0 (perfectly spread); ``[u, 0, 0, 0]`` — the
    first-healthy funnel — gives ``sqrt(3) ≈ 1.73``.  Zero (or empty) load
    is reported as perfectly balanced rather than dividing by zero.
    """
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    if mean <= 0.0:
        return 0.0
    variance = sum((value - mean) ** 2 for value in values) / len(values)
    return math.sqrt(variance) / mean


@dataclass(frozen=True)
class ServiceTimeModel:
    """Deterministic service times per request kind, in milliseconds.

    ``per_kind_ms`` overrides the ``default_ms`` for specific request kinds
    (the :class:`repro.mapserver.policy.ServiceName` values).  Routing is
    typically the most expensive service, tile fetches the cheapest.
    """

    default_ms: float = 2.0
    per_kind_ms: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.default_ms < 0.0:
            raise ValueError("service time cannot be negative")
        if any(ms < 0.0 for ms in self.per_kind_ms.values()):
            raise ValueError("service time cannot be negative")

    def service_ms(self, kind: str) -> float:
        return self.per_kind_ms.get(kind, self.default_ms)


@dataclass
class QueueStats:
    """Accounting for one server's queue over a run."""

    arrivals: int = 0
    served: int = 0
    dropped: int = 0
    busy_ms: float = 0.0
    wait_ms_total: float = 0.0
    depth_total: int = 0
    max_depth: int = 0

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.arrivals if self.arrivals else 0.0

    @property
    def mean_wait_ms(self) -> float:
        return self.wait_ms_total / self.served if self.served else 0.0

    @property
    def mean_depth(self) -> float:
        """Mean queue depth observed by admitted arrivals."""
        admitted = self.arrivals - self.dropped
        return self.depth_total / admitted if admitted else 0.0

    def utilization(self, window_seconds: float, workers: int = 1) -> float:
        """Fraction of ``window_seconds`` each worker spent serving requests.

        With ``workers`` > 1 the busy time is normalized per worker, so 1.0
        always means "every worker saturated".  Not clamped: a value near
        (or briefly above) 1.0 means the offered load saturated the server —
        the knee the fleet sweeps look for.
        """
        if window_seconds <= 0.0:
            return 0.0
        return self.busy_ms / (window_seconds * 1000.0 * max(1, workers))

    def snapshot(self, window_seconds: float | None = None, workers: int = 1) -> dict[str, float]:
        data = {
            "arrivals": float(self.arrivals),
            "served": float(self.served),
            "dropped": float(self.dropped),
            "drop_rate": self.drop_rate,
            "busy_ms": self.busy_ms,
            "mean_wait_ms": self.mean_wait_ms,
            "mean_depth": self.mean_depth,
            "max_depth": float(self.max_depth),
        }
        if window_seconds is not None:
            data["utilization"] = self.utilization(window_seconds, workers)
        return data


class _WorkerFull(Exception):
    """Internal: one worker's bounded buffer rejected a placement probe."""


@dataclass
class _WorkerSchedule:
    """One worker's committed busy intervals, sorted, plus two small indexes.

    ``starts`` and ``ends`` are each kept sorted; the ``i``-th idle gap runs
    from ``ends[i-1]`` to ``starts[i]``.  Two indexes ride along:

    * ``gap_starts`` / ``gap_widths`` — the start *time* and the width of
      every gap at least ``min_gap`` wide, ``min_gap`` being the model's
      shortest positive service time.  A narrower gap fits no
      positive-length request, so placement scans only the indexed gaps
      instead of walking the backlog.  Times, not positions, are stored so
      list inserts never shift the index; an indexed start is always the
      first of its value in ``starts``.
    * ``repeat_ends`` — one entry per interval whose end equals the previous
      end (zero-length services produce these).  Such an interval never
      delays anyone, so it does not count as a request queued ahead.
    """

    min_gap: float = math.inf
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    gap_starts: list[float] = field(default_factory=list)
    gap_widths: list[float] = field(default_factory=list)
    repeat_ends: list[float] = field(default_factory=list)

    def prune(self, cutoff: float) -> int:
        """Drop intervals that ended at or before ``cutoff``; return how many."""
        cut = bisect_right(self.ends, cutoff)
        if cut:
            del self.starts[:cut]
            del self.ends[:cut]
            # The new first interval has no gap before it.
            first = self.starts[0] if self.starts else math.inf
            dropped = bisect_right(self.gap_starts, first)
            del self.gap_starts[:dropped]
            del self.gap_widths[:dropped]
            del self.repeat_ends[: bisect_right(self.repeat_ends, cutoff)]
        return cut

    def live_count(self, now: float) -> int:
        return len(self.ends) - bisect_right(self.ends, now)

    def place(self, now: float, service_s: float, capacity: int) -> tuple[float, int]:
        """Earliest feasible ``(start, queued_behind)`` at or after ``now``.

        The request starts either at ``now`` (the first live interval starts
        late enough) or at the end of the busy interval just before the first
        later gap that fits ``service_s``.  Every gap that fits a positive
        service is indexed, so the search bisects to the first live interval
        and then scans the indexed gaps' widths only.  ``queued_behind`` — the requests this one
        sits behind, which the bounded buffer limits — is the number of
        intervals skipped, less those ending with their predecessor; raises
        :class:`_WorkerFull` when it reaches ``capacity``.
        """
        starts = self.starts
        ends = self.ends
        first_live = bisect_right(ends, now)
        if first_live == len(starts) or starts[first_live] - now >= service_s:
            return now, 0
        if service_s < self.min_gap:
            return self._place_narrow(first_live, service_s, capacity)
        gaps = self.gap_starts
        widths = self.gap_widths
        index = len(starts)
        for hop in range(bisect_right(gaps, starts[first_live]), len(gaps)):
            if widths[hop] >= service_s:
                index = bisect_left(starts, gaps[hop], first_live + 1)
                break
        cursor = ends[index - 1]
        repeats = self.repeat_ends
        skipped_repeats = bisect_right(repeats, cursor) - bisect_right(repeats, now)
        queued_behind = index - first_live - skipped_repeats
        if queued_behind >= capacity:
            raise _WorkerFull()
        return cursor, queued_behind

    def _place_narrow(self, first_live: int, service_s: float, capacity: int) -> tuple[float, int]:
        """:meth:`place` for a service shorter than ``min_gap`` (zero-length).

        Such a request fits every gap that is not negative, and only
        floating-point rounding where one interval ends as the next starts
        makes a gap negative, so the step-by-step scan stops within a few
        intervals.
        """
        starts = self.starts
        ends = self.ends
        cursor = ends[first_live]
        queued_behind = 1
        for index in range(first_live + 1, len(starts)):
            if queued_behind >= capacity:
                raise _WorkerFull()
            if starts[index] - cursor >= service_s:
                return cursor, queued_behind
            if ends[index] > cursor:
                cursor = ends[index]
                queued_behind += 1
        if queued_behind >= capacity:
            raise _WorkerFull()
        return cursor, queued_behind

    def commit(self, start: float, service_s: float) -> None:
        """Insert the busy interval ``[start, start + service_s]``.

        Inserting into both sorted lists changes the gaps between the two
        insertion points (one gap in the usual case where they coincide, and
        the gap after it); those are unindexed before and re-indexed after.
        """
        end = start + service_s
        starts = self.starts
        ends = self.ends
        at_start = bisect_right(starts, start)
        at_end = bisect_right(ends, end)
        if at_end and ends[at_end - 1] == end:
            insort(self.repeat_ends, end)
        low = max(1, min(at_start, at_end))
        high = max(at_start, at_end)
        gaps = self.gap_starts
        widths = self.gap_widths
        min_gap = self.min_gap
        for index in range(low, min(high + 1, len(starts))):
            if starts[index] - ends[index - 1] >= min_gap:
                position = bisect_left(gaps, starts[index])
                del gaps[position]
                del widths[position]
        starts.insert(at_start, start)
        ends.insert(at_end, end)
        for index in range(low, min(high + 2, len(starts))):
            width = starts[index] - ends[index - 1]
            if width >= min_gap:
                position = bisect_left(gaps, starts[index])
                gaps.insert(position, starts[index])
                widths.insert(position, width)

    def extend(self, starts: list[float], ends: list[float]) -> None:
        """Append intervals that start at or after every committed end.

        Equivalent to one :meth:`commit` per interval, in order: each new
        interval sorts after every existing one in both lists.
        """
        before = self.ends[-1:] + ends[:-1]
        skip = 0 if self.ends else 1
        min_gap = self.min_gap
        for start, prior in zip(starts[skip:], before):
            if start - prior >= min_gap:
                self.gap_starts.append(start)
                self.gap_widths.append(start - prior)
        self.repeat_ends.extend(end for end, prior in zip(ends[skip:], before) if end == prior)
        self.starts.extend(starts)
        self.ends.extend(ends)


def _water_fill(tails: list[float], caps: list[int], service_s: float, admitted: int) -> list[int]:
    """How many of ``admitted`` same-instant jobs each worker's tail takes.

    Worker ``i`` offers slots starting at ``tails[i] + k * service_s`` for
    ``k < caps[i]``.  Handing jobs out one at a time to the earliest slot
    (lowest worker index on ties) gives each worker exactly its share of
    the ``admitted`` smallest ``(start, worker)`` slots.  That share is
    computed directly: find the water level at which the continuous fill
    reaches ``admitted``, count each worker's slots below it with the same
    float expression the slots are committed with, then hand out or take
    back the last partial level in ``(start, worker)`` order.  The fix-up
    touches fewer slots than there are workers, so the cost is
    O(workers log workers) whatever ``admitted`` is.
    """
    events: list[tuple[float, int]] = []
    for tail, cap in zip(tails, caps):
        if cap:
            events.append((tail, 1))
            events.append((tail + cap * service_s, -1))
    events.sort()
    level = events[0][0]
    filled = 0.0
    rising = 0
    for instant, step in events:
        if rising:
            reached = filled + rising * (instant - level) / service_s
            if reached >= admitted:
                level += (admitted - filled) * service_s / rising
                break
            filled = reached
        level = instant
        rising += step

    counts: list[int] = []
    for tail, cap in zip(tails, caps):
        share = (level - tail) / service_s
        count = 0 if share <= 0.0 else cap if share >= cap else math.ceil(share)
        while count > 0 and tail + (count - 1) * service_s >= level:
            count -= 1
        while count < cap and tail + count * service_s < level:
            count += 1
        counts.append(count)

    surplus = sum(counts) - admitted
    if surplus < 0:
        heap = [
            (tail + count * service_s, index)
            for index, (tail, count, cap) in enumerate(zip(tails, counts, caps))
            if count < cap
        ]
        heapify(heap)
        for _ in range(-surplus):
            _, index = heappop(heap)
            counts[index] += 1
            if counts[index] < caps[index]:
                heappush(heap, (tails[index] + counts[index] * service_s, index))
    elif surplus > 0:
        # Latest slot first: largest start, then highest worker index.
        latest = [
            (-(tail + (count - 1) * service_s), -index)
            for index, (tail, count) in enumerate(zip(tails, counts))
            if count
        ]
        heapify(latest)
        for _ in range(surplus):
            _, negated = heappop(latest)
            index = -negated
            counts[index] -= 1
            if counts[index]:
                heappush(latest, (-(tails[index] + (counts[index] - 1) * service_s), negated))
    return counts


@dataclass
class ServerQueue:
    """A bounded queue in front of one map server's worker pool.

    Each of the ``workers`` logical workers serves one request at a time
    from its own FIFO; an arriving request is placed on the worker offering
    the earliest feasible start (ties break toward the lowest worker index,
    keeping admission deterministic).  ``capacity`` bounds the *per-worker*
    backlog, so total buffered work scales with the worker count — a replica
    with 4 workers saturates at 4× the single-worker knee.  With the default
    ``workers=1`` the model reduces exactly to the original single-worker
    queue.
    """

    network: "SimulatedNetwork"
    service_times: ServiceTimeModel = field(default_factory=ServiceTimeModel)
    capacity: int = 64
    workers: int = 1
    stats: QueueStats = field(default_factory=QueueStats)
    kind_arrivals: dict[str, int] = field(default_factory=dict, repr=False)
    """Per-request-kind count of *individually processed* arrivals (phantom
    batches excluded).  The cohort fast path diffs this around one tracer
    request to learn which kinds that request charged to this server, then
    replays them for the tracer's phantom cohort-mates.  Deliberately not
    part of :meth:`snapshot`, so committed artifacts keep their keys."""
    kind_totals: dict[str, int] = field(default_factory=dict, repr=False)
    """Per-request-kind count of *all* offered arrivals — individually
    processed and phantom-batched alike, drops included.  The telemetry
    pipeline diffs this (via :meth:`telemetry_frame`) per window to map
    demand by kind; kept separate from :attr:`kind_arrivals` because the
    cohort diff mechanism requires that one stays phantom-free."""
    _schedules: list[_WorkerSchedule] = field(default_factory=list, repr=False)
    _intervals: int = field(default=0, init=False, repr=False)
    """Busy intervals held across all worker schedules (the prune trigger)."""

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        if self.workers < 1:
            raise ValueError("worker count must be >= 1")
        model = self.service_times
        positive = [ms for ms in (model.default_ms, *model.per_kind_ms.values()) if ms > 0.0]
        min_gap = min(positive) / 1000.0 if positive else math.inf
        self._schedules = [_WorkerSchedule(min_gap=min_gap) for _ in range(self.workers)]

    @property
    def busy_until(self) -> float:
        """Simulated instant at which the last scheduled request completes."""
        return max((s.ends[-1] for s in self._schedules if s.ends), default=0.0)

    @property
    def depth(self) -> int:
        """Requests outstanding (queued or in service) at the current instant."""
        now = self.network.clock.now()
        return sum(schedule.live_count(now) for schedule in self._schedules)

    _PRUNE_LAG_SECONDS = 120.0
    """How far behind the newest arrival completed intervals are retained.

    The workload engine's clock only rewinds within one concurrent round
    (seconds at most), so intervals that completed minutes before the
    current arrival can never be observed again and are dropped to keep the
    schedule lists — and their insertion cost — small."""

    def _prune(self, now: float) -> None:
        cutoff = now - self._PRUNE_LAG_SECONDS
        for schedule in self._schedules:
            self._intervals -= schedule.prune(cutoff)

    def snapshot(self, window_seconds: float | None = None) -> dict[str, float]:
        """The queue's stats snapshot, normalized for (and reporting) workers."""
        data = self.stats.snapshot(window_seconds=window_seconds, workers=self.workers)
        data["workers"] = float(self.workers)
        return data

    def telemetry_frame(self) -> dict[str, object]:
        """Cumulative counters for the telemetry pipeline to diff per window.

        Phantom cohort arrivals are included (they land in ``stats`` and
        ``kind_totals``), so windowed deltas reflect the load the server
        actually absorbed, not just the individually-simulated slice.

        ``workers`` is a *gauge*, not a counter: the pipeline keeps the
        latest value per window instead of diffing it, so supply-side
        roll-ups can normalize busy time into utilization
        (``busy_ms / (workers × window span)``) without reaching back into
        the queue object.
        """
        return {
            "arrivals": float(self.stats.arrivals),
            "served": float(self.stats.served),
            "dropped": float(self.stats.dropped),
            "wait_ms": self.stats.wait_ms_total,
            "busy_ms": self.stats.busy_ms,
            "workers": float(self.workers),
            "kinds": {kind: float(count) for kind, count in self.kind_totals.items()},
        }

    def process(self, kind: str) -> float:
        """Admit one request, wait out the backlog, and serve it.

        Advances the simulated clock by queueing delay plus service time and
        charges both to the network's latency accounting (so client latency
        percentiles include server load).  Returns the total milliseconds
        spent server-side; raises :class:`ServerOverloadedError` when every
        worker's bounded buffer is full.
        """
        now = self.network.clock.now()
        self.stats.arrivals += 1
        self.kind_arrivals[kind] = self.kind_arrivals.get(kind, 0) + 1
        self.kind_totals[kind] = self.kind_totals.get(kind, 0) + 1
        if self._intervals > 1024:
            self._prune(now)
        service_ms = self.service_times.service_ms(kind)
        service_s = service_ms / 1000.0

        best: tuple[float, int, _WorkerSchedule] | None = None
        for schedule in self._schedules:
            try:
                start, queued_behind = schedule.place(now, service_s, self.capacity)
            except _WorkerFull:
                continue
            if best is None or start < best[0]:
                best = (start, queued_behind, schedule)
                if start <= now:
                    break  # an idle worker cannot be beaten
        if best is None:
            self.stats.dropped += 1
            raise ServerOverloadedError(
                f"all {self.workers} worker queue(s) full "
                f"({self.capacity} per worker) for {kind!r} request"
            )
        start, queued_behind, schedule = best

        self.stats.depth_total += queued_behind
        if queued_behind > self.stats.max_depth:
            self.stats.max_depth = queued_behind

        wait_ms = (start - now) * 1000.0
        schedule.commit(start, service_s)
        self._intervals += 1

        self.stats.served += 1
        self.stats.busy_ms += service_ms
        self.stats.wait_ms_total += wait_ms
        total_ms = wait_ms + service_ms
        self.network.server_processing(total_ms)
        return total_ms

    def phantom_arrivals(self, kind: str, count: int) -> tuple[int, int]:
        """Charge ``count`` statistically-identical arrivals in aggregate.

        The cohort fast path of the workload engine simulates one *tracer*
        device per cohort slice through the full client stack and charges the
        server-side load of the tracer's phantom cohort-mates here: ``count``
        requests of ``kind`` all arriving at the current simulated instant.
        Their busy time, waits, depths and drops land in :class:`QueueStats`
        exactly as if each had been admitted individually, and their busy
        intervals are committed to the worker schedules so subsequent *real*
        requests queue behind them — that is what makes large-fleet
        saturation measured rather than extrapolated.

        Each job takes the earliest-starting free slot at a worker's tail,
        lowest worker index on ties; :func:`_water_fill` computes every
        worker's share in closed form and the shares are appended to the
        worker schedules in one step each.  Zero-length jobs fill workers in
        index order.

        Two deliberate approximations versus ``count`` calls to
        :meth:`process` (both only matter off the saturated path the batch
        exists for):

        * placement is tail-append per worker (interior idle gaps are not
          back-filled), and
        * the per-worker drop check is the aggregate ``capacity − live``
          backlog bound rather than a per-job placement probe.

        Phantoms charge no network latency and never advance the clock —
        only real requests drive time.  Returns ``(admitted, dropped)``.
        """
        if count < 0:
            raise ValueError("phantom arrival count cannot be negative")
        if count == 0:
            return (0, 0)
        now = self.network.clock.now()
        self.stats.arrivals += count
        self.kind_totals[kind] = self.kind_totals.get(kind, 0) + count
        if self._intervals > 1024:
            self._prune(now)
        service_ms = self.service_times.service_ms(kind)
        service_s = service_ms / 1000.0

        # Per-worker tail state: next-free instant, live backlog, cap left.
        tails: list[float] = []
        lives: list[int] = []
        caps: list[int] = []
        for schedule in self._schedules:
            tails.append(max(now, schedule.ends[-1] if schedule.ends else 0.0))
            live = schedule.live_count(now)
            lives.append(live)
            caps.append(max(0, self.capacity - live))
        admitted = min(count, sum(caps))
        dropped = count - admitted
        self.stats.dropped += dropped
        if admitted == 0:
            return (0, dropped)

        if service_s > 0.0:
            assigned = _water_fill(tails, caps, service_s, admitted)
        else:
            # Zero service time: every job starts at its worker's tail and
            # nothing levels, so workers fill up in index order.
            assigned = []
            remaining = admitted
            for cap in caps:
                take = min(remaining, cap)
                assigned.append(take)
                remaining -= take

        stats = self.stats
        for index, jobs in enumerate(assigned):
            if not jobs:
                continue
            tail = tails[index]
            starts = [tail + position * service_s for position in range(jobs)]
            self._schedules[index].extend(starts, [start + service_s for start in starts])
            self._intervals += jobs
            # Accumulate one job at a time, in order: sum() would change the
            # bytes (it uses compensated summation since CPython 3.12).
            wait_ms_total = stats.wait_ms_total
            for start in starts:
                wait_ms_total += (start - now) * 1000.0
            stats.wait_ms_total = wait_ms_total
            # Job p queues behind the live backlog plus the p jobs before it.
            live = lives[index]
            stats.depth_total += jobs * live + jobs * (jobs - 1) // 2
            stats.max_depth = max(stats.max_depth, live + jobs - 1)
            stats.served += jobs
            stats.busy_ms += jobs * service_ms
        return (admitted, dropped)
