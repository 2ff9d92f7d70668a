"""Turn-by-turn navigation sessions over a federated route.

This is the application-level layer the Section 2 walkthrough implies: after
the client has obtained a stitched route, it must *guide* the user along it —
tracking progress with dead reckoning, correcting the track with federated
localization fixes, detecting when the user leaves the route, and announcing
which map server is responsible for the current leg (so the UI can switch
from street guidance to in-store guidance at the storefront hand-over).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.geometry.point import LatLng
from repro.localization.cues import CueBundle
from repro.localization.imu import DeadReckoningTracker, MotionUpdate
from repro.services.localization import FederatedLocalizer
from repro.services.routing import FederatedRouteResult


class NavigationState(str, Enum):
    """Lifecycle of a navigation session."""

    ON_ROUTE = "on_route"
    OFF_ROUTE = "off_route"
    ARRIVED = "arrived"


@dataclass(frozen=True, slots=True)
class NavigationUpdate:
    """What the application is told after each tracking step."""

    state: NavigationState
    position: LatLng
    position_accuracy_meters: float
    distance_to_route_meters: float
    remaining_meters: float
    current_server: str | None
    localization_source: str | None


@dataclass
class NavigationSession:
    """Tracks a user's progress along a stitched federated route.

    The session owns a dead-reckoning tracker anchored at the route origin.
    Each call to :meth:`advance` feeds it one motion update and (optionally)
    the device's current sensor cues; when cues are provided the federated
    localizer is consulted and, if its fix is plausible, the tracker is
    re-anchored to it — exactly the outdoor-GPS / indoor-map-server switch the
    paper describes.
    """

    route: FederatedRouteResult
    localizer: FederatedLocalizer
    arrival_threshold_meters: float = 5.0
    off_route_threshold_meters: float = 30.0
    tracker: DeadReckoningTracker = field(init=False)
    updates: list[NavigationUpdate] = field(default_factory=list)

    def __post_init__(self) -> None:
        points = self.route.route.points
        if len(points) < 2:
            raise ValueError("a navigation session needs a route with at least two points")
        self.tracker = DeadReckoningTracker(anchor=points[0], anchor_accuracy_meters=5.0)

    # ------------------------------------------------------------------
    # Progress tracking
    # ------------------------------------------------------------------
    def advance(self, motion: MotionUpdate, cues: CueBundle | None = None) -> NavigationUpdate:
        """Advance the session by one motion step and return guidance state."""
        self.tracker.apply(motion)
        position = self.tracker.position
        accuracy = self.tracker.uncertainty_meters
        source: str | None = None

        if cues is not None:
            fix = self.localizer.localize(position, cues, tracker=self.tracker)
            if fix.best is not None:
                position = fix.best.result.location
                accuracy = fix.best.result.accuracy_meters
                source = fix.best.result.server_id
                self.tracker.re_anchor(position, accuracy)

        update = self._build_update(position, accuracy, source)
        self.updates.append(update)
        return update

    def _build_update(
        self, position: LatLng, accuracy: float, source: str | None
    ) -> NavigationUpdate:
        nearest_index, distance_to_route = self._nearest_route_point(position)
        remaining = self._remaining_distance(nearest_index)
        destination = self.route.route.points[-1]

        if position.distance_to(destination) <= self.arrival_threshold_meters:
            state = NavigationState.ARRIVED
        elif distance_to_route > self.off_route_threshold_meters:
            state = NavigationState.OFF_ROUTE
        else:
            state = NavigationState.ON_ROUTE

        return NavigationUpdate(
            state=state,
            position=position,
            position_accuracy_meters=accuracy,
            distance_to_route_meters=distance_to_route,
            remaining_meters=remaining,
            current_server=self._server_for_progress(nearest_index) or source,
            localization_source=source,
        )

    # ------------------------------------------------------------------
    # Route geometry helpers
    # ------------------------------------------------------------------
    def _nearest_route_point(self, position: LatLng) -> tuple[int, float]:
        best_index = 0
        best_distance = float("inf")
        for index, point in enumerate(self.route.route.points):
            distance = position.distance_to(point)
            if distance < best_distance:
                best_distance = distance
                best_index = index
        return best_index, best_distance

    def _remaining_distance(self, from_index: int) -> float:
        points = self.route.route.points
        total = 0.0
        for a, b in zip(points[from_index:], points[from_index + 1 :]):
            total += a.distance_to(b)
        return total

    def _server_for_progress(self, route_point_index: int) -> str | None:
        """Which leg's map server owns the route point the user is nearest to."""
        points = self.route.route.points
        if not self.route.route.legs:
            return None
        target_point = points[route_point_index]
        best_server = None
        best_distance = float("inf")
        for leg in self.route.route.legs:
            for leg_point in leg.points:
                distance = target_point.distance_to(leg_point)
                if distance < best_distance:
                    best_distance = distance
                    best_server = leg.server_id
        return best_server

    # ------------------------------------------------------------------
    # Session summary
    # ------------------------------------------------------------------
    @property
    def state(self) -> NavigationState:
        return self.updates[-1].state if self.updates else NavigationState.ON_ROUTE

    @property
    def has_arrived(self) -> bool:
        return self.state == NavigationState.ARRIVED

    def servers_used(self) -> list[str]:
        """Map servers that provided guidance during the session, in order."""
        seen: list[str] = []
        for update in self.updates:
            if update.current_server and update.current_server not in seen:
                seen.append(update.current_server)
        return seen
