"""The routing service exposed by one map server.

A map server computes "the route that is relevant for the region that they
cover" (Section 5.2).  Requests arrive as geographic origin/destination
points; when a point lies outside the map's coverage the server clamps it to
the closest point it can serve (its entry/exit vertex), which is what makes
client-side stitching of partial legs possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

from repro.geometry.point import LatLng
from repro.osm.mapdata import MapData
from repro.routing.contraction import ContractionHierarchy, build_contraction_hierarchy
from repro.routing.graph import RoutingGraph, graph_from_map
from repro.routing.shortest_path import NoRouteError, Route, bidirectional_dijkstra, dijkstra
from repro.routing.stitching import RouteLeg


_hierarchy_memo: "WeakKeyDictionary[RoutingGraph, ContractionHierarchy]" = WeakKeyDictionary()
"""Contraction hierarchies memoized per routing graph (identity-keyed).

:func:`repro.routing.graph.graph_from_map` hands the same graph object to
every service over an unchanged map, so the expensive preprocessing happens
once per distinct graph rather than once per map-server instance.
"""


@dataclass(frozen=True, slots=True)
class RouteResponse:
    """A route computed by one map server, expressed geographically."""

    points: tuple[LatLng, ...]
    cost: float
    metric: str
    entry_snap_meters: float
    exit_snap_meters: float
    settled_vertices: int
    map_name: str

    def as_leg(self, server_id: str) -> RouteLeg:
        """Convert to a :class:`RouteLeg` for client-side stitching."""
        return RouteLeg(server_id=server_id, points=self.points, cost=self.cost, metric=self.metric)


@dataclass
class RoutingService:
    """Shortest-path routing over one map's navigable ways.

    With ``algorithm="contraction"`` (the federation default) the service
    preprocesses its graph into a :class:`ContractionHierarchy` once and
    answers every subsequent query with the fast bidirectional upward search;
    queries for a different metric, or graphs too small to route, fall back
    to plain Dijkstra.  The hierarchy is built lazily on the first routing
    query so that servers that never route (tile-only providers, short-lived
    scenario builds) never pay the preprocessing cost.
    """

    map_data: MapData
    algorithm: str = "dijkstra"
    _graph: RoutingGraph = field(init=False)
    _hierarchy: ContractionHierarchy | None = field(init=False, default=None)
    _hierarchy_built: bool = field(init=False, default=False)
    queries_served: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self._graph = graph_from_map(self.map_data)

    def _ensure_hierarchy(self) -> ContractionHierarchy | None:
        if not self._hierarchy_built:
            self._hierarchy_built = True
            if self._graph.vertex_count > 0:
                # Graphs are shared across services of the same (unmutated)
                # map, so the one-off preprocessing is shared too.
                hierarchy = _hierarchy_memo.get(self._graph)
                if hierarchy is None:
                    hierarchy = build_contraction_hierarchy(self._graph)
                    _hierarchy_memo[self._graph] = hierarchy
                self._hierarchy = hierarchy
        return self._hierarchy

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def graph(self) -> RoutingGraph:
        return self._graph

    @property
    def is_routable(self) -> bool:
        return self._graph.vertex_count >= 2

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def route(
        self,
        origin: LatLng,
        destination: LatLng,
        metric: str = "distance",
    ) -> RouteResponse | None:
        """Route between two geographic points within this map.

        Points are snapped to the nearest graph vertex; ``None`` is returned
        when the map has no navigable graph or no path exists.
        """
        self.queries_served += 1
        if not self.is_routable:
            return None
        source = self._graph.nearest_vertex(origin)
        target = self._graph.nearest_vertex(destination)
        entry_snap = origin.distance_to(self._graph.location(source))
        exit_snap = destination.distance_to(self._graph.location(target))
        try:
            route = self._compute(source, target, metric)
        except NoRouteError:
            return None
        points = tuple(route.locations(self._graph))
        return RouteResponse(
            points=points,
            cost=route.cost,
            metric=metric,
            entry_snap_meters=entry_snap,
            exit_snap_meters=exit_snap,
            settled_vertices=route.settled_vertices,
            map_name=self.map_data.metadata.name,
        )

    def _compute(self, source: int, target: int, metric: str) -> Route:
        if self.algorithm == "contraction":
            hierarchy = self._ensure_hierarchy()
            if hierarchy is not None and metric == hierarchy.metric:
                return hierarchy.query(source, target)
        if self.algorithm == "bidirectional":
            return bidirectional_dijkstra(self._graph, source, target, metric)
        return dijkstra(self._graph, source, target, metric)
