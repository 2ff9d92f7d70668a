"""The tile service exposed by one map server.

"Each map server would expose a visual representation of its map data as 2D
images, 3D meshes or other forms" (Section 5.2).  The service wraps a
:class:`repro.tiles.renderer.TileRenderer` with request accounting and the
option to pre-render a coverage area (the Figure 1 pipeline stage, reused
per-server in the federated architecture).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.osm.mapdata import MapData
from repro.simulation.lru import LruCache
from repro.tiles.renderer import Tile, TileRenderer
from repro.tiles.tile_math import TileCoordinate, tiles_for_box

_renderer_memo: LruCache = LruCache(max_entries=32)
"""Renderers (and their tile caches) shared per map version + thickness.

Fleet sweeps stand up many federations over the same generated worlds; with
one renderer per (unchanged) map the tiles themselves are rasterised once
per process instead of once per scenario.  A bounded LRU rather than a weak
map: a renderer necessarily holds its map, so weak keying could never
collect entries, while LRU eviction caps retention at the last 32 worlds."""


@dataclass
class TileService:
    """Serves rendered tiles of one map."""

    map_data: MapData
    line_thickness: int = 1
    renderer: TileRenderer = field(init=False)
    tiles_served: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        key = (self.map_data, self.line_thickness)
        cached = _renderer_memo.lookup(key)
        if cached is not None:
            version, renderer = cached
            if version == self.map_data.version:
                self.renderer = renderer
                return
        self.renderer = TileRenderer(self.map_data, line_thickness=self.line_thickness)
        _renderer_memo.store(key, (self.map_data.version, self.renderer))

    def get_tile(self, coordinate: TileCoordinate) -> Tile:
        """Return the tile at ``coordinate`` (rendered on demand or cached)."""
        self.tiles_served += 1
        return self.renderer.render(coordinate)

    def prerender_coverage(self, zoom: int) -> int:
        """Pre-render all tiles covering the map at ``zoom``; returns the count."""
        try:
            box = self.map_data.bounding_box()
        except Exception:
            return 0
        coordinates = tiles_for_box(box, zoom)
        self.renderer.prerender(coordinates)
        return len(coordinates)

    @property
    def cache_size(self) -> int:
        return self.renderer.cache_size
