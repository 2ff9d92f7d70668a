"""Span tracing for the benchmark's traced run.

The tracer records spans from outside the program.  It wraps each layer's
public entry points: a method on its class, or every module binding of a
function, because a caller that did ``from module import function`` calls
its own binding.  Each call records one span: which entry point, start, end,
the enclosing span that caused it, and the simulated request it belongs to.
Spans stay in memory in flat arrays and are written out once, after the run.

A layer's self time is the duration of its spans minus the part covered by
their child spans, so the self times of all layers sum to at most the wall
time they were recorded over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class EntryPoints:
    layer: str
    module: str
    owner: str | None
    """Class holding the methods, or ``None`` for module-level functions."""
    names: tuple[str, ...]


ENTRY_POINTS = (
    EntryPoints(
        "workload",
        "repro.core.client",
        "OpenFlameClient",
        ("search", "route", "render_viewport", "localize"),
    ),
    EntryPoints("queue", "repro.simulation.queueing", "ServerQueue", ("process", "phantom_arrivals")),
    EntryPoints("network", "repro.simulation.network", "SimulatedNetwork", ("round_trip",)),
    EntryPoints(
        "discovery",
        "repro.discovery.discoverer",
        "Discoverer",
        ("discover_at", "discover_region", "discover_along"),
    ),
    EntryPoints("dns", "repro.dns.resolver", "RecursiveResolver", ("resolve",)),
    EntryPoints("spatialindex", "repro.spatialindex.cellid", "CellId", ("from_point",)),
    EntryPoints("spatialindex", "repro.spatialindex.covering", None, ("cells_at_level",)),
    EntryPoints(
        "spatialindex",
        "repro.spatialindex.covering",
        "RegionCoverer",
        ("cover_box", "cover_polygon", "cover_disc", "cover_point"),
    ),
    EntryPoints("geometry", "repro.geometry.point", None, ("haversine_distance",)),
    EntryPoints("services", "repro.services.context", "FederationContext", ("request",)),
    EntryPoints(
        "mapserver",
        "repro.mapserver.server",
        "MapServer",
        ("search", "route", "localize", "get_tile"),
    ),
    EntryPoints("routing", "repro.routing.contraction", "ContractionHierarchy", ("query",)),
    EntryPoints("churn", "repro.churn.controller", "ChurnController", ("apply_until",)),
    EntryPoints("faults", "repro.faults.injector", "FaultInjector", ("apply_until", "inject_round_load")),
    EntryPoints(
        "control",
        "repro.control.plane",
        "ControlPlane",
        ("apply_until", "apply_batch", "set_weight", "drain", "undrain", "promote"),
    ),
    EntryPoints(
        "telemetry",
        "repro.telemetry.pipeline",
        "TelemetryPipeline",
        ("begin", "record_request", "observe_servers", "flush", "finalize"),
    ),
    EntryPoints("autoscale", "repro.autoscale.scaler", "Autoscaler", ("begin", "observe")),
    EntryPoints("operator", "repro.operator.api", "OperatorApi", ("handle",)),
    EntryPoints("operator", "repro.operator.client", "OperatorClient", ("request",)),
    EntryPoints("operator", "repro.operator.client", "NetworkedControlPlayer", ("apply_until",)),
    EntryPoints("operator", "repro.operator.client", "OperatorControlAdapter", ("apply_batch",)),
    EntryPoints("worldgen", "repro.worldgen.scenario", None, ("build_scenario",)),
)

LAYERS = tuple(dict.fromkeys(group.layer for group in ENTRY_POINTS))

REQUEST_KINDS = {"search": "search", "route": "route", "render_viewport": "tiles", "localize": "localize"}
"""Client façade method → the request kind it serves."""

COUNTED_ARGUMENTS = {"queue.phantom_arrivals": "count"}
"""Entry points whose calls also sum one argument into a work counter."""


def _import_everything(package: str = "repro") -> None:
    """Import every module of the package, so that every by-name binding of
    a wrapped function exists before the tracer looks for it."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, prefix=f"{package}."):
        importlib.import_module(info.name)


class Tracer:
    """Wraps the entry points on ``install`` and restores them on ``uninstall``."""

    def __init__(self) -> None:
        self.entries: list[str] = []
        self.layer_of: list[str] = []
        self.counters: dict[str, int] = {}
        self._entry = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._request = array("q")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> Tracer:
        _import_everything()
        for group in ENTRY_POINTS:
            module = importlib.import_module(group.module)
            for name in group.names:
                self.entries.append(f"{group.layer}.{name}")
                self.layer_of.append(group.layer)
                entry = len(self.entries) - 1
                if group.owner is None:
                    self._wrap_function(getattr(module, name), entry)
                else:
                    self._wrap_method(getattr(module, group.owner), name, entry)
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def __enter__(self) -> Tracer:
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap_function(self, original, entry: int) -> None:
        traced = self._traced(original, entry)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name + ".").startswith("repro."):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, traced)

    def _wrap_method(self, cls: type, name: str, entry: int) -> None:
        raw = vars(cls)[name]
        if isinstance(raw, (classmethod, staticmethod)):
            self._patch(cls, name, type(raw)(self._traced(raw.__func__, entry)))
        else:
            self._patch(cls, name, self._traced(raw, entry))

    def _traced(self, function, entry: int):
        entries, starts, ends = self._entry, self._start, self._end
        parents, requests, stack = self._parent, self._request, self._stack
        clock = time.perf_counter
        is_request = self.layer_of[entry] == "workload"
        name = self.entries[entry]
        counted = COUNTED_ARGUMENTS.get(name)
        if counted is not None:
            position = list(inspect.signature(function).parameters).index(counted)
            self.counters[name] = 0

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(entries)
            parent = stack[-1] if stack else -1
            request = requests[parent] if parent >= 0 else -1
            if request < 0 and is_request:
                request = index
            entries.append(entry)
            parents.append(parent)
            requests.append(request)
            ends.append(0.0)
            if counted is not None:
                self.counters[name] += args[position] if position < len(args) else kwargs[counted]
            stack.append(index)
            starts.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "entry": np.frombuffer(self._entry, dtype=np.uint16),
            "start": np.frombuffer(self._start, dtype=np.float64),
            "end": np.frombuffer(self._end, dtype=np.float64),
            "parent": np.frombuffer(self._parent, dtype=np.int64),
            "request": np.frombuffer(self._request, dtype=np.int64),
        }

    def summary(self) -> dict[str, object]:
        """Calls and self seconds per entry point and per layer, the work
        counters, and the host milliseconds of each simulated request by kind."""
        spans = self.arrays()
        entry, parent = spans["entry"], spans["parent"]
        duration = spans["end"] - spans["start"]
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(entry))
        calls = np.bincount(entry, minlength=len(self.entries))
        self_s = np.bincount(entry, weights=duration - covered, minlength=len(self.entries))
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for index, layer in enumerate(self.layer_of):
            layers[layer]["calls"] += int(calls[index])
            layers[layer]["self_s"] += float(self_s[index])
        roots = spans["request"] == np.arange(len(entry))
        request_ms = {}
        for method, kind in REQUEST_KINDS.items():
            chosen = roots & (entry == self.entries.index(f"workload.{method}"))
            request_ms[kind] = (duration[chosen] * 1000.0).tolist()
        return {
            "layers": layers,
            "entries": {name: int(calls[index]) for index, name in enumerate(self.entries)},
            "counters": dict(self.counters),
            "request_ms": request_ms,
            "spans": len(entry),
        }

    def write(self, path: Path) -> None:
        """Write every span, with the entry-point and layer names it indexes."""
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.with_name(path.name + ".partial.npz")
        spans = self.arrays()
        np.savez_compressed(partial, entry_names=self.entries, entry_layers=self.layer_of, **spans)
        partial.replace(path)
