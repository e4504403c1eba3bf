"""Span recorders wrapped around the repo's layer functions, from outside ``src/``.

:func:`install` replaces each function named in :data:`TARGETS` with a
wrapper that records one span per call: its name, start, end, parent
span and op id.  The parent is the innermost traced call still running
on the same thread; the op id is the outermost one (one micro-batch,
request or job).  Spans stay in memory and each process writes its own
``spans-<pid>.json`` into the trace directory when it exits.

A process gets the recorders in one of three ways: the benchmark calls
:func:`install`; a spawned child (``repro serve`` and its shard) runs
``hook/sitecustomize.py`` at interpreter start-up; a forked child (the
executor workers) inherits the wrappers and starts a fresh span list on
its first span.

Times come from ``time.perf_counter``, which on Linux reads the
system-wide monotonic clock, so spans of different processes share one
time axis with the benchmark's measurement window.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


def _rows(index: int, name: str, dims: int = 1) -> Callable:
    """Attribute extractor: the leading ``dims`` sizes of one array argument."""

    def extract(args: tuple, kwargs: dict, result: Any) -> dict:
        value = kwargs[name] if name in kwargs else args[index]
        shape = getattr(value, "shape", None) or (len(value),)
        rows = 1
        for size in shape[:dims]:
            rows *= int(size)
        return {"rows": rows}

    return extract


def _items(args: tuple, kwargs: dict, result: Any) -> dict:
    items = kwargs["items"] if "items" in kwargs else args[-1]
    return {"rows": len(items), "groups": len({item[1] for item in items})}


def _track_items(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"rows": len(args[1]), "tracks": [item[0] for item in args[1]]}


def _track_op(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"op": args[3]}


def _predict_ops(args: tuple, kwargs: dict, result: Any) -> dict:
    return {
        "ops_executed": int(result.ops_executed),
        "ops_naive": int(result.ops_naive),
    }


# (module, qualified name, layer module, attribute extractor).  The layer
# module is the key of the overhead table; the span name is the
# qualified name.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.circuits.inverter_array", "InverterArray.read_log_likelihood",
     "circuits.inverter_array", _rows(1, "points")),
    ("repro.core.tiling", "TiledInverterArrayMap.field_log",
     "core.tiling", None),
    ("repro.filtering.measurement", "DepthScanMeasurementModel.log_likelihoods",
     "filtering.measurement", None),
    ("repro.filtering.measurement", "DigitalGMMBackend.field_log",
     "filtering.measurement", None),
    ("repro.filtering.particle_filter", "ParticleFilter.step",
     "filtering.particle_filter", None),
    ("repro.core.cim_particle_filter", "CIMParticleFilterLocalizer.step",
     "core.cim_particle_filter", None),
    ("repro.serve.tracks", "TrackStore.step_batch",
     "serve.tracks", _track_items),
    ("repro.serve.tracks", "TrackStore.open", "serve.tracks", None),
    ("repro.serve.workers", "WorkerPool.execute_track",
     "serve.workers", _track_op),
    ("repro.serve.http", "_Handler.do_POST", "serve.http", None),
    ("repro.serve.execution", "run_grouped", "serve.execution", _items),
    ("repro.api.substrates", "MCDropoutSession.draw_masks",
     "api.substrates", None),
    ("repro.api.substrates", "MCDropoutSession.run", "api.substrates", None),
    ("repro.core.cim_mc_dropout", "CIMMCDropoutEngine.predict",
     "core.cim_mc_dropout", _predict_ops),
    ("repro.sram.macro", "SRAMCIMMacro.matvec_many", "sram.macro",
     _rows(1, "x", dims=2)),
    ("repro.sram.macro", "SRAMCIMMacro.matvec", "sram.macro", _rows(1, "x")),
    ("repro.sram.macro", "SRAMCIMMacro.matvec_delta", "sram.macro",
     _rows(2, "delta_x")),
    ("repro.maps.gmm", "GaussianMixture.fit", "maps", None),
    ("repro.maps.hmgm", "HMGMixture.fit", "maps", None),
)

SPAN_MODULES = {qualname: layer for _, qualname, layer, _ in TARGETS}
# Spans that block on work done on another thread or in another process,
# which therefore counts as their self time.
WAITING_SPANS = {"_Handler.do_POST", "WorkerPool.execute_track"}


class Recorder:
    """In-memory span store of one process."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.pid = -1
        self._adopt()

    def _adopt(self) -> None:
        """Start this process's own span list and its exit hooks."""
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.ids = itertools.count(1)
        self.local = threading.local()
        self.dumped = False
        atexit.register(self.dump)
        # Forked multiprocessing children leave through os._exit, which
        # skips atexit; their exit path runs multiprocessing finalizers.
        from multiprocessing import util

        util.Finalize(None, self.dump, exitpriority=100)

    def stack(self) -> list:
        if os.getpid() != self.pid:
            self._adopt()  # a forked child: the parent's spans are not ours
        try:
            return self.local.stack
        except AttributeError:
            self.local.stack = []
            return self.local.stack

    def dump(self) -> None:
        if self.dumped or os.getpid() != self.pid:
            return
        self.dumped = True
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps({"pid": self.pid, "spans": self.spans}))


_RECORDER: Recorder | None = None


def _wrap(fn: Callable, name: str, attrs: Callable | None) -> Callable:
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def traced_async(*args: Any, **kwargs: Any) -> Any:
            recorder = _RECORDER
            stack = recorder.stack()
            sid = next(recorder.ids)
            parent = stack[-1] if stack else None
            op = stack[0] if stack else sid
            start = time.perf_counter()
            result = await fn(*args, **kwargs)
            end = time.perf_counter()
            extra = attrs(args, kwargs, result) if attrs else None
            recorder.spans.append((sid, parent, name, start, end, op, extra))
            return result

        return traced_async

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        recorder = _RECORDER
        stack = recorder.stack()
        sid = next(recorder.ids)
        parent = stack[-1] if stack else None
        op = stack[0] if stack else sid
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        extra = attrs(args, kwargs, result) if attrs else None
        recorder.spans.append((sid, parent, name, start, end, op, extra))
        return result

    return traced


def install(out_dir: str | Path) -> None:
    """Wrap every :data:`TARGETS` function in this process (idempotent)."""
    global _RECORDER
    if _RECORDER is not None:
        return
    _RECORDER = Recorder(Path(out_dir))
    for module_name, qualname, _, attrs in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        wrapped = _wrap(original, qualname, attrs)
        setattr(owner, attr, wrapped)
        if owner is module:
            # Modules that imported the function by name hold their own
            # reference; rebind those too.
            for name, loaded in list(sys.modules.items()):
                if name.startswith("repro") and loaded is not None:
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, key, wrapped)


def flush() -> None:
    """Write this process's spans now (the benchmark reads its own)."""
    if _RECORDER is not None:
        _RECORDER.dump()


def load_spans(out_dir: str | Path) -> list[dict]:
    """Every span written under ``out_dir``, as dicts (all processes)."""
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        payload = json.loads(path.read_text())
        pid = payload["pid"]
        for sid, parent, name, start, end, op, extra in payload["spans"]:
            spans.append(
                {
                    "id": (pid, sid),
                    "parent": None if parent is None else (pid, parent),
                    "name": name,
                    "start": start,
                    "end": end,
                    "op": (pid, op),
                    "attrs": extra or {},
                }
            )
    return spans


class SpanTable:
    """Per-name totals over the spans that start inside a time window.

    A span's self time is its duration minus the time its child spans
    cover; children run on the parent's thread, so they never overlap.
    """

    def __init__(self, spans: list[dict], window: tuple[float, float]):
        start, end = window
        inside = [s for s in spans if start <= s["start"] < end]
        child_time: dict[Any, float] = defaultdict(float)
        for span in inside:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        self.calls: dict[str, int] = defaultdict(int)
        self.busy_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.attrs: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.durations: dict[str, list] = defaultdict(list)
        for span in inside:
            name = span["name"]
            duration = span["end"] - span["start"]
            self.calls[name] += 1
            self.busy_s[name] += duration
            self.self_s[name] += duration - child_time.get(span["id"], 0.0)
            self.durations[name].append((duration, span["attrs"]))
            for key, value in span["attrs"].items():
                if isinstance(value, (int, float)):
                    self.attrs[name][key] += value

    def self_ms_by_module(self) -> dict[str, float]:
        """Self milliseconds per layer module; a module whose spans wait on
        other threads or processes is keyed ``<module> (incl. waiting)``."""
        totals: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            module = SPAN_MODULES[name]
            if name in WAITING_SPANS:
                module += " (incl. waiting)"
            totals[module] += seconds * 1e3
        return dict(totals)
