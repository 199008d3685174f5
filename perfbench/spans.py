"""Span tracer that times cohres's layers from outside.

Only the traced run installs it.  :meth:`Tracer.install` replaces every
public function of the layer modules at each name a caller looks it up by:
``cohres.scan.cross_section_matrix`` and ``cohres.cross_section_matrix`` as
well as ``cohres.xsection.cross_section_matrix``, because ``from .x import
f`` copies the binding.  :meth:`Tracer.restore` puts every original back.

A span is (name, start, end, parent span, call id).  Spans live in flat
arrays in memory, so a run of a million spans costs tens of megabytes, and
are written out by :meth:`Tracer.save` at the end.  A layer's self time is
its span minus the spans of its direct children; the process is single
threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYER_MODULES = ("core", "scenario", "resonance", "xsection", "control", "scan", "tableio", "cli")


def self_times(names, parents, starts, ends, n_names: int):
    """Per-name (calls, self seconds, inclusive seconds) from flat span arrays.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    """
    names = np.asarray(names, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    child = np.zeros_like(dur)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    own = dur - child
    calls = np.bincount(names, minlength=n_names)
    self_s = np.bincount(names, weights=own, minlength=n_names)
    incl_s = np.bincount(names, weights=dur, minlength=n_names)
    return calls, self_s, incl_s


def _gram_bytes_integral(f, args, kwargs, result):
    table, channel = args[0], args[1]
    return table.channel(channel).amplitudes.nbytes + table.grid.weights.nbytes


def _gram_bytes_node(f, args, kwargs, result):
    table, channel = args[0], args[1]
    amps = table.channel(channel).amplitudes
    return amps.shape[0] * amps.shape[2] * amps.itemsize


def _ratio_regime(f, args, kwargs, result):
    if result.degenerate:
        return "degenerate"
    return "unbounded" if result.unbounded_max else "finite"


def _lattice_points(f, args, kwargs, result):
    bound = inspect.signature(f).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments["n_s"] * bound.arguments["n_phi"]


# span name -> (counter, hook); a hook returning a string counts one event
# under counter + string, a number is added to the counter
HOOKS = {
    "xsection.cross_section_matrix": ("xsection.gram_bytes", _gram_bytes_integral),
    "xsection.differential_matrix": ("xsection.gram_bytes", _gram_bytes_node),
    "control.ratio_extrema": ("control.ratio_extrema.", _ratio_regime),
    "control.lattice_extrema": ("control.lattice_extrema.points", _lattice_points),
    "tableio.table_to_json": ("tableio.table_to_json.bytes", lambda f, a, k, r: len(r)),
    "tableio.table_from_json": ("tableio.table_from_json.bytes", lambda f, a, k, r: len(a[0])),
    "scan.write_scan_csv": ("scan.write_scan_csv.bytes", lambda f, a, k, r: os.path.getsize(a[1])),
}


def targets():
    """(span name, holder, attribute, original) for every traced entry point.

    Public functions of the layer modules, the ``XsecMatrix`` constructor
    and ``ScenarioConfig.table_at``.  ``holder``/``attribute`` is the
    defining binding.
    """
    out = []
    for modname in LAYER_MODULES:
        mod = importlib.import_module(f"cohres.{modname}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out.append((f"{modname}.{name}", mod, name, obj))
    from cohres.scenario import ScenarioConfig
    from cohres.xsection import XsecMatrix

    out.append(("xsection.XsecMatrix", XsecMatrix, "__init__", XsecMatrix.__init__))
    out.append(("scenario.ScenarioConfig.table_at", ScenarioConfig, "table_at", ScenarioConfig.table_at))
    return out


class Tracer:
    """In-memory span recorder; active only between :meth:`install` and :meth:`restore`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.call_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.active = False
        self._stack: list[int] = []
        self._call_id = -1
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.call_ids.append(self._call_id)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def call(self, name: str, call_id: int):
        """Root span of one benchmark call; spans inside share ``call_id``."""
        self._call_id = call_id
        self.active = True
        idx = self._open(self._name_id(name))
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.starts[idx], self.ends[idx] = t0, t1
            self.active = False

    def wrap(self, name: str, f, counter: str | None = None, hook=None):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(f)
        def traced(*args, **kwargs):
            if not tracer.active:
                return f(*args, **kwargs)
            idx = tracer._open(nid)
            t0 = perf_counter()
            try:
                result = f(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.starts[idx], tracer.ends[idx] = t0, t1
            if hook is not None:
                value = hook(f, args, kwargs, result)
                if isinstance(value, str):
                    tracer.counters[counter + value] += 1
                else:
                    tracer.counters[counter] += value
            return result

        traced.__perfbench_span__ = name
        return traced

    def install(self) -> None:
        """Wrap every target at its defining binding and at each import of it."""
        modules = [m for k, m in sys.modules.items() if k == "cohres" or k.startswith("cohres.")]
        for name, holder, attr, original in targets():
            wrapper = self.wrap(name, original, *HOOKS.get(name, (None, None)))
            if inspect.isclass(holder):
                self._rebind(holder, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)

    def _rebind(self, holder, attr: str, original, wrapper) -> None:
        self._saved.append((holder, attr, original))
        setattr(holder, attr, wrapper)

    def restore(self) -> None:
        """Put every original binding back, newest first."""
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)
        self.active = False

    @property
    def span_count(self) -> int:
        return len(self.starts)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_ms and incl_ms over all recorded spans."""
        calls, self_s, incl_s = self_times(
            self.name_ids, self.parents, self.starts, self.ends, len(self.names)
        )
        return {
            name: {
                "calls": int(calls[i]),
                "self_ms": float(self_s[i]) * 1e3,
                "incl_ms": float(incl_s[i]) * 1e3,
            }
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write the span arrays (compressed .npz)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            call_id=np.frombuffer(self.call_ids, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=float),
            end=np.frombuffer(self.ends, dtype=float),
        )
