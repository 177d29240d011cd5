"""Per-layer host spans, taken from outside the simulator.

:class:`LayerTracer` installs timing wrappers around each layer's public
entry points (see :data:`ENTRY_POINTS`), reaching the classes through
:mod:`repro.api` and the live objects of a probe machine rather than
through deep module paths.  Every call records a span: layer, start, end,
parent span and unit id.  Spans stay in memory until the end of the run;
a layer's self time is its span time minus the time its child spans
cover.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from time import perf_counter_ns
from types import FunctionType

import numpy as np

from repro import api


LAYER_NAMES = ("apps", "machine", "cpu", "core.controller", "core.stream",
               "core.inplace", "core.nearplace", "cache", "sram", "kernels",
               "energy", "events")
"""The simulator's layers, named after its modules.  ``apps`` is the root
span of every unit (its run function); README.md lists each layer's
entry points and the end-to-end metric a change to it should move."""


def _sub_array(machine):
    return machine.hierarchy.l1[0].geometry.subarrays[0]


def _is_kernel(value) -> bool:
    """A row function of ``repro.kernels.packed``."""
    return isinstance(value, FunctionType) and value.__module__.endswith("kernels.packed")


ENTRY_POINTS = (
    # (layer, owner class from the facade or a live probe machine, methods)
    ("machine", lambda m: api.ComputeCacheMachine,
     ("__init__", "load", "warm_l3", "peek", "cc", "cc_stream")),
    ("cpu", lambda m: type(m.cores[0]), ("run",)),
    ("cpu", lambda m: api.MulticoreRunner, ("run",)),
    ("core.controller", lambda m: type(m.controllers[0]), ("execute",)),
    ("core.stream", lambda m: api.CCInstructionStream, ("execute",)),
    ("core.inplace", lambda m: type(m.controllers[0].inplace),
     ("execute", "execute_batch", "account_batch", "kernel_batch")),
    ("core.nearplace", lambda m: type(m.controllers[0].nearplace), ("execute",)),
    ("cache", lambda m: type(m.hierarchy),
     ("read", "write", "access_block", "coherent_peek", "probe_residency",
      "cc_prepare", "cc_release")),
    ("sram", lambda m: type(_sub_array(m)), ("op_batch", "read_block", "write_block")),
    ("energy", lambda m: type(m.ledger), ("add",)),
    ("events", lambda m: api.EventTracer, ("emit",)),
)


def _kernel_namespaces(probe) -> list[dict]:
    """Module namespaces the packed row kernels are called through: those
    of the sub-array and the near-place unit (which import the kernels by
    name) and the kernels package itself (imported lazily elsewhere)."""
    spaces = [type(_sub_array(probe)).op_batch.__globals__,
              type(probe.controllers[0].nearplace).execute.__globals__]
    for value in list(spaces[0].values()):
        if _is_kernel(value):
            package = value.__module__.rpartition(".")[0]
            spaces.append(vars(importlib.import_module(package)))
            break
    return spaces


class LayerTracer:
    """Span recorder plus the wrappers that feed it.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original entry points.  ``unit`` is the id stamped on
    every span recorded until it changes.
    """

    def __init__(self) -> None:
        self.layer = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.unit_of = array("q")
        self.unit = -1
        self.warnings: list[str] = []
        self.sim: dict[str, float] = {}
        """Simulated counters summed from the ``RunResult``s and
        ``StreamResult``s the wrapped entry points return."""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------------

    def _wrap(self, layer: str, fn, collect=None):
        lid = LAYER_NAMES.index(layer)
        stack = self._stack
        layers, starts, ends, parents, units = (
            self.layer, self.start, self.end, self.parent, self.unit_of)
        tracer = self

        def span(*args, **kwargs):
            idx = len(starts)
            layers.append(lid)
            parents.append(stack[-1] if stack else -1)
            units.append(tracer.unit)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if collect is not None:
                collect(out)
            return out

        span.__wrapped__ = fn
        return span

    def root(self, fn):
        """``fn`` wrapped as the unit's root (``apps``) span."""
        return self._wrap("apps", fn)

    # -- installation ----------------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        probe = api.ComputeCacheMachine(api.small_test_machine())
        try:
            # Resolved before any wrapper replaces the methods it reads.
            spaces = _kernel_namespaces(probe)
        except (AttributeError, IndexError) as exc:
            self.warnings.append(f"layer kernels: functions not reachable ({exc!r})")
            spaces = []
        for layer, owner_of, names in ENTRY_POINTS:
            try:
                owner = owner_of(probe)
            except (AttributeError, IndexError) as exc:
                self.warnings.append(f"layer {layer}: owner not reachable ({exc!r}); "
                                     f"reporting zero calls")
                continue
            for name in names:
                self._patch_method(layer, owner, name)
        wrapped = {}
        for space in spaces:
            for name, value in list(space.items()):
                if _is_kernel(value):
                    if value not in wrapped:
                        wrapped[value] = self._wrap("kernels", value)
                    self._restore.append((space, name, value))
                    space[name] = wrapped[value]
        if not wrapped:
            self.warnings.append("layer kernels: no packed row kernels found; "
                                 "reporting zero calls")
        for warning in self.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        return self

    def _patch_method(self, layer: str, owner, name: str) -> None:
        raw = inspect.getattr_static(owner, name, None)
        if not isinstance(raw, FunctionType):
            self.warnings.append(
                f"layer {layer}: entry point {getattr(owner, '__name__', owner)}.{name} "
                f"not found; reporting zero calls")
            return
        collect = None
        if layer == "cpu" and owner is not api.MulticoreRunner:
            collect = self._collect_run
        elif layer == "core.stream":
            collect = self._collect_stream
        self._restore.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, self._wrap(layer, raw, collect))

    def _add(self, key: str, result, field: str) -> None:
        self.sim[key] = self.sim.get(key, 0) + getattr(result, field, 0)

    def _collect_run(self, result) -> None:
        self._add("cpu.instructions", result, "instructions")
        self._add("cpu.stall_cycles", result, "stall_cycles")

    def _collect_stream(self, result) -> None:
        self._add("stream.instructions", result, "instructions")
        self._add("stream.fused_instructions", result, "fused_instructions")
        self._add("stream.kernel_calls", result, "kernel_calls")

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = original
            elif original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._restore.clear()

    # -- analysis --------------------------------------------------------------------

    def mark(self) -> int:
        """Span count so far (a pass boundary for :meth:`self_times`)."""
        return len(self.start)

    def truncate(self, mark: int) -> None:
        """Drop the spans recorded after ``mark`` (no span may be open)."""
        for column in (self.layer, self.start, self.end, self.parent, self.unit_of):
            del column[mark:]

    def self_times(self, lo: int = 0, hi: int | None = None,
                   scales: dict | None = None) -> dict:
        """Per-layer self time and calls over spans ``lo:hi`` (whole
        passes: spans never straddle a pass boundary).  ``self_ns`` is
        measured; ``self_ref_ns`` scales every span by its unit's entry in
        ``scales`` (reference time, see ``hostclock``).  ``root_ns`` is
        the measured time of the root spans, which the self times of all
        layers add up to."""
        hi = len(self.start) if hi is None else hi
        lid = np.frombuffer(self.layer, dtype=np.int8)[lo:hi].astype(np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.int64)[lo:hi]).astype(float)
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi] - lo
        unit = np.frombuffer(self.unit_of, dtype=np.int64)[lo:hi]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        ids, where = np.unique(unit, return_inverse=True)
        scale = np.array([(scales or {}).get(int(u), 1.0) for u in ids])[where]
        n = len(LAYER_NAMES)
        return {
            "self_ns": np.bincount(lid, weights=own, minlength=n),
            "self_ref_ns": np.bincount(lid, weights=own * scale, minlength=n),
            "calls": np.bincount(lid, minlength=n),
            "root_ns": float(dur[~nested].sum()),
        }

    def write_chrome_trace(self, path) -> int:
        """All kept spans as Chrome-trace complete events (Perfetto,
        ``chrome://tracing``), one thread row per unit, nested by time;
        returns the number written."""
        n = len(self.start)
        origin = min(self.start) if n else 0
        names, starts, ends = LAYER_NAMES, self.start, self.end
        layers, units = self.layer, self.unit_of
        event = '{"name":"%s","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f}'
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"displayTimeUnit":"ns","traceEvents":[\n')
            for i in range(n):
                handle.write(event % (names[layers[i]], units[i],
                                      (starts[i] - origin) / 1e3,
                                      (ends[i] - starts[i]) / 1e3))
                handle.write(",\n" if i + 1 < n else "\n")
            handle.write("]}\n")
        return n
