"""Structured event tracing: the ring-buffer tracer and the event schema.

The tracer is the observability backbone of the simulator: every layer -
the CC controller, the in-place / near-place executors, the cache levels,
the H-trees, the coherence directory, and the core timing model - emits
events into one shared bounded ring buffer.  Tracing is enabled at
:class:`~repro.params.MachineConfig` level (``trace_events``); when it is
off the components hold ``tracer=None`` and the only residual cost on a
hot path is a single ``is not None`` check.

Recording an event stores one flat row, a tuple of its fields; the frozen
:class:`Event` records are built from the rows only when the buffer is
read.  Reading the whole buffer costs about what building every event at
emit time used to, and :meth:`EventTracer.by_kind` builds only the events
of the kind asked for.  The read surface is :meth:`EventTracer.snapshot`,
:meth:`EventTracer.by_kind`, iteration, ``len``, ``dropped`` and
``total_emitted``.

Events are *simulation-deterministic*: they carry simulated cycles, never
wall-clock time, so two machines configured identically produce identical
event streams - including across the ``bitexact`` and ``packed`` execution
backends (enforced by the differential-equivalence harness).

Event kinds
-----------

==================  ==========================================================
``core.phase``      One machine-timeline segment (``phase``: ``issue``,
                    ``load-stall``, ``mlp-stall``, ``cc-drain``) with its
                    start ``cycle`` and ``span``.  The spans of all
                    ``core.phase`` events of a run tile the timeline: they
                    sum to the run's total machine cycles (the attribution
                    invariant).
``cc.timeline``     One CC instruction placed on the timeline by the core
                    model (``phase``: ``total`` = full latency,
                    ``occupancy`` = controller-busy portion).
``cc.instruction``  One page-local CC instruction piece completing at the
                    controller (``span`` = its latency in cycles).
``cc.attr``         Controller-side attribution of one instruction piece
                    (``phase``: ``decode``, ``operand-fetch``,
                    ``compute-inplace``, ``compute-nearplace``, ``notify``);
                    spans sum to the piece's ``cc.instruction`` span.
``cc.dispatch``     Batched-vs-sequential dispatch decision (``reason``:
                    ``data-hazard`` or ``occupancy`` when sequential).
``cc.block_op``     One simple vector operation (``outcome``: ``in-place``,
                    ``near-place``, ``risc-fallback``; ``reason``:
                    ``locality-miss``, ``pin-loss``, ``forced``).
``cc.fetch``        One operand fetch to the compute level (``span`` =
                    fetch latency).
``cc.transpose``    Row-major -> bit-serial layout conversion before an
                    arithmetic instruction (``blocks`` converted,
                    ``span`` = conversion makespan in cycles).
``cc.pin_retry``    A lost pin forcing a re-fetch attempt.
``cc.pin_loss``     A pinned line invalidated: stolen by a forwarded
                    coherence request (``reason`` =
                    ``coherence-invalidation``) or back-invalidated when
                    its L2 copy is evicted (``inclusive-eviction``).
``cc.key_replicate``A search key written into a partition's key row.
``subarray.op``     One in-place sub-array operation.
``nearplace.op``    One near-place logic-unit operation.
``cache.lookup``    Tag lookup (``outcome``: ``hit`` / ``miss``).
``cache.read``      Conventional block read (array + H-tree).
``cache.write``     Conventional block write.
``cache.fill``      Block allocation (fill).
``cache.writeback`` Dirty victim pushed out by a fill.
``htree.transfer``  One 64-byte block moved over a cache's H-tree.
``dir.grant``       Directory grant of ownership (``outcome``: ``owner``).
``dir.revoke``      Directory sharer removal (``reason``: ``redundant``
                    for an idempotent duplicate delivery).
``dir.drop``        Directory entry dropped (L3 eviction).
``topo.hop``        One interconnect message crossing a cluster boundary
                    (multi-cluster topologies only; ``unit`` = source
                    cluster, ``blocks`` = destination cluster, ``span`` =
                    inter-cluster hops traversed, ``outcome``: ``data`` /
                    ``control``, ``reason`` = ``c<src>->c<dst>`` route
                    label).  A flat 1-cluster machine emits none, keeping
                    its event stream identical to the pre-topology model.
``runner.point``    One sweep-runner point (``phase``: ``cache-hit``,
                    ``computed``, ``timeout``, ``retry``,
                    ``serial-fallback``, ``failed``; ``span`` =
                    wall-clock seconds, not simulated cycles).
``runner.batch``    One sweep-runner batch (``span`` = wall seconds).
``fault.inject``    One fault delivered by :mod:`repro.faults` (``reason``
                    names the fault kind, e.g. ``sram.bitflip``,
                    ``controller.pin-steal``, ``directory.duplicate``).
``fault.recover``   One recovery action (``outcome``: ``corrected`` =
                    SECDED scrub fixed a single-bit upset, ``refetched`` =
                    uncorrectable clean block invalidated, ``retried`` =
                    operands re-pinned after a loss, ``degraded-risc`` =
                    RISC fallback after ``pin_retry_limit`` attempts,
                    ``absorbed`` = duplicated/delayed forwarded request
                    handled idempotently, ``surfaced`` = unrecoverable,
                    raised as an error).
==================  ==========================================================
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Event:
    """One traced simulation event.

    Only the fields meaningful for the event's ``kind`` are set; the rest
    stay ``None``.  ``cycle`` is a machine-timeline position (set by the
    core model, which owns the clock); controller- and cache-side events
    carry durations (``span``) but no absolute position.
    """

    seq: int
    kind: str
    core: int | None = None
    level: str | None = None
    unit: int | None = None
    opcode: str | None = None
    partition: object = None
    addr: int | None = None
    instr_id: int | None = None
    cycle: float | None = None
    span: float = 0.0
    outcome: str | None = None
    reason: str | None = None
    phase: str | None = None
    blocks: int | None = None


EVENT_FIELDS = tuple(f.name for f in fields(Event))


class EventTracer:
    """Bounded ring buffer of traced events.

    :meth:`emit` stores each event as one flat row, the :class:`Event`
    fields after ``seq`` in order; the :class:`Event` objects are built
    only when the buffer is read (:meth:`snapshot`, iteration,
    :meth:`by_kind`).  An event's ``seq`` is its position in the whole
    stream, so the first buffered row has ``seq == dropped``.

    ``capacity`` bounds memory: once full, the oldest events are dropped
    (``dropped`` counts them, and the profiler refuses to validate a
    truncated stream).  Components constructed without a tracer skip even
    the method call.
    """

    __slots__ = ("capacity", "_rows", "_emitted")

    def __init__(self, capacity: int = 1 << 20) -> None:
        if capacity <= 0:
            raise ValueError(f"tracer capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._rows: deque[tuple] = deque(maxlen=capacity)
        self._emitted = 0

    # -- recording ------------------------------------------------------------------

    def emit(self, kind: str, *, core: int | None = None, level: str | None = None,
             unit: int | None = None, opcode: str | None = None,
             partition: object = None, addr: int | None = None,
             instr_id: int | None = None, cycle: float | None = None,
             span: float = 0.0, outcome: str | None = None,
             reason: str | None = None, phase: str | None = None,
             blocks: int | None = None) -> None:
        """Append one event.  The keywords are the :class:`Event` fields,
        so a misspelt one raises ``TypeError``."""
        self._rows.append((kind, core, level, unit, opcode, partition, addr,
                           instr_id, cycle, span, outcome, reason, phase, blocks))
        self._emitted += 1

    # -- inspection -----------------------------------------------------------------

    @property
    def total_emitted(self) -> int:
        """Events recorded since construction or the last :meth:`clear`."""
        return self._emitted

    @property
    def dropped(self) -> int:
        """Events lost to ring-buffer wraparound."""
        return self._emitted - len(self._rows)

    def snapshot(self) -> list[Event]:
        """Stable copy of the current buffer contents (oldest first)."""
        first = self.dropped
        return [Event(first + i, *row) for i, row in enumerate(self._rows)]

    def by_kind(self, kind: str) -> list[Event]:
        """The buffered events of one kind (oldest first); only those
        are built."""
        first = self.dropped
        return [Event(first + i, *row) for i, row in enumerate(self._rows)
                if row[0] == kind]

    def clear(self) -> None:
        """Empty the buffer and reset sequence numbering."""
        self._rows.clear()
        self._emitted = 0

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(self.snapshot())
