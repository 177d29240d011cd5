"""The coherent three-level cache hierarchy (Table IV).

Private per-core L1-D and L2 (both inclusive), a shared L3 distributed into
NUCA slices on a ring, a directory per slice, and DRAM behind it all.
Transactions are atomic (each access completes before the next begins),
which is sufficient for the paper's analysis: the CC controller interacts
with coherence only through writebacks, invalidations, and pin releases.
Every forwarded request - an owner recall, a write miss's sharer
invalidation, a CC operand's recall to L3 - is delivered by one routine,
:meth:`CacheHierarchy._forward`.

Pages map to the NUCA slice of the first core that touches them
(Section IV-C: "pages are mapped to a NUCA slice closest to the core
actively accessing them").

The hierarchy exposes, besides byte-granularity ``read``/``write`` used by
the core model, the block-granularity hooks the CC controller needs:

* :meth:`probe_residency` - which levels hold all blocks of an operand;
* :meth:`cc_ready_lines` - whether operand blocks are ready at a compute
  level (nothing to fetch, flush or recall), and their lines;
* :meth:`cc_prepare` - fetch/flush/pin an operand block at a compute level,
  returning the latency incurred.

The controller unpins the lines it pinned through their
:class:`~repro.cache.cache.CacheLevel`; :meth:`cc_release` unpins one
block by address.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.transpose import TransposeUnit
from ..energy.accounting import Component, EnergyLedger
from ..errors import AddressError, CoherenceError
from ..events.tracer import EventTracer
from ..params import BLOCK_SIZE, PAGE_SIZE, MachineConfig
from .block import MESIState
from .cache import CacheLevel, Eviction
from .directory import Directory
from .memory import MainMemory
from .ring import RingInterconnect
from .topology import ClusterInterconnect

L1 = "L1"
L2 = "L2"
L3 = "L3"
LEVELS = (L1, L2, L3)


@dataclass
class AccessResult:
    """Outcome of one block access through the hierarchy."""

    data: bytes
    latency: int
    hit_level: str


def block_of(addr: int) -> int:
    return addr & ~(BLOCK_SIZE - 1)


class CacheHierarchy:
    """Cores' private caches + shared L3 slices + directory + memory."""

    def __init__(self, config: MachineConfig, ledger: EnergyLedger | None = None) -> None:
        self.config = config
        self.ledger = ledger if ledger is not None else EnergyLedger()
        self.tracer = (
            EventTracer(capacity=config.event_buffer_capacity)
            if config.trace_events else None
        )
        backend = config.backend
        l1_name, l2_name, l3_name = Component.LEVELS
        self.l1 = [
            CacheLevel(l1_name, config.l1d, self.ledger, backend=backend,
                       tracer=self.tracer, unit=core)
            for core in range(config.cores)
        ]
        self.l2 = [
            CacheLevel(l2_name, config.l2, self.ledger, backend=backend,
                       tracer=self.tracer, unit=core)
            for core in range(config.cores)
        ]
        self.l3 = [
            CacheLevel(l3_name, config.l3_slice, self.ledger, backend=backend,
                       tracer=self.tracer, unit=slice_id)
            for slice_id in range(config.l3_slices)
        ]
        self.directory = [Directory(slice_id=s, tracer=self.tracer)
                          for s in range(config.l3_slices)]
        self.ring = ClusterInterconnect(config.ring, config.topology,
                                        self.ledger, tracer=self.tracer)
        self.memory = MainMemory(
            config.memory_size,
            latency=config.memory.latency,
            energy_per_block_pj=config.memory.energy_per_block,
        )
        self._page_to_slice: dict[int, int] = {}
        self.page_map_epoch = 0
        """Bumped by :meth:`place_page` (explicit OS re-homing).  First-touch
        homing is sticky and deterministic, so pure per-address decode caches
        only go stale on an explicit re-placement."""
        self.forced_unpins: list[tuple[str, int, int]] = []
        self.transpose = TransposeUnit(config.cc.transpose_latency)
        """Which blocks hold bit-serial data (:mod:`repro.core.transpose`):
        one tracker for the machine, since a block's layout belongs to the
        data in the arrays, which every core's CC controller computes on."""
        self.coherence_fault_hook = None
        """Fault-injection hook (:mod:`repro.faults`): called as
        ``hook(addr, holder_core)`` after each forwarded coherence request
        is delivered (:meth:`_forward`).  Returning ``("duplicate", 0)``
        re-delivers the request (which must be an idempotent no-op);
        ``("delay", cycles)`` charges extra delivery latency; ``None``
        injects nothing."""

    # -- NUCA home mapping ---------------------------------------------------------

    def home_slice(self, addr: int, core: int = 0) -> int:
        """Slice homing ``addr``.

        Policy comes from :class:`~repro.params.TopologyConfig`:
        ``first-touch`` homes a page at the first toucher's ring stop
        (Section IV-C); ``page`` interleaves pages statically across the
        slices (``page % l3_slices`` - a gap- and overlap-free partition of
        the address space).  An explicit :meth:`place_page` always wins.
        """
        page = addr // PAGE_SIZE
        slice_id = self._page_to_slice.get(page)
        if slice_id is None:
            if self.config.topology.slice_interleave == "page":
                slice_id = page % self.config.l3_slices
            else:
                slice_id = RingInterconnect.core_stop(core, self.config.l3_slices)
            self._page_to_slice[page] = slice_id
        return slice_id

    def place_page(self, addr: int, slice_id: int) -> None:
        """Explicitly place a page on a slice (OS page-coloring hook).

        Raises :class:`~repro.errors.AddressError`, and leaves the map as it
        is, when the page would move off a slice that holds one of its
        blocks: the cached copies and their directory entries stay at the
        old home, where no later access would look for them.
        """
        if not 0 <= slice_id < self.config.l3_slices:
            raise AddressError(f"slice {slice_id} outside 0..{self.config.l3_slices - 1}")
        page = addr // PAGE_SIZE
        home = self._page_to_slice.get(page, slice_id)
        base = page * PAGE_SIZE
        if home != slice_id and any(self.cached(block) for block in
                                    range(base, base + PAGE_SIZE, BLOCK_SIZE)):
            raise AddressError(f"page {base:#x} has blocks cached on its home slice "
                               f"{home}; it cannot move to slice {slice_id}")
        self._page_to_slice[page] = slice_id
        self.page_map_epoch += 1

    def cached(self, addr: int) -> bool:
        """Whether any cache holds a block.  The L3 is inclusive, so that
        is whether the slice homing the block's page holds it; a page no
        access has homed has no cached block."""
        slice_id = self._page_to_slice.get(addr // PAGE_SIZE)
        return slice_id is not None and self.l3[slice_id].contains(addr)

    # -- private-hierarchy helpers ----------------------------------------------------

    def _lose_pin(self, level: CacheLevel, core: int, addr: int, reason: str) -> None:
        """Record and drop the pin of a line about to be invalidated, if any."""
        if level.is_pinned(addr):
            self.forced_unpins.append((level.name, core, addr))
            if self.tracer is not None:
                self.tracer.emit("cc.pin_loss", core=core, level=level.name,
                                 addr=addr, reason=reason)
            level.unpin(addr)

    def _invalidate_private(self, core: int, addr: int) -> tuple[bytes | None, bool]:
        """Invalidate a core's L1+L2 copies; returns freshest (data, dirty)."""
        for level in (self.l1[core], self.l2[core]):
            self._lose_pin(level, core, addr, "coherence-invalidation")
        l1_res = self.l1[core].invalidate(addr)
        l2_res = self.l2[core].invalidate(addr)
        if l1_res and l1_res[1]:
            return l1_res[0], True
        if l2_res and l2_res[1]:
            return l2_res[0], True
        if l2_res:
            return l2_res[0], False
        if l1_res:
            return l1_res[0], False
        return None, False

    def flush_private(self, core: int, addr: int) -> None:
        """Drop a core's L1+L2 copies of a block, writing the freshest
        dirty one back to the block's home L3 slice."""
        slice_id = self.home_slice(addr, core)
        data, dirty = self._invalidate_private(core, addr)
        if dirty:
            self.l3[slice_id].write_block(addr, data, dirty=True)
        self.directory[slice_id].remove_sharer(addr, core)

    def _downgrade_private(self, core: int, addr: int) -> bytes | None:
        """Downgrade a core's copies to SHARED; returns dirty data if any."""
        dirty_data = None
        for level in (self.l1[core], self.l2[core]):
            state = level.state_of(addr)
            if state is MESIState.INVALID:
                continue
            if state.dirty and dirty_data is None:
                dirty_data = level.read_block(addr, charge=False)
            level.set_state(addr, MESIState.SHARED)
        return dirty_data

    def _forward(self, holder: int, addr: int, slice_id: int, invalidate: bool,
                 duplicate: bool = False) -> int:
        """Deliver one forwarded request from the home ``slice_id`` to core
        ``holder``; returns the latency it adds.

        The holder's L1 and L2 copies are invalidated (``invalidate``) or
        downgraded to SHARED; the home directory revokes the holder, or
        clears its ownership; a dirty copy then travels from the holder's
        ring stop into the home L3 slice.  Last, the fault hook is
        consulted: ``duplicate`` delivers the request again
        (``duplicate=True``, which finds no copy left to take and consults
        no hook: an idempotent no-op) over one more control message;
        ``delay`` adds its cycles.  Either emits one ``fault.recover``
        with outcome ``absorbed``.
        """
        directory = self.directory[slice_id]
        if invalidate:
            data, dirty = self._invalidate_private(holder, addr)
            directory.remove_sharer(addr, holder)
        else:
            data = self._downgrade_private(holder, addr)
            dirty = data is not None
            directory.clear_owner(addr)
        holder_stop = RingInterconnect.core_stop(holder, self.config.l3_slices)
        latency = 0
        if dirty:
            l3 = self.l3[slice_id]
            if not l3.contains(addr):
                raise CoherenceError(f"writeback of {addr:#x} from core {holder} "
                                     "found no L3 copy (inclusion)")
            latency = self.ring.send_block(holder_stop, slice_id)
            l3.write_block(addr, data, dirty=True)
        hook = self.coherence_fault_hook
        action = None if duplicate or hook is None else hook(addr, holder)
        if action is None:
            return latency
        kind, cycles = action
        extra = 0
        if kind == "duplicate":
            self._forward(holder, addr, slice_id, invalidate, duplicate=True)
            extra = self.ring.send_control(slice_id, holder_stop)
        elif kind == "delay":
            extra = int(cycles)
        if self.tracer is not None:
            self.tracer.emit("fault.recover", core=holder, level="L3",
                             addr=addr, outcome="absorbed",
                             reason=f"directory-{kind}", span=float(extra))
        return latency + extra

    # -- eviction handling --------------------------------------------------------------

    def _handle_l1_eviction(self, core: int, ev: Eviction) -> None:
        if not ev.dirty:
            return
        if not self.l2[core].contains(ev.addr):
            raise CoherenceError(
                f"inclusion violated: L1 victim {ev.addr:#x} absent from L2 of core {core}"
            )
        self.l2[core].write_block(ev.addr, ev.data, dirty=True)

    def _handle_l2_eviction(self, core: int, ev: Eviction) -> None:
        data, dirty = ev.data, ev.dirty
        self._lose_pin(self.l1[core], core, ev.addr, "inclusive-eviction")
        l1_res = self.l1[core].invalidate(ev.addr)
        if l1_res and l1_res[1]:
            data, dirty = l1_res[0], True
        slice_id = self.home_slice(ev.addr, core)
        if dirty:
            self.ring.send_block(RingInterconnect.core_stop(core, self.config.l3_slices),
                                 slice_id)
            if not self.l3[slice_id].contains(ev.addr):
                raise CoherenceError(
                    f"inclusion violated: L2 victim {ev.addr:#x} absent from L3 slice {slice_id}"
                )
            self.l3[slice_id].write_block(ev.addr, data, dirty=True)
        self.directory[slice_id].remove_sharer(ev.addr, core)

    def _handle_l3_eviction(self, slice_id: int, ev: Eviction) -> None:
        data, dirty = ev.data, ev.dirty
        entry = self.directory[slice_id].peek(ev.addr)
        if entry:
            for core in sorted(entry.sharers):
                inv_data, inv_dirty = self._invalidate_private(core, ev.addr)
                if inv_dirty and inv_data is not None:
                    data, dirty = inv_data, True
        self.directory[slice_id].drop(ev.addr)
        if dirty:
            self.memory.write_block(ev.addr, data)
            self.ledger.add(Component.MEMORY, self.memory.energy_per_block_pj)

    # -- L3/directory transaction -----------------------------------------------------------

    def _l3_get(self, core: int, addr: int, for_write: bool) -> tuple[bytes, int]:
        """Home-node transaction: returns (data, latency at/beyond L3)."""
        slice_id = self.home_slice(addr, core)
        l3 = self.l3[slice_id]
        directory = self.directory[slice_id]
        core_stop = RingInterconnect.core_stop(core, self.config.l3_slices)
        latency = self.ring.send_control(core_stop, slice_id)

        entry = directory.entry(addr)
        # Recall / invalidate remote copies.
        if entry.owner is not None and entry.owner != core:
            latency += self._forward(entry.owner, addr, slice_id, invalidate=for_write)
        elif for_write:
            for sharer in sorted(entry.sharers - {core}):
                latency += self._forward(sharer, addr, slice_id, invalidate=True)

        # Supply the data from L3, fetching from memory on an L3 miss.
        if l3.contains(addr):
            latency += l3.config.hit_latency
            data = l3.read_block(addr)
        else:
            latency += l3.config.hit_latency + self.memory.latency
            data = self.memory.read_block(addr)
            self.ledger.add(Component.MEMORY, self.memory.energy_per_block_pj)
            ev = l3.fill(addr, data, MESIState.EXCLUSIVE)
            if ev:
                self._handle_l3_eviction(slice_id, ev)

        # Grant.
        if for_write:
            directory.set_owner(addr, core)
        else:
            entry = directory.entry(addr)
            entry.sharers.add(core)
            entry.owner = core if entry.sharers == {core} else None
        latency += self.ring.send_block(slice_id, core_stop)
        return data, latency

    # -- the core-facing access path ------------------------------------------------------

    def access_block(self, core: int, addr: int, for_write: bool) -> AccessResult:
        """Bring a block to the core's L1 with read or write permission."""
        addr = block_of(addr)
        l1, l2 = self.l1[core], self.l2[core]
        l1_lat = l1.config.hit_latency

        line = l1.lookup(addr)
        if line is not None:
            set_index, way, state = line
            data = l1.read_line(addr, set_index, way)
            if not for_write:
                return AccessResult(data, l1_lat, L1)
            if state.writable:
                l1.set_line_state(set_index, way, MESIState.MODIFIED)
                return AccessResult(data, l1_lat, L1)
            # S -> M upgrade through the directory.
            _, up_lat = self._l3_get(core, addr, for_write=True)
            l1.set_state(addr, MESIState.MODIFIED)
            if l2.contains(addr):
                l2.set_state(addr, MESIState.EXCLUSIVE)
            return AccessResult(data, l1_lat + up_lat, L3)

        l2_lat = l2.config.hit_latency
        line = l2.lookup(addr)
        if line is not None:
            set_index, way, state = line
            data = l2.read_line(addr, set_index, way)
            if not for_write or state.writable:
                ev = l1.fill(addr, data, MESIState.MODIFIED if for_write else state)
                if ev:
                    self._handle_l1_eviction(core, ev)
                return AccessResult(data, l1_lat + l2_lat, L2)
            # Upgrade-miss to the home L3 slice.
            _, l3_lat = self._l3_get(core, addr, for_write=True)
            l2.set_state(addr, MESIState.EXCLUSIVE)
            ev = l1.fill(addr, data, MESIState.MODIFIED)
            if ev:
                self._handle_l1_eviction(core, ev)
            return AccessResult(data, l1_lat + l2_lat + l3_lat, L3)

        # Miss to the home L3 slice.
        data, l3_lat = self._l3_get(core, addr, for_write)
        entry = self.directory[self.home_slice(addr, core)].entry(addr)
        if for_write:
            l2_state, l1_state = MESIState.EXCLUSIVE, MESIState.MODIFIED
        elif entry.owner == core:
            l2_state = l1_state = MESIState.EXCLUSIVE
        else:
            l2_state = l1_state = MESIState.SHARED
        ev = l2.fill(addr, data, l2_state)
        if ev:
            self._handle_l2_eviction(core, ev)
        ev = l1.fill(addr, data, l1_state)
        if ev:
            self._handle_l1_eviction(core, ev)
        return AccessResult(data, l1_lat + l2_lat + l3_lat, L3)

    # -- byte-granularity interface used by the core model ---------------------------------

    def read(self, core: int, addr: int, size: int) -> tuple[bytes, int]:
        """Read ``size`` bytes; returns (data, total latency).  A size of 0
        or less reads nothing."""
        if size <= 0:
            return b"", 0
        lo = addr % BLOCK_SIZE
        if lo + size <= BLOCK_SIZE:
            res = self.access_block(core, addr - lo, for_write=False)
            return res.data[lo:lo + size], res.latency
        out = bytearray()
        latency = 0
        for block in range(block_of(addr), block_of(addr + size - 1) + 1, BLOCK_SIZE):
            res = self.access_block(core, block, for_write=False)
            latency += res.latency
            lo = max(addr, block) - block
            hi = min(addr + size, block + BLOCK_SIZE) - block
            out += res.data[lo:hi]
        return bytes(out), latency

    def write(self, core: int, addr: int, data: bytes) -> int:
        """Write bytes (read-modify-write at block granularity); returns latency."""
        if not data:
            return 0
        latency = 0
        offset = 0
        size = len(data)
        for block in range(block_of(addr), block_of(addr + size - 1) + 1, BLOCK_SIZE):
            res = self.access_block(core, block, for_write=True)
            latency += res.latency
            lo = max(addr, block) - block
            hi = min(addr + size, block + BLOCK_SIZE) - block
            merged = bytearray(res.data)
            merged[lo:hi] = data[offset : offset + (hi - lo)]
            self.l1[core].write_block(block, bytes(merged), dirty=True, charge=False)
            offset += hi - lo
        return latency

    def coherent_peek(self, addr: int, size: int) -> bytes:
        """The architecturally-current value of a byte range, free of charge.

        Finds the freshest copy (a dirty private copy, else L3, else
        memory) without perturbing stats - used for verification and to
        model register contents.
        """
        out = bytearray()
        end = addr + size
        block = block_of(addr)
        while block < end:
            data = self._peek_block(block)
            lo = max(addr, block) - block
            hi = min(end, block + BLOCK_SIZE) - block
            out += data[lo:hi]
            block += BLOCK_SIZE
        return bytes(out)

    def _peek_block(self, addr: int) -> bytes:
        """One block's current bytes, found through its home directory:
        only the core it names as owner can hold the block dirty (the
        audit of :meth:`check_inclusion`), in its L1 or else its L2; with
        no dirty private copy the home L3 slice holds the value, and with
        no L3 copy (or no home yet) memory does."""
        slice_id = self._page_to_slice.get(addr // PAGE_SIZE)
        if slice_id is None:
            return self.memory.peek(addr, BLOCK_SIZE)
        entry = self.directory[slice_id].peek(addr)
        if entry is not None and entry.owner is not None:
            for level in (self.l1[entry.owner], self.l2[entry.owner]):
                if level.state_of(addr).dirty:
                    return level.peek_block(addr)
        l3 = self.l3[slice_id]
        if l3.contains(addr):
            return l3.peek_block(addr)
        return self.memory.peek(addr, BLOCK_SIZE)

    # -- CC controller hooks (Section IV-E) --------------------------------------------------

    def level_cache(self, level: str, core: int, addr: int) -> CacheLevel:
        """The concrete cache a (level, core, addr) triple refers to."""
        if level == L1:
            return self.l1[core]
        if level == L2:
            return self.l2[core]
        if level == L3:
            return self.l3[self.home_slice(addr, core)]
        raise AddressError(f"unknown cache level {level!r}")

    def residency_epoch(self) -> int:
        """Monotone counter covering every fill/invalidate in the machine.

        The CC controller memoizes level selection per instruction; a memo
        entry is valid only while this epoch is unchanged (any fill or
        invalidate anywhere could alter which levels hold an operand).
        """
        return (sum(c.epoch for c in self.l1)
                + sum(c.epoch for c in self.l2)
                + sum(c.epoch for c in self.l3))

    def probe_residency(self, core: int, block_addrs: list[int]) -> dict[str, bool]:
        """For each level, are *all* the given blocks resident there?

        Used by the controller's level-selection policy: compute at the
        highest level where every operand is present, else at L3.
        """
        res = {}
        res[L1] = all(self.l1[core].contains(a) for a in block_addrs)
        res[L2] = all(self.l2[core].contains(a) for a in block_addrs)
        res[L3] = all(
            self.l3[self.home_slice(a, core)].contains(a) for a in block_addrs
        )
        return res

    def cc_ready_lines(self, core: int, level: str, addrs,
                       is_dest: bool) -> list[tuple[int, int]] | None:
        """The ``(set_index, way)`` of operand blocks ``addrs`` (block
        addresses of one page) at the compute level, when every one is
        *ready*: :meth:`cc_prepare` has nothing to fetch, flush or recall
        for it and only marks a destination MODIFIED.  None otherwise.

        A ready block is resident at the compute level; at L3 no private
        cache holds a copy (its home directory lists no sharer); at L1 or
        L2 it is writable when it is a destination, and at L2 it is absent
        from the L1.  These are the tests :meth:`cc_prepare` makes of one
        block before it takes its zero-latency branch.
        """
        if level == L3:
            slice_id = self.home_slice(addrs[0], core)
            lines = self.l3[slice_id].resident_lines(addrs)
            if lines is None:
                return None
            peek = self.directory[slice_id].peek
            for addr in addrs:
                entry = peek(addr)
                if entry and entry.sharers:
                    return None
            return lines
        lines = self.level_cache(level, core, addrs[0]).resident_lines(addrs, writable=is_dest)
        if lines is None or level == L1:
            return lines
        l1 = self.l1[core]
        return None if any(l1.probe(addr) is not None for addr in addrs) else lines

    def cc_prepare(self, core: int, level: str, addr: int, is_dest: bool,
                   skip_fetch: bool = False) -> int:
        """Make one operand block computable at ``level``; returns latency.

        A ready block (:meth:`cc_ready_lines`) costs only the tag probe,
        which is folded into the controller's command-issue time.  Else
        dirty copies in skipped (higher) levels are written back using the
        existing writeback machinery (Section IV-F); destination operands
        additionally have stale higher-level copies invalidated.  Missing
        blocks are fetched (from memory for L3, through the normal access
        path for L1/L2); fully-overwritten destinations skip the fetch
        (Section IV-E's optimization).
        """
        addr = block_of(addr)
        if level == L3:
            return self._cc_prepare_l3(core, addr, is_dest, skip_fetch)
        target = self.level_cache(level, core, addr)
        latency = 0  # a resident, ready operand costs only the tag probe,
        # which is folded into the controller's command-issue time
        if not target.contains(addr):
            res = self.access_block(core, addr, for_write=is_dest)
            latency += res.latency
        elif is_dest:
            state = target.state_of(addr)
            if not state.writable:
                res = self.access_block(core, addr, for_write=True)
                latency += res.latency
        # Flush/invalidate the levels above the compute level.
        if level == L2:
            l1 = self.l1[core]
            if l1.contains(addr):
                state = l1.state_of(addr)
                if state.dirty:
                    data = l1.read_block(addr, charge=False)
                    self.l2[core].write_block(addr, data, dirty=True)
                    latency += self.l2[core].config.hit_latency
                l1.invalidate(addr)
        if is_dest:
            target.set_state(addr, MESIState.MODIFIED)
        return latency

    def _cc_prepare_l3(self, core: int, addr: int, is_dest: bool, skip_fetch: bool) -> int:
        slice_id = self.home_slice(addr, core)
        l3 = self.l3[slice_id]
        # Fast path: the block is resident, clean of private copies, and
        # already writable if needed - only the tag probe remains, which is
        # folded into the controller's command-issue serialization.
        entry = self.directory[slice_id].peek(addr)
        if l3.contains(addr) and not (entry and entry.sharers):
            if is_dest:
                l3.set_state(addr, MESIState.MODIFIED)
            return 0
        latency = self.ring.send_control(
            RingInterconnect.core_stop(core, self.config.l3_slices), slice_id
        )
        if entry:
            for holder in sorted(entry.sharers):
                latency += self._forward(holder, addr, slice_id, invalidate=is_dest)
        if not l3.contains(addr):
            if skip_fetch and is_dest:
                ev = l3.fill(addr, bytes(BLOCK_SIZE), MESIState.MODIFIED)
            else:
                latency += self.memory.latency
                data = self.memory.read_block(addr)
                self.ledger.add(Component.MEMORY, self.memory.energy_per_block_pj)
                state = MESIState.MODIFIED if is_dest else MESIState.EXCLUSIVE
                ev = l3.fill(addr, data, state)
            if ev:
                self._handle_l3_eviction(slice_id, ev)
        elif is_dest:
            l3.set_state(addr, MESIState.MODIFIED)
        latency += l3.config.hit_latency
        return latency

    def cc_release(self, core: int, level: str, addr: int) -> None:
        """Unpin an operand block after its CC operation completes."""
        self.level_cache(level, core, block_of(addr)).unpin(block_of(addr))

    # -- invariant audits (used by property tests) ---------------------------------------------

    def check_inclusion(self) -> None:
        """Assert L1 subset-of L2 subset-of L3 and directory consistency:
        every private copy is listed at its home directory, and a writable
        (E/M) one belongs to the core the directory names as owner."""
        for core in range(self.config.cores):
            for addr in self.l1[core].resident_addresses():
                if not self.l2[core].contains(addr):
                    raise CoherenceError(
                        f"L1 block {addr:#x} of core {core} missing from its L2"
                    )
            for addr in self.l2[core].resident_addresses():
                slice_id = self.home_slice(addr, core)
                if not self.l3[slice_id].contains(addr):
                    raise CoherenceError(
                        f"L2 block {addr:#x} of core {core} missing from L3 slice {slice_id}"
                    )
                entry = self.directory[slice_id].peek(addr)
                if entry is None or core not in entry.sharers:
                    raise CoherenceError(
                        f"L2 block {addr:#x} of core {core} not in directory"
                    )
            # Each block here is listed at its home directory (checked above).
            for level in (self.l1[core], self.l2[core]):
                for addr in level.resident_addresses():
                    if level.state_of(addr).writable and self.directory[
                            self.home_slice(addr, core)].peek(addr).owner != core:
                        raise CoherenceError(
                            f"writable {level.name} block {addr:#x} of core {core} "
                            "is not owned by it in its home directory"
                        )
        for directory in self.directory:
            directory.check_all()

    def check_single_writer(self) -> None:
        """Assert the SWMR invariant: a dirty private copy is exclusive."""
        blocks: dict[int, list[tuple[int, MESIState]]] = {}
        for core in range(self.config.cores):
            for level in (self.l1[core], self.l2[core]):
                for addr in level.resident_addresses():
                    state = level.state_of(addr)
                    blocks.setdefault(addr, []).append((core, state))
        for addr, holders in blocks.items():
            writers = {c for c, s in holders if s.writable}
            readers = {c for c, s in holders}
            if len(writers) > 1:
                raise CoherenceError(f"block {addr:#x} writable in cores {writers}")
            if writers and readers - writers:
                raise CoherenceError(
                    f"block {addr:#x} writable in {writers} but shared in {readers - writers}"
                )
