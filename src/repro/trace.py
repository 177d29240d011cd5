"""Trace-driven frontend: run text traces through the machine.

A trace is a line-oriented file mixing core events with CC assembly
(:mod:`repro.asm`)::

    # initialize memory (backdoor, before caching)
    init   0x0,    repeat:0xff*4096
    init   0x1000, zeros:4096

    load   0x0,    8              # scalar load
    store  0x40,   bytes:00112233 # scalar store with literal data
    simd_load 0x80, 32
    cc_or  0x0, 0x1000, 0x2000, 4096
    fence

Event grammar (one per line, ``#`` comments):

=============  ===========================================
``init``       ``addr, <data-spec>``  - backdoor memory fill
``load``       ``addr[, size][, dependent][, streaming]``
``store``      ``addr, <data-spec>``
``simd_load``  ``addr[, size]``
``simd_store`` ``addr, <data-spec>``
``scalar``     (no operands) - one ALU op
``branch``     (no operands)
``fence``      (no operands)
``cc_*``       Table II assembly (see :mod:`repro.asm`)
=============  ===========================================

Data specs: ``zeros:N``, ``repeat:0xVV*N``, ``bytes:<hex>``.

Data-spec grammar rules: the count ``N`` must be a *non-negative* integer
(decimal or ``0x`` hex) - a negative count is a parse error, not an empty
payload - and ``bytes:`` data must be an even number of hex digits (whole
bytes).  Violations raise :class:`~repro.errors.ISAError` tagged with the
offending trace line number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .asm import parse as parse_cc
from .cpu.program import Instr, Program
from .errors import ISAError
from .machine import ComputeCacheMachine


@dataclass
class TraceResult:
    """Outcome of replaying one trace."""

    cycles: float
    instructions: int
    cc_instructions: int
    dynamic_nj: float
    cc_results: list = field(default_factory=list)


def _parse_count(text: str, spec: str) -> int:
    """A data-spec byte count: a non-negative decimal or ``0x`` integer."""
    count = int(text, 0)
    if count < 0:
        raise ISAError(
            f"negative byte count {count} in data spec {spec!r} "
            f"(counts must be >= 0)"
        )
    return count


def _parse_data_spec(spec: str) -> bytes:
    spec = spec.strip()
    if spec.startswith("zeros:"):
        return bytes(_parse_count(spec[len("zeros:"):], spec))
    if spec.startswith("repeat:"):
        body = spec[len("repeat:"):]
        value_s, _, count_s = body.partition("*")
        if not count_s:
            raise ISAError(f"repeat spec needs 0xVV*N, got {spec!r}")
        return bytes([int(value_s, 0) & 0xFF]) * _parse_count(count_s, spec)
    if spec.startswith("bytes:"):
        hexstr = spec[len("bytes:"):]
        try:
            return bytes.fromhex(hexstr)
        except ValueError:
            raise ISAError(
                f"bad hex in {spec!r} (data must be an even number of "
                f"hex digits - whole bytes)"
            ) from None
    raise ISAError(f"unknown data spec {spec!r}")


def _operands(rest: str) -> list[str]:
    return [tok.strip() for tok in rest.split(",")] if rest.strip() else []


class TraceReader:
    """Parses a trace into backdoor initializations plus a Program."""

    def __init__(self) -> None:
        self.inits: list[tuple[int, bytes]] = []
        self.program = Program("trace")

    def feed_line(self, line: str, lineno: int = 0) -> None:
        text = line.split("#", 1)[0].strip()
        if not text:
            return
        try:
            self._dispatch(text)
        except (ISAError, ValueError) as exc:
            raise ISAError(f"trace line {lineno}: {exc}") from None

    def _dispatch(self, text: str) -> None:
        head, _, rest = text.partition(" ")
        head = head.lower()
        if head.startswith("cc_"):
            self.program.append(Instr.cc_op(parse_cc(text)))
            return
        ops = _operands(rest)
        if head == "init":
            if len(ops) != 2:
                raise ISAError("init takes: addr, data-spec")
            self.inits.append((int(ops[0], 0), _parse_data_spec(ops[1])))
        elif head in ("load", "simd_load"):
            if not ops:
                raise ISAError(f"{head} needs an address")
            addr = int(ops[0], 0)
            size = int(ops[1], 0) if len(ops) > 1 else (32 if head == "simd_load" else 8)
            flags = {o.lower() for o in ops[2:]}
            if head == "simd_load":
                self.program.append(Instr.simd_load(addr, size))
            else:
                self.program.append(Instr.load(
                    addr, size,
                    dependent="dependent" in flags,
                    streaming="streaming" in flags,
                ))
        elif head in ("store", "simd_store"):
            if len(ops) != 2:
                raise ISAError(f"{head} takes: addr, data-spec")
            addr = int(ops[0], 0)
            data = _parse_data_spec(ops[1])
            if head == "simd_store":
                self.program.append(Instr.simd_store(addr, data))
            else:
                self.program.append(Instr.store(addr, data))
        elif head == "scalar":
            self.program.append(Instr.scalar())
        elif head == "branch":
            self.program.append(Instr.branch())
        elif head == "fence":
            self.program.append(Instr.fence())
        else:
            raise ISAError(f"unknown trace event {head!r}")

    def feed(self, text: str) -> "TraceReader":
        for lineno, line in enumerate(text.splitlines(), start=1):
            self.feed_line(line, lineno)
        return self


def run_trace(text: str, machine: ComputeCacheMachine | None = None,
              core: int = 0) -> TraceResult:
    """Replay a trace on a machine; returns timing/energy accounting."""
    m = machine or ComputeCacheMachine()
    reader = TraceReader().feed(text)
    for addr, data in reader.inits:
        m.load(addr, data)
    snap = m.snapshot_energy()
    res = m.run(reader.program, core=core)
    return TraceResult(
        cycles=res.cycles,
        instructions=res.instructions,
        cc_instructions=res.cc_instructions,
        dynamic_nj=m.energy_since(snap).total_nj(),
        cc_results=res.cc_results,
    )


def run_trace_file(path: str, machine: ComputeCacheMachine | None = None) -> TraceResult:
    """Replay a trace file."""
    with open(path, encoding="utf-8") as handle:
        return run_trace(handle.read(), machine)
