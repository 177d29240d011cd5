"""Event tracing, cycle attribution, and Chrome-trace export.

See :mod:`repro.events.tracer` for the event schema, and
``docs/profiling.md`` for the workflow.  Enable tracing through
``MachineConfig(trace_events=True)`` or
``ComputeCacheMachine(trace_events=True)``; profile a trace file with
``python -m repro profile <trace>``.
"""

from .attribution import (
    CC_PHASES,
    MACHINE_PHASES,
    CCInstructionRow,
    TraceProfile,
    build_profile,
    format_profile,
    profile_machine,
    profile_trace,
)
from .chrometrace import chrome_trace, write_chrome_trace
from .tracer import Event, EventTracer

__all__ = [
    "CC_PHASES",
    "MACHINE_PHASES",
    "CCInstructionRow",
    "Event",
    "EventTracer",
    "TraceProfile",
    "build_profile",
    "chrome_trace",
    "format_profile",
    "profile_machine",
    "profile_trace",
    "write_chrome_trace",
]
