"""Trace-frontend round trips with event tracing, plus data-spec fixes.

Round-trips a trace containing every trace event kind (init / load /
store / simd_* / scalar / branch / fence / every cc_* family) through
both execution backends and asserts identical :class:`TraceResult`s *and*
bit-identical event streams.  Also pins the fixed ``data-spec`` grammar
edge cases: negative counts and odd-length hex are parse errors tagged
with their trace line number, not silent empty payloads.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import ComputeCacheMachine
from repro.errors import ISAError
from repro.params import BACKENDS, small_test_machine
from repro.trace import TraceReader, _parse_data_spec, run_trace

DEMO_TRACE = (Path(__file__).parent.parent
              / "examples" / "profile_demo.trace").read_text()


def _traced_run(backend: str):
    m = ComputeCacheMachine(small_test_machine(), trace_events=True,
                            backend=backend)
    result = run_trace(DEMO_TRACE, m)
    return m, result


class TestRoundTrip:
    def test_demo_trace_covers_every_event_kind(self):
        reader = TraceReader().feed(DEMO_TRACE)
        kinds = {i.kind.name.lower() for i in reader.program}
        assert kinds == {"load", "simd_load", "store", "simd_store",
                         "scalar_op", "branch", "fence", "cc"}
        assert reader.inits, "backdoor inits present"
        mnemonics = {i.cc.opcode.value for i in reader.program
                     if i.cc is not None}
        assert mnemonics == {"cc_and", "cc_or", "cc_xor", "cc_not",
                             "cc_copy", "cc_buz", "cc_cmp", "cc_search",
                             "cc_clmul"}

    def test_backends_identical_results_and_event_streams(self):
        runs = {be: _traced_run(be) for be in BACKENDS}
        (m_bit, r_bit), (m_packed, r_packed) = runs["bitexact"], runs["packed"]
        # Identical architectural outcome...
        assert r_bit == r_packed
        # ...and bit-identical event streams (simulated cycles only, no
        # wall-clock): the tracer is backend-invariant by construction.
        ev_bit, ev_packed = m_bit.tracer.snapshot(), m_packed.tracer.snapshot()
        assert len(ev_bit) == len(ev_packed)
        assert ev_bit == ev_packed
        assert m_bit.tracer.dropped == m_packed.tracer.dropped == 0

    def test_traced_run_matches_untraced_run(self):
        """Attaching the tracer must not change simulated behaviour."""
        _, traced = _traced_run("packed")
        untraced = run_trace(
            DEMO_TRACE, ComputeCacheMachine(small_test_machine())
        )
        assert traced == untraced

    def test_tracer_sees_all_instrumented_layers(self):
        m, _ = _traced_run("packed")
        kinds = {e.kind for e in m.tracer}
        assert {"core.phase", "cc.timeline", "cc.instruction", "cc.attr",
                "cc.dispatch", "cc.block_op", "cc.fetch", "cc.key_replicate",
                "subarray.op", "cache.lookup", "cache.read", "cache.write",
                "cache.fill", "htree.transfer", "dir.grant"} <= kinds

    def test_nearplace_events_on_forced_path(self, machine, make_bytes):
        from repro import cc_ops

        m = ComputeCacheMachine(small_test_machine(), trace_events=True)
        a, b, c = m.arena.alloc_colocated(512, 3)
        m.load(a, make_bytes(512))
        m.load(b, make_bytes(512))
        m.cc(cc_ops.cc_and(a, b, c, 512), force_nearplace=True)
        kinds = {e.kind for e in m.tracer}
        assert "nearplace.op" in kinds
        ops = m.tracer.by_kind("cc.block_op")
        assert ops and all(e.outcome == "near-place" and e.reason == "forced"
                           for e in ops)


class TestDataSpecEdgeCases:
    @pytest.mark.parametrize("spec,message", [
        ("zeros:-1", "negative byte count"),
        ("repeat:0xff*-3", "negative byte count"),
        ("bytes:abc", "even number"),
        ("bytes:zz", "even number"),
        ("repeat:0xff", "repeat spec needs"),
        ("blob:00", "unknown data spec"),
    ])
    def test_bad_specs_rejected(self, spec, message):
        with pytest.raises(ISAError, match=message):
            _parse_data_spec(spec)

    @pytest.mark.parametrize("spec", ["zeros:-1", "repeat:0xff*-3",
                                      "bytes:abc"])
    def test_errors_carry_trace_line_number(self, spec):
        trace = f"scalar\ninit 0x0, {spec}\n"
        with pytest.raises(ISAError, match="trace line 2"):
            run_trace(trace, ComputeCacheMachine(small_test_machine()))

    def test_zero_counts_are_valid_empty_payloads(self):
        assert _parse_data_spec("zeros:0") == b""
        assert _parse_data_spec("repeat:0xff*0") == b""
        # An empty init is legal; an empty store is not.
        trace = "init 0x0, zeros:0\nscalar\n"
        assert run_trace(trace, ComputeCacheMachine(small_test_machine())).instructions == 1

    def test_counts_accept_hex(self):
        assert _parse_data_spec("zeros:0x10") == bytes(16)
        assert _parse_data_spec("repeat:0xa5*0x4") == b"\xa5" * 4
