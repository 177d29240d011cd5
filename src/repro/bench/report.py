"""ASCII rendering of benchmark results, plus the shared ``BENCH_*.json``
document writer.

Every benchmark trajectory file the repo emits (``BENCH_streambw.json``,
``BENCH_crypto.json``, ``results.json``) opens
with the same two fields — a ``schema`` tag and the deterministic
:func:`bench_provenance` header — so documents from
different trees or backends are always distinguishable and documents
from the same tree are bit-identical however they were produced.
:func:`bench_document` assembles that envelope in one place and
:func:`write_bench` serializes it with one canonical JSON layout.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from typing import Any


def bench_provenance() -> dict[str, Any]:
    """The shared benchmark-JSON provenance header (deterministic per
    source tree): execution backend, source-tree content fingerprint,
    git commit, and the fixed workload seeds.  Deliberately *not* here:
    anything that varies between equivalent runs of the same tree (job
    count, wall-clock, cache hits), which would break the
    serial/parallel/cached bit-identity contract."""
    from ..params import sandybridge_8core
    from .points import WORKLOAD_SEEDS
    from .runner import code_fingerprint, git_revision

    return {
        "backend": sandybridge_8core().backend,
        "code_version": code_fingerprint(),
        "git_commit": git_revision(),
        "workload_seeds": dict(WORKLOAD_SEEDS),
    }


def bench_document(schema: str, config: Mapping[str, Any],
                   **sections: Any) -> dict[str, Any]:
    """Assemble a ``BENCH_*.json`` document with the unified envelope:
    ``schema`` + ``provenance`` + ``config`` first, then the suite's own
    sections in the order given."""
    doc: dict[str, Any] = {
        "schema": schema,
        "provenance": bench_provenance(),
        "config": dict(config),
    }
    for name, section in sections.items():
        doc[name] = section
    return doc


def write_bench(doc: Mapping[str, Any], path) -> None:
    """Serialize a benchmark document with the canonical layout every
    suite shares (sorted keys, indent 1 — byte-stable across runs)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


def render_table(rows: Sequence[Mapping[str, object]], title: str = "") -> str:
    """Render a list of dict rows as an aligned ASCII table."""
    if not rows:
        return f"{title}\n(empty)"
    headers = list(rows[0].keys())
    cells = [[_fmt(row[h]) for h in headers] for row in rows]
    widths = [
        max(len(h), *(len(row[i]) for row in cells)) for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def render_figure7(results) -> str:
    """Figure 7's three panels as one table."""
    rows = []
    for kernel, pair in results.items():
        base, cc = pair["base32"], pair["cc"]
        rows.append({
            "kernel": kernel,
            "Base_32 cycles": base.cycles,
            "CC_L3 cycles": cc.cycles,
            "throughput gain": base.steady_cycles / cc.steady_cycles,
            "Base_32 dyn nJ": base.dynamic.total() / 1000,
            "CC_L3 dyn nJ": cc.dynamic.total() / 1000,
            "dyn saving": 1 - cc.dynamic.total() / base.dynamic.total(),
            "total ratio": base.total_energy_nj / cc.total_energy_nj,
        })
    return render_table(rows, "Figure 7: 4 KB micro-benchmarks, Base_32 vs CC_L3")


def render_figure9(comparisons) -> str:
    rows = []
    for app, comp in comparisons.items():
        rows.append({
            "application": app,
            "speedup (Fig 9b)": comp.speedup,
            "total-energy ratio (Fig 9a)": comp.total_energy_ratio,
            "instr reduction": comp.instruction_reduction,
            "outputs match": comp.outputs_match,
        })
    return render_table(rows, "Figure 9: application speedup and energy")


def render_figure10(overheads) -> str:
    rows = []
    for bench, per_engine in overheads.items():
        rows.append({
            "benchmark": bench,
            "Base %": per_engine["base"] * 100,
            "Base_32 %": per_engine["base32"] * 100,
            "CC_L3 %": per_engine["cc"] * 100,
        })
    return render_table(rows, "Figure 10: checkpointing overhead (%)")


def render_figure11(energies) -> str:
    rows = []
    for bench, per_engine in energies.items():
        rows.append({
            "benchmark": bench,
            "no_chkpt nJ": per_engine["no_chkpt"],
            "Base nJ": per_engine["base"],
            "Base_32 nJ": per_engine["base32"],
            "CC_L3 nJ": per_engine["cc"],
        })
    return render_table(rows, "Figure 11: total energy with checkpointing")
