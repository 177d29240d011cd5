"""Documentation consistency checks (``repro docscheck``).

The documentation is kept honest by construction:

* **Generated ISA table** — ``docs/isa.md`` embeds a per-instruction
  reference table between ``BEGIN GENERATED: isa-table`` markers.  The
  table is *generated* here from the machine-readable sources (the
  :class:`~repro.core.isa.Opcode` enum, the ISA size caps, the sub-array
  delay/energy multipliers, and the assembler) and diffed against the
  committed text, so the spec cannot drift from the implementation
  silently.  ``repro docscheck --write-isa-table`` rewrites the region.
* **Executable examples** — every fenced ```````python`````` block and
  every ``repro ...`` command inside fenced ```````bash`````` /
  ```````console`````` blocks in ``docs/*.md`` is executed in smoke mode.
  A fence preceded by ``<!-- docs-check: skip -->`` is exempt (use for
  illustrative fragments or long-running sweeps); a fence preceded by one
  or more ``<!-- docs-check: expect SUBSTRING -->`` markers must produce
  each SUBSTRING on stdout — that is how worked examples pin their
  output.
* **Cross-links** — every relative markdown link and every backticked
  repository path in the doc set must resolve to an existing file.

Run locally with ``repro docscheck``; CI runs the same entry point, and
``tests/test_docs_consistency.py`` keeps it inside the tier-1 suite.
"""

from __future__ import annotations

import contextlib
import io
import re
from dataclasses import dataclass, field
from pathlib import Path

from .core.isa import (
    ARITH_ELEM_BITS,
    CLMUL_LANES,
    CMP_MAX_BYTES,
    MAX_OPERAND_BYTES,
    Opcode,
    cc_add,
    cc_and,
    cc_buz,
    cc_clmul,
    cc_cmp,
    cc_copy,
    cc_mul,
    cc_not,
    cc_or,
    cc_reduce,
    cc_search,
    cc_xor,
    SEARCH_MAX_BYTES,
)
from .errors import ReproError
from .sram.timing import DELAY_MULTIPLIER, ENERGY_MULTIPLIER, arith_steps

ISA_BEGIN = "<!-- BEGIN GENERATED: isa-table -->"
ISA_END = "<!-- END GENERATED: isa-table -->"

#: The documentation set the checker walks (relative to the repo root).
DOC_FILES = (
    "README.md",
    "docs/api.md",
    "docs/architecture.md",
    "docs/benchmarks.md",
    "docs/crypto.md",
    "docs/faults.md",
    "docs/isa.md",
    "docs/modeling.md",
    "docs/neural_cache.md",
    "docs/profiling.md",
    "docs/topology.md",
    "benchmarks/README.md",
)


# -- generated ISA table ---------------------------------------------------------------

#: One canonical sample instruction per table row, in Table II order.
#: ``format_instruction`` on these yields the authoritative asm syntax, so
#: the Operands column is derived from the assembler, not hand-written.
_SAMPLES = (
    ("src, dest, n", cc_copy(0x1000, 0x2000, 4096)),
    ("addr, n", cc_buz(0x1000, 4096)),
    ("a, b, n", cc_cmp(0x1000, 0x2000, 512)),
    ("data, key, n", cc_search(0x1000, 0x8FC0, 4096)),
    ("a, b, dest, n", cc_and(0x1000, 0x2000, 0x3000, 4096)),
    ("a, b, dest, n", cc_or(0x1000, 0x2000, 0x3000, 4096)),
    ("a, b, dest, n", cc_xor(0x1000, 0x2000, 0x3000, 4096)),
    ("a, b, dest, n", cc_clmul(0x1000, 0x2000, 0x3000, 4096, lane_bits=256)),
    ("src, dest, n", cc_not(0x1000, 0x2000, 4096)),
    ("a, b, dest, n", cc_add(0x1000, 0x2000, 0x3000, 4096, elem_bits=16)),
    ("a, b, dest, n", cc_mul(0x1000, 0x2000, 0x3000, 4096, elem_bits=16)),
    ("src, n", cc_reduce(0x1000, 4096, elem_bits=16)),
)

_SEMANTICS = {
    Opcode.COPY: "`dest[i] = src[i]`",
    Opcode.BUZ: "`addr[i] = 0`",
    Opcode.CMP: "`r[i] = (a[i] == b[i])` per 8-byte word",
    Opcode.SEARCH: "`r[i] = (block[i] == key)` per 64-byte key",
    Opcode.AND: "`dest[i] = a[i] & b[i]`",
    Opcode.OR: "`dest[i] = a[i] \\| b[i]`",
    Opcode.XOR: "`dest[i] = a[i] ^ b[i]`",
    Opcode.CLMUL: "per X-bit lane: `dest_bit = XOR_j(a[j] & b[j])`",
    Opcode.NOT: "`dest[i] = ~src[i]`",
    Opcode.ADD: "`dest[i] = a[i] + b[i] mod 2^W`",
    Opcode.MUL: "`dest[i] = a[i] * b[i] mod 2^W`",
    Opcode.REDUCE: "`r = sum_i(src[i]) mod 2^64`",
}

#: Human-readable bit-serial step formulas, validated against
#: :func:`repro.sram.timing.arith_steps` at generation time.
_STEP_FORMULAS = {
    "add": ("W+1", lambda w, n: w + 1),
    "mul": ("W^2+5W-2", lambda w, n: w * w + 5 * w - 2),
    "reduce": ("sum_L(W+L+1)",
               lambda w, n: sum(w + level + 1
                                for level in range(1, max(1, (n - 1).bit_length()) + 1))),
}


def _limits(op: Opcode) -> str:
    if op is Opcode.CMP:
        return f"n <= {CMP_MAX_BYTES} B"
    if op is Opcode.SEARCH:
        return f"n <= {SEARCH_MAX_BYTES // 1024} KB, 64 B key"
    if op is Opcode.CLMUL:
        lanes = "/".join(str(x) for x in CLMUL_LANES)
        return f"X in {lanes}; dest 8 B-aligned"
    if op.is_arith:
        widths = "/".join(str(w) for w in ARITH_ELEM_BITS)
        return f"W in {widths}"
    return f"n <= {MAX_OPERAND_BYTES // 1024} KB"


def _cost_cells(op: Opcode) -> tuple[str, str]:
    sub = op.subarray_op
    delay, energy = DELAY_MULTIPLIER[sub], ENERGY_MULTIPLIER[sub]
    if not op.is_arith:
        return f"{delay:g}x access", f"{energy:g}x access"
    formula, fn = _STEP_FORMULAS[sub]
    # Self-check: the documented formula must reproduce the timing model
    # for every supported width (drift protection for the table text).
    for w in ARITH_ELEM_BITS:
        n_elems = (64 * 8) // w
        if arith_steps(sub, w, n_elems) != fn(w, n_elems):
            raise ReproError(
                f"ISA-table step formula for {sub!r} drifted from "
                f"sram.timing.arith_steps at W={w}")
    return (f"{delay:g}x access x ({formula}) steps",
            f"{energy:g}x access x ({formula}) steps")


def _events(op: Opcode) -> str:
    events = "`cc.instruction`, `cc.attr`, `cc.block_op`"
    if op.is_arith:
        events += ", `cc.transpose`"
    if op is Opcode.SEARCH or op is Opcode.CLMUL:
        events += ", `cc.key_replicate`"
    return events


def generate_isa_table() -> str:
    """The authoritative per-instruction reference table (markdown)."""
    from .asm import format_instruction, parse

    lines = [
        "| Mnemonic | Operands | Class | Semantics | Limits | Delay / block op | Energy / block op | Tracer events |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for operands, sample in _SAMPLES:
        op = sample.opcode
        if parse(format_instruction(sample)) != sample:
            raise ReproError(
                f"assembler round-trip failed for {op.value}; "
                "ISA table would document unparseable syntax")
        mnemonic = format_instruction(sample).split()[0]
        # Generalize the width/lane suffix of the sample into the
        # family mnemonic documented in the table.
        if op is Opcode.CLMUL:
            mnemonic = "cc_clmulX[.bcast]"
        elif op.is_arith:
            mnemonic = f"{op.value}W"
        klass = "CC-R" if op.reads_only else "CC-RW"
        delay, energy = _cost_cells(op)
        lines.append(
            f"| `{mnemonic}` | {operands} | {klass} | {_SEMANTICS[op]} "
            f"| {_limits(op)} | {delay} | {energy} | {_events(op)} |")
    return "\n".join(lines)


def check_isa_table(repo_root: Path) -> list[str]:
    """Diff the generated table against the region embedded in docs/isa.md."""
    path = repo_root / "docs" / "isa.md"
    if not path.exists():
        return ["docs/isa.md is missing"]
    text = path.read_text(encoding="utf-8")
    if ISA_BEGIN not in text or ISA_END not in text:
        return ["docs/isa.md lacks the generated isa-table markers"]
    embedded = text.split(ISA_BEGIN, 1)[1].split(ISA_END, 1)[0].strip()
    expected = generate_isa_table()
    if embedded != expected:
        import difflib

        diff = "\n".join(difflib.unified_diff(
            embedded.splitlines(), expected.splitlines(),
            "docs/isa.md (committed)", "generated", lineterm=""))
        return ["docs/isa.md ISA table drifted from the implementation; "
                "run `repro docscheck --write-isa-table`:\n" + diff]
    return []


def write_isa_table(repo_root: Path) -> None:
    """Rewrite the generated region of docs/isa.md in place."""
    path = repo_root / "docs" / "isa.md"
    text = path.read_text(encoding="utf-8")
    head, rest = text.split(ISA_BEGIN, 1)
    _, tail = rest.split(ISA_END, 1)
    path.write_text(
        f"{head}{ISA_BEGIN}\n{generate_isa_table()}\n{ISA_END}{tail}",
        encoding="utf-8")


# -- fenced examples -------------------------------------------------------------------


@dataclass
class Example:
    """One runnable fenced code block from a markdown file."""

    path: Path
    lineno: int
    lang: str
    code: str
    skip: bool = False
    expects: list[str] = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"{self.path.name}:{self.lineno}"


_FENCE_RE = re.compile(r"^```(\w*)\s*$")
_MARKER_RE = re.compile(r"<!--\s*docs-check:\s*(skip|expect\s+(.+?))\s*-->")


def extract_examples(path: Path) -> list[Example]:
    """Fenced blocks with their preceding ``docs-check`` markers."""
    examples: list[Example] = []
    skip, expects = False, []
    lang, start, buf = None, 0, []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(),
                                  start=1):
        if lang is None:
            m = _MARKER_RE.search(line)
            if m:
                if m.group(1) == "skip":
                    skip = True
                else:
                    expects.append(m.group(2).strip())
                continue
            m = _FENCE_RE.match(line.strip())
            if m:
                lang, start, buf = m.group(1).lower(), lineno, []
                continue
            if line.strip():  # prose resets pending markers
                skip, expects = False, []
        else:
            if line.strip() == "```":
                examples.append(Example(path, start, lang, "\n".join(buf),
                                        skip=skip, expects=list(expects)))
                lang, skip, expects = None, False, []
            else:
                buf.append(line)
    return examples


def _runnable(example: Example) -> bool:
    if example.lang == "python":
        return True
    if example.lang in ("bash", "sh", "console", "shell", ""):
        return any(_repro_commands(example.code))
    return False


def _repro_commands(code: str):
    """The ``repro ...`` invocations inside a shell block."""
    for line in code.splitlines():
        line = line.strip().lstrip("$ ").split("#", 1)[0].strip()
        if line.startswith("repro "):
            yield line[len("repro "):].split()
        elif line.startswith("python -m repro "):
            yield line[len("python -m repro "):].split()


def run_example(example: Example) -> str:
    """Execute one example, returning its captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if example.lang == "python":
            import textwrap

            code = textwrap.dedent(example.code)  # list-indented fences
            exec(compile(code, example.label, "exec"),  # noqa: S102
                 {"__name__": "__docscheck__"})
        else:
            from .cli import main

            for argv in _repro_commands(example.code):
                status = main(argv)
                if status:
                    raise ReproError(f"exit status {status}")
    return out.getvalue()


def check_examples(repo_root: Path, verbose: bool = False) -> list[str]:
    """Run every runnable fenced example in the doc set."""
    errors = []
    for name in DOC_FILES:
        path = repo_root / name
        if not path.exists():
            continue
        for example in extract_examples(path):
            if example.skip or not _runnable(example):
                continue
            if verbose:
                print(f"docscheck: running {example.label} ({example.lang})")
            try:
                output = run_example(example)
            except SystemExit as exc:  # argparse errors in repro commands
                errors.append(f"{example.label}: exited with {exc.code}")
                continue
            except Exception as exc:
                errors.append(f"{example.label}: {type(exc).__name__}: {exc}")
                continue
            for expected in example.expects:
                if expected not in output:
                    errors.append(
                        f"{example.label}: expected {expected!r} in output")
    return errors


# -- cross-links -----------------------------------------------------------------------

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)]+)\)")
_PATH_RE = re.compile(
    r"`((?:src/repro|benchmarks|tests|examples|docs)/[\w/\.-]+?\.(?:py|md|json|trace))`"
)


def check_crosslinks(repo_root: Path) -> list[str]:
    """Relative markdown links and backticked repo paths must resolve."""
    errors = []
    for name in DOC_FILES:
        path = repo_root / name
        if not path.exists():
            errors.append(f"{name}: listed in DOC_FILES but missing")
            continue
        text = path.read_text(encoding="utf-8")
        for target in _LINK_RE.findall(text):
            target = target.split("#", 1)[0].strip()
            if not target or "://" in target or target.startswith("mailto:"):
                continue
            if not (path.parent / target).exists() and \
                    not (repo_root / target).exists():
                errors.append(f"{name}: broken link -> {target}")
        for ref in _PATH_RE.findall(text):
            if not (repo_root / ref).exists():
                errors.append(f"{name}: referenced path does not exist -> {ref}")
    return errors


# -- entry point -----------------------------------------------------------------------


def run_docscheck(repo_root: Path | str | None = None,
                  examples: bool = True, verbose: bool = False) -> list[str]:
    """All documentation checks; returns the list of failures (empty = OK)."""
    root = Path(repo_root) if repo_root is not None else _find_repo_root()
    errors = check_isa_table(root) + check_crosslinks(root)
    if examples:
        errors += check_examples(root, verbose=verbose)
    return errors


def _find_repo_root() -> Path:
    """The checked-out tree this package was imported from."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "docs" / "isa.md").exists():
            return parent
    raise ReproError("cannot locate the repository root (docs/isa.md)")
