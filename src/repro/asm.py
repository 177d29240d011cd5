"""Assembler / disassembler for the Compute Cache ISA (Table II).

A one-line text form for CC instructions plus the baseline trace events,
round-trippable, used by the trace frontend and handy in tests and docs::

    cc_and   0x1000, 0x2000, 0x3000, 4096
    cc_search 0x8000, 0x8fc0, 512
    cc_clmul256 0x0, 0x4000, 0x8000, 8192
    cc_clmul256.bcast 0x0, 0x4000, 0x8000, 8192
    cc_add16 0x1000, 0x2000, 0x3000, 4096
    cc_reduce8 0x1000, 4096

Grammar: ``<mnemonic> <operand>(, <operand>)*`` with operands in the
Table II order (src1 [, src2] [, dest], size); numbers are decimal or
0x-hex; ``#`` starts a comment.
"""

from __future__ import annotations

from .core.isa import CCInstruction, Opcode
from .errors import ISAError

_MNEMONICS = {op.value: op for op in Opcode}


def _parse_int(token: str) -> int:
    token = token.strip()
    try:
        return int(token, 0)
    except ValueError:
        raise ISAError(f"bad numeric operand {token!r}") from None


def _split_mnemonic(mnemonic: str) -> tuple[Opcode, int | None, int | None, bool]:
    """Decode mnemonic into (opcode, lane_bits, elem_bits, broadcast)."""
    broadcast = mnemonic.endswith(".bcast")
    if broadcast:
        mnemonic = mnemonic[: -len(".bcast")]
    if mnemonic.startswith("cc_clmul") and mnemonic != "cc_clmul":
        lanes = mnemonic[len("cc_clmul"):]
        try:
            lane_bits = int(lanes)
        except ValueError:
            raise ISAError(f"bad clmul lane width in {mnemonic!r}") from None
        return Opcode.CLMUL, lane_bits, None, broadcast
    for arith in (Opcode.ADD, Opcode.MUL, Opcode.REDUCE):
        prefix = arith.value  # cc_add / cc_mul / cc_reduce
        if mnemonic.startswith(prefix) and mnemonic != prefix:
            try:
                elem_bits = int(mnemonic[len(prefix):])
            except ValueError:
                raise ISAError(
                    f"bad element width in {mnemonic!r}"
                ) from None
            return arith, None, elem_bits, broadcast
    opcode = _MNEMONICS.get(mnemonic)
    if opcode is None:
        raise ISAError(f"unknown mnemonic {mnemonic!r}")
    if opcode is Opcode.CLMUL:
        return opcode, 64, None, broadcast
    if opcode.is_arith:
        return opcode, None, 8, broadcast
    if broadcast:
        raise ISAError(f"{mnemonic!r} does not support .bcast")
    return opcode, None, None, broadcast


def parse(line: str) -> CCInstruction:
    """Parse one assembly line into a validated :class:`CCInstruction`."""
    text = line.split("#", 1)[0].strip()
    if not text:
        raise ISAError("empty instruction line")
    parts = text.split(None, 1)
    if len(parts) != 2:
        raise ISAError(f"missing operands in {line!r}")
    mnemonic, rest = parts
    opcode, lane_bits, elem_bits, broadcast = _split_mnemonic(mnemonic)
    operands = [_parse_int(tok) for tok in rest.split(",")]

    if opcode is Opcode.BUZ:
        if len(operands) != 2:
            raise ISAError("cc_buz takes: addr, size")
        return CCInstruction(opcode, src1=operands[0], size=operands[1])
    if opcode is Opcode.REDUCE:
        if len(operands) != 2:
            raise ISAError(f"{mnemonic} takes: src, size")
        return CCInstruction(opcode, src1=operands[0], size=operands[1],
                             elem_bits=elem_bits)
    if opcode in (Opcode.ADD, Opcode.MUL):
        if len(operands) != 4:
            raise ISAError(f"{mnemonic} takes: a, b, dest, size")
        return CCInstruction(opcode, src1=operands[0], src2=operands[1],
                             dest=operands[2], size=operands[3],
                             elem_bits=elem_bits)
    if opcode in (Opcode.COPY, Opcode.NOT):
        if len(operands) != 3:
            raise ISAError(f"{mnemonic} takes: src, dest, size")
        return CCInstruction(opcode, src1=operands[0], dest=operands[1],
                             size=operands[2])
    if opcode in (Opcode.CMP, Opcode.SEARCH):
        if len(operands) != 3:
            raise ISAError(f"{mnemonic} takes: a, b, size")
        return CCInstruction(opcode, src1=operands[0], src2=operands[1],
                             size=operands[2])
    # and / or / xor / clmul
    if len(operands) != 4:
        raise ISAError(f"{mnemonic} takes: a, b, dest, size")
    return CCInstruction(opcode, src1=operands[0], src2=operands[1],
                         dest=operands[2], size=operands[3],
                         lane_bits=lane_bits, broadcast_src2=broadcast)


def format_instruction(instr: CCInstruction) -> str:
    """Disassemble back to the canonical one-line form."""
    op = instr.opcode
    mnemonic = op.value
    if op is Opcode.CLMUL:
        mnemonic = f"cc_clmul{instr.lane_bits}"
        if instr.broadcast_src2:
            mnemonic += ".bcast"
    elif op.is_arith:
        mnemonic = f"{op.value}{instr.elem_bits}"
    fields = [f"{instr.src1:#x}"]
    if instr.src2 is not None:
        fields.append(f"{instr.src2:#x}")
    if instr.dest is not None:
        fields.append(f"{instr.dest:#x}")
    fields.append(str(instr.size))
    return f"{mnemonic} " + ", ".join(fields)


def assemble(text: str) -> list[CCInstruction]:
    """Assemble a multi-line listing (comments and blanks allowed)."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            out.append(parse(stripped))
        except ISAError as exc:
            raise ISAError(f"line {lineno}: {exc}") from None
    return out
