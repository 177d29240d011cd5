"""Cryptographic kernels on the Compute Cache clmul/arithmetic tiers.

Three kernels the near-cache cryptography literature identifies as the
best real-workload match for bit-line computing, each implemented twice
(scalar baseline + CC) over the same machine model and verified bit-exact
against independent references:

* **GHASH/GCM authentication** - GF(2^128) universal hashing.  The tag of
  an ``n``-block message is linear in the message once the hash key ``H``
  is fixed: ``tag = XOR_i C_i * H^(n-i+1)``.  The CC version precomputes
  that linear map as a 128-row GF(2) bit-matrix key schedule (one row per
  tag bit, ``Intel``-style aggregated reduction taken to its limit) and
  evaluates each row with one ``cc_clmul128`` over the *entire resident
  message*: the in-array XOR-reduction trees return per-lane parities in
  the result register and two scalar ops fold them into one tag bit.  The
  baseline is the classic 4-bit-table software GHASH (the fallback on
  cores without a carry-less-multiply unit): 32 serially dependent table
  lookups per block.
* **Line-rate CRC32/CRC64** - the LFSR update is GF(2)-linear in
  (state, message), so the whole-message CRC is an affine map
  ``crc = M . msg ^ c0``.  ``w`` ``cc_clmul`` row folds (32 or 64) produce
  the checksum for a message of *any* supported length - the clmul-folding
  trick hardware CRC engines use, with the fold tables generated from the
  recurrence rather than hand-derived.  Verified against
  :func:`binascii.crc32` and a table-driven reference
  (CRC-64/XZ for the 64-bit variant).  Baseline: byte-at-a-time table CRC,
  one serially dependent lookup per byte.
* **NTT-style negacyclic polynomial multiply** - the
  ``Z_q[X]/(X^n + 1)`` product at the core of lattice post-quantum
  schemes.  With a power-of-two modulus (Saber's choice, made exactly
  because it suits binary hardware) every schoolbook step is exact modulo
  ``2^16``, so the CC version runs tap-parallel on the bit-serial
  arithmetic tier: one broadcast coefficient plane, one ``cc_mul16`` and
  one ``cc_add16`` per input coefficient, negated wrap-around taps baked
  into the precomputed rotation planes.  Bit-exact against a numpy full
  convolution folded negacyclically.

The GF(2) matrices are built by *probing the pure reference with basis
vectors* (and composing powers with numpy boolean matmuls), which makes
the lowering immune to bit-order convention bugs: the packed rows use the
same in-memory bit order as the message bytes they are folded against.

Because GHASH tags and CRCs exist to detect corruption, the kernels double
as their own integrity oracles under fault injection:
:func:`run_crypto_campaign` replays each kernel under the PR 4 fault
campaigns (SRAM bit strikes, controller pin steals, directory faults) and
reports detected-vs-silent corruption, with the reference recomputation
standing in for the protocol-level verifier.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..core.isa import cc_add, cc_clmul_bcast, cc_mul
from ..cpu.program import Instr
from ..machine import ComputeCacheMachine
from ..params import BLOCK_SIZE
from .common import AppResult, StreamRunner, fresh_machine, lanes16

CRYPTO_KERNELS = ("ghash", "crc32", "crc64", "ntt")

#: Reflected generator polynomials (bit-reversed, implicit x^w term).
CRC32_POLY = 0xEDB88320          # CRC-32/ISO-HDLC == binascii.crc32
CRC64_POLY = 0xC96C5795D7870F42  # CRC-64/XZ

#: GCM's reduction constant for the right-shift gf128 multiply.
GCM_R = 0xE1000000000000000000000000000000

NTT_ELEM_BITS = 16


@dataclass(frozen=True)
class CryptoConfig:
    """Workload sizes for the crypto suite.

    ``ghash_blocks`` and ``crc_bytes`` set the message length (multiples
    of 4 blocks / 64 bytes so clmul operands stay block-sized);
    ``ntt_n``/``ntt_q`` pick the polynomial ring - ``ntt_q`` must divide
    ``2^16`` so the bit-serial lanes compute exactly in the quotient ring.
    """

    seed: int = 108
    ghash_blocks: int = 64   # 16-byte message blocks (1 KB message)
    crc_bytes: int = 1024
    ntt_n: int = 128
    ntt_q: int = 8192        # Saber-flavor power-of-two modulus

    def __post_init__(self) -> None:
        if self.ghash_blocks < 4 or self.ghash_blocks % 4:
            raise ValueError("ghash_blocks must be a positive multiple of 4")
        if self.crc_bytes < 64 or self.crc_bytes % 64:
            raise ValueError("crc_bytes must be a positive multiple of 64")
        if self.ntt_n < 32 or self.ntt_n & (self.ntt_n - 1):
            raise ValueError("ntt_n must be a power of two >= 32")
        if (1 << 16) % self.ntt_q:
            raise ValueError("ntt_q must divide 2^16 (power-of-two modulus)")


# -- pure references ------------------------------------------------------------------


def gf128_mul(x: int, y: int) -> int:
    """NIST SP 800-38D multiplication in GF(2^128) (big-endian block ints)."""
    z, v = 0, x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        v = (v >> 1) ^ GCM_R if v & 1 else v >> 1
    return z


def ghash(h: bytes, data: bytes) -> bytes:
    """Pure-python GHASH: chain ``Y <- (Y ^ C_i) * H`` over 16-byte blocks.

    ``data`` is zero-padded to a whole number of blocks (callers append
    their own GCM length block when they need the full protocol).
    """
    if len(h) != 16:
        raise ValueError("GHASH key must be 16 bytes")
    if len(data) % 16:
        data = data + bytes(16 - len(data) % 16)
    hk = int.from_bytes(h, "big")
    y = 0
    for off in range(0, len(data), 16):
        y = gf128_mul(y ^ int.from_bytes(data[off:off + 16], "big"), hk)
    return y.to_bytes(16, "big")


def _crc_table(poly: int, width: int) -> list[int]:
    table = []
    for v in range(256):
        r = v
        for _ in range(8):
            r = (r >> 1) ^ poly if r & 1 else r >> 1
        table.append(r)
    return table


_CRC_TABLES = {32: _crc_table(CRC32_POLY, 32), 64: _crc_table(CRC64_POLY, 64)}


def crc_ref(data: bytes, width: int = 32) -> int:
    """Table-driven reflected CRC (init/xorout all-ones).

    ``width=32`` matches :func:`binascii.crc32`; ``width=64`` is
    CRC-64/XZ.
    """
    table = _CRC_TABLES[width]
    mask = (1 << width) - 1
    crc = mask
    for b in data:
        crc = (crc >> 8) ^ table[(crc ^ b) & 0xFF]
    return crc ^ mask


def ntt_polymul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Negacyclic product in ``Z_q[X]/(X^n + 1)`` via numpy convolution."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    n = len(a)
    full = np.convolve(a, b)                      # degree 2n-2
    full = np.concatenate([full, np.zeros(2 * n - 1 - len(full), np.int64)])
    return ((full[:n] - np.concatenate([full[n:], [0]])) % q).astype(np.int64)


# -- GF(2) linear-map lowering --------------------------------------------------------
#
# Bit index convention everywhere below: message/tag bit ``8*p + k`` is bit
# ``k`` (LSB first) of byte ``p`` - i.e. numpy's ``bitorder="little"``.
# Packed matrix rows therefore align bit-for-bit with raw operand bytes in
# memory, and ``cc_clmul``'s AND+parity per lane evaluates one matrix row.


def _unpack_lsb(data: bytes) -> np.ndarray:
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")


def _pack_lsb(bits: np.ndarray) -> bytes:
    return np.packbits(bits.astype(np.uint8), bitorder="little").tobytes()


def _mul_by_h_matrix(h: bytes) -> np.ndarray:
    """128x128 GF(2) matrix of ``x -> x * H`` in byte-LSB coordinates."""
    hk = int.from_bytes(h, "big")
    cols = np.zeros((128, 128), dtype=np.uint8)
    for bit in range(128):
        basis = bytes(bit // 8) + bytes([1 << (bit % 8)])
        basis = basis + bytes(16 - len(basis))
        out = gf128_mul(int.from_bytes(basis, "big"), hk)
        cols[bit] = _unpack_lsb(out.to_bytes(16, "big"))
    return cols.T


def _gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(a @ b) & 1`` of 0/1 matrices, as a uint8 matrix.

    The product runs in float32, which numpy hands to BLAS (its integer
    matmul has no BLAS path).  It is exact: each entry counts at most
    ``a.shape[1]`` products of 0/1 (at most 128 here), inside float32's exact
    integers, and the count fits uint8 before the mask."""
    return (a.astype(np.float32) @ b.astype(np.float32)).astype(np.uint8) & 1


def ghash_matrix_rows(h: bytes, blocks: int) -> np.ndarray:
    """The whole-message GHASH map as a ``(128, blocks*128)`` bit matrix.

    ``tag = XOR_i C_i * H^(blocks-i)`` for message blocks ``C_0..`` - row
    ``j`` ANDed with the raw message bytes and parity-folded yields tag
    bit ``j``.
    """
    m1 = _mul_by_h_matrix(h)
    rows = np.zeros((128, blocks * 128), dtype=np.uint8)
    power = m1                                    # H^1 for the last block
    for i in range(blocks - 1, -1, -1):
        rows[:, i * 128:(i + 1) * 128] = power
        if i:
            power = _gf2_matmul(m1, power)
    return rows


def crc_step_matrices(width: int) -> tuple[np.ndarray, np.ndarray]:
    """The CRC byte step ``s' = Z s ^ B d`` as GF(2) matrices ``(Z, B)``,
    probed from the table recurrence with basis vectors."""
    table = _CRC_TABLES[width]

    def step(state: int, byte: int) -> int:
        return (state >> 8) ^ table[(state ^ byte) & 0xFF]

    z = np.zeros((width, width), dtype=np.uint8)
    for k in range(width):
        z[:, k] = _unpack_lsb(step(1 << k, 0).to_bytes(width // 8, "little"))
    bmat = np.zeros((width, 8), dtype=np.uint8)
    for k in range(8):
        bmat[:, k] = _unpack_lsb(step(0, 1 << k).to_bytes(width // 8, "little"))
    return z, bmat


def crc_matrix_rows(width: int, length: int) -> tuple[np.ndarray, int]:
    """Whole-message CRC as an affine map: ``crc = rows . msg ^ c0``.

    The per-position columns ``Z^(length-1-p) B`` of the byte step
    (:func:`crc_step_matrices`) are accumulated backwards with boolean
    matmuls.  Returns the ``(width, length*8)`` row matrix and the
    constant ``c0`` (init + xorout folded in).
    """
    z, cols = crc_step_matrices(width)
    rows = np.zeros((width, length * 8), dtype=np.uint8)
    for p in range(length - 1, -1, -1):
        rows[:, p * 8:(p + 1) * 8] = cols
        if p:
            cols = _gf2_matmul(z, cols)
    c0 = crc_ref(bytes(length), width)
    return rows, c0


def crc_fold(data: bytes, width: int = 32) -> int:
    """Line-rate CRC via the matrix fold (host-evaluated).

    This is exactly the linear-algebra lowering the CC kernel executes;
    it must (and does - see the property tests) agree with
    :func:`binascii.crc32` / :func:`crc_ref` on every input.
    """
    rows, c0 = crc_matrix_rows(width, len(data)) if data else ((None, crc_ref(b"", width)))
    if not data:
        return c0
    msg = _unpack_lsb(data)
    bits = (rows & msg).sum(axis=1) & 1
    return int.from_bytes(_pack_lsb(bits), "little") ^ c0


# -- workloads ------------------------------------------------------------------------


@dataclass(frozen=True)
class CryptoWorkload:
    kernel: str
    h: bytes | None            # GHASH key
    message: bytes             # GHASH/CRC message
    a: np.ndarray | None       # NTT operands
    b: np.ndarray | None


def make_crypto_workload(kernel: str, cfg: CryptoConfig) -> CryptoWorkload:
    rng = np.random.default_rng(cfg.seed)
    if kernel == "ghash":
        raw = rng.integers(0, 256, size=16 + cfg.ghash_blocks * 16, dtype=np.uint8)
        data = raw.tobytes()
        return CryptoWorkload(kernel, data[:16], data[16:], None, None)
    if kernel in ("crc32", "crc64"):
        msg = rng.integers(0, 256, size=cfg.crc_bytes, dtype=np.uint8).tobytes()
        return CryptoWorkload(kernel, None, msg, None, None)
    if kernel == "ntt":
        a = rng.integers(0, cfg.ntt_q, size=cfg.ntt_n, dtype=np.int64)
        b = rng.integers(0, cfg.ntt_q, size=cfg.ntt_n, dtype=np.int64)
        return CryptoWorkload(kernel, None, b"", a, b)
    raise ValueError(f"unknown crypto kernel {kernel!r}")


def pack_fold_slabs(rows: np.ndarray) -> list[bytes]:
    """Slice a ``(w, msg_bits)`` GF(2) row matrix into per-message-block
    fold slabs.

    Slab ``b`` is a contiguous ``w x 64`` byte buffer: its ``j``-th cache
    block holds row ``j``'s chunk for message block ``b``, packed in the
    message's in-memory bit order.  One broadcast ``cc_clmul256`` of
    message block ``b`` against slab ``b`` then emits two partial
    parities per row (one per 256-bit lane) into the result register.
    """
    w, msg_bits = rows.shape
    slabs = []
    for b in range(msg_bits // 512):
        chunk = rows[:, b * 512:(b + 1) * 512]
        slabs.append(b"".join(_pack_lsb(chunk[j]) for j in range(w)))
    return slabs


def _fold_slabs(runner: StreamRunner, m: ComputeCacheMachine,
                slab_base: int, msg_base: int, dest_base: int,
                w: int, msg_blocks: int, pulse) -> np.ndarray:
    """Fold the whole message through the slab schedule; returns the
    ``w`` output bits.

    Per 64-byte message block: one ``cc_clmul_bcast`` replicates the
    message block through the key datapath against the slab's ``w``
    resident rows (128 in-array AND+XOR-tree block ops for GHASH), and
    the two per-row lane parities are XOR-accumulated on the host - the
    same partial-fold accumulation hardware CRC engines pipeline.  The
    per-block instructions are mutually independent (read-only message,
    disjoint dests), so without a fault injector they issue as one
    ``cc_stream`` and are timed by its RMO overlap view; under a campaign
    ``pulse`` they issue one by one through the runner so faults can land
    between instructions.
    """
    from ..energy.accounting import Component

    slab_bytes = w * BLOCK_SIZE
    instrs = [
        cc_clmul_bcast(slab_base + b * slab_bytes, msg_base + b * BLOCK_SIZE,
                       dest_base + b * BLOCK_SIZE, slab_bytes, lane_bits=256)
        for b in range(msg_blocks)
    ]
    if pulse is None:
        runner.flush()
        stream = m.cc_stream(instrs)
        runner.cycles += stream.overlapped_cycles
        runner.instructions += len(instrs)
        # The stream path bypasses the core model's per-instruction
        # charge; keep energy parity with serial issue.
        for _ in instrs:
            m.ledger.add(Component.CORE, m.config.core.epi_cc)
        results = stream.results
    else:
        results = []
        for instr in instrs:
            pulse()
            results.append(runner.cc(instr))
    acc = 0
    for res in results:
        acc ^= int.from_bytes(res.result_bytes, "little")
        runner.emit(Instr.simd_op())       # xor partial parities into the mask
    bits = np.zeros(w, dtype=np.uint8)
    for j in range(w):
        bits[j] = ((acc >> (2 * j)) ^ (acc >> (2 * j + 1))) & 1
        runner.emit(Instr.scalar())        # fold the two lane parities
    return bits


# -- GHASH ----------------------------------------------------------------------------


def run_ghash_cc(workload: CryptoWorkload,
                 machine: ComputeCacheMachine | None = None,
                 pulse=None) -> AppResult:
    m = machine or fresh_machine()
    msg = workload.message
    blocks = len(msg) // 16
    msg_blocks = len(msg) // BLOCK_SIZE
    slabs = pack_fold_slabs(ghash_matrix_rows(workload.h, blocks))
    slab_bytes = 128 * BLOCK_SIZE

    slab_base = m.arena.alloc_page_aligned(msg_blocks * slab_bytes)
    msg_base = m.arena.alloc_page_aligned(len(msg))
    dest_base = m.arena.alloc_page_aligned(msg_blocks * BLOCK_SIZE)
    tag_base = m.arena.alloc_page_aligned(BLOCK_SIZE)
    for b, slab in enumerate(slabs):
        m.load(slab_base + b * slab_bytes, slab)
    m.load(msg_base, msg)
    # The key schedule is per-key state, amortized across messages: warmed
    # outside the measured stream.  The message itself starts cold - the
    # controller's operand fetches charge its movement into the L3 arrays.
    m.warm_l3(slab_base, msg_blocks * slab_bytes)

    runner = StreamRunner(m, "ghash-cc")
    snap = m.snapshot_energy()
    tag_bits = _fold_slabs(runner, m, slab_base, msg_base, dest_base,
                           128, msg_blocks, pulse)
    tag = _pack_lsb(tag_bits)
    runner.emit(Instr.store(tag_base, tag))
    runner.flush()
    ref = ghash(workload.h, msg)
    return runner.result(
        "crypto-ghash", "cc", m.energy_since(snap), output=tag,
        blocks=blocks, cc_instructions=msg_blocks, matches_reference=tag == ref,
    )


def run_ghash_baseline(workload: CryptoWorkload,
                       machine: ComputeCacheMachine | None = None) -> AppResult:
    """Software GHASH with 4-bit Shoup tables (no carry-less-multiply unit):
    per block, 32 serially dependent table lookups folded into the
    accumulator."""
    m = machine or fresh_machine()
    msg = workload.message
    blocks = len(msg) // 16
    hk = int.from_bytes(workload.h, "big")
    msg_base = m.arena.alloc_page_aligned(len(msg))
    table_base = m.arena.alloc_page_aligned(2 * 16 * 16)   # hi/lo nibble tables
    tag_base = m.arena.alloc_page_aligned(BLOCK_SIZE)
    m.load(msg_base, msg)
    table_img = b"".join(
        gf128_mul(v << shift, hk).to_bytes(16, "big")
        for shift in (0, 4) for v in range(16)
    )[:2 * 16 * 16]
    m.load(table_base, table_img)
    for off in range(0, 2 * 16 * 16, BLOCK_SIZE):          # per-key tables stay hot
        m.warm_l3(table_base + off, BLOCK_SIZE)

    runner = StreamRunner(m, "ghash-base")
    snap = m.snapshot_energy()
    y = 0
    for i in range(blocks):
        block = msg[i * 16:(i + 1) * 16]
        runner.emit(Instr.simd_load(msg_base + i * 16, 16))
        runner.emit(Instr.simd_op())                       # Y ^= C_i
        y ^= int.from_bytes(block, "big")
        acc = 0
        for p in range(16):
            byte = (y >> (8 * (15 - p))) & 0xFF
            for half, nib in ((0, byte & 0xF), (1, byte >> 4)):
                entry = table_base + (half * 16 + nib) * 16
                runner.emit(Instr.load(entry, 16, dependent=True))
                runner.emit(Instr.simd_op())               # xor into accumulator
                runner.emit(Instr.simd_op())               # shift/reduce step
        runner.emit(Instr.branch())
        y = gf128_mul(y, hk)
    tag = y.to_bytes(16, "big")
    runner.emit(Instr.store(tag_base, tag))
    runner.flush()
    return runner.result(
        "crypto-ghash", "scalar", m.energy_since(snap), output=tag,
        blocks=blocks, matches_reference=tag == ghash(workload.h, msg),
    )


# -- CRC ------------------------------------------------------------------------------


def run_crc_cc(workload: CryptoWorkload, width: int,
               machine: ComputeCacheMachine | None = None,
               pulse=None) -> AppResult:
    m = machine or fresh_machine()
    msg = workload.message
    rows, c0 = crc_matrix_rows(width, len(msg))
    slabs = pack_fold_slabs(rows)
    msg_blocks = len(msg) // BLOCK_SIZE
    slab_bytes = width * BLOCK_SIZE

    slab_base = m.arena.alloc_page_aligned(msg_blocks * slab_bytes)
    msg_base = m.arena.alloc_page_aligned(len(msg))
    dest_base = m.arena.alloc_page_aligned(msg_blocks * BLOCK_SIZE)
    out_base = m.arena.alloc_page_aligned(BLOCK_SIZE)
    for b, slab in enumerate(slabs):
        m.load(slab_base + b * slab_bytes, slab)
    m.load(msg_base, msg)
    m.warm_l3(slab_base, msg_blocks * slab_bytes)          # fold tables stay hot

    runner = StreamRunner(m, f"crc{width}-cc")
    snap = m.snapshot_energy()
    bits = _fold_slabs(runner, m, slab_base, msg_base, dest_base,
                       width, msg_blocks, pulse)
    crc = int.from_bytes(_pack_lsb(bits), "little") ^ c0
    runner.emit(Instr.scalar())                            # final xorout fold
    runner.emit(Instr.store(out_base, crc.to_bytes(width // 8, "little")))
    runner.flush()
    return runner.result(
        f"crypto-crc{width}", "cc", m.energy_since(snap), output=crc,
        message_bytes=len(msg), cc_instructions=msg_blocks,
        matches_reference=crc == crc_ref(msg, width),
    )


def run_crc_baseline(workload: CryptoWorkload, width: int,
                     machine: ComputeCacheMachine | None = None) -> AppResult:
    """Byte-at-a-time table CRC: the lookup address depends on the running
    state, so every load sits on the serial dependence chain."""
    m = machine or fresh_machine()
    msg = workload.message
    table = _CRC_TABLES[width]
    entry_bytes = width // 8
    msg_base = m.arena.alloc_page_aligned(len(msg))
    table_base = m.arena.alloc_page_aligned(256 * entry_bytes)
    out_base = m.arena.alloc_page_aligned(BLOCK_SIZE)
    m.load(msg_base, msg)
    m.load(table_base, b"".join(t.to_bytes(entry_bytes, "little") for t in table))
    for off in range(0, 256 * entry_bytes, BLOCK_SIZE):
        m.warm_l3(table_base + off, BLOCK_SIZE)

    runner = StreamRunner(m, f"crc{width}-base")
    snap = m.snapshot_energy()
    mask = (1 << width) - 1
    crc = mask
    for p, b in enumerate(msg):
        if p % 8 == 0:
            runner.emit(Instr.load(msg_base + p, 8, streaming=True))
        idx = (crc ^ b) & 0xFF
        runner.emit(Instr.load(table_base + idx * entry_bytes, entry_bytes,
                               dependent=True))
        runner.emit(Instr.scalar())                        # crc >> 8
        runner.emit(Instr.scalar())                        # xor table entry
        crc = (crc >> 8) ^ table[idx]
    crc ^= mask
    runner.emit(Instr.scalar())
    runner.emit(Instr.store(out_base, crc.to_bytes(entry_bytes, "little")))
    runner.flush()
    return runner.result(
        f"crypto-crc{width}", "scalar", m.energy_since(snap), output=crc,
        message_bytes=len(msg), matches_reference=crc == crc_ref(msg, width),
    )


# -- NTT-style negacyclic polynomial multiply -----------------------------------------


def run_ntt_cc(workload: CryptoWorkload, q: int,
               machine: ComputeCacheMachine | None = None,
               pulse=None) -> AppResult:
    m = machine or fresh_machine()
    a = np.asarray(workload.a, dtype=np.int64)
    b = np.asarray(workload.b, dtype=np.int64)
    n = len(a)
    pb = n * 2                                             # 16-bit lanes

    # Rotation planes: plane i holds b shifted by i with wrapped taps
    # negated (X^n = -1), all modulo 2^16 - exact because q | 2^16.
    planes = np.zeros((n, n), dtype=np.uint16)
    for i in range(n):
        rolled = np.roll(b, i)
        if i:
            rolled[:i] = (-rolled[:i]) % (1 << 16)
        planes[i] = (rolled % (1 << 16)).astype(np.uint16)

    addrs = m.arena.alloc_colocated(pb, n + 3)
    plane_addrs, abcast, prod, acc = addrs[:n], addrs[n], addrs[n + 1], addrs[n + 2]
    out_base = m.arena.alloc_page_aligned(pb)
    for i in range(n):
        m.load(plane_addrs[i], lanes16(planes[i], pb))
    m.load(acc, bytes(pb))
    for i in range(n):                                     # rotation planes stay hot
        m.warm_l3(plane_addrs[i], pb)
    m.warm_l3(acc, pb)

    runner = StreamRunner(m, "ntt-cc")
    snap = m.snapshot_energy()
    for i in range(n):
        if pulse is not None:
            pulse()
        stage = lanes16(np.full(n, int(a[i]) & 0xFFFF, dtype=np.uint16), pb)
        for off in range(0, pb, BLOCK_SIZE):
            runner.emit(Instr.store(abcast + off, stage[off:off + BLOCK_SIZE]))
        runner.emit(Instr.cc_op(cc_mul(abcast, plane_addrs[i], prod, pb,
                                       elem_bits=NTT_ELEM_BITS)))
        runner.emit(Instr.cc_op(cc_add(acc, prod, acc, pb,
                                       elem_bits=NTT_ELEM_BITS)))
    runner.flush()
    raw = np.frombuffer(m.peek(acc, pb), dtype="<u2").astype(np.int64)
    out = raw % q                                          # q | 2^16: exact
    for j in range(n):
        runner.emit(Instr.scalar())                        # mod-q mask per lane
    runner.emit(Instr.store(out_base, lanes16(out.astype(np.uint16), pb)))
    runner.flush()
    ref = ntt_polymul(a, b, q)
    return runner.result(
        "crypto-ntt", "cc", m.energy_since(snap), output=out,
        n=n, q=q, cc_instructions=2 * n,
        matches_reference=bool(np.array_equal(out, ref)),
    )


def run_ntt_baseline(workload: CryptoWorkload, q: int,
                     machine: ComputeCacheMachine | None = None) -> AppResult:
    """Schoolbook negacyclic multiply: n^2 multiply-accumulates with sign
    fix-up on the wrapped taps."""
    m = machine or fresh_machine()
    a = np.asarray(workload.a, dtype=np.int64)
    b = np.asarray(workload.b, dtype=np.int64)
    n = len(a)
    a_base = m.arena.alloc_page_aligned(n * 2)
    b_base = m.arena.alloc_page_aligned(n * 2)
    out_base = m.arena.alloc_page_aligned(n * 2)
    m.load(a_base, lanes16(a.astype(np.uint16), n * 2))
    m.load(b_base, lanes16(b.astype(np.uint16), n * 2))

    runner = StreamRunner(m, "ntt-base")
    snap = m.snapshot_energy()
    out = np.zeros(n, dtype=np.int64)
    for j in range(n):
        for i in range(n):
            k = j - i
            runner.emit(Instr.load(a_base + i * 2, 2, streaming=True))
            runner.emit(Instr.load(b_base + (k % n) * 2, 2, streaming=True))
            runner.emit(Instr.scalar())                    # mul
            runner.emit(Instr.scalar())                    # add/sub accumulate
            if k < 0:
                out[j] -= a[i] * b[k % n]
            else:
                out[j] += a[i] * b[k % n]
        runner.emit(Instr.scalar())                        # mod q
        runner.emit(Instr.branch())
        out[j] %= q
        runner.emit(Instr.store(out_base + j * 2, lanes16(out[j:j + 1], 2)))
    runner.flush()
    ref = ntt_polymul(a, b, q)
    return runner.result(
        "crypto-ntt", "scalar", m.energy_since(snap), output=out,
        n=n, q=q, matches_reference=bool(np.array_equal(out, ref)),
    )


# -- dispatcher -----------------------------------------------------------------------


def run_crypto(kernel: str, variant: str = "cc",
               machine: ComputeCacheMachine | None = None,
               cfg: CryptoConfig | None = None,
               pulse=None) -> AppResult:
    """Run one crypto kernel (``ghash``/``crc32``/``crc64``/``ntt``) in one
    variant (``cc`` or ``scalar``)."""
    cfg = cfg or CryptoConfig()
    if kernel not in CRYPTO_KERNELS:
        raise ValueError(f"unknown crypto kernel {kernel!r} "
                         f"(expected one of {CRYPTO_KERNELS})")
    if variant not in ("cc", "scalar"):
        raise ValueError(f"unknown crypto variant {variant!r}")
    w = make_crypto_workload(kernel, cfg)
    if kernel == "ghash":
        return (run_ghash_cc(w, machine, pulse) if variant == "cc"
                else run_ghash_baseline(w, machine))
    if kernel in ("crc32", "crc64"):
        width = int(kernel[3:])
        return (run_crc_cc(w, width, machine, pulse) if variant == "cc"
                else run_crc_baseline(w, width, machine))
    return (run_ntt_cc(w, cfg.ntt_q, machine, pulse) if variant == "cc"
            else run_ntt_baseline(w, cfg.ntt_q, machine))


def output_digest(result: AppResult) -> str:
    """Canonical sha256 of a kernel output (for cross-backend identity)."""
    out = result.output
    if isinstance(out, bytes):
        blob = out
    elif isinstance(out, int):
        blob = out.to_bytes(16, "little")
    elif isinstance(out, np.ndarray):
        blob = np.ascontiguousarray(out, dtype=np.int64).tobytes()
    else:  # pragma: no cover - defensive
        blob = repr(out).encode()
    return hashlib.sha256(blob).hexdigest()


# -- fault campaign: crypto kernels as their own integrity oracles --------------------


def crypto_plan(seed: int = 0):
    """The PR 4 machine-fault campaign (SRAM strikes, pin steals,
    fetch timeouts, directory faults) without the runner-chaos kinds,
    which target the sweep executor rather than the machine."""
    from ..faults.plan import default_plan

    plan = default_plan(seed)
    specs = [s for s in plan.specs if not s.kind.startswith("runner.")]
    return type(plan)(seed=plan.seed, specs=specs)


def run_crypto_campaign(kernel: str,
                        plan=None,
                        cfg: CryptoConfig | None = None,
                        backend: str | None = None,
                        pulse_every: int = 8) -> dict:
    """Golden-vs-faulty replay of one crypto kernel under fault injection.

    Runs the CC variant twice on the small test machine - once clean, once
    with a :class:`~repro.faults.injector.FaultInjector` pulsing between
    CC instructions - and classifies the outcome:

    * ``detected``: faults the machine corrected, retried, or recovered
      (ECC scrubs, pin-steal fallbacks, refetches);
    * ``silent``: the faulty run's output diverged from the golden run
      with no machine-level detection - the failure mode the paper's ECC
      story promises cannot happen;
    * ``oracle_flags``: whether the kernel's own integrity check (the
      reference tag/CRC/coefficient recomputation, standing in for the
      protocol verifier) would have caught a divergent output anyway.
    """
    from ..faults.injector import FaultInjector, recoveries
    from ..params import small_test_machine

    cfg = cfg or CryptoConfig(ghash_blocks=8, crc_bytes=128, ntt_n=32)
    plan = plan or crypto_plan(0)
    config = small_test_machine()

    golden = run_crypto(
        kernel, "cc", ComputeCacheMachine(config, backend=backend), cfg
    )

    m = ComputeCacheMachine(config, backend=backend, trace_events=True)
    injector = FaultInjector(m, plan)
    injector.install()
    calls = 0

    def pulse() -> None:
        nonlocal calls
        if calls % pulse_every == 0:
            # Give the directory something to forward (cross-core sharer),
            # then strike + scrub.
            m.read(0, 256, core=1)
            injector.pulse()
        calls += 1

    faulty = run_crypto(kernel, "cc", m, cfg, pulse=pulse)
    injector.pulse()  # final scrub: no strike may outlive the campaign

    output_diverged = output_digest(faulty) != output_digest(golden)
    silent = int(output_diverged)
    recovered = recoveries(m.tracer)
    detected = {o: recovered[o] for o in
                ("corrected", "refetched", "retried", "degraded-risc",
                 "absorbed", "surfaced")}
    injected = dict(injector.injected)
    return {
        "kernel": kernel,
        "plan_seed": plan.seed,
        "injected": injected,
        "injected_total": sum(injected.values()),
        "detected": detected,
        "detected_total": sum(detected.values()),
        "silent": silent,
        "golden_digest": output_digest(golden),
        "faulty_digest": output_digest(faulty),
        "golden_matches_reference": bool(golden.stats["matches_reference"]),
        "faulty_matches_reference": bool(faulty.stats["matches_reference"]),
        "oracle": {"ghash": "authentication tag", "crc32": "checksum",
                   "crc64": "checksum", "ntt": "coefficient recomputation"}[kernel],
        "oracle_flags_divergence": bool(
            output_diverged and not faulty.stats["matches_reference"]
        ),
    }
