"""Quantized DNN inference on the bit-serial arithmetic tier (Neural Cache).

A small integer-only network — one 3x3 valid convolution, a requantize
step, and a fully-connected output layer — in the style of the Neural
Cache successor design (arXiv 1805.03718): 8-bit activations, low-bit
weights, all arithmetic exact in fixed-width unsigned lanes.

**Quantization contract** (what makes every step bit-exact):

* activations are ``uint8`` (0..255);
* conv weights are 4-bit (0..15), so a tap product fits 12 bits and the
  9-tap accumulator fits 16 bits — the whole convolution runs exactly in
  16-bit lanes;
* conv outputs requantize to ``uint8`` via ``min(acc >> 8, 255)`` on the
  core (the usual integer-requantize step of quantized inference);
* FC weights are full ``uint8``: an 8x8-bit product fits the 16-bit lanes
  exactly, and ``cc_reduce16`` zero-extends to a 64-bit accumulator, so
  the logits are exact integer dot products.

**Compute Cache version** — activations and weights live as little-endian
16-bit lanes in cache blocks:

* conv is tap-parallel: for each of the 9 taps the shifted activation
  plane is staged once (measured stores), then one ``cc_mul16`` against
  the tap's pre-staged broadcast-weight plane and one ``cc_add16`` into
  the accumulator plane cover *every* output pixel at once;
* FC is one ``cc_mul16`` (activations x weight row) plus one
  ``cc_reduce16`` per output neuron.

**Baseline** — the scalar CPU loop nest: per output pixel, 9 x (load,
multiply, accumulate) with the 3x3 kernel register-resident; per logit,
one multiply-accumulate per activation.

The CC logits are taken from the simulated ``cc_reduce`` results (not
recomputed), and both variants are verified against
:func:`reference_qdnn`'s pure-numpy pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.isa import cc_add, cc_mul, cc_reduce
from ..cpu.program import Instr
from ..machine import ComputeCacheMachine
from ..params import BLOCK_SIZE
from .common import AppResult, StreamRunner, fresh_machine, lanes16

CONV_K = 3
"""Convolution kernel size (3x3, valid padding)."""
ELEM_BITS = 16
"""Lane width of every CC arithmetic instruction in the pipeline: wide
enough that 8-bit x 4-bit tap products and their 9-tap sums, and
8-bit x 8-bit FC products, are all exact."""
REQUANT_SHIFT = 8
"""Conv accumulator -> uint8 requantize shift (with saturation at 255)."""
CONV_W_MAX = 15
"""Conv weights are 4-bit so the 16-bit conv accumulator cannot wrap:
9 taps x (255 * 15) = 34 425 < 65 536."""


@dataclass(frozen=True)
class QDNNWorkload:
    """One quantized inference problem: input plane, conv kernel, FC layer."""

    h: int
    w: int
    n_out: int
    acts: np.ndarray       # (h, w) uint8 activations
    conv_w: np.ndarray     # (3, 3) uint8 in 0..CONV_W_MAX
    fc_w: np.ndarray       # (n_out, out_h * out_w) uint8

    @property
    def out_h(self) -> int:
        return self.h - (CONV_K - 1)

    @property
    def out_w(self) -> int:
        return self.w - (CONV_K - 1)

    @property
    def conv_elems(self) -> int:
        return self.out_h * self.out_w

    @property
    def plane_bytes(self) -> int:
        """Block-padded byte size of one 16-bit-lane feature plane."""
        raw = self.conv_elems * (ELEM_BITS // 8)
        return -(-raw // BLOCK_SIZE) * BLOCK_SIZE


def make_network(seed: int, h: int = 32, w: int = 32,
                 n_out: int = 10) -> QDNNWorkload:
    """Deterministic random network + input (seeded like every workload)."""
    if h < CONV_K or w < CONV_K:
        raise ValueError(f"input plane {h}x{w} smaller than the {CONV_K}x{CONV_K} kernel")
    rng = np.random.default_rng(seed)
    out_elems = (h - CONV_K + 1) * (w - CONV_K + 1)
    return QDNNWorkload(
        h=h, w=w, n_out=n_out,
        acts=rng.integers(0, 256, size=(h, w), dtype=np.uint8),
        conv_w=rng.integers(0, CONV_W_MAX + 1, size=(CONV_K, CONV_K),
                            dtype=np.uint8),
        fc_w=rng.integers(0, 256, size=(n_out, out_elems), dtype=np.uint8),
    )


def reference_qdnn(workload: QDNNWorkload) -> dict[str, np.ndarray]:
    """Pure-numpy integer pipeline: the bit-exact ground truth."""
    acts = workload.acts.astype(np.uint32)
    oh, ow = workload.out_h, workload.out_w
    acc = np.zeros((oh, ow), dtype=np.uint32)
    for dy in range(CONV_K):
        for dx in range(CONV_K):
            acc += acts[dy:dy + oh, dx:dx + ow] * int(workload.conv_w[dy, dx])
    conv_out = np.minimum(acc >> REQUANT_SHIFT, 255).astype(np.uint8)
    flat = conv_out.ravel().astype(np.uint64)
    logits = (workload.fc_w.astype(np.uint64) * flat).sum(axis=1,
                                                          dtype=np.uint64)
    return {"conv_out": conv_out, "logits": logits}


def _emit_staged_plane(runner: StreamRunner, src_base: int, dst_base: int,
                       data: bytes) -> None:
    """Model the core staging one derived plane: read the source bytes
    (SIMD loads) and store the zero-extended 16-bit lanes block by block."""
    for off in range(0, len(data), BLOCK_SIZE):
        runner.emit(Instr.simd_load(src_base + off // 2, 32))
        runner.emit(Instr.store(dst_base + off, data[off:off + BLOCK_SIZE]))


def run_qdnn_cc(workload: QDNNWorkload,
                machine: ComputeCacheMachine | None = None) -> AppResult:
    m = machine or fresh_machine()
    ref = reference_qdnn(workload)
    oh, ow = workload.out_h, workload.out_w
    pb = workload.plane_bytes

    # Static data staged at load time (workload layout, like BMM's packed
    # BT): the input plane, the 9 broadcast-weight planes, and the FC
    # weight rows, already in 16-bit-lane form.
    act_base = m.arena.alloc_page_aligned(workload.h * workload.w)
    wp_base = m.arena.alloc_page_aligned(CONV_K * CONV_K * pb)
    fcw_base = m.arena.alloc_page_aligned(workload.n_out * pb)
    shift_base = m.arena.alloc_page_aligned(pb)
    prod_base = m.arena.alloc_page_aligned(pb)
    acc_base = m.arena.alloc_page_aligned(pb)
    fca_base = m.arena.alloc_page_aligned(pb)

    m.load(act_base, workload.acts.tobytes())
    taps = [(dy, dx) for dy in range(CONV_K) for dx in range(CONV_K)]
    for k, (dy, dx) in enumerate(taps):
        wk = np.full(workload.conv_elems, workload.conv_w[dy, dx],
                     dtype=np.uint16)
        m.load(wp_base + k * pb, lanes16(wk, pb))
    for j in range(workload.n_out):
        m.load(fcw_base + j * pb, lanes16(workload.fc_w[j], pb))

    runner = StreamRunner(m, "qdnn-cc")
    snap = m.snapshot_energy()

    # Conv: tap-parallel multiply-accumulate over the whole output plane.
    acts = workload.acts
    for k, (dy, dx) in enumerate(taps):
        shifted = acts[dy:dy + oh, dx:dx + ow].ravel().astype(np.uint16)
        _emit_staged_plane(runner, act_base, shift_base,
                           lanes16(shifted, pb))
        if k == 0:
            runner.emit(Instr.cc_op(cc_mul(shift_base, wp_base, acc_base,
                                           pb, elem_bits=ELEM_BITS)))
        else:
            runner.emit(Instr.cc_op(cc_mul(shift_base, wp_base + k * pb,
                                           prod_base, pb,
                                           elem_bits=ELEM_BITS)))
            runner.emit(Instr.cc_op(cc_add(acc_base, prod_base, acc_base,
                                           pb, elem_bits=ELEM_BITS)))

    # Requantize on the core (shift + saturate) and stage the FC input.
    conv_out = ref["conv_out"].ravel()
    _emit_staged_plane(runner, acc_base, fca_base,
                       lanes16(conv_out.astype(np.uint16), pb))

    # FC: one exact integer dot product per logit.
    logits = np.zeros(workload.n_out, dtype=np.uint64)
    for j in range(workload.n_out):
        runner.emit(Instr.cc_op(cc_mul(fca_base, fcw_base + j * pb,
                                       prod_base, pb, elem_bits=ELEM_BITS)))
        res = runner.cc(cc_reduce(prod_base, pb, elem_bits=ELEM_BITS))
        logits[j] = res.result

    n_cc = CONV_K * CONV_K * 2 - 1 + 2 * workload.n_out
    return runner.result(
        "qdnn", "cc", m.energy_since(snap), output=logits,
        h=workload.h, w=workload.w, n_out=workload.n_out,
        cc_instructions=n_cc,
        transpose_blocks=m.controllers[0].stats.transpose_blocks,
    )


def run_qdnn_baseline(workload: QDNNWorkload,
                      machine: ComputeCacheMachine | None = None) -> AppResult:
    m = machine or fresh_machine()
    ref = reference_qdnn(workload)
    oh, ow = workload.out_h, workload.out_w

    act_base = m.arena.alloc_page_aligned(workload.h * workload.w)
    conv_base = m.arena.alloc_page_aligned(workload.conv_elems)
    fcw_base = m.arena.alloc_page_aligned(workload.n_out * workload.conv_elems)
    m.load(act_base, workload.acts.tobytes())
    for j in range(workload.n_out):
        m.load(fcw_base + j * workload.conv_elems,
               workload.fc_w[j].tobytes())

    runner = StreamRunner(m, "qdnn-base")
    snap = m.snapshot_energy()
    conv_out = ref["conv_out"]

    # Conv loop nest: 3x3 kernel register-resident; per pixel 9 MACs, a
    # requantize (shift + saturate), a byte store, and the loop branch.
    for y in range(oh):
        for x in range(ow):
            for dy in range(CONV_K):
                for dx in range(CONV_K):
                    runner.emit(Instr.load(act_base + (y + dy) * workload.w
                                           + (x + dx), 1))
                    runner.emit(Instr.scalar())   # multiply
                    runner.emit(Instr.scalar())   # accumulate
            runner.emit(Instr.scalar())           # shift + saturate
            runner.emit(Instr.store(conv_base + y * ow + x,
                                    bytes([int(conv_out[y, x])])))
            runner.emit(Instr.branch())

    # FC: per logit one multiply-accumulate per activation.
    logits = np.zeros(workload.n_out, dtype=np.uint64)
    flat = conv_out.ravel().astype(np.uint64)
    for j in range(workload.n_out):
        wrow = workload.fc_w[j].astype(np.uint64)
        for i in range(workload.conv_elems):
            runner.emit(Instr.load(conv_base + i, 1))
            runner.emit(Instr.load(fcw_base + j * workload.conv_elems + i, 1))
            runner.emit(Instr.scalar())           # multiply
            runner.emit(Instr.scalar())           # accumulate
        runner.emit(Instr.branch())
        logits[j] = (wrow * flat).sum(dtype=np.uint64)

    return runner.result(
        "qdnn", "baseline", m.energy_since(snap), output=logits,
        h=workload.h, w=workload.w, n_out=workload.n_out,
    )


def run_qdnn(workload: QDNNWorkload, variant: str = "cc",
             machine: ComputeCacheMachine | None = None) -> AppResult:
    """Run one QDNN variant ("baseline" or "cc")."""
    if variant == "baseline":
        return run_qdnn_baseline(workload, machine)
    if variant == "cc":
        return run_qdnn_cc(workload, machine)
    raise ValueError(f"unknown QDNN variant {variant!r}")
