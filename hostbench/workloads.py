"""The benchmark's workloads: generated inputs, units, independent output
checks, and the simulated counters each unit must reproduce.

A *unit* is one application run on a fresh machine.  Every input is
generated here from the command-line seed and handed to the simulator;
the expected outputs are computed here too, from the same inputs, by the
reference functions the applications ship (never by trusting a unit's
own ``matches_reference`` flag).

Everything in the simulator is reached through :mod:`repro.api`.
"""

from __future__ import annotations

import binascii
import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro import api

DEFAULT_SEED = 0
"""The seed whose simulated counters are pinned in ``counters.json``."""

WORKLOADS = ("cc-apps", "scalar-apps", "numa-stream")

MICRO_BYTES = 4096
"""Operand size of the paper's copy/compare/search/logical kernels."""

CMP_BYTES = 512
"""``cc_cmp`` is capped at 64 words (the 64-bit result register)."""


class Mismatch(Exception):
    """A unit's output or simulated counters disagree with the expectation."""


@dataclass(frozen=True)
class Size:
    """Input sizes of one benchmark profile."""

    machine: Callable[[], Any]     # -> MachineConfig of the app units
    wc_words: int
    wc_vocab: int
    sm_words: int
    sm_vocab: int
    bitmap_rows: int
    bitmap_queries: int
    bmm_n: int
    qdnn_hw: int
    qdnn_out: int
    ghash_blocks: int
    crc_bytes: int
    ntt_n: int
    stream_words: int


SIZES = {
    # Each unit takes 0.1-0.8 s of host time on the Table IV machine, so
    # no single unit dominates a pass.
    "bench": Size(machine=api.sandybridge_8core, wc_words=320, wc_vocab=80,
                  sm_words=768, sm_vocab=500, bitmap_rows=1 << 14,
                  bitmap_queries=6, bmm_n=128, qdnn_hw=20, qdnn_out=10,
                  ghash_blocks=32, crc_bytes=512, ntt_n=64,
                  stream_words=1024),
    # The self-test profile: seconds per pass on the small test machine.
    "tiny": Size(machine=api.small_test_machine, wc_words=48, wc_vocab=24,
                 sm_words=64, sm_vocab=40, bitmap_rows=1024,
                 bitmap_queries=2, bmm_n=64, qdnn_hw=6, qdnn_out=2,
                 ghash_blocks=4, crc_bytes=64, ntt_n=32, stream_words=64),
}


@dataclass(frozen=True)
class Unit:
    """One application run: ``run(machine) -> AppResult`` on a fresh
    machine built from ``config``; ``check(machine, result)`` raises
    :class:`Mismatch` when the output is wrong."""

    name: str
    config: Any
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], None]
    trace_events: bool = False


def _sub_seed(seed: int, k: int) -> int:
    return seed * 64 + k


def _canon(value):
    """Outputs in one comparable form (arrays compare by value)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, dict):
        return {k: _canon(v) for k, v in value.items()}
    return value


def _expect(refs: dict, name: str, normalize=lambda out: out):
    def check(machine, result) -> None:
        if _canon(normalize(result.output)) != _canon(refs[name]):
            raise Mismatch(f"{name}: output differs from the reference")
    return check


# -- cc-apps / scalar-apps -----------------------------------------------------------


@dataclass(frozen=True)
class AppInputs:
    corpus: Any
    wc_config: Any
    strings: Any
    bitmap: Any
    queries: list
    matrices: Any
    network: Any
    ghash: Any
    crc: Any
    ntt: Any
    ntt_q: int
    micro: dict


def app_inputs(seed: int, size: Size) -> AppInputs:
    """Inputs shared by ``cc-apps`` and ``scalar-apps`` for one seed."""
    crypto_cfg = api.CryptoConfig(
        seed=_sub_seed(seed, 7), ghash_blocks=size.ghash_blocks,
        crc_bytes=size.crc_bytes, ntt_n=size.ntt_n)
    bitmap = api.bitmap_db.make_dataset(
        _sub_seed(seed, 3), n_rows=size.bitmap_rows, cardinalities=(16, 8))
    return AppInputs(
        corpus=api.textgen.zipf_corpus(_sub_seed(seed, 1), size.wc_words,
                                       vocab_size=size.wc_vocab),
        wc_config=api.wordcount.WordCountConfig(
            n_bins=676, bin_capacity=16, dict_capacity=size.wc_vocab + 64),
        strings=api.stringmatch.make_workload(
            _sub_seed(seed, 2), size.sm_words, n_keys=4,
            vocab_size=size.sm_vocab),
        bitmap=bitmap,
        queries=_query_mix(bitmap, size.bitmap_queries),
        matrices=api.bmm.make_matrices(_sub_seed(seed, 5), n=size.bmm_n),
        network=api.qdnn.make_network(_sub_seed(seed, 6), h=size.qdnn_hw,
                                      w=size.qdnn_hw, n_out=size.qdnn_out),
        ghash=api.crypto.make_crypto_workload("ghash", crypto_cfg),
        crc=api.crypto.make_crypto_workload("crc32", crypto_cfg),
        ntt=api.crypto.make_crypto_workload("ntt", crypto_cfg),
        ntt_q=crypto_cfg.ntt_q,
        micro=_micro_inputs(np.random.default_rng(_sub_seed(seed, 8))),
    )


def _query_mix(bitmap, n_queries: int) -> list:
    """Fixed range queries - five bins of the 16-value attribute or three
    of the 8-value one, every third query ANDed with two bins of the other
    attribute.  The rows they select (and so the row-id materialization
    work) depend on which bins are queried, so the bins do not move with
    the seed; the seed draws the data."""
    query = api.bitmap_db.Query
    cards = bitmap.cardinalities
    queries = []
    for q in range(n_queries):
        attr = q % len(cards)
        width = 5 if cards[attr] > 8 else 3
        lo = (q * width) % (cards[attr] - width + 1)
        bins = tuple(range(lo, lo + width))
        if q % 3 == 2:
            other = (attr + 1) % len(cards)
            olo = q % (cards[other] - 1)
            queries.append(query(attr=attr, bins=bins, and_attr=other,
                                 and_bins=(olo, olo + 1)))
        else:
            queries.append(query(attr=attr, bins=bins))
    return queries


def _micro_inputs(rng) -> dict:
    """Operands whose compare and search masks are neither all-zero nor
    all-one: about half of ``b``'s words equal ``a``'s, and eight of
    ``a``'s blocks hold the search key."""
    a = rng.integers(0, 256, MICRO_BYTES, dtype=np.uint8)
    key = rng.integers(0, 256, 64, dtype=np.uint8)
    for block in rng.choice(MICRO_BYTES // 64, size=8, replace=False):
        a[block * 64:(block + 1) * 64] = key
    b = rng.integers(0, 256, MICRO_BYTES, dtype=np.uint8)
    same = np.repeat(rng.random(MICRO_BYTES // 8) < 0.5, 8)
    b[same] = a[same]
    return {"a": a.tobytes(), "b": b.tobytes(), "key": key.tobytes()}


def app_references(inputs: AppInputs) -> dict:
    """Expected outputs, computed outside the simulator."""
    ghash_w, crc_w, ntt_w = inputs.ghash, inputs.crc, inputs.ntt
    return {
        "wordcount": api.textgen.reference_wordcount(inputs.corpus),
        "stringmatch": sorted(api.stringmatch.reference_matches(inputs.strings)),
        "db-bitmap": [api.bitmap_db.reference_query(inputs.bitmap, q).tobytes()
                      for q in inputs.queries],
        "bmm": api.bmm.reference_bmm(inputs.matrices),
        "qdnn": api.qdnn.reference_qdnn(inputs.network)["logits"],
        "ghash": api.crypto.ghash(ghash_w.h, ghash_w.message),
        "crc32": binascii.crc32(crc_w.message),
        "crc64": api.crypto.crc_ref(crc_w.message, 64),
        "ntt": api.crypto.ntt_polymul(ntt_w.a, ntt_w.b, inputs.ntt_q),
        "micro": _micro_reference(inputs.micro),
    }


def _micro_reference(micro: dict) -> dict:
    a = np.frombuffer(micro["a"], dtype=np.uint8)
    b = np.frombuffer(micro["b"], dtype=np.uint8)
    word_equal = (a.reshape(-1, 8) == b.reshape(-1, 8)).all(axis=1)
    cmp_masks = [
        sum(1 << w for w, eq in enumerate(chunk) if eq)
        for chunk in word_equal.reshape(-1, CMP_BYTES // 8)
    ]
    key_hits = (a.reshape(-1, 64) == np.frombuffer(micro["key"], np.uint8)).all(axis=1)
    expected = {
        "copy": micro["a"],
        "cmp": cmp_masks,
        "search": sum(1 << k for k, hit in enumerate(key_hits) if hit),
        "or": (a | b).tobytes(),
    }
    return {"inplace": expected, "nearplace": dict(expected)}


def run_micro(machine, micro: dict):
    """The paper's 4 KB copy, compare, search and logical kernels on
    L3-resident operands, each issued through ``ComputeCacheMachine.cc``
    once in place and once forced near-place."""
    ops = api.cc_ops
    bufs = machine.arena.alloc_colocated(MICRO_BYTES, 7)
    a, b, key = bufs[:3]
    machine.load(a, micro["a"])
    machine.load(b, micro["b"])
    machine.load(key, micro["key"])
    for addr in bufs:
        machine.warm_l3(addr, MICRO_BYTES)
    snap = machine.snapshot_energy()
    results, output = [], {}
    for mode, near, copy_dst, or_dst in (("inplace", False, bufs[3], bufs[4]),
                                         ("nearplace", True, bufs[5], bufs[6])):
        results.append(machine.cc(ops.cc_copy(a, copy_dst, MICRO_BYTES),
                                  force_nearplace=near))
        cmp = [machine.cc(ops.cc_cmp(a + off, b + off, CMP_BYTES),
                          force_nearplace=near)
               for off in range(0, MICRO_BYTES, CMP_BYTES)]
        search = machine.cc(ops.cc_search(a, key, MICRO_BYTES),
                            force_nearplace=near)
        results += cmp + [search]
        results.append(machine.cc(ops.cc_or(a, b, or_dst, MICRO_BYTES),
                                  force_nearplace=near))
        output[mode] = {
            "copy": machine.peek(copy_dst, MICRO_BYTES),
            "cmp": [r.result for r in cmp],
            "search": search.result,
            "or": machine.peek(or_dst, MICRO_BYTES),
        }
    return api.AppResult(
        app="micro", variant="cc", cycles=sum(r.cycles for r in results),
        instructions=len(results), energy=machine.energy_since(snap),
        output=output)


def app_units(variant: str, inputs: AppInputs, refs: dict, size: Size) -> list[Unit]:
    """The application units of ``cc-apps`` (``variant="cc"``) or
    ``scalar-apps`` (``variant="baseline"``) on the same inputs."""
    config = size.machine()
    cc = variant == "cc"
    crypto = api.crypto
    ghash_w, crc_w, ntt_w, q = inputs.ghash, inputs.crc, inputs.ntt, inputs.ntt_q
    runs = {
        "wordcount": lambda m: api.wordcount.run_wordcount(
            inputs.corpus, variant, m, inputs.wc_config),
        "stringmatch": lambda m: api.stringmatch.run_stringmatch(
            inputs.strings, variant, m),
        "db-bitmap": lambda m: api.bitmap_db.run_bitmap_queries(
            inputs.bitmap, inputs.queries, variant, m),
        "bmm": lambda m: api.bmm.run_bmm(inputs.matrices, variant, m),
        "qdnn": lambda m: api.qdnn.run_qdnn(inputs.network, variant, m),
        "ghash": ((lambda m: crypto.run_ghash_cc(ghash_w, m)) if cc
                  else (lambda m: crypto.run_ghash_baseline(ghash_w, m))),
        "crc32": ((lambda m: crypto.run_crc_cc(crc_w, 32, m)) if cc
                  else (lambda m: crypto.run_crc_baseline(crc_w, 32, m))),
        "crc64": ((lambda m: crypto.run_crc_cc(crc_w, 64, m)) if cc
                  else (lambda m: crypto.run_crc_baseline(crc_w, 64, m))),
        "ntt": ((lambda m: crypto.run_ntt_cc(ntt_w, q, m)) if cc
                else (lambda m: crypto.run_ntt_baseline(ntt_w, q, m))),
    }
    # StringMatch's matches are a set; compare them in sorted order.
    units = [Unit(name, config, run,
                  _expect(refs, name, sorted) if name == "stringmatch"
                  else _expect(refs, name))
             for name, run in runs.items()]
    if cc:
        units.append(Unit("micro", config,
                          lambda m: run_micro(m, inputs.micro),
                          _expect(refs, "micro")))
    return units


# -- numa-stream -----------------------------------------------------------------------


def _fill_check(refs: dict, name: str):
    """Scalar STREAM kernels move exactly the analytic traffic: the L1-D
    fill bytes the machine's own tracer saw must equal
    ``stream_traffic_bytes x cores`` (``None`` skips the check)."""
    def check(machine, result) -> None:
        tracer = machine.tracer
        if tracer.dropped:
            raise Mismatch(f"{name}: event tracer dropped {tracer.dropped} events")
        expected = refs[name]
        if expected is None:
            return
        fills = sum(1 for e in tracer.by_kind("cache.fill") if e.level == "L1-D")
        if fills * api.BLOCK_SIZE != expected:
            raise Mismatch(f"{name}: {fills * api.BLOCK_SIZE} L1-D fill bytes, "
                           f"expected {expected}")
    return check


def stream_units(seed: int, refs: dict, size: Size) -> list[Unit]:
    """STREAM on every core of a 2x2-cluster machine, hub placement, with
    the machine's event tracer on (the way ``repro profile`` runs it)."""
    config = api.multi_cluster(2, 2)
    stream = api.streambw
    cases = [(k, v) for k in stream.STREAM_KERNELS for v in ("scalar", "cc")]
    cases += [(k, "scalar") for k in ("gather", "scatter")]
    units = []
    for i, (kernel, variant) in enumerate(cases):
        name = f"{kernel}-{variant}"
        fills = (stream.stream_traffic_bytes(kernel, size.stream_words) * config.cores
                 if variant == "scalar" and kernel in stream.STREAM_KERNELS
                 else None)
        refs[name] = fills

        def run(m, kernel=kernel, variant=variant, unit_seed=_sub_seed(seed, i)):
            # run_streambw raises DataCorruptionError on a wrong array.
            return api.run_streambw(kernel, m, variant=variant,
                                    words=size.stream_words, placement="hub",
                                    seed=unit_seed)
        units.append(Unit(name, config, run, _fill_check(refs, name),
                          trace_events=True))
    return units


def build(workload: str, seed: int, size: str = "bench") -> tuple[list[Unit], dict]:
    """Units of one workload plus the (mutable) reference table their
    checks read."""
    profile = SIZES[size]
    if workload == "numa-stream":
        refs: dict = {}
        return stream_units(seed, refs, profile), refs
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    inputs = app_inputs(seed, profile)
    refs = app_references(inputs)
    variant = "cc" if workload == "cc-apps" else "baseline"
    return app_units(variant, inputs, refs, profile), refs


# -- simulated counters ------------------------------------------------------------


def _flatten(value, prefix: str, out: dict) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{prefix}.{key}", out)
    elif isinstance(value, (int, float)):
        out[prefix] = value


def unit_counters(machine, result) -> dict:
    """Every simulated counter of one unit: cycles, instructions, energy
    per component, ``collect_stats``, the controller stats, topology
    traffic and the event count.  Identical on every host."""
    out = {"cycles": float(result.cycles),
           "instructions": int(result.instructions),
           "energy_pj.total": result.energy.total(),
           "energy_pj.data_movement": result.energy.data_movement()}
    _flatten(dict(result.energy.pj), "energy_pj", out)
    _flatten(dataclasses.asdict(api.collect_stats(machine)), "stats", out)
    for controller in machine.controllers:
        fields = {k: v for k, v in dataclasses.asdict(controller.stats).items()
                  if not isinstance(v, dict)}
        for key, value in fields.items():
            name = f"controller.{key}"
            out[name] = out.get(name, 0) + value
    topo = getattr(machine.hierarchy.ring, "topo_stats", None)
    if topo is not None:
        _flatten(dataclasses.asdict(topo), "topo", out)
    if machine.tracer is not None:
        out["events.emitted"] = machine.tracer.total_emitted
    return out


def compare_counters(name: str, got: dict, pinned: dict) -> None:
    """Integers must match exactly, floats up to re-association."""
    for key, want in pinned.items():
        have = got.get(key)
        if have is None:
            raise Mismatch(f"{name}: counter {key} missing")
        if isinstance(want, int) and isinstance(have, int):
            ok = have == want
        else:
            ok = math.isclose(have, want, rel_tol=1e-9, abs_tol=1e-9)
        if not ok:
            raise Mismatch(f"{name}: counter {key} = {have!r}, pinned {want!r}")
