"""Crypto workload suite: references against published vectors, property
tests of the GF(2) matrix lowering, machine-level bit-exactness on both
backends, and the zero-silent-corruption fault audit."""

import binascii

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    CryptoConfig,
    crc_fold,
    ghash,
    ntt_polymul,
    run_crypto,
    run_crypto_campaign,
)
from repro.apps.crypto import (
    CRYPTO_KERNELS,
    _mul_by_h_matrix,
    _pack_lsb,
    crc_matrix_rows,
    crc_ref,
    crc_step_matrices,
    gf128_mul,
    ghash_matrix_rows,
    output_digest,
)
from repro.machine import ComputeCacheMachine
from repro.params import BACKENDS, small_test_machine

SMALL = CryptoConfig(ghash_blocks=8, crc_bytes=128, ntt_n=32)


def small_machine(backend=None) -> ComputeCacheMachine:
    return ComputeCacheMachine(small_test_machine(), backend=backend)


class TestReferences:
    def test_crc32_matches_binascii(self):
        for data in (b"", b"123456789", bytes(range(256)) * 3):
            assert crc_ref(data, 32) == binascii.crc32(data)

    def test_crc32_check_value(self):
        # CRC-32/ISO-HDLC check value.
        assert crc_ref(b"123456789", 32) == 0xCBF43926

    def test_crc64_check_value(self):
        # CRC-64/XZ check value.
        assert crc_ref(b"123456789", 64) == 0x995DC9BBDF1939FA

    def test_ghash_nist_gcm_test_case_2(self):
        # NIST GCM spec test case 2: H = AES_K(0) for the zero key, one
        # ciphertext block, then the 128-bit length block (len(A)=0,
        # len(C)=128).  GHASH must equal the published intermediate.
        h = bytes.fromhex("66e94bd4ef8a2c3b884cfa59ca342b2e")
        c = bytes.fromhex("0388dace60b6a392f328c2b971b2fe78")
        length_block = (0).to_bytes(8, "big") + (128).to_bytes(8, "big")
        tag = ghash(h, c + length_block)
        assert tag == bytes.fromhex("f38cbb1ad69223dcc3457ae5b6b0f885")

    def test_gf128_identity(self):
        # x^0 in the MSB-first GCM representation is the top bit.
        one = 1 << 127
        for x in (1, 0xDEADBEEF << 64, (1 << 128) - 1):
            assert gf128_mul(x, one) == x


class TestGF2Properties:
    @given(st.integers(0, (1 << 128) - 1), st.integers(0, (1 << 128) - 1))
    @settings(max_examples=50, deadline=None)
    def test_gf128_commutative(self, x, y):
        assert gf128_mul(x, y) == gf128_mul(y, x)

    @given(st.integers(0, (1 << 128) - 1), st.integers(0, (1 << 128) - 1),
           st.integers(0, (1 << 128) - 1))
    @settings(max_examples=50, deadline=None)
    def test_gf128_distributes_over_xor(self, a, b, c):
        assert (gf128_mul(a ^ b, c)
                == gf128_mul(a, c) ^ gf128_mul(b, c))

    @given(st.binary(min_size=0, max_size=300),
           st.sampled_from((32, 64)))
    @settings(max_examples=60, deadline=None)
    def test_crc_fold_matches_table_reference(self, data, width):
        # The GF(2) matrix lowering (the exact map the CC slabs encode)
        # agrees with the byte-at-a-time table recurrence -- and, for
        # width 32, with the standard library.
        assert crc_fold(data, width) == crc_ref(data, width)
        if width == 32:
            assert crc_fold(data, 32) == binascii.crc32(data)

    @given(st.binary(min_size=16, max_size=16).filter(lambda h: any(h)),
           st.integers(1, 4), st.integers(0, 2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_ghash_matrix_matches_reference(self, h, blocks, seed):
        # Row j of the whole-message matrix, ANDed with the raw message
        # and parity-folded, is tag bit j -- the exact computation the
        # cc_clmul broadcast slabs perform.
        rng = np.random.default_rng(seed)
        msg = rng.integers(0, 256, size=blocks * 16, dtype=np.uint8).tobytes()
        rows = ghash_matrix_rows(h, blocks)
        msg_bits = np.unpackbits(np.frombuffer(msg, dtype=np.uint8),
                                 bitorder="little")
        tag_bits = (rows @ msg_bits) & 1
        assert _pack_lsb(tag_bits) == ghash(h, msg)

    @given(st.integers(0, 2 ** 32), st.sampled_from((2048, 8192, 65536)))
    @settings(max_examples=40, deadline=None)
    def test_ntt_polymul_matches_numpy_convolution(self, seed, q):
        rng = np.random.default_rng(seed)
        n = 32
        a = rng.integers(0, q, size=n, dtype=np.int64)
        b = rng.integers(0, q, size=n, dtype=np.int64)
        full = np.convolve(a, b)
        # Negacyclic reduction: X^n = -1.
        reduced = full[:n].copy()
        reduced[: n - 1] -= full[n:]
        expect = np.mod(reduced, q)
        assert np.array_equal(ntt_polymul(a, b, q), expect)


def ghash_matrix_rows_loop(h: bytes, blocks: int) -> np.ndarray:
    """Reference for :func:`ghash_matrix_rows`: each power of the
    multiply-by-H matrix by numpy's integer matmul, masked."""
    m1 = _mul_by_h_matrix(h)
    rows = np.zeros((128, blocks * 128), dtype=np.uint8)
    power = m1
    for i in range(blocks - 1, -1, -1):
        rows[:, i * 128:(i + 1) * 128] = power
        if i:
            power = (m1 @ power) & 1
    return rows


def crc_matrix_rows_loop(width: int, length: int) -> tuple[np.ndarray, int]:
    """Reference for :func:`crc_matrix_rows`: the byte-step columns by
    numpy's integer matmul, masked."""
    z, cols = crc_step_matrices(width)
    rows = np.zeros((width, length * 8), dtype=np.uint8)
    for p in range(length - 1, -1, -1):
        rows[:, p * 8:(p + 1) * 8] = cols
        if p:
            cols = (z @ cols) & 1
    return rows, crc_ref(bytes(length), width)


class TestLoweringKernels:
    """The float32 GF(2) products equal the integer-matmul loops."""

    @pytest.mark.parametrize("blocks", [1, 4, 32])
    @pytest.mark.parametrize("h", [
        bytes.fromhex("66e94bd4ef8a2c3b884cfa59ca342b2e"),
        bytes(15) + b"\x01",
        b"\xff" * 16,
        bytes(range(16)),
    ])
    def test_ghash_matrix_rows_match_the_loop(self, h, blocks):
        rows = ghash_matrix_rows(h, blocks)
        assert rows.dtype == np.uint8
        assert np.array_equal(rows, ghash_matrix_rows_loop(h, blocks))

    @pytest.mark.parametrize("length", [1, 64, 512])
    @pytest.mark.parametrize("width", [32, 64])
    def test_crc_matrix_rows_match_the_loop(self, width, length):
        rows, c0 = crc_matrix_rows(width, length)
        ref_rows, ref_c0 = crc_matrix_rows_loop(width, length)
        assert rows.dtype == np.uint8
        assert np.array_equal(rows, ref_rows) and c0 == ref_c0


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"ghash_blocks": 3},
        {"ghash_blocks": 6},
        {"crc_bytes": 96},
        {"ntt_n": 48},
        {"ntt_q": 3000},
    ])
    def test_rejects_bad_shapes(self, kwargs):
        with pytest.raises(ValueError):
            CryptoConfig(**kwargs)

    def test_rejects_unknown_kernel_and_variant(self):
        with pytest.raises(ValueError):
            run_crypto("sha3", "cc", small_machine(), SMALL)
        with pytest.raises(ValueError):
            run_crypto("ghash", "simd", small_machine(), SMALL)


class TestMachineBitExactness:
    @pytest.mark.parametrize("kernel", CRYPTO_KERNELS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cc_and_scalar_match_reference(self, kernel, backend):
        cc = run_crypto(kernel, "cc", small_machine(backend), SMALL)
        scalar = run_crypto(kernel, "scalar", small_machine(backend), SMALL)
        assert cc.stats["matches_reference"]
        assert scalar.stats["matches_reference"]
        assert output_digest(cc) == output_digest(scalar)

    @pytest.mark.parametrize("kernel", CRYPTO_KERNELS)
    def test_backends_bit_identical(self, kernel):
        digests = {
            backend: output_digest(
                run_crypto(kernel, "cc", small_machine(backend), SMALL))
            for backend in BACKENDS
        }
        assert len(set(digests.values())) == 1, digests

    @pytest.mark.parametrize("kernel", CRYPTO_KERNELS)
    def test_cc_lowering_spends_cc_instructions(self, kernel):
        cc = run_crypto(kernel, "cc", small_machine(), SMALL)
        scalar = run_crypto(kernel, "scalar", small_machine(), SMALL)
        assert cc.stats["cc_instructions"] > 0
        assert cc.instructions < scalar.instructions


class TestFaultAudit:
    @pytest.mark.parametrize("kernel", CRYPTO_KERNELS)
    def test_zero_silent_corruption(self, kernel):
        campaign = run_crypto_campaign(kernel)
        assert campaign["injected_total"] > 0, campaign
        assert campaign["detected_total"] > 0, campaign
        assert campaign["silent"] == 0, campaign
        # The machine's recovery story held, so the surviving output must
        # still pass the kernel's own integrity oracle.
        assert campaign["golden_matches_reference"]
        assert campaign["faulty_matches_reference"]
        assert campaign["faulty_digest"] == campaign["golden_digest"]

    def test_campaign_covers_machine_fault_kinds(self):
        campaign = run_crypto_campaign("crc32")
        kinds = {k for k, n in campaign["injected"].items() if n}
        assert any(k.startswith("sram.") for k in kinds), kinds
        assert any(k.startswith("controller.") for k in kinds), kinds
        assert any(k.startswith("directory.") for k in kinds), kinds
