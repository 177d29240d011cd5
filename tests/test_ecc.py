"""ECC tests: SECDED correctness, linearity, the XOR check and the scrub
side-band (IV-I)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ComputeCacheMachine
from repro.bitops import bytes_xor
from repro.core.ecc import (
    check_block,
    check_word,
    encode_block,
    encode_word,
    xor_check,
)
from repro.core.scrub import ScrubService
from repro.errors import ECCError
from repro.params import small_test_machine

word = st.integers(min_value=0, max_value=2**64 - 1)
block = st.binary(min_size=64, max_size=64)


class TestSECDEDWord:
    @given(word)
    @settings(max_examples=60)
    def test_clean_word_passes(self, w):
        assert check_word(w, encode_word(w)) == w

    @given(word, st.integers(0, 63))
    @settings(max_examples=60)
    def test_single_data_bit_corrected(self, w, bit):
        corrupted = w ^ (1 << bit)
        assert check_word(corrupted, encode_word(w)) == w

    @given(word, st.integers(0, 7))
    @settings(max_examples=40)
    def test_single_check_bit_tolerated(self, w, bit):
        bad_check = encode_word(w) ^ (1 << bit)
        assert check_word(w, bad_check) == w

    @given(word, st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=60)
    def test_double_bit_detected(self, w, b1, b2):
        if b1 == b2:
            return
        corrupted = w ^ (1 << b1) ^ (1 << b2)
        with pytest.raises(ECCError):
            check_word(corrupted, encode_word(w))

    @given(word, word)
    @settings(max_examples=60)
    def test_linearity(self, a, b):
        """ECC(a ^ b) == ECC(a) ^ ECC(b) - the property the in-place
        logical-op check relies on."""
        assert encode_word(a ^ b) == encode_word(a) ^ encode_word(b)


class TestBlockCodec:
    def test_block_round_trip(self, make_bytes):
        data = make_bytes(64)
        ecc = encode_block(data)
        assert len(ecc) == 8
        assert check_block(data, ecc) == data

    def test_block_correction(self, make_bytes):
        data = bytearray(make_bytes(64))
        ecc = encode_block(bytes(data))
        original = bytes(data)
        data[17] ^= 0x04  # single-bit flip in word 2
        corrected = check_block(bytes(data), ecc)
        assert corrected == original
        assert check_block(corrected, ecc) == corrected

    def test_length_mismatch(self):
        with pytest.raises(ECCError):
            check_block(bytes(64), bytes(4))


class TestPerOpSchemes:
    def test_buz_scheme(self):
        """cc_buz needs no ECC logic: the linear code gives the zero block
        all-zero check bytes."""
        assert encode_block(bytes(64)) == bytes(8)

    @given(block, block)
    @settings(max_examples=30)
    def test_xor_check_accepts_clean(self, a, b):
        ea, eb = encode_block(a), encode_block(b)
        result_ecc = xor_check(bytes_xor(a, b), ea, eb)
        assert result_ecc == encode_block(bytes_xor(a, b))

    def test_xor_check_detects_operand_error(self, make_bytes):
        a, b = make_bytes(64), make_bytes(64)
        ea, eb = encode_block(a), encode_block(b)
        corrupted = bytearray(a)
        corrupted[5] ^= 0x10
        with pytest.raises(ECCError):
            xor_check(bytes_xor(bytes(corrupted), b), ea, eb)


class TestScrubber:
    """The side-band a :class:`ScrubService` keeps for its level."""

    @pytest.fixture
    def machine(self, make_bytes):
        m = ComputeCacheMachine(small_test_machine())
        addr = m.arena.alloc_page_aligned(512)
        m.load(addr, make_bytes(512))
        m.warm_l3(addr, 256)
        return m, addr

    @pytest.fixture
    def level(self, machine):
        m, addr = machine
        return m.hierarchy.l3[m.hierarchy.home_slice(addr, 0)], addr

    def test_scrub_corrects_soft_error(self, level):
        level, addr = level
        service = ScrubService(level)
        service.protect_resident()
        original = level.peek_block(addr)
        service.inject_strike(addr, bit=33 * 8 + 6)  # particle strike
        report = service.scrub_pass()
        assert level.peek_block(addr) == original
        assert report.corrected_addrs == [addr]

    def test_unprotected_block_rejected(self, machine, level):
        """A block filled since the last protect pass has no side-band: the
        sweep leaves it unchecked instead of checking it against nothing."""
        m, _ = machine
        level, addr = level
        service = ScrubService(level)
        protected = service.protect_resident()
        late = addr + 256
        m.warm_l3(late, 64)
        before = level.peek_block(late)
        service.inject_strike(late, bit=5)
        report = service.scrub_pass()
        assert report.blocks_checked == protected
        assert report.corrections == 0 and not report.uncorrectable
        assert level.peek_block(late) != before

    def test_protect_updates(self, level, make_bytes):
        """A protect pass after a write refreshes the side-band: the new
        data scrubs clean, and a strike on it is repaired to the new data."""
        level, addr = level
        service = ScrubService(level)
        service.protect_resident()
        fresh = make_bytes(64)
        level.write_block(addr, fresh, dirty=True)
        service.protect_resident()
        service.inject_strike(addr, bit=300)
        report = service.scrub_pass()
        assert report.corrected_addrs == [addr]
        assert not report.uncorrectable
        assert level.peek_block(addr) == fresh
