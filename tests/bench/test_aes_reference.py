"""Tests for the host AES-256 reference against FIPS-197 values."""

import hashlib

import numpy as np
import pytest

from repro.bench import aes_reference as ref


class TestGaloisField:
    def test_known_products(self):
        assert ref.gf_mul(0x57, 0x83) == 0xC1  # FIPS-197 example
        assert ref.gf_mul(0x57, 0x13) == 0xFE

    def test_identity_and_zero(self):
        assert ref.gf_mul(0xAB, 1) == 0xAB
        assert ref.gf_mul(0xAB, 0) == 0

    def test_inverse_table(self):
        inverse = ref.gf_inverse_table()
        for x in (1, 2, 3, 0x53, 0xFF):
            assert ref.gf_mul(x, inverse[x]) == 1
        assert inverse[0] == 0

    def test_inverse_table_equals_brute_force(self):
        """The log/antilog table against an exhaustive gf_mul search."""
        brute = [0] * 256
        for x in range(1, 256):
            brute[x] = next(y for y in range(1, 256) if ref.gf_mul(x, y) == 1)
        assert list(ref.gf_inverse_table()) == brute


class TestSbox:
    def test_fips_known_entries(self):
        box = ref.sbox()
        assert box[0x00] == 0x63
        assert box[0x01] == 0x7C
        assert box[0x53] == 0xED
        assert box[0xFF] == 0x16

    def test_tables_are_pinned(self):
        """Both 256-entry tables, byte for byte (SHA-256 of each)."""
        assert hashlib.sha256(ref.sbox().tobytes()).hexdigest() == (
            "c2d8e5eed6cbebd8625fc18f81486a7733c04f9b0129ffbe974c68b90308b4f2"
        )
        assert hashlib.sha256(ref.inv_sbox().tobytes()).hexdigest() == (
            "93631b0726f6fe6629daa743ee51b49f4477ed07391b68eeea0672a4a90018aa"
        )

    def test_inverse_sbox_inverts(self):
        box, inverse = ref.sbox(), ref.inv_sbox()
        values = np.arange(256, dtype=np.uint8)
        assert np.array_equal(inverse[box[values]], values)


class TestKeyExpansion:
    def test_round_key_count(self):
        keys = ref.expand_key(bytes(range(32)))
        assert keys.shape == (15, 16)

    def test_first_round_key_is_the_key(self):
        key = bytes(range(32))
        keys = ref.expand_key(key)
        assert bytes(keys[0]) + bytes(keys[1]) == key

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            ref.expand_key(bytes(16))


class TestKnownAnswer:
    def test_fips197_c3_encrypt(self):
        """FIPS-197 Appendix C.3 AES-256 known-answer test."""
        key = bytes(range(32))
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        keys = ref.expand_key(key)
        blocks = np.frombuffer(plaintext, dtype=np.uint8).reshape(1, 16)
        assert bytes(ref.encrypt_blocks(blocks, keys)[0]) == expected

    def test_fips197_c3_decrypt(self):
        key = bytes(range(32))
        ciphertext = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        expected = bytes.fromhex("00112233445566778899aabbccddeeff")
        keys = ref.expand_key(key)
        blocks = np.frombuffer(ciphertext, dtype=np.uint8).reshape(1, 16)
        assert bytes(ref.decrypt_blocks(blocks, keys)[0]) == expected

    def test_roundtrip_many_blocks(self, rng):
        keys = ref.expand_key(rng.integers(0, 256, 32, dtype=np.uint8).tobytes())
        blocks = rng.integers(0, 256, (64, 16)).astype(np.uint8)
        encrypted = ref.encrypt_blocks(blocks, keys)
        assert not np.array_equal(encrypted, blocks)
        assert np.array_equal(ref.decrypt_blocks(encrypted, keys), blocks)
