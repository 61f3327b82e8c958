"""Host reference implementation of AES-256 in ECB mode.

A vectorized numpy implementation used to verify the PIM AES benchmark
(Section V-E functional verification) and to seed its round keys.  All
tables are generated from first principles (GF(2^8) arithmetic with the
AES polynomial 0x11B), so correctness is checked structurally by tests
against the FIPS-197 known values (S-box[0x00] = 0x63, etc.).
"""

from __future__ import annotations

import functools
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

AES_POLY = 0x11B
NUM_ROUNDS = 14  # AES-256
KEY_WORDS = 8  # Nk for a 256-bit key
BLOCK_BYTES = 16


def gf_mul(a: int, b: int) -> int:
    """GF(2^8) product under the AES polynomial (Russian peasant)."""
    product = 0
    a &= 0xFF
    b &= 0xFF
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        if a & 0x100:
            a ^= AES_POLY
        b >>= 1
    return product


@functools.lru_cache(maxsize=1)
def gf_inverse_table() -> "tuple[int, ...]":
    """Multiplicative inverses in GF(2^8), with inverse(0) := 0.

    Log/antilog construction: 3 generates the multiplicative group, so
    with ``x = 3**k`` the inverse is ``3**(255 - k)``.
    """
    antilog = [0] * 255
    log = [0] * 256
    power = 1
    for k in range(255):
        antilog[k] = power
        log[power] = k
        power ^= power << 1  # power * 3 = power * x + power
        if power & 0x100:
            power ^= AES_POLY
    inverse = [0] * 256
    for x in range(1, 256):
        inverse[x] = antilog[(255 - log[x]) % 255]
    return tuple(inverse)


def _affine(x: int) -> int:
    """The AES S-box affine transform over GF(2)."""
    result = 0x63
    for shift in range(5):  # x ^ rotl1 ^ rotl2 ^ rotl3 ^ rotl4
        rotated = ((x << shift) | (x >> (8 - shift))) & 0xFF
        result ^= rotated
    return result


@functools.lru_cache(maxsize=1)
def sbox() -> np.ndarray:
    """The AES S-box as a 256-entry uint8 lookup table."""
    import numpy as np

    inverse = gf_inverse_table()
    return np.array([_affine(inverse[x]) for x in range(256)], dtype=np.uint8)


@functools.lru_cache(maxsize=1)
def inv_sbox() -> np.ndarray:
    """The inverse S-box."""
    import numpy as np

    forward = sbox()
    table = np.zeros(256, dtype=np.uint8)
    table[forward] = np.arange(256, dtype=np.uint8)
    return table


def expand_key(key: "bytes | np.ndarray") -> np.ndarray:
    """AES-256 key schedule; returns (NUM_ROUNDS + 1, 16) round keys."""
    import numpy as np

    key = np.frombuffer(bytes(key), dtype=np.uint8)
    if key.size != 4 * KEY_WORDS:
        raise ValueError(f"AES-256 needs a 32-byte key, got {key.size} bytes")
    box = sbox()
    words = [key[4 * i: 4 * i + 4].copy() for i in range(KEY_WORDS)]
    rcon = 1
    total_words = 4 * (NUM_ROUNDS + 1)
    for i in range(KEY_WORDS, total_words):
        temp = words[i - 1].copy()
        if i % KEY_WORDS == 0:
            temp = np.roll(temp, -1)
            temp = box[temp]
            temp[0] ^= rcon
            rcon = gf_mul(rcon, 2)
        elif i % KEY_WORDS == 4:
            temp = box[temp]
        words.append(words[i - KEY_WORDS] ^ temp)
    flat = np.concatenate(words)
    return flat.reshape(NUM_ROUNDS + 1, BLOCK_BYTES)


def _to_state(blocks: np.ndarray) -> np.ndarray:
    """(n, 16) byte blocks -> (n, 4, 4) states; state[:, r, c] = byte 4c+r."""
    return blocks.reshape(-1, 4, 4).transpose(0, 2, 1)


def _from_state(state: np.ndarray) -> np.ndarray:
    return state.transpose(0, 2, 1).reshape(-1, BLOCK_BYTES)


def _shift_rows(state: np.ndarray) -> np.ndarray:
    import numpy as np

    out = state.copy()
    for r in range(1, 4):
        out[:, r, :] = np.roll(state[:, r, :], -r, axis=1)
    return out


def _inv_shift_rows(state: np.ndarray) -> np.ndarray:
    import numpy as np

    out = state.copy()
    for r in range(1, 4):
        out[:, r, :] = np.roll(state[:, r, :], r, axis=1)
    return out


def _xtime(x: np.ndarray) -> np.ndarray:
    import numpy as np

    return (np.left_shift(x, 1) ^ np.where(x & 0x80, 0x1B, 0)).astype(np.uint8)


def _gf_mul_vec(x: np.ndarray, factor: int) -> np.ndarray:
    """Multiply a byte array by a small constant in GF(2^8)."""
    import numpy as np

    result = np.zeros_like(x)
    power = x.copy()
    while factor:
        if factor & 1:
            result ^= power
        power = _xtime(power)
        factor >>= 1
    return result


def _mix_columns(state: np.ndarray, matrix: "list[list[int]]") -> np.ndarray:
    import numpy as np

    out = np.zeros_like(state)
    for r in range(4):
        for k in range(4):
            out[:, r, :] ^= _gf_mul_vec(state[:, k, :], matrix[r][k])
    return out


MIX = [[2, 3, 1, 1], [1, 2, 3, 1], [1, 1, 2, 3], [3, 1, 1, 2]]
INV_MIX = [[14, 11, 13, 9], [9, 14, 11, 13], [13, 9, 14, 11], [11, 13, 9, 14]]


def encrypt_blocks(blocks: np.ndarray, round_keys: np.ndarray) -> np.ndarray:
    """ECB-encrypt (n, 16) uint8 blocks with expanded round keys."""
    import numpy as np

    box = sbox()
    state = _to_state(blocks.astype(np.uint8) ^ round_keys[0])
    for rnd in range(1, NUM_ROUNDS):
        state = box[state]
        state = _shift_rows(state)
        state = _mix_columns(state, MIX)
        state = _to_state(_from_state(state) ^ round_keys[rnd])
    state = box[state]
    state = _shift_rows(state)
    return _from_state(state) ^ round_keys[NUM_ROUNDS]


def decrypt_blocks(blocks: np.ndarray, round_keys: np.ndarray) -> np.ndarray:
    """ECB-decrypt (n, 16) uint8 blocks with expanded round keys."""
    import numpy as np

    box = inv_sbox()
    state = _to_state(blocks.astype(np.uint8) ^ round_keys[NUM_ROUNDS])
    for rnd in range(NUM_ROUNDS - 1, 0, -1):
        state = _inv_shift_rows(state)
        state = box[state]
        state = _to_state(_from_state(state) ^ round_keys[rnd])
        state = _mix_columns(state, INV_MIX)
    state = _inv_shift_rows(state)
    state = box[state]
    return _from_state(state) ^ round_keys[0]
