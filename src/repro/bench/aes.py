"""AES-256 encryption/decryption in ECB mode (Table I, Cryptography).

The state is held as 16 byte-plane objects (plane i holds byte i of every
block), processed with bulk PIM operations exactly as a bit-sliced PIM
implementation would (the paper adopts the gate-level lookup of
Hajihassani et al. [25]):

* AddRoundKey  -- one ``xor_scalar`` per plane (the round-key byte is a
  broadcast constant),
* ShiftRows    -- a pure relabeling of plane handles (byte planes are
  whole objects, so the rotation costs nothing, as in-situ layouts allow),
* MixColumns   -- real GF(2^8) constant multiplications built from
  shift/mul_scalar/xor PIM commands (xtime chains), and
* SubBytes     -- functionally a byte substitution; its PIM cost is
  modeled as the 113-gate Boyar-Peralta bit-sliced S-box circuit (32 AND +
  81 XOR single-bit operations per byte position), issued against
  bit-plane scratch objects.  This is the one step whose functional result
  is applied via the host shadow rather than through gate-by-gate API
  calls; DESIGN.md documents the substitution.

Bit-serial wins among PIM variants (logic-dominated work plus maximal
parallelism) and beats the CPU, while the AES-NI-equipped baselines keep
the GPU ahead -- the Section VIII "AES" finding.
"""

from __future__ import annotations

import typing

from repro.baselines.roofline import KernelProfile
from repro.bench import aes_reference as ref
from repro.bench.common import PimBenchmark
from repro.config.device import PimDataType
from repro.core.commands import PimCmdKind
from repro.host.model import HostModel

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.core.device import PimDevice
    from repro.core.object import PimObject

#: Boyar-Peralta bit-sliced AES S-box circuit size (gates per byte).
SBOX_AND_GATES = 32
SBOX_XOR_GATES = 81


class _PlaneState:
    """The 16 byte planes plus scratch objects of one AES computation."""

    def __init__(self, device: PimDevice, num_blocks: int) -> None:
        import numpy as np

        self.device = device
        base = device.alloc(num_blocks, PimDataType.UINT8)
        self.planes = [base] + [
            device.alloc_associated(base) for _ in range(15)
        ]
        # One _gf_multiple can hold up to 7 temporaries live at once (the
        # result plus three xtime stages of two temps each); a pool of 8
        # cycled slots guarantees no clobbering within one call chain.
        self.scratch = [device.alloc_associated(base) for _ in range(8)]
        self.bit_scratch = [
            device.alloc_associated(base, PimDataType.BOOL) for _ in range(3)
        ]
        if device.functional:
            # Scratch contents are don't-cares; give them zero shadows so
            # the functional engine can run the modeled gate traffic.
            for obj in self.scratch:
                obj.set_data(np.zeros(num_blocks, dtype=np.uint8))
            for obj in self.bit_scratch:
                obj.set_data(np.zeros(num_blocks, dtype=bool))
        self._scratch_cursor = 0

    def temp(self) -> PimObject:
        obj = self.scratch[self._scratch_cursor]
        self._scratch_cursor = (self._scratch_cursor + 1) % len(self.scratch)
        return obj

    def free_all(self) -> None:
        for obj in self.planes + self.scratch + self.bit_scratch:
            self.device.free(obj)


def _gf_multiple(state: _PlaneState, plane: PimObject, factor: int) -> PimObject:
    """Multiply a byte plane by a small GF(2^8) constant with PIM ops.

    Builds the result from xtime chains (shift, high-bit extract,
    conditional 0x1B reduction, xor), returning a scratch object -- or the
    input itself for factor 1.
    """
    device = state.device
    if factor == 1:
        return plane
    result: "PimObject | None" = None
    power = plane
    remaining = factor
    while remaining:
        if remaining & 1:
            if result is None:
                result = state.temp()
                device.execute(PimCmdKind.COPY, (power,), result)
            else:
                device.execute(PimCmdKind.XOR, (result, power), result)
        remaining >>= 1
        if remaining:
            power = _xtime(state, power)
    assert result is not None
    return result


def _xtime(state: _PlaneState, plane: PimObject) -> PimObject:
    """GF(2^8) doubling of a byte plane: (x << 1) ^ (0x1B if x & 0x80)."""
    device = state.device
    shifted = state.temp()
    device.execute(PimCmdKind.SHIFT_LEFT, (plane,), shifted, scalar=1)
    reduction = state.temp()
    device.execute(PimCmdKind.SHIFT_RIGHT, (plane,), reduction, scalar=7)
    device.execute(PimCmdKind.MUL_SCALAR, (reduction,), reduction, scalar=0x1B)
    device.execute(PimCmdKind.XOR, (shifted, reduction), shifted)
    return shifted


def _add_round_key(state: _PlaneState, round_key: np.ndarray) -> None:
    for i, plane in enumerate(state.planes):
        state.device.execute(
            PimCmdKind.XOR_SCALAR, (plane,), plane, scalar=int(round_key[i])
        )


def _sub_bytes(state: _PlaneState, table: np.ndarray) -> None:
    """Byte substitution: bit-sliced gate cost + host-shadow functional
    application (see module docstring)."""
    device = state.device
    b0, b1, b2 = state.bit_scratch
    device.execute(PimCmdKind.AND, (b0, b1), b2, repeat=SBOX_AND_GATES * 16)
    device.execute(PimCmdKind.XOR, (b0, b1), b2, repeat=SBOX_XOR_GATES * 16)
    if device.functional:
        for plane in state.planes:
            plane.data = table[plane.require_data()]


def _shift_rows(state: _PlaneState, inverse: bool) -> None:
    """Rotate the state rows by relabeling the plane handles."""
    new_planes = list(state.planes)
    for r in range(1, 4):
        for c in range(4):
            src_c = (c + r) % 4 if not inverse else (c - r) % 4
            new_planes[4 * c + r] = state.planes[4 * src_c + r]
    state.planes = new_planes


def _mix_one_column(
    state: _PlaneState, matrix: "list[list[int]]", c: int
) -> None:
    device = state.device
    column = [state.planes[4 * c + r] for r in range(4)]
    outputs = []
    for r in range(4):
        acc: "PimObject | None" = None
        for k in range(4):
            term = _gf_multiple(state, column[k], matrix[r][k])
            if acc is None:
                acc = device.alloc_associated(column[0])
                device.execute(PimCmdKind.COPY, (term,), acc)
            else:
                device.execute(PimCmdKind.XOR, (acc, term), acc)
        outputs.append(acc)
    for r in range(4):
        device.execute(PimCmdKind.COPY, (outputs[r],), column[r])
        device.free(outputs[r])


def _mix_columns(state: _PlaneState, matrix: "list[list[int]]") -> None:
    if state.device.functional:
        for c in range(4):
            _mix_one_column(state, matrix, c)
        return
    # Analytic mode: the four columns issue the identical command sequence
    # (the MIX rows are rotations of one another and every plane shares the
    # same associated layout), so record column 0 and replay the other
    # three (docs/PERFORMANCE.md §5).
    stats = state.device.stats
    with stats.recorded_trace() as trace:
        _mix_one_column(state, matrix, 0)
    stats.replay_trace(trace, times=3)


class AesEncryptBenchmark(PimBenchmark):
    key = "aes-enc"
    name = "AES-Encryption"
    domain = "Cryptography"
    execution_type = "PIM"
    random_access = True
    paper_input = "1,035,544,320 Bytes"
    decrypt = False

    @classmethod
    def default_params(cls):
        return {"num_bytes": 512, "seed": 17}

    @classmethod
    def paper_params(cls):
        return {"num_bytes": 1_035_544_320, "seed": 17}

    def _round_keys(self) -> np.ndarray:
        import numpy as np

        rng = np.random.default_rng(self.params["seed"])
        key = rng.integers(0, 256, size=32, dtype=np.uint8).tobytes()
        return ref.expand_key(key)

    def run_pim(self, device: PimDevice, host: HostModel):
        import numpy as np

        num_bytes = self.params["num_bytes"]
        num_blocks = num_bytes // ref.BLOCK_BYTES
        if num_blocks == 0:
            raise ValueError("input must be at least one 16-byte block")
        round_keys = self._round_keys()
        blocks = None
        if device.functional:
            rng = np.random.default_rng(self.params["seed"] + 1)
            blocks = rng.integers(
                0, 256, size=(num_blocks, ref.BLOCK_BYTES), dtype=np.uint8
            )
        state = _PlaneState(device, num_blocks)
        for i, plane in enumerate(state.planes):
            device.copy_host_to_device(
                blocks[:, i] if blocks is not None else None, plane
            )
        if self.decrypt:
            self._decrypt(state, round_keys)
        else:
            self._encrypt(state, round_keys)
        result = None
        if device.functional:
            result = np.stack(
                [device.copy_device_to_host(p) for p in state.planes], axis=1
            )
        else:
            for plane in state.planes:
                device.copy_device_to_host(plane)
        state.free_all()
        if device.functional:
            return {"blocks": blocks, "round_keys": round_keys, "result": result}
        return None

    def _encrypt(self, state: _PlaneState, round_keys: np.ndarray) -> None:
        box = ref.sbox()
        _add_round_key(state, round_keys[0])
        for rnd in range(1, ref.NUM_ROUNDS):
            _sub_bytes(state, box)
            _shift_rows(state, inverse=False)
            _mix_columns(state, ref.MIX)
            _add_round_key(state, round_keys[rnd])
        _sub_bytes(state, box)
        _shift_rows(state, inverse=False)
        _add_round_key(state, round_keys[ref.NUM_ROUNDS])

    def _decrypt(self, state: _PlaneState, round_keys: np.ndarray) -> None:
        box = ref.inv_sbox()
        _add_round_key(state, round_keys[ref.NUM_ROUNDS])
        for rnd in range(ref.NUM_ROUNDS - 1, 0, -1):
            _shift_rows(state, inverse=True)
            _sub_bytes(state, box)
            _add_round_key(state, round_keys[rnd])
            _mix_columns(state, ref.INV_MIX)
        _shift_rows(state, inverse=True)
        _sub_bytes(state, box)
        _add_round_key(state, round_keys[0])

    def verify(self, outputs) -> bool:
        import numpy as np

        transform = ref.decrypt_blocks if self.decrypt else ref.encrypt_blocks
        expected = transform(outputs["blocks"], outputs["round_keys"])
        return np.array_equal(outputs["result"], expected)

    def cpu_profile(self) -> KernelProfile:
        n = self.params["num_bytes"]
        # OpenSSL with AES-NI: ~1.4 cycles/byte/core -> ~45 GB/s across the
        # 16-core EPYC; compute-bound (efficiency 45/475 of int peak).
        return KernelProfile(
            name="cpu-aes",
            bytes_accessed=2.0 * n,
            compute_ops=float(n),
            mem_efficiency=0.8,
            compute_efficiency=0.095,
        )

    def gpu_profile(self) -> KernelProfile:
        n = self.params["num_bytes"]
        # Tuned GPU AES kernels sustain several hundred GB/s.
        return KernelProfile(
            name="gpu-aes",
            bytes_accessed=2.0 * n,
            compute_ops=float(n),
            mem_efficiency=0.8,
            compute_efficiency=0.02,
        )


class AesDecryptBenchmark(AesEncryptBenchmark):
    key = "aes-dec"
    name = "AES-Decryption"
    decrypt = True
