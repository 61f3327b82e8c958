"""The memoized cost pipeline: transparent, keyed right, switchable.

Three claims (docs/PERFORMANCE.md §5):

* transparency -- memoized and unmemoized runs produce byte-identical
  results (same suite JSON, same bus event stream),
* key correctness -- commands in the same shape class share an entry,
  commands whose cost genuinely differs do not, and
* ``CostPipeline(..., enabled=False)`` disables memoization.

The unmemoized runs substitute that pipeline where
:class:`~repro.core.device.PimDevice` builds its own.
"""

import functools

import pytest

from repro.config import bitserial_config, fulcrum_config
from repro.core.commands import PimCmdKind
from repro.core.device import PimDevice
from repro.obs import EventBus, RingBufferSink
from repro.perf.memo import CostPipeline


@pytest.fixture
def memo_switch(monkeypatch):
    """``switch(disable)``: devices built afterwards memoize unless
    ``disable`` is true."""

    def switch(disable: bool) -> None:
        pipeline = (
            functools.partial(CostPipeline, enabled=False)
            if disable
            else CostPipeline
        )
        monkeypatch.setattr("repro.core.device.CostPipeline", pipeline)

    return switch


def _analytic(config):
    return PimDevice(config, functional=False)


def _vectors(device, n=512):
    obj_a = device.alloc(n)
    obj_b = device.alloc_associated(obj_a)
    dest = device.alloc_associated(obj_a)
    return obj_a, obj_b, dest


class TestMemoHitBehavior:
    def test_repeated_shape_hits(self):
        device = _analytic(bitserial_config(4))
        obj_a, obj_b, dest = _vectors(device)
        for _ in range(5):
            device.execute(PimCmdKind.ADD, (obj_a, obj_b), dest)
        assert device.pipeline.misses == 1
        assert device.pipeline.hits == 4
        assert len(device.pipeline) == 1

    def test_memoized_pair_is_the_model_output(self):
        device = _analytic(bitserial_config(4))
        obj_a, obj_b, dest = _vectors(device)
        device.execute(PimCmdKind.ADD, (obj_a, obj_b), dest)
        device.execute(PimCmdKind.ADD, (obj_a, obj_b), dest)
        from repro.perf.base import CommandArgs

        args = CommandArgs(
            kind=PimCmdKind.ADD, bits=obj_a.bits,
            inputs=(obj_a.layout, obj_b.layout), dest=dest.layout,
            scalar=None, signed=obj_b.dtype.signed,
        )
        cost, energy = device.pipeline.cost_and_energy(args)
        assert cost == device.perf.cost_of(args)
        assert energy == device.energy.command_energy(device.perf.cost_of(args))

    def test_microcoded_scalar_values_are_distinct_keys(self):
        # Bit-serial scalar microprograms depend on the scalar's bits:
        # different masked scalars must not share an entry.
        device = _analytic(bitserial_config(4))
        obj_a, _, dest = _vectors(device)
        device.execute(PimCmdKind.ADD_SCALAR, (obj_a,), dest, scalar=5)
        device.execute(PimCmdKind.ADD_SCALAR, (obj_a,), dest, scalar=6)
        assert device.pipeline.misses == 2
        # ... but a repeated scalar is a hit.
        device.execute(PimCmdKind.ADD_SCALAR, (obj_a,), dest, scalar=5)
        assert device.pipeline.hits == 1

    def test_word_alu_scalars_share_an_entry(self):
        # Fulcrum's word-ALU cost is scalar-independent, and its backend
        # says so (cost_memo_param -> None): any scalar shares the entry.
        device = _analytic(fulcrum_config(4))
        obj_a, _, dest = _vectors(device)
        device.execute(PimCmdKind.ADD_SCALAR, (obj_a,), dest, scalar=5)
        device.execute(PimCmdKind.ADD_SCALAR, (obj_a,), dest, scalar=999_999)
        assert device.pipeline.misses == 1
        assert device.pipeline.hits == 1
        # The class is genuinely cost-equivalent: a fresh derivation for
        # the second scalar matches what the memo served.
        from repro.perf.base import CommandArgs

        args = CommandArgs(
            kind=PimCmdKind.ADD_SCALAR, bits=obj_a.bits,
            inputs=(obj_a.layout,), dest=dest.layout,
            scalar=999_999, signed=obj_a.dtype.signed,
        )
        assert device.pipeline.cost_and_energy(args)[0] == device.perf.cost_of(args)

    def test_shift_amounts_are_distinct_keys(self):
        device = _analytic(bitserial_config(4))
        obj_a, _, dest = _vectors(device)
        device.execute(PimCmdKind.SHIFT_LEFT, (obj_a,), dest, scalar=1)
        device.execute(PimCmdKind.SHIFT_LEFT, (obj_a,), dest, scalar=2)
        assert device.pipeline.misses == 2


class TestEscapeHatch:
    def test_disabled_pipeline_skips_memoization(self, memo_switch):
        memo_switch(disable=True)
        device = _analytic(bitserial_config(4))
        assert not device.pipeline.enabled
        obj_a, obj_b, dest = _vectors(device)
        for _ in range(3):
            device.execute(PimCmdKind.ADD, (obj_a, obj_b), dest)
        assert len(device.pipeline) == 0
        assert device.pipeline.hits == 0 and device.pipeline.misses == 0

    def test_memoizes_by_default(self):
        device = _analytic(bitserial_config(4))
        assert device.pipeline.enabled
        pipeline = CostPipeline(
            device.perf, device.energy, device.pipeline.backend
        )
        assert pipeline.enabled

    def test_disabled_run_is_byte_identical(self, memo_switch):
        def run(disable: bool):
            memo_switch(disable)
            device = _analytic(bitserial_config(4))
            obj_a, obj_b, dest = _vectors(device)
            for scalar in (3, 3, 9, 3):
                device.execute(PimCmdKind.ADD_SCALAR, (obj_a,), dest, scalar=scalar)
                device.execute(PimCmdKind.ADD, (obj_a, obj_b), dest)
                device.execute(PimCmdKind.REDSUM, (dest,))
            return device.stats

        memoized = run(disable=False)
        plain = run(disable=True)
        assert memoized.snapshot() == plain.snapshot()
        assert memoized.commands == plain.commands


class TestSuiteTransparency:
    """The acceptance claim: suite JSON is byte-identical either way."""

    KEYS = ("vecadd", "kmeans", "histogram")

    @staticmethod
    def _suite_json(memo_switch, disable: bool) -> str:
        from repro.experiments.runner import export_suite_json, run_suite
        from repro.obs.telemetry import telemetry_log

        memo_switch(disable)
        logged = len(telemetry_log())
        # Only the scalar path repeats the lookups the memo serves; one
        # job keeps every cell in this process, where the substitution
        # applies.
        suite = run_suite(
            keys=TestSuiteTransparency.KEYS, use_cache=False, vector=False,
            jobs=1,
        )
        lookups = [t.memo_lookups for t in telemetry_log()[logged:]]
        assert lookups and all(bool(n) != disable for n in lookups)
        return export_suite_json(suite)

    def test_reduced_suite_byte_identical(self, memo_switch):
        memoized = self._suite_json(memo_switch, disable=False)
        plain = self._suite_json(memo_switch, disable=True)
        assert memoized == plain

    def test_bus_stream_identical(self, memo_switch):
        def stream(disable: bool):
            memo_switch(disable)
            bus = EventBus()
            sink = bus.subscribe(RingBufferSink())
            device = PimDevice(
                bitserial_config(4), functional=False, bus=bus
            )
            obj_a, obj_b, dest = _vectors(device)
            for _ in range(4):
                device.execute(PimCmdKind.ADD, (obj_a, obj_b), dest)
                device.execute(PimCmdKind.MUL_SCALAR, (obj_a,), dest, scalar=7)
            return [
                (e.name, e.cat, e.ph, e.ts_ns, e.dur_ns, e.args)
                for e in sink.events
            ]

        assert stream(False) == stream(True)
