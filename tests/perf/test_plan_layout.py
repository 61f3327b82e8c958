"""Record once, lay out per target: the laid-out plan is the live plan.

:func:`repro.perf.plans.layout_plan` maps one target-independent
recording onto a device.  Its contract is bit-identity with the plan a
live ``vector=True`` device exports after running the benchmark's issue
loop on that same device -- every column, every interned table, the
baselines, and the exception a target that cannot fit the program
raises.  These tests compare the two field by field.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.arch import derive_backend, iter_backends, resolve_backend
from repro.baselines.cpu import CpuModel
from repro.baselines.gpu import GpuModel
from repro.bench.registry import BENCHMARKS_BY_KEY
from repro.core.device import PimDevice
from repro.core.errors import PimConfigError
from repro.engine.cells import CellSpec, benchmark_keys
from repro.host.model import HostModel
from repro.perf.plans import PricingPlan, layout_plan, recording_for

BACKENDS = {backend.id: backend for backend in iter_backends()}
PAPER_BACKENDS = ("bitserial", "fulcrum", "bank")
#: Figure 13's single rank with 32x the rows: the layout least like any
#: other target.
FIGURE_13 = (1, (("rows_per_subarray", 1024 * 32),))


def _live_plan(spec, config):
    """The plan a live vector-mode device records for ``spec``."""
    bench = spec.make_benchmark()
    device = PimDevice(
        config, functional=False, enforce_capacity=spec.enforce_capacity,
        vector=True,
    )
    cpu = CpuModel()
    bench.run_pim(device, HostModel(device, cpu))
    cpu_time, cpu_energy = cpu.run(bench.cpu_profile())
    gpu_time, gpu_energy = GpuModel().run(bench.gpu_profile())
    return dataclasses.replace(
        device.stats.export_plan(),
        benchmark_key=spec.benchmark_key, benchmark_name=bench.name,
        cpu_time_ns=cpu_time, cpu_energy_nj=cpu_energy,
        gpu_time_ns=gpu_time, gpu_energy_nj=gpu_energy,
    )


def _fields(plan):
    """Every field of a plan, arrays and floats as dtype + raw bytes."""
    values = {}
    for field in dataclasses.fields(PricingPlan):
        value = getattr(plan, field.name)
        if isinstance(value, np.ndarray):
            value = (value.dtype.str, value.shape, value.tobytes())
        elif isinstance(value, float):
            value = np.float64(value).tobytes()
        values[field.name] = value
    return values


def _outcome(build):
    """A plan's fields, or the exception building it raised."""
    try:
        return _fields(build())
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return (type(exc), str(exc))


def _assert_same(spec, backend, config):
    """Laid-out and live plans agree; returns whether both raised."""
    laid_out = _outcome(lambda: layout_plan(
        recording_for(spec), backend, config, spec.enforce_capacity
    ))
    live = _outcome(lambda: _live_plan(spec, config))
    if isinstance(live, dict) and isinstance(laid_out, dict):
        for name in live:
            assert laid_out[name] == live[name], name
    assert laid_out == live
    return isinstance(live, tuple)


@pytest.mark.parametrize("key", sorted(BENCHMARKS_BY_KEY))
def test_paper_cells_lay_out_as_the_live_run(key):
    """Every paper cell at 1, 4 and 32 ranks and Figure 13's geometry."""
    for backend_id in PAPER_BACKENDS:
        backend = BACKENDS[backend_id]
        for num_ranks, overrides in ((1, ()), (4, ()), (32, ()), FIGURE_13):
            spec = CellSpec(
                key, backend.device_type, num_ranks,
                enforce_capacity=num_ranks == 32,
                geometry_overrides=overrides, vector=True,
            )
            assert not _assert_same(spec, backend, spec.device_config())


def test_capacity_errors_match_the_live_run():
    """Targets too small for the paper inputs raise the live device's
    exception, with its message, at the same allocation."""
    raised = 0
    for key in benchmark_keys():
        for backend in BACKENDS.values():
            for num_ranks in (1, 2):
                spec = CellSpec(
                    key, backend.device_type, num_ranks, vector=True
                )
                raised += _assert_same(
                    spec, backend, backend.make_config(num_ranks)
                )
    assert raised > 0


#: Geometry knob values the random targets draw from (banks divisible
#: by every chip count drawn).
_GEOMETRY_POOL = {
    "num_ranks": (1, 2, 4),
    "num_channels": (1, 2),
    "banks_per_rank": (16, 32, 64),
    "subarrays_per_bank": (8, 32, 64),
    "rows_per_subarray": (256, 1024, 32768),
    "cols_per_subarray": (1024, 8192),
    "gdl_width_bits": (64, 256),
    "chips_per_rank": (4, 8, 16),
}


@st.composite
def _targets(draw):
    backend = BACKENDS[draw(st.sampled_from(sorted(BACKENDS)))]
    names = draw(st.sets(st.sampled_from(sorted(_GEOMETRY_POOL)),
                         min_size=1, max_size=4))
    knobs = {name: draw(st.sampled_from(_GEOMETRY_POOL[name]))
             for name in sorted(names)}
    try:
        derived = derive_backend(backend, knobs)
        config = derived.make_config(draw(st.sampled_from((1, 2, 32))))
    except (PimConfigError, ValueError):
        assume(False)
    return derived, config


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(
    target=_targets(),
    key=st.sampled_from(benchmark_keys()),
    paper_scale=st.booleans(),
    enforce_capacity=st.booleans(),
)
def test_random_geometry_lays_out_as_the_live_run(
    target, key, paper_scale, enforce_capacity
):
    """Over random geometry knobs on every registered backend, the one
    recording lays out as the live run on that target records."""
    backend, config = target
    spec = CellSpec(
        key, backend.device_type, config.dram.geometry.num_ranks,
        paper_scale=paper_scale, enforce_capacity=enforce_capacity,
        vector=True,
    )
    _assert_same(spec, backend, config)


def test_one_recording_serves_every_target():
    """The recording holds no device: the memo hands every target the
    same object, and laying it out never changes it."""
    fulcrum, bank = resolve_backend("fulcrum"), resolve_backend("bank")
    spec = CellSpec("aes-dec", fulcrum.device_type, vector=True)
    recording = recording_for(spec)
    assert recording_for(dataclasses.replace(
        spec, device_type=bank.device_type, num_ranks=4
    )) is recording
    sites = recording.sites
    issues = recording.issue_site.copy()
    for backend in (fulcrum, bank):
        layout_plan(recording, backend, backend.make_config(4), False)
    assert recording.sites == sites
    assert np.array_equal(recording.issue_site, issues)
    # Operand classes, not objects, key the sites.
    assert len(recording.sites) < 200 < len(recording.issue_site)


def _hand_program(device, mixed_layouts):
    """Every recorder entry point; ``mixed_layouts`` adds requested
    layouts that clash on horizontal targets only."""
    from repro.config.device import PimAllocType, PimDataType
    from repro.core.commands import PimCmdKind

    a = device.alloc(1 << 16)
    b = device.alloc_associated(a, PimDataType.INT16)
    v = device.alloc(1 << 16, layout=PimAllocType.VERTICAL)
    device.copy_host_to_device(None, a, repeat=3)
    with device.stats.recorded_trace() as region:
        c = device.alloc_associated(a)
        device.execute(PimCmdKind.ADD_SCALAR, (a,), c, scalar=5, repeat=2)
        device.execute_batch(PimCmdKind.XOR, (a, c), c, count=4)
        device.stats.record_host(
            125.5, device.energy.host_energy_nj(125.5), "mix"
        )
        device.copy_device_to_device(a, c, pattern="gather")
        device.free(c)
    device.stats.replay_trace(region, times=2)
    device.execute(PimCmdKind.BROADCAST, (), b, scalar=-1)
    device.execute(PimCmdKind.REDSUM, (b,))
    device.copy_device_to_device(a, b, shift_elements=3)
    device.model_gather(b)
    device.model_gather(a, num_bytes=64)
    device.copy_device_to_host(b)
    if mixed_layouts:
        device.execute(PimCmdKind.ADD, (a, v), a)  # vertical vs native
    for obj in (a, b, v):
        device.free(obj)


@pytest.mark.parametrize("mixed_layouts", [False, True],
                         ids=["native", "mixed"])
@pytest.mark.parametrize("enforce_capacity", [False, True],
                         ids=["overcommit", "enforced"])
@pytest.mark.parametrize("backend_id", sorted(BACKENDS))
def test_hand_program_lays_out_as_the_live_run(
    backend_id, enforce_capacity, mixed_layouts
):
    """A program no benchmark writes: replayed regions with frees inside,
    batch and repeat billing, every copy kind, and operand layouts that
    clash where the native layout is horizontal."""
    from repro.perf.record import Recorder

    backend = BACKENDS[backend_id]
    config = backend.make_config(1)
    recorder = Recorder()
    _hand_program(recorder, mixed_layouts)
    recording = recorder.recording("hand", "hand")

    def live():
        device = PimDevice(config, functional=False,
                           enforce_capacity=enforce_capacity, vector=True)
        _hand_program(device, mixed_layouts)
        return dataclasses.replace(
            device.stats.export_plan(),
            benchmark_key="hand", benchmark_name="hand",
        )

    laid_out = _outcome(
        lambda: layout_plan(recording, backend, config, enforce_capacity)
    )
    assert laid_out == _outcome(live)
