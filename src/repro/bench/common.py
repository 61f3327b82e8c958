"""PIMbench framework: the benchmark base class and result records.

Each benchmark (Table I) is a class that issues PIM API calls against a
device, models its host-side phases through :class:`repro.host.HostModel`,
and declares roofline profiles for the CPU and GPU baselines.  A benchmark
runs in two regimes:

* *functional* (small inputs): real data flows through the device and the
  result is verified against a host reference -- the paper's functional-
  verification methodology (Section V-E), and
* *analytic* (Table I paper-scale inputs): the same command trace is
  issued without materializing data, yielding the modeled runtime/energy
  used by the figure-regeneration harnesses.
"""

from __future__ import annotations

import abc
import dataclasses
import math
import typing

from repro.baselines.cpu import CpuModel
from repro.baselines.gpu import GpuModel
from repro.baselines.roofline import KernelProfile
from repro.config.device import PimDeviceType
from repro.core.commands import OpCategory
from repro.core.stats import StatsSnapshot
from repro.host.model import HostModel
from repro.obs.spans import device_bus, span

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.device import PimDevice


@dataclasses.dataclass(frozen=True)
class BenchmarkResult:
    """Everything the experiment harnesses need from one benchmark run."""

    benchmark: str
    device_type: PimDeviceType
    stats: StatsSnapshot
    op_counts: "dict[OpCategory, int]"
    cpu_time_ns: float
    cpu_energy_nj: float
    gpu_time_ns: float
    gpu_energy_nj: float
    verified: "bool | None"  # None in analytic mode

    # -- paper comparison metrics (artifact appendix D) ----------------------

    @property
    def pim_total_time_ns(self) -> float:
        """Kernel + host + data-copy: the CPU-comparison runtime."""
        return self.stats.total_time_ns

    @property
    def pim_kernel_host_time_ns(self) -> float:
        """Kernel + host only: the GPU-comparison runtime (PCIe factored out)."""
        return self.stats.kernel_time_ns + self.stats.host_time_ns

    @property
    def speedup_cpu_total(self) -> float:
        """Figure 9 "Kernel + Data Movement" bar."""
        return self.cpu_time_ns / self.pim_total_time_ns

    @property
    def speedup_cpu_kernel(self) -> float:
        """Figure 9 "Kernel" bar (host time still counts; copies do not)."""
        return self.cpu_time_ns / self.pim_kernel_host_time_ns

    @property
    def speedup_gpu(self) -> float:
        """Figure 10a bar."""
        return self.gpu_time_ns / self.pim_kernel_host_time_ns

    @property
    def pim_total_energy_nj(self) -> float:
        """Kernel + copy + background + host energy (CPU comparison)."""
        return self.stats.total_energy_nj

    @property
    def pim_kernel_host_energy_nj(self) -> float:
        """Energy with copies (and CPU idle) factored out (GPU comparison)."""
        return (
            self.stats.kernel_energy_nj
            + self.stats.background_energy_nj
            + self.stats.host_energy_nj
        )

    @property
    def energy_reduction_cpu(self) -> float:
        """Figure 11 bar."""
        return self.cpu_energy_nj / self.pim_total_energy_nj

    @property
    def energy_reduction_gpu(self) -> float:
        """Figure 10b bar."""
        return self.gpu_energy_nj / self.pim_kernel_host_energy_nj

    @property
    def breakdown(self) -> "dict[str, float]":
        """Figure 7: percentage of time in data movement / host / kernel."""
        total = self.pim_total_time_ns
        if total <= 0:
            return {"data_movement": 0.0, "host": 0.0, "kernel": 0.0}
        return {
            "data_movement": 100.0 * self.stats.copy_time_ns / total,
            "host": 100.0 * self.stats.host_time_ns / total,
            "kernel": 100.0 * self.stats.kernel_time_ns / total,
        }

    def to_dict(self) -> dict:
        """JSON-friendly record of the run (for archiving suite results)."""
        return {
            "benchmark": self.benchmark,
            "device": self.device_type.value,
            "verified": self.verified,
            "kernel_time_ms": self.stats.kernel_time_ns / 1e6,
            "copy_time_ms": self.stats.copy_time_ns / 1e6,
            "host_time_ms": self.stats.host_time_ns / 1e6,
            "pim_energy_mj": self.pim_total_energy_nj / 1e6,
            "copy_bytes": self.stats.copy_bytes,
            "op_counts": {cat.value: n for cat, n in self.op_counts.items()},
            "speedup_cpu_total": self.speedup_cpu_total,
            "speedup_cpu_kernel": self.speedup_cpu_kernel,
            "speedup_gpu": self.speedup_gpu,
            "energy_reduction_cpu": self.energy_reduction_cpu,
            "energy_reduction_gpu": self.energy_reduction_gpu,
            "breakdown": self.breakdown,
            "events": {
                "row_activations": self.stats.events.row_activations,
                "lane_logic_ops": self.stats.events.lane_logic_ops,
                "alu_word_ops": self.stats.events.alu_word_ops,
                "gdl_bits": self.stats.events.gdl_bits,
            },
        }


class PimBenchmark(abc.ABC):
    """Base class of every PIMbench application."""

    #: Short identifier (e.g. ``vecadd``) used by the registry.
    key: str = ""
    #: Display name matching the paper's figures (e.g. ``Vector Addition``).
    name: str = ""
    #: Table I domain (e.g. ``Linear Algebra``).
    domain: str = ""
    #: Table I execution type: ``PIM`` or ``PIM + Host``.
    execution_type: str = "PIM"
    #: Table I memory access pattern flags.
    sequential_access: bool = True
    random_access: bool = False
    #: Table I input description.
    paper_input: str = ""

    def __init__(self, **params: typing.Any) -> None:
        merged = dict(self.default_params())
        unknown = set(params) - set(merged)
        if unknown:
            raise TypeError(f"{type(self).__name__}: unknown params {sorted(unknown)}")
        merged.update(params)
        self.params = merged

    # -- parameterization ------------------------------------------------------

    @classmethod
    @abc.abstractmethod
    def default_params(cls) -> "dict[str, typing.Any]":
        """Small functional-mode parameters (tests, examples)."""

    @classmethod
    @abc.abstractmethod
    def paper_params(cls) -> "dict[str, typing.Any]":
        """The Table I evaluation input sizes."""

    # -- execution -------------------------------------------------------------

    @abc.abstractmethod
    def run_pim(self, device: PimDevice, host: HostModel) -> "typing.Any":
        """Issue the benchmark's PIM command trace; return outputs for
        verification (functional mode) or None."""

    def verify(self, outputs: typing.Any) -> bool:
        """Check functional outputs against the host reference."""
        raise NotImplementedError(f"{type(self).__name__} has no verifier")

    # -- observability -----------------------------------------------------

    def phase(self, device: "PimDevice | typing.Any", name: str):
        """Span bracketing one phase of this benchmark's execution.

        A no-op context manager when the device carries no event bus, so
        benchmarks can annotate phases unconditionally.
        """
        return span(f"phase:{name}", device_bus(device))

    # -- baseline profiles ------------------------------------------------------

    @abc.abstractmethod
    def cpu_profile(self) -> KernelProfile:
        """Roofline profile of the tuned CPU baseline."""

    @abc.abstractmethod
    def gpu_profile(self) -> KernelProfile:
        """Roofline profile of the tuned GPU baseline."""

    # -- harness ------------------------------------------------------------

    def run(
        self,
        device: PimDevice,
        cpu: "CpuModel | None" = None,
        gpu: "GpuModel | None" = None,
    ) -> BenchmarkResult:
        """Execute on a device and package the comparison metrics."""
        if getattr(device, "vector", False):
            raise TypeError(
                "a vector=True device only records a shape histogram; "
                "record a benchmark with repro.perf.plans.compile_plan, "
                "lay it out with layout_plan and price it with synthesize"
            )
        cpu = cpu or CpuModel()
        gpu = gpu or GpuModel()
        host = HostModel(device, cpu)
        before = device.stats.snapshot()
        ops_before = dict(device.stats.op_counts)
        with span(f"bench:{self.key}", device_bus(device),
                  {"name": self.name, "execution": self.execution_type}):
            outputs = self.run_pim(device, host)
        delta = device.stats.snapshot() - before
        op_counts: "dict[OpCategory, int]" = {}
        for kind, count in device.stats.op_counts.items():
            extra = count - ops_before.get(kind, 0)
            if extra:
                op_counts[kind.category] = op_counts.get(kind.category, 0) + extra

        verified: "bool | None" = None
        if device.functional and outputs is not None:
            verified = bool(self.verify(outputs))

        cpu_time, cpu_energy = cpu.run(self.cpu_profile())
        gpu_time, gpu_energy = gpu.run(self.gpu_profile())
        return BenchmarkResult(
            benchmark=self.name,
            device_type=device.config.device_type,
            stats=delta,
            op_counts=op_counts,
            cpu_time_ns=cpu_time,
            cpu_energy_nj=cpu_energy,
            gpu_time_ns=gpu_time,
            gpu_energy_nj=gpu_energy,
            verified=verified,
        )


def chunked(total: int, chunk: int) -> "typing.Iterator[tuple[int, int]]":
    """Yield (start, length) windows covering ``range(total)``."""
    if chunk <= 0:
        raise ValueError(f"chunk must be positive, got {chunk}")
    for start in range(0, total, chunk):
        yield start, min(chunk, total - start)


def ceil_div(a: int, b: int) -> int:
    return math.ceil(a / b)
