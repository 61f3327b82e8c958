"""Experiment drivers regenerating every table and figure of the paper."""

from repro.experiments.ablation import (
    AblationPoint,
    alu_clock_sweep,
    bitserial_reduction_strategies,
    digital_vs_analog_bitserial,
    format_ablation,
    fused_vs_portable_brightness,
    fulcrum_simd_width_sweep,
    gdl_width_sweep,
)
from repro.experiments.activity import (
    ActivityRow,
    activity_table,
    format_activity_table,
)
from repro.experiments.channels import (
    ChannelPoint,
    channel_sensitivity,
    format_channel_table,
)
from repro.experiments.conclusions import (
    Conclusions,
    compute_conclusions,
    format_conclusions,
)
from repro.experiments.breakdown import (
    BreakdownRow,
    breakdown_table,
    format_breakdown_table,
)
from repro.experiments.dtypes import (
    DtypePoint,
    dtype_sensitivity,
    format_dtype_table,
)
from repro.experiments.energy import EnergyRow, energy_table, format_energy_table
from repro.experiments.memory_tech import (
    MemoryTechPoint,
    format_memory_tech_table,
    memory_technology_comparison,
)
from repro.experiments.overlap import (
    OverlapRow,
    format_overlap_table,
    overlap_table,
)
from repro.experiments.problemsize import (
    BatchingPoint,
    ProblemSizePoint,
    batching_comparison,
    format_problem_size_table,
    problem_size_sweep,
    utilization_knee,
)
from repro.experiments.opmix import OpMixRow, format_opmix_table, opmix_table
from repro.experiments.rankscaling import (
    RankScalingRow,
    capacity_matched_table,
    format_rank_table,
    rank_scaling_table,
)
from repro.experiments.radix_digits import (
    RadixDigitPoint,
    digit_width_sweep,
    format_digit_table,
)
from repro.experiments.selectivity import (
    SelectivityPoint,
    format_selectivity_table,
    selectivity_sweep,
)
from repro.experiments.runner import (
    BENCHMARK_ORDER,
    DEVICE_ORDER,
    SuiteResults,
    clear_cache,
    export_suite_json,
    geometric_mean,
    run_suite,
)
from repro.experiments.sensitivity import (
    SensitivityPoint,
    bank_sensitivity,
    column_sensitivity,
    format_sensitivity_table,
)
from repro.experiments.speedup import (
    SpeedupRow,
    format_speedup_table,
    gmean_summary,
    speedup_table,
)
from repro.experiments.tables import format_table1, format_table2

__all__ = [
    "AblationPoint",
    "alu_clock_sweep",
    "bitserial_reduction_strategies",
    "digital_vs_analog_bitserial",
    "format_ablation",
    "fused_vs_portable_brightness",
    "fulcrum_simd_width_sweep",
    "gdl_width_sweep",
    "ActivityRow",
    "activity_table",
    "format_activity_table",
    "ChannelPoint",
    "channel_sensitivity",
    "format_channel_table",
    "Conclusions",
    "compute_conclusions",
    "format_conclusions",
    "BreakdownRow",
    "breakdown_table",
    "format_breakdown_table",
    "DtypePoint",
    "dtype_sensitivity",
    "format_dtype_table",
    "EnergyRow",
    "energy_table",
    "format_energy_table",
    "MemoryTechPoint",
    "format_memory_tech_table",
    "memory_technology_comparison",
    "OverlapRow",
    "format_overlap_table",
    "overlap_table",
    "BatchingPoint",
    "ProblemSizePoint",
    "batching_comparison",
    "format_problem_size_table",
    "problem_size_sweep",
    "utilization_knee",
    "OpMixRow",
    "format_opmix_table",
    "opmix_table",
    "RankScalingRow",
    "capacity_matched_table",
    "format_rank_table",
    "rank_scaling_table",
    "RadixDigitPoint",
    "digit_width_sweep",
    "format_digit_table",
    "SelectivityPoint",
    "format_selectivity_table",
    "selectivity_sweep",
    "BENCHMARK_ORDER",
    "DEVICE_ORDER",
    "SuiteResults",
    "clear_cache",
    "export_suite_json",
    "geometric_mean",
    "run_suite",
    "SensitivityPoint",
    "bank_sensitivity",
    "column_sensitivity",
    "format_sensitivity_table",
    "SpeedupRow",
    "format_speedup_table",
    "gmean_summary",
    "speedup_table",
    "format_table1",
    "format_table2",
]
