"""The UPMEM backend: a foreign cost model behind the same registry."""

import pytest

from repro.arch import arch_for, resolve_backend
from repro.arch.upmem import (
    DEFAULT_NUM_RANKS,
    DPUS_PER_RANK,
    UPMEM_DEVICE,
    UpmemBackend,
    upmem_device_config,
)
from repro.perf.upmem import UpmemPerfModel
from repro.core.errors import PimTypeError
from repro.engine import CellSpec, model_version, run_cell


class TestRegistration:
    def test_resolves_by_id_and_aliases(self):
        backend = resolve_backend("upmem")
        assert isinstance(backend, UpmemBackend)
        assert resolve_backend("prim") is backend
        assert resolve_backend("dpu") is backend
        assert arch_for(upmem_device_config(num_ranks=2)) is backend

    def test_default_geometry_maps_the_2560_dpu_system(self):
        config = upmem_device_config()
        assert config.num_cores == DEFAULT_NUM_RANKS * DPUS_PER_RANK == 2560

    def test_listed_by_arch_list_cli(self, capsys):
        import repro.cli as cli

        assert cli.main(["arch", "list"]) == 0
        assert "upmem" in capsys.readouterr().out


class TestPerfModel:
    def test_rejects_non_upmem_config(self):
        config = resolve_backend("bank").make_config(num_ranks=2)
        with pytest.raises(PimTypeError):
            UpmemPerfModel(config)

    def test_make_perf_model_dispatches_through_registry(self):
        from repro.perf import make_perf_model

        model = make_perf_model(upmem_device_config(num_ranks=2))
        assert isinstance(model, UpmemPerfModel)

    def test_emits_only_declared_counters(self):
        from repro.config.device import PimAllocType
        from repro.core.commands import PimCmdKind
        from repro.core.layout import plan_layout
        from repro.perf.base import CommandArgs

        config = upmem_device_config(num_ranks=2)
        layout = plan_layout(
            config, 10_000, 32, PimAllocType.AUTO, enforce_capacity=False
        )
        cost = UpmemPerfModel(config).cost_of(
            CommandArgs(
                kind=PimCmdKind.ADD,
                bits=32,
                inputs=(layout, layout),
                dest=layout,
            )
        )
        assert cost.latency_ns > 0
        assert cost.alu_word_ops > 0
        assert cost.row_activations == 0
        assert cost.lane_logic_ops == 0
        assert cost.walker_bits == 0
        assert cost.gdl_bits == 0


class TestEndToEnd:
    def test_vecadd_cell_runs_and_verifies(self):
        spec = CellSpec(
            benchmark_key="vecadd",
            device_type=UPMEM_DEVICE,
            num_ranks=2,
            paper_scale=False,
            functional=True,
        )
        outcome = run_cell(spec)
        assert outcome.ok
        assert outcome.result.verified is True

    def test_own_cache_stamp(self):
        upmem_digest = model_version(UPMEM_DEVICE, "vecadd").split("-")[2]
        others = {
            model_version(
                resolve_backend(name).device_type, "vecadd"
            ).split("-")[2]
            for name in ("bitserial", "fulcrum", "bank", "analog", "ddr5")
        }
        assert upmem_digest not in others
