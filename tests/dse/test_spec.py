"""Sweep specs: validation, compilation order, dedupe, and the ceiling."""

import json

import pytest

from repro.core.errors import PimConfigError, PimStatus
from repro.dse import DEFAULT_MAX_POINTS, MAX_POINTS_ENV, SweepSpec, max_points


def _spec(**overrides):
    raw = {
        "name": "t",
        "base": "bank",
        "benchmarks": ["vecadd"],
        "num_ranks": 2,
        "axes": {"banks_per_rank": [32, 64]},
    }
    raw.update(overrides)
    return raw


class TestValidation:
    def test_minimal_spec_parses(self):
        spec = SweepSpec.from_dict(_spec())
        assert spec.bases == ("bank",)
        assert spec.benchmarks == ("vecadd",)
        assert spec.axes == (("banks_per_rank", (32, 64)),)

    @pytest.mark.parametrize("mutation,needle", [
        ({"volume": 11}, "volume"),                       # unknown key
        ({"axes": {"warp": [1]}}, "warp"),                # unknown knob
        ({"axes": {"banks_per_rank": []}}, "no values"),  # empty axis
        ({"axes": {}, "points": []}, "zero design"),      # nothing to run
        ({"num_ranks": 0}, "num_ranks"),
        ({"num_ranks": "four"}, "num_ranks"),
        ({"bases": "bank"}, "bases"),                     # string, not list
        ({"benchmarks": "vecadd"}, "benchmarks"),
        ({"axes": {"banks_per_rank": 32}}, "banks_per_rank"),
        ({"points": [42]}, "points[0]"),
    ])
    def test_bad_specs_raise_coded_errors(self, mutation, needle):
        raw = _spec()
        raw.update(mutation)
        with pytest.raises(PimConfigError) as exc_info:
            SweepSpec.from_dict(raw)
        assert exc_info.value.status is PimStatus.ERR_CONFIG
        assert needle in str(exc_info.value)

    def test_base_and_bases_are_exclusive(self):
        raw = _spec()
        raw["bases"] = ["bank"]
        with pytest.raises(PimConfigError):
            SweepSpec.from_dict(raw)

    def test_invalid_json_is_coded(self):
        with pytest.raises(PimConfigError):
            SweepSpec.from_json("{not json")

    def test_missing_file_is_coded(self, tmp_path):
        with pytest.raises(PimConfigError) as exc_info:
            SweepSpec.from_file(tmp_path / "nope.json")
        assert "nope.json" in str(exc_info.value)

    def test_from_file_round_trips(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_spec()))
        spec = SweepSpec.from_file(path)
        assert spec.to_dict()["axes"] == {"banks_per_rank": [32, 64]}


class TestCompilation:
    def test_grid_is_row_major_in_declared_order(self):
        spec = SweepSpec.from_dict(_spec(axes={
            "banks_per_rank": [32, 64],
            "pe_width_bits": [64, 128],
        }))
        points = spec.compile_points()
        assert len(points) == 4
        dicts = [p.knobs_dict() for p in points]
        assert dicts[0] == {"banks_per_rank": 32, "bank_alu_bits": 64}
        assert dicts[1] == {"banks_per_rank": 32, "bank_alu_bits": 128}
        assert dicts[2] == {"banks_per_rank": 64, "bank_alu_bits": 64}
        assert dicts[3] == {"banks_per_rank": 64, "bank_alu_bits": 128}

    def test_compilation_is_deterministic(self):
        raw = _spec(axes={
            "banks_per_rank": [32, 64], "pe_freq_mhz": [164, 250],
        })
        first = SweepSpec.from_dict(raw).compile_points()
        second = SweepSpec.from_dict(raw).compile_points()
        assert first == second
        assert [p.point_id for p in first] == [p.point_id for p in second]

    def test_duplicate_points_collapse(self):
        spec = SweepSpec.from_dict(_spec(
            axes={"pe_width_bits": [128]},
            points=[{"bank_alu_bits": 128}, {"bank_alu_bits": 128.0}],
        ))
        points = spec.compile_points()
        assert len(points) == 1

    def test_explicit_points_append_after_grid(self):
        spec = SweepSpec.from_dict(_spec(
            points=[{"gdl_width_bits": 256}],
        ))
        points = spec.compile_points()
        assert len(points) == 3
        assert points[-1].knobs_dict() == {"gdl_width_bits": 256}

    def test_multi_base_fans_out_per_base(self):
        raw = _spec()
        del raw["base"]
        raw["bases"] = ["bank", "fulcrum"]
        points = SweepSpec.from_dict(raw).compile_points()
        assert [p.base for p in points] == ["bank", "bank",
                                            "fulcrum", "fulcrum"]

    def test_unknown_base_raises_at_compile(self):
        spec = SweepSpec.from_dict(_spec(base="hal9000"))
        with pytest.raises(PimConfigError):
            spec.compile_points()

    def test_point_id_matches_derived_backend_id(self):
        from repro.arch import derive_backend

        point = SweepSpec.from_dict(_spec()).compile_points()[0]
        backend = derive_backend(point.base, point.knobs_dict())
        assert backend.id == point.point_id


class TestKnobValues:
    """Knob values are checked where the spec compiles its points."""

    @pytest.mark.parametrize("text,needle", [
        ("NaN", "finite"), ("Infinity", "finite"), ("0", "positive"),
    ])
    def test_bad_clock_from_json_is_coded(self, text, needle):
        raw = json.dumps(_spec(axes={"pe_freq_mhz": [200]}))
        spec = SweepSpec.from_json(raw.replace("[200]", f"[200, {text}]"))
        with pytest.raises(PimConfigError) as exc_info:
            spec.compile_points()
        assert exc_info.value.status is PimStatus.ERR_CONFIG
        assert "'pe_freq_mhz'" in str(exc_info.value)
        assert needle in str(exc_info.value)

    def test_negative_energy_is_coded(self):
        spec = SweepSpec.from_dict(_spec(points=[{"alu_op_pj": -5.0}]))
        with pytest.raises(PimConfigError, match="alu_op_pj.*non-negative"):
            spec.compile_points()


class TestCeiling:
    def test_default_ceiling(self, monkeypatch):
        monkeypatch.delenv(MAX_POINTS_ENV, raising=False)
        assert max_points() == DEFAULT_MAX_POINTS

    def test_env_override_and_bad_value(self, monkeypatch):
        monkeypatch.setenv(MAX_POINTS_ENV, "10")
        assert max_points() == 10
        monkeypatch.setenv(MAX_POINTS_ENV, "zero")
        with pytest.raises(PimConfigError):
            max_points()

    def test_over_ceiling_raises_before_derivation(self, monkeypatch):
        monkeypatch.setenv(MAX_POINTS_ENV, "3")
        spec = SweepSpec.from_dict(_spec(axes={
            "banks_per_rank": [16, 32, 64, 128],
        }))
        with pytest.raises(PimConfigError) as exc_info:
            spec.compile_points()
        assert "ceiling" in str(exc_info.value)
        assert exc_info.value.context["points"] == 4
