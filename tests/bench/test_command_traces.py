"""Golden command traces: the exact op counts each benchmark issues.

These lock the benchmarks' command structure: a change to a benchmark's
implementation that alters its trace shows up here before it silently
moves every figure.
"""


import types

from repro.arch import resolve_backend
from repro.bench.registry import make_benchmark
from repro.config.device import PimDeviceType
from repro.core.commands import PimCmdKind
from repro.perf.plans import compile_plan, layout_plan, synthesize

from tests.conftest import make_device


def op_counts(key, **overrides):
    device = make_device(PimDeviceType.FULCRUM)
    make_benchmark(key, **overrides).run(device)
    return dict(device.stats.op_counts)


class TestTraceShapes:
    def test_vecadd_is_one_add(self):
        counts = op_counts("vecadd")
        assert counts == {PimCmdKind.ADD: 1}

    def test_axpy_is_one_scaled_add(self):
        counts = op_counts("axpy")
        assert counts == {PimCmdKind.SCALED_ADD: 1}

    def test_gemv_issues_one_scaled_add_per_column(self):
        counts = op_counts("gemv", num_rows=32, num_cols=12)
        assert counts[PimCmdKind.SCALED_ADD] == 12
        assert counts[PimCmdKind.BROADCAST] == 1

    def test_gemm_issues_mul_add_per_inner_index(self):
        counts = op_counts("gemm", m=8, k=5, n=4)
        assert counts[PimCmdKind.MUL] == 5
        assert counts[PimCmdKind.ADD] == 5

    def test_histogram_issues_256_matches_per_channel(self):
        counts = op_counts("histogram", width=8, height=8)
        assert counts[PimCmdKind.EQ_SCALAR] == 3 * 256
        assert counts[PimCmdKind.REDSUM] == 3 * 256

    def test_radix_sort_per_pass_structure(self):
        counts = op_counts("radixsort", num_elements=512)
        assert counts[PimCmdKind.SHIFT_RIGHT] == 4  # one digit per pass
        assert counts[PimCmdKind.AND_SCALAR] == 4
        assert counts[PimCmdKind.EQ_SCALAR] == 4 * 256
        assert counts[PimCmdKind.REDSUM] == 4 * 256

    def test_brightness_is_min_plus_add(self):
        counts = op_counts("brightness")
        assert counts == {PimCmdKind.MIN_SCALAR: 1, PimCmdKind.ADD_SCALAR: 1}

    def test_downsample_per_channel_structure(self):
        counts = op_counts("downsample", width=8, height=8)
        assert counts[PimCmdKind.ADD] == 3 * 2  # two pair-sums per channel
        assert counts[PimCmdKind.SHIFT_RIGHT] == 3

    def test_knn_per_query_distance_pipeline(self):
        counts = op_counts("knn", num_points=256, num_queries=5)
        assert counts[PimCmdKind.SUB_SCALAR] == 5 * 2
        assert counts[PimCmdKind.ABS] == 5 * 2
        assert counts[PimCmdKind.ADD] == 5

    def test_linreg_two_muls_four_redsums(self):
        counts = op_counts("linreg", num_points=256)
        assert counts[PimCmdKind.MUL] == 2
        assert counts[PimCmdKind.REDSUM] == 4

    def test_kmeans_per_iteration_structure(self):
        k, iters = 3, 2
        counts = op_counts("kmeans", num_points=512, k=k, iterations=iters)
        assert counts[PimCmdKind.SUB_SCALAR] == iters * k * 2
        assert counts[PimCmdKind.ABS] == iters * k * 2
        assert counts[PimCmdKind.EQ] == iters * k
        assert counts[PimCmdKind.SELECT] == iters * k * 2
        assert counts[PimCmdKind.REDSUM] == iters * k * 3
        assert counts[PimCmdKind.MIN] == iters * (k - 1)

    def test_kmeans_zero_iterations_on_every_path(self):
        """No Lloyd round: analytic and vector runs issue what functional does."""
        params = dict(num_points=512, k=3, iterations=0)
        functional = make_benchmark("kmeans", **params).run(
            make_device(PimDeviceType.FULCRUM)
        )
        analytic = make_benchmark("kmeans", **params).run(
            make_device(PimDeviceType.FULCRUM, functional=False)
        )
        backend = resolve_backend("fulcrum")
        config = backend.make_config(4)
        spec = types.SimpleNamespace(
            benchmark_key="kmeans", enforce_capacity=True,
            make_benchmark=lambda: make_benchmark("kmeans", **params),
        )
        plan = layout_plan(compile_plan(spec), backend, config, True)
        ((vector, _tracker),) = synthesize(plan, [(backend, config)])
        assert functional.verified
        assert functional.op_counts  # the setup broadcast still issues
        assert analytic.op_counts == functional.op_counts
        assert vector.op_counts == functional.op_counts

    def test_filter_is_compare_plus_count(self):
        counts = op_counts("filter", num_records=1024)
        assert counts == {PimCmdKind.LT_SCALAR: 1, PimCmdKind.REDSUM: 1}

    def test_tricount_per_chunk_structure(self):
        counts = op_counts("tricount", num_nodes=40, num_edges=100,
                           num_chunks=2)
        assert counts[PimCmdKind.AND] == 2
        assert counts[PimCmdKind.POPCOUNT] == 2
        assert counts[PimCmdKind.REDSUM] == 2

    def test_aes_round_structure(self):
        counts = op_counts("aes-enc", num_bytes=256)
        # AddRoundKey: 15 key additions x 16 planes.
        assert counts[PimCmdKind.XOR_SCALAR] == 15 * 16
        # SubBytes gate model: 14 applications x (32 AND + 81 XOR) x 16.
        assert counts[PimCmdKind.AND] == 14 * 32 * 16
        assert counts[PimCmdKind.XOR] >= 14 * 81 * 16  # + MixColumns xors


class TestTraceInvariance:
    def test_trace_identical_across_architectures(self):
        """The portability core: one implementation, one trace."""
        reference = None
        for device_type in PimDeviceType:
            device = make_device(device_type)
            make_benchmark("kmeans", num_points=256, k=2,
                           iterations=2).run(device)
            counts = dict(device.stats.op_counts)
            if reference is None:
                reference = counts
            assert counts == reference, device_type
