"""Tests for the MD-DP multi-device parallelization pass."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import GraphBuilder
from repro.runtime.numerical import execute
from repro.transform.base import TransformError, UnsplittableError, conv_h_window
from repro.transform.split import apply_mddp, split_rows


def _conv_graph(h=14, w=14, cin=8, cout=16, kernel=3, stride=1, pad=None,
                batch=1, seed=1):
    b = GraphBuilder("t", seed=seed)
    x = b.input("x", (batch, h, w, cin))
    y = b.conv(x, cout=cout, kernel=kernel, stride=stride, pad=pad, name="c0")
    b.output(y)
    return b.build()


class TestConvHWindow:
    def test_full_range_is_identity(self):
        in_start, in_end, pt, pb = conv_h_window(0, 14, 3, 1, 1, 14)
        assert (in_start, in_end, pt, pb) == (0, 14, 1, 1)

    def test_top_piece_keeps_top_pad(self):
        in_start, in_end, pt, pb = conv_h_window(0, 7, 3, 1, 1, 14)
        assert in_start == 0 and pt == 1 and pb == 0
        assert in_end == 8  # one halo row

    def test_bottom_piece_keeps_bottom_pad(self):
        in_start, in_end, pt, pb = conv_h_window(7, 14, 3, 1, 1, 14)
        assert in_start == 6 and pt == 0 and pb == 1
        assert in_end == 14

    def test_strided_window(self):
        in_start, in_end, pt, pb = conv_h_window(2, 4, 3, 2, 1, 14)
        assert in_start == 3
        assert in_end == 8

    def test_invalid_range_rejected(self):
        with pytest.raises(UnsplittableError):
            conv_h_window(5, 5, 3, 1, 1, 14)

    def test_pure_padding_rejected(self):
        # Kernel bigger than padded region coverage at extreme offsets.
        with pytest.raises(UnsplittableError):
            conv_h_window(0, 1, 1, 1, 5, 4)


class TestSplitRows:
    def test_rounding(self):
        assert split_rows(14, 0.5) == 7
        assert split_rows(14, 0.0) == 0
        assert split_rows(14, 1.0) == 14

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            split_rows(10, 1.5)


class TestConvSplitEquivalence:
    @pytest.mark.parametrize("kernel,stride,pad", [
        (1, 1, 0), (3, 1, 1), (3, 2, 1), (5, 1, 2), (5, 2, 2), (7, 2, 3),
        (3, 1, 0), (2, 1, 0), (2, 2, 0),
    ])
    @pytest.mark.parametrize("ratio", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_equivalence(self, rng, kernel, stride, pad, ratio):
        g = _conv_graph(kernel=kernel, stride=stride, pad=pad)
        feed = {"x": rng.standard_normal((1, 14, 14, 8))}
        ref = execute(g, feed)
        g2 = apply_mddp(g, "c0", ratio)
        g2.validate()
        out = execute(g2, feed)
        for k in ref:
            np.testing.assert_allclose(ref[k], out[k], rtol=1e-3, atol=1e-3)

    @settings(max_examples=30, deadline=None)
    @given(
        h=st.integers(5, 20),
        kernel=st.sampled_from([1, 2, 3, 5]),
        stride=st.sampled_from([1, 2]),
        pad=st.integers(0, 2),
        ratio=st.floats(0.05, 0.95),
    )
    def test_property_equivalence(self, h, kernel, stride, pad, ratio):
        if h + 2 * pad < kernel:
            return
        g = _conv_graph(h=h, w=max(kernel, 5), kernel=kernel, stride=stride,
                        pad=pad)
        rng = np.random.default_rng(0)
        feed = {"x": rng.standard_normal(g.tensors["x"].shape)}
        ref = execute(g, feed)
        try:
            g2 = apply_mddp(g, "c0", ratio)
        except TransformError:
            return  # halo can make a piece unrealizable; that's allowed
        g2.validate()
        out = execute(g2, feed)
        for k in ref:
            np.testing.assert_allclose(ref[k], out[k], rtol=1e-3, atol=1e-3)

    def test_batch_greater_than_one(self, rng):
        g = _conv_graph(batch=2)
        feed = {"x": rng.standard_normal((2, 14, 14, 8))}
        ref = execute(g, feed)
        out = execute(apply_mddp(g, "c0", 0.5), feed)
        for k in ref:
            np.testing.assert_allclose(ref[k], out[k], rtol=1e-3, atol=1e-3)


class TestBatchAxisSplit:
    def test_equivalence(self, rng):
        g = _conv_graph(batch=4, kernel=3, stride=2)
        feed = {"x": rng.standard_normal((4, 14, 14, 8))}
        ref = execute(g, feed)
        g2 = apply_mddp(g, "c0", 0.5, axis="batch")
        g2.validate()
        out = execute(g2, feed)
        for k in ref:
            np.testing.assert_allclose(ref[k], out[k], rtol=1e-3, atol=1e-3)

    def test_no_halo_overlap(self):
        g2 = apply_mddp(_conv_graph(batch=4), "c0", 0.5, axis="batch")
        sa = g2.node("c0__slice_gpu")
        sb = g2.node("c0__slice_pim")
        # Batch slices partition exactly: no duplicated input rows.
        assert sa.attr("end") == sb.attr("start")
        assert sa.attr("axis") == 0

    def test_rejects_batch_one(self):
        with pytest.raises(TransformError):
            apply_mddp(_conv_graph(batch=1), "c0", 0.5, axis="batch")

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            apply_mddp(_conv_graph(), "c0", 0.5, axis="w")

    def test_devices_assigned(self):
        g2 = apply_mddp(_conv_graph(batch=2), "c0", 0.5, axis="batch")
        assert g2.node("c0__gpu").device == "gpu"
        assert g2.node("c0__pim").device == "pim"


class TestSplitStructure:
    def test_devices_assigned(self):
        g2 = apply_mddp(_conv_graph(), "c0", 0.5)
        assert g2.node("c0__gpu").device == "gpu"
        assert g2.node("c0__pim").device == "pim"

    def test_full_offload_sets_device_only(self):
        g2 = apply_mddp(_conv_graph(), "c0", 0.0)
        assert len(g2) == 1
        assert g2.node("c0").device == "pim"

    def test_full_gpu_sets_device_only(self):
        g2 = apply_mddp(_conv_graph(), "c0", 1.0)
        assert len(g2) == 1
        assert g2.node("c0").device == "gpu"

    def test_original_graph_untouched(self):
        g = _conv_graph()
        apply_mddp(g, "c0", 0.5)
        assert len(g) == 1
        assert g.node("c0").device == "auto"

    def test_output_tensor_name_preserved(self):
        g = _conv_graph()
        out_name = g.node("c0").outputs[0]
        g2 = apply_mddp(g, "c0", 0.5)
        assert g2.node("c0__concat").outputs == [out_name]

    def test_non_candidate_rejected(self):
        b = GraphBuilder()
        x = b.input("x", (1, 8, 8, 4))
        b.output(b.relu(x, name="r"))
        g = b.build()
        with pytest.raises(TransformError):
            apply_mddp(g, "r", 0.5)

    def test_depthwise_rejected(self):
        b = GraphBuilder()
        x = b.input("x", (1, 8, 8, 4))
        b.output(b.dwconv(x, name="dw"))
        g = b.build()
        with pytest.raises(TransformError):
            apply_mddp(g, "dw", 0.5)


class TestGemmSplit:
    def test_equivalence(self, fc_graph, rng):
        feed = {"x": rng.standard_normal((1, 64))}
        ref = execute(fc_graph, feed)
        for ratio in (0.25, 0.5, 0.75):
            g2 = apply_mddp(fc_graph, "fc0", ratio)
            g2.validate()
            out = execute(g2, feed)
            for k in ref:
                np.testing.assert_allclose(ref[k], out[k], rtol=1e-3, atol=1e-3)

    def test_weights_pre_split(self, fc_graph):
        g2 = apply_mddp(fc_graph, "fc0", 0.5)
        gpu_w = g2.node("fc0__gpu").inputs[1]
        pim_w = g2.node("fc0__pim").inputs[1]
        assert g2.initializers[gpu_w].shape == (64, 24)
        assert g2.initializers[pim_w].shape == (64, 24)
        # No runtime Slice needed for the constant operand.
        assert all(n.op_type != "Slice" for n in g2.nodes)
        # The parts are read-only column views of the source weight and
        # bias, never copies.
        src_w = fc_graph.initializers[fc_graph.node("fc0").inputs[1]]
        src_b = fc_graph.initializers[fc_graph.node("fc0").inputs[2]]
        for part, c0 in (("fc0__gpu", 0), ("fc0__pim", 24)):
            w_name, b_name = g2.node(part).inputs[1:3]
            for name, src in ((w_name, src_w), (b_name, src_b)):
                view = g2.initializers[name]
                assert np.shares_memory(view, src)
                assert not view.flags.writeable
            np.testing.assert_array_equal(g2.initializers[w_name],
                                          src_w[:, c0:c0 + 24])

    def test_non_constant_weight_rejected(self, rng):
        b = GraphBuilder()
        a = b.input("a", (1, 8))
        w = b.input("w", (8, 4))
        b.output(b.matmul(a, w, name="mm"))
        g = b.build()
        with pytest.raises(TransformError):
            apply_mddp(g, "mm", 0.5)

    def test_fused_activation_preserved_on_parts(self, rng):
        b = GraphBuilder(seed=8)
        x = b.input("x", (1, 10, 10, 4))
        y = b.conv(x, cout=8, kernel=3, name="c")
        b.output(y)
        g = b.build()
        g.node("c").attrs["activation"] = "relu"
        feed = {"x": rng.standard_normal((1, 10, 10, 4))}
        ref = execute(g, feed)
        out = execute(apply_mddp(g, "c", 0.5), feed)
        for k in ref:
            np.testing.assert_allclose(ref[k], out[k], rtol=1e-3, atol=1e-3)


class TestGemmSplitMemory:
    def test_profiling_copies_no_weight_bytes(self):
        """Pricing the paper's 11 split ratios of a 64 MiB FC reads
        shapes only: the trial graphs' part weights are views, so the
        traced peak stays a tiny fraction of the weight."""
        from repro.gpu.device import GpuDevice
        from repro.pim.device import PimDevice
        from repro.pimflow import MECHANISMS
        from repro.runtime.engine import ExecutionEngine
        from repro.search.profiler import profile_split

        b = GraphBuilder("big_fc", seed=3)
        x = b.input("x", (1, 4096))
        b.output(b.gemm(x, 4096, name="fc"))
        g = b.build()
        weight_bytes = g.initializers[g.node("fc").inputs[1]].nbytes
        assert weight_bytes >= 64 << 20
        ratios = MECHANISMS["pimflow"].split_ratios
        assert len(ratios) == 11
        engine = ExecutionEngine(GpuDevice(), PimDevice())
        tracemalloc.start()
        try:
            times = profile_split(g, "fc", engine, ratios)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(times) == sorted(ratios)
        assert peak < 0.02 * weight_bytes, (
            f"profiling allocated {peak} bytes for a {weight_bytes}-byte "
            f"weight")


#: Registry models whose classifier Gemm gets a committed 0.5 split.
CLASSIFIERS = {"mobilenet-v2": "classifier", "resnet-50": "fc"}


@pytest.fixture(scope="module", params=sorted(CLASSIFIERS))
def split_classifier(request):
    from repro.models import build_model

    model = request.param
    return model, apply_mddp(build_model(model), CLASSIFIERS[model], 0.5)


class TestStridedWeightSplit:
    """A committed FC split binds strided column-view weights; the
    compiled executor must match the interpreted oracle bit for bit."""

    @pytest.mark.parametrize("batch", [1, 8])
    def test_compiled_matches_oracle(self, split_classifier, batch):
        from repro.runtime.compiled import CompiledExecutable
        from repro.runtime.gemmpar import ShardPolicy
        from repro.runtime.verify import random_feeds

        model, g = split_classifier
        part = g.initializers[g.node(f"{CLASSIFIERS[model]}__pim").inputs[1]]
        assert not part.flags.c_contiguous
        feeds = random_feeds(g, seed=0, batch=batch)
        ref = execute(g, feeds)
        # The library defaults (serial unless REPRO_HOST_WORKERS or
        # REPRO_GEMM_SHARDS say otherwise), then forced GEMM row panels.
        configs = [{}, dict(workers=1, policy=ShardPolicy(gemm_shards=4))]
        for kw in configs:
            out = CompiledExecutable(g, **kw).run(feeds)
            for name in ref:
                assert ref[name].tobytes() == out[name].tobytes(), \
                    f"{model}/{name} batch {batch} differs under {kw}"

    def test_full_weight_round_trip(self, tmp_path):
        from repro.graph.serialize import load_graph, save_graph
        from repro.models import build_model
        from repro.search.profiler import extract_subgraph

        g = apply_mddp(build_model("mobilenet-v2"), "classifier", 0.5)
        # The split classifier alone: its parts are the strided views.
        region = extract_subgraph(
            g, ["classifier__gpu", "classifier__pim", "classifier__concat"])
        path = tmp_path / "split.json"
        save_graph(region, path, include_weights=True)
        loaded = load_graph(path)
        assert set(loaded.initializers) == set(region.initializers)
        for name, value in region.initializers.items():
            np.testing.assert_array_equal(loaded.initializers[name], value)
