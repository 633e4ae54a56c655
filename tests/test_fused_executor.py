"""Compiled-executor suite for fused elementwise groups.

The executor always applies ``fuse_elementwise`` internally and binds
every elementwise op the pass leaves alone as a one-entry group; its
contract is byte identity with the *unfused* interpreted oracle, so
these tests drive the compiled path against
:func:`repro.runtime.numerical.execute` on the original graphs, across
the registry, batch sizes, and elision modes, plus adversarial aliasing
shapes, lone ops, and Conv/Gemm bias + activation epilogues.  Also
covered here: the read-only strided im2col window views, the
hazard-graph width gate for operator-parallel dispatch, and the
per-op-kind step profile.
"""

import numpy as np
import pytest

from repro.graph.builder import GraphBuilder
from repro.models import build_model, list_models
from repro.runtime.compiled import (
    CompiledExecutable,
    ExecutionState,
    _ProgramSpec,
)
from repro.runtime.gemmpar import ShardPolicy
from repro.runtime.numerical import conv_window_view, execute
from repro.runtime.verify import random_feeds
from repro.transform.fusion import fuse
from repro.transform.memopt import optimize_memory

SMALL_MODELS = ("toy", "mobilenet-v2", "shufflenet-v2")


def _assert_oracle_identical(graph, feeds, ref=None, runs=2, **kw):
    if ref is None:
        ref = execute(graph, feeds)
    exe = CompiledExecutable(graph, **kw)
    for run in range(runs):
        out = exe.run(feeds)
        assert set(out) == set(ref)
        for name in ref:
            assert ref[name].shape == out[name].shape, (name, run)
            assert ref[name].tobytes() == out[name].tobytes(), \
                f"{name} differs from the oracle on run {run} ({kw})"
    return ref


class TestRegistryByteIdentity:
    @pytest.mark.parametrize("model", list_models())
    def test_fused_batch1(self, model):
        graph = build_model(model)
        feeds = random_feeds(graph, seed=0)
        _assert_oracle_identical(graph, feeds)
        # BN folded + activations fused leaves lone elementwise ops the
        # way compiled plans do, so one-entry group binding runs here.
        _assert_oracle_identical(fuse(graph), feeds)

    @pytest.mark.parametrize("model", SMALL_MODELS)
    @pytest.mark.parametrize("batch", [1, 8])
    def test_fused_batch_and_elide_matrix(self, model, batch):
        graph = build_model(model)
        feeds = random_feeds(graph, seed=0, batch=batch)
        ref = execute(graph, feeds)
        for elide in (True, False):
            _assert_oracle_identical(graph, feeds, ref=ref, elide=elide)

    def test_fusion_engages_on_mobilenet(self):
        graph = build_model("mobilenet-v2")
        exe = CompiledExecutable(graph)
        exe.run(random_feeds(graph, seed=0))
        stats = exe.pool_stats()
        assert stats["fused_groups"] > 0
        assert stats["step_kinds"].get("fused", 0) > 0


class TestAdversarial:
    def test_diamond_dag(self):
        b = GraphBuilder("diamond", seed=1)
        x = b.input("x", (1, 8, 8, 4))
        c = b.conv(x, cout=4, kernel=1, name="c1")
        r = b.relu(c, name="r")
        s = b.sigmoid(r, name="s")
        g = b.gelu(r, name="g")
        b.output(b.add(s, g, name="join"))
        graph = b.build()
        _assert_oracle_identical(graph, random_feeds(graph, seed=1))

    def test_fused_group_feeding_elided_concat(self):
        # The group's destination is a co-allocated view into the
        # concat parent; direct-write must not clobber the sibling.
        b = GraphBuilder("cat", seed=2)
        x = b.input("x", (1, 8, 8, 4))
        a = b.conv(x, cout=4, kernel=1, name="ca")
        fa = b.sigmoid(b.relu(a, name="ra"), name="sa")
        other = b.conv(x, cout=4, kernel=1, name="cb")
        cat = b.concat([fa, other], axis=1, name="cat")
        b.output(b.conv(cat, cout=4, kernel=1, name="tail"))
        graph = optimize_memory(b.build())
        assert any(n.attr("elided", False) for n in graph.nodes)
        feeds = random_feeds(graph, seed=2)
        ref = execute(graph, feeds)
        for elide in (True, False):
            _assert_oracle_identical(graph, feeds, ref=ref, elide=elide)

    def test_broadcast_bias_add(self):
        # A (C,)-shaped initializer broadcast over NHWC inside the
        # group: the tiled sweep must slice only data-shaped operands.
        b = GraphBuilder("bias", seed=3)
        x = b.input("x", (1, 8, 8, 6))
        c = b.conv(x, cout=6, kernel=1, name="c1")
        bias = b._weight("bias", (6,))
        y = b.add(c, bias, name="biasadd")
        b.output(b.relu(y, name="act"))
        graph = b.build()
        _assert_oracle_identical(graph, random_feeds(graph, seed=3))

    def test_residual_chain_inplace_alias(self):
        # BN -> Clip -> Add(residual) fuses; the planner may alias the
        # fused destination onto the dead BN input buffer.
        b = GraphBuilder("res", seed=4)
        x = b.input("x", (1, 8, 8, 4))
        c = b.conv(x, cout=4, kernel=3, name="c1")
        y = b.batchnorm(c, name="bn")
        y = b.relu6(y, name="act")
        b.output(b.add(y, c, name="res"))
        graph = b.build()
        feeds = random_feeds(graph, seed=4)
        ref = execute(graph, feeds)
        for elide in (True, False):
            _assert_oracle_identical(graph, feeds, ref=ref, elide=elide)

    def test_group_output_escapes_to_conv(self):
        b = GraphBuilder("esc", seed=5)
        x = b.input("x", (1, 8, 8, 4))
        r = b.relu(x, name="r")
        s = b.sigmoid(r, name="s")
        b.output(b.conv(r, cout=4, kernel=1, name="tail"))
        b.output(s)
        graph = b.build()
        _assert_oracle_identical(graph, random_feeds(graph, seed=5))


class TestStridedIm2col:
    def test_window_view_is_read_only(self):
        x = np.zeros((1, 8, 8, 4), dtype=np.float32)
        view = conv_window_view(x, 6, 6, 3, 3, 1, 1)
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0, 0, 0, 0, 0] = 1.0

    def test_window_view_matches_materialized(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 9, 9, 3)).astype(np.float32)
        kh = kw = 3
        sh = sw = 2
        oh = ow = 4
        view = conv_window_view(x, oh, ow, kh, kw, sh, sw)
        for n in range(2):
            for i in range(oh):
                for j in range(ow):
                    patch = x[n, i * sh:i * sh + kh, j * sw:j * sw + kw]
                    assert view[n, i, j].tobytes() == patch.tobytes()

    def test_strided_conv_byte_identity(self):
        # Stride-2 conv exercises the non-unit column stride of the
        # window view feeding the GEMM.
        b = GraphBuilder("sconv", seed=6)
        x = b.input("x", (1, 16, 16, 3))
        b.output(b.conv(x, cout=8, kernel=3, stride=2, name="c1"))
        graph = b.build()
        _assert_oracle_identical(graph, random_feeds(graph, seed=6))


class TestWidthGate:
    def test_chain_graph_stays_serial(self):
        # mobilenet-v2 is a pure chain: hazard-graph width 1 at the
        # operator level, so with intra-op GEMM sharding pinned off the
        # dispatch must take the serial fast path even with workers.
        graph = build_model("mobilenet-v2")
        feeds = random_feeds(graph, seed=0)
        exe = CompiledExecutable(graph, workers=4,
                                 policy=ShardPolicy(gemm_shards=1))
        out = exe.run(feeds)
        ref = execute(graph, feeds)
        for name in ref:
            assert ref[name].tobytes() == out[name].tobytes()
        assert exe.pool_stats()["width"] == 1

    def test_chain_graph_widens_with_gemm_shards(self):
        # The same chain gains schedulable width once row-panel GEMM
        # sharding engages: disjoint per-panel writes carry no hazard
        # edges, so the shards of one conv overlap on the pool.  The
        # policy is pinned so REPRO_GEMM_SHARDS=1 cannot turn them off.
        graph = build_model("mobilenet-v2")
        feeds = random_feeds(graph, seed=0)
        exe = CompiledExecutable(graph, workers=4, policy=ShardPolicy())
        out = exe.run(feeds)
        ref = execute(graph, feeds)
        for name in ref:
            assert ref[name].tobytes() == out[name].tobytes()
        stats = exe.pool_stats()
        assert stats["width"] > 1
        assert stats["gemm_sharded_steps"] > 0

    def test_branchy_graph_reports_width(self):
        b = GraphBuilder("wide", seed=7)
        x = b.input("x", (1, 8, 8, 4))
        branches = [b.conv(x, cout=4, kernel=3, name=f"br{i}")
                    for i in range(3)]
        b.output(b.concat(branches, axis=3, name="cat"))
        graph = b.build()
        feeds = random_feeds(graph, seed=7)
        exe = CompiledExecutable(graph, workers=4)
        out = exe.run(feeds)
        ref = execute(graph, feeds)
        for name in ref:
            assert ref[name].tobytes() == out[name].tobytes()
        assert exe.pool_stats()["width"] > 1


class TestProfiling:
    def test_step_profile_kinds(self):
        graph = build_model("toy")
        exe = CompiledExecutable(graph)
        feeds = random_feeds(graph, seed=0)
        prof = exe.step_profile(feeds)
        assert prof, "profile must not be empty"
        for kind, row in prof.items():
            assert kind in ("gemm", "dwconv", "elementwise", "fused",
                            "copy", "other")
            assert row["steps"] > 0
            assert row["ms"] >= 0.0
        total_steps = sum(r["steps"] for r in prof.values())
        assert total_steps == sum(
            exe.pool_stats()["step_kinds"].values())

    def test_host_stats_surfaces_fusion_gauges(self):
        from repro.gpu.config import GpuConfig
        from repro.gpu.device import GpuDevice
        from repro.runtime.engine import ExecutionEngine

        graph = build_model("mobilenet-v2")
        engine = ExecutionEngine(GpuDevice(GpuConfig()))
        feeds = random_feeds(graph, seed=0)
        engine.infer(graph, feeds)
        stats = engine.host_stats()
        assert stats["fused_groups"] > 0
        assert stats["width"] >= 1
        assert stats["step_kinds"].get("fused", 0) > 0


def _run_checked(exe, graph, feeds):
    """One ``exe`` run, byte-compared with the oracle; returns stats."""
    ref = execute(graph, feeds)
    out = exe.run(feeds)
    for name in ref:
        assert ref[name].tobytes() == out[name].tobytes(), name
    return exe.pool_stats()


def _lone_graph(name, op, extra_inputs=(), attrs=None, seed=10):
    """conv -> lone ``op`` -> conv, so the pass finds no group."""
    b = GraphBuilder(name, seed=seed)
    x = b.input("x", (1, 8, 8, 4))
    extra = [b.input(t, (4,)) for t in extra_inputs]
    c = b.conv(x, cout=4, kernel=1, name="c1")
    y = b._emit(op, [c] + extra, attrs, "lone")
    b.output(b.conv(y, cout=4, kernel=1, name="tail"))
    return b.build()


class TestLoneElementwise:
    """Elementwise ops the fusion pass leaves alone bind as one-entry
    groups: step kind "elementwise", same binder as fused groups."""

    def test_lone_add_in_place_on_dying_input(self):
        b = GraphBuilder("alias", seed=8)
        x = b.input("x", (1, 8, 8, 4))
        left = b.conv(x, cout=4, kernel=1, name="ca")
        right = b.conv(x, cout=4, kernel=1, name="cb")
        y = b.add(left, right, name="sum")
        b.output(b.conv(y, cout=4, kernel=1, name="tail"))
        graph = b.build()
        feeds = random_feeds(graph, seed=8)
        exe = CompiledExecutable(graph)
        storage = exe.buffer_plan().storage
        # The planner hands the Add the exact buffer of a dead input.
        assert storage[y] in (storage[left], storage[right])
        for _ in range(2):
            stats = _run_checked(exe, graph, feeds)
        assert stats["step_kinds"]["elementwise"] == 1
        _, pool = exe._pool_for(feeds)
        state = pool.acquire()
        try:
            # Exact alias -> direct whole-array write, no tile staging.
            assert state._scratch.num_slots == 0
        finally:
            pool.release(state)

    def test_se_broadcast_mul_batch_sharded(self):
        # (N,H,W,C) x (N,1,1,C): the gate is sliced per batch shard
        # along with the data operand.
        b = GraphBuilder("se", seed=9)
        x = b.input("x", (1, 8, 8, 16))
        c = b.conv(x, cout=16, kernel=1, name="c1")
        gate = b.conv(b.global_avgpool(c, name="gap"), cout=16, kernel=1,
                      name="squeeze")
        assert tuple(b.graph.tensors[gate].shape) == (1, 1, 1, 16)
        y = b.mul(c, gate, name="excite")
        b.output(b.conv(y, cout=8, kernel=1, name="tail"))
        graph = b.build()
        feeds = random_feeds(graph, seed=9, batch=8)
        stats = _run_checked(CompiledExecutable(graph, workers=4), graph,
                             feeds)
        assert stats["step_kinds"]["elementwise"] == 4

    @pytest.mark.parametrize("op", ["Gelu", "Erf"])
    def test_lone_gelu_and_erf(self, op):
        graph = _lone_graph(f"lone-{op}", op)
        stats = _run_checked(CompiledExecutable(graph), graph,
                             random_feeds(graph, seed=10))
        assert stats["step_kinds"]["elementwise"] == 1

    @pytest.mark.parametrize("batch,workers", [(1, 1), (8, 4)])
    def test_lone_bn_with_graph_input_params(self, batch, workers):
        graph = _lone_graph("bn-inputs", "BatchNormalization",
                            ("scale", "bias", "mean", "var"),
                            {"epsilon": 1e-3}, seed=11)
        rng = np.random.default_rng(11)
        feeds = {name: rng.standard_normal(4).astype(np.float32)
                 for name in ("scale", "bias", "mean")}
        feeds["var"] = (np.abs(rng.standard_normal(4)) + 0.1).astype(
            np.float32)
        feeds["x"] = rng.standard_normal((batch, 8, 8, 4)).astype(
            np.float32)
        stats = _run_checked(CompiledExecutable(graph, workers=workers),
                             graph, feeds)
        assert stats["step_kinds"]["elementwise"] == (4 if batch == 8
                                                      else 1)

    def test_fused_mobilenet_census(self):
        # BN folded and activations fused: only the 10 residual Adds
        # remain elementwise, each lone, so no fused group exists.
        graph = fuse(build_model("mobilenet-v2"))
        stats = _run_checked(CompiledExecutable(graph), graph,
                             random_feeds(graph, seed=0))
        assert stats["step_kinds"]["elementwise"] == 10
        assert "fused" not in stats["step_kinds"]
        assert stats["fused_groups"] == 0


_ACTIVATIONS = [
    ("relu", {}),
    ("clip", {}),
    ("clip", {"activation_min": -0.5, "activation_max": 0.25}),
    ("silu", {}),
    ("sigmoid", {}),
    ("gelu", {}),
]


def _with_activation(graph, name, kind, extra):
    node = graph.node(name)
    node.attrs["activation"] = kind
    node.attrs.update(extra)
    graph.touch()


def _epilogue_graph(op, kind, extra):
    """Conv (im2col GEMM, then depthwise) or Gemm, each with a random
    bias and the given fused activation."""
    b = GraphBuilder(f"epi-{op}", seed=12)
    if op == "Conv":
        x = b.input("x", (1, 32, 32, 32))
        # Unpadded windows keep the conv's destination contiguous, so
        # its GEMM splits into row panels.
        b.output(b.dwconv(b.conv(x, cout=32, kernel=3, pad=0,
                                 name="conv"), pad=0, name="dw"))
        names = ("conv", "dw")
    else:
        x = b.input("x", (64, 512))
        b.output(b.gemm(x, cout=128, name="fc"))
        names = ("fc",)
    graph = b.build()
    rng = np.random.default_rng(12)
    for name in names:
        bias = graph.node(name).inputs[2]
        graph.initializers[bias] = rng.standard_normal(
            graph.initializers[bias].shape).astype(np.float32)
        _with_activation(graph, name, kind, extra)
    return graph


class TestEpilogues:
    """Conv/Gemm bias + activation epilogues from compile_elementwise."""

    @pytest.mark.parametrize("op", ["Conv", "Gemm"])
    @pytest.mark.parametrize("kind,extra", _ACTIVATIONS)
    def test_epilogue_byte_identity(self, op, kind, extra):
        graph = _epilogue_graph(op, kind, extra)
        feeds = random_feeds(graph, seed=12)
        _run_checked(CompiledExecutable(graph), graph, feeds)
        # Forced row panels: the epilogue runs once per panel.
        stats = _run_checked(
            CompiledExecutable(graph, workers=1,
                               policy=ShardPolicy(gemm_shards=4)),
            graph, feeds)
        assert stats["gemm_sharded_steps"] > 0
        if op == "Conv":
            # Batch 8 at 4 workers batch-shards the depthwise epilogue.
            _run_checked(CompiledExecutable(graph, workers=4), graph,
                         random_feeds(graph, seed=12, batch=8))

    @pytest.mark.parametrize("op", ["Conv", "Gemm"])
    def test_unknown_activation_raises_at_bind(self, op):
        graph = _epilogue_graph(op, "hardswish", {})
        shapes = {n: tuple(t.shape) for n, t in graph.tensors.items()}
        with pytest.raises(ValueError, match="unknown fused activation"):
            ExecutionState(_ProgramSpec(graph, shapes, elide=True))
