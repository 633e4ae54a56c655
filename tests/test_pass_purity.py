"""Clone-discipline lint: no registered pass may mutate its input graph.

Every pass contract says ``run(graph, ctx) -> Graph`` returns a
transformed *clone*.  This suite deep-snapshots the input (structure,
attributes, weight values, version) and asserts it is byte-identical
after the pass ran — on fixture graphs and on a real registry model,
for every registered pass including the parameterized back-end ones.
"""

import numpy as np
import pytest

from repro.graph.graph import Graph
from repro.graph.serialize import graph_to_dict
from repro.models import build_model
from repro.plan.fingerprint import graph_fingerprint
from repro.transform.passes import registered_passes, run_pass

#: Context options that let each parameterized pass run on the
#: fixture graphs below.
PASS_OPTIONS = {
    "mddp_split": {"node": "c0", "ratio_gpu": 0.5},
    "pipeline_chain": {"chain": ("pw1", "act1", "dw1"), "stages": 2},
    "apply_decisions": {"decisions": [
        {"mode": "split", "nodes": ["c0"], "ratio_gpu": 0.5},
    ]},
}

#: Parameterized passes only apply to graphs containing their target
#: nodes; map each to the fixture that has them.
PASS_FIXTURE = {
    "mddp_split": "small_conv_graph",
    "pipeline_chain": "pointwise_chain_graph",
    "apply_decisions": "small_conv_graph",
}


def _snapshot(graph: Graph):
    doc = graph_to_dict(graph, include_weights=True)
    weights = {k: np.array(v) for k, v in graph.initializers.items()}
    return doc, weights, graph.version, graph_fingerprint(graph)


def _assert_untouched(graph: Graph, snap, pass_name: str) -> None:
    doc, weights, version, fp = snap
    assert graph.version == version, f"{pass_name} touched its input"
    assert graph_fingerprint(graph) == fp, (
        f"{pass_name} structurally mutated its input")
    assert graph_to_dict(graph, include_weights=True) == doc, (
        f"{pass_name} mutated its input's serialized form")
    for k, v in weights.items():
        np.testing.assert_array_equal(
            graph.initializers[k], v,
            err_msg=f"{pass_name} mutated weight {k!r}")


@pytest.mark.parametrize(
    "pass_name", [info.name for info in registered_passes()])
def test_pass_never_mutates_input_fixture(pass_name, request):
    fixture = PASS_FIXTURE.get(pass_name, "small_conv_graph")
    graph = request.getfixturevalue(fixture)
    snap = _snapshot(graph)
    out = run_pass(pass_name, graph, **PASS_OPTIONS.get(pass_name, {}))
    assert out is not graph
    _assert_untouched(graph, snap, pass_name)


@pytest.mark.parametrize(
    "pass_name",
    [info.name for info in registered_passes() if not info.requires])
def test_standalone_pass_never_mutates_real_model(pass_name):
    graph = build_model("toy")
    snap = _snapshot(graph)
    run_pass(pass_name, graph)
    _assert_untouched(graph, snap, pass_name)


def test_fc_graph_cleanup_purity(fc_graph):
    """Non-conv graphs exercise different kernel paths; same contract."""
    snap = _snapshot(fc_graph)
    for info in registered_passes():
        if info.requires:
            continue
        run_pass(info.name, fc_graph)
    _assert_untouched(fc_graph, snap, "cleanup/fusion/memopt chain")


def test_fc_split_parts_alias_read_only_source(fc_graph):
    """MD-DP's FC parts are column views of the source weight and bias:
    the rest of the pipeline must leave the shared bytes alone."""
    snap = _snapshot(fc_graph)
    g = run_pass("mddp_split", fc_graph, node="fc0", ratio_gpu=0.5)
    for info in registered_passes():
        if not info.requires:
            g = run_pass(info.name, g)
    _assert_untouched(fc_graph, snap, "mddp_split + default pipeline")
    sources = {t: fc_graph.initializers[t]
               for t in fc_graph.node("fc0").inputs[1:]}
    parts = [n for n in g.nodes if n.attrs.get("mddp_part")]
    assert len(parts) == 2
    for node in parts:
        for part_name, (src_name, src) in zip(node.inputs[1:],
                                               sources.items()):
            part = g.initializers[part_name]
            assert part_name.startswith(src_name + "__")
            assert np.shares_memory(part, src), part_name
            assert not part.flags.writeable, part_name
