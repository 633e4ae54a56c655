"""Generic cleanup passes: dead-code elimination and constant folding.

Standard compiler hygiene the TVM front end performs before the
PIM-specific passes.  Both passes are pure (clone + rewrite) and
semantics-preserving.

The implementations are registered with the pass manager
(:mod:`repro.transform.passes`) as ``fold_constants`` and
``eliminate_dead_nodes``; the public functions here are thin wrappers
routing through it, so every invocation is instrumented and can be
verified (``--verify-passes``) or snapshotted (``--dump-ir``).
"""

from __future__ import annotations

from repro.graph.graph import Graph


def _eliminate_dead_nodes(graph: Graph) -> Graph:
    """Remove nodes whose outputs are never consumed.

    Iterates to a fixpoint so whole dead chains disappear.  Graph
    outputs are always live.
    """
    g = graph.clone()
    changed = True
    while changed:
        changed = False
        live = set(g.outputs)
        for node in g.nodes:
            live.update(node.inputs)
        for node in list(g.nodes):
            if not any(t in live for t in node.outputs):
                g.remove_node(node.name)
                changed = True
    return g


def _fold_constants(graph: Graph) -> Graph:
    """Evaluate nodes whose inputs are all initializers.

    The node is removed and its output registered as a new initializer,
    so downstream passes (e.g. MD-DP, which splits an FC weight into
    column views) see a constant operand.
    """
    from repro.runtime.numerical import execute_node

    g = graph.clone()
    changed = True
    while changed:
        changed = False
        for node in list(g.nodes):
            if node.outputs[0] in g.outputs:
                continue
            if not node.inputs:
                continue
            if not all(t in g.initializers for t in node.inputs):
                continue
            value = execute_node(node, [g.initializers[t] for t in node.inputs])
            out = node.outputs[0]
            g.remove_node(node.name)
            dtype = g.tensors[out].dtype
            del g.tensors[out]
            g.add_initializer(out, value, dtype)
            changed = True
    return g


def eliminate_dead_nodes(graph: Graph) -> Graph:
    """Dead-code elimination via the registered ``eliminate_dead_nodes`` pass."""
    from repro.transform.passes import run_pass
    return run_pass("eliminate_dead_nodes", graph)


def fold_constants(graph: Graph) -> Graph:
    """Constant folding via the registered ``fold_constants`` pass."""
    from repro.transform.passes import run_pass
    return run_pass("fold_constants", graph)


def cleanup(graph: Graph) -> Graph:
    """Constant folding followed by dead-code elimination."""
    from repro.transform.passes import CLEANUP, run_pipeline
    return run_pipeline(CLEANUP, graph)
