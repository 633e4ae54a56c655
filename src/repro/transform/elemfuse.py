"""Elementwise-group fusion: ``FusedElementwise`` super-nodes.

The buffer planner already eliminates *allocation* for in-place
elementwise chains, but every op in a BN/Add/Clip/Sigmoid chain still
round-trips a full activation tensor through the arena: each kernel
reads its input from memory and writes its output back, so a chain of
``k`` elementwise ops moves ``2k`` activation-sized tensors even when
they all share one buffer.  This pass collapses maximal groups of pure
elementwise ops into a single ``FusedElementwise`` node carrying the
original sub-expression, so the compiled executor can evaluate the
whole group in one blocked sweep over the output with intermediates
living in a cache-sized scratch tile (see
:meth:`repro.runtime.compiled.ExecutionState._bind_fused`).  Interior
tensors disappear from the graph entirely — the buffer planner
allocates nothing for them.

Groups may be arbitrary DAGs, not just chains (a diamond like
``Relu -> {Sigmoid, Tanh} -> Add`` fuses into one node).  The merge
loop keeps the contracted graph acyclic with per-node reachability
bitmasks: a producer may join its consumer's group only if no path
escapes the group and re-enters it through an external node.

Node encoding (all attrs JSON-serializable, so fused graphs survive
``graph.serialize`` round trips):

* ``expr`` — list of ``{"op", "inputs", "attrs"}`` entries in
  topological order; each input ref is ``["in", i]`` (the fused node's
  ``inputs[i]``) or ``["t", j]`` (entry ``j``'s result).
* ``out_ids`` — entry indices aligned 1:1 with ``node.outputs``
  (member results consumed outside the group, or graph outputs).

Every member's *output* shape must equal the group's common shape, so
the executor can tile all entries uniformly; member *inputs* may be
initializers or any broadcast-compatible shape (per-channel BN params,
bias vectors).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.graph.graph import Graph
from repro.graph.node import Node

#: Ops a ``FusedElementwise`` group may contain: pure per-element maps
#: with a single data-shaped output.  BatchNormalization qualifies
#: because its params broadcast per-channel; Softmax does not (it
#: reduces over an axis, so it cannot be tiled along arbitrary axes).
FUSABLE_ELEMENTWISE = frozenset({
    "Add", "Mul", "Sub", "Div",
    "Relu", "Clip", "Sigmoid", "Silu", "Tanh", "Gelu", "Erf",
    "BatchNormalization",
})


def _fusable(node: Node, shape_of: Dict[str, tuple]) -> bool:
    return (node.op_type in FUSABLE_ELEMENTWISE
            and len(node.outputs) == 1
            and node.device != "pim"
            and not node.attr("elided", False)
            and shape_of.get(node.outputs[0]) is not None)


def _find_groups(graph: Graph) -> List[List[Node]]:
    """Maximal fusable groups (>= 2 members), each in topological order."""
    order = graph.toposort()
    shape_of = {name: tuple(info.shape)
                for name, info in graph.tensors.items()}
    producer_of: Dict[str, int] = {}
    consumers_of: Dict[str, List[int]] = {}
    for i, n in enumerate(order):
        for t in n.outputs:
            producer_of[t] = i
        for t in n.inputs:
            consumers_of.setdefault(t, []).append(i)

    # reach[i]: bitmask of nodes reachable from node i (including i).
    # Python ints give O(N/64)-word set union, cheap even for the
    # multi-hundred-node registry models.
    reach = [0] * len(order)
    for i in range(len(order) - 1, -1, -1):
        r = 1 << i
        for t in order[i].outputs:
            for j in consumers_of.get(t, ()):
                r |= reach[j]
        reach[i] = r

    def merge_safe(members: Sequence[int], mask: int) -> bool:
        # Contracting `members` into one node is acyclic iff no external
        # direct consumer of a member output can reach back into the
        # group (group -> external -> group would become a self-loop).
        for m in members:
            for t in order[m].outputs:
                for c in consumers_of.get(t, ()):
                    if not (mask >> c) & 1 and reach[c] & mask:
                        return False
        return True

    group_of: Dict[int, int] = {}
    members_of: Dict[int, List[int]] = {}
    mask_of: Dict[int, int] = {}
    for i, n in enumerate(order):
        if not _fusable(n, shape_of):
            continue
        gid = i
        group_of[i] = gid
        members_of[gid] = [i]
        mask_of[gid] = 1 << i
        out_shape = shape_of[n.outputs[0]]
        for t in n.inputs:
            p = producer_of.get(t)
            if p is None:
                continue
            pg = group_of.get(p)
            if pg is None or pg == gid:
                continue
            if shape_of[order[p].outputs[0]] != out_shape:
                continue
            if order[p].device != n.device:
                continue
            merged = members_of[pg] + members_of[gid]
            merged_mask = mask_of[pg] | mask_of[gid]
            if not merge_safe(merged, merged_mask):
                continue
            for m in members_of[pg]:
                group_of[m] = gid
            members_of[gid] = merged
            mask_of[gid] = merged_mask
            del members_of[pg], mask_of[pg]
    return [[order[m] for m in sorted(ms)]
            for gid, ms in sorted(members_of.items()) if len(ms) > 1]


def _contract(graph: Graph, members: List[Node]) -> None:
    """Replace `members` (topo-ordered) with one FusedElementwise node."""
    member_names = {n.name for n in members}
    produced: Dict[str, int] = {}
    ext_inputs: List[str] = []
    ext_index: Dict[str, int] = {}
    expr: List[dict] = []
    for n in members:
        refs: List[list] = []
        for t in n.inputs:
            if t in produced:
                refs.append(["t", produced[t]])
            else:
                j = ext_index.get(t)
                if j is None:
                    j = ext_index[t] = len(ext_inputs)
                    ext_inputs.append(t)
                refs.append(["in", j])
        expr.append({"op": n.op_type, "inputs": refs,
                     "attrs": dict(n.attrs)})
        produced[n.outputs[0]] = len(expr) - 1

    consumed_outside = set(graph.outputs)
    consumed_inside: Dict[str, int] = {}
    for node in graph.nodes:
        if node.name in member_names:
            for t in node.inputs:
                consumed_inside[t] = consumed_inside.get(t, 0) + 1
        else:
            consumed_outside.update(node.inputs)
    out_names: List[str] = []
    out_ids: List[int] = []
    for n in members:
        t = n.outputs[0]
        # Keep dead member results as fused outputs too: a Node needs
        # at least one output, and dead-node elimination is cleanup's
        # job, not this pass's.
        if t in consumed_outside or t not in consumed_inside:
            out_names.append(t)
            out_ids.append(produced[t])

    device = members[0].device
    for n in members:
        graph.remove_node(n.name)
    for t, j in produced.items():
        if t not in out_names:
            graph.tensors.pop(t, None)
    graph.add_node(Node(
        name=graph.unique_name("fused_elem"),
        op_type="FusedElementwise",
        inputs=ext_inputs,
        outputs=out_names,
        attrs={"expr": expr, "out_ids": out_ids},
        device=device,
    ))


def _shallow_clone(graph: Graph) -> Graph:
    """Structural copy sharing the input graph's Node objects.

    ``_contract`` only edits the copy's *containers* — the node list
    and the tensor dict — and reads member nodes (``dict(n.attrs)``
    copies); no Node is ever mutated.  Sharing them instead of deep-
    cloning keeps the fused graph the compiled executor retains per
    executable down to the containers themselves.
    """
    out = Graph(graph.name)
    out.tensors = dict(graph.tensors)
    out.initializers = dict(graph.initializers)
    out.inputs = list(graph.inputs)
    out.outputs = list(graph.outputs)
    out.nodes = list(graph.nodes)
    out._name_counter = graph._name_counter
    return out


def _fuse_elementwise(graph: Graph) -> Graph:
    """Pass body: returns a clone with elementwise groups contracted."""
    out = _shallow_clone(graph)
    for members in _find_groups(out):
        _contract(out, members)
    return out


def fuse_elementwise(graph: Graph) -> Graph:
    """Group maximal elementwise chains/DAGs into FusedElementwise nodes.

    Functional wrapper over the registered ``fuse_elementwise`` pass
    (instrumented, clone-disciplined).  The compiled executor always
    applies the raw pass internally (see
    :meth:`repro.runtime.compiled.CompiledExecutable._run_graph`) and
    binds any elementwise op left outside a group as a one-entry group,
    so running this explicitly is only needed when inspecting or
    serializing the fused graph itself.
    """
    from repro.transform.passes import run_pass

    return run_pass("fuse_elementwise", graph)
