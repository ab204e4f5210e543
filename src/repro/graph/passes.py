"""Graph-optimization passes.

Rewrites that production inference stacks apply before deployment,
targeting exactly the overheads the paper measures: per-operator
dispatch/launch cost and small-kernel memory round trips.

* :func:`fuse_fc_activations` — vertical FC+activation fusion.
* :func:`group_sls_into_concat` — horizontal fusion of N per-table
  ``SparseLengthsSum`` ops whose outputs meet in one ``Concat``.
* :func:`optimize` — the full pipeline.

Passes are *semantics-preserving*: the rewritten graph computes
identical outputs (tests pin equality to float tolerance).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.graph.graph import Graph, Node
from repro.ops.fused import FusedFC, GroupedSparseLengthsSum

__all__ = [
    "fuse_fc_activations",
    "group_sls_into_concat",
    "optimize",
    "DEFAULT_PASSES",
]

_ACTIVATION_KINDS = ("Relu", "Sigmoid", "Tanh")


def _consumers(graph: Graph) -> Dict[str, List[str]]:
    out: Dict[str, List[str]] = {}
    for node in graph.nodes:
        for src in node.inputs:
            out.setdefault(src, []).append(node.name)
    return out


def _rebuild(
    graph: Graph,
    replace: Dict[str, Tuple[object, Tuple[str, ...]]],
    drop: Set[str],
    rename: Dict[str, str],
) -> Graph:
    """Reassemble a graph applying node replacements/drops/renames.

    ``replace``: node name -> (new op, new inputs).
    ``drop``: node names removed entirely.
    ``rename``: old edge name -> the edge consumers should read instead.
    """
    def resolve(edge: str) -> str:
        while edge in rename:
            edge = rename[edge]
        return edge

    rebuilt = Graph(graph.name)
    for name, spec in graph.input_specs.items():
        rebuilt.add_input(name, spec)
    for node in graph.nodes:
        if node.name in drop:
            continue
        if node.name in replace:
            op, inputs = replace[node.name]
            rebuilt.add_node(node.name, op, [resolve(i) for i in inputs])
        else:
            rebuilt.add_node(
                node.name, node.op, [resolve(i) for i in node.inputs]
            )
    for out in graph.output_names:
        rebuilt.mark_output(resolve(out))
    rebuilt.validate()
    return rebuilt


def fuse_fc_activations(graph: Graph) -> Graph:
    """Fold every activation whose sole producer/consumer pair matches
    ``FC -> activation`` into a single :class:`FusedFC` node."""
    consumers = _consumers(graph)
    replace: Dict[str, Tuple[object, Tuple[str, ...]]] = {}
    drop: Set[str] = set()
    rename: Dict[str, str] = {}
    for node in graph.nodes:
        if node.kind != "FC" or node.name in drop:
            continue
        users = consumers.get(node.name, [])
        is_output = node.name in graph.output_names
        if len(users) != 1 or is_output:
            continue
        activation = graph.node(users[0])
        if activation.kind not in _ACTIVATION_KINDS:
            continue
        replace[node.name] = (FusedFC(node.op, activation.op), node.inputs)
        drop.add(activation.name)
        rename[activation.name] = node.name
    if not replace:
        return graph
    return _rebuild(graph, replace, drop, rename)


def group_sls_into_concat(graph: Graph) -> Graph:
    """Fuse N per-table SLS nodes feeding one Concat into a single
    :class:`GroupedSparseLengthsSum` (plus the Concat's other inputs)."""
    consumers = _consumers(graph)
    for node in graph.nodes:
        if node.kind != "Concat" or getattr(node.op, "axis", None) != 1:
            continue
        # Leading run of SLS inputs, each consumed only by this concat.
        sls_nodes: List[Node] = []
        for src in node.inputs:
            if not graph.has_tensor(src) or src in graph.input_names:
                break
            producer = graph.node(src) if src in graph else None
            if (
                producer is not None
                and producer.kind == "SparseLengthsSum"
                and consumers.get(src, []) == [node.name]
                and src not in graph.output_names
            ):
                sls_nodes.append(producer)
            else:
                break
        if len(sls_nodes) < 2:
            continue
        grouped = GroupedSparseLengthsSum([n.op.table for n in sls_nodes])
        grouped_name = f"{node.name}_grouped_sls"
        rest = list(node.inputs[len(sls_nodes):])
        replace: Dict[str, Tuple[object, Tuple[str, ...]]] = {}
        drop = {n.name for n in sls_nodes}
        rename: Dict[str, str] = {}
        if rest:
            # Keep the concat, feeding it the grouped output first.
            first = sls_nodes[0]
            replace[first.name] = (
                grouped,
                tuple(n.inputs[0] for n in sls_nodes),
            )
            drop.discard(first.name)
            replace[node.name] = (node.op, tuple([first.name] + rest))
        else:
            # The concat disappears entirely.
            first = sls_nodes[0]
            replace[first.name] = (
                grouped,
                tuple(n.inputs[0] for n in sls_nodes),
            )
            drop.discard(first.name)
            drop.add(node.name)
            rename[node.name] = first.name
        rewritten = _rebuild(graph, replace, drop, rename)
        # One rewrite per invocation; recurse for further matches.
        return group_sls_into_concat(rewritten)
    return graph


#: The default pass pipeline: horizontal SLS grouping, then vertical
#: FC fusion.
DEFAULT_PASSES = (group_sls_into_concat, fuse_fc_activations)


def optimize(graph: Graph, passes=None, verify: bool = True) -> Graph:
    """Apply the pass pipeline and statically verify the result.

    ``passes`` overrides the pipeline (a sequence of ``Graph -> Graph``
    callables, applied left to right); tests use this to prove that a
    deliberately broken pass is caught. With ``verify`` on (default),
    the final composed graph must pass the full static verifier *and*
    be spec-equivalent to the input graph — same input interface, same
    positional output specs — otherwise
    :class:`repro.analysis.GraphVerifyError` is raised.
    """
    optimized = graph
    for pass_fn in DEFAULT_PASSES if passes is None else passes:
        optimized = pass_fn(optimized)
    if verify and optimized is not graph:
        from repro.analysis import assert_equivalent, assert_verified

        assert_verified(optimized)
        assert_equivalent(graph, optimized)
    return optimized

