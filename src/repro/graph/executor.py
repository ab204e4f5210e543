"""Functional graph executor.

Runs a :class:`~repro.graph.graph.Graph` on concrete NumPy inputs in
topological order, with reference-counted intermediate freeing so big
graphs do not hold every activation alive. This is the "does the model
actually compute the right thing" half of the reproduction; the
performance models never call into it.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro import telemetry
from repro.graph.graph import Graph, GraphError

__all__ = ["execute"]


def _consumer_counts(graph: Graph) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for node in graph.nodes:
        for src in node.inputs:
            counts[src] = counts.get(src, 0) + 1
    for out in graph.output_names:
        counts[out] = counts.get(out, 0) + 1
    return counts


def execute(graph: Graph, feeds: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Run the graph and return ``{output_name: array}``.

    ``feeds`` must provide every graph input with a conforming array;
    shapes are validated against the graph's specs up front so shape
    bugs surface at the boundary rather than deep inside an operator.
    """
    graph.validate()
    missing = [n for n in graph.input_names if n not in feeds]
    if missing:
        raise GraphError(f"missing feeds for inputs: {missing}")
    values: Dict[str, np.ndarray] = {}
    for name, spec in graph.input_specs.items():
        array = np.asarray(feeds[name])
        if tuple(array.shape) != spec.shape:
            raise GraphError(
                f"feed {name!r} has shape {tuple(array.shape)}, "
                f"expected {spec.shape}"
            )
        values[name] = array

    # Telemetry is resolved once; the per-node fast path stays guarded
    # by a single boolean so disabled runs pay nothing.
    recording = telemetry.enabled()
    tracer = telemetry.get_tracer() if recording else None
    bytes_freed = 0
    live_bytes = sum(v.nbytes for v in values.values())
    peak_live_bytes = live_bytes

    remaining = _consumer_counts(graph)
    for node in graph.nodes:
        inputs = [values[s] for s in node.inputs]
        if recording:
            # Category is "executor" (not the op kind) so wall-clock
            # spans never pollute per-kind aggregations of the modeled
            # timeline; the kind rides along as an attribute.
            with tracer.span(node.name, category="executor", op_kind=node.kind):
                out = node.op.compute(inputs)
        else:
            out = node.op.compute(inputs)
        expected = node.output_spec.shape
        if tuple(out.shape) != expected:
            raise GraphError(
                f"node {node.name!r} ({node.kind}) produced shape "
                f"{tuple(out.shape)}, inferred {expected}"
            )
        values[node.name] = out
        live_bytes += out.nbytes
        if live_bytes > peak_live_bytes:
            peak_live_bytes = live_bytes
        for src in node.inputs:
            remaining[src] -= 1
            if remaining[src] == 0 and src not in graph.output_names:
                freed = values.pop(src, None)
                if freed is not None:
                    live_bytes -= freed.nbytes
                    if recording:
                        bytes_freed += freed.nbytes

    if recording:
        registry = telemetry.get_registry()
        registry.counter("executor.nodes_executed", graph=graph.name).inc(
            len(graph.nodes)
        )
        registry.gauge("executor.bytes_freed", graph=graph.name).set(bytes_freed)
        # Peak bytes of the inputs plus the live intermediates under
        # reference-counted freeing (tests check a hand-computed peak).
        registry.gauge(
            "executor.peak_live_bytes", graph=graph.name
        ).set(peak_live_bytes)

    return {out: values[out] for out in graph.output_names}

