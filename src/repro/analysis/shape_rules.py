"""Per-operator shape/dtype inference rules with a symbolic batch dim.

The graph IR stores concrete shapes (graphs are built per batch size),
but the *invariant* the verifier wants to check is batch-polymorphic:
an FC maps ``[B, in] -> [B, out]`` for any ``B``. These rules re-derive
every node's output spec with the batch dimension held symbolic
(:data:`BATCH`, a linear form ``coeff*B + const``), so the verifier
catches rules that only accidentally hold at the built batch size —
e.g. a Reshape that hard-codes the batch into a non-leading position.

Rules are registered by operator *kind string* (the same vocabulary as
:mod:`repro.ops.registry`) and read operator attributes duck-typed, so
this module never imports :mod:`repro.ops` and stays import-cycle-free.
Unknown kinds fall back to the operator's own ``infer_shape`` on
concretized inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple, Union

from repro.graph.tensor import TensorSpec

__all__ = [
    "SymDim",
    "BATCH",
    "SymSpec",
    "RuleError",
    "SHAPE_RULES",
    "shape_rule",
    "rule_for",
    "symbolize",
    "apply_rule",
]


class RuleError(ValueError):
    """An inference rule rejected its inputs (becomes a diagnostic)."""


@dataclass(frozen=True)
class SymDim:
    """A dimension linear in the symbolic batch: ``coeff*B + const``."""

    coeff: int
    const: int = 0

    def concrete(self, binding: int) -> int:
        return self.coeff * binding + self.const

    @property
    def is_symbolic(self) -> bool:
        return self.coeff != 0

    def __add__(self, other: "DimLike") -> "DimLike":
        if isinstance(other, SymDim):
            return _norm(SymDim(self.coeff + other.coeff, self.const + other.const))
        return _norm(SymDim(self.coeff, self.const + int(other)))

    __radd__ = __add__

    def __mul__(self, other: "DimLike") -> "DimLike":
        if isinstance(other, SymDim):
            if self.is_symbolic and other.is_symbolic:
                raise RuleError("product of two batch-symbolic dimensions")
            if not self.is_symbolic:
                return other * self.const
            other = other.const
        return _norm(SymDim(self.coeff * int(other), self.const * int(other)))

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.is_symbolic:
            return str(self.const)
        head = "B" if self.coeff == 1 else f"{self.coeff}B"
        return head if self.const == 0 else f"{head}+{self.const}"

    __repr__ = __str__


DimLike = Union[int, SymDim]

#: The distinguished symbolic batch dimension.
BATCH = SymDim(1, 0)


def _norm(dim: SymDim) -> DimLike:
    """Collapse constant SymDims back to plain ints."""
    return dim.const if dim.coeff == 0 else dim


def dim_product(dims: Sequence[DimLike]) -> DimLike:
    product: DimLike = 1
    for d in dims:
        product = product * d
    return product


@dataclass(frozen=True)
class SymSpec:
    """Shape/dtype with possibly-symbolic dimensions."""

    shape: Tuple[DimLike, ...]
    dtype: str = "float32"

    @property
    def rank(self) -> int:
        return len(self.shape)

    def concretize(self, binding: int) -> TensorSpec:
        return TensorSpec(
            tuple(
                d.concrete(binding) if isinstance(d, SymDim) else d
                for d in self.shape
            ),
            self.dtype,
        )

    def with_shape(self, shape: Sequence[DimLike]) -> "SymSpec":
        return SymSpec(tuple(shape), self.dtype)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.dtype}[{'x'.join(str(d) for d in self.shape)}]"


def symbolize(spec: TensorSpec, binding: int) -> SymSpec:
    """Lift a concrete input spec: a leading dim equal to the bound
    batch size becomes :data:`BATCH`; everything else stays concrete."""
    if spec.rank and spec.shape[0] == binding:
        return SymSpec((BATCH,) + tuple(spec.shape[1:]), spec.dtype)
    return SymSpec(tuple(spec.shape), spec.dtype)


# -- registry ---------------------------------------------------------------

Rule = Callable[[object, Sequence[SymSpec], int], SymSpec]

#: kind string -> inference rule. Registered alongside the operator
#: vocabulary of :mod:`repro.ops.registry`; extendable by new ops.
SHAPE_RULES: Dict[str, Rule] = {}


def shape_rule(*kinds: str) -> Callable[[Rule], Rule]:
    """Decorator registering a rule for one or more operator kinds."""

    def register(fn: Rule) -> Rule:
        for kind in kinds:
            SHAPE_RULES[kind] = fn
        return fn

    return register


def rule_for(kind: str) -> Rule:
    """The registered rule, or the concrete-fallback rule."""
    return SHAPE_RULES.get(kind, _fallback_rule)


def apply_rule(op, kind: str, inputs: Sequence[SymSpec], binding: int) -> SymSpec:
    """Run the kind's rule; all failures surface as :class:`RuleError`."""
    try:
        return rule_for(kind)(op, inputs, binding)
    except RuleError:
        raise
    except Exception as exc:  # op attribute errors, ValueError from ops, ...
        raise RuleError(str(exc)) from exc


def _fallback_rule(op, inputs: Sequence[SymSpec], binding: int) -> SymSpec:
    """Unknown kind: defer to the operator's own concrete inference,
    re-symbolizing a preserved leading batch dimension."""
    concrete = [s.concretize(binding) for s in inputs]
    out = op.infer_shape(concrete)
    batch_in = any(
        s.rank and isinstance(s.shape[0], SymDim) and s.shape[0].is_symbolic
        for s in inputs
    )
    if batch_in and out.rank and out.shape[0] == binding:
        return SymSpec((BATCH,) + tuple(out.shape[1:]), out.dtype)
    return SymSpec(tuple(out.shape), out.dtype)


# -- helpers ----------------------------------------------------------------

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RuleError(message)


def _require_arity(kind: str, inputs: Sequence[SymSpec], arity: int) -> None:
    _require(
        len(inputs) == arity,
        f"{kind} expects {arity} input(s), got {len(inputs)}",
    )


def _require_float(kind: str, spec: SymSpec) -> None:
    _require(
        spec.dtype.startswith("float"),
        f"{kind} expects float input, got {spec.dtype}",
    )


def _require_int(kind: str, spec: SymSpec) -> None:
    _require(
        spec.dtype.startswith("int"),
        f"{kind} expects integer indices, got {spec.dtype}",
    )


# -- dense / activation rules ----------------------------------------------

@shape_rule("FC")
def _fc_rule(op, inputs: Sequence[SymSpec], binding: int) -> SymSpec:
    _require_arity("FC", inputs, 1)
    (x,) = inputs
    _require_float("FC", x)
    _require(
        x.rank >= 2 and x.shape[-1] == op.in_features,
        f"FC expects [..., {op.in_features}], got {x}",
    )
    return x.with_shape(x.shape[:-1] + (op.out_features,))


@shape_rule("FusedFC")
def _fused_fc_rule(op, inputs: Sequence[SymSpec], binding: int) -> SymSpec:
    return _fc_rule(op.fc, inputs, binding)


@shape_rule("Relu", "Sigmoid", "Tanh")
def _activation_rule(op, inputs: Sequence[SymSpec], binding: int) -> SymSpec:
    kind = getattr(op, "kind", "activation")
    _require_arity(kind, inputs, 1)
    _require_float(kind, inputs[0])
    return inputs[0]


@shape_rule("Softmax")
def _softmax_rule(op, inputs: Sequence[SymSpec], binding: int) -> SymSpec:
    _require_arity("Softmax", inputs, 1)
    _require(inputs[0].rank >= 1, "Softmax needs at least rank-1 input")
    _require_float("Softmax", inputs[0])
    return inputs[0]


# -- embedding rules --------------------------------------------------------

@shape_rule("SparseLengthsSum")
def _sls_rule(op, inputs: Sequence[SymSpec], binding: int) -> SymSpec:
    _require_arity("SparseLengthsSum", inputs, 1)
    (idx,) = inputs
    _require(idx.rank == 2, f"SLS expects [batch, lookups] indices, got {idx}")
    _require_int("SparseLengthsSum", idx)
    return SymSpec((idx.shape[0], op.table.dim), "float32")


@shape_rule("Gather")
def _gather_rule(op, inputs: Sequence[SymSpec], binding: int) -> SymSpec:
    _require_arity("Gather", inputs, 1)
    (idx,) = inputs
    _require(idx.rank == 2, f"Gather expects [batch, lookups] indices, got {idx}")
    _require_int("Gather", idx)
    return SymSpec(idx.shape + (op.table.dim,), "float32")


@shape_rule("GroupedSparseLengthsSum")
def _grouped_sls_rule(op, inputs: Sequence[SymSpec], binding: int) -> SymSpec:
    _require(
        len(inputs) == len(op.tables),
        f"grouped SLS expects {len(op.tables)} index tensors, got {len(inputs)}",
    )
    batch = inputs[0].shape[0]
    for spec in inputs:
        _require(spec.rank == 2, f"grouped SLS expects rank-2 indices, got {spec}")
        _require_int("GroupedSparseLengthsSum", spec)
        _require(
            spec.shape[0] == batch,
            "grouped SLS inputs must share the batch size",
        )
    return SymSpec((batch, len(op.tables) * op.dim), "float32")


# -- shaping rules ----------------------------------------------------------

@shape_rule("Concat")
def _concat_rule(op, inputs: Sequence[SymSpec], binding: int) -> SymSpec:
    _require(len(inputs) >= 1, "Concat needs at least one input")
    first = inputs[0]
    axis = op.axis if op.axis >= 0 else first.rank + op.axis
    _require(
        0 <= axis < first.rank,
        f"Concat axis {op.axis} out of range for {first}",
    )
    concat_dim: DimLike = 0
    for spec in inputs:
        _require(
            spec.rank == first.rank and spec.dtype == first.dtype,
            "Concat inputs must share rank and dtype",
        )
        for d in range(first.rank):
            if d != axis:
                _require(
                    spec.shape[d] == first.shape[d],
                    f"Concat mismatch on dim {d}: {spec} vs {first}",
                )
        concat_dim = concat_dim + spec.shape[axis]
    shape = list(first.shape)
    shape[axis] = concat_dim
    return first.with_shape(shape)


@shape_rule("Flatten")
def _flatten_rule(op, inputs: Sequence[SymSpec], binding: int) -> SymSpec:
    _require_arity("Flatten", inputs, 1)
    (x,) = inputs
    _require(x.rank >= 2, "Flatten needs rank >= 2")
    return x.with_shape((x.shape[0], dim_product(x.shape[1:])))


@shape_rule("Reshape")
def _reshape_rule(op, inputs: Sequence[SymSpec], binding: int) -> SymSpec:
    _require_arity("Reshape", inputs, 1)
    (x,) = inputs
    target = list(op.shape)
    _require(target.count(-1) <= 1, "Reshape allows at most one -1")
    elements = dim_product(x.shape)
    # Reshape targets are concrete (built per batch size): check element
    # conservation under the binding, then re-symbolize a leading dim
    # that matches the batch so downstream rules stay polymorphic.
    total = elements.concrete(binding) if isinstance(elements, SymDim) else elements
    known = 1
    for d in target:
        if d != -1:
            known *= d
    if -1 in target:
        _require(
            known > 0 and total % known == 0,
            f"cannot reshape {x} to {tuple(op.shape)}",
        )
        target[target.index(-1)] = total // known
    else:
        _require(
            known == total, f"cannot reshape {x} to {tuple(op.shape)}"
        )
    out: List[DimLike] = list(target)
    batch_in = any(isinstance(d, SymDim) and d.is_symbolic for d in x.shape)
    if batch_in and out and out[0] == binding:
        out[0] = BATCH
    return x.with_shape(out)


@shape_rule("Slice")
def _slice_rule(op, inputs: Sequence[SymSpec], binding: int) -> SymSpec:
    _require_arity("Slice", inputs, 1)
    (x,) = inputs
    _require(
        0 <= op.axis < x.rank, f"Slice axis {op.axis} out of range for {x}"
    )
    extent = x.shape[op.axis]
    if isinstance(extent, SymDim):
        extent = extent.concrete(binding)
    _require(op.stop <= extent, "slice exceeds input extent")
    shape = list(x.shape)
    shape[op.axis] = op.stop - op.start
    return x.with_shape(shape)


# -- elementwise rules ------------------------------------------------------

@shape_rule("Sum")
def _sum_rule(op, inputs: Sequence[SymSpec], binding: int) -> SymSpec:
    _require(len(inputs) >= 1, "Sum needs at least one input")
    first = inputs[0]
    axis = getattr(op, "axis", None)
    if len(inputs) == 1:
        if axis is None:
            return first
        _require(
            0 <= axis < first.rank,
            f"Sum axis {axis} out of range for {first}",
        )
        return first.with_shape(first.shape[:axis] + first.shape[axis + 1:])
    _require(axis is None, "axis reduction only valid for single-input Sum")
    for spec in inputs[1:]:
        _require(
            spec.shape == first.shape,
            f"Sum inputs must share shape: {spec} vs {first}",
        )
    return first


@shape_rule("Mul", "Add")
def _binary_rule(op, inputs: Sequence[SymSpec], binding: int) -> SymSpec:
    kind = getattr(op, "kind", "binary")
    _require_arity(kind, inputs, 2)
    a, b = inputs
    _require(
        a.shape == b.shape,
        f"{kind} inputs must share shape: {a} vs {b}",
    )
    return a


# -- interaction / attention / recurrence rules -----------------------------

@shape_rule("BatchMatMul")
def _bmm_rule(op, inputs: Sequence[SymSpec], binding: int) -> SymSpec:
    _require_arity("BatchMatMul", inputs, 2)
    a, b = inputs
    _require(a.rank == 3 and b.rank == 3, "BatchMatMul expects rank-3 inputs")
    _require(
        a.shape[0] == b.shape[0] and a.shape[2] == b.shape[1],
        f"BatchMatMul mismatch: {a} @ {b}",
    )
    return a.with_shape((a.shape[0], a.shape[1], b.shape[2]))


@shape_rule("DotInteraction")
def _dot_interaction_rule(op, inputs: Sequence[SymSpec], binding: int) -> SymSpec:
    _require(len(inputs) >= 2, "DotInteraction needs at least two features")
    first = inputs[0]
    _require(first.rank == 2, "DotInteraction expects [batch, dim] features")
    for spec in inputs[1:]:
        _require(
            spec.shape == first.shape,
            "DotInteraction features must share shape",
        )
    n = len(inputs)
    pairs = n * (n - 1) // 2
    return first.with_shape((first.shape[0], first.shape[1] + pairs))


@shape_rule("AttentionScores")
def _attention_scores_rule(op, inputs: Sequence[SymSpec], binding: int) -> SymSpec:
    _require_arity("AttentionScores", inputs, 2)
    seq, query = inputs
    _require(
        seq.rank == 3 and query.rank == 2,
        "AttentionScores expects [b,t,h] and [b,h]",
    )
    _require(
        seq.shape[0] == query.shape[0] and seq.shape[2] == query.shape[1],
        f"AttentionScores mismatch: {seq} vs {query}",
    )
    return seq.with_shape((seq.shape[0], seq.shape[1]))


@shape_rule("LocalActivation")
def _local_activation_rule(op, inputs: Sequence[SymSpec], binding: int) -> SymSpec:
    _require_arity("LocalActivation", inputs, 2)
    behaviors, candidate = inputs
    _require(
        behaviors.rank == 3 and behaviors.shape[2] == op.dim,
        f"attention expects behaviors [b, l, {op.dim}], got {behaviors}",
    )
    _require(
        candidate.shape == (behaviors.shape[0], op.dim),
        f"attention expects candidate [b, {op.dim}], got {candidate}",
    )
    return candidate


@shape_rule("RecurrentNetwork")
def _gru_rule(op, inputs: Sequence[SymSpec], binding: int) -> SymSpec:
    _require_arity("RecurrentNetwork", inputs, 1)
    (x,) = inputs
    _require(
        x.rank == 3 and x.shape[2] == op.cell.input_dim,
        f"GRU expects [batch, steps, {op.cell.input_dim}], got {x}",
    )
    if op.return_sequence:
        return x.with_shape((x.shape[0], x.shape[1], op.cell.hidden_dim))
    return x.with_shape((x.shape[0], op.cell.hidden_dim))


@shape_rule("AUGRU")
def _augru_rule(op, inputs: Sequence[SymSpec], binding: int) -> SymSpec:
    _require_arity("AUGRU", inputs, 2)
    seq, scores = inputs
    _require(
        seq.rank == 3 and seq.shape[2] == op.cell.input_dim,
        f"AUGRU expects [batch, steps, {op.cell.input_dim}], got {seq}",
    )
    _require(
        scores.shape == seq.shape[:2],
        f"AUGRU scores must be [batch, steps], got {scores}",
    )
    return seq.with_shape((seq.shape[0], op.cell.hidden_dim))
