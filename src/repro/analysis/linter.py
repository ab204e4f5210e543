"""AST lint pass enforcing the repo's determinism/concurrency invariants.

The reproduction's correctness story depends on invariants that no unit
test can pin globally: every random draw is seeded, simulated time never
reads the wall clock, digests are stable across processes, shared
module state is mutated under a lock, and merged results never depend
on hash order. This linter makes those invariants *checkable*:

* REP001 unseeded-rng — module-level ``np.random.*`` / ``random.*``
  draws (the global, unseeded generators). Use
  ``np.random.default_rng(seed)`` / ``rng_for(...)`` instead.
* REP002 wall-clock — ``time.time`` / ``datetime.now`` (and friends) in
  simulator/library code. Simulated timestamps must come from the event
  clock; span timing uses ``perf_counter`` (monotonic, allowed).
* REP003 builtin-hash — ``hash()`` where a stable digest is required.
  ``PYTHONHASHSEED`` randomizes ``hash()`` per process; use the
  BLAKE2b-based ``repro.ops.initializers.seed_for`` or ``hashlib``.
* REP004 unlocked-global — assignment to a ``global`` from inside a
  function without an enclosing ``with <...lock...>:`` block.
* REP005 unordered-iteration — iterating a set (literal, comprehension,
  or ``set()``/``frozenset()`` call) in a ``for`` loop, comprehension,
  or order-sensitive reduction without ``sorted()``. Set order follows
  the (randomized) string hash, so merged results drift across runs.
* REP006 env-read — ``os.environ`` / ``os.getenv`` outside sanctioned
  config entry points. Environment-dependent behavior silently varies
  model output and breaks record byte-stability; reads belong in the
  config layer, annotated ``# repro: noqa(REP006)``.
* REP007 unknown-noqa — a ``# repro: noqa(...)`` comment naming a rule
  id this toolchain does not define (usually a typo); the suppression
  is dead and the underlying finding may resurface.

Suppress a finding with an inline comment on the offending line::

    value = hash(key)  # repro: noqa(REP003)

``# repro: noqa`` (no argument) suppresses every rule on that line;
``# repro: noqa(REP003, REP005)`` suppresses exactly those rules.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import (
    ERROR,
    WARNING,
    Diagnostic,
    DiagnosticReport,
)

__all__ = ["LintRule", "LINT_RULES", "lint_source", "lint_paths"]


@dataclass(frozen=True)
class LintRule:
    id: str
    name: str
    summary: str
    hint: str


LINT_RULES: Dict[str, LintRule] = {
    rule.id: rule
    for rule in (
        LintRule(
            "REP001", "unseeded-rng",
            "module-level np.random / random draw (unseeded global RNG)",
            "use np.random.default_rng(seed) or repro.ops.initializers.rng_for",
        ),
        LintRule(
            "REP002", "wall-clock",
            "wall-clock read in simulator/library code",
            "derive timestamps from the simulated event clock; use "
            "time.perf_counter only for span durations",
        ),
        LintRule(
            "REP003", "builtin-hash",
            "builtin hash() where a stable digest is required",
            "hash() is salted per process (PYTHONHASHSEED); use "
            "repro.ops.initializers.seed_for or hashlib.blake2b",
        ),
        LintRule(
            "REP004", "unlocked-global",
            "module-level shared state mutated outside a lock",
            "wrap the assignment in `with <lock>:` or annotate why the "
            "race is benign",
        ),
        LintRule(
            "REP005", "unordered-iteration",
            "iteration over an unordered set in an order-sensitive context",
            "wrap the set in sorted(...) before iterating or reducing",
        ),
        LintRule(
            "REP006", "env-read",
            "environment read outside a sanctioned config entry point",
            "route the read through the config layer and annotate it with "
            "`# repro: noqa(REP006)`",
        ),
        LintRule(
            "REP007", "unknown-noqa",
            "noqa comment names a rule id this toolchain does not define",
            "fix the rule id (REPnnn) or drop the dead suppression",
        ),
    )
}

#: numpy.random attributes that are *not* unseeded draws.
_NP_RANDOM_ALLOWED = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937", "RandomState",
}

#: stdlib random module functions that draw from the global generator.
_STDLIB_RANDOM_DRAWS = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "lognormvariate",
    "expovariate", "betavariate", "gammavariate", "paretovariate",
    "vonmisesvariate", "weibullvariate", "triangular", "getrandbits",
    "randbytes", "seed",
}

#: fully-qualified wall-clock reads.
_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.localtime", "time.gmtime",
    "time.ctime", "time.asctime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: calls whose result depends on the order of a set argument.
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate", "sum", "reversed"}

#: environment accessors that make behavior host-dependent.
_ENV_CALLS = {"os.getenv", "os.putenv", "os.unsetenv"}

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa"
    r"(?:\(\s*(?P<rules>[A-Z]{2,5}\d+(?:\s*,\s*[A-Z]{2,5}\d+)*)\s*\))?",
    re.IGNORECASE,
)


def _suppressed(source_lines: Sequence[str], line: int, rule: str) -> bool:
    if not 1 <= line <= len(source_lines):
        return False
    match = _NOQA_RE.search(source_lines[line - 1])
    if not match:
        return False
    rules = match.group("rules")
    if rules is None:
        return True
    return rule.upper() in {r.strip().upper() for r in rules.split(",")}


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _mentions_lock(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        name = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        if name is not None and "lock" in name.lower():
            return True
    return False


class _Linter(ast.NodeVisitor):
    def __init__(self, filename: str, select: Optional[Set[str]]) -> None:
        self.filename = filename
        self.select = select
        self.findings: List[Diagnostic] = []
        #: local alias -> real module path ("np" -> "numpy").
        self.modules: Dict[str, str] = {}
        #: from-imported name -> fully qualified ("datetime" ->
        #: "datetime.datetime").
        self.members: Dict[str, str] = {}
        self._with_lock_depth = 0
        self._global_names: List[Set[str]] = []

    # -- bookkeeping -------------------------------------------------------

    def _emit(self, rule_id: str, node: ast.AST, detail: str) -> None:
        if self.select is not None and rule_id not in self.select:
            return
        rule = LINT_RULES[rule_id]
        self.findings.append(Diagnostic(
            rule_id, ERROR, f"{detail} [{rule.name}]",
            hint=rule.hint,
            file=self.filename,
            line=getattr(node, "lineno", None),
            col=getattr(node, "col_offset", None),
        ))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.modules[alias.asname or alias.name.split(".")[0]] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self.members[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    def _resolve(self, dotted: str) -> str:
        """Map a source-level dotted name to its fully-qualified form."""
        head, _, rest = dotted.partition(".")
        if head in self.modules:
            base = self.modules[head]
            return f"{base}.{rest}" if rest else base
        if head in self.members:
            base = self.members[head]
            return f"{base}.{rest}" if rest else base
        return dotted

    # -- REP001 / REP002 / REP003 ------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None:
            resolved = self._resolve(dotted)
            self._check_rng(node, resolved)
            self._check_wall_clock(node, resolved)
            if resolved in _ENV_CALLS:
                self._emit(
                    "REP006", node,
                    f"environment read via {resolved}",
                )
        if isinstance(node.func, ast.Name) and node.func.id == "hash":
            self._emit(
                "REP003", node,
                "builtin hash() is process-salted and unstable across runs",
            )
        self._check_order_sensitive_call(node)
        self.generic_visit(node)

    def _check_rng(self, node: ast.Call, resolved: str) -> None:
        parts = resolved.split(".")
        if (
            len(parts) == 3
            and parts[0] == "numpy"
            and parts[1] == "random"
            and parts[2] not in _NP_RANDOM_ALLOWED
        ):
            self._emit(
                "REP001", node,
                f"call to the unseeded global generator numpy.random."
                f"{parts[2]}",
            )
        elif (
            len(parts) == 2
            and parts[0] == "random"
            and parts[1] in _STDLIB_RANDOM_DRAWS
        ):
            self._emit(
                "REP001", node,
                f"call to the unseeded global generator random.{parts[1]}",
            )

    def _check_wall_clock(self, node: ast.Call, resolved: str) -> None:
        if resolved in _WALL_CLOCK:
            self._emit(
                "REP002", node,
                f"wall-clock read via {resolved}",
            )

    # -- REP006 ------------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Fires exactly once per access chain: for `os.environ.get(k)` the
        # outer chain resolves to "os.environ.get" (no match) and only the
        # inner `os.environ` node matches.
        dotted = _dotted_name(node)
        if dotted is not None and self._resolve(dotted) == "os.environ":
            self._emit("REP006", node, "environment read via os.environ")
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if (
            isinstance(node.ctx, ast.Load)
            and self.members.get(node.id) == "os.environ"
        ):
            self._emit("REP006", node, "environment read via os.environ")
        self.generic_visit(node)

    # -- REP004 ------------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node: ast.AST) -> None:
        declared = {
            name
            for stmt in ast.walk(node)
            if isinstance(stmt, ast.Global)
            for name in stmt.names
        }
        self._global_names.append(declared)
        self.generic_visit(node)
        self._global_names.pop()

    def visit_With(self, node: ast.With) -> None:
        locked = any(_mentions_lock(item.context_expr) for item in node.items)
        if locked:
            self._with_lock_depth += 1
        self.generic_visit(node)
        if locked:
            self._with_lock_depth -= 1

    def _check_global_store(self, target: ast.AST, node: ast.AST) -> None:
        if not self._global_names or self._with_lock_depth:
            return
        declared = set().union(*self._global_names)
        if isinstance(target, ast.Name) and target.id in declared:
            self._emit(
                "REP004", node,
                f"module-level {target.id!r} assigned outside a lock",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_global_store(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_global_store(node.target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_global_store(node.target, node)
        self.generic_visit(node)

    # -- REP005 ------------------------------------------------------------

    def _check_unordered_iter(self, iter_node: ast.AST) -> None:
        if _is_set_expr(iter_node):
            self._emit(
                "REP005", iter_node,
                "iteration over an unordered set (hash-order dependent)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_unordered_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for gen in node.generators:
            self._check_unordered_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def _check_order_sensitive_call(self, node: ast.Call) -> None:
        takes_iterable = (
            isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_SENSITIVE_CALLS
        ) or (
            isinstance(node.func, ast.Attribute) and node.func.attr == "join"
        )
        if takes_iterable and node.args and _is_set_expr(node.args[0]):
            self._emit(
                "REP005", node,
                "order-sensitive reduction over an unordered set",
            )


def lint_source(
    source: str,
    filename: str = "<string>",
    select: Optional[Iterable[str]] = None,
) -> List[Diagnostic]:
    """Lint one source text; returns (possibly empty) diagnostics.

    Raises ``ValueError`` if ``select`` names an unknown rule id or no
    rule at all: a selection that checks nothing must not pass.
    """
    selected = _selected_rules(select)
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [Diagnostic(
            "REP000", ERROR, f"syntax error: {exc.msg}",
            file=filename, line=exc.lineno, col=exc.offset,
        )]
    linter = _Linter(filename, selected)
    linter.visit(tree)
    lines = source.splitlines()
    findings = linter.findings
    findings.extend(_unknown_noqa(source, filename, selected))
    findings.sort(key=lambda d: (d.line or 0, d.col or 0, d.rule))
    return [
        d for d in findings
        if d.line is None or not _suppressed(lines, d.line, d.rule)
    ]


def _selected_rules(select: Optional[Iterable[str]]) -> Optional[Set[str]]:
    if select is None:
        return None
    selected = {r.upper() for r in select}
    if not selected:
        raise ValueError("select names no rule")
    unknown = sorted(selected - set(LINT_RULES))
    if unknown:
        raise ValueError(
            f"select names unknown rule id(s) {unknown}; "
            f"known: {sorted(LINT_RULES)}"
        )
    return selected


def _comment_tokens(source: str) -> List[Tuple[int, str]]:
    """(line, text) of every real comment — string literals that merely
    *contain* noqa-looking text (e.g. linter test fixtures) don't count."""
    out: List[Tuple[int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                out.append((tok.start[0], tok.string))
    except (tokenize.TokenError, IndentationError):
        pass
    return out


def _unknown_noqa(
    source: str, filename: str, select: Optional[Set[str]]
) -> List[Diagnostic]:
    """WARNING for each noqa comment naming an undefined rule id."""
    if select is not None and "REP007" not in select:
        return []
    rule = LINT_RULES["REP007"]
    out: List[Diagnostic] = []
    for lineno, text in _comment_tokens(source):
        match = _NOQA_RE.search(text)
        if not match or match.group("rules") is None:
            continue
        for raw in match.group("rules").split(","):
            rule_id = raw.strip().upper()
            if rule_id not in LINT_RULES:
                out.append(Diagnostic(
                    "REP007", WARNING,
                    f"noqa names unknown rule {rule_id!r} [{rule.name}]",
                    hint=rule.hint,
                    file=filename, line=lineno,
                ))
    return out


def _python_files(paths: Iterable[object]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


def lint_paths(
    paths: Iterable[object],
    select: Optional[Iterable[str]] = None,
) -> DiagnosticReport:
    """Lint every ``.py`` file under the given files/directories.

    ``select`` is checked as in :func:`lint_source`, even with no file.
    """
    report = DiagnosticReport()
    selected = _selected_rules(select)
    for path in _python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            report.add(Diagnostic(
                "REP000", ERROR, f"cannot read file: {exc}", file=str(path)
            ))
            continue
        report.extend(lint_source(source, str(path), selected))
    _record_telemetry(report)
    return report


def _record_telemetry(report: DiagnosticReport) -> None:
    from repro import telemetry

    if not telemetry.enabled():
        return
    registry = telemetry.get_registry()
    registry.counter("analysis.lint_runs").inc()
    for diagnostic in report:
        registry.counter("analysis.diagnostics", rule=diagnostic.rule).inc()
