"""Deterministic differential-fuzz driver over the contract registry.

Runs each :class:`~repro.analysis.contracts.Contract` under hypothesis
with a pinned seed and a deterministic example count derived from the
time budget — never a wall-clock cutoff, which would make the example
sequence depend on machine speed. Same seed + same budget therefore
replays the exact same example sequence everywhere; each run reports a
BLAKE2b digest over its canonical-JSON example stream so CI can assert
that.

Failures are shrunk by hypothesis and the *minimal* falsifying example
is serialized to ``<corpus>/<contract>_<seed>.json`` — a repro file a
developer (or :func:`replay_file`) can feed straight back to the
contract's ``check``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from hypothesis import HealthCheck, Phase, given
from hypothesis import seed as hypothesis_seed
from hypothesis import settings as hypothesis_settings

from repro.analysis.contracts import CONTRACTS, Contract, contract_by_name

__all__ = [
    "ContractRunResult",
    "FuzzReport",
    "examples_for_budget",
    "replay_file",
    "run_contract",
    "run_fuzz",
]

#: Example-count clamp: even the most expensive contract gets a few
#: examples, and cheap contracts don't soak the whole budget.
MIN_EXAMPLES = 4
MAX_EXAMPLES = 64

DEFAULT_CORPUS_DIR = ".fuzz"


@dataclass
class ContractRunResult:
    """Outcome of fuzzing one contract."""

    name: str
    examples: int
    passed: bool
    digest: str
    error: Optional[str] = None
    failing_example: Optional[Dict[str, Any]] = None
    corpus_file: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "contract": self.name,
            "examples": self.examples,
            "passed": self.passed,
            "digest": self.digest,
        }
        if not self.passed:
            out["error"] = self.error
            out["failing_example"] = self.failing_example
            out["corpus_file"] = self.corpus_file
        return out


@dataclass
class FuzzReport:
    """Aggregate result of one ``repro fuzz`` run."""

    seed: int
    budget_s: float
    results: List[ContractRunResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> List[ContractRunResult]:
        return [r for r in self.results if not r.passed]

    @property
    def digest(self) -> str:
        """Combined digest over every contract's example stream."""
        h = hashlib.blake2b(digest_size=16)
        for result in self.results:
            h.update(result.name.encode("utf-8"))
            h.update(result.digest.encode("utf-8"))
        return h.hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "budget_s": self.budget_s,
            "ok": self.ok,
            "digest": self.digest,
            "contracts": [r.to_dict() for r in self.results],
        }

    def render_text(self) -> str:
        lines = []
        for result in self.results:
            status = "ok" if result.passed else "FAIL"
            lines.append(
                f"{status:4s} {result.name:28s} "
                f"{result.examples:3d} examples  {result.digest[:16]}"
            )
            if not result.passed:
                lines.append(f"     error: {result.error}")
                if result.corpus_file:
                    lines.append(f"     repro: {result.corpus_file}")
        lines.append(
            f"{len(self.results)} contracts, "
            f"{len(self.failures)} failing; run digest {self.digest}"
        )
        return "\n".join(lines)


def _canonical(example: Any) -> bytes:
    return json.dumps(example, sort_keys=True).encode("utf-8")


def examples_for_budget(
    budget_s: float, contracts: Sequence[Contract]
) -> Dict[str, int]:
    """Deterministic per-contract example counts for a time budget.

    The budget is split evenly; each contract converts its share to a
    count via its declared per-example ``cost``, clamped to
    [MIN_EXAMPLES, MAX_EXAMPLES]. Pure arithmetic — two machines with
    the same budget always run the same examples.
    """
    if not (math.isfinite(budget_s) and budget_s > 0):
        raise ValueError(
            f"budget_s must be finite positive seconds, got {budget_s}"
        )
    if not contracts:
        return {}
    share = budget_s / len(contracts)
    return {
        c.name: max(MIN_EXAMPLES, min(MAX_EXAMPLES, int(share / c.cost)))
        for c in contracts
    }


def run_contract(
    contract: Contract,
    seed: int,
    max_examples: int,
    corpus_dir: Optional[object] = DEFAULT_CORPUS_DIR,
) -> ContractRunResult:
    """Fuzz one contract deterministically.

    On failure, hypothesis shrinks and then re-runs the minimal
    falsifying example last — so the capture cell below ends up holding
    the *shrunk* example, which is what gets serialized.
    """
    stream = hashlib.blake2b(digest_size=16)
    examples_seen = [0]
    last_failure: Dict[str, Any] = {}

    @hypothesis_seed(seed)
    @hypothesis_settings(
        max_examples=max_examples,
        database=None,
        deadline=None,
        derandomize=False,
        phases=(Phase.generate, Phase.shrink),
        suppress_health_check=list(HealthCheck),
        print_blob=False,
    )
    @given(contract.strategy())
    def property_fn(example: Mapping[str, Any]) -> None:
        stream.update(_canonical(example))
        examples_seen[0] += 1
        try:
            contract.check(example)
        except Exception as exc:
            last_failure["example"] = json.loads(_canonical(example))
            last_failure["error"] = f"{type(exc).__name__}: {exc}"
            raise

    try:
        property_fn()
    except Exception as exc:  # falsified (or errored) after shrinking
        error = last_failure.get("error", f"{type(exc).__name__}: {exc}")
        failing = last_failure.get("example")
        corpus_file = None
        if corpus_dir is not None:
            corpus_file = str(_write_corpus(
                Path(corpus_dir), contract.name, seed, failing, error
            ))
        return ContractRunResult(
            name=contract.name,
            examples=examples_seen[0],
            passed=False,
            digest=stream.hexdigest(),
            error=error,
            failing_example=failing,
            corpus_file=corpus_file,
        )
    return ContractRunResult(
        name=contract.name,
        examples=examples_seen[0],
        passed=True,
        digest=stream.hexdigest(),
    )


def _write_corpus(
    corpus_dir: Path,
    contract_name: str,
    seed: int,
    example: Optional[Mapping[str, Any]],
    error: str,
) -> Path:
    corpus_dir.mkdir(parents=True, exist_ok=True)
    path = corpus_dir / f"{contract_name}_{seed}.json"
    payload = {
        "contract": contract_name,
        "seed": seed,
        "example": example,
        "error": error,
    }
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    return path


def run_fuzz(
    budget_s: float = 60.0,
    seed: int = 2020,
    contracts: Optional[Sequence[Contract]] = None,
    corpus_dir: Optional[object] = DEFAULT_CORPUS_DIR,
) -> FuzzReport:
    """Fuzz every (or the selected) contract under one seed."""
    selected = tuple(contracts) if contracts is not None else CONTRACTS
    counts = examples_for_budget(budget_s, selected)
    report = FuzzReport(seed=seed, budget_s=budget_s)
    for contract in selected:
        report.results.append(run_contract(
            contract, seed, counts[contract.name], corpus_dir
        ))
    _record_telemetry(report)
    return report


def replay_file(path: object) -> None:
    """Re-run a serialized ``.fuzz/`` repro file against its contract.

    Raises the original :class:`ContractViolation` (or whatever error
    the check hits) if the failure still reproduces; returns silently
    if the underlying bug has been fixed.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    contract = contract_by_name(payload["contract"])
    contract.check(payload["example"])


def _record_telemetry(report: FuzzReport) -> None:
    from repro import telemetry

    if not telemetry.enabled():
        return
    registry = telemetry.get_registry()
    registry.counter("analysis.fuzz_runs").inc()
    for result in report.results:
        registry.counter(
            "analysis.fuzz_examples", contract=result.name
        ).inc(result.examples)
