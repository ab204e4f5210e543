"""Contract registry + differential fuzz driver.

Covers registry completeness, seeded determinism (same seed -> same
example sequence), corpus serialization/replay, the CLI surface, and
the headline acceptance regression: a deliberate one-term perturbation
of a vectorized evaluator fails the spec-mode bit-identity tests and
is caught by the spec-vs-numeric contract, with a shrunk repro file
serialized to the corpus.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.contracts import (
    CONTRACTS,
    ContractViolation,
    contract_by_name,
)
from repro.analysis.fuzz import (
    MAX_EXAMPLES,
    MIN_EXAMPLES,
    examples_for_budget,
    replay_file,
    run_contract,
    run_fuzz,
)

VEC_CPU = Path("src/repro/uarch/vectorized.py")
VEC_GPU = Path("src/repro/gpusim/vectorized.py")


class TestRegistry:
    def test_at_least_eight_contracts(self):
        assert len(CONTRACTS) >= 8

    def test_names_unique_and_described(self):
        names = [c.name for c in CONTRACTS]
        assert len(set(names)) == len(names)
        for contract in CONTRACTS:
            assert contract.invariant
            assert contract.cost > 0

    def test_contract_by_name(self):
        assert contract_by_name("lowering_agreement").name == (
            "lowering_agreement"
        )
        with pytest.raises(KeyError):
            contract_by_name("nope")

    def test_expected_oracles_registered(self):
        names = {c.name for c in CONTRACTS}
        assert {
            "lowering_agreement", "optimizer_numerics",
            "spec_numeric_equivalence", "verifier_spec_inference",
            "ledger_byte_stability", "scheduler_conservation",
            "single_shard_colocation",
        } <= names


class TestBudgeting:
    def test_counts_are_clamped_and_deterministic(self):
        counts = examples_for_budget(60.0, CONTRACTS)
        assert counts == examples_for_budget(60.0, CONTRACTS)
        for name, n in sorted(counts.items()):
            assert MIN_EXAMPLES <= n <= MAX_EXAMPLES, (name, n)

    def test_budget_scales_counts(self):
        small = examples_for_budget(1.0, CONTRACTS)
        large = examples_for_budget(600.0, CONTRACTS)
        assert all(
            small[c.name] <= large[c.name] for c in CONTRACTS
        )

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            examples_for_budget(0.0, CONTRACTS)

    @pytest.mark.parametrize("budget", [-5.0, float("nan"), float("inf")])
    def test_rejects_budget_not_finite_positive(self, budget):
        with pytest.raises(ValueError, match="budget_s"):
            examples_for_budget(budget, CONTRACTS)


class TestDeterminism:
    @pytest.mark.parametrize(
        "name", ["lowering_agreement", "scheduler_conservation"]
    )
    def test_same_seed_same_example_stream(self, name):
        contract = contract_by_name(name)
        first = run_contract(contract, seed=2020, max_examples=12,
                             corpus_dir=None)
        second = run_contract(contract, seed=2020, max_examples=12,
                              corpus_dir=None)
        assert first.passed and second.passed
        assert first.digest == second.digest
        assert first.examples == second.examples == 12

    def test_different_seed_different_stream(self):
        contract = contract_by_name("lowering_agreement")
        a = run_contract(contract, seed=1, max_examples=12, corpus_dir=None)
        b = run_contract(contract, seed=2, max_examples=12, corpus_dir=None)
        assert a.digest != b.digest

    def test_report_digest_covers_all_contracts(self):
        cheap = [contract_by_name("lowering_agreement"),
                 contract_by_name("scheduler_conservation")]
        report = run_fuzz(budget_s=1.0, seed=7, contracts=cheap,
                          corpus_dir=None)
        assert report.ok
        assert len(report.results) == 2
        assert report.digest  # stable combined digest
        again = run_fuzz(budget_s=1.0, seed=7, contracts=cheap,
                         corpus_dir=None)
        assert report.digest == again.digest


class TestFailurePath:
    def test_violation_shrinks_and_serializes(self, tmp_path):
        # A contract that fails whenever either coordinate is >= 3:
        # hypothesis must shrink to the minimal (3, 0) example and the
        # driver must serialize exactly that.
        from hypothesis import strategies as st

        from repro.analysis.contracts import Contract

        def check(example):
            if example["a"] >= 3 or example["b"] >= 3:
                raise ContractViolation(f"boom on {example}")

        contract = Contract(
            "synthetic_failure", "a and b stay below 3",
            lambda: st.fixed_dictionaries(
                {"a": st.integers(0, 100), "b": st.integers(0, 100)}
            ),
            check, cost=0.001,
        )
        result = run_contract(contract, seed=2020, max_examples=50,
                              corpus_dir=tmp_path)
        assert not result.passed
        shrunk = result.failing_example
        assert shrunk in ({"a": 3, "b": 0}, {"a": 0, "b": 3})
        corpus = tmp_path / "synthetic_failure_2020.json"
        assert result.corpus_file == str(corpus)
        payload = json.loads(corpus.read_text())
        assert payload["contract"] == "synthetic_failure"
        assert payload["seed"] == 2020
        assert payload["example"] == shrunk
        assert "boom" in payload["error"]
        # The serialized example replays to the same violation.
        with pytest.raises(ContractViolation):
            check(payload["example"])

    def test_replay_unknown_contract_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps(
            {"contract": "nope", "seed": 1, "example": {}, "error": "x"}
        ))
        with pytest.raises(KeyError):
            replay_file(path)

    def test_clean_run_writes_no_corpus(self, tmp_path):
        contract = contract_by_name("lowering_agreement")
        result = run_contract(contract, seed=2020, max_examples=6,
                              corpus_dir=tmp_path)
        assert result.passed
        assert list(tmp_path.iterdir()) == []


def _perturbed(path, old, new, name):
    """Function ``name`` of the module at ``path``, with the one
    occurrence of ``old`` in its source replaced by ``new``."""
    source = path.read_text(encoding="utf-8")
    assert source.count(old) == 1
    namespace = {}
    exec(compile(source.replace(old, new), str(path), "exec"), namespace)
    return namespace[name]


def _perturbed_profile_cells_cpu():
    """profile_cells_cpu with one memory-model term changed:
    the 0.35 hot-fraction of random traffic becomes 0.350001."""
    return _perturbed(
        VEC_CPU, "hot * 0.35)", "hot * 0.350001)", "profile_cells_cpu"
    )


def _perturbed_profile_cells_gpu():
    """profile_cells_gpu with the occupancy curve's 0.6 exponent
    changed to 0.600001."""
    return _perturbed(
        VEC_GPU, "f ** 0.6 ", "f ** 0.600001 ", "profile_cells_gpu"
    )


class TestPerturbationAcceptance:
    """One perturbed term of a vectorized evaluator is caught by the
    spec-mode bit-identity tests and by the spec-vs-numeric contract,
    which also writes a shrunk repro file."""

    @pytest.mark.parametrize("target, perturb", [
        ("repro.uarch.vectorized.profile_cells_cpu",
         _perturbed_profile_cells_cpu),
        ("repro.gpusim.vectorized.profile_cells_gpu",
         _perturbed_profile_cells_gpu),
    ], ids=["cpu", "gpu"])
    def test_bit_identity_catches_it(self, target, perturb, monkeypatch):
        import tests.test_specmode as specmode_tests

        monkeypatch.setattr(target, perturb())
        bit_identity = specmode_tests.TestBitIdentity()
        with pytest.raises(AssertionError):
            bit_identity.test_raw_and_optimized_graphs_identical("rm2")

    def test_dynamic_contract_catches_it_with_repro_file(
        self, tmp_path, monkeypatch
    ):
        import repro.uarch.vectorized as vec_module
        from repro.runtime.specmode import clear_spec_caches

        perturbed_fn = _perturbed_profile_cells_cpu()
        contract = contract_by_name("spec_numeric_equivalence")
        clear_spec_caches()
        monkeypatch.setattr(vec_module, "profile_cells_cpu", perturbed_fn)
        try:
            result = run_contract(contract, seed=2020, max_examples=25,
                                  corpus_dir=tmp_path)
        finally:
            monkeypatch.undo()
            # Purge any spec profiles computed with the poisoned
            # evaluator so later tests see clean caches.
            clear_spec_caches()
        assert not result.passed
        assert "drifted" in result.error
        corpus = tmp_path / "spec_numeric_equivalence_2020.json"
        assert corpus.exists()
        payload = json.loads(corpus.read_text())
        # The example is shrunk: hypothesis minimizes toward batch 1 on
        # a CPU platform (only CPU evaluations touch the perturbed
        # term).
        example = payload["example"]
        assert example["platform"] in ("broadwell", "cascade_lake")
        assert example == result.failing_example
        # With the perturbation reverted, the repro file replays clean
        # ("bug fixed" path of replay_file).
        replay_file(corpus)

    def test_baseline_contract_is_clean_again(self):
        # Guard against cache poisoning leaking out of the dynamic test.
        contract = contract_by_name("spec_numeric_equivalence")
        result = run_contract(contract, seed=2020, max_examples=4,
                              corpus_dir=None)
        assert result.passed, result.error


class TestCli:
    def test_fuzz_json_clean(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "fuzz", "--budget", "4", "--seed", "2020", "--json",
            "--corpus-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert len(payload["contracts"]) == len(CONTRACTS)
        assert list(tmp_path.iterdir()) == []

    def test_fuzz_contract_selection(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "fuzz", "--budget", "1", "--seed", "7", "--json",
            "--contract", "lowering_agreement",
            "--contract", "scheduler_conservation",
            "--corpus-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        names = [c["contract"] for c in payload["contracts"]]
        assert names == ["lowering_agreement", "scheduler_conservation"]

    def test_fuzz_unknown_contract_is_usage_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--contract", "nope"])
        assert exc.value.code == 2
        assert "error: --contract" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["-5", "0", "nan", "inf"])
    def test_fuzz_bad_budget_is_usage_error(self, budget, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--budget", budget])
        assert exc.value.code == 2
        assert "error: --budget" in capsys.readouterr().err

    def test_fuzz_list(self, capsys):
        from repro.cli import main

        code = main(["fuzz", "--list"])
        out = capsys.readouterr().out
        assert code == 0
        for contract in CONTRACTS:
            assert contract.name in out
