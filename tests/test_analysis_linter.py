"""Tests for the REPnnn codebase linter and the `repro lint` CLI gate."""

import textwrap

import pytest

from repro import telemetry
from repro.analysis import LINT_RULES, lint_paths, lint_source
from repro.cli import main


def lint(code: str):
    return lint_source(textwrap.dedent(code), "fixture.py")


def rules_of(diagnostics):
    return [d.rule for d in diagnostics]


class TestRuleCatalog:
    def test_all_seven_rules_registered(self):
        assert sorted(LINT_RULES) == [
            "REP001", "REP002", "REP003", "REP004", "REP005",
            "REP006", "REP007",
        ]
        for rule in LINT_RULES.values():
            assert rule.summary and rule.hint


class TestREP001UnseededRng:
    def test_np_random_global_draw_flagged(self):
        found = lint("""
            import numpy as np
            x = np.random.rand(4)
        """)
        assert rules_of(found) == ["REP001"]
        assert found[0].line == 3

    def test_numpy_alias_resolved(self):
        found = lint("""
            import numpy
            x = numpy.random.standard_normal(8)
        """)
        assert rules_of(found) == ["REP001"]

    def test_stdlib_random_flagged(self):
        found = lint("""
            import random
            x = random.randint(0, 10)
        """)
        assert rules_of(found) == ["REP001"]

    def test_default_rng_allowed(self):
        assert lint("""
            import numpy as np
            rng = np.random.default_rng(7)
            x = rng.standard_normal(4)
        """) == []

    def test_seeded_random_instance_allowed(self):
        assert lint("""
            import random
            rng = random.Random(7)
            x = rng.randint(0, 10)
        """) == []

    def test_unrelated_module_named_random_not_flagged(self):
        # `np.random` resolved via the numpy alias is the real target;
        # a local object attribute chain is not.
        assert lint("""
            x = obj.random.rand(4)
        """) == []


class TestREP002WallClock:
    def test_time_time_flagged(self):
        found = lint("""
            import time
            t = time.time()
        """)
        assert rules_of(found) == ["REP002"]

    def test_datetime_now_flagged(self):
        found = lint("""
            import datetime
            t = datetime.datetime.now()
        """)
        assert rules_of(found) == ["REP002"]

    def test_from_import_datetime_now_flagged(self):
        found = lint("""
            from datetime import datetime
            t = datetime.now()
        """)
        assert rules_of(found) == ["REP002"]

    def test_perf_counter_allowed(self):
        assert lint("""
            import time
            t = time.perf_counter()
        """) == []


class TestREP003BuiltinHash:
    def test_hash_call_flagged(self):
        found = lint("""
            h = hash(("a", 1))
        """)
        assert rules_of(found) == ["REP003"]

    def test_method_named_hash_allowed(self):
        assert lint("""
            h = obj.hash("a")
        """) == []

    def test_dunder_hash_definition_allowed(self):
        assert lint("""
            class C:
                def __hash__(self):
                    return 7
        """) == []


class TestREP004UnlockedGlobal:
    def test_unlocked_global_assign_flagged(self):
        found = lint("""
            _count = 0

            def bump():
                global _count
                _count += 1
        """)
        assert rules_of(found) == ["REP004"]

    def test_locked_global_assign_allowed(self):
        assert lint("""
            import threading
            _lock = threading.Lock()
            _count = 0

            def bump():
                global _count
                with _lock:
                    _count += 1
        """) == []

    def test_attribute_lock_recognized(self):
        assert lint("""
            _total = 0

            class T:
                def add(self, n):
                    global _total
                    with self._lock:
                        _total += n
        """) == []

    def test_module_level_init_allowed(self):
        assert lint("""
            _state = {}
        """) == []


class TestREP005UnorderedIteration:
    def test_for_over_set_call_flagged(self):
        found = lint("""
            def merge(items):
                out = []
                for key in set(items):
                    out.append(key)
                return out
        """)
        assert rules_of(found) == ["REP005"]

    def test_set_literal_flagged(self):
        found = lint("""
            for name in {"b", "a"}:
                print(name)
        """)
        assert rules_of(found) == ["REP005"]

    def test_comprehension_over_set_flagged(self):
        found = lint("""
            names = [n for n in set(raw)]
        """)
        assert rules_of(found) == ["REP005"]

    def test_list_of_set_flagged(self):
        found = lint("""
            order = list(set(keys))
        """)
        assert rules_of(found) == ["REP005"]

    def test_join_of_set_flagged(self):
        found = lint("""
            text = ",".join({"b", "a"})
        """)
        assert rules_of(found) == ["REP005"]

    def test_sorted_set_allowed(self):
        assert lint("""
            for key in sorted(set(items)):
                print(key)
        """) == []

    def test_membership_test_allowed(self):
        assert lint("""
            seen = set(items)
            if "x" in seen:
                pass
        """) == []


class TestREP006EnvRead:
    def test_os_environ_get_flagged_once(self):
        found = lint("""
            import os
            def f():
                return os.environ.get("HOME")
        """)
        assert rules_of(found) == ["REP006"]

    def test_os_environ_subscript_flagged(self):
        found = lint("""
            import os
            def f():
                return os.environ["HOME"]
        """)
        assert rules_of(found) == ["REP006"]

    def test_os_getenv_flagged(self):
        found = lint("""
            import os
            def f():
                return os.getenv("HOME", "/")
        """)
        assert rules_of(found) == ["REP006"]

    def test_from_import_environ_flagged(self):
        found = lint("""
            from os import environ
            def f():
                return environ.get("HOME")
        """)
        assert rules_of(found) == ["REP006"]

    def test_from_import_getenv_flagged(self):
        found = lint("""
            from os import getenv
            def f():
                return getenv("HOME")
        """)
        assert rules_of(found) == ["REP006"]

    def test_unrelated_environ_attribute_allowed(self):
        assert lint("""
            class Config:
                environ = {}
            def f(cfg):
                return cfg.environ.get("HOME")
        """) == []

    def test_annotated_read_suppressed(self):
        assert lint("""
            import os
            def f():
                return os.environ.get("HOME")  # repro: noqa(REP006)
        """) == []


class TestREP007UnknownNoqa:
    def test_unknown_rule_id_warns(self):
        found = lint("""
            x = 1  # repro: noqa(REP999)
        """)
        assert rules_of(found) == ["REP007"]
        assert found[0].severity == "warning"
        assert "REP999" in found[0].message

    def test_unknown_id_does_not_suppress_real_finding(self):
        found = lint("""
            h = hash("a")  # repro: noqa(REP042)
        """)
        assert sorted(rules_of(found)) == ["REP003", "REP007"]

    def test_known_rep_ids_accepted(self):
        assert lint("""
            h = hash("a")  # repro: noqa(REP003)
            y = 2  # repro: noqa(REP001, REP005)
        """) == []

    def test_mixed_known_and_unknown_ids(self):
        found = lint("""
            h = hash("a")  # repro: noqa(REP003, REP888)
        """)
        # REP003 is suppressed; the dead REP888 id still warns.
        assert rules_of(found) == ["REP007"]

    def test_bare_noqa_never_warns(self):
        assert lint("""
            h = hash("a")  # repro: noqa
        """) == []

    def test_select_without_rep007_skips_the_warning(self):
        found = lint_source(
            'x = 1  # repro: noqa(REP999)\n', select=["REP003"]
        )
        assert found == []


class TestSuppression:
    def test_targeted_noqa_suppresses(self):
        assert lint("""
            h = hash("a")  # repro: noqa(REP003)
        """) == []

    def test_bare_noqa_suppresses_all(self):
        assert lint("""
            h = hash("a")  # repro: noqa
        """) == []

    def test_noqa_for_other_rule_does_not_suppress(self):
        found = lint("""
            h = hash("a")  # repro: noqa(REP001)
        """)
        assert rules_of(found) == ["REP003"]

    def test_multi_rule_noqa(self):
        assert lint("""
            import numpy as np
            x = np.random.rand(int(hash("s")))  # repro: noqa(REP001, REP003)
        """) == []

    def test_noqa_inside_decorated_function(self):
        # The decorator does not shift the finding's anchor line; the
        # noqa on the offending statement still matches.
        assert lint("""
            import functools
            @functools.lru_cache(maxsize=None)
            def digest(key):
                return hash(key)  # repro: noqa(REP003)
        """) == []

    def test_noqa_on_multiline_statement_first_line(self):
        # Findings anchor at the expression's first physical line, so
        # that is where the suppression comment belongs.
        assert lint("""
            h = hash(  # repro: noqa(REP003)
                "a" * 100
            )
        """) == []

    def test_noqa_on_multiline_statement_last_line_does_not_suppress(self):
        # Documented limitation: suppression is strictly line-anchored.
        found = lint("""
            h = hash(
                "a" * 100
            )  # repro: noqa(REP003)
        """)
        assert rules_of(found) == ["REP003"]

    def test_noqa_on_decorator_line_does_not_reach_body(self):
        found = lint("""
            import functools
            @functools.lru_cache(maxsize=None)  # repro: noqa(REP003)
            def digest(key):
                return hash(key)
        """)
        assert rules_of(found) == ["REP003"]


class TestSelectAndSyntax:
    def test_select_restricts_rules(self):
        code = """
            import numpy as np
            x = np.random.rand(4)
            h = hash("a")
        """
        assert rules_of(lint_source(textwrap.dedent(code))) == [
            "REP001", "REP003"
        ]
        only = lint_source(textwrap.dedent(code), select=["REP003"])
        assert rules_of(only) == ["REP003"]

    def test_syntax_error_reported(self):
        found = lint_source("def broken(:\n", "bad.py")
        assert rules_of(found) == ["REP000"]

    @pytest.mark.parametrize("select", [["REP999"], ["GV201"], []])
    def test_select_that_checks_nothing_rejected(self, select):
        with pytest.raises(ValueError, match="select"):
            lint_source("import random\nrandom.random()\n", select=select)

    def test_lint_paths_rejects_unknown_select_without_files(self, tmp_path):
        with pytest.raises(ValueError, match="select"):
            lint_paths([tmp_path], select=["FOO"])


class TestLintPaths:
    def test_src_and_tests_are_clean(self):
        # The repo-wide invariant the CI gate enforces.
        report = lint_paths(["src", "tests"])
        assert report.clean, report.render_text()

    def test_violating_file_found(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        report = lint_paths([tmp_path])
        assert rules_of(report) == ["REP002"]
        assert report.diagnostics[0].file == str(bad)

    def test_telemetry_counters(self, tmp_path):
        (tmp_path / "bad.py").write_text("h = hash('a')\n")
        telemetry.reset()
        with telemetry.capture() as (_, registry):
            lint_paths([tmp_path])
        by_key = {
            (m["name"], tuple(sorted(m["labels"].items()))): m["value"]
            for m in registry.snapshot()
        }
        assert by_key[("analysis.lint_runs", ())] == 1
        assert by_key[("analysis.diagnostics", (("rule", "REP003"),))] == 1


class TestCli:
    def test_lint_clean_exit_zero(self, capsys):
        assert main(["lint", "--strict", "src"]) == 0
        assert "no diagnostics" in capsys.readouterr().out

    def test_lint_violation_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nx = np.random.rand(3)\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out

    def test_lint_json_format(self, tmp_path, capsys):
        import json

        bad = tmp_path / "bad.py"
        bad.write_text("h = hash('a')\n")
        assert main(["lint", "--format", "json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        assert payload["diagnostics"][0]["rule"] == "REP003"

    def test_lint_select(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nh = hash('a')\nt = time.time()\n")
        assert main(["lint", "--select", "REP002", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "REP002" in out and "REP003" not in out

    def test_lint_missing_path_errors(self):
        with pytest.raises(SystemExit):
            main(["lint", "definitely/not/a/path"])

    @pytest.mark.parametrize("rules", ["FOO", "GV201", "REP001,REP999", ","])
    def test_lint_unknown_select_is_usage_error(self, rules, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--strict", "--select", rules, "src"])
        assert exc.value.code == 2
        assert "error: --select" in capsys.readouterr().err

    @pytest.mark.parametrize("path", ["README.md", "docs"])
    def test_lint_paths_without_python_is_usage_error(self, path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--strict", path])
        assert exc.value.code == 2
        assert "error: no Python file" in capsys.readouterr().err

    def test_verify_exit_zero(self, capsys):
        assert main(["verify", "--models", "ncf", "--batches", "4"]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out

    def test_verify_json(self, capsys):
        import json

        assert main([
            "verify", "--models", "ncf", "--batches", "4",
            "--format", "json",
        ]) == 0
        records = json.loads(capsys.readouterr().out)
        assert {r["graph"] for r in records} == {"raw", "optimized"}
        assert all(r["status"] == "ok" for r in records)
