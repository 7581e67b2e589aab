"""repro-lint: every rule fires on a known-bad snippet, stays quiet on
the fixed form, suppressions work as documented, and the repo at head is
clean (``make lint`` gates CI on that last one)."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
if str(REPO) not in sys.path:  # tools/ is a repo-root package, not in src/
    sys.path.insert(0, str(REPO))

from tools.lint import ALL_RULES, lint_paths, parse_suppressions  # noqa: E402

RULE_IDS = [r.id for r in ALL_RULES]


def run_lint(root, files, select=None):
    """Write ``{relpath: source}`` under ``root`` and lint those files."""
    for relpath, source in files.items():
        p = Path(root) / relpath
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(source))
    return lint_paths(sorted(files), ALL_RULES, root=str(root), select=select)


def active_rules(report):
    return sorted({f.rule for f in report.active})


class TestRuleCorpus:
    """One firing fixture (and its clean twin) per rule."""

    def test_rl001_unkeyed_attribute_read_fires(self, tmp_path):
        bad = """
            class Plans:
                def get(self, ba, dm):
                    key = (dm.ranks,)
                    plan = ba.memo.get(key)
                    if plan is None:
                        plan = [dm.ranks] * self.nvars
                        ba.memo[key] = plan
                    return plan
            """
        report = run_lint(tmp_path, {"src/repro/x.py": bad}, select={"RL001"})
        assert active_rules(report) == ["RL001"]
        assert "self.nvars" in report.active[0].message

    def test_rl001_complete_key_is_clean(self, tmp_path):
        good = """
            class Plans:
                def get(self, ba, dm):
                    key = (dm.ranks, self.nvars)
                    plan = ba.memo.get(key)
                    if plan is None:
                        plan = [dm.ranks] * self.nvars
                        ba.memo[key] = plan
                    return plan
            """
        report = run_lint(tmp_path, {"src/repro/x.py": good}, select={"RL001"})
        assert report.ok

    def test_rl001_unkeyed_bare_parameter_fires(self, tmp_path):
        bad = """
            def level_plan(ba, dm, nvars):
                key = (dm.ranks,)
                plan = ba.memo.get(key)
                if plan is None:
                    plan = ba.memo[key] = make_plan(ba, dm, nvars)
                return plan
            """
        report = run_lint(tmp_path, {"src/repro/x.py": bad}, select={"RL001"})
        assert active_rules(report) == ["RL001"]
        assert [f.message.split("`")[1] for f in report.active] == ["nvars"]

    def test_rl001_bare_parameter_clean_twins(self, tmp_path):
        # ba owns the memo and self the LRU; nvars and token are keyed;
        # dm and case have keyed attributes; build is only called
        good = """
            def level_plan(ba, dm, nvars, build):
                key = (dm.ranks, nvars)
                plan = ba.memo.get(key)
                if plan is None:
                    plan = ba.memo[key] = build(ba, dm, nvars)
                return plan

            class Service:
                def digest(self, case, token):
                    memo_key = (case.inputs, token)
                    out = self._keys.get(memo_key)
                    if out is None:
                        out = self.hash(self, case, token)
                        self._keys.put(memo_key, out)
                    return out
            """
        report = run_lint(tmp_path, {"src/repro/x.py": good}, select={"RL001"})
        assert report.ok

    def test_rl002_unfrozen_cached_array_fires(self, tmp_path):
        bad = """
            import numpy as np
            def plan(ba, key, n):
                arr = np.zeros(n)
                ba.memo[key] = arr
                return arr
            """
        report = run_lint(tmp_path, {"src/repro/x.py": bad}, select={"RL002"})
        assert active_rules(report) == ["RL002"]

    def test_rl002_setflags_before_store_is_clean(self, tmp_path):
        good = """
            import numpy as np
            def plan(ba, key, n):
                arr = np.zeros(n)
                arr.setflags(write=False)
                ba.memo[key] = arr
                return arr
            """
        report = run_lint(tmp_path, {"src/repro/x.py": good}, select={"RL002"})
        assert report.ok

    def test_rl002_plan_class_attribute_fires(self, tmp_path):
        bad = """
            import numpy as np
            class LevelPlan:
                def __init__(self, n):
                    self.sizes = np.zeros(n, dtype=np.int64)
            """
        report = run_lint(tmp_path, {"src/repro/x.py": bad}, select={"RL002"})
        assert active_rules(report) == ["RL002"]
        assert "self.sizes" in report.active[0].message

    def test_rl002_frozen_wrapper_is_clean(self, tmp_path):
        good = """
            import numpy as np
            from repro.sanitize import frozen
            class LevelPlan:
                def __init__(self, n):
                    self.sizes = frozen(np.zeros(n, dtype=np.int64))
            """
        report = run_lint(tmp_path, {"src/repro/x.py": good}, select={"RL002"})
        assert report.ok

    def test_rl003_global_np_random_fires(self, tmp_path):
        bad = """
            import numpy as np
            def jitter(n):
                return np.random.normal(size=n)
            """
        report = run_lint(tmp_path, {"src/repro/x.py": bad}, select={"RL003"})
        assert active_rules(report) == ["RL003"]

    def test_rl003_stdlib_random_fires(self, tmp_path):
        bad = """
            import random
            def pick(xs):
                return random.choice(xs)
            """
        report = run_lint(tmp_path, {"src/repro/x.py": bad}, select={"RL003"})
        assert len(report.active) == 1

    def test_rl003_default_rng_is_clean(self, tmp_path):
        good = """
            import numpy as np
            def jitter(n, seed):
                return np.random.default_rng(seed).normal(size=n)
            """
        report = run_lint(tmp_path, {"src/repro/x.py": good}, select={"RL003"})
        assert report.ok

    def test_rl004_nameless_message_fires(self, tmp_path):
        bad = """
            def f(threshold):
                if threshold < 0:
                    raise ValueError("must be positive")
            """
        report = run_lint(tmp_path, {"src/repro/x.py": bad}, select={"RL004"})
        assert active_rules(report) == ["RL004"]

    def test_rl004_named_or_interpolated_is_clean(self, tmp_path):
        good = """
            def f(threshold, scale):
                if threshold < 0:
                    raise ValueError("threshold must be positive")
                if scale < 0:
                    raise ValueError(f"scale must be positive, got {scale}")
            """
        report = run_lint(tmp_path, {"src/repro/x.py": good}, select={"RL004"})
        assert report.ok

    def test_rl004_does_not_apply_outside_src(self, tmp_path):
        bad = """
            def f(threshold):
                raise ValueError("nope")
            """
        report = run_lint(tmp_path, {"benchmarks/x.py": bad}, select={"RL004"})
        assert report.ok

    def test_rl005_swallowing_except_fires(self, tmp_path):
        bad = """
            def go(work):
                try:
                    work()
                except Exception:
                    pass
            """
        report = run_lint(tmp_path, {"src/repro/x.py": bad}, select={"RL005"})
        assert active_rules(report) == ["RL005"]

    def test_rl005_bound_but_unused_exception_fires(self, tmp_path):
        bad = """
            def go(work):
                try:
                    return work()
                except Exception as exc:
                    return None
            """
        report = run_lint(tmp_path, {"src/repro/x.py": bad}, select={"RL005"})
        assert len(report.active) == 1
        assert "never records" in report.active[0].message

    def test_rl005_recording_and_reraising_are_clean(self, tmp_path):
        good = """
            import traceback
            def go(work, failures):
                try:
                    return work()
                except Exception:
                    failures.append(traceback.format_exc())
                try:
                    return work()
                except Exception:
                    raise RuntimeError("work failed")
            """
        report = run_lint(tmp_path, {"src/repro/x.py": good}, select={"RL005"})
        assert report.ok

    def test_rl006_fab_loop_in_hot_module_fires(self, tmp_path):
        bad = """
            def total(mf):
                acc = 0.0
                for fab in mf:
                    acc += fab.data.sum()
                return acc
            """
        report = run_lint(
            tmp_path, {"src/repro/hydro/x.py": bad}, select={"RL006"}
        )
        assert active_rules(report) == ["RL006"]

    def test_rl006_same_loop_outside_hot_modules_is_clean(self, tmp_path):
        ok = """
            def total(mf):
                acc = 0.0
                for fab in mf:
                    acc += fab.data.sum()
                return acc
            """
        report = run_lint(
            tmp_path, {"src/repro/analysis/x.py": ok}, select={"RL006"}
        )
        assert report.ok

    def test_rl007_lambda_worker_fires(self, tmp_path):
        bad = """
            def run(pool):
                return pool.submit(lambda c: c + 1, 1)
            """
        report = run_lint(tmp_path, {"src/repro/x.py": bad}, select={"RL007"})
        assert active_rules(report) == ["RL007"]

    def test_rl007_closure_capture_fires(self, tmp_path):
        bad = """
            def run(pool, items):
                acc = []
                def work(x):
                    acc.append(x)
                for item in items:
                    pool.submit(work, item)
                return acc
            """
        report = run_lint(tmp_path, {"src/repro/x.py": bad}, select={"RL007"})
        assert len(report.active) == 1
        assert "acc" in report.active[0].message

    def test_rl007_shared_handle_argument_fires(self, tmp_path):
        bad = """
            def run(pool, case, trace):
                return pool.submit(execute, case, trace)
            """
        report = run_lint(tmp_path, {"src/repro/x.py": bad}, select={"RL007"})
        assert len(report.active) == 1
        assert "trace" in report.active[0].message

    def test_rl007_module_level_worker_is_clean(self, tmp_path):
        good = """
            def execute(case):
                return case

            def run(pool, cases):
                return [pool.submit(execute, c) for c in cases]
            """
        report = run_lint(tmp_path, {"src/repro/x.py": good}, select={"RL007"})
        assert report.ok

    def test_rl008_undocumented_export_fires(self, tmp_path):
        files = {
            "src/repro/pkg/__init__.py": '''
                """A package."""
                from .impl import helper
                __all__ = ["helper"]
                ''',
            "src/repro/pkg/impl.py": """
                def helper():
                    return 1
                """,
        }
        report = run_lint(tmp_path, files, select={"RL008"})
        assert active_rules(report) == ["RL008"]
        assert "helper" in report.active[0].message

    def test_rl008_missing_module_docstring_fires(self, tmp_path):
        files = {"src/repro/pkg/__init__.py": "__all__ = []\n"}
        report = run_lint(tmp_path, files, select={"RL008"})
        assert len(report.active) == 1
        assert "module docstring" in report.active[0].message

    def test_rl008_documented_exports_are_clean(self, tmp_path):
        files = {
            "src/repro/pkg/__init__.py": '''
                """A package."""
                from .impl import helper
                __all__ = ["helper", "LIMIT"]
                LIMIT = 10
                ''',
            "src/repro/pkg/impl.py": '''
                def helper():
                    """Docstring."""
                    return 1
                ''',
        }
        report = run_lint(tmp_path, files, select={"RL008"})
        assert report.ok

    def test_rl009_logged_only_except_fires(self, tmp_path):
        # RL005-clean (the exception is bound and used) but RL009-dirty:
        # a merely-logged failure is invisible to the retry machinery.
        bad = """
            import logging
            log = logging.getLogger(__name__)
            def handle(case):
                try:
                    return run(case)
                except Exception as exc:
                    log.exception(exc)
                    return None
            """
        report = run_lint(
            tmp_path, {"src/repro/campaign/x.py": bad}, select={"RL009"})
        assert active_rules(report) == ["RL009"]
        assert "retryable outcome" in report.active[0].message

    def test_rl009_err_status_tuple_is_clean(self, tmp_path):
        good = """
            import traceback
            def handle(case):
                try:
                    return ("ok", run(case), 0.0)
                except Exception:
                    return ("err", traceback.format_exc(), 0.0)
            """
        report = run_lint(
            tmp_path, {"src/repro/campaign/x.py": good}, select={"RL009"})
        assert report.ok

    def test_rl009_error_response_field_is_clean(self, tmp_path):
        good = """
            def serve(req):
                try:
                    return {"ok": answer(req)}
                except Exception as exc:
                    return {"ok": False, "error": str(exc)}
            """
        report = run_lint(
            tmp_path, {"src/repro/service/x.py": good}, select={"RL009"})
        assert report.ok

    def test_rl009_does_not_apply_outside_campaign_service(self, tmp_path):
        bad = """
            import logging
            log = logging.getLogger(__name__)
            def handle(case):
                try:
                    return run(case)
                except Exception as exc:
                    log.exception(exc)
                    return None
            """
        report = run_lint(
            tmp_path, {"src/repro/hydro/x.py": bad}, select={"RL009"})
        assert report.ok

    def test_rl010_unbounded_store_wait_loop_fires(self, tmp_path):
        bad = """
            import time
            def poll(store):
                while True:
                    n = store.refresh()
                    if n:
                        return n
                    time.sleep(0.1)
            """
        report = run_lint(
            tmp_path, {"src/repro/service/x.py": bad}, select={"RL010"})
        assert active_rules(report) == ["RL010"]
        assert "deadline" in report.active[0].message

    def test_rl010_deadline_guarded_loop_is_clean(self, tmp_path):
        # the clean twin: same loop, but it consults a deadline budget
        good = """
            import time
            def poll(store, deadline):
                while not deadline.expired():
                    n = store.refresh()
                    if n:
                        return n
                    time.sleep(min(0.1, deadline.remaining()))
                return 0
            """
        report = run_lint(
            tmp_path, {"src/repro/service/x.py": good}, select={"RL010"})
        assert report.ok

    def test_rl010_breaker_gated_loop_is_clean(self, tmp_path):
        good = """
            def drain(service, cases):
                for case in cases:
                    if not service.breaker.allow():
                        break
                    service.store.get_labeled(key(case), case.name)
            """
        report = run_lint(
            tmp_path, {"src/repro/service/x.py": good}, select={"RL010"})
        assert report.ok

    def test_rl010_ignores_loops_without_waiting_calls(self, tmp_path):
        good = """
            def tally(responses):
                total = 0
                for resp in responses:
                    total += resp.ok
                return total
            """
        report = run_lint(
            tmp_path, {"src/repro/service/x.py": good}, select={"RL010"})
        assert report.ok

    def test_rl010_does_not_apply_outside_service(self, tmp_path):
        bad = """
            import time
            def poll(store):
                while True:
                    if store.refresh():
                        return
                    time.sleep(0.1)
            """
        report = run_lint(
            tmp_path, {"src/repro/campaign/x.py": bad}, select={"RL010"})
        assert report.ok


class TestSuppressions:
    def test_same_line_allow_suppresses(self, tmp_path):
        src = """
            def f(threshold):
                raise ValueError("nope")  # lint: allow-named-valueerror(demo)
            """
        report = run_lint(tmp_path, {"src/repro/x.py": src}, select={"RL004"})
        assert report.ok
        assert len(report.suppressed) == 1
        assert report.suppressed[0].suppression_reason == "demo"

    def test_standalone_line_above_suppresses(self, tmp_path):
        src = """
            def total(mf):
                # lint: allow-loop(measured faster at this size)
                for fab in mf:
                    fab.work()
            """
        report = run_lint(
            tmp_path, {"src/repro/hydro/x.py": src}, select={"RL006"}
        )
        assert report.ok and len(report.suppressed) == 1

    def test_disable_by_rule_id_suppresses(self, tmp_path):
        src = """
            def f(threshold):
                raise ValueError("nope")  # lint: disable=RL004 (demo)
            """
        report = run_lint(tmp_path, {"src/repro/x.py": src}, select={"RL004"})
        assert report.ok and len(report.suppressed) == 1

    def test_skip_file_suppresses_everything(self, tmp_path):
        src = """
            # lint: skip-file(generated corpus)
            def f(threshold):
                raise ValueError("nope")
            """
        report = run_lint(tmp_path, {"src/repro/x.py": src}, select={"RL004"})
        assert report.ok and len(report.suppressed) == 1

    def test_missing_reason_is_lnt000_and_does_not_suppress(self, tmp_path):
        src = """
            def f(threshold):
                raise ValueError("nope")  # lint: allow-named-valueerror()
            """
        report = run_lint(tmp_path, {"src/repro/x.py": src}, select={"RL004"})
        assert not report.ok
        assert sorted({f.rule for f in report.active}) == ["LNT000", "RL004"]

    def test_malformed_directive_is_lnt000(self, tmp_path):
        src = """
            x = 1  # lint: frobnicate
            """
        report = run_lint(tmp_path, {"src/repro/x.py": src})
        assert [f.rule for f in report.active] == ["LNT000"]

    def test_directive_text_inside_strings_is_ignored(self, tmp_path):
        src = '''
            DOC = """Suppress with `# lint: allow-loop(reason)` comments."""
            EXAMPLE = "# lint: not-a-directive"
            '''
        report = run_lint(tmp_path, {"src/repro/x.py": src})
        assert report.ok and not report.findings

    def test_unused_suppression_is_warned(self, tmp_path):
        src = """
            x = 1  # lint: allow-loop(nothing here fires)
            """
        report = run_lint(tmp_path, {"src/repro/x.py": src})
        assert report.ok
        assert len(report.unused_suppressions) == 1

    def test_parse_suppressions_forms(self):
        sups = parse_suppressions(
            "# lint: allow-loop(why)\n"
            "# lint: disable=RL001,RL002 (both)\n"
            "# lint: skip-file(corpus)\n"
        )
        assert sups[0].rules == {"loop"} and sups[0].reason == "why"
        assert sups[1].rules == {"RL001", "RL002"}
        assert sups[2].skip_file


class TestRepoIsClean:
    """The gate `make lint` enforces, as a test: zero unsuppressed
    findings across the tree at head."""

    def test_head_is_clean(self):
        report = lint_paths(
            ["src", "tests", "benchmarks", "tools"], ALL_RULES, root=str(REPO)
        )
        assert report.ok, "\n".join(f.render() for f in report.active)
        assert report.n_files > 100

    def test_every_rule_has_a_distinct_id_and_slug(self):
        assert len(RULE_IDS) == 10
        assert len(set(RULE_IDS)) == 10
        slugs = [r.slug for r in ALL_RULES]
        assert len(set(slugs)) == 10


class TestCli:
    def test_cli_exits_zero_on_clean_tree(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.lint", "src", "tests"],
            cwd=str(REPO), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "repro-lint OK" in proc.stdout

    def test_cli_exits_nonzero_on_findings(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nx = np.random.rand(3)\n")
        proc = subprocess.run(
            [sys.executable, "-m", "tools.lint", str(bad)],
            cwd=str(REPO), capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "RL003" in proc.stderr

    def test_cli_list_rules(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.lint", "--list-rules"],
            cwd=str(REPO), capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for rule_id in RULE_IDS:
            assert rule_id in proc.stdout

    def test_cli_rejects_unknown_rule_selection(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.lint", "--select", "RL999", "src"],
            cwd=str(REPO), capture_output=True, text=True,
        )
        assert proc.returncode == 2
