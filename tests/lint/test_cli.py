"""The ``python -m repro.lint`` command line, including the self-check."""

import json
import os
import subprocess
import sys

from repro.lint.cli import main
from repro.lint.findings import FINDINGS_SCHEMA_VERSION

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
PROJECT_FIXTURES = os.path.join(FIXTURES, "project")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


class TestExitCodes:
    def test_clean_tree_exits_zero(self, capsys):
        assert main([os.path.join(FIXTURES, "good_determinism.py")]) == 0
        assert "all clean" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert main([os.path.join(FIXTURES, "bad_determinism.py")]) == 1
        out = capsys.readouterr().out
        assert "RPR002" in out and "finding(s)" in out

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["--select", "RPR999", FIXTURES]) == 2

    def test_missing_path_exits_two(self, capsys):
        # Analysis failure, not a finding: CI must tell them apart.
        assert main(["no/such/dir"]) == 2
        assert "no such file" in capsys.readouterr().out

    def test_unparsable_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        assert main([str(bad)]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005",
            "RPR006", "RPR007", "RPR008", "RPR009", "RPR010",
        ):
            assert rule_id in out


class TestJsonOutput:
    def test_json_is_parseable_and_complete(self, capsys):
        code = main(
            ["--format", "json", os.path.join(FIXTURES, "bad_determinism.py")]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == FINDINGS_SCHEMA_VERSION
        assert payload["files_checked"] == 1
        assert payload["errors"] == []
        assert payload["baselined"] == 0
        finding = payload["findings"][0]
        assert set(finding) == {
            "rule_id",
            "rule_name",
            "severity",
            "file",
            "line",
            "col",
            "message",
        }


class TestStrictMode:
    def test_strict_fails_on_project_finding(self, capsys):
        bad = os.path.join(PROJECT_FIXTURES, "shared_state_bad.py")
        assert main(["--strict", bad]) == 1
        assert "RPR006" in capsys.readouterr().out

    def test_default_mode_ignores_project_finding(self, capsys):
        bad = os.path.join(PROJECT_FIXTURES, "shared_state_bad.py")
        assert main([bad]) == 0

    def test_baseline_suppresses_known_findings(self, tmp_path, capsys):
        bad = os.path.join(PROJECT_FIXTURES, "shared_state_bad.py")
        baseline = tmp_path / "baseline.json"
        assert main(["--baseline-update", "--baseline", str(baseline), bad]) == 0
        capsys.readouterr()
        assert main(["--strict", "--baseline", str(baseline), bad]) == 0
        assert "baselined finding(s) suppressed" in capsys.readouterr().out

    def test_baseline_update_is_deterministic(self, tmp_path, capsys):
        bad = os.path.join(PROJECT_FIXTURES, "shared_state_bad.py")
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["--baseline-update", "--baseline", str(first), bad]) == 0
        assert main(["--baseline-update", "--baseline", str(second), bad]) == 0
        assert first.read_text() == second.read_text()

    def test_new_finding_beyond_baseline_still_fails(self, tmp_path, capsys):
        bad = os.path.join(PROJECT_FIXTURES, "shared_state_bad.py")
        poker = os.path.join(PROJECT_FIXTURES, "shared_state_poker.py")
        baseline = tmp_path / "baseline.json"
        assert main(["--baseline-update", "--baseline", str(baseline), bad]) == 0
        capsys.readouterr()
        # The poker adds a cross-module write that is not in the baseline.
        assert main(["--strict", "--baseline", str(baseline), bad, poker]) == 1
        assert "RPR006" in capsys.readouterr().out

    def test_explicit_missing_baseline_exits_two(self, tmp_path, capsys):
        bad = os.path.join(PROJECT_FIXTURES, "shared_state_bad.py")
        missing = str(tmp_path / "absent.json")
        assert main(["--strict", "--baseline", missing, bad]) == 2

    def test_corrupt_baseline_exits_two(self, tmp_path, capsys):
        bad = os.path.join(PROJECT_FIXTURES, "shared_state_bad.py")
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{not json")
        assert main(["--strict", "--baseline", str(baseline), bad]) == 2


def _run_lint(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )


class TestSelfCheck:
    def test_src_repro_is_lint_clean(self):
        """The tree this repo ships must pass its own analyzer."""
        proc = _run_lint("src/repro")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "all clean" in proc.stdout

    def test_src_repro_is_strict_clean_under_committed_baseline(self):
        """The CI gate: strict mode + the committed baseline exit 0."""
        assert os.path.exists(os.path.join(REPO_ROOT, "lint-baseline.json"))
        proc = _run_lint("--strict", "src/repro")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "all clean" in proc.stdout

    def test_committed_baseline_is_current(self, tmp_path):
        """--baseline-update reproduces the committed file byte-for-byte:
        nobody hand-edited it, and nothing drifted since it was cut."""
        out = tmp_path / "regenerated.json"
        proc = _run_lint("--baseline-update", "--baseline", str(out), "src/repro")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        committed = os.path.join(REPO_ROOT, "lint-baseline.json")
        with open(committed, "r", encoding="utf-8") as handle:
            assert out.read_text() == handle.read()
