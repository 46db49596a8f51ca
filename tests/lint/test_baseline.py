"""Baseline mechanics: load/apply/render round-trips, determinism, and
honest failure on corrupt input."""

import json

import pytest

from repro.errors import ReproError
from repro.lint.baseline import (
    BASELINE_VERSION,
    apply_baseline,
    load_baseline,
    render_baseline,
    save_baseline,
)
from repro.lint.findings import FINDINGS_SCHEMA_VERSION, Finding


def finding(rule="RPR006", path="src/repro/mod.py", line=10, msg="boom"):
    return Finding(
        rule_id=rule,
        rule_name="shared-mutable-state",
        path=path,
        line=line,
        col=1,
        message=msg,
    )


class TestApply:
    def test_exact_match_suppressed(self):
        f = finding()
        allowed = {("RPR006", "src/repro/mod.py", "boom"): 1}
        kept, suppressed = apply_baseline([f], allowed)
        assert kept == [] and suppressed == 1

    def test_line_drift_still_suppressed(self):
        # The baseline matches on (rule, file, message), not line: code
        # moving above a grandfathered finding must not break CI.
        allowed = {("RPR006", "src/repro/mod.py", "boom"): 1}
        kept, suppressed = apply_baseline([finding(line=999)], allowed)
        assert kept == [] and suppressed == 1

    def test_excess_over_count_kept(self):
        allowed = {("RPR006", "src/repro/mod.py", "boom"): 1}
        kept, suppressed = apply_baseline(
            [finding(line=1), finding(line=2)], allowed
        )
        assert suppressed == 1
        assert [f.line for f in kept] == [2]

    def test_unrelated_finding_kept(self):
        allowed = {("RPR006", "src/repro/mod.py", "boom"): 5}
        kept, suppressed = apply_baseline([finding(msg="other")], allowed)
        assert suppressed == 0 and len(kept) == 1


class TestRoundTrip:
    def test_render_load_apply_suppresses_everything(self, tmp_path):
        findings = [
            finding(line=3),
            finding(line=7),
            finding(rule="RPR009", path="src/repro/x.py", msg="leak"),
        ]
        path = tmp_path / "baseline.json"
        save_baseline(str(path), findings)
        allowed = load_baseline(str(path))
        kept, suppressed = apply_baseline(findings, allowed)
        assert kept == [] and suppressed == 3

    def test_duplicate_signatures_counted(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline(str(path), [finding(line=3), finding(line=7)])
        payload = json.loads(path.read_text())
        (entry,) = payload["findings"]
        assert entry["count"] == 2

    def test_render_is_deterministic(self):
        findings = [finding(line=7), finding(rule="RPR009", msg="leak")]
        assert render_baseline(findings) == render_baseline(
            list(reversed(findings))
        )

    def test_render_is_sorted_and_versioned(self):
        text = render_baseline([finding()])
        payload = json.loads(text)
        assert payload["schema_version"] == BASELINE_VERSION
        assert payload["tool"] == "repro.lint"
        assert text.endswith("\n")


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read baseline"):
            load_baseline(str(tmp_path / "absent.json"))

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{not json")
        with pytest.raises(ReproError, match="not valid JSON"):
            load_baseline(str(path))

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"schema_version": 99, "findings": []}))
        with pytest.raises(ReproError, match="schema_version"):
            load_baseline(str(path))

    def test_missing_findings_key(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"schema_version": BASELINE_VERSION}))
        with pytest.raises(ReproError, match="no findings list"):
            load_baseline(str(path))


class TestFindingRoundTrip:
    def test_schema_version_is_two(self):
        assert FINDINGS_SCHEMA_VERSION == 2

    def test_dict_uses_v2_keys(self):
        assert set(finding().to_dict()) == {
            "rule_id",
            "rule_name",
            "severity",
            "file",
            "line",
            "col",
            "message",
        }
