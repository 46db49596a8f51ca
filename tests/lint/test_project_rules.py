"""The project-wide dataflow rules (RPR006-RPR011): each catches its
seeded fixture violations and passes the clean twin."""

import os

from repro.lint.analyzer import Analyzer
from repro.lint.project import ProjectContext, module_name_for
from repro.lint.rules import reachability
from repro.lint.visitor import FileContext

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "project")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def lint(relpaths, select):
    if isinstance(relpaths, str):
        relpaths = [relpaths]
    report = Analyzer(select=select).run(
        [os.path.join(FIXTURES, rel) for rel in relpaths]
    )
    assert not report.errors, report.errors
    return report.findings


def project_for(relpaths):
    contexts = []
    for rel in relpaths:
        path = os.path.join(FIXTURES, rel)
        with open(path, "r", encoding="utf-8") as handle:
            contexts.append(FileContext(path, handle.read()))
    return ProjectContext(contexts)


class TestModuleNames:
    def test_src_prefix_stripped(self):
        assert module_name_for("src/repro/sim/engine.py") == "repro.sim.engine"

    def test_package_init_is_the_package(self):
        assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"

    def test_fixture_paths_keep_their_tail(self):
        name = module_name_for("tests/lint/fixtures/project/helpers.py")
        assert name.endswith("fixtures.project.helpers")


class TestCallGraph:
    def test_cross_module_call_resolves(self):
        project = project_for(["purity_bad/worker.py", "purity_bad/helpers.py"])
        roots = project.roots_named("execute_request")
        assert len(roots) == 1
        chains = project.reachable_from(roots)
        reachable_tails = {q.split(".")[-1] for q in chains}
        assert {"execute_request", "annotate", "simulate"} <= reachable_tails

    def test_chains_are_shortest_and_deterministic(self):
        project = project_for(["purity_bad/worker.py", "purity_bad/helpers.py"])
        chains = project.reachable_from(project.roots_named("execute_request"))
        annotate = next(q for q in chains if q.endswith(".annotate"))
        assert len(chains[annotate]) == 2  # root -> annotate, direct

    def test_effects_collected(self):
        project = project_for(["purity_bad/helpers.py"])
        fn = next(
            f for q, f in project.functions.items() if q.endswith(".annotate")
        )
        assert {e.kind for e in fn.effects} == {"time", "env"}


class TestSharedMutableState:
    def test_bad_flagged(self):
        findings = lint(
            ["shared_state_bad.py", "shared_state_poker.py"], select=["RPR006"]
        )
        messages = " ".join(f.message for f in findings)
        assert "mutates module-level mutable '_REGISTRY'" in messages
        assert "'_EVENTS'" in messages
        assert "rebinds module-level name '_MODE' via 'global'" in messages
        # The cross-module poke attributes the state to its owner.
        assert "shared_state_bad" in messages
        assert len(findings) == 4

    def test_good_clean(self):
        assert lint("shared_state_good.py", select=["RPR006"]) == []

    def test_inline_suppression_honored(self):
        assert lint("suppressed_state.py", select=["RPR006"]) == []


class TestPurity:
    def test_bad_flagged_with_chains(self):
        findings = lint(
            ["purity_bad/worker.py", "purity_bad/helpers.py"],
            select=["RPR007"],
        )
        messages = " ".join(f.message for f in findings)
        assert "wall-clock read" in messages
        assert "environment read" in messages
        assert "unseeded randomness" in messages
        assert "filesystem access" in messages
        assert "module-state write" in messages
        assert "execute_request -> annotate" in messages
        assert "execute_request -> simulate" in messages
        # All findings anchor in helpers.py, where the impurity sits.
        assert all(f.path.endswith("helpers.py") for f in findings)

    def test_good_clean(self):
        assert (
            lint(
                ["purity_good/worker.py", "purity_good/helpers.py"],
                select=["RPR007"],
            )
            == []
        )

    def test_no_roots_no_findings(self):
        # A tree without execute_request has no pure zone at all.
        assert lint("shared_state_bad.py", select=["RPR007"]) == []


class TestP2MTypestate:
    def test_bad_flagged(self):
        findings = lint("hypervisor/typestate_bad.py", select=["RPR008"])
        messages = " ".join(f.message for f in findings)
        assert "already write-protected" in messages
        assert "abandons an in-flight migration" in messages
        assert "loses the frame" in messages
        assert "remap requires a write-protected entry" in messages
        assert "double free" in messages
        assert len(findings) == 6

    def test_good_clean(self):
        assert lint("hypervisor/typestate_good.py", select=["RPR008"]) == []

    def test_scoped_to_hypervisor_and_policies(self):
        assert lint("typestate_elsewhere.py", select=["RPR008"]) == []


class TestArrayAliasReturn:
    def test_bad_flagged(self):
        findings = lint("aliasing_return_bad.py", select=["RPR009"])
        messages = " ".join(f.message for f in findings)
        assert "LeakyAttribute.matrix returns attribute-held" in messages
        assert "LeakyMemo.lookup returns memoized" in messages
        assert "LeakyArchive.snapshot returns ndarray 'snap'" in messages
        assert "archives into self.history" in messages
        assert len(findings) == 3

    def test_good_clean(self):
        assert lint("aliasing_return_good.py", select=["RPR009"]) == []


class TestArrayAliasParam:
    def test_bad_flagged(self):
        findings = lint("aliasing_param_bad.py", select=["RPR010"])
        messages = " ".join(f.message for f in findings)
        assert "'matrix'" in messages
        assert "'buffer'" in messages
        assert "'target'" in messages
        assert "'totals'" in messages
        assert len(findings) == 4

    def test_good_clean(self):
        assert lint("aliasing_param_good.py", select=["RPR010"]) == []


class TestReachability:
    #: The fixture's entry points: one live external root, one stale entry.
    FIXTURE_ROOTS = {
        "reachability.app.called_by_example": "examples/demo.py",
        "reachability.app.renamed_long_ago": "examples/demo.py",
    }

    def fixture_findings(self, monkeypatch):
        monkeypatch.setattr(reachability, "EXTERNAL_ROOTS", self.FIXTURE_ROOTS)
        return lint("reachability/app.py", select=["RPR011"])

    def test_dead_function_and_stale_root_flagged(self, monkeypatch):
        findings = self.fixture_findings(monkeypatch)
        messages = [f.message for f in findings]
        assert len(findings) == 2
        assert any(
            "'reachability.app.renamed_long_ago' names no project function" in m
            for m in messages
        )
        assert any("function dead_helper is unreachable" in m for m in messages)

    def test_callback_dispatch_and_external_uses_kept(self, monkeypatch):
        messages = " ".join(f.message for f in self.fixture_findings(monkeypatch))
        for kept in ("on_done", "visit_Call", "describe_call", "called_by_example"):
            assert kept not in messages

    def test_foreign_tree_gets_no_findings(self):
        # No EXTERNAL_ROOTS entry resolves in a tree that is not this
        # package, so the rule has no entry points to measure against.
        assert lint("shared_state_bad.py", select=["RPR011"]) == []
        assert lint("reachability/app.py", select=["RPR011"]) == []

    def test_shipped_tree_is_checked(self, tmp_path):
        """On the whole shipped tree the rule runs: an unreferenced
        function analyzed beside it is flagged, and nothing else is."""
        orphan = tmp_path / "orphan.py"
        orphan.write_text("def orphan():\n    return 1\n")
        report = Analyzer(select=["RPR011"]).run(
            [os.path.join(REPO_ROOT, "src", "repro"), str(orphan)]
        )
        assert [f.path for f in report.findings] == [str(orphan)]

    def test_external_roots_cite_their_callers(self):
        """Every EXTERNAL_ROOTS entry names a file that exists and
        mentions the function, so the table cannot drift from the code
        outside src/ that it stands for."""
        for qname, cited in sorted(reachability.EXTERNAL_ROOTS.items()):
            path = os.path.join(REPO_ROOT, cited)
            assert os.path.isfile(path), (qname, cited)
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            assert qname.rsplit(".", 1)[-1] in text, (qname, cited)


class TestDefaultModeGating:
    def test_project_rules_off_by_default(self):
        # Without --strict or an explicit select, the dataflow rules do
        # not run: the fast per-file mode stays exactly as before.
        report = Analyzer().run([os.path.join(FIXTURES, "shared_state_bad.py")])
        assert report.findings == []

    def test_strict_flag_turns_them_on(self):
        report = Analyzer(project=True).run(
            [os.path.join(FIXTURES, "shared_state_bad.py")]
        )
        assert {f.rule_id for f in report.findings} == {"RPR006"}
