"""The linter's gate on the real tree: clean now, and provably not vacuous.

``test_seeded_violation_fails`` is the canary for the whole setup: it
re-lints the *actual* ``adaptive.py`` source with a one-line mutation
spliced into ``propose_peek`` and requires the purity rule to fire.  If a
refactor ever renames the seeds or breaks the call-graph construction so
that the linter goes blind, this test fails before the lint gate silently
starts passing everything.
"""

from pathlib import Path

from repro.analysis.engine import Module, Project, collect_project, run_rules
from repro.analysis.rules import default_rules
from repro.analysis.rules.purity import PurityRule

REPO_ROOT = Path(__file__).resolve().parents[2]
LINT_PATHS = ["src", "tests", "benchmarks"]

# A line unique to AdaptiveSession.propose_peek (and _peek-only helpers
# would not do: the splice must land on the pure path itself).
ANCHOR = "window, eps_attempt = self._select_attempt()"


def test_repo_is_clean_under_all_rules():
    project = collect_project(REPO_ROOT, LINT_PATHS)
    findings, _ = run_rules(project, default_rules())
    assert findings == [], "\n".join(f.render() for f in findings)


def test_every_suppression_is_purity_reviewed():
    """Suppressions exist only where the design says they may: the purity
    allows in the accounting modules.  A new allow anywhere else must be a
    conscious, reviewed decision that updates this list."""
    project = collect_project(REPO_ROOT, LINT_PATHS)
    allowed_files = {
        "src/repro/core/accountant.py",
    }
    for module in project:
        for line, rules in sorted(module.allow.items()):
            assert module.relpath in allowed_files, (
                f"unexpected suppression in {module.relpath}:{line}"
            )
            assert rules == frozenset({"purity"}), (
                f"unexpected rules {sorted(rules)} in {module.relpath}:{line}"
            )


def test_seeded_violation_fails():
    relpath = "src/repro/core/adaptive.py"
    source = (REPO_ROOT / relpath).read_text(encoding="utf-8")
    assert source.count(ANCHOR) == 1, "anchor line moved; update this test"
    indent = " " * 8
    seeded = source.replace(
        ANCHOR, ANCHOR + f"\n{indent}self.window_blocks = 1", 1
    )

    project = collect_project(REPO_ROOT, ["src"])
    modules = [
        Module.from_source(seeded, relpath) if m.relpath == relpath else m
        for m in project
    ]
    findings, _ = run_rules(Project(REPO_ROOT, modules), [PurityRule()])
    assert any(
        f.path == relpath and "assigns self.window_blocks" in f.message
        for f in findings
    ), "purity rule went blind: a seeded propose_peek mutation was not flagged"


def test_unseeded_control_for_the_canary():
    """The exact project build the canary uses, minus the splice, is clean --
    so the canary's failure really is the seeded line."""
    project = collect_project(REPO_ROOT, ["src"])
    findings, _ = run_rules(project, [PurityRule()])
    assert findings == []
