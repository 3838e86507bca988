"""The Tier-1 CI workflow: a file that does not parse runs no step at all."""

from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"


def test_tier1_workflow_parses_and_every_step_runs_something():
    # a ": " in an unquoted step name once made the file unparseable
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    assert steps
    for step in steps:
        assert "run" in step or "uses" in step, step
