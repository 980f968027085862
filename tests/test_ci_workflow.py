"""The CI workflow only names files a clean checkout has.

A gate whose ``--check-against`` reference is untracked crashes on every
CI run instead of checking anything, and a step that names a missing
script fails for the wrong reason.  Both are caught here, from the
workflow file itself.
"""

import re
import subprocess
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def _run_scripts() -> list[str]:
    """Every ``run:`` command of every job's steps."""
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    return [step["run"] for job in jobs.values() for step in job.get("steps", []) if "run" in step]


def test_check_against_references_are_tracked():
    inside = subprocess.run(
        ["git", "rev-parse", "--is-inside-work-tree"], cwd=ROOT, capture_output=True, text=True
    )
    if inside.returncode != 0 or inside.stdout.strip() != "true":
        pytest.skip("not a git checkout: tracked files cannot be listed")
    references = [path for run in _run_scripts() for path in re.findall(r"--check-against\s+(\S+)", run)]
    assert references, "the workflow names no --check-against reference"
    untracked = [
        path
        for path in references
        if subprocess.run(
            ["git", "ls-files", "--error-unmatch", path], cwd=ROOT, capture_output=True
        ).returncode
        != 0
    ]
    assert not untracked, "gate references not tracked by git: %s" % untracked


def test_named_python_scripts_exist():
    scripts = [
        token
        for run in _run_scripts()
        for line in run.splitlines()
        if re.search(r"\bpython3?\b", line)
        for token in line.split()
        if token.endswith(".py")
    ]
    assert scripts, "the workflow names no python script"
    missing = [script for script in scripts if not (ROOT / script).is_file()]
    assert not missing, "scripts named by the workflow do not exist: %s" % missing
