"""Every script in ``examples/`` runs to completion, as README tells users
to run it: ``PYTHONPATH=src python examples/<script>.py``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((REPO_ROOT / "examples").glob("*.py"))
#: Command-line arguments per script: the whole report at the smallest
#: scale.
ARGS = {"full_evaluation.py": ["tiny"]}


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    # A scratch working directory keeps anything a script writes out of
    # the checkout.
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script), *ARGS.get(script.name, [])],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
