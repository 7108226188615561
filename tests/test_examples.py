"""Every script under ``examples/`` runs to completion.

Each example is a documented entry point (its docstring says
``Run:  python examples/<name>.py``), so each one is executed as a
real subprocess with ``PYTHONPATH=src`` and must exit 0.  The scripts
take a few seconds each on one CPU.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))
TIMEOUT = 300  # seconds


@pytest.mark.parametrize("script", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=TIMEOUT,
        env=env,
        cwd=str(tmp_path),
    )
    assert completed.returncode == 0, completed.stderr
