"""Smoke test: every script under ``examples/`` runs to completion.

The examples are the library's public walkthroughs; nothing else executes
them, so an example left on a removed API would otherwise rot unnoticed.
Each one runs in a fresh interpreter with an empty working directory.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES, "no example scripts found"


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, f"{script.name} failed:\n{proc.stderr[-2000:]}"
    assert list(tmp_path.iterdir()) == [], f"{script.name} wrote files into its cwd"
