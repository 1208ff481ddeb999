"""Every demo script runs to completion."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demos_run():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) == 4
    for demo in demos:
        done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
        assert done.returncode == 0, f"{demo.name}: {done.stderr}"
