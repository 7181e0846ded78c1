"""The package's public surface: the exports resolve and the README tour
runs, so a deleted or renamed name fails here and not in a user's code."""

import os
import re
import subprocess
import sys
from pathlib import Path

import polyconv

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves_once():
    names = polyconv.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(polyconv, name)]
    assert missing == []


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    src = os.path.dirname(os.path.dirname(polyconv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
