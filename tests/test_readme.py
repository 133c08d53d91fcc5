"""The README's library example runs as written."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import oodstream

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    [block] = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    return block


def test_readme_library_use_runs():
    src = str(Path(oodstream.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", library_use_block()], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "MetricsReport(" in done.stdout
