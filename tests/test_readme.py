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


# backticked names of the ``test_`` form that are config or JSON keys, not tests
NOT_TESTS = {"test_id_n", "test_id_accuracy"}


def top_level_names(path: Path) -> set[str]:
    found = re.findall(r"^(?:def (\w+)|class (\w+)|(\w+) =)", path.read_text("utf-8"), re.M)
    return {"".join(names) for names in found}


def test_readme_names_only_defined_tests_and_helpers():
    """Every backticked ``test_*`` name is a test under ``tests/``, and every
    ``helpers.*`` name is defined in ``tests/helpers.py``."""
    text = README.read_text(encoding="utf-8")
    tests_dir = README.parent / "tests"
    tests = set().union(*map(top_level_names, tests_dir.glob("test_*.py")))
    named_tests = set(re.findall(r"`(test_\w+)`", text)) - NOT_TESTS
    named_helpers = set(re.findall(r"`helpers\.(\w+)`", text))
    assert named_tests and named_helpers
    assert sorted(named_tests - tests) == []
    assert sorted(named_helpers - top_level_names(tests_dir / "helpers.py")) == []
