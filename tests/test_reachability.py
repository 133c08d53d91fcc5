"""Every function in the package is reached by some command.

The command-line front end runs in process under ``sys.setprofile`` on a
tiny scenario, and every ``def`` in ``src/oodstream/*.py`` must be entered
at least once. Code that no command reaches belongs in the tests, as an
oracle, or nowhere. Likewise every exception class the package defines is
one that ``cli.main`` catches by name.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import sys
from pathlib import Path

import oodstream
from helpers import to_text
from oodstream.cli import main
from oodstream.runconfig import RunConfig

PACKAGE = Path(oodstream.__file__).resolve().parent

# qualified names of functions that no command reaches on purpose
ALLOWED_UNREACHED: frozenset[str] = frozenset()


def package_defs() -> dict[tuple[str, int], str]:
    """(file, first line of the code object) -> qualified name, for every def.

    A decorated function's code object starts at its first decorator.
    """
    defs: dict[tuple[str, int], str] = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[(str(path), first)] = f"{path.stem}.{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return defs


def config_text(drop_ood_keys: bool = False, **overrides) -> str:
    """A tiny scenario: 3 pretrain epochs, 300 test-ID and 300 OOD rows per pool."""
    cfg = RunConfig(test_id_n=300, ood_n=300, hidden=(16, 16), epochs=3, k2=1.0,
                    **overrides)
    lines = to_text(cfg).splitlines()
    if drop_ood_keys:
        # with no source spelled out, the canonical sources are used
        lines = [ln for ln in lines if not ln.startswith("scenario.ood")
                 or ln.startswith("scenario.ood_n =")]
    return "\n".join(lines) + "\n"


def command_lines(tmp_path: Path) -> list[list[str]]:
    """The argument lists of the commands, their config files written first,
    so that building the texts does not count as a command reaching code."""
    single = config_text(drop_ood_keys=True)
    texts = {"single": single, "mixed": config_text(stream="mixed"),
             "timeseries": config_text(stream="timeseries"),
             "bogus": single.replace("sgd.trainable_groups = last_block",
                                     "sgd.trainable_groups = bogus")}
    for name, text in texts.items():
        (tmp_path / f"{name}.cfg").write_text(text, encoding="ascii")

    def argv(name: str, *command: str) -> list[str]:
        return ["--config", str(tmp_path / f"{name}.cfg"), "--out", str(tmp_path / "out"),
                *command]

    return [
        argv("single", "pretrain"),
        argv("single", "--plot", "run", "--mode", "auto"),
        argv("single", "--plot", "run", "--mode", "frozen"),
        argv("mixed", "run", "--mode", "auto"),
        argv("timeseries", "ablate"),
        argv("timeseries", "sweep", "--param", "k2", "--values", "1,2"),
        argv("bogus", "run", "--mode", "auto"),
    ]


def clear_caches() -> None:
    """Empty every ``functools`` cache in the package: a cached function's
    body runs only on a miss, so earlier calls in this process would hide
    whether a command reaches it."""
    for name in sorted(oodstream.__dict__):
        module = getattr(oodstream, name)
        if inspect.ismodule(module):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def test_every_package_function_is_reached_by_a_command(tmp_path, capsys):
    clear_caches()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    commands = command_lines(tmp_path)
    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in commands]
    finally:
        sys.setprofile(None)
    assert codes == [0, 0, 0, 0, 0, 0, 1]
    # the last command's error; the sweep's k2 = 2 replay may warn before it
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "error: config error: unknown parameter groups ['bogus']")

    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in entered}
    defs = package_defs()
    missing = sorted({name for key, name in defs.items() if key not in reached}
                     - ALLOWED_UNREACHED)
    assert missing == [], f"no command reaches {', '.join(missing)}"
    assert len(defs) > 80  # the parse found the package's functions


def test_every_package_exception_class_is_caught_by_name_in_main():
    """A subclass that nothing catches by name is API no caller uses: raise
    its base class instead."""
    defined = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"oodstream.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and issubclass(getattr(module, node.name),
                                                              BaseException):
                defined.add(node.name)
    cli_tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    [main_def] = [node for node in cli_tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "main"]
    caught = {node.id if isinstance(node, ast.Name) else node.attr
              for handler in ast.walk(main_def) if isinstance(handler, ast.ExceptHandler)
              for node in ast.walk(handler.type) if isinstance(node, (ast.Name, ast.Attribute))}
    assert defined - caught == set(), f"cli.main does not catch {sorted(defined - caught)}"
    assert {"CliError", "ConfigError", "CheckpointError"} <= defined
