"""Every function and every inner check in the package is reached by some
command.

The command-line front end runs in process under ``sys.settrace`` on a tiny
scenario, good and bad inputs alike. Every ``def`` in ``src/oodstream/*.py``
must be entered at least once: code that no command reaches belongs in the
tests, as an oracle, or nowhere. Input is checked where it enters, in
``cli``, ``runconfig`` and ``nn.load_checkpoint``; past them, module
functions trust their callers, so every other ``raise`` must be executed by
a command or guard an argument of a name in README's library example.
Likewise every exception class the package defines is one that
``cli.main`` catches by name.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import inspect
import io
import os
import sys
from pathlib import Path

import pytest

import oodstream
from helpers import to_text
from oodstream import nn
from oodstream.cli import main
from oodstream.data import GaussianSource
from oodstream.runconfig import RunConfig, from_text, pretrain_hash
from test_readme import library_use_block

PACKAGE = Path(oodstream.__file__).resolve().parent

# qualified names of functions that no command reaches on purpose
ALLOWED_UNREACHED: frozenset[str] = frozenset()

# where input enters the package: their raises are not traced here
ENTRY_POINTS = ("cli", "runconfig", "nn.load_checkpoint")

# (function, a fragment of the raise) -> the name of README's library example
# whose argument the check guards; a command never gets that far with a
# wrong argument, so no command reaches these raises
GUARDS = {
    ("data._compose", "kappa must be in [0, 1)"): "compose_stream",
    ("data._compose", "requires a nonempty ID pool"): "compose_stream",
    ("data._compose", "OOD pool must be nonempty"): "compose_stream",
    ("nn.init_mlp", "needs at least input and output dims"): "init_mlp",
    ("nn.init_mlp", "all layer dims must be >= 1"): "init_mlp",
    ("nn.train_offline", "empty training dataset"): "train_offline",
    ("nn.train_offline", "labels out of range"): "train_offline",
    ("nn.train_offline", "learning_rate must be positive"): "train_offline",
    ("metrics._split_scores", "at least one ID and one OOD event"): "report",
    ("metrics.id_accuracy", "no labeled ID events"): "report",
    ("filtering.estimate_id_stats", "from an empty list"): "init_state",
    ("memory.init_random", "has no sample of class"): "init_state",
}


def walk_package() -> tuple[dict[tuple[str, int], str], dict[tuple[str, int], tuple]]:
    """``(defs, raises)``. ``defs`` maps (file, first line of the code
    object) to the qualified name of every def; a decorated function's code
    object starts at its first decorator. ``raises`` maps (file, line) of
    every ``raise`` outside ``ENTRY_POINTS`` to (qualified name of its
    function, that function's key in ``defs``, the raise's source)."""
    defs: dict[tuple[str, int], str] = {}
    raises: dict[tuple[str, int], tuple] = {}

    def visit(node: ast.AST, path: Path, prefix: str, func: tuple[str, int] | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = (str(path), min([child.lineno] + [d.lineno for d in child.decorator_list]))
                defs[key] = f"{path.stem}.{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.", key)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.", func)
            else:
                name = defs[func] if func else path.stem
                if isinstance(child, ast.Raise) and not name.startswith(ENTRY_POINTS):
                    raises[(str(path), child.lineno)] = (name, func, ast.unparse(child))
                visit(child, path, prefix, func)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "", None)
    return defs, raises


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


def command_lines(tmp_path: Path) -> list[tuple[list[str], int, str]]:
    """Each command's argument list, exit status and the start of its error
    line. The config files and the overflowing checkpoint are written first,
    so that building them does not count as a command reaching code."""
    single = config_text(drop_ood_keys=True)
    texts = {"single": single, "mixed": config_text(stream="mixed"),
             "timeseries": config_text(stream="timeseries"),
             "bogus": single.replace("sgd.trainable_groups = last_block",
                                     "sgd.trainable_groups = bogus"),
             # sgd keys are not part of the pretrain hash: the single checkpoint fits
             "sgd_lr": single.replace("sgd.lr = 0.001", "sgd.lr = 1e300").replace(
                 "sgd.trainable_groups = last_block", "sgd.trainable_groups = all"),
             "far_ood": config_text(ood_sources=(GaussianSource((1.7e308, 1.7e308), 0.4),)),
             "pretrain_lr": config_text(pretrain_lr=1e300)}
    for name, text in texts.items():
        (tmp_path / f"{name}.cfg").write_text(text, encoding="ascii")
    # finite weights scaled by 1e200 overflow the margin statistics' forward pass
    model = nn.init_mlp(from_text(single).layer_dims(), seed=1)
    for w in model.weights:
        w *= 1e200
    (tmp_path / "scaled").mkdir()
    nn.save_checkpoint(model, tmp_path / "scaled" / "model.ckpt",
                       pretrain_hash(from_text(single)))

    def argv(name: str, *command: str, out: str = "out") -> list[str]:
        return ["--config", str(tmp_path / f"{name}.cfg"), "--out", str(tmp_path / out),
                *command]

    return [
        (argv("single", "pretrain"), 0, ""),
        (argv("single", "--plot", "run", "--mode", "auto"), 0, ""),
        (argv("single", "--plot", "run", "--mode", "frozen"), 0, ""),
        (argv("mixed", "run", "--mode", "auto"), 0, ""),
        (argv("timeseries", "ablate"), 0, ""),
        (argv("timeseries", "sweep", "--param", "k2", "--values", "1,2"), 0, ""),
        (argv("bogus", "run", "--mode", "auto"), 1,
         "error: config error: unknown parameter groups ['bogus']"),
        (argv("sgd_lr", "run", "--mode", "auto"), 1, "error: non-finite loss "),
        (argv("far_ood", "pretrain", out="far"), 0, ""),
        (argv("far_ood", "run", "--mode", "auto", out="far"), 1,
         "error: non-finite logits in forward pass at stream index "),
        (argv("single", "run", "--mode", "frozen", out="scaled"), 1,
         "error: non-finite logits in forward pass at training row "),
        (argv("pretrain_lr", "pretrain", out="diverged"), 1, "error: training diverged: "),
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


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> tuple[set, set]:
    """Every command run once: the (file, first line) of each code object
    entered and the (file, line) of each line executed in a function that
    holds a traced ``raise``. Only those frames are traced line by line."""
    _, raises = walk_package()
    with_raises = {func for _, func, _ in raises.values()}
    entered: dict = {}  # code object -> whether its lines are traced
    lines = set()

    def trace_line(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code, frame.f_lineno))
        return trace_line

    def trace_call(frame, event, arg):
        code = frame.f_code
        if code not in entered:
            entered[code] = key(code) in with_raises
        return trace_line if entered[code] else None

    clear_caches()
    commands = command_lines(tmp_path_factory.mktemp("commands"))
    err = io.StringIO()
    sys.settrace(trace_call)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            codes = [main(argv) for argv, _, _ in commands]
    finally:
        sys.settrace(None)
    assert codes == [code for _, code, _ in commands]
    # each failing command's one error line, in order; a sweep row may warn
    errors = [ln for ln in err.getvalue().splitlines() if ln.startswith("error:")]
    expected = [start for _, code, start in commands if code]
    assert len(errors) == len(expected)
    assert all(err.startswith(start) for err, start in zip(errors, expected)), errors
    return set(map(key, entered)), {(key(code)[0], line) for code, line in lines}


def key(code) -> tuple[str, int]:
    """A code object's (file, first line), as ``walk_package`` keys it."""
    return os.path.realpath(code.co_filename), code.co_firstlineno


def test_every_package_function_is_reached_by_a_command(traced):
    entered, _ = traced
    defs, _ = walk_package()
    missing = sorted({name for key, name in defs.items() if key not in entered}
                     - ALLOWED_UNREACHED)
    assert missing == [], f"no command reaches {', '.join(missing)}"
    assert len(defs) > 80  # the parse found the package's functions


def test_every_inner_raise_is_reached_or_guards_the_library_example(traced):
    _, lines = traced
    _, raises = walk_package()
    # a line event stands for the raise only if no other statement starts on its line
    statement_lines = {(str(path), node.lineno) for path in PACKAGE.glob("*.py")
                       for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                       if isinstance(node, ast.stmt) and not isinstance(node, ast.Raise)}
    assert set(raises).isdisjoint(statement_lines)
    guarded = {site: [guard for guard in GUARDS if guard[0] == name and guard[1] in source]
               for site, (name, _, source) in raises.items()}
    unguarded = [f"{Path(path).name}:{line} {raises[path, line][0]}: {raises[path, line][2]}"
                 for (path, line), found in sorted(guarded.items())
                 if (path, line) not in lines and not found]
    assert unguarded == [], ("no command reaches these raises, and they guard no name of the "
                             "library example:\n" + "\n".join(unguarded))
    # every guard names one raise and a name that the example imports
    assert sorted(g for found in guarded.values() for g in found) == sorted(GUARDS)
    [example_import] = [node for node in ast.walk(ast.parse(library_use_block()))
                        if isinstance(node, ast.ImportFrom) and node.module == "oodstream"]
    assert set(GUARDS.values()) <= {alias.name for alias in example_import.names}
    # the bad inputs reach the engine's re-raises, the forward pass's and pretraining's
    reached = {name for site, (name, _, _) in raises.items() if site in lines}
    assert reached >= {"engine._check_finite", "engine._fixed_logits", "engine.step",
                       "nn.forward_logits", "nn.train_offline"}


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
