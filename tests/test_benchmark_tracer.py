"""The traced benchmark can wrap what it names, and its exact counts hold.

``perfbench/tracer.py`` replaces the module attributes listed in its
``TARGETS`` by wrappers, by name. If one of them is renamed or removed,
``Tracer.installed`` raises and the traced benchmark fails; if the program
calls them more or less often than ``perfbench/run.py`` expects, every traced
run is counted as failed. Both benchmark files are only read here.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

from oodstream import data, engine, filtering, memory, metrics, nn, scoring
from oodstream.cli import CHECKPOINT_NAME, main
from oodstream.runconfig import RunConfig, to_text

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = {"data": data, "engine": engine, "filtering": filtering, "memory": memory,
           "metrics": metrics, "nn": nn, "scoring": scoring}


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    sys.path.insert(0, str(BENCH))  # run.py imports calib by name
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


@pytest.fixture(scope="module")
def tracer():
    return load_bench_module("tracer")


def test_every_traced_target_exists(tracer):
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracer.TARGETS
               if not callable(getattr(MODULES[mod], attr, None))]
    assert missing == []
    originals = [getattr(MODULES[mod], attr) for mod, attr, _ in tracer.TARGETS]
    with tracer.Tracer().installed(MODULES):
        pass
    assert [getattr(MODULES[mod], attr) for mod, attr, _ in tracer.TARGETS] == originals


# Every stream kind, in both modes. The tracer adds to ``data.arrivals`` once
# per ``data.compose`` span, so a composer that called another traced
# composer would nest two spans and count its arrivals twice. The default
# stream keeps the bare mode as its id.
STREAM_MODES = [pytest.param(stream, mode, id=mode if stream == "single" else f"{stream}-{mode}")
                for stream in ("single", "mixed", "timeseries") for mode in ("auto", "frozen")]


def tiny_config(tmp_path: Path, stream: str = "single") -> tuple[Path, str]:
    text = to_text(RunConfig(test_id_n=300, ood_n=300, hidden=(16, 16), epochs=3, k2=1.0,
                             stats_subsample_n=40, stream=stream, out_dir=str(tmp_path / "out")))
    path = tmp_path / "tiny.cfg"
    path.write_text(text, encoding="ascii")
    return path, text


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """One ``pretrain`` of the tiny config. The stream keys are not part of
    the pretrain hash, so every stream kind replays this checkpoint."""
    path, _ = tiny_config(tmp_path_factory.mktemp("tiny"))
    assert main(["--config", str(path), "pretrain"]) == 0
    return path.parent / "out" / CHECKPOINT_NAME


@pytest.mark.parametrize("stream,mode", STREAM_MODES)
def test_traced_counts_equal_program_counts(tmp_path, capsys, tracer, tiny_checkpoint,
                                            stream, mode):
    """A tiny run through the benchmark's own tracer and count check."""
    run = load_bench_module("run")
    path, text = tiny_config(tmp_path, stream)
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(tiny_checkpoint, out)
    traced = tracer.Tracer()
    with traced.installed(MODULES), traced.span("cli.run"):
        assert main(["--config", str(path), "run", "--mode", mode]) == 0
    capsys.readouterr()
    counts, _, _ = tracer.run_breakdown(traced.spans)
    prog = json.loads((out / f"{mode}_metrics.json").read_text(encoding="ascii"))["counts"]
    assert run.trace_count_problems(counts, prog, run.read_config(text), mode) == []
    arrivals = prog["pseudo_id"] + prog["pseudo_ood"] + prog["abstain"]
    if mode == "auto":
        assert prog["updates"] > 0 and prog["pseudo_id"] > 0
        assert counts["engine.step.pseudo_ood.calls"] == prog["updates"]
        assert counts["memory.replace.calls"] == prog["pseudo_id"]
    assert counts["nn.forward_logits.calls"] == arrivals + 40 + prog["updates"]
    assert counts["nn.sgd_step.calls"] == 2 * prog["updates"]
    assert counts["nn.total_loss.calls"] == prog["updates"]
    assert counts["scoring.score.calls"] == (arrivals if mode == "auto" else 0)
    assert counts["scoring.predict.calls"] == prog["updates"]
