"""Session fixtures: the pinned canonical scenario and its pretrained model,
and a small wide scenario."""

from __future__ import annotations

import contextlib
import io
import shutil
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import CANONICAL_CLI_COMMANDS, to_text, write_config
from oodstream import cli, data, engine, nn
from oodstream.cli import CHECKPOINT_NAME, main
from oodstream.runconfig import RunConfig, from_text

WIDE_CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "wide_drift.cfg"


@pytest.fixture(scope="session")
def canonical_out(tmp_path_factory):
    """Output directory of one command-line ``pretrain`` on the pinned
    canonical config: the session's only canonical pretrain. A test that
    runs the CLI on a changed canonical config writes its outputs here too."""
    root = tmp_path_factory.mktemp("canonical")
    cfg_path = root / "canonical.cfg"
    cfg_path.write_text(to_text(RunConfig(out_dir=str(root / "out"))), encoding="ascii")
    assert main(["--config", str(cfg_path), "pretrain"]) == 0
    return root / "out"


@pytest.fixture(scope="session")
def small_pretrain(tmp_path_factory):
    """Output directory of the session's one ``pretrain`` of the small scenario."""
    root = tmp_path_factory.mktemp("small")
    cfg_path = write_config(root, out_dir=str(root / "out"))
    assert main(["--config", str(cfg_path), "pretrain"]) == 0
    return root / "out"


@pytest.fixture(scope="session")
def canonical_cli(canonical_out, tmp_path_factory):
    """``CANONICAL_CLI_COMMANDS`` on the canonical config, each run once in a
    directory of its own that starts with copies of ``canonical_out``'s
    checkpoint and pretrain summary. Holds that directory, each command's
    stdout text by command, the commands' stderr text and the messages of
    the warnings they raised."""
    root = tmp_path_factory.mktemp("canonical_cli")
    out = root / "out"
    out.mkdir()
    shutil.copy(canonical_out / CHECKPOINT_NAME, out)
    shutil.copy(canonical_out / "pretrain_summary.json", out)
    cfg_path = root / "canonical.cfg"
    cfg_path.write_text(to_text(RunConfig()), encoding="ascii")
    base = ["--config", str(cfg_path), "--out", str(out)]
    err, stdout = io.StringIO(), {}
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for command in CANONICAL_CLI_COMMANDS:
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                assert main(base + command.split()) == 0
            stdout[command] = printed.getvalue()
    return {"out": out, "stdout": stdout, "stderr": err.getvalue(),
            "warnings": [str(w.message) for w in caught]}


@pytest.fixture(scope="session")
def wide_small(tmp_path_factory):
    """The benchmark's wide config (``WIDE_CONFIG``: 8 dims, 4 classes, a
    512-wide net, a two-segment time series) with 4 pretrain epochs, 800
    test-ID rows and 400 OOD rows per source. A command-line ``pretrain``,
    then one frozen and one auto replay, each of a freshly loaded
    checkpoint. Holds the checkpoint bytes and the log of each mode."""
    root = tmp_path_factory.mktemp("wide_small")
    cfg = replace(from_text(WIDE_CONFIG.read_text(encoding="ascii")), epochs=4, test_id_n=800,
                  ood_n=400, out_dir=str(root / "out"))
    cfg_path = root / "wide_small.cfg"
    cfg_path.write_text(to_text(cfg), encoding="ascii")
    assert main(["--config", str(cfg_path), "pretrain"]) == 0
    logs = {mode: cli._replay(cfg, mode, *cli._prepare(cfg))[0] for mode in ("frozen", "auto")}
    return {"checkpoint": (root / "out" / CHECKPOINT_NAME).read_bytes(), "logs": logs}


@pytest.fixture(scope="session")
def canonical(canonical_out):
    """Scenario data, the pretrained model from ``canonical_out``'s
    checkpoint, and the composed stream for the pinned reference
    configuration. Heavy enough to share across the session."""
    cfg = RunConfig()
    train, test_id, oods = data.make_scenario(cfg)
    model, _ = nn.load_checkpoint(canonical_out / CHECKPOINT_NAME)
    stream = data.compose_stream(test_id, oods[0], kappa=cfg.kappa, seed=cfg.stream_seed)
    return {
        "run_config": cfg,
        "train": train,
        "test_id": test_id,
        "oods": oods,
        "model": model,
        "stream": stream,
    }


def fresh_state(canonical_fixture, cfg: RunConfig) -> engine.AutoState:
    model = nn.clone_frozen(canonical_fixture["model"])
    return engine.init_state(model, canonical_fixture["train"], cfg)


def _read_only(*arrays) -> None:
    for a in arrays:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False


class CanonicalReplay(dict):
    """Maps a ``RunConfig`` to the (log, final state) of ``engine.run_stream``
    on the canonical stream, each run from a fresh clone of the pretrained
    model the first time a test asks for it. ``frozen`` is the default
    config's ``engine.run_posthoc`` log and ``margins0`` the margins both
    modes start from. Every array is read-only, so no test can change what
    another one reads; a test that steps or patches a replay builds its own
    state with ``fresh_state``."""

    def __init__(self, canonical_fixture):
        super().__init__()
        self.canonical = canonical_fixture
        self.margins0 = fresh_state(canonical_fixture, canonical_fixture["run_config"]).margins
        self.frozen = engine.run_posthoc(canonical_fixture["model"], self.margins0,
                                         canonical_fixture["stream"])
        _read_only(*vars(self.frozen).values())

    def __missing__(self, cfg: RunConfig):
        state = fresh_state(self.canonical, cfg)
        log = engine.run_stream(state, cfg, self.canonical["stream"])
        _read_only(*vars(log).values(), state.bank, *state.model_t.weights,
                   *state.model_t.biases, *state.model_0.weights, *state.model_0.biases)
        self[cfg] = log, state
        return log, state


@pytest.fixture(scope="session")
def canonical_replay(canonical):
    """The session's one memo of canonical replays (``CanonicalReplay``): a
    test that only reads a canonical replay takes it from here."""
    return CanonicalReplay(canonical)
