"""Command-line front end: files, determinism, exit codes.

Runs use a shrunken scenario so each CLI invocation stays fast; the pinned
canonical defaults are exercised by the acceptance suite.
"""

from __future__ import annotations

import json
import shutil
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from helpers import (CANONICAL_CLI_COMMANDS, CORRUPT_PAYLOADS, FLOAT_KEYS, REMOVED_KEY_VALUES,
                     SMALL_OVERRIDES, THREE_SOURCES, config_text_with, corrupt_checkpoint,
                     forward_batch_reference, non_finite_rule, removed_key_rule,
                     split_checkpoint, to_text, write_config)
from oodstream import cli, data, engine, nn
from oodstream.cli import main
from oodstream.runconfig import RunConfig, config_hash, from_text, pretrain_hash

@pytest.fixture()
def pretrained(tmp_path, small_pretrain):
    """The small config, and its own output directory that starts with a copy
    of ``small_pretrain``'s files: neither the checkpoint nor the pretrain
    summary depends on where they are written."""
    cfg_path = write_config(tmp_path, out_dir=str(tmp_path / "out"))
    shutil.copytree(small_pretrain, tmp_path / "out")
    return cfg_path, tmp_path / "out"


def test_pretrain_writes_checkpoint_and_summary(pretrained):
    cfg_path, out = pretrained
    assert (out / "model.ckpt").exists()
    summary = json.loads((out / "pretrain_summary.json").read_text())
    assert summary["epochs"] == 60
    model, saved = nn.load_checkpoint(out / "model.ckpt")
    # reload reproduces the reported training accuracy
    cfg = from_text(cfg_path.read_text())
    assert saved == pretrain_hash(cfg)
    from oodstream import data
    train, _, _ = data.make_scenario(cfg)
    assert nn.accuracy(model, train.features, train.labels) == pytest.approx(
        summary["train_accuracy"], abs=0)


def test_pretrain_deterministic(tmp_path):
    cfg_path = write_config(tmp_path, out_dir=str(tmp_path / "o1"))
    assert main(["--config", str(cfg_path), "pretrain"]) == 0
    first = (tmp_path / "o1" / "model.ckpt").read_bytes()
    assert main(["--config", str(cfg_path), "pretrain"]) == 0
    assert (tmp_path / "o1" / "model.ckpt").read_bytes() == first


def test_missing_scenario_section_fails(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("auto.lambda1 = 1\n", encoding="ascii")
    assert main(["--config", str(path), "pretrain"]) == 1


def test_missing_config_file_fails(tmp_path):
    assert main(["--config", str(tmp_path / "nope.cfg"), "pretrain"]) == 1


def test_run_without_checkpoint_fails(tmp_path):
    cfg_path = write_config(tmp_path, out_dir=str(tmp_path / "out"))
    assert main(["--config", str(cfg_path), "run", "--mode", "auto"]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["run", "--mode", "frozen"], ["ablate"],
                                     ["sweep", "--param", "k2", "--values", "1,2"]])
def test_missing_checkpoint_leaves_no_output_dir(tmp_path, capsys, command):
    cfg_path = write_config(tmp_path, out_dir=str(tmp_path / "out"))
    assert main(["--config", str(cfg_path), *command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint not found: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_outputs_do_not_depend_on_out_dir(tmp_path):
    cfg_path = write_config(tmp_path)
    outs = [tmp_path / "first", tmp_path / "second" / "nested"]
    for out in outs:
        for command in (["pretrain"], ["run", "--mode", "auto"], ["run", "--mode", "frozen"]):
            assert main(["--config", str(cfg_path), "--out", str(out), "--plot",
                         *command]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert len(names) == 8
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("center,n", [("3", 1), ("1,2,3", 3)])
def test_gaussian_center_of_wrong_length_fails_with_one_line(tmp_path, capsys, center, n):
    text = to_text(RunConfig(**SMALL_OVERRIDES, out_dir=str(tmp_path / "out")))
    [line] = [ln for ln in text.splitlines() if ln.startswith("scenario.ood1.center = ")]
    path = tmp_path / "center.cfg"
    path.write_text(text.replace(line, f"scenario.ood1.center = {center}"), encoding="ascii")
    assert main(["--config", str(path), "pretrain"]) == 1
    assert capsys.readouterr().err == (f"error: config error: OOD source 1 "
                                       f"(scenario.ood1.center) has length {n}; dim is 2\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", [
    ("scenario.ood1.spread", "-1"), ("scenario.ood1.spread", "nan"),
    ("scenario.ood2.low", "-4"), ("scenario.ood2.high", "4,-5"),
    ("scenario.ood3.radius", "0"), ("scenario.ood3.width", "-1"),
    ("scenario.id_spread", "0"), ("scenario.train_n", "0"), ("scenario.train_n", "2"),
    ("scenario.classes", "1"), ("scenario.stream", "bogus"), ("scenario.ood_count", "-1"),
    # a missing source key, and keys no source has
    ("scenario.ood1.spread", None), ("scenario.ood1.radius", "1"), ("scenario.ood01.kind", "box"),
    # the removed box and ring kinds, each with its keys
    pytest.param("scenario.ood2.kind", "box\nscenario.ood2.low = -4,-4\nscenario.ood2.high = 4,4",
                 id="scenario.ood2.kind-box"),
    pytest.param("scenario.ood3.kind", "ring\nscenario.ood3.radius = 3\nscenario.ood3.width = 1",
                 id="scenario.ood3.kind-ring"),
])
def test_bad_scenario_value_fails_at_load(tmp_path, capsys, key, value):
    """No checkpoint exists, so only a check at load can produce this error.
    A value of None drops the key's line; any other value replaces it, or
    adds it if the text has no such key, and may add further lines."""
    text = to_text(RunConfig(**SMALL_OVERRIDES, ood_sources=THREE_SOURCES,
                             out_dir=str(tmp_path / "out")))
    lines = [ln for ln in text.splitlines() if not ln.startswith(f"{key} = ")]
    if value is not None:
        lines.append(f"{key} = {value}")
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    assert main(["--config", str(path), "run", "--mode", "auto"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config error: ") and err.count("\n") == 1
    assert key in err
    assert not (tmp_path / "out").exists()


def test_scenario_too_large_to_allocate_fails_with_one_line(tmp_path, capsys):
    """numpy refuses this PiB-scale draw without allocating it; the refusal
    used to end in a MemoryError traceback."""
    path = write_config(tmp_path, train_n=10**15, out_dir=str(tmp_path / "out"))
    assert main(["--config", str(path), "pretrain"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
    assert not (tmp_path / "out" / cli.CHECKPOINT_NAME).exists()


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_fails_at_load(tmp_path, capsys, key, raw):
    """Before these checks, pretrain trained on a NaN scenario and exited 0."""
    out = tmp_path / "out"
    path = tmp_path / "bad.cfg"
    path.write_text(config_text_with(key, raw, **SMALL_OVERRIDES, out_dir=str(out)),
                    encoding="ascii")
    assert main(["--config", str(path), "pretrain"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config error: {key} = ") and err.count("\n") == 1
    assert err.endswith(f"{non_finite_rule(key)}\n")
    assert not out.exists()


@pytest.mark.parametrize("mode", ["auto", "frozen"])
def test_removed_keys_load_only_at_their_kept_value(pretrained, capsys, mode):
    """Momentum, four replay variants, the score choice and weight decay
    were removed. Each removed key still loads at its one kept value, as
    older files set it, and changes no output byte, the config hash
    included; any other value fails at load with one line."""
    cfg_path, out = pretrained
    text = cfg_path.read_text(encoding="ascii")
    assert all(key not in text for key in REMOVED_KEY_VALUES)
    assert main(["--config", str(cfg_path), "run", "--mode", mode]) == 0
    written = {p.name: p.read_bytes() for p in out.glob(f"{mode}_*")}
    legacy = cfg_path.with_name("legacy.cfg")
    legacy.write_text(text + "".join(f"{key} = {raw}\n"
                                     for key, raw in REMOVED_KEY_VALUES.items()),
                      encoding="ascii")
    assert main(["--config", str(legacy), "run", "--mode", mode]) == 0
    assert {p.name: p.read_bytes() for p in out.glob(f"{mode}_*")} == written
    capsys.readouterr()
    (out / f"{mode}_events.csv").unlink()
    for key, raw, shown in [("pretrain.momentum", "0.9", "0.9"), ("sgd.momentum", "0.9", "0.9"),
                            ("auto.lambda2_decay", "0.5", "0.5"),
                            ("auto.id_loss_reduction", "mean", "'mean'"),
                            ("auto.margin_literal_m0", "true", "True"),
                            ("auto.memory_mode", "prototype", "'prototype'"),
                            ("auto.score", "energy", "'energy'"),
                            ("auto.energy_temperature", "0.7", "0.7"),
                            ("pretrain.weight_decay", "1e-3", "0.001"),
                            ("sgd.weight_decay", "0.5", "0.5")]:
        legacy.write_text(f"{text}{key} = {raw}\n", encoding="ascii")
        assert main(["--config", str(legacy), "run", "--mode", mode]) == 1
        assert capsys.readouterr().err == (f"error: config error: {key} = {shown} "
                                           f"{removed_key_rule(key)}\n")
        assert not (out / f"{mode}_events.csv").exists()


@pytest.mark.parametrize("command", [["pretrain"], ["run", "--mode", "auto"]])
def test_negative_seed_fails_before_any_work(tmp_path, capsys, command):
    """numpy refused it only when the scenario was drawn, in a message that
    named no option."""
    cfg_path = write_config(tmp_path, out_dir=str(tmp_path / "out"))
    assert main(["--config", str(cfg_path), "--seed", "-1", *command]) == 1
    assert capsys.readouterr().err == "error: --seed = -1 is out of range: it must be >= 0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", [("scenario.kappa", "1"), ("auto.iters_T", "-1"),
                                       ("auto.energy_temperature", "0"),
                                       ("auto.k1", "-1"), ("auto.k2", "-0.5"),
                                       ("pretrain.batch_size", "0"),
                                       ("pretrain.batch_size", "-1"),
                                       ("pretrain.epochs", "-1"), ("pretrain.lr", "0"),
                                       ("auto.score", "bogus"),
                                       ("auto.memory_mode", "bogus"),
                                       ("auto.id_loss_reduction", "bogus"),
                                       ("auto.lambda1", "-1"), ("auto.lambda2", "nan"),
                                       ("auto.lambda2_decay", "-1"), ("sgd.lr", "-0.001"),
                                       ("auto.stats_subsample_n", "-1"),
                                       ("scenario.seed", "-5"), ("scenario.stream_seed", "-5"),
                                       ("pretrain.init_seed", "-1"),
                                       ("pretrain.shuffle_seed", "-1"),
                                       ("auto.memory_seed", "-1"),
                                       ("pretrain.weight_decay", "-1"),
                                       ("sgd.weight_decay", "-1"),
                                       ("auto.id_weight", "-1")])
def test_out_of_range_value_fails_before_any_work(tmp_path, capsys, key, value):
    # a removed key has no line of its own, so the key's line goes last
    lines = [ln for ln in to_text(RunConfig(**SMALL_OVERRIDES, out_dir=str(tmp_path / "out")))
             .splitlines() if not ln.startswith(f"{key} = ")] + [f"{key} = {value}"]
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    for command in (["pretrain"], ["run", "--mode", "auto"], ["run", "--mode", "frozen"]):
        assert main(["--config", str(path), *command]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config error: {key} = ") and err.count("\n") == 1
        assert "out of range" in err
        if key in REMOVED_KEY_VALUES:
            assert err.endswith(f" {removed_key_rule(key)}\n")
    assert not (tmp_path / "out").exists()


REPLAY_COMMANDS = [["run", "--mode", "auto"], ["run", "--mode", "frozen"], ["ablate"],
                   ["sweep", "--param", "k2", "--values", "1,2"]]


def assert_checkpoint_refused(capsys, out: Path, argv: list[str]) -> None:
    """``argv`` fails with the one-line provenance error and writes nothing."""
    saved = nn.load_checkpoint(out / "model.ckpt")[1]
    expected = pretrain_hash(cli._load_config(cli.build_parser().parse_args(argv)))
    assert expected != saved
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: checkpoint {out / 'model.ckpt'} was pretrained under pretrain hash {saved}, "
        f"but the config has pretrain hash {expected} (run `pretrain` again)\n")
    assert sorted(p.name for p in out.iterdir()) == ["model.ckpt", "pretrain_summary.json"]


@pytest.mark.parametrize("command", REPLAY_COMMANDS)
def test_checkpoint_of_another_shape_fails_with_one_line(pretrained, capsys, command):
    """Before the layer-dims check, a 16,16 checkpoint ran under a config of
    hidden = 8 and wrote outputs that carry the hash of the 8-wide config."""
    cfg_path, out = pretrained
    path = write_config(cfg_path.parent, hidden=(8,), out_dir=str(out))
    assert_checkpoint_refused(capsys, out, ["--config", str(path), *command])


# what pretraining reads, changed: (RunConfig overrides, CLI arguments)
OTHER_PRETRAINING = [
    ({"seed": 7}, []),
    ({"train_n": 120}, []),
    ({"epochs": 59}, []),
    ({"ood_sources": THREE_SOURCES}, []),
    ({}, ["--seed", "999"]),
]


@pytest.mark.parametrize("command", REPLAY_COMMANDS)
def test_checkpoint_of_another_pretraining_config_fails_with_one_line(pretrained, capsys,
                                                                       command):
    """Before the pretrain hash, a checkpoint of the same layer dims ran under
    a config of another scenario or pretraining seed."""
    cfg_path, out = pretrained
    for overrides, flags in OTHER_PRETRAINING:
        path = write_config(cfg_path.parent, **overrides, out_dir=str(out))
        assert_checkpoint_refused(capsys, out, ["--config", str(path), *flags, *command])


@pytest.mark.parametrize("command", REPLAY_COMMANDS)
def test_stream_keys_alone_keep_the_checkpoint(pretrained, command):
    """Pretraining never reads how the stream is composed, so a config that
    differs only there replays the same checkpoint."""
    cfg_path, out = pretrained
    for overrides in ({"stream_seed": 5}, {"kappa": 0.3}, {"stream": "mixed"}):
        path = write_config(cfg_path.parent, **overrides, out_dir=str(out))
        assert main(["--config", str(path), *command]) == 0, overrides


def test_checkpoints_before_v4_fail_with_one_line(pretrained, capsys):
    """The v1 and v2 text headers and the v3 header, whose fourth line named
    the dims' group labels, are all refused."""
    cfg_path, out = pretrained
    ckpt = out / "model.ckpt"
    header, tensors = split_checkpoint(ckpt.read_bytes())
    v3 = b"\n".join([b"auto-mlp v3", header[1], b"block1 block2 fc", header[2], tensors])
    for old in ("auto-mlp v1", "auto-mlp v2", "auto-mlp v3"):
        ckpt.write_bytes(v3.replace(b"auto-mlp v3", old.encode(), 1))
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "run", "--mode", "auto"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: unsupported checkpoint header '{old}'")
        assert err.endswith("(run `pretrain` again to rewrite it)\n") and err.count("\n") == 1
        assert not (out / "auto_events.csv").exists()


def test_corrupt_checkpoint_fails_with_one_line(pretrained, capsys):
    cfg_path, out = pretrained
    ckpt = out / "model.ckpt"
    good = ckpt.read_bytes()
    for kind in CORRUPT_PAYLOADS:
        ckpt.write_bytes(good)
        message = corrupt_checkpoint(ckpt, kind)
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "run", "--mode", "frozen"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n", kind
        assert not (out / "frozen_events.csv").exists()


def test_checkpoint_of_zero_bytes_fails_with_one_short_line(tmp_path, capsys):
    """The error quotes at most the magic line's length of the file; it used
    to quote up to 64 KiB of it, one line of 262,245 characters here."""
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, out_dir=str(out))
    out.mkdir()
    (out / "model.ckpt").write_bytes(bytes(100_000))
    assert main(["--config", str(cfg_path), "run", "--mode", "frozen"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unsupported checkpoint header ") and err.count("\n") == 1
    assert len(err) < 200


def test_train_n_below_classes_fails_at_load(tmp_path, capsys):
    """``classes = 5, train_n = 3`` used to pretrain and exit 0, and then
    ``run`` failed: the training data has no row of some class."""
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, classes=5, train_n=5, out_dir=str(out))
    cfg_path.write_text(cfg_path.read_text().replace("scenario.train_n = 5",
                                                     "scenario.train_n = 3"), encoding="ascii")
    assert main(["--config", str(cfg_path), "pretrain"]) == 1
    assert capsys.readouterr().err == ("error: config error: scenario.train_n = 3 is out of "
                                       "range: it must be >= scenario.classes (5)\n")
    assert not out.exists()


def test_timeseries_test_id_n_below_segments_fails_at_load(tmp_path, capsys):
    """``test_id_n = 1`` over two time-series segments used to pretrain and
    exit 0, and then every ``run`` failed with an error that named no key:
    one segment's share of the ID pool is empty."""
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, stream="timeseries", out_dir=str(out))
    cfg_path.write_text(cfg_path.read_text().replace("scenario.test_id_n = 250",
                                                     "scenario.test_id_n = 1"), encoding="ascii")
    assert main(["--config", str(cfg_path), "pretrain"]) == 1
    assert capsys.readouterr().err == ("error: config error: scenario.test_id_n = 1 is out of "
                                       "range: it must be >= the timeseries stream's 2 "
                                       "segments\n")
    assert not out.exists()


@pytest.mark.parametrize("mode", ["auto", "frozen"])
def test_non_finite_arrival_fails_with_one_line(pretrained, capsys, mode):
    cfg_path, _ = pretrained
    text = cfg_path.read_text()
    center = [ln for ln in text.splitlines() if ln.startswith("scenario.ood1.center")]
    assert len(center) == 1
    cfg_path.write_text(text.replace(center[0], "scenario.ood1.center = 1.7e308,1.7e308"),
                        encoding="ascii")
    # the OOD sources are part of the pretrain hash
    assert main(["--config", str(cfg_path), "pretrain"]) == 0
    cfg = from_text(cfg_path.read_text())
    _, test_id, oods = data.make_scenario(cfg)
    stream = cli._make_stream(cfg, test_id, oods)
    first = int(np.flatnonzero(np.abs(stream.features).max(axis=1) > 1e300)[0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", str(cfg_path), "run", "--mode", mode]) == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err == f"error: non-finite logits in forward pass at stream index {first}\n"


@pytest.mark.parametrize("mode", ["auto", "frozen"])
def test_non_finite_training_row_fails_with_one_line(pretrained, capsys, mode):
    """Finite weights scaled by 1e200 overflow the forward pass of the margin
    statistics, before the first arrival. The error used to name no row."""
    cfg_path, out = pretrained
    cfg = from_text(cfg_path.read_text())
    model, saved = nn.load_checkpoint(out / "model.ckpt")
    assert saved == pretrain_hash(cfg)
    for w in model.weights:
        w *= 1e200
    nn.save_checkpoint(model, out / "model.ckpt", saved)
    train, _, _ = data.make_scenario(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        logits, _, _ = forward_batch_reference(model, train.features)
    first = int(np.flatnonzero(~np.isfinite(logits).all(axis=1))[0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", str(cfg_path), "run", "--mode", mode]) == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert capsys.readouterr().err == (f"error: non-finite logits in forward pass "
                                       f"at training row {first}\n")
    assert list(out.glob(f"{mode}_*")) == []


def test_non_finite_loss_fails_with_one_line(pretrained, capsys):
    """An SGD step of 1e300 on every layer makes the first update episode's
    loss NaN. Until that episode the auto replay decides as the frozen one,
    so the failing index is the frozen run's first pseudo-OOD arrival."""
    cfg_path, out = pretrained
    # the SGD keys are not part of the pretrain hash
    cfg_path = write_config(cfg_path.parent, out_dir=str(out), lr=1e300, trainable_groups="all")
    assert main(["--config", str(cfg_path), "run", "--mode", "frozen"]) == 0
    decisions = [ln.split(",")[3] for ln in
                 (out / "frozen_events.csv").read_text().splitlines()[2:]]
    first = decisions.index("pseudo_ood")
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "run", "--mode", "auto"]) == 1
    assert capsys.readouterr().err == f"error: non-finite loss nan at stream index {first}\n"
    assert list(out.glob("auto_*")) == []


def test_diverging_pretrain_fails_with_one_line(tmp_path, capsys):
    """A pretraining step of 1e300 overflows the weights in the first epoch.
    Before, ``pretrain`` warned twice, saved the broken model and exited 0,
    and every later run failed on loading it."""
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(to_text(RunConfig(test_id_n=300, ood_n=300, epochs=2, pretrain_lr=1e300,
                                          out_dir=str(out))), encoding="ascii")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", str(cfg_path), "pretrain"]) == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: training diverged: epoch 1 of 2 left a non-finite weight; "
                            "pretrain.lr = 1e+300 may be too large\n")
    assert not out.exists()


@pytest.mark.parametrize("mode", ["auto", "frozen"])
@pytest.mark.parametrize("overrides,counts", [({"ood_n": 1}, "0 ID and 1 OOD"),
                                              ({"kappa": 0.0}, "0 ID and 250 OOD")],
                         ids=["ood_n=1", "kappa=0"])
def test_stream_without_id_or_ood_arrival_fails_before_the_replay(
        tmp_path, capsys, monkeypatch, overrides, counts, mode):
    """Such a stream used to fail only after the whole replay, when the
    metrics found no ID or no OOD event. ``ood_n = 1`` ends the stream at
    its first, OOD, arrival, and ``kappa = 0`` composes an all-OOD stream."""
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, epochs=5, out_dir=str(out), **overrides)
    assert main(["--config", str(cfg_path), "pretrain"]) == 0
    monkeypatch.setattr(engine, "init_state", lambda *args: pytest.fail("replay started"))
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "run", "--mode", mode]) == 1
    assert capsys.readouterr().err == (
        f"error: the composed stream holds {counts} arrivals, but a run needs at least one "
        "of each; scenario.kappa, scenario.test_id_n and scenario.ood_n set the mix\n")
    assert sorted(p.name for p in out.iterdir()) == ["model.ckpt", "pretrain_summary.json"]


def test_run_frozen_constant_m_out(pretrained):
    cfg_path, out = pretrained
    assert main(["--config", str(cfg_path), "run", "--mode", "frozen"]) == 0
    lines = (out / "frozen_events.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "t,score,prediction,decision,is_ood_truth,label_truth,m_out"
    m_outs = {ln.rsplit(",", 1)[1] for ln in lines[2:]}
    assert len(m_outs) == 1
    rep = json.loads((out / "frozen_metrics.json").read_text())
    assert rep["mode"] == "frozen"
    assert rep["counts"]["updates"] == 0


def test_run_auto_outputs_and_determinism(pretrained):
    cfg_path, out = pretrained
    assert main(["--config", str(cfg_path), "--plot", "run", "--mode", "auto"]) == 0
    csv1 = (out / "auto_events.csv").read_bytes()
    json1 = (out / "auto_metrics.json").read_bytes()
    svg1 = (out / "auto_scores.svg").read_bytes()
    assert main(["--config", str(cfg_path), "--plot", "run", "--mode", "auto"]) == 0
    assert (out / "auto_events.csv").read_bytes() == csv1
    assert (out / "auto_metrics.json").read_bytes() == json1
    assert (out / "auto_scores.svg").read_bytes() == svg1
    assert svg1.startswith(b"<!-- config_hash=")
    rep = json.loads(json1)
    assert rep["config_hash"]
    assert set(rep["counts"]) == {"pseudo_id", "pseudo_ood", "abstain", "updates",
                                  "bank_replacements", "contaminated_replacements"}
    n_events = len(csv1.decode().splitlines()) - 2
    c = rep["counts"]
    assert c["pseudo_id"] + c["pseudo_ood"] + c["abstain"] == n_events


def test_json_files_keep_their_key_order_and_layout(pretrained):
    """``{mode}_metrics.json`` and ``pretrain_summary.json`` are laid out by
    the CLI alone: two-space indent, a final newline and fixed key order.
    ``perfbench/run.py`` reads these keys."""
    cfg_path, out = pretrained
    chash = config_hash(from_text(cfg_path.read_text()))
    counts = ["pseudo_id", "pseudo_ood", "abstain", "updates", "bank_replacements",
              "contaminated_replacements"]
    assert counts == [f.name for f in fields(engine.RunCounts)]
    for mode in ("auto", "frozen"):
        assert main(["--config", str(cfg_path), "run", "--mode", mode]) == 0
        text = (out / f"{mode}_metrics.json").read_text(encoding="ascii")
        rep = json.loads(text)
        assert text == json.dumps(rep, indent=2) + "\n"
        assert list(rep) == ["config_hash", "mode", "fpr95", "auroc", "id_acc", "counts"]
        assert (rep["config_hash"], rep["mode"]) == (chash, mode)
        assert list(rep["counts"]) == counts
        n_events = len((out / f"{mode}_events.csv").read_text().splitlines()) - 2
        c = rep["counts"]
        assert c["pseudo_id"] + c["pseudo_ood"] + c["abstain"] == n_events
    text = (out / "pretrain_summary.json").read_text(encoding="ascii")
    summary = json.loads(text)
    assert text == json.dumps(summary, indent=2) + "\n"
    assert list(summary) == ["config_hash", "epochs", "train_accuracy", "test_id_accuracy",
                             "checkpoint"]
    assert summary["config_hash"] == chash
    assert summary["checkpoint"] == "model.ckpt"


def test_ablate_four_rows(pretrained):
    cfg_path, out = pretrained
    assert main(["--config", str(cfg_path), "ablate"]) == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[1] == "combo,fpr95,auroc,id_acc"
    combos = [ln.split(",")[0] for ln in lines[2:]]
    assert combos == ["id_only", "ood_only", "id_ood", "full"]
    # each row is what `run --mode auto` reports with that combo's weights
    cfg = from_text(cfg_path.read_text())
    for combo, row in zip(combos, lines[2:]):
        path = cfg_path.with_name(f"{combo}.cfg")
        path.write_text(to_text(cli._ablation_overrides(cfg, combo)), encoding="ascii")
        assert main(["--config", str(path), "run", "--mode", "auto"]) == 0
        rep = json.loads((out / "auto_metrics.json").read_text())
        assert row == f"{combo},{rep['fpr95']:.17g},{rep['auroc']:.17g},{rep['id_acc']:.17g}"


@pytest.mark.parametrize("command", [["ablate"], ["sweep", "--param", "k2", "--values", "1,2,3"],
                                     ["sweep", "--param", "kappa", "--values", "0.5,0.3,0.5"]])
def test_ablate_and_sweep_load_and_draw_once(pretrained, monkeypatch, command):
    """One checkpoint load, one scenario draw, and one stream per distinct
    setting of the stream keys."""
    cfg_path, out = pretrained
    calls = {"load_checkpoint": 0, "make_scenario": 0, "_make_stream": 0}
    for module, name in ((nn, "load_checkpoint"), (data, "make_scenario"), (cli, "_make_stream")):
        def counted(*args, _original=getattr(module, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    assert main(["--config", str(cfg_path), *command]) == 0
    composed = 2 if "kappa" in command else 1
    assert calls == {"load_checkpoint": 1, "make_scenario": 1, "_make_stream": composed}
    if "kappa" in command:
        rows = (out / "sweep_kappa.csv").read_text().splitlines()[2:]
        assert rows[0] == rows[2] != rows[1]


def test_sweep_rows_do_not_depend_on_value_order(pretrained, capsys):
    """Each replay starts from the checkpoint's weights and the same scenario,
    whatever ran before it."""
    cfg_path, out = pretrained
    capsys.readouterr()
    rows, printed = {}, {}
    for values in ("1,3", "3,1", " 1, 3"):
        assert main(["--config", str(cfg_path), "sweep", "--param", "k2",
                     "--values", values]) == 0
        rows[values] = (out / "sweep_k2.csv").read_bytes()
        printed[values] = capsys.readouterr().out
    assert rows["3,1"].splitlines()[2:] == rows["1,3"].splitlines()[2:][::-1]
    # blanks around a value are not part of it: they used to reach the value
    # column and the printed line (`sweep k2= 3`)
    assert rows[" 1, 3"] == rows["1,3"]
    assert printed[" 1, 3"] == printed["1,3"]


def test_sweep_rows_and_unknown_param(pretrained):
    cfg_path, out = pretrained
    assert main(["--config", str(cfg_path), "sweep",
                 "--param", "iters_T", "--values", "0,1,2"]) == 0
    lines = (out / "sweep_iters_T.csv").read_text().splitlines()
    assert lines[1] == "param,value,fpr95,auroc,id_acc"
    assert [ln.split(",")[1] for ln in lines[2:]] == ["0", "1", "2"]
    assert main(["--config", str(cfg_path), "sweep",
                 "--param", "nonsense", "--values", "1"]) == 1


def test_sweep_kappa_row_structure(pretrained):
    cfg_path, out = pretrained
    assert main(["--config", str(cfg_path), "sweep", "--param", "kappa",
                 "--values", "0.9,0.7,0.5,0.3,0.1"]) == 0
    lines = (out / "sweep_kappa.csv").read_text().splitlines()
    assert [ln.split(",")[1] for ln in lines[2:]] == ["0.9", "0.7", "0.5", "0.3", "0.1"]


def test_sweep_trainable_groups(pretrained):
    cfg_path, out = pretrained
    assert main(["--config", str(cfg_path), "sweep", "--param", "trainable_groups",
                 "--values", "block1,block2,fc,block1+block2"]) == 0
    lines = (out / "sweep_trainable_groups.csv").read_text().splitlines()
    assert len(lines) == 2 + 4


def test_sweep_unknown_group_fails_before_any_replay(pretrained, capsys):
    cfg_path, out = pretrained
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "sweep", "--param", "trainable_groups",
                 "--values", "block1,bogus"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unknown parameter groups ['bogus']")
    assert captured.err.count("\n") == 1
    assert "sweep" not in captured.out
    assert list(out.glob("sweep_*.csv")) == []


def test_key_set_twice_fails_with_one_line(tmp_path, capsys):
    text = to_text(RunConfig(**SMALL_OVERRIDES, out_dir=str(tmp_path / "out")))
    [first] = [i for i, ln in enumerate(text.splitlines(), start=1)
               if ln.startswith("scenario.kappa = ")]
    path = tmp_path / "twice.cfg"
    path.write_text(text + "scenario.kappa = 0.9\n", encoding="ascii")
    last = len(text.splitlines()) + 1
    for command in (["pretrain"], ["run", "--mode", "auto"]):
        assert main(["--config", str(path), *command]) == 1
        assert capsys.readouterr().err == (f"error: config error: key 'scenario.kappa' set "
                                           f"twice, on lines {first} and {last}\n")
    assert not (tmp_path / "out").exists()


def test_out_override_redirects_outputs(tmp_path):
    cfg_path = write_config(tmp_path, out_dir=str(tmp_path / "ignored"))
    alt = tmp_path / "elsewhere"
    assert main(["--config", str(cfg_path), "--out", str(alt), "pretrain"]) == 0
    assert (alt / "model.ckpt").exists()
    assert not (tmp_path / "ignored").exists()


def test_seed_override_changes_stream(pretrained):
    """``--seed`` changes the training data too, so it needs its own pretrain."""
    cfg_path, out = pretrained
    assert main(["--config", str(cfg_path), "run", "--mode", "frozen"]) == 0
    first = (out / "frozen_events.csv").read_bytes()
    assert main(["--config", str(cfg_path), "--seed", "999", "pretrain"]) == 0
    assert main(["--config", str(cfg_path), "--seed", "999", "run",
                 "--mode", "frozen"]) == 0
    assert (out / "frozen_events.csv").read_bytes() != first


def test_sweep_bad_value_fails_with_one_line(tmp_path, capsys):
    cfg_path = write_config(tmp_path, out_dir=str(tmp_path / "out"))
    assert main(["--config", str(cfg_path), "sweep", "--param", "iters_T",
                 "--values", "x"]) == 1
    assert capsys.readouterr().err == "error: bad value 'x' for sweep parameter iters_T\n"


@pytest.mark.parametrize("param,values,key", [("k2", "1,-1", "auto.k2"),
                                              ("kappa", "0.5,1.5", "scenario.kappa")])
def test_out_of_range_sweep_value_fails_before_any_replay(pretrained, capsys, param,
                                                           values, key):
    cfg_path, out = pretrained
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "sweep", "--param", param,
                 "--values", values]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {key} = ") and captured.err.count("\n") == 1
    assert "out of range" in captured.err
    assert "sweep" not in captured.out
    assert list(out.glob("sweep_*.csv")) == []


def test_sweep_value_without_id_arrivals_fails_before_any_replay(pretrained, capsys):
    """``kappa = 0`` loads but composes an all-OOD stream. The sweep used to
    replay 0.5, print its line, then fail on 0 and write no CSV."""
    cfg_path, out = pretrained
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "sweep", "--param", "kappa",
                 "--values", "0.5,0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: the composed stream holds 0 ID and 250 OOD arrivals, but a run needs at least "
        "one of each; scenario.kappa, scenario.test_id_n and scenario.ood_n set the mix\n")
    assert "sweep kappa=0.5" not in captured.out
    assert not (out / "sweep_kappa.csv").exists()


def test_ablation_combos_keep_their_weights_and_zero_the_rest():
    cfg = RunConfig(id_weight=0.5, lambda1=2.0, lambda2=0.3)
    kept = {"id_only": {"id_weight"}, "ood_only": {"lambda1"},
            "id_ood": {"id_weight", "lambda1"}, "full": {"id_weight", "lambda1", "lambda2"}}
    assert list(cli.ABLATION_COMBOS) == list(kept)
    for combo, weights in kept.items():
        ov = cli._ablation_overrides(cfg, combo)
        for w in ("id_weight", "lambda1", "lambda2"):
            assert getattr(ov, w) == (getattr(cfg, w) if w in weights else 0.0)


def test_canonical_msp_run_writes_nothing_to_stderr(canonical_cli):
    # `run` in both modes, `ablate` and `sweep` on the canonical config
    assert canonical_cli["stderr"] == ""
    assert canonical_cli["warnings"] == []


def metrics_line(label: str, fpr95: float, auroc: float, id_acc: float) -> str:
    return f"{label}: fpr95={fpr95:.4f} auroc={auroc:.4f} id_acc={id_acc:.4f}"


@pytest.mark.parametrize("command", CANONICAL_CLI_COMMANDS)
def test_canonical_commands_print_the_metrics_they_write(canonical_cli, command):
    """Each printed line is its file's metrics at four decimals: ``run``'s
    metrics JSON, or the rows of ``ablate``'s and ``sweep``'s CSV in order."""
    out = canonical_cli["out"]
    if command.startswith("run"):
        mode = command.split()[-1]
        rep = json.loads((out / f"{mode}_metrics.json").read_text())
        expected = [metrics_line(mode, rep["fpr95"], rep["auroc"], rep["id_acc"])]
    else:
        name, label = (("ablation.csv", "ablate {}") if command == "ablate"
                       else ("sweep_k2.csv", "sweep k2={}"))
        rows = [row.split(",") for row in (out / name).read_text().splitlines()[2:]]
        expected = [metrics_line(label.format(row[-4]), *map(float, row[-3:])) for row in rows]
        assert len(expected) == (4 if command == "ablate" else 2)
    assert canonical_cli["stdout"][command].splitlines() == expected


def test_auto_run_without_updates_warns_once(canonical_out, tmp_path, capsys):
    # msp is never below 1 / classes; k2 = 1000 puts m_out under that floor,
    # so no arrival is pseudo-OOD and no update episode ever runs
    path = tmp_path / "k2.cfg"
    path.write_text(to_text(RunConfig(k2=1000.0, out_dir=str(canonical_out))),
                    encoding="ascii")
    capsys.readouterr()
    assert main(["--config", str(path), "run", "--mode", "auto"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: ") and err.count("\n") == 1
    assert "auto.k2 = 1000.0" in err
    assert float(err.partition("final m_out = ")[2].partition(")")[0]) < 1 / 3
    rep = json.loads((canonical_out / "auto_metrics.json").read_text())
    assert rep["counts"]["updates"] == 0
    # frozen mode never adapts by design and says nothing
    assert main(["--config", str(path), "run", "--mode", "frozen"]) == 0
    assert capsys.readouterr().err == ""


def test_table_warning_names_its_row(pretrained, capsys):
    # k2 = 1000 puts m_out under msp's 1 / classes floor, so only that row of
    # the sweep never adapts; with stdout redirected, its label places it
    cfg_path, _ = pretrained
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "sweep", "--param", "k2",
                 "--values", "3,1000"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: sweep k2=1000: no arrival scored below the outlier "
                             "margin, so the model never adapted (auto.k2 = 1000.0, ")
