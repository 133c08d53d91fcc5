"""Command-line front end: files, determinism, exit codes.

Runs use a shrunken scenario so each CLI invocation stays fast; the pinned
canonical defaults are exercised by the acceptance suite.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from oodstream import nn
from oodstream.cli import main
from oodstream.runconfig import RunConfig, from_text, to_text

SMALL_OVERRIDES = dict(
    test_id_n=250,
    ood_n=250,
    train_n=150,
    hidden=(16, 16),
    epochs=60,
)


def write_config(tmp_path: Path, **overrides) -> Path:
    cfg = RunConfig(**{**SMALL_OVERRIDES, **overrides})
    path = tmp_path / "run.cfg"
    path.write_text(to_text(cfg), encoding="ascii")
    return path


@pytest.fixture()
def pretrained(tmp_path):
    cfg_path = write_config(tmp_path, out_dir=str(tmp_path / "out"))
    assert main(["--config", str(cfg_path), "pretrain"]) == 0
    return cfg_path, tmp_path / "out"


def test_pretrain_writes_checkpoint_and_summary(pretrained):
    cfg_path, out = pretrained
    assert (out / "model.ckpt").exists()
    summary = json.loads((out / "pretrain_summary.json").read_text())
    assert summary["epochs"] == 60
    model = nn.load_checkpoint(out / "model.ckpt")
    # reload reproduces the reported training accuracy
    cfg = from_text(cfg_path.read_text())
    from oodstream import data
    train, _, _ = data.make_scenario(cfg.scenario_spec())
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


@pytest.mark.parametrize("mode", ["auto", "frozen"])
def test_nonzero_sgd_momentum_fails_at_load(tmp_path, capsys, mode):
    text = to_text(RunConfig(**SMALL_OVERRIDES, out_dir=str(tmp_path / "out")))
    assert "sgd.momentum = 0\n" in text
    path = tmp_path / "momentum.cfg"
    path.write_text(text.replace("sgd.momentum = 0\n", "sgd.momentum = 0.9\n"),
                    encoding="ascii")
    assert main(["--config", str(path), "run", "--mode", mode]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "sgd.momentum" in err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("mode", ["auto", "frozen"])
def test_non_finite_arrival_fails_with_one_line(pretrained, capsys, mode):
    cfg_path, _ = pretrained
    text = cfg_path.read_text()
    center = [ln for ln in text.splitlines() if ln.startswith("scenario.ood1.center")]
    assert len(center) == 1
    cfg_path.write_text(text.replace(center[0], "scenario.ood1.center = 1.7e308,1.7e308"),
                        encoding="ascii")
    assert main(["--config", str(cfg_path), "run", "--mode", mode]) == 1
    err = capsys.readouterr().err
    assert err == "error: non-finite logits in forward pass\n"


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


def test_ablate_four_rows(pretrained):
    cfg_path, out = pretrained
    assert main(["--config", str(cfg_path), "ablate"]) == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[1] == "combo,fpr95,auroc,id_acc"
    combos = [ln.split(",")[0] for ln in lines[2:]]
    assert combos == ["id_only", "ood_only", "id_ood", "full"]


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


def test_out_override_redirects_outputs(tmp_path):
    cfg_path = write_config(tmp_path, out_dir=str(tmp_path / "ignored"))
    alt = tmp_path / "elsewhere"
    assert main(["--config", str(cfg_path), "--out", str(alt), "pretrain"]) == 0
    assert (alt / "model.ckpt").exists()
    assert not (tmp_path / "ignored").exists()


def test_seed_override_changes_stream(pretrained):
    cfg_path, out = pretrained
    assert main(["--config", str(cfg_path), "run", "--mode", "frozen"]) == 0
    first = (out / "frozen_events.csv").read_bytes()
    assert main(["--config", str(cfg_path), "--seed", "999", "run",
                 "--mode", "frozen"]) == 0
    assert (out / "frozen_events.csv").read_bytes() != first
