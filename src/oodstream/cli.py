"""Command-line front end.

Commands:
  pretrain   train the classifier on the scenario's ID data, save a checkpoint
  run        replay a composed stream in `auto` (adapting) or `frozen` mode
  ablate     run the four objective combinations on one stream
  sweep      run one parameter over a list of values, shared seed

Every command is deterministic given (config file, seed): re-runs produce
byte-identical outputs. Emitted CSV/SVG files carry the config hash in a
header comment; JSON carries it as a key.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import data, engine, metrics, nn, runconfig, svgplot
from .runconfig import ConfigError, RunConfig

EVENT_COLUMNS = "t,score,prediction,decision,is_ood_truth,label_truth,m_out"

SWEEP_PARAMS = ("lambda2", "phi", "kappa", "iters_T", "trainable_groups",
                "k1", "k2", "stats_subsample_n")

ABLATION_COMBOS = ("id_only", "ood_only", "id_ood", "full")


class CliError(Exception):
    """Fatal command error; message goes to stderr, exit status 1."""


def _load_config(args) -> RunConfig:
    path = Path(args.config)
    if not path.exists():
        raise CliError(f"config file not found: {path}")
    try:
        cfg = runconfig.from_text(path.read_text(encoding="ascii"))
    except ConfigError as exc:
        raise CliError(f"config error: {exc}") from exc
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.stream_seed = args.seed + 1
    if args.out is not None:
        cfg.out_dir = args.out
    return cfg


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _checkpoint_path(cfg: RunConfig) -> Path:
    return _out_dir(cfg) / "model.ckpt"


def _make_stream(cfg: RunConfig, test_id: data.LabeledSet,
                 ood_sets: list[data.LabeledSet]) -> data.Stream:
    if cfg.stream == "single":
        return data.compose_stream(test_id, ood_sets[0], cfg.kappa, cfg.stream_seed)
    if cfg.stream == "mixed":
        return data.compose_mixed(test_id, ood_sets, cfg.kappa, cfg.stream_seed)
    return data.compose_timeseries(test_id, ood_sets, cfg.kappa, cfg.stream_seed)


def _run_once(cfg: RunConfig, mode: str) -> tuple[engine.EventLog, engine.AutoState]:
    """Load checkpoint, compose the stream, and replay it in the given mode."""
    ckpt = _checkpoint_path(cfg)
    if not ckpt.exists():
        raise CliError(f"checkpoint not found: {ckpt} (run `pretrain` first)")
    model = nn.load_checkpoint(ckpt)
    train, test_id, ood_sets = data.make_scenario(cfg.scenario_spec())
    stream = _make_stream(cfg, test_id, ood_sets)
    auto_cfg = cfg.auto_config(model)
    state = engine.init_state(model, train, auto_cfg)
    if mode == "frozen":
        log = engine.run_posthoc(model, state.margins, stream, auto_cfg.score_kind,
                                 update_margins=False)
    else:
        log = engine.run_stream(state, auto_cfg, stream)
    return log, state


def _write_events_csv(path: Path, log: engine.EventLog, chash: str) -> None:
    lines = [f"# config_hash={chash}", EVENT_COLUMNS]
    for e in log.events:
        label = -1 if e.ground_truth_label is None else e.ground_truth_label
        lines.append(
            f"{e.index},{e.score_at_arrival:.17g},{e.prediction},{e.decision.value},"
            f"{int(e.ground_truth_is_ood)},{label},{e.m_out_after:.17g}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _write_metrics_json(path: Path, rep: metrics.MetricsReport, chash: str,
                        mode: str) -> None:
    path.write_text(metrics.report_to_json(rep, extra={"config_hash": chash, "mode": mode}),
                    encoding="ascii")


def cmd_pretrain(cfg: RunConfig) -> None:
    runconfig.require_section(cfg, "scenario")
    train, test_id, _ = data.make_scenario(cfg.scenario_spec())
    model = nn.init_mlp(cfg.layer_dims(), seed=cfg.init_seed)
    sgd = nn.SgdConfig(learning_rate=cfg.pretrain_lr,
                       weight_decay=cfg.pretrain_weight_decay,
                       momentum=cfg.pretrain_momentum)
    nn.train_offline(model, train, cfg.epochs, cfg.batch_size, sgd,
                     seed=cfg.shuffle_seed)
    out = _out_dir(cfg)
    nn.save_checkpoint(model, _checkpoint_path(cfg))
    summary = {
        "config_hash": runconfig.config_hash(cfg),
        "epochs": cfg.epochs,
        "train_accuracy": nn.accuracy(model, train.features, train.labels),
        "test_id_accuracy": nn.accuracy(model, test_id.features, test_id.labels),
        "checkpoint": str(_checkpoint_path(cfg)),
    }
    (out / "pretrain_summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="ascii")
    print(f"pretrain: train_acc={summary['train_accuracy']:.4f} "
          f"test_acc={summary['test_id_accuracy']:.4f} -> {summary['checkpoint']}")


def cmd_run(cfg: RunConfig, mode: str, plot: bool) -> None:
    runconfig.require_section(cfg, "scenario")
    if mode not in ("auto", "frozen"):
        raise CliError(f"unknown mode {mode!r}; expected auto or frozen")
    log, state = _run_once(cfg, mode)
    out = _out_dir(cfg)
    chash = runconfig.config_hash(cfg)
    rep = metrics.report(log)
    _write_events_csv(out / f"{mode}_events.csv", log, chash)
    _write_metrics_json(out / f"{mode}_metrics.json", rep, chash, mode)
    if plot:
        svgplot.emit_score_plot(out / f"{mode}_scores.svg", log,
                                m_in=state.margins.m_in,
                                header_comment=f"config_hash={chash}")
    print(f"{mode}: fpr95={rep.fpr95:.4f} auroc={rep.auroc:.4f} id_acc={rep.id_acc:.4f}")


def _ablation_overrides(cfg: RunConfig, combo: str) -> RunConfig:
    """Objective combinations: update episodes always fire on pseudo-OOD
    arrivals; the combo decides which terms carry weight."""
    ov = replace(cfg)
    if combo == "id_only":
        ov.id_weight, ov.lambda1, ov.lambda2 = cfg.id_weight, 0.0, 0.0
    elif combo == "ood_only":
        ov.id_weight, ov.lambda1, ov.lambda2 = 0.0, cfg.lambda1, 0.0
    elif combo == "id_ood":
        ov.id_weight, ov.lambda1, ov.lambda2 = cfg.id_weight, cfg.lambda1, 0.0
    elif combo == "full":
        ov.id_weight, ov.lambda1, ov.lambda2 = cfg.id_weight, cfg.lambda1, cfg.lambda2
    else:
        raise CliError(f"unknown ablation combo {combo}")
    return ov


def cmd_ablate(cfg: RunConfig) -> None:
    runconfig.require_section(cfg, "scenario")
    out = _out_dir(cfg)
    lines = [f"# config_hash={runconfig.config_hash(cfg)}", "combo,fpr95,auroc,id_acc"]
    for combo in ABLATION_COMBOS:
        log, _ = _run_once(_ablation_overrides(cfg, combo), "auto")
        rep = metrics.report(log)
        lines.append(f"{combo},{rep.fpr95:.17g},{rep.auroc:.17g},{rep.id_acc:.17g}")
        print(f"ablate {combo}: fpr95={rep.fpr95:.4f} auroc={rep.auroc:.4f} "
              f"id_acc={rep.id_acc:.4f}")
    (out / "ablation.csv").write_text("\n".join(lines) + "\n", encoding="ascii")


def _apply_sweep_value(cfg: RunConfig, param: str, raw: str) -> RunConfig:
    ov = replace(cfg)
    try:
        if param == "lambda2":
            ov.lambda2 = float(raw)
        elif param == "phi":
            ov.phi = float(raw)
        elif param == "kappa":
            ov.kappa = float(raw)
        elif param == "iters_T":
            ov.iters_t = int(raw)
        elif param == "trainable_groups":
            ov.trainable_groups = raw
        elif param == "k1":
            ov.k1 = float(raw)
        elif param == "k2":
            ov.k2 = float(raw)
        elif param == "stats_subsample_n":
            ov.stats_subsample_n = int(raw)
    except ValueError as exc:
        raise CliError(f"bad value {raw!r} for sweep parameter {param}") from exc
    return ov


def cmd_sweep(cfg: RunConfig, param: str, values: list[str]) -> None:
    if param not in SWEEP_PARAMS:
        raise CliError(f"unknown sweep parameter {param!r}; valid: {', '.join(SWEEP_PARAMS)}")
    runconfig.require_section(cfg, "scenario")
    out = _out_dir(cfg)
    lines = [f"# config_hash={runconfig.config_hash(cfg)} param={param}",
             "param,value,fpr95,auroc,id_acc"]
    for raw in values:
        log, _ = _run_once(_apply_sweep_value(cfg, param, raw), "auto")
        rep = metrics.report(log)
        lines.append(f"{param},{raw},{rep.fpr95:.17g},{rep.auroc:.17g},{rep.id_acc:.17g}")
        print(f"sweep {param}={raw}: fpr95={rep.fpr95:.4f} auroc={rep.auroc:.4f} "
              f"id_acc={rep.id_acc:.4f}")
    (out / f"sweep_{param}.csv").write_text("\n".join(lines) + "\n", encoding="ascii")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oodstream",
        description="Streaming OOD detection with online test-time adaptation.",
    )
    parser.add_argument("--config", required=True, help="path to a key=value config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override scenario.seed (stream seed becomes seed+1)")
    parser.add_argument("--out", default=None, help="override output.dir")
    parser.add_argument("--plot", action="store_true", help="also write SVG diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("pretrain", help="train the classifier and save a checkpoint")
    p_run = sub.add_parser("run", help="replay a stream")
    p_run.add_argument("--mode", choices=("auto", "frozen"), default="auto")
    sub.add_parser("ablate", help="run the four objective combinations")
    p_sweep = sub.add_parser("sweep", help="sweep one parameter over values")
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values (use + to join group names)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "pretrain":
            cmd_pretrain(cfg)
        elif args.command == "run":
            cmd_run(cfg, args.mode, args.plot)
        elif args.command == "ablate":
            cmd_ablate(cfg)
        elif args.command == "sweep":
            cmd_sweep(cfg, args.param, args.values.split(","))
    except (CliError, ConfigError, engine.NonFiniteLossError, FloatingPointError,
            nn.CheckpointError, data.DatasetFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
