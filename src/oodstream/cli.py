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
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import data, engine, metrics, nn, runconfig, svgplot
from .runconfig import ConfigError, RunConfig

EVENT_COLUMNS = "t,score,prediction,decision,is_ood_truth,label_truth,m_out"
# Events CSV rows formatted and written at a time: the writer never holds the
# whole file text, only one chunk's lines.
EVENTS_CHUNK_ROWS = 1024
CHECKPOINT_NAME = "model.ckpt"
# the config keys that compose the stream; replays equal on them share one
STREAM_FIELDS = tuple(f.name for f in fields(RunConfig) if f.metadata.get("stream"))

# the swept config keys; a sweep parameter is named by the last part of its key
SWEEP_PARAMS = ("auto.lambda2", "auto.phi", "scenario.kappa", "auto.iters_T",
                "sgd.trainable_groups", "auto.k1", "auto.k2", "auto.stats_subsample_n")

# ablation combo -> the objective weights it keeps; the others are set to 0.0
OBJECTIVE_WEIGHTS = ("id_weight", "lambda1", "lambda2")
ABLATION_COMBOS = {"id_only": ("id_weight",), "ood_only": ("lambda1",),
                   "id_ood": ("id_weight", "lambda1"), "full": OBJECTIVE_WEIGHTS}


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
        if args.seed < 0:
            raise CliError(f"--seed = {args.seed} is out of range: it must be >= 0")
        cfg = replace(cfg, seed=args.seed, stream_seed=args.seed + 1)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def _out_dir(cfg: RunConfig) -> Path:
    """The output directory, created on first use; only writers call this."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _make_stream(cfg: RunConfig, test_id: data.LabeledSet,
                 oods: list[np.ndarray]) -> data.Stream:
    """Compose the stream ``cfg`` names; one with no ID or no OOD arrival is refused."""
    if cfg.stream == "single":
        stream = data.compose_stream(test_id, oods[0], cfg.kappa, cfg.stream_seed)
    elif cfg.stream == "mixed":
        stream = data.compose_mixed(test_id, oods, cfg.kappa, cfg.stream_seed)
    else:
        stream = data.compose_timeseries(test_id, oods, cfg.kappa, cfg.stream_seed)
    if stream.is_ood.all() or not stream.is_ood.any():
        ood = int(np.count_nonzero(stream.is_ood))
        raise CliError(f"the composed stream holds {len(stream) - ood} ID and {ood} OOD "
                       "arrivals, but a run needs at least one of each; scenario.kappa, "
                       "scenario.test_id_n and scenario.ood_n set the mix")
    return stream


def _prepare(cfg: RunConfig, *replays: RunConfig) -> tuple:
    """``(model, train, stream, ...)``: load the checkpoint, draw the scenario,
    and compose the stream of each of ``replays`` (of ``cfg`` when none is
    given), so that every stream is checked before the first replay. Replays
    that agree on every stream key share one stream. No swept or ablated key
    changes the checkpoint or the scenario.

    The checkpoint must carry the config's pretrain hash: the scenario and
    pretraining keys it was trained under, the stream keys aside.
    """
    ckpt = Path(cfg.out_dir) / CHECKPOINT_NAME
    if not ckpt.exists():
        raise CliError(f"checkpoint not found: {ckpt} (run `pretrain` first)")
    model, saved = nn.load_checkpoint(ckpt)
    expected = runconfig.pretrain_hash(cfg)
    if saved != expected:
        raise CliError(f"checkpoint {ckpt} was pretrained under pretrain hash {saved}, but the "
                       f"config has pretrain hash {expected} (run `pretrain` again)")
    train, test_id, oods = data.make_scenario(cfg)
    streams, keys = {}, []
    for c in replays or (cfg,):
        keys.append(tuple(getattr(c, name) for name in STREAM_FIELDS))
        if keys[-1] not in streams:
            streams[keys[-1]] = _make_stream(c, test_id, oods)
    return (model, train, *(streams[key] for key in keys))


def _replay(cfg: RunConfig, mode: str, model: nn.MlpModel, train: data.LabeledSet,
            stream: data.Stream, lead: str = "warning"
            ) -> tuple[engine.EventLog, engine.AutoState]:
    """Replay a stream from ``_prepare``; `auto` mode adapts ``model`` in place.
    A table command's ``lead`` names the row in the warning line."""
    # Non-finite logits and losses raise with the stream index, so numpy's
    # overflow warnings on the way there would only repeat the error.
    with np.errstate(over="ignore", invalid="ignore"):
        state = engine.init_state(model, train, cfg)
        if mode == "frozen":
            log = engine.run_posthoc(model, state.margins, stream)
        else:
            log = engine.run_stream(state, cfg, stream)
    if mode == "auto" and log.counts.updates == 0:
        print(f"{lead}: no arrival scored below the outlier margin, so the model never "
              f"adapted (auto.k2 = {cfg.k2!r}, final m_out = "
              f"{state.margins.m_out!r}); a smaller auto.k2 raises m_out", file=sys.stderr)
    return log, state


def _write_events_csv(path: Path, log: engine.EventLog, chash: str) -> None:
    """One ``%d,%.17g,%d,%s,%d,%d,%.17g`` row per arrival, written
    ``EVENTS_CHUNK_ROWS`` rows at a time. A stream holds few distinct
    prediction/decision/is_ood/label combinations, and m_out moves only at
    episodes, so each distinct value of those is formatted once."""
    n = len(log)
    # One integer per distinct (prediction, label, decision, is_ood); labels
    # start at -1, so label + 1 < span.
    span = max(int(log.prediction.max(initial=0)), int(log.label.max(initial=0))) + 2
    key = ((log.prediction * span + log.label + 1) * len(engine.DECISIONS)
           + log.decision) * 2 + log.is_ood
    # canonical logs: 10-15 ms as written, 13-17 ms without this table, 17-25 ms per-row format
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    combos = np.array([f"{p},{engine.DECISIONS[d].value},{o:d},{y}" for p, d, o, y in zip(
        *(column[first].tolist() for column in (log.prediction, log.decision, log.is_ood,
                                                log.label)))], dtype=object)
    # Runs of equal m_out bits (so 0.0 and -0.0 stay apart).
    bits = log.m_out.view(np.int64)
    changed = np.ones(n, dtype=bool)
    changed[1:] = bits[1:] != bits[:-1]
    m_outs = np.array(["%.17g" % v for v in log.m_out[changed].tolist()], dtype=object)
    run_of_row = np.cumsum(changed) - 1
    with path.open("w", encoding="ascii") as file:
        file.write(f"# config_hash={chash}\n{EVENT_COLUMNS}\n")
        for lo in range(0, n, EVENTS_CHUNK_ROWS):
            rows = slice(lo, lo + EVENTS_CHUNK_ROWS)
            file.write("".join(map("%d,%.17g,%s,%s\n".__mod__, zip(
                range(lo, n), log.score[rows].tolist(), combos[inverse[rows]].tolist(),
                m_outs[run_of_row[rows]].tolist()))))


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="ascii")


def cmd_pretrain(cfg: RunConfig) -> None:
    train, test_id, _ = data.make_scenario(cfg)
    model = nn.init_mlp(cfg.layer_dims(), seed=cfg.init_seed)
    # A diverging run raises once an epoch ends, so numpy's overflow warnings
    # on the way there would only repeat the error.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            nn.train_offline(model, train, cfg.epochs, cfg.batch_size, cfg.pretrain_lr,
                             seed=cfg.shuffle_seed)
        except FloatingPointError as exc:
            raise CliError(f"{exc}; pretrain.lr = {cfg.pretrain_lr!r} may be too large") from exc
    out = _out_dir(cfg)
    nn.save_checkpoint(model, out / CHECKPOINT_NAME, runconfig.pretrain_hash(cfg))
    summary = {
        "config_hash": runconfig.config_hash(cfg),
        "epochs": cfg.epochs,
        "train_accuracy": nn.accuracy(model, train.features, train.labels),
        "test_id_accuracy": nn.accuracy(model, test_id.features, test_id.labels),
        "checkpoint": CHECKPOINT_NAME,
    }
    _write_json(out / "pretrain_summary.json", summary)
    print(f"pretrain: train_acc={summary['train_accuracy']:.4f} "
          f"test_acc={summary['test_id_accuracy']:.4f} -> {out / CHECKPOINT_NAME}")


def cmd_run(cfg: RunConfig, mode: str, plot: bool) -> None:
    log, state = _replay(cfg, mode, *_prepare(cfg))
    out = _out_dir(cfg)
    chash = runconfig.config_hash(cfg)
    rep = metrics.report(log)
    _write_events_csv(out / f"{mode}_events.csv", log, chash)
    _write_json(out / f"{mode}_metrics.json",
                {"config_hash": chash, "mode": mode, **asdict(rep), "counts": asdict(log.counts)})
    if plot:
        svgplot.emit_score_plot(out / f"{mode}_scores.svg", log,
                                m_in=state.margins.m_in,
                                header_comment=f"config_hash={chash}")
    print(f"{mode}: fpr95={rep.fpr95:.4f} auroc={rep.auroc:.4f} id_acc={rep.id_acc:.4f}")


def _ablation_overrides(cfg: RunConfig, combo: str) -> RunConfig:
    """Objective combinations: update episodes always fire on pseudo-OOD
    arrivals; the combo decides which terms carry weight."""
    kept = ABLATION_COMBOS[combo]
    return replace(cfg, **{w: 0.0 for w in OBJECTIVE_WEIGHTS if w not in kept})


def _replay_table(cfg: RunConfig, name: str, comment: str, columns: str, rows: list) -> None:
    """Replay each ``(cells, label, config)`` row in auto mode, every stream checked first;
    write its metrics after ``cells`` to the CSV ``name`` and print them after ``label``."""
    model, train, *streams = _prepare(cfg, *(row_cfg for _, _, row_cfg in rows))
    lines = [f"# config_hash={runconfig.config_hash(cfg)}{comment}",
             f"{columns},fpr95,auroc,id_acc"]
    for (cells, label, row_cfg), stream in zip(rows, streams):
        log, _ = _replay(row_cfg, "auto", nn.clone_frozen(model), train, stream,
                         f"warning: {label}")
        rep = metrics.report(log)
        lines.append(f"{cells},{rep.fpr95:.17g},{rep.auroc:.17g},{rep.id_acc:.17g}")
        print(f"{label}: fpr95={rep.fpr95:.4f} auroc={rep.auroc:.4f} id_acc={rep.id_acc:.4f}")
    (_out_dir(cfg) / name).write_text("\n".join(lines) + "\n", encoding="ascii")


def cmd_ablate(cfg: RunConfig) -> None:
    rows = [(c, f"ablate {c}", _ablation_overrides(cfg, c)) for c in ABLATION_COMBOS]
    _replay_table(cfg, "ablation.csv", "", "combo", rows)


def _apply_sweep_value(cfg: RunConfig, param: str, key: str, raw: str) -> RunConfig:
    """``cfg`` with one swept value; rebuilding it re-runs the load-time checks."""
    try:
        setting = runconfig.parse_setting(key, raw)
    except ConfigError as exc:
        raise CliError(f"bad value {raw!r} for sweep parameter {param}") from exc
    return replace(cfg, **setting)


def cmd_sweep(cfg: RunConfig, param: str, values: list[str]) -> None:
    keys = {key.rpartition(".")[2]: key for key in SWEEP_PARAMS}
    if param not in keys:
        raise CliError(f"unknown sweep parameter {param!r}; valid: {', '.join(keys)}")
    rows = [(f"{param},{raw}", f"sweep {param}={raw}",
             _apply_sweep_value(cfg, param, keys[param], raw)) for raw in values]
    _replay_table(cfg, f"sweep_{param}.csv", f" param={param}", "param,value", rows)


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
                         help="comma-separated values (use + to join group names, e.g. block1+fc)")
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
            cmd_sweep(cfg, args.param, [raw.strip() for raw in args.values.split(",")])
    except (CliError, ConfigError, FloatingPointError, nn.CheckpointError, ValueError,
            OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
