"""Declarative experiment configuration.

The on-disk format is a flat, diff-friendly ``key = value`` text file with
dotted section prefixes (``scenario.*``, ``pretrain.*``, ``auto.*``,
``sgd.*``, ``output.*``). Every key has a documented default; floats are
written with 17 significant digits so a config round-trips losslessly.
Lines starting with ``#`` are comments.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import Field, dataclass, field, fields

from .data import CANONICAL_OOD_SOURCES, OOD_KINDS, GaussianSource, check_sources


class ConfigError(Exception):
    """Bad key, bad value, or missing required section."""


# Range rules, ``(test, text)``; each test is written so that NaN fails it.
_GE0 = (lambda v: v >= 0, ">= 0")
_GE1 = (lambda v: v >= 1, ">= 1")
_GT0 = (lambda v: v > 0, "> 0")


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one experiment.

    Each field but ``ood_sources`` is one config key, declared once: its
    ``metadata["key"]`` names it in the file, its default is the key's
    default, its annotation the value's type, and ``metadata["rule"]``, if
    any, is the range rule the loader holds it to. Field order is file
    order; ``ood_sources`` is written as the ``scenario.ood*`` block, whose
    keys are the fields of each source's class (``data.OOD_KINDS``).
    ``metadata["stream"]`` marks the keys that only compose the stream, and
    ``metadata["hashed"] = False`` the key the config hash leaves out.
    Frozen: ``dataclasses.replace`` builds a changed copy, checked again.
    """

    # scenario
    dim: int = field(default=2, metadata={"key": "scenario.dim", "rule": _GE1})
    classes: int = field(default=3, metadata={
        "key": "scenario.classes", "rule": (lambda v: v >= 2, ">= 2")})
    mean_radius: float = field(default=1.0, metadata={"key": "scenario.mean_radius"})
    id_spread: float = field(default=0.25, metadata={"key": "scenario.id_spread", "rule": _GT0})
    train_n: int = field(default=450, metadata={"key": "scenario.train_n", "rule": _GE1})
    test_id_n: int = field(default=4000, metadata={"key": "scenario.test_id_n", "rule": _GE1})
    ood_n: int = field(default=4000, metadata={"key": "scenario.ood_n", "rule": _GE1})
    seed: int = field(default=20240611, metadata={"key": "scenario.seed", "rule": _GE0})
    stream: str = field(default="single", metadata={
        "key": "scenario.stream", "stream": True, "rule": (
            lambda v: v in ("single", "mixed", "timeseries"), "one of single, mixed, timeseries")})
    kappa: float = field(default=0.5, metadata={
        "key": "scenario.kappa", "stream": True, "rule": (lambda v: 0.0 <= v < 1.0, "in [0, 1)")})
    stream_seed: int = field(default=77, metadata={
        "key": "scenario.stream_seed", "stream": True, "rule": _GE0})
    ood_sources: tuple[GaussianSource, ...] = ()
    # pretrain
    hidden: tuple[int, ...] = field(default=(128, 128), metadata={
        "key": "pretrain.hidden", "rule": (lambda v: bool(v) and min(v) >= 1,
                                           "list one or more widths, each >= 1")})
    epochs: int = field(default=200, metadata={"key": "pretrain.epochs", "rule": _GE0})
    batch_size: int = field(default=32, metadata={"key": "pretrain.batch_size", "rule": _GE1})
    pretrain_lr: float = field(default=0.05, metadata={"key": "pretrain.lr", "rule": _GT0})
    init_seed: int = field(default=1, metadata={"key": "pretrain.init_seed", "rule": _GE0})
    shuffle_seed: int = field(default=2, metadata={"key": "pretrain.shuffle_seed", "rule": _GE0})
    # auto
    lambda1: float = field(default=1.0, metadata={"key": "auto.lambda1", "rule": _GE0})
    lambda2: float = field(default=0.1, metadata={"key": "auto.lambda2", "rule": _GE0})
    phi: float = field(default=0.2, metadata={"key": "auto.phi"})
    iters_t: int = field(default=2, metadata={"key": "auto.iters_T", "rule": _GE0})
    id_weight: float = field(default=1.0, metadata={"key": "auto.id_weight", "rule": _GE0})
    k1: float = field(default=0.0, metadata={"key": "auto.k1", "rule": _GE0})
    k2: float = field(default=3.0, metadata={"key": "auto.k2", "rule": _GE0})
    stats_subsample_n: int = field(default=0, metadata={
        "key": "auto.stats_subsample_n", "rule": _GE0})
    memory_seed: int = field(default=0, metadata={"key": "auto.memory_seed", "rule": _GE0})
    # sgd (online updates)
    lr: float = field(default=0.001, metadata={"key": "sgd.lr", "rule": _GT0})
    trainable_groups: str = field(default="last_block", metadata={"key": "sgd.trainable_groups"})
    # output
    out_dir: str = field(default="out", metadata={"key": "output.dir", "hashed": False})

    def __post_init__(self) -> None:
        if not self.ood_sources:
            # the canonical sources lie in the default scenario.dim
            if self.dim >= 1 and self.dim != RunConfig.dim:
                raise ConfigError(
                    f"scenario.dim = {self.dim}, but the canonical OOD sources are "
                    f"{RunConfig.dim}-D: a config of another scenario.dim must set "
                    "scenario.ood_count and its own scenario.oodK.* keys")
            object.__setattr__(self, "ood_sources", CANONICAL_OOD_SOURCES)
        for f in fields(self):
            value = getattr(self, f.name)
            test, rule = f.metadata.get("rule", (None, None))
            if f.type == "float" and not math.isfinite(value):
                rule = "finite"
            elif test is None or test(value):
                continue
            shown = _fmt_value(value, f.type) if f.type == _INT_LIST else repr(value)
            raise ConfigError(f"{f.metadata['key']} = {shown} is out of range: it must be {rule}")
        # The groups must name layers of the model `pretrain` builds from these dims.
        trainable_layers(self.trainable_groups, len(self.hidden) + 1)
        # train_n is split evenly across classes, so each class gets a row
        if self.train_n < self.classes:
            raise ConfigError(f"scenario.train_n = {self.train_n!r} is out of range: "
                              f"it must be >= scenario.classes ({self.classes})")
        try:
            check_sources(self.ood_sources, self.dim)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # a time series splits test_id_n evenly across its segments, one per
        # OOD source, so each segment gets an ID row
        segments = len(self.ood_sources)
        if self.stream == "timeseries" and self.test_id_n < segments:
            raise ConfigError(f"scenario.test_id_n = {self.test_id_n!r} is out of range: it "
                              f"must be >= the timeseries stream's {segments} segments")

    # -- derived objects ----------------------------------------------------

    def layer_dims(self) -> list[int]:
        return [self.dim, *self.hidden, self.classes]


def trainable_layers(groups: str, num_layers: int) -> tuple[bool, ...]:
    """The mask of the layers that ``sgd.trainable_groups`` = ``groups`` trains
    in a ``num_layers``-layer model: ``none``, ``all``, ``last_block`` or
    ``+``-joined names, hidden layer k ``blockK`` and the output layer ``fc``."""
    names = [f"block{k}" for k in range(1, num_layers)] + ["fc"]
    groups = groups.strip()
    if groups in ("none", "all"):
        return (groups == "all",) * num_layers
    if groups == "last_block":
        if num_layers < 2:
            raise ValueError("model has no hidden layer")
        groups = names[-2]
    named = {name.strip() for name in groups.split("+")}
    unknown = named - set(names)
    if unknown:
        raise ConfigError(f"unknown parameter groups {sorted(unknown)} in "
                          f"sgd.trainable_groups; the model has {names}")
    return tuple(name in named for name in names)


# ---------------------------------------------------------------------------
# serialization

# The comma-list annotations: ``pretrain.hidden``, and a source's coordinates.
_INT_LIST = "tuple[int, ...]"
_FLOAT_LIST = "tuple[float, ...]"

# config key -> its RunConfig field
_FIELDS = {f.metadata["key"]: f for f in fields(RunConfig) if "key" in f.metadata}

# Keys of removed options, each mapped to the one value that still loads:
# older config files set them so. They are never written back.
REMOVED_KEYS = {
    "pretrain.momentum": 0.0, "sgd.momentum": 0.0, "auto.lambda2_decay": 0.0,
    "auto.id_loss_reduction": "sum", "auto.margin_literal_m0": False,
    "auto.memory_mode": "random", "auto.score": "msp", "auto.energy_temperature": 1.0,
    "pretrain.weight_decay": 0.0, "sgd.weight_decay": 0.0,
}


def _fmt_float(v: float) -> str:
    return f"{v:.17g}"


def _fmt_value(value, typ: str) -> str:
    if typ == "bool":
        return "true" if value else "false"
    if typ == "float":
        return _fmt_float(value)
    if typ == _INT_LIST:
        return ",".join(map(str, value))
    if typ == _FLOAT_LIST:
        return ",".join(map(_fmt_float, value))
    return str(value)


def _parse_value(raw: str, typ: str, key: str):
    raw = raw.strip()
    try:
        if typ == "int":
            return int(raw)
        if typ == "float":
            return float(raw)
        if typ == _INT_LIST:
            return tuple(int(t) for t in raw.split(","))
        if typ == _FLOAT_LIST:
            return tuple(float(t) for t in raw.split(","))
        if typ == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError as exc:
        what = {_INT_LIST: "hidden dims", _FLOAT_LIST: "float list"}.get(typ, "value")
        raise ConfigError(f"bad {what} {raw!r} for key {key}") from exc


def parse_setting(key: str, raw: str) -> dict:
    """``{attribute: value}`` for the line ``key = raw``, parsed by the type
    of the key's field; ConfigError for an unknown key or a value that does
    not parse. Range rules are checked when the config is built."""
    if key not in _FIELDS:
        raise ConfigError(f"unknown config key {key!r}")
    f = _FIELDS[key]
    return {f.name: _parse_value(raw, f.type, key)}


def _lines(cfg: RunConfig) -> list[tuple[Field, str]]:
    """Each line of the canonical text, with the field it spells out."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if "key" in f.metadata:
            lines.append((f, f"{f.metadata['key']} = {_fmt_value(value, f.type)}"))
            continue
        lines.append((f, f"scenario.ood_count = {len(value)}"))
        for i, src in enumerate(value, start=1):
            lines.append((f, f"scenario.ood{i}.kind = {src.kind}"))
            lines += [(f, f"scenario.ood{i}.{g.name} = {_fmt_value(getattr(src, g.name), g.type)}")
                      for g in fields(src)]
    return lines


def from_text(text: str) -> RunConfig:
    """Parse a config file; unknown keys raise ConfigError naming the key,
    and so does a removed key set to anything but its ``REMOVED_KEYS`` value.

    Every command draws its scenario from the file, so a file must spell out
    at least one ``scenario.*`` key, and no key may be set twice.
    """
    values: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in key_lines:
            raise ConfigError(f"key {key!r} set twice, on lines {key_lines[key]} and {lineno}")
        key_lines[key] = lineno
        values[key] = raw.strip()

    kwargs: dict = {}
    if "scenario.ood_count" in values:
        kwargs["ood_sources"] = _pop_sources(values)
    for key, raw in values.items():
        if key in REMOVED_KEYS:
            kept = REMOVED_KEYS[key]
            typ = type(kept).__name__
            value = _parse_value(raw, typ, key)
            if value != kept:  # NaN included
                raise ConfigError(f"{key} = {value!r} is out of range: {key.partition('.')[2]} "
                                  f"was removed, so it must be {_fmt_value(kept, typ)}")
            continue
        kwargs.update(parse_setting(key, raw))
    if not any(key.startswith("scenario.") for key in key_lines):
        raise ConfigError("missing required section 'scenario' in config file")
    return RunConfig(**kwargs)


def _pop_sources(values: dict[str, str]) -> tuple[GaussianSource, ...]:
    """The sources ``scenario.ood1`` ... ``scenario.ood{ood_count}``, their
    keys taken out of ``values``; a source key left behind is unknown."""
    count = _parse_value(values.pop("scenario.ood_count"), "int", "scenario.ood_count")
    if count < 1:
        raise ConfigError(f"scenario.ood_count = {count} is out of range: it must be >= 1")
    sources = []
    for i in range(1, count + 1):
        key = f"scenario.ood{i}.kind"
        if key not in values:
            raise ConfigError(f"missing config key {key!r}: scenario.ood_count = {count}")
        kind = values.pop(key)
        if kind not in OOD_KINDS:
            raise ConfigError(f"{key} = {kind!r} is out of range: it must be one of "
                              + ", ".join(OOD_KINDS))
        cls = OOD_KINDS[kind]
        args = {}
        for f in fields(cls):
            key = f"scenario.ood{i}.{f.name}"
            if key not in values:
                raise ConfigError(f"missing config key {key!r}: a {kind} source sets "
                                  + ", ".join(g.name for g in fields(cls)))
            args[f.name] = _parse_value(values.pop(key), f.type, key)
        sources.append(cls(**args))
    key = f"scenario.ood{count + 1}.kind"
    if key in values:
        raise ConfigError(f"unknown config key {key!r}: scenario.ood_count = {count}")
    return tuple(sources)


def _digest(lines) -> str:
    return hashlib.sha256("".join(f"{line}\n" for line in lines).encode("ascii")).hexdigest()[:12]


def config_hash(cfg: RunConfig) -> str:
    """Short provenance hash of the canonical config text. ``output.dir`` is
    left out: where a run writes its files does not change what they hold."""
    return _digest(line for f, line in _lines(cfg) if f.metadata.get("hashed", True))


def pretrain_hash(cfg: RunConfig) -> str:
    """Short hash of the keys that shape pretraining: the ``scenario.*``
    and ``pretrain.*`` lines of the canonical config text, without the keys
    that only compose the stream. A checkpoint records it, and a replay
    under a config with another hash refuses that checkpoint."""
    return _digest(line for f, line in _lines(cfg)
                   if line.startswith(("scenario.", "pretrain.")) and not f.metadata.get("stream"))
