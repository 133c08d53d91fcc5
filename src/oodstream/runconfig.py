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
from dataclasses import dataclass

from .data import (GaussianSource, OodSource, RingSource, ScenarioSpec,
                   UniformBoxSource, canonical_spec)
from .nn import MlpModel, default_group_labels, last_block_group
from .scoring import VALID_KINDS, kind_name


class ConfigError(Exception):
    """Bad key, bad value, or missing required section."""


def circle_means(num_classes: int, radius: float, dim: int) -> tuple[tuple[float, ...], ...]:
    """Class means evenly spaced on a circle in the first two dims (origin-
    centered line for dim = 1), matching the pinned canonical layout."""
    if dim == 1:
        return tuple((radius * (c - (num_classes - 1) / 2.0),) for c in range(num_classes))
    means = []
    for c in range(num_classes):
        a = math.pi / 2 + 2 * math.pi * c / num_classes
        means.append((radius * math.cos(a), radius * math.sin(a)) + (0.0,) * (dim - 2))
    return tuple(means)


@dataclass
class RunConfig:
    """Complete description of one experiment."""

    # scenario
    dim: int = 2
    classes: int = 3
    mean_radius: float = 1.0
    id_spread: float = 0.25
    train_n: int = 450
    test_id_n: int = 4000
    ood_n: int = 4000
    seed: int = 20240611
    stream: str = "single"
    kappa: float = 0.5
    stream_seed: int = 77
    ood_sources: tuple[OodSource, ...] = ()
    # pretrain
    hidden: tuple[int, ...] = (128, 128)
    epochs: int = 200
    batch_size: int = 32
    pretrain_lr: float = 0.05
    pretrain_weight_decay: float = 0.0
    init_seed: int = 1
    shuffle_seed: int = 2
    # auto
    lambda1: float = 1.0
    lambda2: float = 0.1
    phi: float = 0.2
    iters_t: int = 2
    score: str = "msp"
    energy_temperature: float = 1.0
    lambda2_decay: float = 0.0
    id_weight: float = 1.0
    id_loss_reduction: str = "sum"
    k1: float = 0.0
    k2: float = 3.0
    stats_subsample_n: int = 0
    margin_literal_m0: bool = False
    memory_mode: str = "random"
    memory_seed: int = 0
    # sgd (online updates)
    lr: float = 0.001
    weight_decay: float = 0.0
    trainable_groups: str = "last_block"
    # output
    out_dir: str = "out"

    def __post_init__(self) -> None:
        if not self.ood_sources:
            self.ood_sources = canonical_spec().ood_sources
        if self.stream not in ("single", "mixed", "timeseries"):
            raise ConfigError(f"unknown stream kind {self.stream!r}")
        for key, attr, typ in _SCALAR_KEYS:
            if typ == _FLOAT and not math.isfinite(getattr(self, attr)):
                raise ConfigError(f"{key} = {getattr(self, attr)!r} is out of range: "
                                  "it must be finite")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ConfigError(f"pretrain.hidden = {','.join(map(str, self.hidden))} is out of "
                              "range: it must list one or more widths, every width >= 1")
        # Named groups must be groups of the model `pretrain` builds from these dims.
        name = self.trainable_groups.strip()
        if name not in ("none", "all", "last_block"):
            _named_groups(name, default_group_labels(self.layer_dims()))
        # Written so that NaN fails every check.
        for key, value, ok, rule in (
            ("scenario.kappa", self.kappa, 0.0 <= self.kappa < 1.0, "in [0, 1)"),
            ("scenario.stream_seed", self.stream_seed, self.stream_seed >= 0, ">= 0"),
            ("pretrain.epochs", self.epochs, self.epochs >= 0, ">= 0"),
            ("pretrain.batch_size", self.batch_size, self.batch_size >= 1, ">= 1"),
            ("pretrain.lr", self.pretrain_lr, self.pretrain_lr > 0.0, "> 0"),
            ("pretrain.weight_decay", self.pretrain_weight_decay,
             self.pretrain_weight_decay >= 0.0, ">= 0"),
            ("pretrain.init_seed", self.init_seed, self.init_seed >= 0, ">= 0"),
            ("pretrain.shuffle_seed", self.shuffle_seed, self.shuffle_seed >= 0, ">= 0"),
            ("auto.lambda1", self.lambda1, self.lambda1 >= 0.0, ">= 0"),
            ("auto.lambda2", self.lambda2, self.lambda2 >= 0.0, ">= 0"),
            ("auto.id_weight", self.id_weight, self.id_weight >= 0.0, ">= 0"),
            ("auto.iters_T", self.iters_t, self.iters_t >= 0, ">= 0"),
            ("auto.score", self.score, kind_name(self.score) in VALID_KINDS,
             "one of " + ", ".join(VALID_KINDS)),
            ("auto.energy_temperature", self.energy_temperature,
             self.energy_temperature > 0.0, "> 0"),
            ("auto.lambda2_decay", self.lambda2_decay, self.lambda2_decay >= 0.0, ">= 0"),
            ("auto.id_loss_reduction", self.id_loss_reduction,
             self.id_loss_reduction in ("sum", "mean"), "sum or mean"),
            ("auto.k1", self.k1, self.k1 >= 0.0, ">= 0"),
            ("auto.k2", self.k2, self.k2 >= 0.0, ">= 0"),
            ("auto.stats_subsample_n", self.stats_subsample_n, self.stats_subsample_n >= 0,
             ">= 0"),
            ("auto.memory_mode", self.memory_mode,
             self.memory_mode in ("random", "prototype"), "random or prototype"),
            ("auto.memory_seed", self.memory_seed, self.memory_seed >= 0, ">= 0"),
            ("sgd.lr", self.lr, self.lr > 0.0, "> 0"),
            ("sgd.weight_decay", self.weight_decay, self.weight_decay >= 0.0, ">= 0"),
        ):
            if not ok:
                raise ConfigError(f"{key} = {value!r} is out of range: it must be {rule}")
        try:
            self.scenario_spec().validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    # -- derived objects ----------------------------------------------------

    def scenario_spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            dim=self.dim,
            num_classes=self.classes,
            class_means=circle_means(self.classes, self.mean_radius, self.dim),
            id_spread=self.id_spread,
            ood_sources=self.ood_sources,
            train_n=self.train_n,
            test_id_n=self.test_id_n,
            ood_n=self.ood_n,
            seed=self.seed,
        )

    def layer_dims(self) -> list[int]:
        return [self.dim, *self.hidden, self.classes]

    def resolve_groups(self, model: MlpModel) -> frozenset[str]:
        name = self.trainable_groups.strip()
        if name == "none":
            return frozenset()
        if name == "all":
            return frozenset(model.group_labels)
        if name == "last_block":
            return frozenset({last_block_group(model)})
        return _named_groups(name, model.group_labels)


def _named_groups(name: str, groups: list[str]) -> frozenset[str]:
    named = frozenset(name.split("+"))
    unknown = named - set(groups)
    if unknown:
        raise ConfigError(f"unknown parameter groups {sorted(unknown)} in "
                          f"sgd.trainable_groups; the model has {groups}")
    return named


# ---------------------------------------------------------------------------
# serialization

_INT, _FLOAT, _STR, _BOOL = "int", "float", "str", "bool"

# (config key, RunConfig attribute, type)
_SCALAR_KEYS: list[tuple[str, str, str]] = [
    ("scenario.dim", "dim", _INT),
    ("scenario.classes", "classes", _INT),
    ("scenario.mean_radius", "mean_radius", _FLOAT),
    ("scenario.id_spread", "id_spread", _FLOAT),
    ("scenario.train_n", "train_n", _INT),
    ("scenario.test_id_n", "test_id_n", _INT),
    ("scenario.ood_n", "ood_n", _INT),
    ("scenario.seed", "seed", _INT),
    ("scenario.stream", "stream", _STR),
    ("scenario.kappa", "kappa", _FLOAT),
    ("scenario.stream_seed", "stream_seed", _INT),
    ("pretrain.hidden", "hidden", _STR),
    ("pretrain.epochs", "epochs", _INT),
    ("pretrain.batch_size", "batch_size", _INT),
    ("pretrain.lr", "pretrain_lr", _FLOAT),
    ("pretrain.weight_decay", "pretrain_weight_decay", _FLOAT),
    ("pretrain.init_seed", "init_seed", _INT),
    ("pretrain.shuffle_seed", "shuffle_seed", _INT),
    ("auto.lambda1", "lambda1", _FLOAT),
    ("auto.lambda2", "lambda2", _FLOAT),
    ("auto.phi", "phi", _FLOAT),
    ("auto.iters_T", "iters_t", _INT),
    ("auto.score", "score", _STR),
    ("auto.energy_temperature", "energy_temperature", _FLOAT),
    ("auto.lambda2_decay", "lambda2_decay", _FLOAT),
    ("auto.id_weight", "id_weight", _FLOAT),
    ("auto.id_loss_reduction", "id_loss_reduction", _STR),
    ("auto.k1", "k1", _FLOAT),
    ("auto.k2", "k2", _FLOAT),
    ("auto.stats_subsample_n", "stats_subsample_n", _INT),
    ("auto.margin_literal_m0", "margin_literal_m0", _BOOL),
    ("auto.memory_mode", "memory_mode", _STR),
    ("auto.memory_seed", "memory_seed", _INT),
    ("sgd.lr", "lr", _FLOAT),
    ("sgd.weight_decay", "weight_decay", _FLOAT),
    ("sgd.trainable_groups", "trainable_groups", _STR),
    ("output.dir", "out_dir", _STR),
]

_KEY_TO_ATTR = {k: (a, t) for k, a, t in _SCALAR_KEYS}

# Keys of the removed momentum optimizer: older config files set them to 0,
# which still loads and is not written back.
REMOVED_MOMENTUM_KEYS = ("pretrain.momentum", "sgd.momentum")


def _fmt_float(v: float) -> str:
    return f"{v:.17g}"


def _fmt_value(value, typ: str) -> str:
    if typ == _BOOL:
        return "true" if value else "false"
    if typ == _FLOAT:
        return _fmt_float(value)
    return str(value)


def _parse_value(raw: str, typ: str, key: str):
    raw = raw.strip()
    try:
        if typ == _INT:
            return int(raw)
        if typ == _FLOAT:
            return float(raw)
        if typ == _BOOL:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value {raw!r} for key {key}") from exc


def _floats_csv(values) -> str:
    return ",".join(_fmt_float(v) for v in values)


def _parse_floats_csv(raw: str, key: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad float list {raw!r} for key {key}") from exc


def _ood_source_lines(sources: tuple[OodSource, ...]) -> list[str]:
    lines = [f"scenario.ood_count = {len(sources)}"]
    for i, src in enumerate(sources, start=1):
        p = f"scenario.ood{i}"
        if isinstance(src, GaussianSource):
            lines.append(f"{p}.kind = gaussian")
            lines.append(f"{p}.center = {_floats_csv(src.mean)}")
            lines.append(f"{p}.spread = {_fmt_float(src.spread)}")
        elif isinstance(src, UniformBoxSource):
            lines.append(f"{p}.kind = box")
            lines.append(f"{p}.low = {_floats_csv(src.low)}")
            lines.append(f"{p}.high = {_floats_csv(src.high)}")
        else:
            lines.append(f"{p}.kind = ring")
            lines.append(f"{p}.radius = {_fmt_float(src.radius)}")
            lines.append(f"{p}.width = {_fmt_float(src.width)}")
    return lines


def _build_ood_source(i: int, fields: dict[str, str]) -> OodSource:
    key = f"scenario.ood{i}"
    kind = fields.get("kind")
    if kind == "gaussian":
        return GaussianSource(
            mean=_parse_floats_csv(fields["center"], f"{key}.center"),
            spread=_parse_value(fields["spread"], _FLOAT, f"{key}.spread"),
        )
    if kind == "box":
        return UniformBoxSource(
            low=_parse_floats_csv(fields["low"], f"{key}.low"),
            high=_parse_floats_csv(fields["high"], f"{key}.high"),
        )
    if kind == "ring":
        return RingSource(
            radius=_parse_value(fields["radius"], _FLOAT, f"{key}.radius"),
            width=_parse_value(fields["width"], _FLOAT, f"{key}.width"),
        )
    raise ConfigError(f"unknown or missing OOD source kind for {key}")


def to_text(cfg: RunConfig) -> str:
    """Canonical text form; parsing it back reproduces ``cfg`` exactly."""
    lines = []
    for key, attr, typ in _SCALAR_KEYS:
        value = getattr(cfg, attr)
        if attr == "hidden":
            value = ",".join(str(h) for h in cfg.hidden)
        lines.append(f"{key} = {_fmt_value(value, typ)}")
        if key == "scenario.stream_seed":
            lines.extend(_ood_source_lines(cfg.ood_sources))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> RunConfig:
    """Parse a config file; unknown keys raise ConfigError naming the key,
    and so does a removed momentum key set to anything but 0.

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
    ood_fields: dict[int, dict[str, str]] = {}
    ood_count = 0
    for key, raw in values.items():
        if key == "scenario.ood_count":
            ood_count = _parse_value(raw, _INT, key)
            continue
        if key.startswith("scenario.ood") and key.count(".") == 2:
            head, prop = key.rsplit(".", 1)
            try:
                idx = int(head[len("scenario.ood"):])
            except ValueError as exc:
                raise ConfigError(f"unknown config key {key!r}") from exc
            ood_fields.setdefault(idx, {})[prop] = raw
            continue
        if key in REMOVED_MOMENTUM_KEYS:
            value = _parse_value(raw, _FLOAT, key)
            if value != 0.0:  # NaN included
                raise ConfigError(f"{key} = {value!r} is out of range: momentum was removed, "
                                  "so it must be 0")
            continue
        if key not in _KEY_TO_ATTR:
            raise ConfigError(f"unknown config key {key!r}")
        attr, typ = _KEY_TO_ATTR[key]
        if attr == "hidden":
            try:
                kwargs[attr] = tuple(int(t) for t in raw.split(","))
            except ValueError as exc:
                raise ConfigError(f"bad hidden dims {raw!r} for key {key}") from exc
        else:
            kwargs[attr] = _parse_value(raw, typ, key)

    if ood_count or ood_fields:
        if sorted(ood_fields) != list(range(1, ood_count + 1)):
            raise ConfigError(
                f"scenario.ood_count = {ood_count} but sources defined for "
                f"{sorted(ood_fields)}"
            )
        kwargs["ood_sources"] = tuple(
            _build_ood_source(i, ood_fields[i]) for i in range(1, ood_count + 1)
        )
    if not any(key.startswith("scenario.") for key in values):
        raise ConfigError("missing required section 'scenario' in config file")
    return RunConfig(**kwargs)


def config_hash(cfg: RunConfig) -> str:
    """Short provenance hash of the canonical config text. ``output.dir`` is
    left out: where a run writes its files does not change what they hold."""
    text = "".join(line for line in to_text(cfg).splitlines(keepends=True)
                   if not line.startswith("output.dir ="))
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:12]


# Scenario keys that only compose the stream; pretraining never reads them.
_STREAM_KEYS = ("scenario.stream =", "scenario.kappa =", "scenario.stream_seed =")


def pretrain_hash(cfg: RunConfig) -> str:
    """Short hash of the keys that shape pretraining: the ``scenario.*``
    and ``pretrain.*`` lines of the canonical config text, without the
    stream keys. A checkpoint records it, and a replay under a config with
    another hash refuses that checkpoint."""
    text = "".join(line for line in to_text(cfg).splitlines(keepends=True)
                   if line.startswith(("scenario.", "pretrain."))
                   and not line.startswith(_STREAM_KEYS))
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:12]
