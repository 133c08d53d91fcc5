"""Config file format: defaults, round trips, validation."""

from __future__ import annotations

import ast
import hashlib
import math
import re
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (FLOAT_KEYS, REMOVED_KEY_VALUES, THREE_SOURCES, config_text_with,
                     non_finite_rule, removed_key_rule, to_text)
from oodstream import cli, data
from oodstream.data import GaussianSource, circle_means
from oodstream.runconfig import (REMOVED_KEYS, ConfigError, RunConfig, config_hash, from_text,
                                 parse_setting, pretrain_hash, trainable_layers)

ROOT = Path(__file__).resolve().parent.parent


def test_round_trip_lossless():
    cfg = RunConfig()
    text = to_text(cfg)
    cfg2 = from_text(text)
    assert to_text(cfg2) == text
    assert cfg2 == cfg
    assert config_hash(cfg2) == config_hash(cfg)


# every scenario and pretrain key but the stream keys, changed
PRETRAINING_CHANGES = [
    {"dim": 3, "ood_sources": (GaussianSource(center=(2.0, 0.0, 1.0), spread=0.5),)},
    {"classes": 4},
    {"mean_radius": 2.0}, {"id_spread": 0.3}, {"train_n": 100}, {"test_id_n": 10},
    {"ood_n": 10}, {"seed": 1},
    {"ood_sources": (GaussianSource(center=(2.0, 0.0), spread=0.5),)},
    {"hidden": (8,)}, {"epochs": 1}, {"batch_size": 8}, {"pretrain_lr": 0.1},
    {"init_seed": 3}, {"shuffle_seed": 4},
]
# keys that pretraining never reads
REPLAY_CHANGES = [
    {"stream": "mixed"}, {"kappa": 0.2}, {"stream_seed": 5}, {"lambda1": 0.5},
    {"lambda2": 0.5}, {"phi": 0.5}, {"iters_t": 1}, {"id_weight": 0.5}, {"k1": 1.0},
    {"k2": 1.0},
    {"stats_subsample_n": 5}, {"memory_seed": 1},
    {"lr": 0.01}, {"trainable_groups": "all"}, {"out_dir": "x"},
]


def test_config_text_and_hashes_are_pinned():
    """The canonical text, and so both hashes, are pinned. Removing replay
    keys (four variants, then the two score keys) moved the config hash; the
    pretrain hash, which a checkpoint records, did not move. Removing weight
    decay moved both: ``pretrain.weight_decay`` was a pretrain line. The
    three-source text moved when its box and ring sources became gaussian."""
    def sha(cfg):
        return hashlib.sha256(to_text(cfg).encode("ascii")).hexdigest()

    assert sha(RunConfig()) == \
        "e0a69aa90ad12ebab1aa6e7a71e4baffcef38b2a8aa513204e463580e1fa1df4"
    assert sha(RunConfig(ood_sources=THREE_SOURCES, hidden=(8, 4, 2))) == \
        "45bd77d4842a5a6633a4bb6acdf48e50a8cf1a06a3dd041a8803108a2f9a6c5d"
    for path, hashes in (("configs/canonical.cfg", ("bf2840e5022c", "d18d52645bbf")),
                         ("perfbench/wide_drift.cfg", ("2c3f6312cbad", "d565196e55de"))):
        cfg = from_text((ROOT / path).read_text(encoding="ascii"))
        assert (config_hash(cfg), pretrain_hash(cfg)) == hashes, path


def test_each_key_is_declared_once_on_its_field():
    assert [f.name for f in fields(RunConfig) if "key" not in f.metadata] == ["ood_sources"]
    keys = [f.metadata["key"] for f in fields(RunConfig) if "key" in f.metadata]
    assert len(set(keys)) == len(keys)
    assert {key.partition(".")[0] for key in keys} == {"scenario", "pretrain", "auto", "sgd",
                                                       "output"}
    # every swept key is a config key, named by its last part
    assert set(cli.SWEEP_PARAMS) <= set(keys)
    assert [key.rpartition(".")[2] for key in cli.SWEEP_PARAMS] == [
        "lambda2", "phi", "kappa", "iters_T", "trainable_groups", "k1", "k2",
        "stats_subsample_n"]


def test_parse_setting_parses_by_the_field_type():
    assert parse_setting("auto.iters_T", " 3 ") == {"iters_t": 3}
    assert parse_setting("scenario.kappa", "0.25") == {"kappa": 0.25}
    assert parse_setting("pretrain.hidden", "8,4") == {"hidden": (8, 4)}
    assert parse_setting("sgd.trainable_groups", "block1+fc") == {
        "trainable_groups": "block1+fc"}
    with pytest.raises(ConfigError, match="^bad value 'x' for key auto.iters_T$"):
        parse_setting("auto.iters_T", "x")
    with pytest.raises(ConfigError, match="^unknown config key 'auto.bogus'$"):
        parse_setting("auto.bogus", "1")
    # a removed key sets nothing, so a sweep cannot set it
    with pytest.raises(ConfigError, match="^unknown config key 'auto.memory_mode'$"):
        parse_setting("auto.memory_mode", "random")


def test_train_n_below_classes_rejected_at_load():
    """Before this check, ``classes = 5, train_n = 3`` pretrained and exited
    0, and ``run`` then failed on a class with no training row."""
    with pytest.raises(ConfigError, match=r"^scenario.train_n = 3 is out of range: it must be "
                       r">= scenario.classes \(5\)$"):
        from_text("scenario.classes = 5\nscenario.train_n = 3\n")
    assert from_text("scenario.classes = 5\nscenario.train_n = 5\n").train_n == 5


def _gaussian(center: str, spread: str) -> str:
    return (f"scenario.ood_count = 1\nscenario.ood1.kind = gaussian\n"
            f"scenario.ood1.center = {center}\nscenario.ood1.spread = {spread}\n")


# (RunConfig arguments, the same values as config text, the one load error)
SCENARIO_RULE_CASES = {
    "classes": ({"classes": 1}, "scenario.classes = 1\n",
                "scenario.classes = 1 is out of range: it must be >= 2"),
    "dim": ({"dim": 0}, "scenario.dim = 0\n", "scenario.dim = 0 is out of range: it must be >= 1"),
    "id_spread": ({"id_spread": 0.0}, "scenario.id_spread = 0\n",
                  "scenario.id_spread = 0.0 is out of range: it must be > 0"),
    "train_n": ({"train_n": 0}, "scenario.train_n = 0\n",
                "scenario.train_n = 0 is out of range: it must be >= 1"),
    "test_id_n": ({"test_id_n": 0}, "scenario.test_id_n = 0\n",
                  "scenario.test_id_n = 0 is out of range: it must be >= 1"),
    "ood_n": ({"ood_n": -2}, "scenario.ood_n = -2\n",
              "scenario.ood_n = -2 is out of range: it must be >= 1"),
    "seed": ({"seed": -1}, "scenario.seed = -1\n",
             "scenario.seed = -1 is out of range: it must be >= 0"),
    "train_n_below_classes": (
        {"classes": 4, "train_n": 3}, "scenario.classes = 4\nscenario.train_n = 3\n",
        "scenario.train_n = 3 is out of range: it must be >= scenario.classes (4)"),
    "source_not_finite": (
        {"ood_sources": (GaussianSource(center=(math.inf, 0.0), spread=0.5),)},
        _gaussian("inf,0", "0.5"), "scenario.ood1.center = inf,0.0 is out of range: it must be "
        "finite"),
    "source_scalar_not_finite": (
        {"ood_sources": (GaussianSource(center=(0.0, 0.0), spread=math.nan),)},
        _gaussian("0,0", "nan"), "scenario.ood1.spread = nan is out of range: it must be finite"),
    "source_length": (
        {"ood_sources": (GaussianSource(center=(1.0, 2.0, 3.0), spread=0.5),)},
        _gaussian("1,2,3", "0.5"), "OOD source 1 (scenario.ood1.center) has length 3; dim is 2"),
    "source_scalar": (
        {"ood_sources": (GaussianSource(center=(0.0, 0.0), spread=-1.0),)},
        _gaussian("0,0", "-1"), "scenario.ood1.spread = -1.0 is out of range: it must be > 0"),
}


@pytest.mark.parametrize("case", SCENARIO_RULE_CASES)
def test_scenario_rule_message_is_unchanged_at_load(case):
    """Each scenario rule's message, word for word as before the rules moved
    onto the fields, both from a file and from ``RunConfig(...)``."""
    kwargs, text, message = SCENARIO_RULE_CASES[case]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        from_text(text)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        RunConfig(**kwargs)


def test_first_failing_rule_follows_file_order():
    """Each field's rule is checked in file order. ``scenario.classes`` used
    to be checked before ``scenario.dim``, and every scenario rule after
    the ``auto.*`` keys."""
    with pytest.raises(ConfigError, match="^scenario.dim = 0 is out of range: it must be >= 1$"):
        from_text("scenario.dim = 0\nscenario.classes = 1\n")
    with pytest.raises(ConfigError, match="^scenario.seed = -1 is out of range: it must be >= 0$"):
        RunConfig(seed=-1, k1=-1.0)


# number keys that take any finite value, by design
UNBOUNDED = {"scenario.mean_radius", "auto.phi"}


def test_every_number_key_declares_a_rule_or_is_unbounded():
    """A new int or float key cannot land without a range decision."""
    ruleless = {f.metadata["key"] for f in fields(RunConfig)
                if f.type in ("int", "float") and "rule" not in f.metadata}
    assert ruleless == UNBOUNDED


def test_pretrain_hash_covers_exactly_what_pretraining_reads():
    changed = {key for changes in PRETRAINING_CHANGES + REPLAY_CHANGES for key in changes}
    assert changed == {f.name for f in fields(RunConfig)}
    base = pretrain_hash(RunConfig())
    assert re.fullmatch("[0-9a-f]{12}", base)
    for changes in PRETRAINING_CHANGES:
        assert pretrain_hash(RunConfig(**changes)) != base, changes
    for changes in REPLAY_CHANGES:
        assert pretrain_hash(RunConfig(**changes)) == base, changes


def test_round_trip_non_default_values():
    cfg = RunConfig(kappa=0.3, lambda2=0.25, iters_t=5, stream="timeseries",
                    trainable_groups="block1+fc", stats_subsample_n=100, hidden=(8, 4, 2))
    cfg2 = from_text(to_text(cfg))
    assert cfg2.kappa == 0.3 and cfg2.lambda2 == 0.25 and cfg2.iters_t == 5
    assert cfg2.stream == "timeseries"
    assert cfg2.trainable_groups == "block1+fc"
    assert cfg2.hidden == (8, 4, 2)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="auto.bogus"):
        from_text("auto.bogus = 3\n")


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="scenario.kappa"):
        from_text("scenario.kappa = fast\n")


def test_missing_section_detection():
    for text in ("auto.lambda1 = 1\n", "", "# only a comment\n"):
        with pytest.raises(ConfigError, match="missing required section 'scenario'"):
            from_text(text)
    assert from_text("scenario.kappa = 0.5\n").kappa == 0.5


def test_key_set_twice_rejected():
    text = "scenario.kappa = 0.5\n# comment\nauto.k2 = 3\n\nscenario.kappa = 0.9\n"
    with pytest.raises(ConfigError) as info:
        from_text(text)
    assert str(info.value) == "key 'scenario.kappa' set twice, on lines 1 and 5"
    # the key is compared after stripping blanks, as it is parsed
    with pytest.raises(ConfigError, match="'auto.k2' set twice, on lines 2 and 3"):
        from_text("scenario.kappa = 0.5\nauto.k2 = 3\n  auto.k2=3\n")


def test_comments_and_blank_lines_ignored():
    cfg = from_text("# a comment\n\nscenario.kappa = 0.25\n")
    assert cfg.kappa == 0.25


def test_ood_source_count_mismatch():
    text = _gaussian("2,0", "1").replace("= 1\n", "= 2\n", 1)
    with pytest.raises(ConfigError, match="ood_count"):
        from_text(text)
    # a count too low leaves the next source unread
    with pytest.raises(ConfigError, match="^unknown config key 'scenario.ood2.kind': "
                       "scenario.ood_count = 1$"):
        from_text(text.replace("= 2\n", "= 1\n", 1) + "scenario.ood2.kind = gaussian\n")


THREE_SOURCES_TEXT = to_text(RunConfig(ood_sources=THREE_SOURCES))
SOURCE_KEYS = [line.partition(" = ")[0] for line in THREE_SOURCES_TEXT.splitlines()
               if re.match(r"scenario\.ood\d\.", line)]


def test_source_keys_are_the_fields_of_their_class():
    assert SOURCE_KEYS == [f"scenario.ood{i}.{name}" for i in (1, 2, 3)
                           for name in ("kind", "center", "spread")]


# a config key spelled out in a string: ``scenario.ood1``, ``auto.k2`` ...
CONFIG_KEY = re.compile(r"\b(scenario|pretrain|auto|sgd|output)\.[A-Za-z_]")


def test_only_runconfig_and_cli_spell_config_keys():
    """The key vocabulary lives in ``runconfig`` (and the CLI's messages);
    ``data`` used to spell out the ``scenario.oodK.*`` keys of its checks."""
    hits = []
    for path in sorted((ROOT / "src" / "oodstream").glob("*.py")):
        if path.name in ("runconfig.py", "cli.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)}
        hits += [f"{path.name}:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)
                 and id(node) not in docstrings and CONFIG_KEY.search(node.value)]
    assert hits == []


@pytest.mark.parametrize("key", SOURCE_KEYS)
def test_missing_source_key_rejected(key):
    """A missing field key used to end in a KeyError naming only the field."""
    text = THREE_SOURCES_TEXT.replace(next(line for line in THREE_SOURCES_TEXT.splitlines()
                                           if line.startswith(f"{key} = ")) + "\n", "")
    with pytest.raises(ConfigError, match=rf"^missing config key '{re.escape(key)}': "):
        from_text(text)


# a key of the removed box and ring kinds on each source, then keys that name
# no source
STRAY_SOURCE_KEYS = [f"scenario.ood{i}.{name}" for i in range(1, len(THREE_SOURCES) + 1)
                     for name in ("low", "high", "radius", "width")] + [
    "scenario.ood01.kind", "scenario.ood5.kind", "scenario.ood1.bogus", "scenario.oodx.kind"]


@pytest.mark.parametrize("key", STRAY_SOURCE_KEYS)
def test_stray_source_key_is_unknown(key):
    """``scenario.ood1.radius`` on a gaussian source used to be ignored."""
    with pytest.raises(ConfigError, match=rf"^unknown config key '{re.escape(key)}'$"):
        from_text(f"{THREE_SOURCES_TEXT}{key} = 1\n")
    # with no scenario.ood_count the canonical sources load, so a source key is unknown
    with pytest.raises(ConfigError, match=rf"^unknown config key '{re.escape(key)}'$"):
        from_text(f"scenario.kappa = 0.5\n{key} = 1\n")


def test_ood_count_below_one_rejected():
    """A count below 1 used to load the canonical sources."""
    for count in ("0", "-1"):
        for text in (f"scenario.ood_count = {count}\n",
                     THREE_SOURCES_TEXT.replace("scenario.ood_count = 3",
                                                f"scenario.ood_count = {count}")):
            with pytest.raises(ConfigError, match=f"^scenario.ood_count = {count} is out of "
                               "range: it must be >= 1$"):
                from_text(text)
    assert from_text("scenario.kappa = 0.5\n").ood_sources == data.CANONICAL_OOD_SOURCES


def test_bad_source_kind_rejected():
    """``box`` and ``ring`` were source kinds; they fail as any unknown kind."""
    for kind in ("disc", "box", "ring"):
        with pytest.raises(ConfigError, match=f"^scenario.ood1.kind = '{kind}' is out of "
                           "range: it must be one of gaussian$"):
            from_text(THREE_SOURCES_TEXT.replace("kind = gaussian", f"kind = {kind}", 1))


# spellings of each kept value that load, and values that do not
REMOVED_KEY_SPELLINGS = {
    "0": (["0", "0.0", "-0"], ["0.9", "-1e-300", "nan", "inf"]),
    "sum": (["sum", " sum "], ["mean", "Sum", ""]),
    "false": (["false", "False", "0", "no"], ["true", "yes", "1"]),
    "random": (["random"], ["prototype", "Random", ""]),
    "msp": (["msp", " msp "], ["energy", "maxlogit", "MSP", ""]),
    "1": (["1", "1.0", "1e0"], ["0.7", "2", "-1", "nan", "inf"]),
}


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_key_loads_only_at_its_kept_value(key):
    """Momentum, four replay variants, the score choice and weight decay
    were removed.
    Each key still loads at its one kept value, as older files set it, and is
    not written back; any other value is one error naming the key."""
    assert set(REMOVED_KEYS) == set(REMOVED_KEY_VALUES)
    assert key not in {f.metadata.get("key") for f in fields(RunConfig)}
    good, bad = REMOVED_KEY_SPELLINGS[REMOVED_KEY_VALUES[key]]
    for raw in good:
        cfg = from_text(f"scenario.kappa = 0.5\n{key} = {raw}\n")
        assert cfg == RunConfig() and to_text(cfg) == to_text(RunConfig())
    for raw in bad:
        with pytest.raises(ConfigError, match=f"^{re.escape(key)} = .* "
                           f"{re.escape(removed_key_rule(key))}$"):
            from_text(f"scenario.kappa = 0.5\n{key} = {raw}\n")
    if REMOVED_KEY_VALUES[key] in ("0", "false", "1"):
        with pytest.raises(ConfigError, match=f"^bad value 'x' for key {re.escape(key)}$"):
            from_text(f"scenario.kappa = 0.5\n{key} = x\n")
    with pytest.raises(ConfigError, match="set twice"):
        from_text(f"scenario.kappa = 0.5\n{key} = {good[0]}\n{key} = {good[0]}\n")


def test_other_dim_without_sources_names_the_source_keys():
    """The canonical sources are 2-D. This used to fail on
    ``scenario.ood1.center``, a key the file does not hold."""
    for dim in (1, 3):
        with pytest.raises(ConfigError, match=rf"^scenario.dim = {dim}, but the canonical OOD "
                           r"sources are 2-D: a config of another scenario.dim must set "
                           r"scenario.ood_count and its own scenario.oodK.\* keys$"):
            from_text(f"scenario.dim = {dim}\n")
    with pytest.raises(ConfigError, match="^scenario.dim = 0 is out of range: it must be >= 1$"):
        from_text("scenario.dim = 0\n")
    assert from_text(f"scenario.dim = 3\n{_gaussian('2,0,1', '1')}").dim == 3


def test_shipped_configs_load():
    """The benchmark replays both files, and no other test reads them. The
    wide file still sets removed keys, each at its kept value, and a file
    with or without such lines gets the same config."""
    canonical = (ROOT / "configs" / "canonical.cfg").read_text(encoding="ascii")
    assert from_text(canonical) == RunConfig()
    assert canonical == to_text(RunConfig())
    wide_text = (ROOT / "perfbench" / "wide_drift.cfg").read_text(encoding="ascii")
    lines = [line.split(" = ", 1) for line in wide_text.splitlines()
                 if not line.startswith("#")]
    removed = {key: raw for key, raw in lines if key in REMOVED_KEYS}
    assert removed == {key: REMOVED_KEY_VALUES[key] for key in removed} and removed
    wide = from_text(wide_text)
    assert wide.layer_dims() == [8, 512, 512, 4]
    assert from_text(to_text(wide)) == wide
    assert from_text("".join(f"{key} = {raw}\n" for key, raw in lines
                             if key not in REMOVED_KEYS)) == wide
    legacy = canonical + "".join(f"{key} = {raw}\n" for key, raw in REMOVED_KEY_VALUES.items())
    assert config_hash(from_text(legacy)) == config_hash(RunConfig())


# key -> (values rejected at load, boundary values accepted)
RANGE_CHECKS = {
    "scenario.kappa": (["0", "-0", "1", "1.5", "-0.1", "nan"], ["5e-324", "0.999"]),
    "scenario.seed": (["-1"], ["0"]),
    "scenario.stream_seed": (["-5"], ["0"]),
    "scenario.train_n": (["0", "2"], ["3"]),
    "scenario.stream": (["bogus", "Single", ""], ["single", "mixed", "timeseries"]),
    "pretrain.epochs": (["-1"], ["0"]),
    "pretrain.batch_size": (["0", "-1"], ["1"]),
    "pretrain.lr": (["0", "-0.1", "nan"], ["1e-300"]),
    "pretrain.weight_decay": (["-1", "-5e-324", "1e-3"], ["0", "-0"]),
    "pretrain.init_seed": (["-1"], ["0"]),
    "pretrain.shuffle_seed": (["-1"], ["0"]),
    "auto.lambda1": (["-1e-9", "nan"], ["0"]),
    "auto.lambda2": (["-0.1", "nan"], ["0"]),
    "auto.id_weight": (["-1", "-1e-9"], ["0", "0.5"]),
    "auto.iters_T": (["-1"], ["0"]),
    "auto.score": (["bogus", "ms p", "", "energy", "maxlogit"], ["msp"]),
    "auto.energy_temperature": (["0", "-2", "nan", "2"], ["1"]),
    "auto.lambda2_decay": (["-1", "nan"], ["0"]),
    "auto.id_loss_reduction": (["avg", "Sum", "mean"], ["sum"]),
    "auto.k1": (["-0.5", "nan"], ["0"]),
    "auto.k2": (["-1e-9", "-inf"], ["0"]),
    "auto.stats_subsample_n": (["-1"], ["0", "1"]),
    "auto.memory_mode": (["prototypes", "", "prototype"], ["random"]),
    "auto.memory_seed": (["-1"], ["0"]),
    "sgd.lr": (["0", "-0.001", "nan"], ["1e-300"]),
    "sgd.weight_decay": (["-1", "-5e-324", "0.5"], ["0", "-0"]),
}


@pytest.mark.parametrize("key", RANGE_CHECKS)
def test_out_of_range_value_rejected_at_load(key):
    bad, good = RANGE_CHECKS[key]
    # a scenario key, and never the key under test: a key may be set only once
    head = "" if key.startswith("scenario.") else "scenario.kappa = 0.5\n"
    for raw in bad:
        with pytest.raises(ConfigError, match=f"{key} = .* out of range"):
            from_text(f"{head}{key} = {raw}\n")
    for raw in good:
        from_text(f"{head}{key} = {raw}\n")


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_rejected_at_load(key, raw):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} = .* {non_finite_rule(key)}$"):
        from_text(config_text_with(key, raw))


@pytest.mark.parametrize("hidden", [(0,), (-3, 4), (16, 0), (-1,), ()],
                         ids=lambda hidden: ",".join(map(str, hidden)) or "()")
def test_hidden_width_below_one_rejected_at_load(hidden):
    raw = ",".join(map(str, hidden))
    with pytest.raises(ConfigError, match=f"pretrain.hidden = {raw} is out of range"):
        RunConfig(hidden=hidden)
    if hidden:  # no text spells an empty tuple; the empty value is checked below
        with pytest.raises(ConfigError, match=f"pretrain.hidden = {raw} is out of range"):
            from_text(f"scenario.kappa = 0.5\npretrain.hidden = {raw}\n")
    with pytest.raises(ConfigError, match="bad hidden dims '' for key pretrain.hidden"):
        from_text("scenario.kappa = 0.5\npretrain.hidden =\n")


finite = st.floats(allow_nan=False, allow_infinity=False)
nonnegative = st.floats(0.0, allow_infinity=False)
positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
CONFIG_VALUES = dict(
    dim=st.integers(1, 64), classes=st.integers(2, 64), mean_radius=finite,
    id_spread=positive, seed=st.integers(0, 2**70),
    stream=st.sampled_from(["single", "mixed", "timeseries"]),
    kappa=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    stream_seed=st.integers(0, 2**70),
    hidden=st.lists(st.integers(1, 4096), min_size=1, max_size=4).map(tuple),
    pretrain_lr=positive, lambda1=nonnegative,
    lambda2=nonnegative,
    phi=finite, iters_t=st.integers(0, 10**6), k1=nonnegative, k2=nonnegative,
    lr=positive,
    trainable_groups=st.sampled_from(["last_block", "all", "none", "block1+fc"]),
)


def ood_sources(dim: int):
    """Valid OOD sources in ``dim`` dimensions: the loader rejects any other."""
    return st.builds(GaussianSource,
                     center=st.lists(finite, min_size=dim, max_size=dim).map(tuple),
                     spread=positive)


@st.composite
def config_values(draw) -> dict:
    values = draw(st.fixed_dictionaries(CONFIG_VALUES))
    values["train_n"] = draw(st.integers(values["classes"], 10**9))
    values["ood_sources"] = tuple(draw(st.lists(ood_sources(values["dim"]),
                                                min_size=1, max_size=3)))
    return values


@settings(max_examples=100, deadline=None)
@given(values=config_values())
def test_round_trip_random_values(values):
    cfg = RunConfig(**values)
    text = to_text(cfg)
    back = from_text(text)
    assert back == cfg
    assert to_text(back) == text  # keeps the sign of -0.0, which == ignores


def unknown_groups(names, layers) -> ConfigError:
    return ConfigError(f"unknown parameter groups {names} in sgd.trainable_groups; "
                       f"the model has {layers}")


@pytest.mark.parametrize("groups, num_layers, expected", [
    # one, two and three hidden layers
    ("none", 2, (False, False)), ("all", 2, (True, True)), ("last_block", 2, (True, False)),
    ("fc", 2, (False, True)), ("block1+fc", 2, (True, True)),
    ("none", 3, (False, False, False)), ("all", 3, (True, True, True)),
    ("last_block", 3, (False, True, False)), ("block1", 3, (True, False, False)),
    ("block1+fc", 3, (True, False, True)), ("fc+block2", 3, (False, True, True)),
    (" block2 ", 3, (False, True, False)), (" all ", 3, (True, True, True)),
    ("last_block", 4, (False, False, True, False)), ("block3", 4, (False, False, True, False)),
    ("block1+block2+block3+fc", 4, (True, True, True, True)),
    # no hidden layer
    ("none", 1, (False,)), ("all", 1, (True,)), ("fc", 1, (True,)),
    ("last_block", 1, ValueError("model has no hidden layer")),
    # names the model lacks
    ("blockZ", 3, unknown_groups(["blockZ"], ["block1", "block2", "fc"])),
    (" block1+blockZ+block9 ", 3,
     unknown_groups(["block9", "blockZ"], ["block1", "block2", "fc"])),
    ("block3+fc", 3, unknown_groups(["block3"], ["block1", "block2", "fc"])),
    ("block1+fc", 1, unknown_groups(["block1"], ["fc"])),
    ("block1 + fc", 2, (True, True)),
    ("", 2, unknown_groups([""], ["block1", "fc"])),
    ("block1+", 2, unknown_groups([""], ["block1", "fc"])),
])
def test_trainable_layers(groups, num_layers, expected):
    """Hidden layer k is blockK and the output layer fc; each form of
    sgd.trainable_groups becomes a per-layer mask."""
    if isinstance(expected, Exception):
        with pytest.raises(Exception) as err:
            trainable_layers(groups, num_layers)
        assert type(err.value) is type(expected) and str(err.value) == str(expected)
    else:
        assert trainable_layers(groups, num_layers) == expected


def test_unknown_group_message_at_load():
    with pytest.raises(ConfigError) as err:
        RunConfig(trainable_groups=" block1+blockZ+block9 ")
    assert str(err.value) == ("unknown parameter groups ['block9', 'blockZ'] in "
                              "sgd.trainable_groups; the model has ['block1', 'block2', 'fc']")


def test_every_field_is_frozen_after_its_checks():
    # no field can take a value its load rule never saw
    cfg = RunConfig()
    for f in fields(cfg):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, f.name, getattr(RunConfig(), f.name))
    assert cfg == RunConfig()


def test_circle_means_geometry():
    means = circle_means(4, 2.0, 3)
    assert len(means) == 4
    for m in means:
        assert len(m) == 3 and m[2] == 0.0
        assert math.hypot(m[0], m[1]) == pytest.approx(2.0, abs=1e-12)
