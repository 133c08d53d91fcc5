"""Session fixtures: the pinned canonical scenario and its pretrained model."""

from __future__ import annotations

import pytest

from oodstream import data, engine, nn
from oodstream.runconfig import RunConfig


@pytest.fixture(scope="session")
def canonical():
    """Scenario data, pretrained model, and composed streams for the pinned
    reference configuration. Heavy enough to share across the session."""
    cfg = RunConfig()
    spec = cfg.scenario_spec()
    train, test_id, oods = data.make_scenario(spec)
    model = nn.init_mlp(cfg.layer_dims(), seed=cfg.init_seed)
    nn.train_offline(model, train, epochs=cfg.epochs, batch_size=cfg.batch_size,
                     cfg=nn.SgdConfig(learning_rate=cfg.pretrain_lr), seed=cfg.shuffle_seed)
    stream = data.compose_stream(test_id, oods[0], kappa=cfg.kappa, seed=cfg.stream_seed)
    return {
        "run_config": cfg,
        "spec": spec,
        "train": train,
        "test_id": test_id,
        "oods": oods,
        "model": model,
        "stream": stream,
    }


def fresh_state(canonical_fixture, cfg: RunConfig) -> engine.AutoState:
    model = nn.clone_frozen(canonical_fixture["model"])
    return engine.init_state(model, canonical_fixture["train"], cfg)
