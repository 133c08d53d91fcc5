"""Reference-run properties of the pinned canonical scenario."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from helpers import slice_log
from oodstream import data, engine, metrics, nn, scoring


def test_pretrained_model_reaches_id_accuracy_floor(canonical):
    acc = nn.accuracy(canonical["model"], canonical["test_id"].features,
                      canonical["test_id"].labels)
    assert acc >= 0.97


def test_predictions_match_accuracy_report(canonical):
    model = canonical["model"]
    test_id = canonical["test_id"]
    hits = sum(
        scoring.predict(nn.forward_logits(model, x)) == y
        for x, y in zip(test_id.features[:500], test_id.labels[:500])
    )
    assert hits / 500 == pytest.approx(
        nn.accuracy(model, test_id.features[:500], test_id.labels[:500]), abs=0)


def test_frozen_scores_clear_auroc_floor(canonical_replay):
    # the scenario must be nontrivial but imperfect: the adaptive engine
    # needs headroom, so the frozen baseline sits between 0.7 and ~0.95
    assert metrics.auroc(canonical_replay.frozen) > 0.7


def test_timeseries_second_segment_trend(canonical, canonical_replay):
    cfg = canonical["run_config"]
    stream = data.compose_timeseries(canonical["test_id"], canonical["oods"],
                                     kappa=cfg.kappa, seed=cfg.stream_seed)
    assert len(stream.segment_bounds) == 2
    boundary = stream.segment_bounds[1]

    model = nn.clone_frozen(canonical["model"])
    state = engine.init_state(model, canonical["train"], cfg)
    adaptive = engine.run_stream(state, cfg, stream)

    frozen = engine.run_posthoc(canonical["model"], canonical_replay.margins0, stream)

    # Each segment's counts follow from its own rows, so they add up to the run's.
    starts = stream.segment_bounds
    for log in (adaptive, frozen):
        parts = [slice_log(log, lo, hi).counts
                 for lo, hi in zip(starts, starts[1:] + (len(log),))]
        for name, total in asdict(log.counts).items():
            assert sum(getattr(part, name) for part in parts) == total, name
    assert adaptive.counts.updates > 0
    c = frozen.counts
    assert c.updates == c.bank_replacements == c.contaminated_replacements == 0

    seg2_adaptive = slice_log(adaptive, boundary, len(adaptive))
    seg2_frozen = slice_log(frozen, boundary, len(frozen))
    assert metrics.fpr_at_tpr(seg2_adaptive) < metrics.fpr_at_tpr(seg2_frozen)
    assert metrics.auroc(seg2_adaptive) > metrics.auroc(seg2_frozen)
