"""The online loop: step semantics, state invariants, degeneracies."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from conftest import fresh_state
from helpers import COLUMNS, assert_columns_equal, run_posthoc_reference
from oodstream import filtering, nn, scoring
from oodstream.data import Stream
from oodstream.engine import AutoState, run_posthoc, run_stream, step
from oodstream.filtering import FilterDecision
from oodstream.runconfig import ConfigError, RunConfig, trainable_layers


def tiny_setup(m_in=0.9, m_out=0.5, iters_t=2, trainable_groups="block2", **cfg_overrides):
    """Small deterministic state with hand-placed margins."""
    model = nn.init_mlp([2, 6, 6, 3], seed=3)
    rng = np.random.default_rng(0)
    for b in model.biases:
        b[:] = rng.normal(0, 0.3, size=b.shape)
    bank = rng.normal(0, 1, size=(3, 2))
    margins = filtering.Margins(m_in=m_in, m_out=m_out, m_count=1)
    config = RunConfig(iters_t=iters_t, trainable_groups=trainable_groups, **cfg_overrides)
    state = AutoState(model_t=model, model_0=nn.clone_frozen(model), margins=margins,
                      bank=bank, trainable=trainable_layers(trainable_groups, model.num_layers))
    return state, config


def snapshot(model):
    return [w.copy() for w in model.weights] + [b.copy() for b in model.biases]


def unchanged(model, snap):
    return all(np.array_equal(a, b) for a, b in zip(snap, model.weights + model.biases))


def find_input_with_decision(state, config, want, rng, scale=3.0):
    for _ in range(2000):
        x = rng.normal(0, scale, size=2)
        s = scoring.score(nn.forward_logits(state.model_t, x))
        if filtering.classify(state.margins, s) == want:
            return x
    raise AssertionError(f"could not find an input classified as {want}")


# ---------------------------------------------------------------------------
# step semantics


def test_abstain_changes_nothing():
    state, config = tiny_setup()
    rng = np.random.default_rng(1)
    x = find_input_with_decision(state, config, FilterDecision.ABSTAIN, rng)
    model_snap = snapshot(state.model_t)
    bank_snap = state.bank.copy()
    m_before = state.margins
    event, trace = step(state, config, x, (False, 1))
    assert event.decision == FilterDecision.ABSTAIN
    assert trace is None
    assert unchanged(state.model_t, model_snap)
    assert np.array_equal(state.bank, bank_snap)
    assert state.margins == m_before


def test_pseudo_id_replaces_bank_without_updates():
    state, config = tiny_setup()
    rng = np.random.default_rng(2)
    x = find_input_with_decision(state, config, FilterDecision.PSEUDO_ID, rng)
    model_snap = snapshot(state.model_t)
    event, trace = step(state, config, x, (False, 0))
    assert event.decision == FilterDecision.PSEUDO_ID
    assert trace is None
    assert unchanged(state.model_t, model_snap)
    assert np.array_equal(state.bank[event.prediction], x)
    # the same arrival through run_stream counts as one bank write
    state, config = tiny_setup()
    log = run_stream(state, config, make_stream([x]))
    assert log.counts.bank_replacements == 1


def test_pseudo_ood_runs_t_iterations_and_one_margin_update():
    state, config = tiny_setup(iters_t=2)
    rng = np.random.default_rng(3)
    x = find_input_with_decision(state, config, FilterDecision.PSEUDO_OOD, rng)
    m_before = state.margins
    event, trace = step(state, config, x, (True, None))
    assert event.decision == FilterDecision.PSEUDO_OOD
    assert trace is not None and len(trace.losses) == 3  # T losses + final
    # exactly one margin update, applied with the arrival-time score
    expected = filtering.update_outlier_margin(m_before, event.score_at_arrival)
    assert state.margins == expected
    assert event.m_out_after == expected.m_out


def test_pseudo_ood_t0_updates_margin_but_not_model():
    state, config = tiny_setup(iters_t=0)
    rng = np.random.default_rng(4)
    x = find_input_with_decision(state, config, FilterDecision.PSEUDO_OOD, rng)
    model_snap = snapshot(state.model_t)
    m_before = state.margins
    event, trace = step(state, config, x, (True, None))
    assert trace is None
    assert unchanged(state.model_t, model_snap)
    assert state.margins == filtering.update_outlier_margin(m_before, event.score_at_arrival)


def test_t0_replay_never_runs_model_0(canonical, monkeypatch):
    """At T = 0 no episode reads the frozen model's prediction, so a replay
    runs no forward pass of ``model_0``; ``test_pinned_bytes`` pins its log
    bytes as they were while it still did."""
    cfg = replace(canonical["run_config"], iters_t=0)
    state = fresh_state(canonical, cfg)
    forward, models = nn.forward_logits, []

    def counted(model, x):
        models.append(model)
        return forward(model, x)

    monkeypatch.setattr(nn, "forward_logits", counted)
    log = run_stream(state, cfg, canonical["stream"])
    assert log.counts.updates > 0
    assert sum(m is state.model_0 for m in models) == 0
    assert len(models) == len(canonical["stream"])


def test_frozen_groups_stay_bitwise_constant():
    state, config = tiny_setup()
    rng = np.random.default_rng(5)
    w0 = state.model_t.weights[0].copy()
    b0 = state.model_t.biases[0].copy()
    wfc = state.model_t.weights[2].copy()
    for _ in range(5):
        x = find_input_with_decision(state, config, FilterDecision.PSEUDO_OOD, rng)
        step(state, config, x, (True, None))
    assert np.array_equal(state.model_t.weights[0], w0)
    assert np.array_equal(state.model_t.biases[0], b0)
    assert np.array_equal(state.model_t.weights[2], wfc)
    assert not np.array_equal(
        state.model_t.weights[1], state.model_0.weights[1]
    ), "trainable block should have moved"


def test_hidden_truth_never_affects_decisions():
    runs = []
    for truth in ((False, 0), (True, None)):
        state, config = tiny_setup()
        rng = np.random.default_rng(6)
        xs = rng.normal(0, 2, size=(40, 2))
        events = [step(state, config, x, truth)[0] for x in xs]
        runs.append(events)
    for a, b in zip(*runs):
        assert a.score_at_arrival == b.score_at_arrival
        assert a.decision == b.decision
        assert a.prediction == b.prediction
        assert a.m_out_after == b.m_out_after


def test_input_dimension_error_propagates():
    state, config = tiny_setup()
    with pytest.raises(ValueError, match="expected input of shape"):
        step(state, config, np.zeros(5), (False, 0))


def test_non_finite_loss_aborts():
    state, config = tiny_setup()
    state.bank[0, 0] = np.inf  # poisoned bank entry -> nan loss
    rng = np.random.default_rng(7)
    x = find_input_with_decision(state, config, FilterDecision.PSEUDO_OOD, rng)
    with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=r"^non-finite loss nan at stream index \d+$"):
        step(state, config, x, (True, None))


# ---------------------------------------------------------------------------
# run_stream


def make_stream(features, is_ood=None, labels=None) -> Stream:
    n = len(features)
    return Stream(
        features=np.asarray(features, dtype=np.float64),
        is_ood=np.zeros(n, dtype=bool) if is_ood is None else np.asarray(is_ood),
        labels=np.zeros(n, dtype=np.int64) if labels is None else np.asarray(labels),
    )


def test_empty_stream_empty_log():
    state, config = tiny_setup()
    snap = snapshot(state.model_t)
    log = run_stream(state, config, make_stream(np.zeros((0, 2))))
    assert len(log) == 0
    assert unchanged(state.model_t, snap)


def test_high_score_stream_never_updates():
    state, config = tiny_setup(m_in=-1.0, m_out=-2.0)  # every score is pseudo-ID
    snap = snapshot(state.model_t)
    rng = np.random.default_rng(8)
    log = run_stream(state, config, make_stream(rng.normal(0, 1, size=(50, 2))))
    assert log.counts.pseudo_ood == 0 and log.counts.updates == 0
    assert unchanged(state.model_t, snap)
    assert log.counts.pseudo_id == 50 == log.counts.bank_replacements


def test_log_partition_and_length():
    state, config = tiny_setup()
    rng = np.random.default_rng(9)
    stream = make_stream(rng.normal(0, 2, size=(120, 2)),
                         is_ood=rng.random(120) < 0.5)
    log = run_stream(state, config, stream)
    c = log.counts
    assert len(log) == len(stream)
    assert c.pseudo_id + c.pseudo_ood + c.abstain == len(stream)
    assert c.updates == c.pseudo_ood
    assert state.step_counter == len(stream)


def test_m_in_constant_and_m_out_monotone_over_run():
    state, config = tiny_setup()
    m_in0 = state.margins.m_in
    rng = np.random.default_rng(10)
    stream = make_stream(rng.normal(0, 2, size=(200, 2)))
    log = run_stream(state, config, stream)
    assert state.margins.m_in == m_in0
    outs = log.m_out.tolist()
    assert all(b <= a for a, b in zip(outs, outs[1:]))


def test_model0_probe_constant_over_run():
    state, config = tiny_setup()
    probe = np.array([0.3, -0.7])
    ref = nn.forward_logits(state.model_0, probe).copy()
    rng = np.random.default_rng(11)
    run_stream(state, config, make_stream(rng.normal(0, 2, size=(150, 2))))
    assert np.array_equal(nn.forward_logits(state.model_0, probe), ref)


def test_events_store_arrival_time_scores():
    # replaying the stream step-by-step from the initial checkpoint reproduces
    # the logged scores; re-scoring everything with the final model does not
    state, config = tiny_setup()
    initial = nn.clone_frozen(state.model_t)
    initial_bank = state.bank.copy()
    rng = np.random.default_rng(12)
    stream = make_stream(rng.normal(0, 2, size=(150, 2)))
    log = run_stream(state, config, stream)
    assert log.counts.updates > 0

    replay_state = AutoState(model_t=nn.clone_frozen(initial),
                             model_0=nn.clone_frozen(initial),
                             margins=filtering.Margins(0.9, 0.5, 1),
                             bank=initial_bank, trainable=state.trainable)
    replay = run_stream(replay_state, config, stream)
    assert replay.score.tolist() == log.score.tolist()

    final_scores = [scoring.score(nn.forward_logits(state.model_t, x)) for x in stream.features]
    mismatch = sum(a != s for a, s in zip(log.score.tolist(), final_scores))
    assert mismatch > 0, "post-hoc re-scoring should differ from arrival-time scores"


def test_run_stream_in_two_calls_equals_one_call():
    # a second call on the same state goes on where the first stopped: its
    # log continues the first one's rows, traces and counters
    rng = np.random.default_rng(13)
    features = rng.normal(0, 2, size=(50, 2))
    is_ood = rng.random(50) < 0.5
    labels = np.where(is_ood, -1, rng.integers(0, 3, size=50))
    split_state, config = tiny_setup()
    first = run_stream(split_state, config, make_stream(features[:30], is_ood[:30],
                                                        labels[:30]))
    second = run_stream(split_state, config, make_stream(features[30:], is_ood[30:],
                                                         labels[30:]))
    whole_state, _ = tiny_setup()
    whole = run_stream(whole_state, config, make_stream(features, is_ood, labels))
    assert whole.counts.updates > 0 and whole.counts.bank_replacements > 0
    joined = {c: np.concatenate([getattr(first, c), getattr(second, c)]) for c in COLUMNS}
    assert_columns_equal(type(whole)(**joined), whole)
    assert first.update_traces + second.update_traces == whole.update_traces
    for key in ("updates", "bank_replacements", "contaminated_replacements"):
        assert getattr(first.counts, key) + getattr(second.counts, key) == \
            getattr(whole.counts, key)
    assert split_state.step_counter == whole_state.step_counter == 50
    assert split_state.margins == whole_state.margins
    assert np.array_equal(split_state.bank, whole_state.bank)


def test_config_defaults_are_pinned():
    cfg = RunConfig()
    assert cfg.lambda1 == 1.0
    assert cfg.lambda2 == 0.1
    assert cfg.phi == 0.2
    assert cfg.iters_t == 2
    assert cfg.k1 == 0.0 and cfg.k2 == 3.0
    assert cfg.stats_subsample_n == 0
    assert cfg.lr == 0.001
    assert cfg.trainable_groups == "last_block"


def test_bank_only_objective_still_fires_episodes():
    # with the outlier and consistency weights at zero, pseudo-OOD arrivals
    # still trigger update episodes that optimize the bank term alone
    state, config = tiny_setup(lambda1=0.0, lambda2=0.0)
    initial = snapshot(state.model_t)
    rng = np.random.default_rng(18)
    stream = make_stream(rng.normal(0, 2, size=(120, 2)))
    log = run_stream(state, config, stream)
    assert log.counts.updates == log.counts.pseudo_ood > 0
    assert not unchanged(state.model_t, initial)


# ---------------------------------------------------------------------------
# frozen-baseline degeneracy


def test_degenerate_engine_matches_posthoc_scorer():
    state, config = tiny_setup(lambda1=0.0, lambda2=0.0, trainable_groups="none")
    margins0 = state.margins
    model0 = nn.clone_frozen(state.model_t)
    rng = np.random.default_rng(14)
    stream = make_stream(rng.normal(0, 2, size=(200, 2)),
                         is_ood=rng.random(200) < 0.5)
    log = run_stream(state, config, stream)
    baseline = run_posthoc_reference(model0, margins0, stream, update_margins=True)
    assert_columns_equal(log, baseline)
    assert unchanged(state.model_t, snapshot(model0))


def test_posthoc_frozen_margins_mode():
    state, config = tiny_setup()
    model0 = nn.clone_frozen(state.model_t)
    rng = np.random.default_rng(15)
    stream = make_stream(rng.normal(0, 2, size=(100, 2)))
    log = run_posthoc(model0, state.margins, stream)
    outs = set(log.m_out.tolist())
    assert outs == {state.margins.m_out}


# ---------------------------------------------------------------------------
# init_state


def test_init_state_resolves_run_config(canonical):
    # the trainable groups become the state's layer mask, once
    cfg = RunConfig(trainable_groups="block1+fc")
    state = fresh_state(canonical, cfg)
    assert state.trainable == (True, False, True)
    assert fresh_state(canonical, RunConfig()).trainable == (False, True, False)
    with pytest.raises(ConfigError, match="unknown parameter groups"):
        fresh_state(canonical, RunConfig(trainable_groups="block9"))


def test_init_state_subsample_zero_keeps_every_row(canonical):
    n = len(canonical["train"].features)
    st_all = fresh_state(canonical, RunConfig(stats_subsample_n=0))
    for keep in (n, n + 1, 10**9):
        assert fresh_state(canonical, RunConfig(stats_subsample_n=keep)).margins == \
            st_all.margins
    assert fresh_state(canonical, RunConfig(stats_subsample_n=n - 1)).margins != \
        st_all.margins


def test_init_state_subsample(canonical):
    st_all = fresh_state(canonical, RunConfig())
    st_sub = fresh_state(canonical, RunConfig(stats_subsample_n=100))
    assert st_all.margins != st_sub.margins
    # subsampled margins approximate the full ones
    assert st_sub.margins.m_in == pytest.approx(st_all.margins.m_in, abs=0.05)
