"""The columnar event log: derived counts, and both replay modes equal their
per-arrival references column for column."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fresh_state
from helpers import assert_columns_equal, event_rows, log_from_columns, run_posthoc_reference
from oodstream import engine, filtering, nn
from oodstream.data import Stream
from oodstream.engine import DECISIONS
from oodstream.filtering import FilterDecision
from oodstream.runconfig import RunConfig
from oodstream.scoring import score_rows


def test_decision_codes_follow_filter_decision_order():
    assert DECISIONS == (FilterDecision.PSEUDO_ID, FilterDecision.PSEUDO_OOD,
                         FilterDecision.ABSTAIN)


@given(st.lists(st.integers(0, len(DECISIONS) - 1), max_size=300))
def test_counts_partition_the_log(codes):
    log = log_from_columns(np.zeros(len(codes)), [False] * len(codes), decision=codes)
    c = log.counts
    assert c.pseudo_id + c.pseudo_ood + c.abstain == len(log) == len(codes)
    assert [c.pseudo_id, c.pseudo_ood, c.abstain] == [codes.count(i) for i in range(3)]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60),
       quantiles=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_run_posthoc_equals_reference_on_random_streams(seed, n, quantiles):
    rng = np.random.default_rng(seed)
    model = nn.init_mlp([3, 8, 8, 4], seed=seed % 1000)
    for b in model.biases:
        b[:] = rng.normal(0.0, 0.5, size=b.shape)
    is_ood = rng.random(n) < 0.5
    stream = Stream(features=rng.normal(0.0, 3.0, size=(n, 3)), is_ood=is_ood,
                    labels=np.where(is_ood, -1, rng.integers(0, 4, size=n)))
    # margins at score quantiles of random inputs, so all three decisions occur
    probe = rng.normal(0.0, 3.0, size=(20, 3))
    scores = score_rows(np.array([nn.forward_logits(model, x) for x in probe]))
    m_out, m_in = sorted(np.quantile(scores, quantiles).tolist())
    margins = filtering.Margins(m_in=m_in, m_out=m_out, m_count=1)
    fast = engine.run_posthoc(model, margins, stream)
    ref = run_posthoc_reference(model, margins, stream, update_margins=False)
    assert_columns_equal(fast, ref)
    assert fast.counts == ref.counts
    assert fast.update_traces == ref.update_traces == []


def test_fixed_margin_posthoc_score_on_a_margin_abstains():
    rng = np.random.default_rng(5)
    model = nn.init_mlp([3, 8, 4], seed=5)
    stream = Stream(features=rng.normal(0.0, 3.0, size=(40, 3)), is_ood=np.zeros(40, bool),
                    labels=np.zeros(40, dtype=np.int64))
    scores = score_rows(np.array([nn.forward_logits(model, x) for x in stream.features]))
    on_out, on_in = np.argsort(scores)[[10, 30]]
    margins = filtering.Margins(m_in=float(scores[on_in]), m_out=float(scores[on_out]),
                                m_count=1)
    log = engine.run_posthoc(model, margins, stream)
    abstain = DECISIONS.index(FilterDecision.ABSTAIN)
    assert log.decision[on_out] == log.decision[on_in] == abstain
    assert log.counts.pseudo_ood == 10 and log.counts.pseudo_id == 9
    assert np.all(log.m_out == margins.m_out)
    assert_columns_equal(log, run_posthoc_reference(model, margins, stream,
                                                    update_margins=False))


def step_by_step(state, config, stream):
    """Events and traces from calling ``engine.step`` on every arrival."""
    events, traces = [], []
    for x, is_ood, label in zip(stream.features, stream.is_ood, stream.labels):
        event, trace = engine.step(state, config, x, (bool(is_ood), int(label)))
        events.append(event)
        if trace is not None:
            traces.append(trace)
    return events, traces


def test_run_stream_rows_equal_step_events(canonical, canonical_replay):
    stream = canonical["stream"]
    config = RunConfig()
    log, state = canonical_replay[config]
    ref_state = fresh_state(canonical, config)
    events, traces = step_by_step(ref_state, config, stream)

    assert event_rows(log) == events
    assert log.update_traces == traces
    writes = [e for e in events if e.decision == FilterDecision.PSEUDO_ID]
    counts = log.counts
    assert counts.updates == sum(e.decision == FilterDecision.PSEUDO_OOD for e in events) > 0
    assert counts.bank_replacements == len(writes)
    assert counts.contaminated_replacements == sum(e.ground_truth_is_ood for e in writes) > 0
    assert state.margins == ref_state.margins
    assert np.array_equal(state.bank, ref_state.bank)
