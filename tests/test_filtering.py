"""The in-out-aware filter: statistics, margins, classification, greedy update."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodstream.filtering import (FilterDecision, classify, estimate_id_stats, init_margins,
                                 update_outlier_margin)


def test_stats_constant_list():
    mu, sigma = estimate_id_stats(np.array([1.0, 1.0, 1.0]))
    assert mu == 1.0 and sigma == 0.0


def test_stats_two_point_symmetric():
    mu, sigma = estimate_id_stats(np.array([0.9, 1.1]))
    assert mu == pytest.approx(1.0, abs=1e-15)
    assert sigma == pytest.approx(0.1, abs=1e-15)


def test_stats_population_not_sample_std():
    # population convention: sqrt(sum((s-mu)^2) / N), not / (N-1)
    _, sigma = estimate_id_stats(np.array([0.0, 2.0]))
    assert sigma == pytest.approx(1.0, abs=1e-15)


def test_stats_empty_errors():
    with pytest.raises(ValueError):
        estimate_id_stats(np.array([]))


def test_init_margins_reference_values():
    m = init_margins(0.99, 0.01, k1=0.0, k2=3.0)
    assert m.m_in == pytest.approx(0.99, abs=1e-15)
    assert m.m_out == pytest.approx(0.96, abs=1e-15)
    assert m.m_count == 1


def test_init_margins_degenerate_sigma():
    m = init_margins(0.5, 0.0, k1=1.0, k2=2.0)
    assert m.m_in == m.m_out == 0.5


def test_init_margins_zero_ks():
    m = init_margins(0.8, 0.05, k1=0.0, k2=0.0)
    assert m.m_in == m.m_out == 0.8


def test_init_margins_band_ordering():
    rng = np.random.default_rng(0)
    for _ in range(50):
        mu, sigma = float(rng.normal()), float(abs(rng.normal()))
        k1, k2 = float(rng.uniform(0, 3)), float(rng.uniform(0, 3))
        m = init_margins(mu, sigma, k1, k2)
        assert m.m_in >= m.m_out


def test_classify_bands():
    m = init_margins(0.975, 0.005, k1=3.0, k2=3.0)
    assert m.m_in == pytest.approx(0.99) and m.m_out == pytest.approx(0.96)
    assert classify(m, 0.995) == FilterDecision.PSEUDO_ID
    assert classify(m, 0.95) == FilterDecision.PSEUDO_OOD
    assert classify(m, 0.97) == FilterDecision.ABSTAIN


def test_classify_boundary_abstains():
    m = init_margins(0.975, 0.005, k1=3.0, k2=3.0)
    assert classify(m, m.m_in) == FilterDecision.ABSTAIN
    assert classify(m, m.m_out) == FilterDecision.ABSTAIN


def test_classify_pure_function():
    m = init_margins(0.9, 0.02, k1=0.0, k2=3.0)
    for _ in range(3):
        assert classify(m, 0.7) == FilterDecision.PSEUDO_OOD


def test_update_margin_formula():
    m = init_margins(0.5, 0.0, k1=0.0, k2=0.0)
    m = update_outlier_margin(m, 0.4)  # anchor counts: (1*0.5 + 0.4)/2
    assert m.m_out == pytest.approx(0.45, abs=1e-15)
    # hand-check the printed example: M=3, m_out=0.5, score=0.2 -> 0.425
    from dataclasses import replace
    m3 = replace(m, m_out=0.5, m_count=3)
    m4 = update_outlier_margin(m3, 0.2)
    assert m4.m_out == pytest.approx(0.425, abs=1e-15)
    assert m4.m_count == 4


def test_update_margin_no_change_above():
    m = init_margins(0.5, 0.0, k1=0.0, k2=0.0)
    m2 = update_outlier_margin(m, 0.6)
    assert m2 == m


def test_update_margin_boundary_score_ignored():
    m = init_margins(0.5, 0.0, k1=0.0, k2=0.0)
    assert update_outlier_margin(m, 0.5) == m


def test_m_in_never_touched_and_m_out_monotone():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = init_margins(0.9, 0.05, k1=0.0, k2=1.0)
        m_in0 = m.m_in
        prev = m.m_out
        for s in rng.uniform(0.0, 1.2, size=200):
            m = update_outlier_margin(m, float(s))
            assert m.m_in == m_in0
            assert m.m_out <= prev
            prev = m.m_out


def test_replay_equivalence_running_mean_oracle():
    # the trajectory equals a straight-line replay that recomputes the mean
    # of all accepted values (anchor included) from scratch each step
    rng = np.random.default_rng(9)
    for trial in range(50):
        m = init_margins(float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.0, 0.1)),
                         k1=0.0, k2=float(rng.uniform(0.0, 3.0)))
        accepted = [m.m_out]
        for s in rng.uniform(0.0, 1.2, size=300):
            if s < sum(accepted) / len(accepted):
                accepted.append(float(s))
            m = update_outlier_margin(m, float(s))
            assert m.m_out == pytest.approx(sum(accepted) / len(accepted), abs=1e-12)
        assert m.m_count == len(accepted)


@settings(max_examples=300, deadline=None)
@given(mu=st.floats(-2.0, 2.0), sigma=st.floats(0.0, 1.0), k1=st.floats(0.0, 3.0),
       k2=st.floats(0.0, 3.0), m_count=st.integers(0, 10**6),
       arrivals=st.lists(st.one_of(st.floats(-3.0, 3.0), st.integers(-4, 4)), max_size=60))
def test_margins_move_only_on_accepted_scores(mu, sigma, k1, k2, m_count, arrivals):
    """Arrival by arrival, as the engine runs the filter: m_in never moves,
    m_out never rises, and m_count grows by one exactly when a score lands
    below m_out; any other score leaves the margins as they were. Half the
    scores sit a few ulps from m_out, where the running mean's rounding
    could carry it up: an integer arrival is that many ulps from the m_out
    it meets."""
    margins = init_margins(mu, sigma, k1, k2)
    margins = replace(margins, m_count=margins.m_count + m_count)
    for arrival in arrivals:
        s = arrival
        if isinstance(arrival, int):
            ulp = margins.m_out - float(np.nextafter(margins.m_out, -np.inf))
            s = float(margins.m_out + arrival * ulp)
        before = margins
        if classify(margins, s) == FilterDecision.PSEUDO_OOD:
            margins = update_outlier_margin(margins, s)
        accepted = s < before.m_out
        assert margins.m_in == before.m_in
        assert margins.m_out <= before.m_out
        assert margins.m_count == before.m_count + accepted
        if not accepted:
            assert margins is before


def test_canonical_auto_m_out_never_rises(canonical, canonical_replay):
    m_out0 = canonical_replay.margins0.m_out
    log, _ = canonical_replay[canonical["run_config"]]
    assert log.counts.updates > 0
    assert log.m_out[0] <= m_out0
    assert np.all(np.diff(log.m_out) <= 0.0)
    assert np.count_nonzero(np.diff(log.m_out)) > 0
