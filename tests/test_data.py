"""Scenario generation and stream composition."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import THREE_SOURCES, compose_reference, draw_id_set_reference
from oodstream import data
from oodstream.data import (GaussianSource, LabeledSet, circle_means, compose_mixed,
                            compose_stream, compose_timeseries, make_scenario)
from oodstream.runconfig import RunConfig


def small_spec(**overrides) -> RunConfig:
    """A small two-class scenario; its class means are (0, 1) and (0, -1)."""
    return RunConfig(**{
        "dim": 2, "classes": 2, "id_spread": 0.2,
        "ood_sources": (GaussianSource(center=(0.0, 4.0), spread=0.5),),
        "train_n": 40, "test_id_n": 30, "ood_n": 25, "seed": 7, **overrides})


def test_make_scenario_shapes_and_labels():
    train, test_id, oods = make_scenario(small_spec())
    assert train.features.shape == (40, 2) and test_id.features.shape == (30, 2)
    assert set(np.unique(train.labels)) == {0, 1}
    assert len(oods) == 1 and oods[0].shape == (25, 2) and oods[0].dtype == np.float64


def test_make_scenario_deterministic():
    a = make_scenario(small_spec())
    b = make_scenario(small_spec())
    assert np.array_equal(a[0].features, b[0].features)
    assert np.array_equal(a[1].features, b[1].features)
    assert np.array_equal(a[2][0], b[2][0])


def test_make_scenario_degenerate_spread():
    spec = small_spec(id_spread=1e-300)
    _, test_id, _ = make_scenario(spec)
    means = circle_means(spec.classes, spec.mean_radius, spec.dim)
    for x, y in zip(test_id.features, test_id.labels):
        assert np.allclose(x, means[y], atol=1e-290)


@settings(max_examples=60, deadline=None)
@given(classes=st.integers(2, 6), dim=st.integers(1, 4),
       total=st.one_of(st.integers(0, 7), st.integers(8, 300)),
       id_spread=st.floats(1e-3, 3.0), mean_radius=st.floats(0.1, 5.0),
       seed=st.integers(0, 2**32 - 1))
def test_draw_id_set_equals_per_class_reference(classes, dim, total, id_spread,
                                                mean_radius, seed):
    """One (total, d) draw has the bits of the per-class draws joined, and
    leaves the generator where they leave it."""
    sources = () if dim == 2 else (GaussianSource(center=(4.0,) * dim, spread=0.5),)
    cfg = RunConfig(classes=classes, dim=dim, id_spread=id_spread, mean_radius=mean_radius,
                    ood_sources=sources)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = data._draw_id_set(cfg, total, rng)
    want = draw_id_set_reference(cfg, total, ref_rng)
    assert got.features.tobytes() == want.features.tobytes()
    assert got.features.shape == want.features.shape == (total, dim)
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.num_classes == want.num_classes == classes
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_gaussian_source_center_and_spread():
    """One pool per source, in file order, each around its own center."""
    _, _, oods = make_scenario(small_spec(ood_sources=THREE_SOURCES, ood_n=2000))
    assert len(oods) == len(THREE_SOURCES)
    for pool, src in zip(oods, THREE_SOURCES):
        assert np.allclose(pool.mean(axis=0), src.center, atol=0.1 * src.spread + 0.05)
        assert np.allclose(pool.std(axis=0), src.spread, atol=0.1 * src.spread)


def test_gaussian_source_in_three_dims():
    center = (1.0, -2.0, 3.0)
    spec = small_spec(dim=3, ood_sources=(GaussianSource(center=center, spread=0.5),),
                      ood_n=2000)
    _, test_id, oods = make_scenario(spec)
    assert test_id.features.shape == (30, 3) and oods[0].shape == (2000, 3)
    assert np.allclose(oods[0].mean(axis=0), center, atol=0.1)


# ---------------------------------------------------------------------------
# streams


def test_compose_stream_kappa_zero_pure_ood():
    _, test_id, oods = make_scenario(small_spec())
    stream = compose_stream(test_id, oods[0], kappa=0.0, seed=1)
    assert np.all(stream.is_ood)
    assert len(stream) == len(oods[0])


def test_compose_stream_invalid_kappa():
    _, test_id, oods = make_scenario(small_spec())
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            compose_stream(test_id, oods[0], kappa=bad, seed=1)


def test_compose_stream_no_repeats():
    _, test_id, oods = make_scenario(small_spec())
    stream = compose_stream(test_id, oods[0], kappa=0.5, seed=3)
    rows = [tuple(r) for r in stream.features]
    assert len(rows) == len(set(rows))


def test_compose_stream_deterministic():
    _, test_id, oods = make_scenario(small_spec())
    s1 = compose_stream(test_id, oods[0], kappa=0.5, seed=9)
    s2 = compose_stream(test_id, oods[0], kappa=0.5, seed=9)
    assert np.array_equal(s1.features, s2.features)
    assert np.array_equal(s1.is_ood, s2.is_ood)


def test_compose_stream_id_fraction_binomial_bound():
    spec = small_spec(test_id_n=20000, ood_n=20000)
    _, test_id, oods = make_scenario(spec)
    kappa = 0.5
    stream = compose_stream(test_id, oods[0], kappa=kappa, seed=11)
    n = min(len(stream), 10_000)
    frac = float(np.mean(~stream.is_ood[:n]))
    sigma = math.sqrt(kappa * (1 - kappa) / n)
    assert abs(frac - kappa) <= 3 * sigma


def test_compose_mixed_single_source_reduces_to_stream():
    _, test_id, oods = make_scenario(small_spec())
    a = compose_stream(test_id, oods[0], kappa=0.4, seed=5)
    b = compose_mixed(test_id, [oods[0]], kappa=0.4, seed=5)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.is_ood, b.is_ood)


def test_compose_mixed_two_sources_balanced():
    spec = small_spec(
        ood_sources=(GaussianSource(center=(0.0, 4.0), spread=0.5),
                     GaussianSource(center=(0.0, -4.0), spread=0.5)),
        test_id_n=4000, ood_n=2000)
    _, test_id, oods = make_scenario(spec)
    stream = compose_mixed(test_id, oods, kappa=0.3, seed=6)
    ood_feats = stream.features[stream.is_ood]
    from_first = np.sum(ood_feats[:, 1] > 0)
    n_ood = len(ood_feats)
    sigma = math.sqrt(n_ood * 0.5 * 0.5)
    assert abs(from_first - n_ood / 2) <= 3 * sigma


def test_compose_mixed_length_matches_stream_on_pooled_input():
    spec = small_spec(
        ood_sources=(GaussianSource(center=(0.0, 4.0), spread=0.5),
                     GaussianSource(center=(0.0, -4.0), spread=0.5)))
    _, test_id, oods = make_scenario(spec)
    a = compose_stream(test_id, np.concatenate(oods), kappa=0.4, seed=8)
    b = compose_mixed(test_id, oods, kappa=0.4, seed=8)
    assert len(a) == len(b)


def test_compose_timeseries_segments():
    spec = small_spec(
        ood_sources=(GaussianSource(center=(0.0, 4.0), spread=0.5),
                     GaussianSource(center=(0.0, -4.0), spread=0.5)))
    _, test_id, oods = make_scenario(spec)
    stream = compose_timeseries(test_id, oods, kappa=0.5, seed=10)
    assert len(stream.segment_bounds) == 2
    assert stream.segment_bounds[0] == 0
    boundary = stream.segment_bounds[1]
    seg1 = stream.features[:boundary][stream.is_ood[:boundary]]
    # source 2 lives at y < 0; segment 1 must contain none of it
    assert np.all(seg1[:, 1] > 0)


def test_compose_timeseries_uneven_split_equals_per_segment_reference():
    """7 ID rows over 3 sources split 3, 2, 2: each segment is the reference
    interleaver on its chunk of the seeded ID order, and the bounds are the
    running segment lengths."""
    rng = np.random.default_rng(5)
    id_set = LabeledSet(rng.normal(size=(7, 2)), rng.integers(0, 3, size=7), 3)
    pools = [rng.normal(size=(n, 2)) + 5.0 for n in (4, 6, 5)]
    seed, kappa = 12, 0.5
    stream = compose_timeseries(id_set, pools, kappa, seed)
    id_order = np.random.default_rng(seed).permutation(7)
    chunks = (id_order[:3], id_order[3:5], id_order[5:])
    segments = [compose_reference(id_set.features[idx], id_set.labels[idx], pool, kappa,
                                  np.random.default_rng([seed, k]))
                for k, (idx, pool) in enumerate(zip(chunks, pools))]
    assert [int(np.count_nonzero(~seg.is_ood)) for seg in segments] == [3, 2, 2]
    lengths = [len(seg) for seg in segments]
    assert stream.segment_bounds == (0, lengths[0], lengths[0] + lengths[1])
    assert all(type(b) is int for b in stream.segment_bounds)
    for got, want in ((stream.features, [seg.features for seg in segments]),
                      (stream.is_ood, [seg.is_ood for seg in segments]),
                      (stream.labels, [seg.labels for seg in segments])):
        want = np.concatenate(want)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _run_composer(composer: str, id_set, oods, kappa, seed):
    """``compose_{composer}`` on ``oods``; the single-source composer takes the first pool."""
    fn = getattr(data, f"compose_{composer}")
    return fn(id_set, oods[0] if composer == "stream" else oods, kappa, seed)


@pytest.mark.parametrize("composer", ["stream", "mixed", "timeseries"])
def test_ood_arrivals_are_pool_rows_labeled_minus_one(composer):
    """The pools carry no labels: the composed stream labels exactly its OOD
    arrivals -1, and each OOD arrival is a row of one of the pools."""
    spec = small_spec(
        ood_sources=(GaussianSource(center=(0.0, 4.0), spread=0.5),
                     GaussianSource(center=(0.0, -4.0), spread=0.5)))
    _, test_id, oods = make_scenario(spec)
    stream = _run_composer(composer, test_id, oods, kappa=0.5, seed=4)
    assert stream.is_ood.any() and not stream.is_ood.all()
    assert np.array_equal(stream.labels == -1, stream.is_ood)
    pool_rows = {row.tobytes() for pool in oods for row in pool}
    assert all(row.tobytes() in pool_rows for row in stream.features[stream.is_ood])


def _compose_outcome(composer: str, id_set, oods, kappa, seed):
    """The composed stream's fields, or the error the composer raised."""
    try:
        stream = _run_composer(composer, id_set, oods, kappa, seed)
    except ValueError as exc:
        return str(exc)
    arrays = [(a.dtype.str, a.shape, a.tobytes())
              for a in (stream.features, stream.is_ood, stream.labels)]
    return arrays, stream.segment_bounds


@pytest.mark.parametrize("composer", ["stream", "mixed", "timeseries"])
@settings(max_examples=60, deadline=None)
@given(n_id=st.integers(0, 40), n_oods=st.lists(st.integers(1, 40), min_size=1, max_size=3),
       dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       kappa=st.one_of(st.sampled_from([0.0, 0.5, 0.999]),
                       st.floats(0.0, 0.999)))
def test_composers_equal_per_slot_reference(composer, n_id, n_oods, dim, seed, kappa):
    rng = np.random.default_rng(seed)
    id_set = LabeledSet(rng.normal(size=(n_id, dim)), rng.integers(0, 3, size=n_id), 3)
    oods = [rng.normal(size=(n, dim)) + 5.0 for n in n_oods]
    fast = _compose_outcome(composer, id_set, oods, kappa, seed)
    with mock.patch.object(data, "_compose", compose_reference):
        ref = _compose_outcome(composer, id_set, oods, kappa, seed)
    assert fast == ref


def test_canonical_spec_is_pinned():
    cfg = RunConfig()
    assert cfg.dim == 2 and cfg.classes == 3
    for mean in circle_means(cfg.classes, cfg.mean_radius, cfg.dim):
        assert math.hypot(*mean) == pytest.approx(1.0, abs=1e-12)
    near, far = cfg.ood_sources
    assert isinstance(near, GaussianSource) and isinstance(far, GaussianSource)
    assert math.hypot(*near.center) == pytest.approx(2.5, abs=1e-12)
    assert math.hypot(*far.center) == pytest.approx(5.0, abs=1e-12)
    # both clusters share the corridor between classes 0 and 1
    assert math.atan2(near.center[1], near.center[0]) == pytest.approx(
        math.atan2(far.center[1], far.center[0]), abs=1e-12)
