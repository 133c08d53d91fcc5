"""Fast paths equal their straight-line references bit for bit.

The per-arrival path (forward, scoring, prediction) and the update episode
(trainable-only gradients) skip work the references do, but must compute the
same floating-point results: every comparison here is exact.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import fresh_auto_config, fresh_state
from helpers import (log_softmax_reference, predict_reference,
                     probe_dlogits_reference, score_reference)
from oodstream import engine, nn
from oodstream.nn import LossSpec, SgdConfig, _forward_batch, _probe_dlogits, init_mlp
from oodstream.runconfig import RunConfig
from oodstream.scoring import ScoreKind, predict, score

KINDS = (ScoreKind("msp"), ScoreKind("maxlogit"), ScoreKind("energy"),
         ScoreKind("energy", temperature=0.3), ScoreKind("energy", temperature=4.0))


@pytest.mark.parametrize("dims", [[2, 3], [2, 128, 128, 3], [5, 7, 2, 4],
                                  [8, 512, 512, 4]])
def test_forward_logits_equals_batch_forward(dims):
    rng = np.random.default_rng(sum(dims))
    model = init_mlp(dims, seed=len(dims))
    for b in model.biases:
        b[:] = rng.normal(0.0, 0.1, size=b.shape)
    for _ in range(25):
        x = rng.normal(0.0, 2.0, size=dims[0])
        expected = _forward_batch(model, x[None])[0][0]
        assert np.array_equal(nn.forward_logits(model, x), expected)


def test_forward_logits_still_rejects_non_finite():
    model = init_mlp([2, 4, 3], seed=0)
    model.weights[-1][0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
        nn.forward_logits(model, np.array([1.0, 1.0]))


def random_logit_vectors(rng, n=300):
    for i in range(n):
        c = int(rng.integers(2, 12))
        z = rng.normal(0.0, 10.0 ** rng.uniform(-3, 2.5), size=c)
        if i % 5 == 0:
            z = np.round(z)  # exact ties between classes
        yield z


def test_score_and_predict_equal_reference_formulas():
    rng = np.random.default_rng(11)
    for z in random_logit_vectors(rng):
        for kind in KINDS:
            assert score(kind, z) == score_reference(kind, z)
        assert predict(z) == predict_reference(z)
        assert np.array_equal(nn.log_softmax(z), log_softmax_reference(z))
        assert np.array_equal(nn.softmax(z), np.exp(log_softmax_reference(z)))
    assert score(KINDS[0], [1.0, 2.0, 3.0]) == score_reference(KINDS[0], [1.0, 2.0, 3.0])
    assert predict([0.0, 2.0, 2.0]) == predict_reference([0.0, 2.0, 2.0]) == 1


def test_probe_dlogits_equals_reference():
    rng = np.random.default_rng(12)
    for z in random_logit_vectors(rng, 200):
        c = len(z)
        spec = LossSpec(label=int(rng.integers(0, c)), label_weight=0.7,
                        uniform_weight=1.3, sc_weight=0.4,
                        sc_ref_pred=int(rng.integers(0, c)), sc_phi=0.2)
        loss, dl = _probe_dlogits(z, spec)
        ref_loss, ref_dl = probe_dlogits_reference(z, spec)
        assert loss == ref_loss
        assert np.array_equal(dl, ref_dl)


def full_spec(rng, model, with_probe_terms=True):
    c = model.num_classes
    return LossSpec(
        label=1 if with_probe_terms else None,
        uniform_weight=1.0 if with_probe_terms else 0.0,
        sc_weight=0.5 if with_probe_terms else 0.0,
        sc_ref_pred=2,
        sc_phi=0.2,
        bank_inputs=rng.normal(size=(c, model.input_dim)),
        bank_labels=np.arange(c),
        bank_weight=1.0,
    )


@pytest.mark.parametrize("groups", ["block1", "block2", "fc", "block1+fc",
                                    "block1+block2+fc"])
def test_trainable_gradients_equal_full_backward(groups):
    trainable = frozenset(groups.split("+"))
    rng = np.random.default_rng(len(groups))
    model = init_mlp([2, 16, 16, 3], seed=3)
    for with_probe in (True, False):
        for _ in range(10):
            x = rng.normal(size=2)
            spec = full_spec(rng, model, with_probe)
            full = nn.backward(model, x, spec)
            full_loss = nn.total_loss(model, x, spec)
            loss, part = nn._loss_and_grad(model, x, spec, trainable=trainable)
            assert loss == full_loss
            for i, group in enumerate(model.group_labels):
                if group in trainable:
                    assert np.array_equal(part.d_weights[i], full.d_weights[i])
                    assert np.array_equal(part.d_biases[i], full.d_biases[i])
                else:
                    assert part.d_weights[i] is None and part.d_biases[i] is None


def test_trainable_gradients_on_wide_model():
    rng = np.random.default_rng(5)
    model = init_mlp([8, 512, 512, 4], seed=9)
    x = rng.normal(size=8)
    spec = full_spec(rng, model)
    full = nn.backward(model, x, spec)
    _, part = nn._loss_and_grad(model, x, spec, trainable=frozenset({"block2"}))
    assert np.array_equal(part.d_weights[1], full.d_weights[1])
    assert np.array_equal(part.d_biases[1], full.d_biases[1])


def test_no_trainable_groups_gives_no_gradients():
    rng = np.random.default_rng(6)
    model = init_mlp([2, 8, 3], seed=1)
    _, part = nn._loss_and_grad(model, rng.normal(size=2), full_spec(rng, model),
                                trainable=frozenset())
    assert part.d_weights == [None, None] and part.d_biases == [None, None]


@pytest.mark.parametrize("groups", ["last_block", "block1+fc"])
def test_canonical_replay_equals_full_gradient_replay(canonical, monkeypatch, groups):
    model = canonical["model"]
    trainable = RunConfig(trainable_groups=groups).resolve_groups(model)
    config = fresh_auto_config(model, sgd=SgdConfig(learning_rate=0.001,
                                                    trainable_groups=trainable))
    fast_state = fresh_state(canonical, config)
    fast = engine.run_stream(fast_state, config, canonical["stream"])

    full_calls = []
    restricted = nn._loss_and_grad

    def full_gradient(model, x, spec, want_grad=True, trainable=None):
        if want_grad:
            full_calls.append(trainable)
        return restricted(model, x, spec, want_grad)

    monkeypatch.setattr(nn, "_loss_and_grad", full_gradient)
    ref_state = fresh_state(canonical, config)
    ref = engine.run_stream(ref_state, config, canonical["stream"])

    assert ref.counts.updates > 0
    assert full_calls == [trainable] * (config.iters_t * ref.counts.updates)
    assert fast.events == ref.events
    assert fast.update_traces == ref.update_traces
    assert fast.counts == ref.counts
    for a, b in zip(fast_state.model_t.weights + fast_state.model_t.biases,
                    ref_state.model_t.weights + ref_state.model_t.biases):
        assert np.array_equal(a, b)
    assert fast_state.margins == ref_state.margins
    assert np.array_equal(fast_state.bank.features, ref_state.bank.features)
