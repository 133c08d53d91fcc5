"""Fast paths equal their straight-line references bit for bit.

The per-arrival path (forward, scoring, prediction), the update episode
(trainable-only gradients), the gradient buffers (no zero fill, one-row
weight gradients as outer products) and checkpoint writing skip work the
references do, but must compute the same results: every comparison here is
exact.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import fresh_auto_config, fresh_state
from helpers import (checkpoint_text_reference, loss_and_grad_reference,
                     log_softmax_reference, predict_reference, probe_dlogits_reference,
                     score_reference, train_offline_reference)
from oodstream import engine, nn
from oodstream.data import LabeledSet
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


def assert_gradients_equal(got, expected):
    for a, b in zip(got.d_weights + got.d_biases, expected.d_weights + expected.d_biases):
        if b is None:
            assert a is None
        else:
            assert a.shape == b.shape and np.array_equal(a, b)


def term_spec(rng, model, terms):
    """Probe terms, bank term, both, or neither; "bank" keeps the probe's
    dL/dlogits all zero (no probe term carries weight)."""
    probe = terms in ("probe", "both")
    spec = full_spec(rng, model, with_probe_terms=probe)
    if terms in ("probe", "none"):
        spec.bank_weight = 0.0
    return spec


@pytest.mark.parametrize("dims", [[2, 128, 128, 3], [8, 512, 512, 4]])
@pytest.mark.parametrize("terms", ["probe", "bank", "both", "none"])
def test_gradients_equal_zero_filled_matmul_oracle(dims, terms):
    rng = np.random.default_rng(len(terms) + dims[1])
    model = init_mlp(dims, seed=2)
    for b in model.biases:
        b[:] = rng.normal(0.0, 0.1, size=b.shape)
    for _ in range(3):
        x = rng.normal(size=dims[0])
        spec = term_spec(rng, model, terms)
        ref_loss, ref = loss_and_grad_reference(model, x, spec)
        assert_gradients_equal(nn.backward(model, x, spec), ref)
        for groups in ({"block2"}, {"block1", "fc"}, {"fc"}):
            trainable = frozenset(groups)
            loss, part = nn._loss_and_grad(model, x, spec, trainable=trainable)
            _, ref_part = loss_and_grad_reference(model, x, spec, trainable)
            assert loss == ref_loss
            assert_gradients_equal(part, ref_part)
    if terms == "none":
        assert all(not g.any() for g in ref.d_weights + ref.d_biases)


def test_one_row_outer_product_equals_matmul():
    rng = np.random.default_rng(13)
    for h in (1, 3, 128, 512):
        a = np.maximum(rng.normal(size=h), 0.0)  # ReLU rows hold exact zeros
        d = rng.normal(size=h + 1)
        d[::4] = 0.0
        d[1::7] = -0.0
        a[-1] = -0.0
        assert np.array_equal(np.einsum("i,j->ij", a, d), a[None].T @ d[None])


@pytest.mark.parametrize("momentum,weight_decay", [(0.0, 0.0), (0.9, 1e-3)])
def test_train_offline_equals_oracle_trainer(momentum, weight_decay):
    rng = np.random.default_rng(14)
    feats = rng.normal(size=(61, 3))  # 61 = 4 * 15 + 1: the last batch has one row
    labels = rng.integers(0, 4, size=61)
    cfg = SgdConfig(learning_rate=0.05, weight_decay=weight_decay, momentum=momentum)
    fast = nn.train_offline(init_mlp([3, 16, 16, 4], seed=4), LabeledSet(feats, labels, 4),
                            epochs=5, batch_size=15, cfg=cfg, seed=3)
    ref = train_offline_reference(init_mlp([3, 16, 16, 4], seed=4), feats, labels,
                                  epochs=5, batch_size=15, cfg=cfg, seed=3)
    for a, b in zip(fast.weights + fast.biases, ref.weights + ref.biases):
        assert np.array_equal(a, b)


def test_save_checkpoint_bytes_equal_per_scalar_formatter(tmp_path):
    rng = np.random.default_rng(15)
    model = init_mlp([3, 40, 5], seed=6)
    specials = [-0.0, 0.0, 5e-324, -5e-324, 2.225e-308, 1e308, -1e308,
                1.7976931348623157e308, 0.1, 1 / 3]
    for t in model.weights + model.biases:
        flat = t.reshape(-1)
        flat[:] = rng.normal(0.0, 10.0 ** rng.uniform(-300, 300, size=flat.size))
        flat[:len(specials)] = specials[:flat.size]
    path = tmp_path / "model.ckpt"
    nn.save_checkpoint(model, path)
    assert path.read_bytes() == checkpoint_text_reference(model).encode("ascii")
