"""Fast paths equal their straight-line references bit for bit.

The per-arrival path (forward, scoring, prediction), fixed-model scoring
(all rows of the frozen replay and of the margin statistics at once), the
update episode (one prepared batch per episode, trainable-only gradients),
the gradient buffers (one batch for all loss terms, no zero fill) and
checkpoint writing skip work the references do, but must compute the same
results: every comparison here is exact, except against the two-pass
gradient oracle, whose sums run in another order.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fresh_state
from helpers import (assert_columns_equal, assert_replays_equal, checkpoint_bytes_reference,
                     events_csv_reference, init_margins_reference, log_from_columns,
                     log_softmax_reference, loss_and_grad, loss_and_grad_reference,
                     materialized, only_layers, per_call_loss_and_grad_reference,
                     predict_reference, probe_dlogits_reference, run_posthoc_reference,
                     run_stream_reference, score_reference, total_loss,
                     train_offline_reference)
from oodstream import cli, engine, metrics, nn
from oodstream.data import LabeledSet, Stream
from oodstream.nn import LossSpec, _probe_dlogits, init_mlp
from oodstream.runconfig import RunConfig, trainable_layers
from oodstream.scoring import predict, score, score_rows


@pytest.mark.parametrize("dims", [[2, 3], [2, 128, 128, 3], [5, 7, 2, 4],
                                  [8, 512, 512, 4]])
def test_forward_logits_equals_batch_forward(dims):
    rng = np.random.default_rng(sum(dims))
    model = init_mlp(dims, seed=len(dims))
    for b in model.biases:
        b[:] = rng.normal(0.0, 0.1, size=b.shape)
    for _ in range(25):
        x = rng.normal(0.0, 2.0, size=dims[0])
        expected = nn._forward_from(model, x[None])[-1][0]
        assert np.array_equal(nn.forward_logits(model, x), expected)


# Inputs the one forward kernel must carry alike as a 1-D row and as a (1, d)
# row: signed zeros, subnormals, and magnitudes near 1e150 whose products
# stay finite.
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e150, -1e150, 9.9e149)
row_values = st.one_of(st.sampled_from(EDGE_VALUES),
                       st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False),
                       st.floats(-1e-300, 1e-300, allow_nan=False, allow_infinity=False))


@st.composite
def models_and_rows(draw):
    """A model with dims up to [8, 512, 512, 4], random biases, and one row."""
    hidden = draw(st.lists(st.sampled_from([1, 3, 16, 128, 512]), max_size=2))
    dims = [draw(st.integers(1, 8)), *hidden, draw(st.integers(1, 4))]
    seed = draw(st.integers(0, 2**32 - 1))
    model = init_mlp(dims, seed=seed)
    rng = np.random.default_rng(seed)
    for b in model.biases:
        b[:] = rng.normal(0.0, 0.1, size=b.shape)
    x = np.array(draw(st.lists(row_values, min_size=dims[0], max_size=dims[0])))
    return model, x


@settings(max_examples=60, deadline=None)
@given(models_and_rows())
def test_forward_logits_equals_batch_forward_bytes(model_and_row):
    model, x = model_and_row
    expected = nn._forward_from(model, x[None])[-1][0]
    assert nn.forward_logits(model, x).tobytes() == expected.tobytes()


def test_forward_logits_still_rejects_non_finite():
    model = init_mlp([2, 4, 3], seed=0)
    model.weights[-1][0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
        nn.forward_logits(model, np.array([1.0, 1.0]))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("dims", [[2, 3], [2, 8, 8, 4]])
def test_forward_logits_rejects_non_finite_logit_at_each_position(dims, value):
    for j in range(dims[-1]):
        model = init_mlp(dims, seed=j)
        model.biases[-1][j] = value
        with pytest.raises(FloatingPointError, match="non-finite logits"):
            nn.forward_logits(model, np.array([0.5, -1.0]))


@pytest.mark.parametrize("dims", [[3, 4], [2, 5, 3], [8, 16, 16, 4]])
def test_forward_logits_leaves_input_and_parameters_unmodified(dims):
    rng = np.random.default_rng(len(dims))
    model = init_mlp(dims, seed=3)
    for b in model.biases:
        b[:] = rng.normal(0.0, 1.0, size=b.shape)
    rows = rng.normal(0.0, 2.0, size=(4, dims[0]))
    before = [t.tobytes() for t in (rows, *model.weights, *model.biases)]
    for x in rows:
        nn.forward_logits(model, x)
    assert [t.tobytes() for t in (rows, *model.weights, *model.biases)] == before


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
        assert score(z) == score_reference(z)
        assert predict(z) == predict_reference(z)
    assert score([1.0, 2.0, 3.0]) == score_reference([1.0, 2.0, 3.0])
    assert predict([0.0, 2.0, 2.0]) == predict_reference([0.0, 2.0, 2.0]) == 1


@settings(max_examples=300, deadline=None)
@given(st.lists(row_values, min_size=1, max_size=12), st.sampled_from(["none", "max", "all"]))
def test_score_bytes_equal_reference(values, ties):
    """The one-exp msp score, with its direct ufunc reductions, gives the
    reference's bits: on signed zeros, subnormals, values near 1e150,
    and rows whose max appears twice or everywhere."""
    z = np.array(values)
    if ties == "max":
        z[-1] = z.max()
    elif ties == "all":
        z[:] = z[0]
    assert np.float64(score(z)).tobytes() == np.float64(score_reference(z)).tobytes()


def random_logit_rows(rng, n, c):
    """Rows at magnitudes from 1e-3 to 1e3; a quarter rounded to integers and
    an eighth with the first two entries equal, so rows hold exact ties."""
    z = rng.normal(0.0, 1.0, size=(n, c)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    z = np.clip(z, -1e3, 1e3)
    z[::4] = np.round(z[::4])
    z[1::8, 1] = z[1::8, 0]
    return z


@pytest.mark.parametrize("c", [2, 3, 4, 10])
def test_score_rows_equals_score_per_row(c):
    rng = np.random.default_rng(c)
    z = random_logit_rows(rng, 25_000, c)
    expected = np.array([score(row) for row in z])
    assert np.array_equal(score_rows(z), expected)
    assert score_rows(z[:1]).tolist() == [score(z[0])]
    assert z.argmax(axis=1).tolist() == [predict(row) for row in z]


def test_run_posthoc_equals_per_arrival_loop(canonical, canonical_replay):
    fast = canonical_replay.frozen
    ref = run_posthoc_reference(canonical["model"], canonical_replay.margins0,
                                canonical["stream"], update_margins=False)
    assert ref.counts.pseudo_ood > 0 and ref.counts.pseudo_id > 0 and ref.counts.abstain > 0
    assert_columns_equal(fast, ref)
    assert fast.counts == ref.counts
    assert fast.update_traces == ref.update_traces == []


@pytest.mark.parametrize("subsample", [None, 7])
def test_init_state_margins_equal_per_row_oracle(canonical, subsample):
    model = canonical["model"]
    config = RunConfig(stats_subsample_n=subsample or 0)
    rows = canonical["train"].features[:subsample]
    expected = init_margins_reference(model, rows, config)
    assert fresh_state(canonical, config).margins == expected


def test_probe_dlogits_equals_reference():
    rng = np.random.default_rng(12)
    for z in random_logit_vectors(rng, 200):
        c = len(z)
        spec = LossSpec(uniform_weight=1.3, sc_weight=0.4,
                        sc_ref_pred=int(rng.integers(0, c)), sc_phi=0.2)
        ls = log_softmax_reference(z)
        loss, dl = _probe_dlogits(z, ls, np.exp(ls), spec)
        ref_loss, ref_dl = probe_dlogits_reference(z, spec)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert np.array(dl).tobytes() == ref_dl.tobytes()


def full_spec(rng, model, with_probe_terms=True):
    c = model.num_classes
    return LossSpec(
        uniform_weight=1.0 if with_probe_terms else 0.0,
        sc_weight=0.5 if with_probe_terms else 0.0,
        sc_ref_pred=2,
        sc_phi=0.2,
        bank_inputs=rng.normal(size=(c, model.input_dim)),
        bank_weight=1.0,
    )


@pytest.mark.parametrize("groups", ["block1", "block2", "fc", "block1+fc",
                                    "block1+block2+fc"])
def test_trainable_gradients_equal_full_backward(groups):
    rng = np.random.default_rng(len(groups))
    model = init_mlp([2, 16, 16, 3], seed=3)
    trainable = trainable_layers(groups, model.num_layers)
    for with_probe in (True, False):
        for _ in range(10):
            x = rng.normal(size=2)
            spec = full_spec(rng, model, with_probe)
            full = materialized(loss_and_grad(model, x, spec)[1])
            full_loss = total_loss(model, x, spec)
            loss, part = loss_and_grad(model, x, spec, trainable)
            part = materialized(part)
            assert loss == full_loss
            for i, kept in enumerate(trainable):
                if kept:
                    assert np.array_equal(part.d_weights[i], full.d_weights[i])
                    assert np.array_equal(part.d_biases[i], full.d_biases[i])
                else:
                    assert part.d_weights[i] is None and part.d_biases[i] is None


def test_trainable_gradients_on_wide_model():
    rng = np.random.default_rng(5)
    model = init_mlp([8, 512, 512, 4], seed=9)
    x = rng.normal(size=8)
    spec = full_spec(rng, model)
    full = loss_and_grad(model, x, spec)[1]
    _, part = loss_and_grad(model, x, spec, trainable_layers("block2", model.num_layers))
    assert np.array_equal(part.weight(1), full.weight(1))
    assert np.array_equal(part.d_biases[1], full.d_biases[1])


def test_no_trainable_groups_gives_no_gradients():
    rng = np.random.default_rng(6)
    model = init_mlp([2, 8, 3], seed=1)
    _, part = loss_and_grad(model, rng.normal(size=2), full_spec(rng, model),
                            trainable_layers("none", model.num_layers))
    assert part.inputs == part.deltas == part.d_biases == [None, None]


@pytest.mark.parametrize("groups", ["last_block", "block1+fc"])
def test_canonical_replay_equals_full_gradient_replay(canonical, canonical_replay,
                                                      monkeypatch, groups):
    model = canonical["model"]
    config = RunConfig(trainable_groups=groups)
    trainable = trainable_layers(groups, model.num_layers)
    fast, fast_state = canonical_replay[config]

    # Every episode prepared with every layer kept: full gradients from a
    # forward through every layer, of which only the trainable layers' reach
    # sgd_step.
    full_calls = []
    prepare, step = nn.prepare_episode, nn.sgd_step

    def full_gradient(model, x, spec, trainable=None):
        full_calls.append(trainable)
        return prepare(model, x, spec)

    def trainable_step(model, grads, lr):
        kept = {i for i, keep in enumerate(trainable) if keep}
        return step(model, only_layers(grads, kept), lr)

    monkeypatch.setattr(nn, "prepare_episode", full_gradient)
    monkeypatch.setattr(nn, "sgd_step", trainable_step)
    ref_state = fresh_state(canonical, config)
    ref = engine.run_stream(ref_state, config, canonical["stream"])

    assert ref.counts.updates > 0
    assert full_calls == [trainable] * ref.counts.updates
    assert_columns_equal(fast, ref)
    assert fast.update_traces == ref.update_traces
    assert fast.counts == ref.counts
    for a, b in zip(fast_state.model_t.weights + fast_state.model_t.biases,
                    ref_state.model_t.weights + ref_state.model_t.biases):
        assert np.array_equal(a, b)
    assert fast_state.margins == ref_state.margins
    assert np.array_equal(fast_state.bank, ref_state.bank)


# The prepared episode batch (rows stacked once, the layers below the lowest
# trainable one forwarded once) against the per-call episode it replaced.


def replay_both_ways(model, train, stream, config):
    """(log, state) of ``engine.run_stream`` and of ``run_stream_reference``,
    each from its own clone of ``model``."""
    fast_state = engine.init_state(nn.clone_frozen(model), train, config)
    fast = engine.run_stream(fast_state, config, stream)
    ref_state = engine.init_state(nn.clone_frozen(model), train, config)
    ref = run_stream_reference(ref_state, config, stream)
    return fast, fast_state, ref, ref_state


@pytest.mark.parametrize("groups", ["last_block", "block1+fc"])
def test_canonical_replay_bytes_equal_per_call_episodes(canonical, canonical_replay, groups):
    config = RunConfig(trainable_groups=groups)
    fast, fast_state = canonical_replay[config]
    ref_state = fresh_state(canonical, config)
    ref = run_stream_reference(ref_state, config, canonical["stream"])
    assert len(ref.update_traces) > 300
    assert_replays_equal(fast, fast_state, ref, ref_state)


def random_net_and_stream(dims, seed, n_train, n_stream):
    """He-initialized net with random biases, a training set holding every
    class, and an unlabeled stream of wider spread."""
    rng = np.random.default_rng(seed)
    model = init_mlp(dims, seed=seed)
    for b in model.biases:
        b[:] = rng.normal(0.0, 0.1, size=b.shape)
    c = dims[-1]
    train = LabeledSet(rng.normal(size=(n_train, dims[0])), np.arange(n_train) % c, c)
    is_ood = rng.random(n_stream) < 0.5
    stream = Stream(features=rng.normal(0.0, 2.0, size=(n_stream, dims[0])), is_ood=is_ood,
                    labels=np.where(is_ood, -1, rng.integers(0, c, n_stream)))
    return model, train, stream


@pytest.mark.parametrize("groups", ["last_block", "block1+fc"])
def test_wide_replay_bytes_equal_per_call_episodes(groups):
    model, train, stream = random_net_and_stream([8, 512, 512, 4], 21, 40, 200)
    config = RunConfig(trainable_groups=groups, k2=0.0)
    fast, fast_state, ref, ref_state = replay_both_ways(model, train, stream, config)
    assert len(ref.update_traces) >= 10
    assert_replays_equal(fast, fast_state, ref, ref_state)


@st.composite
def replay_cases(draw):
    """A small net, its training set and stream, and run settings."""
    hidden = draw(st.lists(st.sampled_from([1, 3, 8, 16]), min_size=1, max_size=3))
    dims = [draw(st.integers(1, 4)), *hidden, draw(st.integers(2, 5))]
    model, train, stream = random_net_and_stream(
        dims, draw(st.integers(0, 2**32 - 1)), draw(st.integers(5, 30)),
        draw(st.integers(1, 40)))
    config = RunConfig(
        k1=draw(st.sampled_from([0.0, 0.5])), k2=draw(st.sampled_from([0.0, 0.5, 3.0])),
        iters_t=draw(st.integers(0, 3)), id_weight=draw(st.sampled_from([0.0, 0.5, 1.0])),
        lr=draw(st.sampled_from([0.001, 0.1])),
        trainable_groups=draw(st.sampled_from(["last_block", "block1+fc", "all", "none"])))
    return model, train, stream, config


@settings(max_examples=40, deadline=None)
@given(replay_cases())
def test_random_replay_bytes_equal_per_call_episodes(case):
    model, train, stream, config = case
    fast, fast_state, ref, ref_state = replay_both_ways(model, train, stream, config)
    assert_replays_equal(fast, fast_state, ref, ref_state)


def assert_gradients_equal(got, expected):
    got = materialized(got)
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


GRAD_DIMS = [[2, 128, 128, 3], [8, 512, 512, 4]]
TERMS = ["probe", "bank", "both", "none"]

# The two-pass oracle sums the probe and bank contributions separately and
# forwards the probe row on its own, so its bits differ from the single
# batch's. Tolerance: 256 ulps of a tensor's largest entry, and 256 ulps of
# the loss; measured differences stay below 8 ulps on both widths.
TWO_PASS_RTOL = 256 * np.finfo(np.float64).eps


def assert_gradients_close(got, expected, rtol):
    got = materialized(got)
    for a, b in zip(got.d_weights + got.d_biases, expected.d_weights + expected.d_biases):
        if b is None:
            assert a is None
        else:
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= rtol * np.abs(b).max()


def gradient_cases(dims, terms, n=3):
    """Model with random biases, and n (probe row, spec) pairs."""
    rng = np.random.default_rng(len(terms) + dims[1])
    model = init_mlp(dims, seed=2)
    for b in model.biases:
        b[:] = rng.normal(0.0, 0.1, size=b.shape)
    return model, [(rng.normal(size=dims[0]), term_spec(rng, model, terms)) for _ in range(n)]


@pytest.mark.parametrize("dims", GRAD_DIMS)
@pytest.mark.parametrize("terms", TERMS)
def test_gradients_equal_per_call_oracle(dims, terms):
    """Exactly the per-call oracle's values; the two-pass oracle's within
    ``TWO_PASS_RTOL``."""
    model, cases = gradient_cases(dims, terms)
    for x, spec in cases:
        ref_loss, ref = per_call_loss_and_grad_reference(model, x, spec)
        two_pass_loss, two_pass = loss_and_grad_reference(model, x, spec)
        loss, full = loss_and_grad(model, x, spec)
        assert loss == ref_loss == total_loss(model, x, spec)
        assert_gradients_equal(full, ref)
        assert abs(loss - two_pass_loss) <= TWO_PASS_RTOL * abs(two_pass_loss)
        assert_gradients_close(full, two_pass, TWO_PASS_RTOL)
        for groups in ("block2", "block1+fc", "fc"):
            trainable = trainable_layers(groups, model.num_layers)
            loss, part = loss_and_grad(model, x, spec, trainable)
            _, ref_part = per_call_loss_and_grad_reference(model, x, spec, trainable)
            _, two_pass_part = loss_and_grad_reference(model, x, spec, trainable)
            assert loss == ref_loss
            assert_gradients_equal(part, ref_part)
            assert_gradients_close(part, two_pass_part, TWO_PASS_RTOL)
    if terms == "none":
        assert all(not g.any() for g in ref.d_weights + ref.d_biases)
        full = materialized(full)
        assert all(not g.any() for g in full.d_weights + full.d_biases)


@pytest.mark.parametrize("dims", GRAD_DIMS)
@pytest.mark.parametrize("terms", TERMS)
def test_trainable_gradient_bits_equal_full_gradient(dims, terms):
    model, cases = gradient_cases(dims, terms)
    for x, spec in cases:
        full = materialized(loss_and_grad(model, x, spec)[1])
        for groups in ("block1", "block2", "fc", "block1+fc"):
            trainable = trainable_layers(groups, model.num_layers)
            part = materialized(loss_and_grad(model, x, spec, trainable)[1])
            for i, kept in enumerate(trainable):
                for got, want in ((part.d_weights[i], full.d_weights[i]),
                                  (part.d_biases[i], full.d_biases[i])):
                    if kept:
                        assert got.tobytes() == want.tobytes()
                    else:
                        assert got is None


def two_pass_loss_and_grad(model, batch, want_grad=True):
    """``nn._loss_and_grad``'s signature over the two-pass oracle, which
    forwards the probe row, ``batch.rows[0]``, through every layer."""
    loss, grads = loss_and_grad_reference(model, batch.rows[0], batch.spec, batch.keep)
    return loss, grads if want_grad else None


def test_canonical_replay_matches_two_pass_gradient_replay(canonical, canonical_replay,
                                                           monkeypatch):
    config = canonical["run_config"]
    fused, _ = canonical_replay[config]
    monkeypatch.setattr(nn, "_loss_and_grad", two_pass_loss_and_grad)
    two_pass = engine.run_stream(fresh_state(canonical, config), config, canonical["stream"])
    assert fused.counts.updates > 0
    assert fused.decision.tobytes() == two_pass.decision.tobytes()
    assert fused.counts == two_pass.counts
    assert metrics.report(fused) == metrics.report(two_pass)


def test_one_row_outer_product_equals_matmul():
    """A one-row batch's weight gradient as the plain ``a.T @ delta`` matmul
    has the outer product's bits, signed zeros included: this is why
    ``Gradients.weight`` needs no one-row form."""
    rng = np.random.default_rng(13)
    for h in (1, 3, 128, 512):
        a = np.maximum(rng.normal(size=h), 0.0)  # ReLU rows hold exact zeros
        d = rng.normal(size=h + 1)
        d[::4] = 0.0
        d[1::7] = -0.0
        a[-1] = -0.0
        assert np.array_equal(np.einsum("i,j->ij", a, d), a[None].T @ d[None])


def test_train_offline_equals_oracle_trainer():
    rng = np.random.default_rng(14)
    feats = rng.normal(size=(61, 3))  # 61 = 4 * 15 + 1: the last batch has one row
    labels = rng.integers(0, 4, size=61)
    fast = nn.train_offline(init_mlp([3, 16, 16, 4], seed=4), LabeledSet(feats, labels, 4),
                            epochs=5, batch_size=15, lr=0.05, seed=3)
    ref = train_offline_reference(init_mlp([3, 16, 16, 4], seed=4), feats, labels,
                                  epochs=5, batch_size=15, lr=0.05, seed=3)
    for a, b in zip(fast.weights + fast.biases, ref.weights + ref.biases):
        assert np.array_equal(a, b)


def test_save_checkpoint_bytes_equal_per_value_oracle(tmp_path):
    rng = np.random.default_rng(15)
    model = init_mlp([3, 40, 5], seed=6)
    specials = [-0.0, 0.0, 5e-324, -5e-324, 2.225e-308, 1e308, -1e308,
                1.7976931348623157e308, 0.1, 1 / 3]
    for t in model.weights + model.biases:
        flat = t.reshape(-1)
        flat[:] = rng.normal(0.0, 10.0 ** rng.uniform(-300, 300, size=flat.size))
        flat[:len(specials)] = specials[:flat.size]
    path = tmp_path / "model.ckpt"
    nn.save_checkpoint(model, path, "0123456789ab")
    assert path.read_bytes() == checkpoint_bytes_reference(model, "0123456789ab")


def test_events_csv_bytes_equal_per_row_oracle(canonical, canonical_replay, tmp_path):
    """The canonical frozen and auto logs, an empty log, a log whose m_out
    changes on every row (signed zeros, a NaN, repeats two rows apart), and
    logs of exactly one write chunk, one chunk plus one row, and several
    chunks with m_out runs that cross chunk boundaries."""
    frozen, (auto, _) = canonical_replay.frozen, canonical_replay[canonical["run_config"]]
    assert auto.counts.updates > 0
    rng = np.random.default_rng(16)

    def random_log(m_out):
        n = len(m_out)
        return log_from_columns(rng.normal(size=n), rng.random(n) < 0.5,
                                prediction=rng.integers(0, 5, n), label=rng.integers(-1, 5, n),
                                decision=rng.integers(0, len(engine.DECISIONS), n), m_out=m_out)

    m_out = rng.normal(0.9, 0.05, size=400)
    m_out[:8] = [0.0, -0.0, 0.0, math.nan, 1.0, 0.5, 1.0, -0.0]
    chunk = cli.EVENTS_CHUNK_ROWS
    # 0.5 spans the first two chunk boundaries, -0.0 the third.
    runs = np.repeat([0.25, 0.5, -0.0, 0.75], [chunk - 5, chunk + 10, chunk - 3, 15])
    logs = {"frozen": frozen, "auto": auto, "empty": log_from_columns([], []),
            "m_out_every_row": random_log(m_out),
            "one_chunk": random_log(rng.normal(0.9, 0.05, size=chunk)),
            "one_chunk_plus_one": random_log(np.repeat([0.5, 0.25], [chunk - 1, 2])),
            "several_chunks": random_log(runs)}
    for name, log in logs.items():
        path = tmp_path / f"{name}.csv"
        cli._write_events_csv(path, log, "abc123")
        assert path.read_bytes() == events_csv_reference(log, "abc123").encode("ascii"), name
