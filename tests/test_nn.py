"""Core numerics: forward pass, losses, analytic gradients, SGD, checkpoints."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (CORRUPT_PAYLOADS, FullGradients, corrupt_checkpoint,
                     log_softmax_reference, loss_and_grad, loss_sc, materialized,
                     max_grad_rel_err, only_layers, sgd_step_reference, split_checkpoint,
                     total_loss)
from oodstream import nn
from oodstream.nn import (CheckpointError, LossSpec, MlpModel, clone_frozen,
                          forward_logits, init_mlp, load_checkpoint, save_checkpoint,
                          sgd_step, train_offline)

LN2 = math.log(2.0)
LN3 = math.log(3.0)

# frozen from a 50-digit mpmath evaluation of log(exp(z_c) / sum(exp(z)))
LOG_SOFTMAX_123 = (-2.40760596444438030, -1.40760596444438030, -0.40760596444438030)


def identity_model(c: int) -> MlpModel:
    """One identity layer: the logits are the input, exactly."""
    return MlpModel(layer_dims=[c, c], weights=[np.eye(c)], biases=[np.zeros(c)])


def grads_of(model: MlpModel, x, spec: LossSpec) -> nn.Gradients:
    return loss_and_grad(model, x, spec)[1]


def uniform_ce(logits) -> float:
    """The episode's cross-entropy to the uniform target at these logits."""
    z = np.asarray(logits, dtype=np.float64)
    return total_loss(identity_model(len(z)), z, LossSpec(uniform_weight=1.0))


def label_ce(logits, label: int) -> float:
    """The bank term's label cross-entropy of one entry with these logits:
    bank row c holds the logits rolled so that entry ``label`` sits at
    column c, so each of the C rows has this cross-entropy."""
    z = np.asarray(logits, dtype=np.float64)
    c = len(z)
    bank = np.stack([np.roll(z, k - label) for k in range(c)])
    spec = LossSpec(bank_inputs=bank, bank_weight=1.0 / c)
    return total_loss(identity_model(c), np.zeros(c), spec)


# ---------------------------------------------------------------------------
# forward


def test_forward_zero_model_gives_zero_logits():
    model = init_mlp([3, 5, 4], seed=0)
    for w in model.weights:
        w[:] = 0.0
    logits = forward_logits(model, np.array([1.0, -2.0, 3.0]))
    assert np.all(logits == 0.0)


def test_forward_identity_weights():
    # exact: the loss tests below read their logits through this model
    assert np.array_equal(forward_logits(identity_model(2), np.array([2.0, 3.0])), [2.0, 3.0])
    rng = np.random.default_rng(5)
    for c in (3, 7):
        z = rng.normal(0, 10, size=c)
        assert np.array_equal(forward_logits(identity_model(c), z), z)


def test_forward_matches_straight_line_reimplementation():
    model = init_mlp([2, 4, 3], seed=42)
    x = np.array([0.7, -1.2])
    # independent re-implementation of the forward pass
    h = np.maximum(x @ model.weights[0] + model.biases[0], 0.0)
    expected = h @ model.weights[1] + model.biases[1]
    assert np.allclose(forward_logits(model, x), expected, rtol=0, atol=0)


@pytest.mark.parametrize("dims", [[2, 128, 128, 3], [8, 512, 512, 4]], ids=["canonical", "wide"])
def test_window_row_bits_do_not_depend_on_position_or_neighbours(dims):
    """``nn._forward_from`` on a zero-padded (W, d) batch gives each row the
    logit bits it has at position 0 with zero neighbours, on both benchmark
    widths. No replay relies on this yet: those bits are not a lone row's
    gemv bits, so a windowed replay would use the stacked product below.
    Windowed GEMM rows (ROADMAP item 10) would rely on it. A BLAS whose
    batch rows depend on their position or neighbours fails here."""
    model = init_mlp(dims, seed=11)
    rng = np.random.default_rng(12)
    for b in model.biases:
        b[:] = rng.normal(0, 0.5, size=b.shape)
    for w in (8, 16, 32):
        for pos in range(w):
            row = rng.normal(0, 2, size=dims[0])
            alone = np.zeros((w, dims[0]))
            alone[0] = row
            window = np.zeros((w, dims[0]))
            filled = rng.integers(pos + 1, w + 1)
            window[:filled] = rng.normal(0, 2, size=(filled, dims[0]))
            window[pos] = row
            got = nn._forward_from(model, window)[-1][pos]
            assert got.tobytes() == nn._forward_from(model, alone)[-1][0].tobytes(), (w, pos)


def stacked_logits(model: MlpModel, block: np.ndarray) -> np.ndarray:
    """Logits of the rows of ``block`` (k, d) through one stacked
    ``(k, 1, d) @ (d, h)`` product a layer, the bias and the ReLU in place."""
    a = block[:, None, :]
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = np.matmul(a, w)
        a += b
        if i < model.num_layers - 1:
            np.maximum(a, 0.0, out=a)
    return a[:, 0]


@pytest.mark.parametrize("dims", [[2, 128, 128, 3], [8, 512, 512, 4]], ids=["canonical", "wide"])
def test_stacked_rows_have_the_one_row_kernel_bits(dims):
    """A stacked (k, 1, d) product gives every row the bits of
    ``forward_logits`` on that row alone, whatever k, the block's start and
    its byte alignment: numpy runs it as one gemv a row. So a windowed
    replay built on it would move no event byte, where a plain
    (k, d) @ (d, h) product would."""
    model = init_mlp(dims, seed=11)
    rng = np.random.default_rng(12)
    for b in model.biases:
        b[:] = rng.normal(0, 0.5, size=b.shape)
    xs = rng.normal(0, 2, size=(80, dims[0]))

    def check(block: np.ndarray, label) -> None:
        got = stacked_logits(model, block)
        for j, row in enumerate(block):
            assert got[j].tobytes() == forward_logits(model, row).tobytes(), (label, j)

    for k in (1, 2, 7, 8, 16, 33, 64):
        for start in (1, 80 - k):
            check(xs[start:start + k], (k, start))
    block = xs[5:10]
    for offset in range(8, 64, 8):
        buf = np.empty(block.size + 8)
        skip = (-buf.ctypes.data % 64 + offset) % 64 // 8
        shifted = buf[skip:skip + block.size].reshape(block.shape)
        shifted[...] = block
        check(shifted, offset)


# ---------------------------------------------------------------------------
# log_softmax and losses


def test_log_softmax_symmetric():
    assert np.allclose(log_softmax_reference(np.array([0.0, 0.0])), [-LN2, -LN2])


def test_log_softmax_extreme_logits_stable():
    out = log_softmax_reference(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(out))
    assert abs(out[0]) < 1e-12


def test_log_softmax_extended_precision_oracle():
    out = log_softmax_reference(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(out, LOG_SOFTMAX_123, rtol=0, atol=1e-15)


def test_log_softmax_shift_invariant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = rng.normal(0, 5, size=4)
        c = rng.normal(0, 100)
        assert np.allclose(log_softmax_reference(z + c), log_softmax_reference(z), atol=1e-12)


def test_softmax_sums_to_one_even_for_large_logits():
    rng = np.random.default_rng(11)
    for scale in (1.0, 10.0, 100.0, 1000.0):
        for _ in range(25):
            z = rng.uniform(-scale, scale, size=5)
            assert abs(np.sum(np.exp(log_softmax_reference(z))) - 1.0) < 1e-12


def test_loss_ce_label_uniform_logits():
    assert label_ce([0.0, 0.0], 0) == pytest.approx(LN2, abs=1e-15)


def test_loss_ce_label_saturated():
    assert label_ce([50.0, 0.0], 0) < 1e-10


def test_loss_ce_label_oracle_value():
    assert label_ce([1.0, 2.0, 3.0], 2) == pytest.approx(0.40760596444438030, abs=1e-15)


def test_loss_ce_uniform_minimum_at_uniform():
    assert uniform_ce([0.0, 0.0]) == pytest.approx(LN2, abs=1e-15)


def test_loss_ce_uniform_one_sided_growth():
    assert uniform_ce([10.0, 0.0]) > 4.0


def test_loss_ce_uniform_oracle_value():
    assert uniform_ce([1.0, 2.0, 3.0]) == pytest.approx(1.40760596444438030, abs=1e-15)


def test_loss_ce_uniform_lower_bound_property():
    rng = np.random.default_rng(7)
    for _ in range(100):
        c = rng.integers(2, 8)
        z = rng.normal(0, 10, size=c)
        assert uniform_ce(z) - math.log(c) >= -1e-12


def sc_loss(p, ref: int) -> float:
    """The episode's consistency hinge (phi = 0.2) at the logits log(p)."""
    spec = LossSpec(sc_weight=1.0, sc_ref_pred=ref, sc_phi=0.2)
    return total_loss(identity_model(len(p)), np.log(p), spec)


def test_loss_sc_agreement_is_zero():
    assert loss_sc(np.array([0.5, 0.3, 0.2]), 0, 0, phi=0.2) == 0.0
    assert sc_loss([0.5, 0.3, 0.2], 0) == 0.0


def test_loss_sc_disagreement_formula():
    val = loss_sc(np.array([0.6, 0.3, 0.1]), pred_t=0, pred_0=1, phi=0.2)
    assert val == pytest.approx(0.5, abs=1e-15)
    assert sc_loss([0.6, 0.3, 0.1], 1) == pytest.approx(0.5, abs=1e-15)


# ---------------------------------------------------------------------------
# gradients


def test_gradient_zero_at_uniform_stationary_point():
    # symmetric weights, uniform softmax: the uniform-CE gradient vanishes
    model = init_mlp([2, 3], seed=0)
    model.weights[0][:] = 0.0
    model.biases[0][:] = 0.0
    grads = grads_of(model, np.array([0.3, -0.4]), LossSpec(uniform_weight=1.0))
    assert np.all(grads.d_biases[-1] == 0.0)


def test_gradient_sc_agreement_branch_is_zero():
    model = init_mlp([2, 4, 3], seed=1)
    x = np.array([0.5, 0.5])
    ref = int(np.argmax(forward_logits(model, x)))
    grads = materialized(grads_of(model, x, LossSpec(sc_weight=1.0, sc_ref_pred=ref, sc_phi=0.2)))
    assert all(np.all(g == 0.0) for g in grads.d_weights + grads.d_biases)


@pytest.mark.parametrize("seed", range(8))
def test_gradient_matches_finite_differences_mixed_loss(seed):
    rng = np.random.default_rng(seed)
    n_hidden = 1 + seed % 3
    dims = [3] + [int(rng.integers(3, 7)) for _ in range(n_hidden)] + [4]
    model = init_mlp(dims, seed=seed)
    for b in model.biases:
        b[:] = rng.normal(0, 0.5, size=b.shape)  # keep logits away from exact ties
    x = rng.normal(0, 1, size=3)
    bank = rng.normal(0, 1, size=(4, 3))
    ref = int(rng.integers(0, 4))
    spec = LossSpec(
        uniform_weight=1.0,
        sc_weight=0.1,
        sc_ref_pred=ref,
        sc_phi=0.2,
        bank_inputs=bank,
        bank_weight=1.0,
    )
    assert max_grad_rel_err(model, x, spec) < 1e-5


# ---------------------------------------------------------------------------
# SGD


def factored(inputs, deltas, biases) -> nn.Gradients:
    """Gradients from per-layer factors: weight gradient i is
    ``inputs[i].T @ deltas[i]``."""
    return nn.Gradients([np.array(a, dtype=float) for a in inputs],
                        [np.array(d, dtype=float) for d in deltas],
                        [np.array(b, dtype=float) for b in biases])


def constant_grads(model: MlpModel, value: float) -> nn.Gradients:
    """Every weight and bias gradient entry equal to ``value`` (a one-row
    outer product of ones and ``value``)."""
    return factored([np.ones((1, w.shape[0])) for w in model.weights],
                    [np.full((1, w.shape[1]), value) for w in model.weights],
                    [np.full(b.shape, value) for b in model.biases])


def test_sgd_step_only_touches_trainable_groups():
    model = init_mlp([2, 4, 4, 3], seed=2)
    before = [w.copy() for w in model.weights] + [b.copy() for b in model.biases]
    sgd_step(model, only_layers(constant_grads(model, 1.0), {2}), 0.1)
    after = model.weights + model.biases
    # layers 0 and 1 (block1/block2) hold no gradient: bitwise untouched
    assert np.array_equal(before[0], after[0]) and np.array_equal(before[1], after[1])
    assert np.array_equal(before[3], after[3]) and np.array_equal(before[4], after[4])
    assert not np.array_equal(before[2], after[2])


def test_sgd_step_single_parameter_arithmetic():
    model = MlpModel([1, 1], [np.array([[1.0]])], [np.zeros(1)])
    grads = factored([[[1.0]]], [[[2.0]]], [[0.0]])
    sgd_step(model, grads, 0.5)
    assert model.weights[0][0, 0] == 0.0


def test_sgd_step_empty_trainable_set_is_identity():
    model = init_mlp([3, 4, 2], seed=3)
    before = [w.copy() for w in model.weights] + [b.copy() for b in model.biases]
    sgd_step(model, only_layers(constant_grads(model, 5.0), set()), 0.1)
    for b, a in zip(before, model.weights + model.biases):
        assert np.array_equal(b, a)


def random_grads(model: MlpModel, rng: np.random.Generator, rows: int = 3) -> nn.Gradients:
    return factored([rng.normal(size=(rows, w.shape[0])) for w in model.weights],
                    [rng.normal(size=(rows, w.shape[1])) for w in model.weights],
                    [rng.normal(size=b.shape) for b in model.biases])


def factors_of(grads: nn.Gradients) -> list[np.ndarray]:
    return grads.inputs + grads.deltas


def test_sgd_step_consumes_grads_with_the_bits_of_lr_times_g():
    rng = np.random.default_rng(21)
    model = init_mlp([3, 16, 16, 4], seed=5)
    ref = clone_frozen(model)
    grads = random_grads(model, rng)
    factors0 = [a.copy() for a in factors_of(grads)]
    biases0 = [g.copy() for g in grads.d_biases]
    lr, trainable = 0.0375, only_layers(grads, {1, 2})
    sgd_step_reference(ref, materialized(trainable), lr)
    sgd_step(model, trainable, lr)
    for a, b in zip(model.weights + model.biases, ref.weights + ref.biases):
        assert a.tobytes() == b.tobytes()
    # the factors are never written; the bias gradients of the layers with a
    # gradient are consumed: they now hold lr * g, and the one left out
    # (block1, index 0) is untouched
    assert [a.tobytes() for a in factors_of(grads)] == [a.tobytes() for a in factors0]
    for i, (g, g0) in enumerate(zip(grads.d_biases, biases0)):
        want = g0 if i == 0 else lr * g0
        assert g.tobytes() == want.tobytes()


# The blocked update: each weight is updated in row blocks whose gradient
# rows are materialized from the factors, with the whole-matrix update's
# elementwise operations.

# widths whose blocks hold 2, 3, 16 and 32 rows, and layers of one block
BLOCK_COLS = [nn.SGD_BLOCK, 5461, 1024, 512, 7, 2, 1]


def rows_per_block(cols: int) -> int:
    return max(2, nn.SGD_BLOCK // cols)


def full_matrix_gradient(a: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """The weight gradient as the backprop wrote it before it was factored."""
    return np.einsum("i,j->ij", a[0], delta[0]) if len(a) == 1 else a.T @ delta


def assert_blocked_update_equals_full(rng, n_rows, fan_in, cols):
    # Small weights and a unit learning rate: the updated weights carry the
    # gradient's bits, which a small step would round away.
    model = MlpModel([fan_in, cols], [nn._aligned(rng.normal(0.0, 1e-6, size=(fan_in, cols)))],
                     [nn._aligned(rng.normal(0.0, 1e-6, size=cols))])
    ref = clone_frozen(model)
    for _ in range(2):
        a, delta = rng.normal(size=(n_rows, fan_in)), rng.normal(size=(n_rows, cols))
        bias = rng.normal(size=cols)
        sgd_step(model, factored([a], [delta], [bias]), 1.0)
        sgd_step_reference(ref, FullGradients([full_matrix_gradient(a, delta)], [bias.copy()]),
                           1.0)
    assert model.weights[0].tobytes() == ref.weights[0].tobytes()
    assert model.biases[0].tobytes() == ref.biases[0].tobytes()


@settings(max_examples=60, deadline=None)
@given(n_rows=st.sampled_from([1, 2, 5, 32]), cols=st.sampled_from(BLOCK_COLS),
       blocks=st.integers(0, 3), remainder=st.data(), seed=st.integers(0, 2**32 - 1))
def test_blocked_update_equals_full_matrix_update(n_rows, cols, blocks, remainder, seed):
    step = rows_per_block(cols)
    fan_in = max(1, blocks * step + remainder.draw(st.integers(0, step - 1)))
    assert_blocked_update_equals_full(np.random.default_rng(seed), n_rows, fan_in, cols)


@pytest.mark.parametrize("n_rows", [1, 2, 5, 32])
def test_blocked_update_equals_full_at_every_remainder(n_rows):
    rng = np.random.default_rng(n_rows)
    step = rows_per_block(512)
    for fan_in in range(2 * step, 3 * step):
        assert_blocked_update_equals_full(rng, n_rows, fan_in, 512)


@pytest.mark.parametrize("n_rows", [2, 5, 32])
def test_one_column_layer_is_updated_in_one_block(n_rows):
    # split into blocks, a (rows, 1) gradient is one gemv per block, and at
    # 16,386 rows and 32 batch rows the second block's bits differ
    rng = np.random.default_rng(n_rows)
    for fan_in in [nn.SGD_BLOCK + 2, nn.SGD_BLOCK + 3, nn.SGD_BLOCK + 9]:
        assert_blocked_update_equals_full(rng, n_rows, fan_in, 1)


@pytest.mark.parametrize("cols", BLOCK_COLS + [3, 128, 3 * nn.SGD_BLOCK])
def test_row_blocks_cover_the_weight_without_one_row_blocks(cols):
    for rows in [1, 2, 3, 4, 5, 31, 32, 33, 64, 65, 66, 512, 513, 3 * nn.SGD_BLOCK + 1]:
        blocks = nn._row_blocks(rows, cols)
        assert [b[0] for b in blocks] == [0] + [b[1] for b in blocks[:-1]]
        assert blocks[-1][1] == rows
        sizes = [stop - start for start, stop in blocks]
        assert min(sizes) >= 2 or sizes == [1]
        if cols == 1 or rows * cols <= nn.SGD_BLOCK:
            assert sizes == [rows]
        else:
            assert max(sizes) <= rows_per_block(cols) + 1
    # every layer of the canonical and wide nets but the 512 x 512 one is one block
    for shape in [(2, 128), (128, 128), (128, 3), (8, 512), (512, 4)]:
        assert nn._row_blocks(*shape) == ((0, shape[0]),)
    assert len(nn._row_blocks(512, 512)) == 16


# ---------------------------------------------------------------------------
# clone_frozen


def test_clone_unchanged_by_updates_to_original():
    model = init_mlp([2, 4, 3], seed=4)
    clone = clone_frozen(model)
    x = np.array([0.1, 0.2])
    ref = forward_logits(clone, x).copy()
    for _ in range(100):
        grads = grads_of(model, x, LossSpec(uniform_weight=1.0))
        sgd_step(model, grads, 0.1)
    assert np.array_equal(forward_logits(clone, x), ref)


def test_clone_forward_identical_immediately():
    model = init_mlp([3, 5, 2], seed=6)
    clone = clone_frozen(model)
    assert clone.layer_dims == model.layer_dims
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(0, 1, size=3)
        assert np.array_equal(forward_logits(model, x), forward_logits(clone, x))


def test_clone_of_clone_equals_clone():
    model = init_mlp([2, 3, 2], seed=7)
    c1 = clone_frozen(model)
    c2 = clone_frozen(c1)
    for a, b in zip(c1.weights + c1.biases, c2.weights + c2.biases):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# offline training


class _Toy:
    def __init__(self, features, labels):
        self.features = features
        self.labels = labels


def test_train_offline_separable_gaussians():
    rng = np.random.default_rng(12)
    n = 100
    f0 = rng.normal(0, 0.3, size=(n, 2)) + np.array([-2.0, 0.0])
    f1 = rng.normal(0, 0.3, size=(n, 2)) + np.array([2.0, 0.0])
    ds = _Toy(np.concatenate([f0, f1]), np.array([0] * n + [1] * n))
    model = init_mlp([2, 8, 2], seed=0)
    train_offline(model, ds, epochs=200, batch_size=16, lr=0.05, seed=0)
    assert nn.accuracy(model, ds.features, ds.labels) >= 0.99


def test_train_offline_zero_epochs_noop():
    model = init_mlp([2, 4, 2], seed=1)
    before = [w.copy() for w in model.weights]
    ds = _Toy(np.array([[0.0, 1.0]]), np.array([1]))
    train_offline(model, ds, epochs=0, batch_size=4, lr=0.1)
    for b, a in zip(before, model.weights):
        assert np.array_equal(b, a)


def test_train_offline_memorizes_single_sample():
    model = init_mlp([2, 4, 3], seed=2)
    ds = _Toy(np.array([[0.5, -0.5]]), np.array([2]))
    train_offline(model, ds, epochs=300, batch_size=1, lr=0.1, seed=0)
    assert int(np.argmax(forward_logits(model, ds.features[0]))) == 2


def test_train_offline_empty_dataset_errors():
    model = init_mlp([2, 2], seed=0)
    with pytest.raises(ValueError):
        train_offline(model, _Toy(np.zeros((0, 2)), np.zeros(0, dtype=int)),
                      epochs=1, batch_size=1, lr=0.001)


def test_train_offline_rejects_out_of_range_labels():
    model = init_mlp([2, 2], seed=0)
    ds = _Toy(np.zeros((2, 2)), np.array([0, 5]))
    with pytest.raises(ValueError):
        train_offline(model, ds, epochs=1, batch_size=1, lr=0.001)


@pytest.mark.parametrize("lr", [0.0, -0.05, math.nan, math.inf, -math.inf])
def test_train_offline_rejects_a_learning_rate_not_above_zero(lr):
    # a learning rate that is not positive and finite fails before any
    # weight moves; epochs = 0 is checked too
    model = init_mlp([2, 2], seed=0)
    before = [w.copy() for w in model.weights]
    for epochs in (0, 1):
        with pytest.raises(ValueError, match="^learning_rate must be positive"):
            train_offline(model, _Toy(np.zeros((1, 2)), np.array([0])), epochs=epochs,
                          batch_size=1, lr=lr)
    assert all(np.array_equal(b, a) for b, a in zip(before, model.weights))


# ---------------------------------------------------------------------------
# checkpoints


HASH = "0123456789ab"


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = init_mlp([3, 7, 4], seed=9)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path, HASH)
    loaded, pretrain_hash = load_checkpoint(path)
    assert pretrain_hash == HASH
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.normal(0, 2, size=3)
        assert np.array_equal(forward_logits(model, x), forward_logits(loaded, x))
    for a, b in zip(model.weights + model.biases, loaded.weights + loaded.biases):
        assert np.array_equal(a, b)
    assert loaded.layer_dims == model.layer_dims


def test_parameter_arrays_start_on_a_cache_line(tmp_path):
    model = init_mlp([3, 7, 5, 4], seed=2)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path, HASH)
    for m in (model, load_checkpoint(path)[0], clone_frozen(model)):
        assert [t.ctypes.data % 64 for t in m.weights + m.biases] == [0] * 6


def test_checkpoint_truncated_file_errors(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_mlp([2, 3, 2], seed=0), path, HASH)
    path.write_bytes(path.read_bytes()[:-20])
    with pytest.raises(CheckpointError, match="tensor W1: expected 48 bytes, got 44"):
        load_checkpoint(path)


def test_checkpoint_unknown_version_errors(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_text("auto-mlp v99\n2 2\nfc\n")
    with pytest.raises(CheckpointError, match="run `pretrain` again"):
        load_checkpoint(path)


def test_checkpoints_before_v4_are_version_errors(tmp_path):
    """The decimal v1 and hex v2 text formats and the binary v3 one, whose
    fourth header line named the dims' group labels, are all refused."""
    path = tmp_path / "m.ckpt"
    for data in (b"auto-mlp v1\n2 2\nfc\nW0 2 2 1 0 0 1\nb0 2 0 0\n",
                 b"auto-mlp v2\n2 1\nfc\nW0 2 1 " + b"0" * 32 + b"\nb0 1 " + b"0" * 16 + b"\n",
                 b"auto-mlp v3\n2 1\nfc\n" + HASH.encode() + b"\n" + bytes(24)):
        path.write_bytes(data)
        with pytest.raises(CheckpointError,
                           match=f"'{data[:11].decode()}'.*run `pretrain` again"):
            load_checkpoint(path)


def test_checkpoint_dimension_mismatch_errors(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_mlp([2, 3, 2], seed=0), path, HASH)
    header, payload = split_checkpoint(path.read_bytes())
    # 2 3 3 2 asks for a 72-byte W1 where the 136 tensor bytes of 2 3 2 leave 64
    for dims, message in ((b"2 3 3 2", "tensor W1: expected 72 bytes, got 64"),
                          (b"2 0 2", "invalid layer dims [2, 0, 2]")):
        header[1] = dims
        path.write_bytes(b"\n".join([*header, payload]))
        with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
            load_checkpoint(path)


def test_checkpoint_dims_beyond_the_file_fail_before_any_allocation(tmp_path):
    """Read as sizes, these dims would ask for a 160 TB array."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_mlp([2, 3, 2], seed=0), path, HASH)
    header, payload = split_checkpoint(path.read_bytes())
    header[1] = b"2 10000000000000 2"
    path.write_bytes(b"\n".join([*header, payload]))
    with pytest.raises(CheckpointError,
                       match="^tensor W0: expected 160000000000000 bytes, got 136$"):
        load_checkpoint(path)


SPECIAL_VALUES = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
                  1.7976931348623157e308, -1.7976931348623157e308)


def model_from_bits(dims: list[int], seed: int) -> MlpModel:
    """Random finite float64 bit patterns; each tensor starts with as many of
    the special values (rotated by ``seed``) as it holds."""
    model = init_mlp(dims, seed=0)
    rng = np.random.default_rng(seed)
    for t in model.weights + model.biases:
        flat = t.reshape(-1)
        flat[:] = rng.integers(0, 2**64, size=flat.size, dtype=np.uint64).view(np.float64)
        flat[~np.isfinite(flat)] = 1.5
        k = min(flat.size, len(SPECIAL_VALUES))
        flat[:k] = np.roll(SPECIAL_VALUES, seed)[:k]
    return model


@settings(max_examples=30, deadline=None)
@given(dims=st.lists(st.integers(1, 9), min_size=2, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_checkpoint_round_trips_random_bit_patterns(tmp_path_factory, dims, seed):
    model = model_from_bits(dims, seed)
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    save_checkpoint(model, path, HASH)
    loaded, _ = load_checkpoint(path)
    assert loaded.layer_dims == model.layer_dims
    for a, b in zip(model.weights + model.biases, loaded.weights + loaded.biases):
        assert b.dtype == np.float64 and b.shape == a.shape and b.flags.writeable
        assert a.tobytes() == b.tobytes()


@settings(max_examples=20, deadline=None)
@given(dims=st.lists(st.integers(1, 4), min_size=2, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_every_truncated_checkpoint_is_a_checkpoint_error(tmp_path_factory, dims, seed):
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    save_checkpoint(model_from_bits(dims, seed), path, HASH)
    data = path.read_bytes()
    for size in range(len(data)):
        path.write_bytes(data[:size])
        with pytest.raises(nn.CheckpointError):
            load_checkpoint(path)


@pytest.mark.parametrize("kind", CORRUPT_PAYLOADS)
def test_corrupt_tensor_bytes_are_checkpoint_errors(tmp_path, kind):
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_mlp([2, 3, 2], seed=0), path, HASH)
    message = corrupt_checkpoint(path, kind)
    with pytest.raises(CheckpointError, match=f"^{message}$"):
        load_checkpoint(path)


def test_checkpoint_payload_length_errors_count_values(tmp_path):
    """A payload of the wrong length names the tensor where it ends, with
    the bytes expected and found, or the bytes left over."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_mlp([2, 3, 2], seed=0), path, HASH)
    header, payload = split_checkpoint(path.read_bytes())
    for edit, message in ((b"", "tensor W0: expected 48 bytes, got 0"),
                          (payload[:20], "tensor W0: expected 48 bytes, got 20"),
                          (payload[:48], "tensor b0: expected 24 bytes, got 0"),
                          (payload + payload[:8], "unexpected bytes after tensor b1")):
        path.write_bytes(b"\n".join([*header, edit]))
        with pytest.raises(CheckpointError, match=f"^{message}$"):
            load_checkpoint(path)
