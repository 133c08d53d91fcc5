"""Dense numerical core: a small MLP with softmax head, hand-derived gradients.

Everything runs in float64 numpy. The model is a plain value object; all loss
and gradient functions are pure, and parameter updates mutate the model in
place under single-owner discipline. Gradients are derived analytically for
exactly the loss terms this package optimizes (label cross-entropy,
cross-entropy to the uniform target, and the prediction-consistency hinge);
there is no general autodiff facility.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

CHECKPOINT_MAGIC = "auto-mlp v4"


class CheckpointError(Exception):
    """A checkpoint file that cannot be loaded: an unknown header, a
    malformed or truncated file, or tensors that do not fit the layer dims."""


@dataclass
class MlpModel:
    """Fully-connected network: ReLU hidden layers, identity (logit) output.

    ``weights[i]`` has shape ``(layer_dims[i], layer_dims[i+1])`` and
    ``biases[i]`` shape ``(layer_dims[i+1],)``.
    """

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def num_classes(self) -> int:
        return self.layer_dims[-1]

    @property
    def num_layers(self) -> int:
        return len(self.weights)


@dataclass
class Gradients:
    """Per-layer gradients of an MlpModel, each weight gradient kept as its
    factors.

    Layer i's weight gradient is ``inputs[i].T @ deltas[i]``, where
    ``inputs[i]`` (N, fan_in) holds the activations that fed the layer and
    ``deltas[i]`` (N, fan_out) its error signal; at N batch rows it has rank
    at most N, so the factors are far smaller than the matrix. ``weight``
    materializes it. A gradient of only some layers holds None for the rest.
    """

    inputs: list[np.ndarray | None]
    deltas: list[np.ndarray | None]
    d_biases: list[np.ndarray | None]

    def weight(self, i: int, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Rows ``start:stop`` of layer i's weight gradient, in a new array."""
        return self.inputs[i][:, start:stop].T @ self.deltas[i]


def _aligned_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized little-endian float64 array whose data starts on a
    64-byte boundary.

    malloc aligns to 16 bytes only. Every parameter array is placed on a
    boundary, so speed does not depend on heap layout: the canonical
    ``train_offline`` took 0.588 s aligned, 0.700 s with plain ``np.empty``
    and 0.706-0.718 s at forced offsets of 16, 32 and 48 bytes (6 rounds).
    """
    size = math.prod(shape)
    buf = np.empty(size + 8, dtype="<f8")
    start = (-buf.ctypes.data % 64) // 8
    return buf[start:start + size].reshape(shape)


def _aligned(a: np.ndarray) -> np.ndarray:
    """A float64 copy of ``a`` on a 64-byte boundary; the same bits."""
    out = _aligned_empty(a.shape)
    out[...] = a
    return out


def init_mlp(layer_dims: list[int], seed: int) -> MlpModel:
    """He-initialized MLP with zero biases; deterministic for a given seed."""
    if len(layer_dims) < 2:
        raise ValueError("layer_dims needs at least input and output dims")
    if any(d < 1 for d in layer_dims):
        raise ValueError(f"all layer dims must be >= 1, got {layer_dims}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(_aligned(rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_in, fan_out))))
        biases.append(_aligned(np.zeros(fan_out)))
    return MlpModel(list(layer_dims), weights, biases)


# ---------------------------------------------------------------------------
# forward pass


def _forward_from(model: MlpModel, a: np.ndarray) -> list:
    """Forward of one input row ``a`` (d,) or of rows (N, d) to the logits.

    Returns the activations: entry k feeds layer k, the last is the logits.
    Each layer is ``a.dot(w)``, then the bias and, on hidden layers, the ReLU
    in place. numpy hands a 1-D row to the gemv of a (1, d) row: equal bits.
    """
    acts: list = [a]
    weights, biases = model.weights, model.biases
    for i in range(len(weights) - 1):
        a = a.dot(weights[i])
        a += biases[i]
        np.maximum(a, 0.0, out=a)
        acts.append(a)
    a = a.dot(weights[-1])
    a += biases[-1]
    acts.append(a)
    return acts


def forward_logits(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Logits for a single float64 input row of length ``model.layer_dims[0]``."""
    out = _forward_from(model, x)[-1]
    if not all(map(math.isfinite, out.tolist())):
        raise FloatingPointError("non-finite logits in forward pass")
    return out


# ---------------------------------------------------------------------------
# loss terms


@dataclass
class LossSpec:
    """Weighted combination of loss terms to evaluate/differentiate.

    Terms at the probe input x:
      * ``uniform_weight``: cross-entropy to the uniform target;
      * ``sc_weight``: consistency hinge against ``sc_ref_pred`` with margin
        ``sc_phi`` (live-model argmax recomputed at evaluation time, ties to
        the lowest index).

    Memory term: the cross-entropy of each row c of ``bank_inputs`` against
    class c, summed over rows and scaled by ``bank_weight``.
    """

    uniform_weight: float = 0.0
    sc_weight: float = 0.0
    sc_ref_pred: int | None = None
    sc_phi: float = 0.0
    bank_inputs: np.ndarray | None = None
    bank_weight: float = 0.0


@dataclass
class EpisodeBatch:
    """The fixed inputs of one update episode, prepared once by
    ``prepare_episode`` and read by each of its loss evaluations.

    ``rows`` stacks the probe row on the C bank rows, probe first; the bank
    rows ride along only when the bank term carries weight, and
    ``bank_label_index`` then holds the flat index of bank row c's class c
    in the (1 + C, C) logits (it is empty otherwise). ``keep`` marks the
    layers that get gradients.
    """

    spec: LossSpec
    rows: np.ndarray
    keep: tuple[bool, ...]
    bank_label_index: np.ndarray


def prepare_episode(model: MlpModel, x: np.ndarray, spec: LossSpec,
                    trainable: tuple[bool, ...] | None = None) -> EpisodeBatch:
    """Stack the float64 probe row ``x`` on the bank rows of ``spec`` (a
    (C, d) float64 array, row c for class c), and keep the layers that the
    mask ``trainable`` marks, or every layer if it is None."""
    if spec.bank_inputs is not None and spec.bank_weight != 0.0:
        rows = np.concatenate([x[None, :], spec.bank_inputs])
        c = model.num_classes
        at_labels = np.arange(1, c + 1) * c + np.arange(c)
    else:
        rows, at_labels = x[None, :], np.empty(0, dtype=np.int64)
    keep = (True,) * model.num_layers if trainable is None else trainable
    return EpisodeBatch(spec, rows, keep, at_labels)


def _backprop(model: MlpModel, acts: list, dlogits: np.ndarray,
              keep: tuple[bool, ...]) -> Gradients:
    """Parameter gradients from batched dL/dlogits (N, C).

    Only layers with ``keep[i]`` get a gradient, and the error signal is not
    propagated below the lowest of them. A weight gradient is kept as its
    factors, the layer's input activations and its error signal (neither is
    written afterwards); a bias gradient is the signal's column sum, a new
    array that ``sgd_step`` may scale in place. The ReLU mask is read from
    the activations: ``relu(z) > 0`` exactly where ``z > 0``.
    """
    n = model.num_layers
    grads = Gradients([None] * n, [None] * n, [None] * n)
    lowest = keep.index(True) if True in keep else n
    delta = dlogits
    for i in range(n - 1, lowest - 1, -1):
        if keep[i]:
            grads.inputs[i], grads.deltas[i] = acts[i], delta
            grads.d_biases[i] = np.add.reduce(delta, axis=0)
        if i > lowest:
            delta = delta @ model.weights[i].T
            delta *= acts[i] > 0.0
    return grads


def _probe_dlogits(logits: np.ndarray, ls: np.ndarray, p: np.ndarray,
                   spec: LossSpec) -> tuple[float, list[float]]:
    """Loss value and dL/dlogits for the terms evaluated at the probe input,
    given its log-softmax ``ls`` and softmax ``p``.

    The consistency hinge is zero when the live and reference argmax agree
    and ``p[pred_t] - p[ref] + phi``, unclamped, when they differ. The
    gradient entries are Python floats: each one gets the operations a
    zero-filled numpy vector would, in the same order, so the bits are
    those of the vector arithmetic without its per-call cost.
    """
    c = len(logits)
    pv = p.tolist()
    loss = 0.0
    dl = [0.0] * c
    if spec.uniform_weight != 0.0:
        w, inv_c = spec.uniform_weight, 1.0 / c
        loss += w * -(float(np.add.reduce(ls)) / c)
        dl = [d + w * (q - inv_c) for d, q in zip(dl, pv)]
    if spec.sc_weight != 0.0:
        pred_t = int(logits.argmax())
        ref = int(spec.sc_ref_pred)  # type: ignore[arg-type]
        if pred_t != ref:
            w, p_t, p_ref = spec.sc_weight, pv[pred_t], pv[ref]
            loss += w * (p_t - p_ref + spec.sc_phi)
            # d(p_a - p_b)/dz_j = p_a (1{a=j} - p_j) - p_b (1{b=j} - p_j)
            g = [-(p_t - p_ref) * q for q in pv]
            g[pred_t] += p_t
            g[ref] -= p_ref
            dl = [d + w * gj for d, gj in zip(dl, g)]
    return loss, dl


def _loss_and_grad(model: MlpModel, batch: EpisodeBatch,
                   want_grad: bool = True) -> tuple[float, Gradients | None]:
    """Loss value and, if ``want_grad``, the gradients of the kept layers
    (the others are None).

    All rows of the batch go through one forward from the input and one
    backprop: each kept layer's weight gradient is one matmul over all
    terms. The batch shape is fixed by the spec, so the bits are too, and
    a kept layer's gradient has the bits of the full gradient's.

    Every row gets the same max-shifted log-softmax in one pass. The probe
    row's log of its exp-sum is ``math.log`` and the bank rows' is
    ``np.log``, as the two terms always had: they can differ in the last
    bit.
    """
    acts = _forward_from(model, batch.rows)
    logits = acts[-1]
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    sums = np.add.reduce(np.exp(shifted), axis=1)
    logs = np.log(sums)
    logs[0] = math.log(sums[0])
    ls = shifted - logs[:, None]
    p = np.exp(ls)
    total, dl = _probe_dlogits(logits[0], ls[0], p[0], batch.spec)
    at_labels = batch.bank_label_index
    if len(at_labels):
        total += batch.spec.bank_weight * float(np.add.reduce(-ls.take(at_labels)))
    if not want_grad:
        return total, None
    # p becomes dL/dlogits in place: row 0 the probe's, rows 1..C the bank's
    p[0] = dl
    if len(at_labels):
        p.reshape(-1)[at_labels] -= 1.0
        np.multiply(p[1:], batch.spec.bank_weight, out=p[1:])
    return total, _backprop(model, acts, p, batch.keep)


def total_loss(model: MlpModel, batch: EpisodeBatch) -> float:
    """Scalar value of the episode loss described by ``batch.spec``."""
    value, _ = _loss_and_grad(model, batch, want_grad=False)
    return value


# ---------------------------------------------------------------------------
# optimization


# Weight-gradient entries that sgd_step materializes at a time (128 KiB).
# Every layer of the canonical net (128 x 128 at most) is one block.
SGD_BLOCK = 1 << 14


# 0.12 us a call cached, 1.17 us not: ~9 ms of a canonical pretrain (0.59 s, 9,000 calls)
@functools.lru_cache(maxsize=None)  # keyed by layer shape, so it stays small
def _row_blocks(rows: int, cols: int) -> tuple[tuple[int, int], ...]:
    """The (start, stop) row blocks that ``sgd_step`` applies a
    ``(rows, cols)`` weight in.

    A block holds at most ``SGD_BLOCK`` entries, but never one row unless
    the layer has only one. numpy computes a ``(1, N) @ (N, cols)`` product
    with gemv, and its bits differ from those of the gemm rows of the full
    matrix. A one-column layer is one block for the same reason: each of
    its products is a gemv, and a gemv's bits depend on where its rows
    start.
    """
    step = max(2, SGD_BLOCK // cols) if cols > 1 else rows
    starts = list(range(0, max(rows - 1, 1), step))
    return tuple(zip(starts, starts[1:] + [rows]))


def sgd_step(model: MlpModel, grads: Gradients, lr: float) -> None:
    """In-place ``param -= lr * g`` on each layer that ``grads`` holds a
    gradient for.

    A layer whose gradient is None is never written, so it stays
    bit-identical. A weight is updated in row blocks (``_row_blocks``):
    each block's gradient rows are materialized from the factors and then
    get the elementwise operations of the whole-matrix update, so no
    full-size gradient or temporary exists. Each gradient is scaled by the
    learning rate in place, so the bias gradients are consumed.
    """
    for i, d_bias in enumerate(grads.d_biases):
        if d_bias is None:
            continue
        w = model.weights[i]
        for start, stop in _row_blocks(*w.shape):
            block, g = w[start:stop], grads.weight(i, start, stop)
            block -= np.multiply(g, lr, out=g)
        model.biases[i] -= np.multiply(d_bias, lr, out=d_bias)


def clone_frozen(model: MlpModel) -> MlpModel:
    """Deep copy; later updates to the original never touch the clone."""
    return MlpModel(
        list(model.layer_dims),
        [_aligned(w) for w in model.weights],
        [_aligned(b) for b in model.biases],
    )


def accuracy(model: MlpModel, features: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of float64 feature rows whose argmax logit matches the label."""
    logits = _forward_from(model, features)[-1]
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def train_offline(model: MlpModel, dataset, epochs: int, batch_size: int,
                  lr: float, seed: int = 0) -> MlpModel:
    """Minibatch SGD at learning rate ``lr`` on mean label cross-entropy over
    all layers.

    ``dataset`` needs ``.features`` (N, d) and ``.labels`` (N,). Shuffling is
    seeded. ``epochs=0`` is a no-op. An epoch that leaves a non-finite weight
    or bias raises ``FloatingPointError``.
    """
    feats = np.asarray(dataset.features, dtype=np.float64)
    labels = np.asarray(dataset.labels, dtype=np.int64)
    n = len(feats)
    if n == 0:
        raise ValueError("empty training dataset")
    if labels.min() < 0 or labels.max() >= model.num_classes:
        raise ValueError("labels out of range for the model's class count")
    if not 0 < lr < math.inf:  # NaN fails too
        raise ValueError(f"learning_rate must be positive and finite, got {lr}")
    keep = (True,) * model.num_layers
    rng = np.random.default_rng(seed)
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            xb, yb = feats[idx], labels[idx]
            acts = _forward_from(model, xb)
            logits = acts[-1]
            shifted = logits - logits.max(axis=1, keepdims=True)
            probs = np.exp(shifted)
            probs /= probs.sum(axis=1, keepdims=True)
            dlogits = probs
            dlogits[np.arange(len(yb)), yb] -= 1.0
            dlogits /= len(yb)
            sgd_step(model, _backprop(model, acts, dlogits, keep), lr)
        if not all(np.isfinite(p).all() for p in (*model.weights, *model.biases)):
            raise FloatingPointError(f"training diverged: epoch {epoch} of {epochs} left a "
                                     "non-finite weight")
    return model


# ---------------------------------------------------------------------------
# checkpointing


# Longest header line read; a longer one is a malformed header.
_HEADER_LINE_BYTES = 1 << 16


def save_checkpoint(model: MlpModel, path, pretrain_hash: str) -> None:
    """Write the model as three ASCII header lines and raw float64 payloads,
    bit-exact on reload.

    The header holds the magic, the layer dims and ``pretrain_hash``. Then
    come the little-endian float64 bytes of W0, b0, W1, b1, ... in C order,
    with no separators: the dims fix every size.
    """
    with open(path, "wb") as f:
        f.write(f"{CHECKPOINT_MAGIC}\n{' '.join(map(str, model.layer_dims))}\n"
                f"{pretrain_hash}\n".encode("ascii"))
        for w, b in zip(model.weights, model.biases):
            f.write(np.ascontiguousarray(w, "<f8").data)
            f.write(np.ascontiguousarray(b, "<f8").data)


def load_checkpoint(path) -> tuple[MlpModel, str]:
    """Reload a checkpoint and its pretraining hash, validating version,
    structure, dimensions and values.

    Any failure is a :class:`CheckpointError`; for a header but the current
    one, its message says to run ``pretrain`` again.
    Each tensor is read straight into its 64-byte-aligned array, so no
    tensor is held twice.
    """
    with open(path, "rb") as f:
        # The magic line is read to its own length, so a file of another kind
        # quotes at most that many bytes in the error below.
        raw = [f.readline(len(CHECKPOINT_MAGIC) + 1)]
        if not raw[0]:
            raise CheckpointError("empty checkpoint file")
        magic = raw[0].rstrip(b"\n").decode("ascii", "replace")
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(
                f"unsupported checkpoint header {magic!r}, expected {CHECKPOINT_MAGIC!r} "
                "(run `pretrain` again to rewrite it)"
            )
        raw += [f.readline(_HEADER_LINE_BYTES) for _ in range(2)]
        if not all(line.endswith(b"\n") for line in raw):
            raise CheckpointError("truncated checkpoint: missing header lines")
        dims_line, pretrain_hash = (line[:-1].decode("ascii", "replace") for line in raw[1:])
        try:
            layer_dims = [int(t) for t in dims_line.split()]
        except ValueError as exc:
            raise CheckpointError(f"bad layer dims line: {dims_line!r}") from exc
        if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
            raise CheckpointError(f"invalid layer dims {layer_dims}")
        n_layers = len(layer_dims) - 1
        end = os.fstat(f.fileno()).st_size
        tensors: list[np.ndarray] = []
        for i in range(n_layers):
            fan_out = layer_dims[i + 1]
            for name, shape in ((f"W{i}", (layer_dims[i], fan_out)), (f"b{i}", (fan_out,))):
                # Bytes the file still holds, checked first: a dims line that
                # promises more than the file holds must not size an allocation.
                nbytes, got = 8 * math.prod(shape), end - f.tell()
                tensor = _aligned_empty(shape) if got >= nbytes else None
                if tensor is None or f.readinto(tensor) != nbytes:
                    raise CheckpointError(
                        f"tensor {name}: expected {nbytes} bytes, got {min(got, nbytes)}")
                if not np.isfinite(tensor).all():
                    raise CheckpointError(f"tensor {name}: non-finite value")
                tensors.append(tensor)
        if f.read(1):
            raise CheckpointError(f"unexpected bytes after tensor b{n_layers - 1}")
    return MlpModel(layer_dims, tensors[0::2], tensors[1::2]), pretrain_hash
