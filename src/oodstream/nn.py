"""Dense numerical core: a small MLP with softmax head, hand-derived gradients.

Everything runs in float64 numpy. The model is a plain value object; all loss
and gradient functions are pure, and parameter updates mutate the model in
place under single-owner discipline. Gradients are derived analytically for
exactly the loss terms this package optimizes (label cross-entropy,
cross-entropy to the uniform target, and the prediction-consistency hinge);
there is no general autodiff facility.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = "auto-mlp v1"


class InputDimensionError(ValueError):
    """Input vector does not match the model's expected dimension."""


class CheckpointError(Exception):
    """Base class for checkpoint load failures."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint header carries an unknown version tag."""


class CheckpointFormatError(CheckpointError):
    """Checkpoint file is malformed or truncated."""


class CheckpointDimensionError(CheckpointError):
    """Checkpoint tensors are inconsistent with the declared layer dims."""


@dataclass
class SgdConfig:
    """Plain SGD settings; online updates touch only ``trainable_groups``."""

    learning_rate: float = 0.001
    weight_decay: float = 0.0
    momentum: float = 0.0
    trainable_groups: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        self.trainable_groups = frozenset(self.trainable_groups)


@dataclass
class MlpModel:
    """Fully-connected network: ReLU hidden layers, identity (logit) output.

    ``weights[i]`` has shape ``(layer_dims[i], layer_dims[i+1])`` and
    ``biases[i]`` shape ``(layer_dims[i+1],)``. Each layer belongs to exactly
    one named parameter group (``group_labels[i]``); hidden layer k is
    ``"blockK"`` and the output layer is ``"fc"``, so the groups partition
    all parameters.
    """

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    group_labels: list[str]

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def num_classes(self) -> int:
        return self.layer_dims[-1]

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def groups(self) -> list[str]:
        """Distinct group names in layer order."""
        seen: list[str] = []
        for g in self.group_labels:
            if g not in seen:
                seen.append(g)
        return seen


@dataclass
class Gradients:
    """Per-parameter gradient tensors, shape-matched to an MlpModel.

    A gradient restricted to some parameter groups holds None for the layers
    outside them.
    """

    d_weights: list[np.ndarray | None]
    d_biases: list[np.ndarray | None]


def default_group_labels(layer_dims: list[int]) -> list[str]:
    """Hidden layer k -> "blockK"; output layer -> "fc"."""
    n_layers = len(layer_dims) - 1
    return [f"block{i + 1}" for i in range(n_layers - 1)] + ["fc"]


def last_block_group(model: MlpModel) -> str:
    """Group name of the last hidden layer (the recommended online-update target)."""
    if model.num_layers < 2:
        raise ValueError("model has no hidden layer")
    return model.group_labels[model.num_layers - 2]


def init_mlp(layer_dims: list[int], seed: int, scale: float | None = None) -> MlpModel:
    """He-initialized MLP with zero biases; deterministic for a given seed."""
    if len(layer_dims) < 2:
        raise ValueError("layer_dims needs at least input and output dims")
    if any(d < 1 for d in layer_dims):
        raise ValueError(f"all layer dims must be >= 1, got {layer_dims}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        s = scale if scale is not None else math.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, s, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(list(layer_dims), weights, biases, default_group_labels(layer_dims))


def _empty_gradients(model: MlpModel) -> Gradients:
    return Gradients([None] * model.num_layers, [None] * model.num_layers)


def zero_gradients(model: MlpModel) -> Gradients:
    return Gradients(
        [np.zeros_like(w) for w in model.weights],
        [np.zeros_like(b) for b in model.biases],
    )


# ---------------------------------------------------------------------------
# forward pass


def _forward_batch(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Batched forward returning (logits, pre-activations, activations).

    ``x`` is (N, d). activations[0] is the input; activations[k] feeds layer k.
    """
    pre_acts: list[np.ndarray] = []
    acts: list[np.ndarray] = [x]
    a = x
    last = model.num_layers - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        pre_acts.append(z)
        a = z if i == last else np.maximum(z, 0.0)
        acts.append(a)
    return a, pre_acts, acts


def forward_logits(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Logits for a single input vector of length ``model.input_dim``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.input_dim,):
        raise InputDimensionError(
            f"expected input of shape ({model.input_dim},), got {x.shape}"
        )
    # The same layer arithmetic as _forward_batch on one row, without keeping
    # the intermediates that only backprop needs.
    a = x[None, :]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
    out = (a @ model.weights[-1] + model.biases[-1])[0]
    if not np.isfinite(out).all():
        raise FloatingPointError("non-finite logits in forward pass")
    return out


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax (max-shifted); shift-invariant."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max()
    return shifted - math.log(np.exp(shifted).sum())


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


# ---------------------------------------------------------------------------
# loss terms


def loss_ce_label(logits: np.ndarray, label: int) -> float:
    """Cross-entropy against a hard label: -log softmax(logits)[label]."""
    n = len(logits)
    if not 0 <= label < n:
        raise ValueError(f"label {label} out of range for {n} classes")
    return float(-log_softmax(logits)[label])

def loss_ce_uniform(logits: np.ndarray) -> float:
    """Cross-entropy to the uniform target: -(1/C) * sum_c log softmax(logits)[c].

    Minimum is ln C, attained exactly when the softmax is uniform; the
    gradient equals that of KL(uniform || softmax), the two differing only
    by the constant ln C.
    """
    ls = log_softmax(logits)
    return float(-np.mean(ls))


def loss_sc(softmax_t: np.ndarray, pred_t: int, pred_0: int, phi: float) -> float:
    """Prediction-consistency hinge between the live and reference argmax.

    Zero when the predictions agree; otherwise
    ``softmax_t[pred_t] - softmax_t[pred_0] + phi`` with no clamping.
    """
    n = len(softmax_t)
    if not (0 <= pred_t < n and 0 <= pred_0 < n):
        raise ValueError(f"class index out of range for {n} classes")
    if pred_t == pred_0:
        return 0.0
    return float(softmax_t[pred_t] - softmax_t[pred_0] + phi)


@dataclass
class LossSpec:
    """Weighted combination of loss terms to evaluate/differentiate.

    Terms at the probe input x:
      * ``label`` (weight ``label_weight``): cross-entropy to that label;
      * ``uniform_weight``: cross-entropy to the uniform target;
      * ``sc_weight``: consistency hinge against ``sc_ref_pred`` with margin
        ``sc_phi`` (live-model argmax recomputed at evaluation time, ties to
        the lowest index).

    Memory terms: per-row cross-entropy of ``bank_inputs`` against
    ``bank_labels``, reduced by ``bank_reduction`` and scaled by
    ``bank_weight``.
    """

    label: int | None = None
    label_weight: float = 1.0
    uniform_weight: float = 0.0
    sc_weight: float = 0.0
    sc_ref_pred: int | None = None
    sc_phi: float = 0.0
    bank_inputs: np.ndarray | None = None
    bank_labels: np.ndarray | None = None
    bank_weight: float = 0.0
    bank_reduction: str = "sum"

    def __post_init__(self) -> None:
        if self.bank_reduction not in ("sum", "mean"):
            raise ValueError(f"unknown bank_reduction {self.bank_reduction!r}")
        if self.sc_weight != 0.0 and self.sc_ref_pred is None:
            raise ValueError("sc_weight set but sc_ref_pred missing")


def _backprop(model: MlpModel, pre_acts: list[np.ndarray], acts: list[np.ndarray],
              dlogits: np.ndarray, keep: list[bool], grads: Gradients) -> None:
    """Add parameter gradients from batched dL/dlogits (N, C) into ``grads``.

    Only layers with ``keep[i]`` get a gradient, and the error signal is not
    propagated below the lowest of them. A slot that is still None takes its
    first contribution as is; later ones are added in place. The result equals
    summing into zero-filled buffers except for the sign of an exact zero.
    """
    lowest = keep.index(True) if True in keep else model.num_layers
    delta = dlogits
    for i in range(model.num_layers - 1, lowest - 1, -1):
        if keep[i]:
            if len(delta) == 1:
                # One row: each entry is a single product, which the outer
                # product gives exactly and numpy's K=1 matmul loop does slowly.
                d_w = np.einsum("i,j->ij", acts[i][0], delta[0])
            else:
                d_w = acts[i].T @ delta
            d_b = delta.sum(axis=0)
            if grads.d_weights[i] is None:
                grads.d_weights[i], grads.d_biases[i] = d_w, d_b
            else:
                grads.d_weights[i] += d_w
                grads.d_biases[i] += d_b
        if i > lowest:
            delta = (delta @ model.weights[i].T) * (pre_acts[i - 1] > 0.0)


def _probe_dlogits(logits: np.ndarray, spec: LossSpec) -> tuple[float, np.ndarray]:
    """Loss value and dL/dlogits for the terms evaluated at the probe input."""
    c = len(logits)
    ls = log_softmax(logits)
    p = np.exp(ls)
    loss = 0.0
    dl = np.zeros(c)
    if spec.label is not None and spec.label_weight != 0.0:
        if not 0 <= spec.label < c:
            raise ValueError(f"label {spec.label} out of range for {c} classes")
        loss += spec.label_weight * float(-ls[spec.label])
        g = p.copy()
        g[spec.label] -= 1.0
        dl += spec.label_weight * g
    if spec.uniform_weight != 0.0:
        loss += spec.uniform_weight * float(-ls.mean())
        dl += spec.uniform_weight * (p - 1.0 / c)
    if spec.sc_weight != 0.0:
        pred_t = int(logits.argmax())
        ref = int(spec.sc_ref_pred)  # type: ignore[arg-type]
        loss += spec.sc_weight * loss_sc(p, pred_t, ref, spec.sc_phi)
        if pred_t != ref:
            # d(p_a - p_b)/dz_j = p_a (1{a=j} - p_j) - p_b (1{b=j} - p_j)
            g = -(p[pred_t] - p[ref]) * p
            g[pred_t] += p[pred_t]
            g[ref] -= p[ref]
            dl += spec.sc_weight * g
    return loss, dl


def _loss_and_grad(model: MlpModel, x: np.ndarray | None, spec: LossSpec,
                   want_grad: bool = True,
                   trainable: frozenset[str] | None = None) -> tuple[float, Gradients | None]:
    """Loss value and, if ``want_grad``, its gradients.

    With ``trainable`` set, only layers in those groups get a gradient (the
    others are None); their values equal the matching entries of the full
    gradient bit for bit.
    """
    keep = [trainable is None or g in trainable for g in model.group_labels]
    grads = _empty_gradients(model) if want_grad else None
    total = 0.0
    if x is not None:
        xv = np.asarray(x, dtype=np.float64)
        if xv.shape != (model.input_dim,):
            raise InputDimensionError(
                f"expected input of shape ({model.input_dim},), got {xv.shape}"
            )
        logits, pre, acts = _forward_batch(model, xv[None, :])
        loss_x, dl = _probe_dlogits(logits[0], spec)
        total += loss_x
        if want_grad and (dl != 0.0).any():
            _backprop(model, pre, acts, dl[None, :], keep, grads)  # type: ignore[arg-type]
    if spec.bank_inputs is not None and spec.bank_weight != 0.0:
        xb = np.asarray(spec.bank_inputs, dtype=np.float64)
        yb = np.asarray(spec.bank_labels, dtype=np.int64)
        logits, pre, acts = _forward_batch(model, xb)
        ls = logits - logits.max(axis=1, keepdims=True)
        ls = ls - np.log(np.exp(ls).sum(axis=1, keepdims=True))
        per_row = -ls[np.arange(len(yb)), yb]
        scale = spec.bank_weight / (len(yb) if spec.bank_reduction == "mean" else 1)
        total += scale * float(per_row.sum())
        if want_grad:
            probs = np.exp(ls)
            probs[np.arange(len(yb)), yb] -= 1.0
            _backprop(model, pre, acts, scale * probs, keep, grads)  # type: ignore[arg-type]
    if grads is not None:
        # A requested layer that no term reached has a zero gradient.
        for i, k in enumerate(keep):
            if k and grads.d_weights[i] is None:
                grads.d_weights[i] = np.zeros_like(model.weights[i])
                grads.d_biases[i] = np.zeros_like(model.biases[i])
    return total, grads


def total_loss(model: MlpModel, x: np.ndarray | None, spec: LossSpec) -> float:
    """Scalar value of the loss combination described by ``spec``."""
    value, _ = _loss_and_grad(model, x, spec, want_grad=False)
    return value


def backward(model: MlpModel, x: np.ndarray | None, spec: LossSpec) -> Gradients:
    """Exact analytic gradients of the ``spec`` loss w.r.t. every parameter."""
    _, grads = _loss_and_grad(model, x, spec, want_grad=True)
    assert grads is not None
    return grads


# ---------------------------------------------------------------------------
# optimization


def sgd_step(model: MlpModel, grads: Gradients, cfg: SgdConfig,
             velocity: Gradients | None = None) -> MlpModel:
    """In-place SGD update restricted to layers in ``cfg.trainable_groups``.

    Layers outside the trainable groups are never written, so they stay
    bit-identical. With nonzero momentum a ``velocity`` buffer must be
    supplied and is updated in place.
    """
    if cfg.momentum != 0.0 and velocity is None:
        raise ValueError("nonzero momentum requires a velocity buffer")
    for i, group in enumerate(model.group_labels):
        if group not in cfg.trainable_groups:
            continue
        for param, grad, vel in (
            (model.weights[i], grads.d_weights[i],
             velocity.d_weights[i] if velocity else None),
            (model.biases[i], grads.d_biases[i],
             velocity.d_biases[i] if velocity else None),
        ):
            g = grad + cfg.weight_decay * param if cfg.weight_decay else grad
            if cfg.momentum != 0.0:
                vel *= cfg.momentum
                vel += g
                g = vel
            param -= cfg.learning_rate * g
    return model


def clone_frozen(model: MlpModel) -> MlpModel:
    """Deep copy; later updates to the original never touch the clone."""
    return MlpModel(
        list(model.layer_dims),
        [w.copy() for w in model.weights],
        [b.copy() for b in model.biases],
        list(model.group_labels),
    )


def accuracy(model: MlpModel, features: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax logit matches the label."""
    logits, _, _ = _forward_batch(model, np.asarray(features, dtype=np.float64))
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels)))


def train_offline(model: MlpModel, dataset, epochs: int, batch_size: int,
                  cfg: SgdConfig, seed: int = 0) -> MlpModel:
    """Minibatch SGD on mean label cross-entropy over all parameter groups.

    ``dataset`` needs ``.features`` (N, d) and ``.labels`` (N,). Shuffling is
    seeded; the final training accuracy is logged. ``epochs=0`` is a no-op.
    """
    feats = np.asarray(dataset.features, dtype=np.float64)
    labels = np.asarray(dataset.labels, dtype=np.int64)
    n = len(feats)
    if n == 0:
        raise ValueError("empty training dataset")
    if labels.min() < 0 or labels.max() >= model.num_classes:
        raise ValueError("labels out of range for the model's class count")
    train_cfg = SgdConfig(
        learning_rate=cfg.learning_rate,
        weight_decay=cfg.weight_decay,
        momentum=cfg.momentum,
        trainable_groups=frozenset(model.group_labels),
    )
    velocity = zero_gradients(model) if cfg.momentum != 0.0 else None
    keep = [True] * model.num_layers
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            xb, yb = feats[idx], labels[idx]
            logits, pre, acts = _forward_batch(model, xb)
            shifted = logits - logits.max(axis=1, keepdims=True)
            probs = np.exp(shifted)
            probs /= probs.sum(axis=1, keepdims=True)
            dlogits = probs
            dlogits[np.arange(len(yb)), yb] -= 1.0
            dlogits /= len(yb)
            step_grads = _empty_gradients(model)
            _backprop(model, pre, acts, dlogits, keep, step_grads)
            # Release the last step's gradients only now. Freed before this
            # step's exist, their slots leave a hole at the heap top that the
            # allocator trims and then faults back in on every step (about
            # 800 page faults a step at 512 wide, measured with glibc).
            grads = step_grads
            sgd_step(model, grads, train_cfg, velocity)
    if epochs > 0:
        logger.info("train_offline: %d epochs, final train accuracy %.4f",
                    epochs, accuracy(model, feats, labels))
    return model


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(model: MlpModel, path) -> None:
    """Write the model as versioned line-oriented text, bit-exact on reload."""
    lines = [CHECKPOINT_MAGIC]
    lines.append(" ".join(str(d) for d in model.layer_dims))
    lines.append(" ".join(model.group_labels))
    for i in range(model.num_layers):
        for name, tensor in ((f"W{i}", model.weights[i]), (f"b{i}", model.biases[i])):
            shape = " ".join(str(s) for s in tensor.shape)
            values = " ".join(["%.17g"] * tensor.size) % tuple(tensor.ravel().tolist())
            lines.append(f"{name} {shape} {values}")
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> MlpModel:
    """Reload a checkpoint, validating version, structure, and dimensions."""
    with open(path, "r", encoding="ascii") as f:
        lines = [ln.rstrip("\n") for ln in f]
    if not lines:
        raise CheckpointFormatError("empty checkpoint file")
    if lines[0] != CHECKPOINT_MAGIC:
        raise CheckpointVersionError(
            f"unsupported checkpoint header {lines[0]!r}, expected {CHECKPOINT_MAGIC!r}"
        )
    if len(lines) < 3:
        raise CheckpointFormatError("truncated checkpoint: missing header lines")
    try:
        layer_dims = [int(t) for t in lines[1].split()]
    except ValueError as exc:
        raise CheckpointFormatError(f"bad layer dims line: {lines[1]!r}") from exc
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
        raise CheckpointDimensionError(f"invalid layer dims {layer_dims}")
    group_labels = lines[2].split()
    n_layers = len(layer_dims) - 1
    if len(group_labels) != n_layers:
        raise CheckpointDimensionError(
            f"expected {n_layers} group labels, got {len(group_labels)}"
        )
    tensor_lines = [ln for ln in lines[3:] if ln.strip()]
    if len(tensor_lines) != 2 * n_layers:
        raise CheckpointFormatError(
            f"expected {2 * n_layers} tensor lines, found {len(tensor_lines)}"
        )
    weights: list[np.ndarray] = []
    biases: list[np.ndarray] = []
    for i in range(n_layers):
        w_shape = (layer_dims[i], layer_dims[i + 1])
        weights.append(_parse_tensor(tensor_lines[2 * i], f"W{i}", w_shape))
        biases.append(_parse_tensor(tensor_lines[2 * i + 1], f"b{i}", (layer_dims[i + 1],)))
    return MlpModel(layer_dims, weights, biases, group_labels)


def _parse_tensor(line: str, name: str, shape: tuple[int, ...]) -> np.ndarray:
    tokens = line.split()
    if not tokens or tokens[0] != name:
        raise CheckpointFormatError(f"expected tensor {name!r}, got line {line[:40]!r}")
    ndim = len(shape)
    try:
        declared = tuple(int(t) for t in tokens[1:1 + ndim])
    except ValueError as exc:
        raise CheckpointFormatError(f"bad shape for tensor {name}") from exc
    if declared != shape:
        raise CheckpointDimensionError(
            f"tensor {name} declares shape {declared}, expected {shape}"
        )
    count = int(np.prod(shape))
    raw = tokens[1 + ndim:]
    if len(raw) != count:
        raise CheckpointFormatError(
            f"tensor {name}: expected {count} values, found {len(raw)}"
        )
    try:
        values = np.array([float(t) for t in raw], dtype=np.float64)
    except ValueError as exc:
        raise CheckpointFormatError(f"tensor {name}: unparsable value") from exc
    if not np.all(np.isfinite(values)):
        raise CheckpointFormatError(f"tensor {name}: non-finite value")
    return values.reshape(shape)
