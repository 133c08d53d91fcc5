"""Shared test utilities: finite-difference gradients, log builders, and
straight-line reference formulas that the fast paths must equal bit for bit."""

from __future__ import annotations

import math

import numpy as np

from oodstream.engine import EventLog, RunCounts, StreamEvent
from oodstream.filtering import FilterDecision
from oodstream.metrics import _split_scores
from oodstream.nn import (CHECKPOINT_MAGIC, Gradients, LossSpec, MlpModel, SgdConfig,
                          _forward_batch, _probe_dlogits, loss_sc, sgd_step, total_loss,
                          zero_gradients)
from oodstream.scoring import ScoreKind


def finite_diff_grads(model: MlpModel, x, spec: LossSpec, step: float = 1e-5):
    """Central-difference gradient of total_loss w.r.t. every parameter."""
    d_weights, d_biases = [], []
    for tensors, store in ((model.weights, d_weights), (model.biases, d_biases)):
        for t in tensors:
            g = np.zeros_like(t)
            flat = t.ravel()
            gflat = g.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                hi = total_loss(model, x, spec)
                flat[i] = orig - step
                lo = total_loss(model, x, spec)
                flat[i] = orig
                gflat[i] = (hi - lo) / (2 * step)
            store.append(g)
    return d_weights, d_biases


def max_grad_rel_err(model: MlpModel, x, spec: LossSpec, step: float = 1e-5) -> float:
    """Max entrywise relative error between analytic and numeric gradients,
    with a 1e-4 magnitude floor so exact zeros compare at absolute scale."""
    from oodstream.nn import backward

    analytic = backward(model, x, spec)
    fd_w, fd_b = finite_diff_grads(model, x, spec, step)
    worst = 0.0
    for a, f in zip(analytic.d_weights + analytic.d_biases, fd_w + fd_b):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-4)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


def make_event(index: int, score: float, is_ood: bool, prediction: int = 0,
               label: int | None = 0,
               decision: FilterDecision = FilterDecision.ABSTAIN,
               m_out: float = 0.0) -> StreamEvent:
    return StreamEvent(
        index=index,
        score_at_arrival=score,
        prediction=prediction,
        decision=decision,
        ground_truth_is_ood=is_ood,
        ground_truth_label=None if is_ood else label,
        m_out_after=m_out,
    )


def log_from_scores(id_scores, ood_scores) -> EventLog:
    """Synthetic event log carrying only scores and ground-truth flags."""
    events = []
    for s in id_scores:
        events.append(make_event(len(events), float(s), is_ood=False))
    for s in ood_scores:
        events.append(make_event(len(events), float(s), is_ood=True))
    counts = RunCounts(abstain=len(events))
    return EventLog(events=events, counts=counts)


def random_log(rng: np.random.Generator, n_id: int, n_ood: int,
               with_ties: bool) -> EventLog:
    """Random score log; optionally quantized so ties occur across classes."""
    id_scores = rng.normal(1.0, 0.5, size=n_id)
    ood_scores = rng.normal(0.5, 0.5, size=n_ood)
    if with_ties:
        id_scores = np.round(id_scores, 1)
        ood_scores = np.round(ood_scores, 1)
    return log_from_scores(id_scores, ood_scores)


# ---------------------------------------------------------------------------
# reference formulas (np.max / np.sum / np.argmax wrappers, explicit loops)


def log_softmax_reference(logits) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - np.max(z)
    return shifted - math.log(np.sum(np.exp(shifted)))


def score_reference(kind: ScoreKind, logits) -> float:
    z = np.asarray(logits, dtype=np.float64)
    if kind.kind == "msp":
        return float(np.max(np.exp(log_softmax_reference(z))))
    if kind.kind == "maxlogit":
        return float(np.max(z))
    t = kind.temperature
    zt = z / t
    m = float(np.max(zt))
    return t * (m + math.log(float(np.sum(np.exp(zt - m)))))


def predict_reference(logits) -> int:
    return int(np.argmax(np.asarray(logits)))


def probe_dlogits_reference(logits: np.ndarray, spec: LossSpec) -> tuple[float, np.ndarray]:
    """Probe-input loss and dL/dlogits, each term from its own log-softmax."""
    c = len(logits)
    p = np.exp(log_softmax_reference(logits))
    loss = 0.0
    dl = np.zeros(c)
    if spec.label is not None and spec.label_weight != 0.0:
        loss += spec.label_weight * float(-log_softmax_reference(logits)[spec.label])
        g = p.copy()
        g[spec.label] -= 1.0
        dl += spec.label_weight * g
    if spec.uniform_weight != 0.0:
        loss += spec.uniform_weight * float(-np.mean(log_softmax_reference(logits)))
        dl += spec.uniform_weight * (p - 1.0 / c)
    if spec.sc_weight != 0.0:
        pred_t = int(np.argmax(logits))
        ref = int(spec.sc_ref_pred)
        loss += spec.sc_weight * loss_sc(p, pred_t, ref, spec.sc_phi)
        if pred_t != ref:
            g = -(p[pred_t] - p[ref]) * p
            g[pred_t] += p[pred_t]
            g[ref] -= p[ref]
            dl += spec.sc_weight * g
    return loss, dl


def auroc_midrank_loop(log: EventLog) -> float:
    """AUROC from midranks assigned by an explicit scan over tie groups."""
    id_scores, ood_scores = _split_scores(log.events)
    combined = np.concatenate([id_scores, ood_scores])
    order = np.argsort(combined, kind="mergesort")
    ranks = np.empty(combined.size)
    ranks[order] = np.arange(1, combined.size + 1)
    sorted_vals = combined[order]
    i = 0
    while i < combined.size:
        j = i
        while j + 1 < combined.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            ranks[order[i:j + 1]] = 0.5 * (i + 1 + j + 1)
        i = j + 1
    n_id = id_scores.size
    u = ranks[:n_id].sum() - n_id * (n_id + 1) / 2.0
    return float(u / (n_id * ood_scores.size))


# ---------------------------------------------------------------------------
# gradient and checkpoint oracles (zero-filled buffers, one matmul per layer,
# one f-string per numpy scalar)


def backprop_reference(model: MlpModel, pre_acts, acts, dlogits: np.ndarray,
                       grads: Gradients) -> None:
    """Add ``acts.T @ delta`` into every allocated (non-None) zero-filled slot."""
    lowest = next((i for i, g in enumerate(grads.d_weights) if g is not None),
                  model.num_layers)
    delta = dlogits
    for i in range(model.num_layers - 1, lowest - 1, -1):
        if grads.d_weights[i] is not None:
            grads.d_weights[i] += acts[i].T @ delta
            grads.d_biases[i] += delta.sum(axis=0)
        if i > lowest:
            delta = (delta @ model.weights[i].T) * (pre_acts[i - 1] > 0.0)


def loss_and_grad_reference(model: MlpModel, x, spec: LossSpec,
                            trainable=None) -> tuple[float, Gradients]:
    """Loss and gradients of ``spec``, every requested slot starting at zero."""
    keep = [trainable is None or g in trainable for g in model.group_labels]
    grads = Gradients(
        [np.zeros_like(w) if k else None for w, k in zip(model.weights, keep)],
        [np.zeros_like(b) if k else None for b, k in zip(model.biases, keep)],
    )
    total = 0.0
    if x is not None:
        logits, pre, acts = _forward_batch(model, np.asarray(x, dtype=np.float64)[None, :])
        loss_x, dl = _probe_dlogits(logits[0], spec)
        total += loss_x
        if (dl != 0.0).any():
            backprop_reference(model, pre, acts, dl[None, :], grads)
    if spec.bank_inputs is not None and spec.bank_weight != 0.0:
        yb = np.asarray(spec.bank_labels, dtype=np.int64)
        logits, pre, acts = _forward_batch(model, np.asarray(spec.bank_inputs, dtype=np.float64))
        ls = logits - logits.max(axis=1, keepdims=True)
        ls = ls - np.log(np.exp(ls).sum(axis=1, keepdims=True))
        scale = spec.bank_weight / (len(yb) if spec.bank_reduction == "mean" else 1)
        total += scale * float(-ls[np.arange(len(yb)), yb].sum())
        probs = np.exp(ls)
        probs[np.arange(len(yb)), yb] -= 1.0
        backprop_reference(model, pre, acts, scale * probs, grads)
    return total, grads


def train_offline_reference(model: MlpModel, features, labels, epochs: int,
                            batch_size: int, cfg: SgdConfig, seed: int = 0) -> MlpModel:
    """Minibatch SGD on mean label cross-entropy, gradients from the oracle."""
    train_cfg = SgdConfig(learning_rate=cfg.learning_rate, weight_decay=cfg.weight_decay,
                          momentum=cfg.momentum,
                          trainable_groups=frozenset(model.group_labels))
    velocity = zero_gradients(model) if cfg.momentum != 0.0 else None
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(len(features))
        for start in range(0, len(features), batch_size):
            idx = order[start:start + batch_size]
            logits, pre, acts = _forward_batch(model, features[idx])
            probs = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs /= probs.sum(axis=1, keepdims=True)
            probs[np.arange(len(idx)), labels[idx]] -= 1.0
            probs /= len(idx)
            grads = zero_gradients(model)
            backprop_reference(model, pre, acts, probs, grads)
            sgd_step(model, grads, train_cfg, velocity)
    return model


def checkpoint_text_reference(model: MlpModel) -> str:
    """Checkpoint file text with each value formatted by its own f-string."""
    lines = [CHECKPOINT_MAGIC, " ".join(str(d) for d in model.layer_dims),
             " ".join(model.group_labels)]
    for i in range(model.num_layers):
        for name, tensor in ((f"W{i}", model.weights[i]), (f"b{i}", model.biases[i])):
            shape = " ".join(str(s) for s in tensor.shape)
            values = " ".join(f"{v:.17g}" for v in tensor.ravel(order="C"))
            lines.append(f"{name} {shape} {values}")
    return "\n".join(lines) + "\n"
