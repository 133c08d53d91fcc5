"""Shared test utilities: finite-difference gradients, log builders, and
straight-line reference formulas that the fast paths must equal bit for bit."""

from __future__ import annotations

import math

import numpy as np

from oodstream.engine import EventLog, RunCounts, StreamEvent
from oodstream.filtering import FilterDecision
from oodstream.metrics import _split_scores
from oodstream.nn import LossSpec, MlpModel, loss_sc, total_loss
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
