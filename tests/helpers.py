"""Shared test utilities: finite-difference gradients, log builders, and
straight-line reference formulas that the fast paths must equal bit for bit
(the two-pass gradient oracle only within a stated tolerance)."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from oodstream import engine, filtering, memory, nn, runconfig, scoring
from oodstream.cli import EVENT_COLUMNS
from oodstream.data import GaussianSource, LabeledSet, Stream, _even_split, circle_means
from oodstream.engine import DECISIONS, EventLog, StreamEvent, UpdateTrace
from oodstream.filtering import FilterDecision
from oodstream.metrics import _split_scores
from oodstream.nn import CHECKPOINT_MAGIC, LossSpec, MlpModel
from oodstream.runconfig import REMOVED_KEYS, RunConfig

# The shrunken scenario of the CLI tests: each command on it runs fast.
SMALL_OVERRIDES = dict(
    test_id_n=250,
    ood_n=250,
    train_n=150,
    hidden=(16, 16),
    epochs=60,
)

# The commands ``conftest.canonical_cli`` runs on the canonical config, in order.
CANONICAL_CLI_COMMANDS = ("run --mode auto", "run --mode frozen", "ablate",
                          "sweep --param k2 --values 1,2")


def to_text(cfg: RunConfig) -> str:
    """Canonical text form; parsing it back reproduces ``cfg`` exactly."""
    return "".join(f"{line}\n" for _, line in runconfig._lines(cfg))


def write_config(tmp_path: Path, **overrides) -> Path:
    """``run.cfg`` in ``tmp_path``: the small scenario with ``overrides``."""
    cfg = RunConfig(**{**SMALL_OVERRIDES, **overrides})
    path = tmp_path / "run.cfg"
    path.write_text(to_text(cfg), encoding="ascii")
    return path


@dataclass
class FullGradients:
    """Gradients as full matrices, the form every oracle keeps. ``weight``
    reads rows of them as ``nn.Gradients.weight`` materializes rows from its
    factors, so ``nn.sgd_step`` takes either."""

    d_weights: list
    d_biases: list

    def weight(self, i: int, start: int = 0, stop: int | None = None) -> np.ndarray:
        return self.d_weights[i][start:stop]


def materialized(grads: nn.Gradients) -> FullGradients:
    """Each kept layer's weight gradient through ``grads.weight(i)`` (None
    for the other layers), and the bias gradients."""
    return FullGradients([None if d is None else grads.weight(i)
                          for i, d in enumerate(grads.deltas)], list(grads.d_biases))


def only_layers(grads: nn.Gradients, layers) -> nn.Gradients:
    """``grads`` with None for each layer not in ``layers``, as a gradient
    of only some layers holds."""
    def kept(column):
        return [g if i in layers else None for i, g in enumerate(column)]
    return nn.Gradients(kept(grads.inputs), kept(grads.deltas), kept(grads.d_biases))


def loss_and_grad(model: MlpModel, x, spec: LossSpec, trainable=None):
    """Loss and gradients of one evaluation at probe row ``x``, through a
    prepared episode batch that keeps the layers the mask ``trainable`` marks
    (every layer when it is None)."""
    return nn._loss_and_grad(model, nn.prepare_episode(model, x, spec, trainable))


def total_loss(model: MlpModel, x, spec: LossSpec) -> float:
    """``nn.total_loss`` at probe row ``x``."""
    return nn.total_loss(model, nn.prepare_episode(model, x, spec))


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
    analytic = materialized(loss_and_grad(model, x, spec)[1])
    fd_w, fd_b = finite_diff_grads(model, x, spec, step)
    worst = 0.0
    for a, f in zip(analytic.d_weights + analytic.d_biases, fd_w + fd_b):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-4)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


COLUMNS = ("score", "prediction", "decision", "is_ood", "label", "m_out")

ABSTAIN = DECISIONS.index(FilterDecision.ABSTAIN)


def log_from_columns(score, is_ood, prediction=None, label=None, decision=None,
                     m_out=None) -> EventLog:
    """Event log from per-row values. By default every row abstains with
    prediction 0, m_out 0, label 0 for an ID row and -1 for an OOD row."""
    is_ood = np.asarray(is_ood, dtype=bool)
    n = len(is_ood)
    return EventLog(
        score=np.asarray(score, dtype=np.float64).reshape(n),
        prediction=np.zeros(n, dtype=np.int64) if prediction is None
        else np.asarray(prediction, dtype=np.int64),
        decision=np.full(n, ABSTAIN, dtype=np.int8) if decision is None
        else np.asarray(decision, dtype=np.int8),
        is_ood=is_ood,
        label=np.where(is_ood, -1, 0) if label is None else np.asarray(label, dtype=np.int64),
        m_out=np.zeros(n) if m_out is None else np.asarray(m_out, dtype=np.float64),
    )


def log_from_scores(id_scores, ood_scores) -> EventLog:
    """Synthetic event log carrying only scores and ground-truth flags."""
    return log_from_columns(np.concatenate([id_scores, ood_scores]),
                            [False] * len(id_scores) + [True] * len(ood_scores))


def assert_columns_equal(got: EventLog, want: EventLog) -> None:
    """Every column has the same dtype, shape and bytes."""
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def event_rows(log: EventLog) -> list[StreamEvent]:
    """The log's four decision columns as the ``StreamEvent``s that
    ``engine.step`` returns."""
    return [StreamEvent(score_at_arrival=s, prediction=p, decision=DECISIONS[d], m_out_after=m)
            for s, p, d, m in zip(log.score.tolist(), log.prediction.tolist(),
                                  log.decision.tolist(), log.m_out.tolist())]


def slice_log(log: EventLog, start: int, stop: int) -> EventLog:
    """Rows [start, stop) of the log, with its own counts; the traces stay
    with the whole run."""
    rows = slice(start, stop)
    return EventLog(score=log.score[rows], prediction=log.prediction[rows],
                    decision=log.decision[rows], is_ood=log.is_ood[rows],
                    label=log.label[rows], m_out=log.m_out[rows], adapted=log.adapted)


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


def loss_sc(softmax_t: np.ndarray, pred_t: int, pred_0: int, phi: float) -> float:
    """Prediction-consistency hinge between the live and reference argmax.

    Zero when the predictions agree; otherwise
    ``softmax_t[pred_t] - softmax_t[pred_0] + phi`` with no clamping.
    """
    if pred_t == pred_0:
        return 0.0
    return float(softmax_t[pred_t] - softmax_t[pred_0] + phi)


def score_reference(logits) -> float:
    """The max of the whole softmax vector; max and sum through the
    ``np.max``/``np.sum`` wrappers."""
    return float(np.max(np.exp(log_softmax_reference(np.asarray(logits, dtype=np.float64)))))


def predict_reference(logits) -> int:
    return int(np.argmax(np.asarray(logits)))


def probe_dlogits_reference(logits: np.ndarray, spec: LossSpec) -> tuple[float, np.ndarray]:
    """Probe-input loss and dL/dlogits, each term from its own log-softmax."""
    c = len(logits)
    p = np.exp(log_softmax_reference(logits))
    loss = 0.0
    dl = np.zeros(c)
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


def fpr_at_tpr_bruteforce(log: EventLog, tpr_target: float = 0.95) -> float:
    """Exhaustive sweep over every observed score as a candidate threshold."""
    id_scores, ood_scores = _split_scores(log)
    feasible = [
        t for t in np.unique(np.concatenate([id_scores, ood_scores]))
        if np.mean(id_scores >= t) >= tpr_target
    ]
    tau = max(feasible)
    return float(np.mean(ood_scores >= tau))


def auroc_bruteforce(log: EventLog) -> float:
    """O(n^2) pairwise count: wins plus half the ties."""
    id_scores, ood_scores = _split_scores(log)
    diff = id_scores[:, None] - ood_scores[None, :]
    wins = np.sum(diff > 0) + 0.5 * np.sum(diff == 0)
    return float(wins / diff.size)


def id_accuracy_recount(log: EventLog) -> float:
    """Straight-line recount oracle for id_accuracy."""
    pairs = [(p, y) for p, y, is_ood in zip(log.prediction.tolist(), log.label.tolist(),
                                            log.is_ood.tolist())
             if not is_ood and y >= 0]
    if not pairs:
        raise ValueError("log has no labeled ID events")
    return sum(1 for p, t in pairs if p == t) / len(pairs)


def auroc_midrank_loop(log: EventLog) -> float:
    """AUROC from midranks assigned by an explicit scan over tie groups."""
    id_scores, ood_scores = _split_scores(log)
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
# fixed-model scoring oracles (one forward, score and predict call per row)


def init_margins_reference(model: MlpModel, features, config) -> filtering.Margins:
    """``init_state``'s margins from per-row ``scoring.score`` values."""
    scores = np.array([scoring.score(nn.forward_logits(model, x)) for x in features])
    mu, sigma = filtering.estimate_id_stats(scores)
    return filtering.init_margins(mu, sigma, config.k1, config.k2)


def run_posthoc_reference(model, margins, stream, *, update_margins: bool = True) -> EventLog:
    """The per-arrival post-hoc loop: forward, score and predict each arrival.
    With ``update_margins`` the greedy m_out update runs on every pseudo-OOD
    arrival, as in an adaptive run whose model never changes."""
    scores, preds, decisions, m_outs = [], [], [], []
    for i in range(len(stream)):
        logits = nn.forward_logits(model, stream.features[i])
        s = scoring.score(logits)
        decision = filtering.classify(margins, s)
        if update_margins and decision == FilterDecision.PSEUDO_OOD:
            margins = filtering.update_outlier_margin(margins, s)
        scores.append(s)
        preds.append(scoring.predict(logits))
        decisions.append(DECISIONS.index(decision))
        m_outs.append(margins.m_out)
    return log_from_columns(scores, stream.is_ood, prediction=preds, label=stream.labels,
                            decision=decisions, m_out=m_outs)


# ---------------------------------------------------------------------------
# gradient, SGD and checkpoint oracles (zero-filled buffers, one matmul per
# layer, a fresh lr * g per tensor, one formatter call per value)


def backprop_reference(model: MlpModel, pre_acts, acts, dlogits: np.ndarray,
                       grads: FullGradients) -> None:
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


def _zero_filled_slots(model: MlpModel, trainable=None) -> FullGradients:
    keep = (True,) * model.num_layers if trainable is None else trainable
    return FullGradients(
        [np.zeros_like(w) if k else None for w, k in zip(model.weights, keep)],
        [np.zeros_like(b) if k else None for b, k in zip(model.biases, keep)],
    )


def forward_batch_reference(model: MlpModel, x: np.ndarray):
    """Layer by layer, ``z = a @ w + b`` and then ``np.maximum(z, 0.0)`` for a
    hidden layer. Returns (logits, pre-activations, activations), where
    activations[k] feeds layer k."""
    pre, acts = [], [x]
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w + b
        pre.append(z)
        acts.append(z if i == model.num_layers - 1 else np.maximum(z, 0.0))
    return acts[-1], pre, acts


def _stacked_terms(model: MlpModel, x, spec: LossSpec):
    """The probe row stacked on the bank rows (when the bank term carries
    weight), forwarded through every layer, with each row's dL/dlogits
    from the reference formulas. Returns (loss, pre, acts, dlogits)."""
    rows = np.asarray(x, dtype=np.float64)[None, :]
    with_bank = spec.bank_inputs is not None and spec.bank_weight != 0.0
    if with_bank:
        rows = np.vstack([rows, np.asarray(spec.bank_inputs, dtype=np.float64)])
    logits, pre, acts = forward_batch_reference(model, rows)
    total, dl_probe = probe_dlogits_reference(logits[0], spec)
    dlogits = [dl_probe]
    if with_bank:
        ls = logits[1:] - logits[1:].max(axis=1, keepdims=True)
        ls = ls - np.log(np.exp(ls).sum(axis=1, keepdims=True))
        yb = np.arange(len(ls))
        total += spec.bank_weight * float(-ls[yb, yb].sum())
        probs = np.exp(ls)
        probs[yb, yb] -= 1.0
        dlogits.extend(spec.bank_weight * probs)
    return total, pre, acts, np.array(dlogits)


def per_call_loss_and_grad_reference(model: MlpModel, x, spec: LossSpec, trainable=None,
                                     want_grad: bool = True
                                     ) -> tuple[float, FullGradients | None]:
    """One evaluation as every call made it before episodes had a prepared
    batch: the rows stacked again and forwarded through every layer, and each
    kept layer's gradient slot written (not added into zeros), a one-row
    batch's weight gradient as an outer product."""
    total, pre, acts, delta = _stacked_terms(model, x, spec)
    if not want_grad:
        return total, None
    keep = (True,) * model.num_layers if trainable is None else trainable
    grads = FullGradients([None] * model.num_layers, [None] * model.num_layers)
    lowest = keep.index(True) if True in keep else model.num_layers
    for i in range(model.num_layers - 1, lowest - 1, -1):
        if keep[i]:
            if len(delta) == 1:
                grads.d_weights[i] = np.einsum("i,j->ij", acts[i][0], delta[0])
                grads.d_biases[i] = delta[0].copy()
            else:
                grads.d_weights[i] = acts[i].T @ delta
                grads.d_biases[i] = delta.sum(axis=0)
        if i > lowest:
            delta = (delta @ model.weights[i].T) * (pre[i - 1] > 0.0)
    return total, grads


def episode_reference(model: MlpModel, x, spec: LossSpec, lr: float,
                      trainable: tuple[bool, ...], iters_t: int) -> tuple[float, ...]:
    """An update episode the per-call way: T evaluations, each followed by
    ``nn.sgd_step``, then the final loss. Returns the T + 1 losses."""
    losses = []
    for _ in range(iters_t):
        loss, grads = per_call_loss_and_grad_reference(model, x, spec, trainable)
        assert math.isfinite(loss)
        losses.append(loss)
        nn.sgd_step(model, grads, lr)
    losses.append(per_call_loss_and_grad_reference(model, x, spec, want_grad=False)[0])
    return tuple(losses)


def run_stream_reference(state: engine.AutoState, cfg, stream: Stream) -> EventLog:
    """The adaptive replay one arrival at a time, with reference scores and
    predictions and ``episode_reference`` episodes: an adapted log with its
    columns and traces."""
    scores, preds, decisions, m_outs, traces = [], [], [], [], []
    for x in stream.features:
        logits = nn.forward_logits(state.model_t, x)
        s = score_reference(logits)
        prediction = predict_reference(logits)
        decision = filtering.classify(state.margins, s)
        if decision == FilterDecision.PSEUDO_ID:
            memory.replace(state.bank, x, prediction)
        elif decision == FilterDecision.PSEUDO_OOD:
            if cfg.iters_t > 0:
                pred_0 = predict_reference(nn.forward_logits(state.model_0, x))
                spec = engine._episode_spec(state, cfg, pred_0)
                losses = episode_reference(state.model_t, x, spec, cfg.lr, state.trainable,
                                           cfg.iters_t)
                traces.append(UpdateTrace(state.step_counter, losses))
            state.margins = filtering.update_outlier_margin(state.margins, s)
        scores.append(s)
        preds.append(prediction)
        decisions.append(DECISIONS.index(decision))
        m_outs.append(state.margins.m_out)
        state.step_counter += 1
    log = log_from_columns(scores, stream.is_ood, prediction=preds, label=stream.labels,
                           decision=decisions, m_out=m_outs)
    log.update_traces, log.adapted = traces, True
    return log


def assert_replays_equal(got: EventLog, got_state: engine.AutoState,
                         want: EventLog, want_state: engine.AutoState) -> None:
    """Every event column, every trace, the weights, the margins and the bank
    hold the same bytes, and the logs report the same counts."""
    assert_columns_equal(got, want)
    assert got.counts == want.counts
    assert [t.event_index for t in got.update_traces] == \
        [t.event_index for t in want.update_traces]
    assert [np.array(t.losses).tobytes() for t in got.update_traces] == \
        [np.array(t.losses).tobytes() for t in want.update_traces]
    for a, b in zip(got_state.model_t.weights + got_state.model_t.biases,
                    want_state.model_t.weights + want_state.model_t.biases):
        assert a.tobytes() == b.tobytes()
    got_m, want_m = got_state.margins, want_state.margins
    assert np.array([got_m.m_in, got_m.m_out]).tobytes() == \
        np.array([want_m.m_in, want_m.m_out]).tobytes()
    assert got_m.m_count == want_m.m_count
    assert got_state.bank.tobytes() == want_state.bank.tobytes()


def loss_and_grad_reference(model: MlpModel, x, spec: LossSpec,
                            trainable=None) -> tuple[float, FullGradients]:
    """The two-pass evaluation: the probe row and the bank rows each get their
    own forward and backprop, summed into zero-filled slots."""
    grads = _zero_filled_slots(model, trainable)
    logits, pre, acts = forward_batch_reference(model, np.asarray(x, dtype=np.float64)[None, :])
    total, dl = probe_dlogits_reference(logits[0], spec)
    if (dl != 0.0).any():
        backprop_reference(model, pre, acts, dl[None, :], grads)
    if spec.bank_inputs is not None and spec.bank_weight != 0.0:
        logits, pre, acts = forward_batch_reference(
            model, np.asarray(spec.bank_inputs, dtype=np.float64))
        ls = logits - logits.max(axis=1, keepdims=True)
        ls = ls - np.log(np.exp(ls).sum(axis=1, keepdims=True))
        yb = np.arange(len(ls))
        total += spec.bank_weight * float(-ls[yb, yb].sum())
        probs = np.exp(ls)
        probs[yb, yb] -= 1.0
        backprop_reference(model, pre, acts, spec.bank_weight * probs, grads)
    return total, grads


def train_offline_reference(model: MlpModel, features, labels, epochs: int,
                            batch_size: int, lr: float, seed: int = 0) -> MlpModel:
    """Minibatch SGD on mean label cross-entropy, gradients from the oracle."""
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(len(features))
        for start in range(0, len(features), batch_size):
            idx = order[start:start + batch_size]
            logits, pre, acts = forward_batch_reference(model, features[idx])
            probs = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs /= probs.sum(axis=1, keepdims=True)
            probs[np.arange(len(idx)), labels[idx]] -= 1.0
            probs /= len(idx)
            grads = _zero_filled_slots(model)
            backprop_reference(model, pre, acts, probs, grads)
            sgd_step_reference(model, grads, lr)
    return model


def sgd_step_reference(model: MlpModel, grads: FullGradients, lr: float) -> None:
    """``param -= lr * g`` on whole tensors of the layers that ``grads`` holds
    a gradient for, with a fresh ``lr * g`` per tensor; ``grads`` untouched."""
    for i in range(model.num_layers):
        if grads.d_biases[i] is None:
            continue
        for param, grad in ((model.weights[i], grads.d_weights[i]),
                            (model.biases[i], grads.d_biases[i])):
            param -= lr * grad


def checkpoint_header(layer_dims: list[int], pretrain_hash: str) -> bytes:
    """The current checkpoint header: the magic, the layer dims and the
    pretrain hash, one ASCII line each. The only place the tests spell it."""
    dims = " ".join(str(d) for d in layer_dims)
    return f"{CHECKPOINT_MAGIC}\n{dims}\n{pretrain_hash}\n".encode("ascii")


def split_checkpoint(data: bytes) -> tuple[list[bytes], bytes]:
    """A checkpoint's header lines, without their newlines, and the tensor
    bytes after them. It splits at the header's exact line count, so a 0x0A
    byte in the tensors stays in them; ``b"\\n".join([*header, tensors])``
    rebuilds the file."""
    *header, tensors = data.split(b"\n", checkpoint_header([1, 1], "").count(b"\n"))
    return header, tensors


def checkpoint_bytes_reference(model: MlpModel, pretrain_hash: str) -> bytes:
    """Current checkpoint file bytes: the header, then every value packed on
    its own as a little-endian double, tensor by tensor."""
    tensors = [t for pair in zip(model.weights, model.biases) for t in pair]
    return checkpoint_header(model.layer_dims, pretrain_hash) + b"".join(
        struct.pack("<d", v) for t in tensors for v in t.ravel().tolist())


# corruption -> edit of the payload bytes that follow the header
CORRUPT_PAYLOADS = {
    "short_byte": lambda p: p[:-1],
    "short": lambda p: p[:-8],
    "trailing": lambda p: p + b"\x00",
    "nan": lambda p: struct.pack("<d", math.nan) + p[8:],
    "inf": lambda p: p[:-8] + struct.pack("<d", -math.inf),
}


def corrupt_checkpoint(path, kind: str) -> str:
    """Apply one corruption to the payload of the checkpoint at ``path``;
    returns the message the loader's error must carry."""
    header, payload = split_checkpoint(path.read_bytes())
    path.write_bytes(b"\n".join([*header, CORRUPT_PAYLOADS[kind](payload)]))
    dims = [int(t) for t in header[1].split()]
    last, size = f"b{len(dims) - 2}", 8 * dims[-1]
    return {"short_byte": f"tensor {last}: expected {size} bytes, got {size - 1}",
            "short": f"tensor {last}: expected {size} bytes, got {size - 8}",
            "trailing": f"unexpected bytes after tensor {last}",
            "nan": "tensor W0: non-finite value",
            "inf": f"tensor {last}: non-finite value"}[kind]

# ---------------------------------------------------------------------------
# events CSV oracle


def events_csv_reference(log: EventLog, chash: str) -> str:
    """The events CSV text with every field of every row formatted on its own."""
    names = np.array([d.value for d in DECISIONS])
    rows = zip(range(len(log)), log.score.tolist(), log.prediction.tolist(),
               names[log.decision].tolist(), log.is_ood.tolist(), log.label.tolist(),
               log.m_out.tolist())
    lines = [f"# config_hash={chash}", EVENT_COLUMNS]
    lines += ["%d,%.17g,%d,%s,%d,%d,%.17g" % row for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# scenario and stream composition oracles


def draw_id_set_reference(cfg: RunConfig, total: int, rng: np.random.Generator) -> LabeledSet:
    """The per-class ID draw: one ``(n_c, d)`` normal draw per class in class
    order, joined, then one permutation of the rows."""
    means = circle_means(cfg.classes, cfg.mean_radius, cfg.dim)
    feats, labels = [], []
    for c, n_c in enumerate(_even_split(total, cfg.classes)):
        mean = np.asarray(means[c], dtype=np.float64)
        feats.append(rng.normal(0.0, cfg.id_spread, size=(n_c, cfg.dim)) + mean)
        labels.append(np.full(n_c, c, dtype=np.int64))
    order = rng.permutation(total)
    return LabeledSet(np.concatenate(feats)[order], np.concatenate(labels)[order], cfg.classes)


def compose_reference(id_features: np.ndarray, id_labels: np.ndarray,
                      ood_features: np.ndarray, kappa: float,
                      rng: np.random.Generator) -> Stream:
    """The per-slot interleaver: one ``rng.random()`` draw and one row copy per
    slot, stopping at the first slot whose pool is empty; an OOD slot's label
    is -1."""
    if not 0.0 <= kappa < 1.0:
        raise ValueError(f"kappa must be in [0, 1), got {kappa}")
    n_id, n_ood = len(id_labels), len(ood_features)
    if kappa > 0.0 and n_id == 0:
        raise ValueError("kappa > 0 requires a nonempty ID pool")
    if n_ood == 0:
        raise ValueError("OOD pool must be nonempty")
    id_order = rng.permutation(n_id)
    ood_order = rng.permutation(n_ood)
    feats, flags, labels = [], [], []
    i = j = 0
    while True:
        take_id = rng.random() < kappa
        if take_id:
            if i >= n_id:
                break
            k = id_order[i]
            feats.append(id_features[k])
            flags.append(False)
            labels.append(id_labels[k])
            i += 1
        else:
            if j >= n_ood:
                break
            k = ood_order[j]
            feats.append(ood_features[k])
            flags.append(True)
            labels.append(-1)
            j += 1
    return Stream(
        features=np.asarray(feats, dtype=np.float64),
        is_ood=np.asarray(flags, dtype=bool),
        labels=np.asarray(labels, dtype=np.int64),
        segment_bounds=(0,),
    )


# ---------------------------------------------------------------------------
# config texts

# three OOD sources of distinct centers and spreads, so that every source key
# of a multi-source config is spelled out
THREE_SOURCES = (GaussianSource(center=(3.0, 0.0), spread=0.5),
                 GaussianSource(center=(-4.0, 4.0), spread=1.0),
                 GaussianSource(center=(0.0, -3.0), spread=0.75))

# each removed config key and the one value that still loads, as a file spells it
REMOVED_KEY_VALUES = {
    "pretrain.momentum": "0", "sgd.momentum": "0", "auto.lambda2_decay": "0",
    "auto.id_loss_reduction": "sum", "auto.margin_literal_m0": "false",
    "auto.memory_mode": "random", "auto.score": "msp", "auto.energy_temperature": "1",
    "pretrain.weight_decay": "0", "sgd.weight_decay": "0",
}

# every float-valued config key of a config with THREE_SOURCES, and the
# removed keys that still load as a float
FLOAT_KEYS = [f.metadata["key"] for f in fields(RunConfig) if f.type == "float"] + [
    f"scenario.ood{i}.{f.name}" for i, src in enumerate(THREE_SOURCES, start=1)
    for f in fields(src)] + [key for key, kept in REMOVED_KEYS.items()
                             if isinstance(kept, float)]


def removed_key_rule(key: str) -> str:
    """How the loader's error for a removed ``key`` at another value ends."""
    return (f"is out of range: {key.partition('.')[2]} was removed, so it must be "
            f"{REMOVED_KEY_VALUES[key]}")


def non_finite_rule(key: str) -> str:
    """How the loader's error for a non-finite ``key`` ends."""
    if key in REMOVED_KEY_VALUES:
        return removed_key_rule(key)
    return "is out of range: it must be finite"


def config_text_with(key: str, raw: str, **overrides) -> str:
    """Config text of ``RunConfig(ood_sources=THREE_SOURCES, **overrides)``
    with ``key`` set to ``raw``; a coordinate key gets ``raw`` as its first
    coordinate, and a removed key is appended."""
    text = to_text(RunConfig(ood_sources=THREE_SOURCES, **overrides))
    if key in REMOVED_KEY_VALUES:
        return text + f"{key} = {raw}\n"
    [line] = [ln for ln in text.splitlines() if ln.startswith(f"{key} = ")]
    if key.endswith(".center"):
        raw = ",".join([raw, *line.partition(" = ")[2].split(",")[1:]])
    return text.replace(line + "\n", f"{key} = {raw}\n")
