"""The online adaptation loop.

One sample arrives at a time. It is scored under the live model, filtered
into pseudo-ID / pseudo-OOD / abstain, and then:

  * pseudo-ID samples replace their predicted class's memory-bank slot;
  * pseudo-OOD samples trigger T inner optimization iterations of
        total = id_weight * bank_ce + lambda1 * uniform_ce
              + lambda2 * consistency_hinge
    followed by exactly one greedy outlier-margin update with the
    arrival-time score;
  * abstentions change nothing.

A frozen clone of the pretrained model supplies the reference prediction for
the consistency hinge and never changes. Hidden ground truth rides along
into the event log only; no decision or loss ever reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import filtering, memory, nn, scoring
from .data import LabeledSet, Stream
from .filtering import PSEUDO_ID, PSEUDO_OOD, FilterDecision, Margins
from .nn import LossSpec, MlpModel
from .runconfig import RunConfig, trainable_layers


@dataclass
class AutoState:
    """Mutable per-run state owned by a single engine instance.

    ``bank`` is the (C, d) memory bank from ``memory.init_random``; online
    SGD steps at rate ``sgd.lr`` write only the layers that ``trainable`` marks.
    """

    model_t: MlpModel
    model_0: MlpModel
    margins: Margins
    bank: np.ndarray
    trainable: tuple[bool, ...]
    step_counter: int = 0


class StreamEvent(NamedTuple):
    """Per-arrival record; score and prediction are pre-update values."""

    index: int
    score_at_arrival: float
    prediction: int
    decision: FilterDecision
    ground_truth_is_ood: bool
    ground_truth_label: int | None
    m_out_after: float


@dataclass
class RunCounts:
    """Decision counts of a log and, if it adapted, what the replay did:
    ``updates`` counts pseudo-OOD arrivals (margin updates, each with an
    episode unless ``auto.iters_T = 0``), ``bank_replacements`` the pseudo-ID
    bank writes and ``contaminated_replacements`` those whose truth is OOD."""

    pseudo_id: int = 0
    pseudo_ood: int = 0
    abstain: int = 0
    updates: int = 0
    bank_replacements: int = 0
    contaminated_replacements: int = 0


@dataclass(frozen=True)
class UpdateTrace:
    """Total-loss trajectory of one update episode: T+1 values, descending
    when the step actually decreased the objective."""

    event_index: int
    losses: tuple[float, ...]


# Decision codes of the event log: row t decided DECISIONS[log.decision[t]].
DECISIONS = tuple(FilterDecision)
DECISION_CODES = {d: code for code, d in enumerate(DECISIONS)}


@dataclass
class EventLog:
    """One row per arrival, in stream order, as numpy columns, plus episode
    traces. ``decision`` holds codes into ``DECISIONS`` and ``label`` holds -1
    for an unlabeled arrival. ``adapted`` marks a replay that acted on its
    decisions. Every count derives from the columns, so any run of rows has
    its own."""

    score: np.ndarray
    prediction: np.ndarray
    decision: np.ndarray
    is_ood: np.ndarray
    label: np.ndarray
    m_out: np.ndarray
    update_traces: list[UpdateTrace] = field(default_factory=list)
    adapted: bool = False

    def __len__(self) -> int:
        return len(self.decision)

    @property
    def counts(self) -> RunCounts:
        pseudo_id, pseudo_ood, abstain = np.bincount(
            self.decision, minlength=len(DECISIONS)).tolist()
        if not self.adapted:
            return RunCounts(pseudo_id, pseudo_ood, abstain)
        written = self.decision == DECISION_CODES[PSEUDO_ID]
        contaminated = int(np.count_nonzero(self.is_ood[written]))
        return RunCounts(pseudo_id, pseudo_ood, abstain, pseudo_ood, pseudo_id, contaminated)


def _log(stream: Stream, score, prediction, decision, m_out, **rest) -> EventLog:
    """The log of a finished replay of ``stream``; the truth columns are copies."""
    return EventLog(np.asarray(score, dtype=np.float64), np.asarray(prediction, dtype=np.int64),
                    np.asarray(decision, dtype=np.int8), stream.is_ood.astype(bool),
                    stream.labels.astype(np.int64), np.asarray(m_out, dtype=np.float64), **rest)


def _fixed_logits(model: MlpModel, rows: np.ndarray, row_name: str) -> np.ndarray:
    """The (N, C) logits of ``rows`` under a model that none of them changes."""
    # One forward_logits call per row, as the benchmark counts them. A stacked
    # (n, 1, d) product would keep each row's bits; a plain (n, d) one would not.
    logits = np.empty((len(rows), model.num_classes))
    for i, x in enumerate(rows):
        try:
            logits[i] = nn.forward_logits(model, x)
        except FloatingPointError as exc:
            raise FloatingPointError(f"{exc} at {row_name} {i}") from exc
    return logits


def init_state(model: MlpModel, train_set: LabeledSet, cfg: RunConfig) -> AutoState:
    """Freeze a reference clone, estimate filter margins, and seed the bank.

    ``sgd.trainable_groups`` becomes the state's layer mask here, once per run.
    ``stats_subsample_n`` = n > 0 keeps only the first n rows of the
    (already shuffled) training set for the estimate; 0 keeps every row.
    """
    trainable = trainable_layers(cfg.trainable_groups, model.num_layers)
    model_0 = nn.clone_frozen(model)
    logits = _fixed_logits(model, train_set.features[:cfg.stats_subsample_n or None],
                           "training row")
    mu, sigma = filtering.estimate_id_stats(scoring.score_rows(logits))
    margins = filtering.init_margins(mu, sigma, cfg.k1, cfg.k2)
    bank = memory.init_random(train_set, cfg.memory_seed)
    return AutoState(model_t=model, model_0=model_0, margins=margins, bank=bank,
                     trainable=trainable)


def _episode_spec(state: AutoState, cfg: RunConfig, pred_0: int) -> LossSpec:
    return LossSpec(
        uniform_weight=cfg.lambda1,
        sc_weight=cfg.lambda2,
        sc_ref_pred=pred_0,
        sc_phi=cfg.phi,
        bank_inputs=state.bank,
        bank_weight=cfg.id_weight,
    )


def _check_finite(loss: float, state: AutoState) -> None:
    """An update with a non-finite loss aborts the run rather than skip."""
    if not math.isfinite(loss):
        raise FloatingPointError(f"non-finite loss {loss} at stream index {state.step_counter}")


def step(state: AutoState, cfg: RunConfig, x: np.ndarray,
         hidden_truth: tuple[bool, int | None]) -> tuple[StreamEvent, UpdateTrace | None]:
    """Process one arrival; returns its event and, for update episodes, the
    loss trajectory. ``hidden_truth`` is recorded verbatim and never read by
    any decision."""
    try:
        logits = nn.forward_logits(state.model_t, x)
    except FloatingPointError as exc:
        raise FloatingPointError(f"{exc} at stream index {state.step_counter}") from exc
    arrival_score = scoring.score(logits)
    prediction = int(logits.argmax())
    decision = filtering.classify(state.margins, arrival_score)
    trace: UpdateTrace | None = None

    if decision is PSEUDO_ID:
        memory.replace(state.bank, x, prediction)
    elif decision is PSEUDO_OOD:
        if cfg.iters_t > 0:
            pred_0 = scoring.predict(nn.forward_logits(state.model_0, x))
            spec = _episode_spec(state, cfg, pred_0)
            batch = nn.prepare_episode(state.model_t, x, spec, state.trainable)
            losses: list[float] = []
            for _ in range(cfg.iters_t):
                loss, grads = nn._loss_and_grad(state.model_t, batch)
                _check_finite(loss, state)
                losses.append(loss)
                nn.sgd_step(state.model_t, grads, cfg.lr)
            final = nn.total_loss(state.model_t, batch)
            _check_finite(final, state)
            losses.append(final)
            trace = UpdateTrace(state.step_counter, tuple(losses))
        state.margins = filtering.update_outlier_margin(state.margins, arrival_score)

    # Positional fields: the keyword form costs about 1 µs more per arrival.
    is_ood, label = hidden_truth
    event = StreamEvent(state.step_counter, arrival_score, prediction, decision, bool(is_ood),
                        None if label is None or label < 0 else int(label),
                        state.margins.m_out)
    state.step_counter += 1
    return event, trace


def run_stream(state: AutoState, cfg: RunConfig, stream: Stream) -> EventLog:
    """Apply ``step`` to every arrival in order.

    Every pseudo-OOD arrival runs one update episode. Every pseudo-ID arrival
    writes the bank; a write is contaminated when the arrival's hidden truth
    is OOD.
    """
    scores, predictions, decisions, m_outs, traces = [], [], [], [], []
    for x, is_ood, label in zip(stream.features, stream.is_ood.tolist(), stream.labels.tolist()):
        event, trace = step(state, cfg, x, (is_ood, label))
        scores.append(event.score_at_arrival)
        predictions.append(event.prediction)
        decisions.append(DECISION_CODES[event.decision])
        m_outs.append(event.m_out_after)
        if trace is not None:
            traces.append(trace)
    return _log(stream, scores, predictions, decisions, m_outs, update_traces=traces,
                adapted=True)


def run_posthoc(model: MlpModel, margins: Margins, stream: Stream) -> EventLog:
    """Straight-line post-hoc scorer: the model and the margins are never touched.

    With both fixed, every arrival's score, prediction and decision depend
    on that arrival alone, so they are computed for the whole stream at once.
    """
    logits = _fixed_logits(model, stream.features, "stream index")
    score = scoring.score_rows(logits)
    # filtering.classify's strict comparisons, pseudo-ID written last: a
    # score exactly on a margin abstains.
    decision = np.full(len(stream), DECISION_CODES[FilterDecision.ABSTAIN], dtype=np.int8)
    decision[score < margins.m_out] = DECISION_CODES[PSEUDO_OOD]
    decision[score > margins.m_in] = DECISION_CODES[PSEUDO_ID]
    return _log(stream, score, logits.argmax(axis=1), decision,
                np.full(len(stream), margins.m_out))
