"""Detection and classification metrics over an event log.

All metrics consume arrival-time scores only. Brute-force oracles
(exhaustive threshold sweep, O(n^2) pairwise comparison) that cross-check
them live in the test suite.

Threshold semantics: a score >= tau counts as an in-distribution call; tau is
the largest threshold whose ID true-positive rate still meets 0.95, the most
conservative feasible choice. AUROC uses the midrank (half-credit) tie
convention and equals the trapezoidal ROC area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import EventLog


@dataclass(frozen=True)
class MetricsReport:
    fpr95: float
    auroc: float
    id_acc: float


def _split_scores(log: EventLog) -> tuple[np.ndarray, np.ndarray]:
    id_scores, ood_scores = log.score[~log.is_ood], log.score[log.is_ood]
    if id_scores.size == 0 or ood_scores.size == 0:
        raise ValueError("log must contain at least one ID and one OOD event")
    return id_scores, ood_scores


def fpr_at_tpr(log: EventLog) -> float:
    """OOD false-positive rate at the largest threshold meeting an ID TPR of 0.95."""
    id_scores, ood_scores = _split_scores(log)
    k = math.ceil(0.95 * id_scores.size)
    tau = np.sort(id_scores)[id_scores.size - k]
    return float(np.mean(ood_scores >= tau))


def auroc(log: EventLog) -> float:
    """Probability an ID event outranks an OOD event, ties counted half."""
    id_scores, ood_scores = _split_scores(log)
    ood = np.sort(ood_scores)
    # Per ID score, the OOD scores below it plus half of those equal to it.
    # Each count is an integer far below 2**53, so u is the exact midrank U.
    u = (np.searchsorted(ood, id_scores, "left").sum()
         + np.searchsorted(ood, id_scores, "right").sum()) / 2
    return float(u / (id_scores.size * ood.size))


def id_accuracy(log: EventLog) -> float:
    """Fraction of labeled ID events whose arrival-time prediction is correct."""
    labeled = ~log.is_ood & (log.label >= 0)
    total = int(np.count_nonzero(labeled))
    if total == 0:
        raise ValueError("log has no labeled ID events")
    return int(np.count_nonzero(log.prediction[labeled] == log.label[labeled])) / total


def report(log: EventLog) -> MetricsReport:
    """All three metrics of one log."""
    return MetricsReport(fpr95=fpr_at_tpr(log), auroc=auroc(log), id_acc=id_accuracy(log))

