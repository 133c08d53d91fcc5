"""The confidence score over logits: the maximum softmax probability (msp).
Higher means "more in-distribution"."""

from __future__ import annotations

import math

import numpy as np


def score(logits: np.ndarray) -> float:
    """The msp of one float64 logit vector."""
    # The max of the softmax, exp(shifted - L) with L the log of the
    # exp-sum of the max-shifted row. That row holds an exact +0.0 at
    # its max, where the exponent is exactly -L.
    shifted = logits - np.maximum.reduce(logits)
    return float(np.exp(-math.log(np.add.reduce(np.exp(shifted)))))


def score_rows(logits: np.ndarray) -> np.ndarray:
    """``score`` of every row of an (N, C) logit matrix, bit for bit: the
    same max shift, elementwise ``np.exp`` and row sums, ``math.log`` per
    row (``np.log`` can differ from it in the last bit), then ``exp(-L)``."""
    sums = np.exp(logits - logits.max(axis=1, keepdims=True)).sum(axis=1)
    return np.exp(-np.array([math.log(v) for v in sums.tolist()]))


def predict(logits: np.ndarray) -> int:
    """Argmax class, ties broken by the lowest index."""
    return int(logits.argmax())
