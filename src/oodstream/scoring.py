"""The confidence score over logits: the maximum softmax probability (msp).
Higher means "more in-distribution"."""

from __future__ import annotations

import math

import numpy as np


def score(logits: np.ndarray) -> float:
    """The msp of one logit vector."""
    z = np.asarray(logits, dtype=np.float64)
    # The max of the softmax, exp(shifted - L) with L the log of the
    # exp-sum of the max-shifted row. That row holds an exact +0.0 at
    # its max, where the exponent is exactly -L.
    shifted = z - np.maximum.reduce(z)
    return float(np.exp(-math.log(np.add.reduce(np.exp(shifted)))))


def score_rows(logits: np.ndarray) -> np.ndarray:
    """``score`` of every row of an (N, C) logit matrix, bit for bit: the
    same max shift, elementwise ``np.exp`` and row sums, ``math.log`` per
    row (``np.log`` can differ from it in the last bit), then ``exp(-L)``."""
    z = np.asarray(logits, dtype=np.float64)
    sums = np.exp(z - z.max(axis=1, keepdims=True)).sum(axis=1)
    return np.exp(-np.array([math.log(v) for v in sums.tolist()]))


def predict(logits: np.ndarray) -> int:
    """Argmax class, ties broken by the lowest index."""
    return int(np.asarray(logits).argmax())
