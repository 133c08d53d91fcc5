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
    """``score`` of every row of an (N, C) logit matrix, bit for bit.

    The arithmetic is ``score``'s, done once per matrix: the same max shift,
    elementwise ``np.exp`` and row sums, and ``math.log`` per row, because
    ``np.log`` can differ from it in the last bit.
    """
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=1, keepdims=True)
    logs = np.array([math.log(v) for v in np.exp(shifted).sum(axis=1).tolist()])
    return np.exp(shifted - logs[:, None]).max(axis=1)


def predict(logits: np.ndarray) -> int:
    """Argmax class, ties broken by the lowest index."""
    return int(np.asarray(logits).argmax())
