"""Dynamic ID memory bank: exactly one labeled feature vector per class.

Incoming pseudo-ID samples overwrite the slot of their predicted class.
"""

from __future__ import annotations

import numpy as np

from .data import LabeledSet


def init_random(training_set: LabeledSet, seed: int) -> np.ndarray:
    """The bank: a (C, d) float64 array whose row c is one uniformly random
    training sample of class c; seeded."""
    rng = np.random.default_rng(seed)
    rows = []
    for c in range(training_set.num_classes):
        idx = np.flatnonzero(training_set.labels == c)
        if idx.size == 0:
            raise ValueError(f"training data has no sample of class {c}")
        rows.append(training_set.features[rng.choice(idx)])
    return np.stack(rows)


def replace(bank: np.ndarray, x_hat: np.ndarray, y_hat: int) -> np.ndarray:
    """Overwrite the slot for class ``y_hat`` in place."""
    bank[y_hat] = x_hat
    return bank

