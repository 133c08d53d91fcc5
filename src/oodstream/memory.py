"""Dynamic ID memory bank: exactly one labeled feature vector per class.

Incoming pseudo-ID samples overwrite the slot of their predicted class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledSet


@dataclass
class MemoryBank:
    """Row c of ``features`` is the stored sample for class c."""

    features: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("bank features must be a (C, d) matrix")

    @property
    def num_classes(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _class_indices(training_set: LabeledSet) -> list[np.ndarray]:
    out = []
    for c in range(training_set.num_classes):
        idx = np.flatnonzero(training_set.labels == c)
        if idx.size == 0:
            raise ValueError(f"training data has no sample of class {c}")
        out.append(idx)
    return out


def init_random(training_set: LabeledSet, seed: int) -> MemoryBank:
    """One uniformly random training sample per class; seeded."""
    rng = np.random.default_rng(seed)
    rows = [training_set.features[rng.choice(idx)] for idx in _class_indices(training_set)]
    return MemoryBank(np.stack(rows))


def replace(bank: MemoryBank, x_hat: np.ndarray, y_hat: int) -> MemoryBank:
    """Overwrite the slot for class ``y_hat`` in place."""
    if not 0 <= y_hat < bank.num_classes:
        raise ValueError(f"class {y_hat} out of range for {bank.num_classes} slots")
    x = np.asarray(x_hat, dtype=np.float64)
    if x.shape != (bank.dim,):
        raise ValueError(f"expected feature of shape ({bank.dim},), got {x.shape}")
    bank.features[y_hat] = x
    return bank

