"""Confidence scores over logits. Higher always means "more in-distribution".

The energy variant returns the free energy T*logsumexp(logits/T) rather than
its negation so that all three kinds share one comparison direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VALID_KINDS = ("msp", "energy", "maxlogit")


@dataclass(frozen=True)
class ScoreKind:
    """One of msp | energy | maxlogit; temperature applies to energy only."""

    kind: str = "msp"
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown score kind {self.kind!r}; valid: {VALID_KINDS}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")

    @classmethod
    def parse(cls, name: str, temperature: float = 1.0) -> "ScoreKind":
        return cls(kind=kind_name(name), temperature=temperature)


def kind_name(name: str) -> str:
    """The score kind a config value names: case and outer blanks do not count."""
    return name.strip().lower()


def score(kind: ScoreKind, logits: np.ndarray) -> float:
    """Scalar confidence for one logit vector."""
    z = np.asarray(logits, dtype=np.float64)
    if kind.kind == "msp":
        # The max of the softmax, exp(shifted - L) with L the log of the
        # exp-sum of the max-shifted row. That row holds an exact +0.0 at
        # its max, where the exponent is exactly -L.
        shifted = z - np.maximum.reduce(z)
        return float(np.exp(-math.log(np.add.reduce(np.exp(shifted)))))
    if kind.kind == "maxlogit":
        return float(np.maximum.reduce(z))
    t = kind.temperature
    zt = z / t
    m = float(np.maximum.reduce(zt))
    return t * (m + math.log(np.add.reduce(np.exp(zt - m))))


def score_rows(kind: ScoreKind, logits: np.ndarray) -> np.ndarray:
    """``score`` of every row of an (N, C) logit matrix, bit for bit.

    The arithmetic is ``score``'s, done once per matrix: the same max shift,
    elementwise ``np.exp`` and row sums, and ``math.log`` per row, because
    ``np.log`` can differ from it in the last bit.
    """
    z = np.asarray(logits, dtype=np.float64)
    if kind.kind == "maxlogit":
        return z.max(axis=1)
    zt = z if kind.kind == "msp" else z / kind.temperature
    m = zt.max(axis=1, keepdims=True)
    shifted = zt - m
    logs = np.array([math.log(v) for v in np.exp(shifted).sum(axis=1).tolist()])
    if kind.kind == "msp":
        return np.exp(shifted - logs[:, None]).max(axis=1)
    return kind.temperature * (m[:, 0] + logs)


def predict(logits: np.ndarray) -> int:
    """Argmax class, ties broken by the lowest index."""
    return int(np.asarray(logits).argmax())
