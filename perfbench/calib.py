"""Calibration loop: a fixed piece of work that measures the machine's speed.

The timed end-to-end metrics are reported in *reference seconds*: a wall
time multiplied by ``REF_REP_S / rep_s``, where ``rep_s`` is the time one
repetition of the loop below took next to the measured command, and
``REF_REP_S`` is the time it takes on the reference machine (see
README.md, "Reference seconds"). On a shared host the speed of a vCPU
swings by half or more over seconds to minutes; the program and this loop
slow down together, so the scaled time stays put while a change to the
program still shows in full. The loop is the benchmark's own code and
calls nothing of the program.

The loop is the kind of work the replay does most: Python-level calls on
one-row numpy arrays through a small MLP and a softmax.
"""

from __future__ import annotations

import time

import numpy as np

REF_REP_S = 0.003  # one repetition on the reference machine, in seconds
MIN_REPS = 4
ROWS = 200

_rng = np.random.default_rng(20240611)
_X = _rng.standard_normal((ROWS, 2))
_W1 = _rng.standard_normal((2, 128)) / 2.0
_W2 = _rng.standard_normal((128, 128)) / 12.0
_W3 = _rng.standard_normal((128, 3)) / 12.0


def _rep() -> float:
    acc = 0.0
    for i in range(ROWS):
        h = np.maximum(_X[i:i + 1] @ _W1, 0.0)
        h = np.maximum(h @ _W2, 0.0)
        z = h @ _W3
        e = np.exp(z - z.max())
        acc += float(e.max() / e.sum())
    return acc


def rep_seconds(budget_s: float) -> float:
    """Seconds per repetition, over at least ``MIN_REPS`` and ``budget_s``.

    One untimed repetition first brings the loop's code and data back into
    the caches after the command that ran before it.
    """
    _rep()
    start = time.perf_counter()
    reps = 0
    while reps < MIN_REPS or time.perf_counter() - start < budget_s:
        _rep()
        reps += 1
    return (time.perf_counter() - start) / reps


def to_reference(wall_s: float, rep_s: float) -> float:
    """A wall time scaled to the reference machine's speed."""
    return wall_s * REF_REP_S / rep_s
