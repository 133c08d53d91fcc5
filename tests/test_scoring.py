"""The confidence score (msp) and prediction."""

from __future__ import annotations

import numpy as np
import pytest

from oodstream.scoring import predict, score


def test_msp_uniform_two_class():
    assert score(np.array([0.0, 0.0])) == pytest.approx(0.5, abs=1e-15)


def test_predict_simple_and_ties():
    assert predict(np.array([0.0, 1.0, 0.0])) == 1
    assert predict(np.array([2.0, 2.0])) == 0


def test_shift_behavior():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = rng.normal(0, 3, size=4)
        c = float(rng.normal(0, 10))
        assert predict(z + c) == predict(z)
        assert score(z + c) == pytest.approx(score(z), abs=1e-12)


def test_msp_bounds():
    rng = np.random.default_rng(1)
    for _ in range(100):
        c = int(rng.integers(2, 9))
        z = rng.normal(0, 20, size=c)
        s = score(z)
        assert 1.0 / c <= s <= 1.0


def test_all_kinds_share_argmax():
    rng = np.random.default_rng(2)
    for _ in range(50):
        z = rng.normal(0, 2, size=5)
        p = predict(z)
        # the max softmax entry, the max logit, and the prediction all align
        assert int(np.argmax(np.exp(z) / np.exp(z).sum())) == p
        assert int(np.argmax(z)) == p
