"""Memory bank: one slot per class, replacement semantics, and the ID loss
(the bank term of the update episode's objective)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import log_softmax_reference, total_loss
from oodstream import nn
from oodstream.data import LabeledSet
from oodstream.memory import init_random, replace


def toy_set() -> LabeledSet:
    feats = np.array([
        [0.0, 0.0], [2.0, 2.0],   # class 0
        [1.0, 0.0],               # class 1
        [0.0, 1.0], [0.0, 3.0],   # class 2
    ])
    labels = np.array([0, 0, 1, 2, 2])
    return LabeledSet(feats, labels, 3)


def test_init_random_forced_selection():
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    ds = LabeledSet(feats, np.array([0, 1]), 2)
    bank = init_random(ds, seed=0)
    assert bank.dtype == np.float64 and np.array_equal(bank, feats)


def test_init_random_deterministic():
    ds = toy_set()
    b1 = init_random(ds, seed=123)
    b2 = init_random(ds, seed=123)
    assert np.array_equal(b1, b2)


def test_init_random_missing_class_names_it():
    ds = LabeledSet(np.zeros((2, 2)), np.array([0, 1]), 4)
    with pytest.raises(ValueError, match="training data has no sample of class 2"):
        init_random(ds, seed=0)


def test_replace_locality_and_last_write_wins():
    bank = init_random(toy_set(), seed=1)
    before = bank.copy()
    replace(bank, np.array([5.0, 5.0]), 2)
    assert np.array_equal(bank[:2], before[:2])
    assert np.array_equal(bank[2], [5.0, 5.0])
    replace(bank, np.array([6.0, 6.0]), 2)
    assert np.array_equal(bank[2], [6.0, 6.0])
    assert len(bank) == 3


def test_bank_cardinality_under_replacement_storm():
    bank = init_random(toy_set(), seed=2)
    rng = np.random.default_rng(0)
    for _ in range(200):
        replace(bank, rng.normal(size=2), int(rng.integers(0, 3)))
        assert bank.shape == (3, 2)


def id_loss(model: nn.MlpModel, bank: np.ndarray) -> float:
    """The bank term alone, at weight 1: no probe-input term carries weight."""
    spec = nn.LossSpec(bank_inputs=bank, bank_weight=1.0)
    return total_loss(model, np.zeros(model.layer_dims[0]), spec)


def test_id_loss_saturated_model_near_zero():
    # model whose logits strongly pick the right class for every entry
    bank = np.eye(3)
    model = nn.MlpModel([3, 3], [np.eye(3) * 60.0], [np.zeros(3)])
    assert id_loss(model, bank) < 1e-10


def test_id_loss_zero_logit_model():
    bank = np.zeros((4, 2))
    model = nn.MlpModel([2, 4], [np.zeros((2, 4))], [np.zeros(4)])
    assert id_loss(model, bank) == pytest.approx(4 * math.log(4), abs=1e-12)


def test_id_loss_matches_per_entry_oracle():
    rng = np.random.default_rng(8)
    model = nn.init_mlp([2, 6, 3], seed=4)
    bank = rng.normal(size=(3, 2))
    expected = 0.0
    for c in range(3):
        expected -= log_softmax_reference(nn.forward_logits(model, bank[c]))[c]
    assert id_loss(model, bank) == pytest.approx(expected, rel=1e-15)
