"""Detection metrics vs brute-force oracles."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import (auroc_bruteforce, auroc_midrank_loop, fpr_at_tpr_bruteforce,
                     id_accuracy_recount, log_from_columns, log_from_scores, random_log)
from oodstream.metrics import auroc, fpr_at_tpr, id_accuracy


def test_fpr95_worked_example():
    # threshold sweep by hand: all 5 ID scores are needed for TPR >= 0.95,
    # so tau = 0.5 and exactly one of two OOD scores passes it
    log = log_from_scores([0.9, 0.8, 0.7, 0.6, 0.5], [0.55, 0.4])
    assert fpr_at_tpr(log) == pytest.approx(0.5, abs=0)
    assert fpr_at_tpr_bruteforce(log, 0.95) == pytest.approx(0.5, abs=0)


def test_fpr95_perfect_separation():
    log = log_from_scores([0.9, 0.8, 0.7], [0.2, 0.1])
    assert fpr_at_tpr(log) == 0.0


def test_fpr95_degenerate_ties():
    log = log_from_scores([0.5] * 10, [0.5] * 4)
    assert fpr_at_tpr(log) == 1.0


def test_fpr_requires_both_classes():
    with pytest.raises(ValueError):
        fpr_at_tpr(log_from_scores([0.5], []))
    with pytest.raises(ValueError):
        fpr_at_tpr(log_from_scores([], [0.5]))


def test_auroc_worked_example():
    log = log_from_scores([0.9, 0.7], [0.8, 0.1])
    assert auroc(log) == pytest.approx(0.75, abs=0)
    assert auroc_bruteforce(log) == pytest.approx(0.75, abs=0)


def test_auroc_perfect_and_ties():
    assert auroc(log_from_scores([0.9, 0.8], [0.2, 0.1])) == 1.0
    assert auroc(log_from_scores([0.5, 0.5], [0.5, 0.5])) == 0.5


def test_oracle_equivalence_on_random_logs():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        n_id = int(rng.integers(1, 251))
        n_ood = int(rng.integers(1, 251))
        log = random_log(rng, n_id, n_ood, with_ties=trial % 2 == 0)
        assert abs(auroc(log) - auroc_bruteforce(log)) <= 1e-12
        assert abs(fpr_at_tpr(log) - fpr_at_tpr_bruteforce(log)) <= 1e-12


def test_auroc_equals_midrank_loop_exactly():
    rng = np.random.default_rng(7)
    for trial in range(200):
        log = random_log(rng, int(rng.integers(1, 251)), int(rng.integers(1, 251)),
                         with_ties=trial % 2 == 0)
        assert auroc(log) == auroc_midrank_loop(log)


def test_auroc_all_ties():
    # every score value is shared, within and across the two classes
    log = log_from_scores([0.1, 0.1, 0.5, 0.9, 0.9], [0.1, 0.5, 0.5, 0.9])
    assert auroc(log) == auroc_midrank_loop(log) == auroc_bruteforce(log)


def test_auroc_single_distinct_score():
    log = log_from_scores([0.3] * 7, [0.3] * 4)
    assert auroc(log) == auroc_midrank_loop(log) == auroc_bruteforce(log) == 0.5


def test_auroc_invariant_under_monotone_transform():
    rng = np.random.default_rng(3)
    base = random_log(rng, 40, 30, with_ties=True)
    transformed = log_from_scores(np.exp(base.score[~base.is_ood]),
                                  np.exp(base.score[base.is_ood]))
    assert auroc(transformed) == pytest.approx(auroc(base), abs=1e-12)


def test_fpr_monotone_in_tpr_target():
    """``fpr_at_tpr`` fixes the target at 0.95; the oracle's FPR at a lower
    target is no higher, and at a higher target no lower."""
    rng = np.random.default_rng(4)
    for _ in range(30):
        log = random_log(rng, 50, 50, with_ties=False)
        t1, t2 = sorted(rng.uniform(0.05, 1.0, size=2))
        assert fpr_at_tpr_bruteforce(log, t1) <= fpr_at_tpr_bruteforce(log, t2) + 1e-15
        assert (fpr_at_tpr_bruteforce(log, min(t1, 0.95)) <= fpr_at_tpr(log)
                <= fpr_at_tpr_bruteforce(log, max(t2, 0.95)))


def test_id_accuracy_all_correct_and_recount():
    log = log_from_scores([0.9, 0.8], [0.1])
    # predictions default to 0 and labels to 0: all correct
    assert id_accuracy(log) == 1.0
    assert id_accuracy_recount(log) == 1.0


def test_id_accuracy_reduces_to_plain_accuracy_without_ood():
    log = log_from_columns([0.9, 0.8, 0.7], [False] * 3, prediction=[1, 0, 2],
                           label=[1, 2, 2])
    assert id_accuracy(log) == pytest.approx(2 / 3)


def test_id_accuracy_requires_labeled_id():
    with pytest.raises(ValueError):
        id_accuracy(log_from_scores([], [0.5, 0.6]))

