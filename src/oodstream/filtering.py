"""The adaptive in-out-aware filter.

Score statistics estimated on training in-distribution data fix two margins:
samples scoring above the inner margin are treated as pseudo-ID, samples
below the outlier margin as pseudo-OOD, and the band in between abstains.
The inner margin never moves; the outlier margin follows a greedy running
mean of the pseudo-OOD scores it accepts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class FilterDecision(Enum):
    PSEUDO_ID = "pseudo_id"
    PSEUDO_OOD = "pseudo_ood"
    ABSTAIN = "abstain"

    # Members are singletons that compare by identity, so identity hashing
    # agrees with equality; it skips Enum's Python-level __hash__, which the
    # replay pays once per arrival.
    __hash__ = object.__hash__


# The members as module constants: reading one skips the Enum class lookup.
PSEUDO_ID, PSEUDO_OOD, ABSTAIN = FilterDecision


@dataclass(frozen=True)
class Margins:
    """Filter state. ``m_in`` is fixed after init; ``m_out`` is a running mean.

    ``m_count`` counts recorded pseudo-OOD scores, including the virtual
    anchor the initialization contributes.
    """

    m_in: float
    m_out: float
    m_count: int


def estimate_id_stats(scores: np.ndarray) -> tuple[float, float]:
    """``(mu, sigma)`` of a float64 vector of in-distribution scores: the
    arithmetic mean and the population standard deviation (sqrt of
    sum((s-mu)^2)/N)."""
    if scores.size == 0:
        raise ValueError("cannot estimate score statistics from an empty list")
    mu = float(np.mean(scores))
    sigma = float(math.sqrt(np.mean((scores - mu) ** 2)))
    return mu, sigma


def init_margins(mu: float, sigma: float, k1: float, k2: float) -> Margins:
    """m_in = mu + k1*sigma, m_out = mu - k2*sigma.

    The initial m_out counts as one virtual observation, so it anchors the
    running mean.
    """
    return Margins(m_in=mu + k1 * sigma, m_out=mu - k2 * sigma, m_count=1)


def classify(margins: Margins, score: float) -> FilterDecision:
    """Strict comparisons; scores exactly on a margin abstain."""
    if score > margins.m_in:
        return PSEUDO_ID
    if score < margins.m_out:
        return PSEUDO_OOD
    return ABSTAIN


def update_outlier_margin(margins: Margins, score: float) -> Margins:
    """Greedy running-mean update: only scores below the current margin count.

    A score a few ulps below m_out can round the new mean one ulp above the
    old margin (m_count = 877, m_out = 0.20857302188851445 and a score one
    ulp lower give 0.20857302188851448), so the mean is capped there: m_out
    never rises.
    """
    if score >= margins.m_out:
        return margins
    m = margins.m_count
    new_out = min((m * margins.m_out + score) / (m + 1), margins.m_out)
    return Margins(margins.m_in, new_out, m + 1)
