"""Synthetic scenarios and stream composition.

In-distribution data is a C-class isotropic Gaussian mixture, drawn as a
``LabeledSet``; each outlier pool is an unlabeled ``(ood_n, dim)`` feature
array drawn from one shifted isotropic Gaussian. Streams interleave an ID
pool with one or more OOD pools by a per-position Bernoulli draw with ID
probability kappa, sampling without replacement and truncating at the first
pool exhaustion; an OOD arrival's hidden label is -1. Everything is a pure
function of the ``RunConfig``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # runconfig imports this module
    from .runconfig import RunConfig


@dataclass
class LabeledSet:
    """Feature matrix (N, d) with one class label per row."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class GaussianSource:
    """Isotropic Gaussian outlier cluster."""

    center: tuple[float, ...]
    spread: float


def circle_means(num_classes: int, mean_radius: float,
                 dim: int) -> tuple[tuple[float, ...], ...]:
    """Class means evenly spaced on a circle in the first two dims (origin-
    centered line for dim = 1), matching the pinned canonical layout."""
    if dim == 1:
        return tuple((mean_radius * (c - (num_classes - 1) / 2.0),) for c in range(num_classes))
    means = []
    for c in range(num_classes):
        a = math.pi / 2 + 2 * math.pi * c / num_classes
        means.append((mean_radius * math.cos(a), mean_radius * math.sin(a)) + (0.0,) * (dim - 2))
    return tuple(means)


def _even_split(total: int, parts: int) -> list[int]:
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def _draw_id_set(cfg: RunConfig, total: int, rng: np.random.Generator) -> LabeledSet:
    # One C-order (total, d) draw equals the per-class draws joined, bit for bit.
    labels = np.repeat(np.arange(cfg.classes), _even_split(total, cfg.classes))
    means = np.asarray(circle_means(cfg.classes, cfg.mean_radius, cfg.dim))
    features = rng.normal(0.0, cfg.id_spread, size=(total, cfg.dim)) + means[labels]
    order = rng.permutation(total)
    return LabeledSet(features[order], labels[order], cfg.classes)


def make_scenario(cfg: RunConfig) -> tuple[LabeledSet, LabeledSet, list[np.ndarray]]:
    """Seeded draw of (train ID, test ID, one ``(ood_n, dim)`` pool per OOD source).

    ``train_n`` and ``test_id_n`` are totals split as evenly as possible
    across classes (remainder to the lowest class indices); ``ood_n`` is
    per source.
    """
    rng = np.random.default_rng(cfg.seed)
    train = _draw_id_set(cfg, cfg.train_n, rng)
    test_id = _draw_id_set(cfg, cfg.test_id_n, rng)
    oods = [rng.normal(0.0, src.spread, size=(cfg.ood_n, cfg.dim)) + np.asarray(src.center)
            for src in cfg.ood_sources]
    return train, test_id, oods


# ---------------------------------------------------------------------------
# streams


@dataclass
class Stream:
    """Ordered arrivals with hidden ground truth and composition metadata."""

    features: np.ndarray
    is_ood: np.ndarray
    labels: np.ndarray
    segment_bounds: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.labels)


def _compose(id_features: np.ndarray, id_labels: np.ndarray, ood_features: np.ndarray,
             kappa: float, rng: np.random.Generator) -> Stream:
    """Common per-position Bernoulli interleaver, without replacement."""
    if not 0.0 <= kappa < 1.0:
        raise ValueError(f"kappa must be in [0, 1), got {kappa}")
    n_id, n_ood = len(id_labels), len(ood_features)
    if kappa > 0.0 and n_id == 0:
        raise ValueError("kappa > 0 requires a nonempty ID pool")
    if n_ood == 0:
        raise ValueError("OOD pool must be nonempty")
    id_order = rng.permutation(n_id)
    ood_order = rng.permutation(n_ood)
    # Slot t takes from the ID pool when its uniform is below kappa; the
    # stream ends at the first slot whose pool is already empty. Every slot
    # before it takes one row, so that slot is among the first
    # n_id + n_ood + 1, and one bulk draw gives the values a draw per slot
    # would. The draw may take more numbers from ``rng`` than the stream
    # uses; every composer makes a fresh generator and reads nothing after.
    take_id = rng.random(n_id + n_ood + 1) < kappa
    taken_id = np.cumsum(take_id)
    taken_ood = np.arange(1, len(take_id) + 1) - taken_id
    end = int(np.argmax(np.where(take_id, taken_id > n_id, taken_ood > n_ood)))
    take_id = take_id[:end]
    take_ood = ~take_id
    id_rows = id_order[:np.count_nonzero(take_id)]
    ood_rows = ood_order[:end - len(id_rows)]
    features = np.empty((end, ood_features.shape[1]))
    features[take_id] = id_features[id_rows]
    features[take_ood] = ood_features[ood_rows]
    labels = np.full(end, -1, dtype=np.int64)
    labels[take_id] = id_labels[id_rows]
    return Stream(features, is_ood=take_ood, labels=labels, segment_bounds=(0,))


def compose_stream(test_id_set: LabeledSet, ood_pool: np.ndarray, kappa: float,
                   seed: int) -> Stream:
    """Single-source contaminated stream: ID with probability kappa per slot."""
    rng = np.random.default_rng(seed)
    return _compose(test_id_set.features, test_id_set.labels, ood_pool, kappa, rng)


def compose_mixed(test_id_set: LabeledSet, ood_pools: list[np.ndarray], kappa: float,
                  seed: int) -> Stream:
    """One segment whose OOD slots draw uniformly across the pooled sources."""
    rng = np.random.default_rng(seed)
    return _compose(test_id_set.features, test_id_set.labels, np.concatenate(ood_pools),
                    kappa, rng)


def compose_timeseries(test_id_set: LabeledSet, ood_pools: list[np.ndarray],
                       kappa: float, seed: int) -> Stream:
    """Sequential per-source segments; the ID pool splits evenly across them."""
    id_order = np.random.default_rng(seed).permutation(len(test_id_set))
    chunks = np.split(id_order, np.cumsum(_even_split(len(id_order), len(ood_pools)))[:-1])
    parts = [_compose(test_id_set.features[idx], test_id_set.labels[idx], pool, kappa,
                      np.random.default_rng([seed, k]))
             for k, (pool, idx) in enumerate(zip(ood_pools, chunks))]
    return Stream(
        features=np.concatenate([p.features for p in parts]),
        is_ood=np.concatenate([p.is_ood for p in parts]),
        labels=np.concatenate([p.labels for p in parts]),
        segment_bounds=tuple(np.cumsum([0] + [len(p) for p in parts[:-1]]).tolist()),
    )


# ---------------------------------------------------------------------------
# the pinned canonical scenario: the ``RunConfig`` defaults, with these
# outlier sources for a config that sets no ``scenario.ood*`` key (golden
# values depend on their bits). Both clusters sit on the corridor between
# canonical classes 0 and 1 (the low-confidence wedge of a classifier
# trained on the mixture): the primary cluster at radius 2.5, where scores
# overlap the ID tail, and a drifted cluster at distance 5, deep in the
# region where a frozen classifier is overconfident. The drifted source is
# the second segment of the canonical time-series stream.
_CORRIDOR = (math.cos(math.pi / 2 + math.pi / 3), math.sin(math.pi / 2 + math.pi / 3))
CANONICAL_OOD_SOURCES = (
    GaussianSource(center=(2.5 * _CORRIDOR[0], 2.5 * _CORRIDOR[1]), spread=0.4),
    GaussianSource(center=(5.0 * _CORRIDOR[0], 5.0 * _CORRIDOR[1]), spread=0.5),
)
