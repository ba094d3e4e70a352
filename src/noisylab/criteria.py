"""Selection scores built from observed labels and estimated penalty labels.

The observed-label score rewards confidence on the label a sample arrived
with. The penalty score measures how much confidence falls on the classes
that typically corrupt that label. Subtracting the two separates genuinely
clean samples from corrupted ones that merely look confident:

    score_all = score_observed - lambda * score_penalty

Penalty labels are estimated per observed class from prediction confidences
averaged over that class, with the class's own entry removed and the rest
renormalized. With no usable mass the estimate falls back to the uniform
distribution over the other k - 1 classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .noise import ROW_SUM_TOL

MASS_TOL = 1e-12


def criteria_ol(confidences: np.ndarray, observed_onehot: np.ndarray) -> np.ndarray:
    """Confidence on the observed class, per sample."""
    return np.sum(confidences * observed_onehot, axis=-1)


def criteria_pl(confidences: np.ndarray, penalty_rows: np.ndarray) -> np.ndarray:
    """Confidence aligned with each sample's penalty label, per sample."""
    return np.sum(confidences * penalty_rows, axis=-1)


def criteria_all(
    confidences: np.ndarray,
    observed_onehot: np.ndarray,
    penalty_rows: np.ndarray,
    lam: float,
) -> np.ndarray:
    """Observed-class confidence minus lambda times the penalty alignment.

    Unbounded below; scores are ranks, never probabilities, so no clipping.
    """
    return criteria_ol(confidences, observed_onehot) - lam * criteria_pl(
        confidences, penalty_rows
    )


class ConfidenceAccumulator:
    """Stacked batches of prediction confidences, folded into per-class means on demand.

    Stacking only keeps a batch; ``class_means`` folds every stacked row at
    once, in stacking order, so class means survive across mini-batches.
    """

    def __init__(self, k: int):
        if k < 2:
            raise ValueError("k must be at least 2")
        self.k = k
        self._batches: list[tuple[np.ndarray, np.ndarray]] = []

    def stack_confidences(self, confidences: np.ndarray, observed_labels: np.ndarray) -> None:
        """Keep a copy of an (n, k) batch of confidences and its n observed labels for the fold."""
        confidences = np.array(confidences, dtype=np.float64)
        observed_labels = np.array(observed_labels, dtype=np.int64)
        if confidences.shape != (observed_labels.size, self.k) or observed_labels.ndim != 1:
            shapes = f"{confidences.shape} and {observed_labels.shape}"
            raise ValueError(f"need (n, {self.k}) confidences and n labels, got {shapes}")
        if observed_labels.size and not 0 <= observed_labels.min() <= observed_labels.max() < self.k:
            raise ValueError(f"observed labels must lie in [0, {self.k})")
        self._batches.append((confidences, observed_labels))

    def class_means(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean confidence per observed class (zero rows where unseen) and each class's count.

        The per-class sums come from one bincount per confidence column.
        bincount adds each label's weights in input order, starting from zero,
        so the sums equal sequential ``np.add.at`` into zeros bit for bit.
        One bincount per batch, added up afterwards, would not.
        """
        k = self.k
        labels = np.concatenate([np.empty(0, np.int64)] + [lab for _, lab in self._batches])
        columns = np.concatenate([np.empty((k, 0))] + [c.T for c, _ in self._batches], axis=1)
        sums = np.stack([np.bincount(labels, column, k) for column in columns], axis=1)
        counts = np.bincount(labels, minlength=k)
        return sums / np.maximum(counts, 1)[:, None], counts


@dataclass(frozen=True)
class PenaltyLabelSet:
    """One penalty distribution per class, stamped with its source epoch.

    Row k has a zero at k, sums to one, and ``fallback_mask[k]`` records
    whether it came from the uniform fallback rather than the estimate.
    """

    labels: np.ndarray
    epoch_of_estimate: int
    fallback_mask: np.ndarray

    def validate(self) -> None:
        labels = self.labels
        k = labels.shape[0]
        if labels.shape != (k, k):
            raise ValueError("penalty labels must be square")
        if not np.all(np.diagonal(labels) == 0.0):  # NaN fails these too
            raise ValueError("penalty labels must be zero on the own class")
        if not np.all(labels >= 0.0):
            raise ValueError("penalty labels must be non-negative")
        if not np.all(np.abs(labels.sum(axis=1) - 1.0) <= ROW_SUM_TOL):
            raise ValueError("penalty label rows must sum to 1")

    @classmethod
    def ideal_symmetric(cls, k: int) -> "PenaltyLabelSet":
        """Uniform 1/(k-1) off the diagonal; the symmetric-noise ideal, stamped -1."""
        labels = np.full((k, k), 1.0 / (k - 1))
        np.fill_diagonal(labels, 0.0)
        return cls(labels, -1, np.zeros(k, dtype=bool))


def estimate_penalty_labels(accumulator: ConfidenceAccumulator, epoch: int) -> PenaltyLabelSet:
    """Penalty labels from accumulated confidences, one row per class.

    Each class's mean confidence has its own entry zeroed and the remaining
    entries divided by their total. A class that was never seen, or whose
    off-class mass is at or below ``MASS_TOL``, gets the uniform fallback
    and is marked in the fallback mask.
    """
    k = accumulator.k
    off, counts = accumulator.class_means()
    np.fill_diagonal(off, 0.0)
    mass = off.sum(axis=1)
    fallback = (counts == 0) | (mass <= MASS_TOL)

    labels = PenaltyLabelSet.ideal_symmetric(k).labels
    labels[~fallback] = off[~fallback] / mass[~fallback, None]
    estimate = PenaltyLabelSet(labels, epoch, fallback)
    estimate.validate()
    return estimate


def descending_order(scores: np.ndarray) -> np.ndarray:
    """Indices sorted by score descending, ties by ascending index."""
    return np.argsort(-np.asarray(scores), kind="stable")


class AffineEquivalence(NamedTuple):
    residual: float
    ordering_identical: bool


def ideal_penalty_affine_check(
    batch_confidences: np.ndarray,
    observed_labels: np.ndarray,
    lam: float,
    k: int,
) -> AffineEquivalence:
    """Check that ideal symmetric penalties make the combined score affine.

    With the uniform off-class penalty, the combined score must equal
    (1 + lambda/(k-1)) * observed_score - lambda/(k-1) for every sample, and
    the descending orderings of the two scores must coincide exactly.
    Returns the worst absolute deviation and whether the orderings matched.
    """
    confidences = np.asarray(batch_confidences, dtype=np.float64)
    observed = np.asarray(observed_labels, dtype=np.int64)
    onehot = np.eye(k)[observed]
    penalty_rows = PenaltyLabelSet.ideal_symmetric(k).labels[observed]

    ol = criteria_ol(confidences, onehot)
    combined = criteria_all(confidences, onehot, penalty_rows, lam)
    affine = (1.0 + lam / (k - 1)) * ol - lam / (k - 1)
    residual = float(np.max(np.abs(combined - affine))) if ol.size else 0.0
    ordering_identical = bool(
        np.array_equal(descending_order(combined), descending_order(ol))
    )
    return AffineEquivalence(residual, ordering_identical)
