"""Label-noise transition matrices and seeded label corruption.

Three noise families, all with diagonal 1 - epsilon:

* pair: the whole error mass epsilon lands on the next class, (i+1) mod K.
* symmetry: epsilon is split evenly over the K-1 other classes.
* mixed: a dominant share epsilon1 lands on the next class and the remaining
  total epsilon2 is split evenly over the other K-2 classes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .data import LabeledDataset
from .seeding import SeedLike, rng_from

# Largest tested symmetric rate; higher rates are allowed but flagged. The true
# class keeps the majority while epsilon < (k - 1) / k, which is 0.9 at k = 10.
SYMMETRY_WARN_ABOVE = 0.6

# The one tolerance on row sums of stochastic matrices: transition and penalty labels.
ROW_SUM_TOL = 1e-12


class NoiseKind(str, Enum):
    PAIR = "pair"
    SYMMETRY = "symmetry"
    MIXED = "mixed"


@dataclass(frozen=True)
class NoiseSpec:
    """Noise family plus rates.

    For pair and symmetry only ``epsilon`` is used; left unset it means 0.0,
    clean labels. For mixed, ``epsilon1`` and ``epsilon2`` are required and
    ``epsilon`` must equal their sum (it is filled in when omitted).
    """

    kind: NoiseKind = NoiseKind.PAIR
    epsilon: float | None = None
    epsilon1: float | None = None
    epsilon2: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", NoiseKind(self.kind))
        if self.kind is NoiseKind.MIXED:
            if self.epsilon1 is None or self.epsilon2 is None:
                raise ValueError("mixed noise requires epsilon1 and epsilon2")
            if self.epsilon1 < 0 or self.epsilon2 < 0:
                raise ValueError("epsilon1 and epsilon2 must be non-negative")
            total = self.epsilon1 + self.epsilon2
            if self.epsilon is None:
                object.__setattr__(self, "epsilon", total)
            elif abs(self.epsilon - total) > ROW_SUM_TOL:
                raise ValueError("epsilon must equal epsilon1 + epsilon2")
        else:
            if self.epsilon is None:
                object.__setattr__(self, "epsilon", 0.0)
            if self.epsilon1 is not None or self.epsilon2 is not None:
                raise ValueError("epsilon1/epsilon2 only apply to mixed noise")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must be in [0, 1)")

    @property
    def exceeds_tested_range(self) -> bool:
        """True for symmetric rates above the flagged threshold."""
        return self.kind is NoiseKind.SYMMETRY and self.epsilon > SYMMETRY_WARN_ABOVE


def check_class_count(spec: NoiseSpec, k: int) -> None:
    """Raise ValueError unless the noise family can corrupt k classes."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if spec.kind is NoiseKind.MIXED and k == 2:
        raise ValueError("mixed noise needs at least 3 classes")


def build_transition(spec: NoiseSpec, k: int) -> np.ndarray:
    """K x K row-stochastic matrix; entry (i, j) = P(observed j | true i)."""
    check_class_count(spec, k)
    if spec.exceeds_tested_range:
        warnings.warn(
            f"symmetric noise rate {spec.epsilon} is above {SYMMETRY_WARN_ABOVE}, "
            "outside the tested range",
            UserWarning,
            stacklevel=2,
        )

    eps = float(spec.epsilon)
    matrix = np.zeros((k, k), dtype=np.float64)
    rows = np.arange(k)
    if spec.kind is NoiseKind.PAIR:
        matrix[rows, rows] = 1.0 - eps
        matrix[rows, (rows + 1) % k] = eps
    elif spec.kind is NoiseKind.SYMMETRY:
        matrix[:] = eps / (k - 1)
        matrix[rows, rows] = 1.0 - eps
    else:
        matrix[:] = spec.epsilon2 / (k - 2)
        matrix[rows, rows] = 1.0 - eps
        matrix[rows, (rows + 1) % k] = spec.epsilon1
    assert np.all(np.abs(matrix.sum(axis=1) - 1.0) <= ROW_SUM_TOL)
    return matrix


def corrupt_labels(dataset: LabeledDataset, matrix: np.ndarray, seed: SeedLike) -> LabeledDataset:
    """Resample each observed label from its true label's transition row.

    Draws one uniform per sample, in sample order, from a PCG64 generator
    keyed by ``seed``, and inverts the row's cumulative distribution. The
    draw order is fixed, so the corruption is bit-stable across runs and
    platforms. True labels are carried along untouched; only metrics read
    them.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    k = dataset.k
    if matrix.shape != (k, k):
        raise ValueError("transition matrix shape must match the dataset's class count")
    if np.any(matrix < 0) or np.any(np.abs(matrix.sum(axis=1) - 1.0) > ROW_SUM_TOL):
        raise ValueError("transition matrix rows must be non-negative and sum to 1")

    cumulative = np.cumsum(matrix, axis=1)
    cumulative[:, -1] = 1.0  # guard against rounding just below 1
    draws = rng_from(seed).random(dataset.n)
    per_sample = cumulative[dataset.true_labels]
    observed = (per_sample <= draws[:, None]).sum(axis=1).astype(np.int64)
    return replace(dataset, observed_labels=observed)
