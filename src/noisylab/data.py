"""Datasets: synthetic Gaussian blobs, IDX file loading, and batch plans.

A dataset carries both the true labels and the observed (possibly corrupted)
labels. The training loop only ever reads the observed labels; true labels
exist so that metrics can score selection quality after the fact.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .seeding import SeedLike, rng_from

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


class IdxMagicError(ValueError):
    """Magic number does not identify an images or labels file."""


class IdxCountMismatchError(ValueError):
    """Images and labels files disagree on the sample count."""


class IdxTruncatedError(ValueError):
    """File ends before the declared payload."""


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix plus true and observed labels for k classes.

    Treated as immutable after construction; corruption produces a new
    instance and never rewrites the arrays in place.
    """

    features: np.ndarray
    true_labels: np.ndarray
    observed_labels: np.ndarray
    k: int

    def __post_init__(self) -> None:
        f = np.asarray(self.features, dtype=np.float64)
        t = np.asarray(self.true_labels, dtype=np.int64)
        o = np.asarray(self.observed_labels, dtype=np.int64)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "true_labels", t)
        object.__setattr__(self, "observed_labels", o)
        if f.ndim != 2 or f.shape[0] == 0 or f.shape[1] == 0:
            raise ValueError("features must be a non-empty n x d matrix")
        n = f.shape[0]
        if t.shape != (n,) or o.shape != (n,):
            raise ValueError("label arrays must have one entry per sample")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        for name, arr in (("true_labels", t), ("observed_labels", o)):
            if arr.min() < 0 or arr.max() >= self.k:
                raise ValueError(f"{name} must lie in [0, k)")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def clean_mask(self) -> np.ndarray:
        """True where the observed label still equals the true label."""
        return self.observed_labels == self.true_labels

    def with_observed(self, observed: np.ndarray) -> "LabeledDataset":
        """Copy of this dataset with a replacement observed-label array."""
        return LabeledDataset(self.features, self.true_labels, observed, self.k)


def class_centers(k: int, d: int, separation: float) -> np.ndarray:
    """Deterministic cluster centers: a circle in the first two coordinates.

    ``separation`` is the distance between adjacent centers. For d == 1 the
    centers sit on a line at that spacing instead.
    """
    centers = np.zeros((k, d), dtype=np.float64)
    if d == 1:
        centers[:, 0] = np.arange(k) * separation
        return centers
    angles = 2.0 * np.pi * np.arange(k) / k
    radius = separation / (2.0 * np.sin(np.pi / k))
    centers[:, 0] = radius * np.cos(angles)
    centers[:, 1] = radius * np.sin(angles)
    return centers


def make_blobs(
    n_per_class: int,
    k: int,
    d: int,
    separation: float,
    spread: float,
    seed: SeedLike,
) -> LabeledDataset:
    """Sample exactly ``n_per_class`` points per class around fixed centers.

    Bit-identical for identical arguments: centers are analytic and the
    offsets come from one seeded generator in a fixed draw order.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be positive")
    if k < 2:
        raise ValueError("k must be at least 2")
    if d < 1:
        raise ValueError("d must be at least 1")
    if separation <= 0:
        raise ValueError("separation must be positive")
    if spread <= 0:
        raise ValueError("spread must be positive")
    centers = class_centers(k, d, separation)
    rng = rng_from(seed)
    offsets = rng.standard_normal((k, n_per_class, d)) * spread
    features = (centers[:, None, :] + offsets).reshape(k * n_per_class, d)
    labels = np.repeat(np.arange(k, dtype=np.int64), n_per_class)
    return LabeledDataset(features, labels, labels.copy(), k)


def _read_idx(path: str, magic: int, ndim: int) -> np.ndarray:
    """One IDX file as a uint8 array of ``ndim`` dims viewing the file bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    # IDX headers are big-endian 32-bit words: magic, then one size per dim.
    header_len = 4 * (1 + ndim)
    if len(raw) < header_len:
        raise IdxTruncatedError(f"{path}: header cut short ({len(raw)} bytes)")
    found, *dims = struct.unpack_from(f">{1 + ndim}I", raw)
    if found != magic:
        raise IdxMagicError(f"{path}: bad magic 0x{found:08x}")
    count = math.prod(dims)
    if len(raw) - header_len < count:
        raise IdxTruncatedError(f"{path}: payload cut short")
    return np.frombuffer(raw, np.uint8, count, header_len).reshape(dims)


def load_idx(images_path: str, labels_path: str, normalize: bool = True) -> LabeledDataset:
    """Load an images/labels IDX pair into a dataset.

    Pixel features are flattened row-major and, when ``normalize`` is set,
    scaled from [0, 255] to [0, 1]. The observed labels start out equal to
    the file labels; corruption is a separate step.
    """
    images = _read_idx(images_path, IMAGES_MAGIC, 3)
    labels = _read_idx(labels_path, LABELS_MAGIC, 1)
    n_img, rows, cols = images.shape
    if n_img != labels.size:
        raise IdxCountMismatchError(
            f"{images_path} holds {n_img} images but {labels_path} holds {labels.size} labels"
        )
    features = images.reshape(n_img, rows * cols).astype(np.float64)
    if normalize:
        features /= 255.0
    k = int(labels.max()) + 1 if labels.size else 1
    return LabeledDataset(features, labels, labels, k)


def epoch_batches(
    dataset: LabeledDataset, batch_size: int, seed: SeedLike, epoch: int
) -> list[np.ndarray]:
    """Mini-batch index lists for one epoch under a fresh seeded shuffle.

    The permutation is keyed by (seed, epoch), so each epoch reshuffles and
    the whole schedule is reproducible. Every index appears exactly once;
    the last batch may be short.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    order = rng_from(seed, epoch).permutation(dataset.n)
    return [order[i : i + batch_size] for i in range(0, dataset.n, batch_size)]
