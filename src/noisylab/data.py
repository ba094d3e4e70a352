"""Datasets: their config section, synthetic Gaussian blobs, IDX file loading, and batch plans.

A dataset carries both the true labels and the observed (possibly corrupted)
labels. The training loop only ever reads the observed labels; true labels
exist so that metrics can score selection quality after the fact.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields

import numpy as np

from .seeding import SeedLike, rng_from

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class DatasetConfig:
    """Synthetic blobs by default, or an IDX file quartet.

    The default geometry keeps features near unit scale for the default
    learning rate and leaves enough class overlap for selection quality
    differences to show, while a clean-label run stays under 5% test error.
    """

    kind: str = "blobs"
    n_per_class: int = 500
    test_per_class: int = 100
    classes: int = 10
    dim: int = 2
    separation: float = 0.55
    spread: float = 0.11
    seed: int = 7
    images: str | None = None
    labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None

    def __post_init__(self) -> None:
        paths = ("images", "labels", "test_images", "test_labels")
        if self.kind == "idx":
            for key in paths:
                if not getattr(self, key):
                    raise ValueError(f"{key} is required when kind is 'idx'")
            changed = [f.name for f in fields(self)[1:-4] if getattr(self, f.name) != f.default]  # the blob keys
            if changed:  # else idx would ignore them
                raise ValueError(f"{', '.join(changed)} only apply when kind is 'blobs'")
        elif self.kind != "blobs":
            raise ValueError(f"kind must be 'blobs' or 'idx', not '{self.kind}'")
        elif any(getattr(self, key) is not None for key in paths):  # else blobs would ignore them
            raise ValueError("images, labels, test_images and test_labels only apply when kind is 'idx'")
        elif self.n_per_class < 1 or self.test_per_class < 1:
            raise ValueError("n_per_class and test_per_class must be positive")
        elif self.classes < 2:
            raise ValueError("classes must be at least 2")
        elif self.dim < 1:
            raise ValueError("dim must be at least 1")
        elif self.separation <= 0 or self.spread <= 0:
            raise ValueError("separation and spread must be positive")
        elif self.seed < 0:
            raise ValueError("seed must be non-negative")


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


@np.errstate(over="ignore", invalid="ignore")
def make_blobs(config: DatasetConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """The blob train and test sets: ``n_per_class`` and ``test_per_class`` points per class.

    Both sets are drawn around the same analytic centers, from the disjoint
    seed streams (seed, 0) and (seed, 1), so they are independent draws and
    bit-identical for an identical config.
    """
    k, d = config.classes, config.dim
    centers = class_centers(k, d, config.separation)
    pair = []
    for stream, per_class in enumerate((config.n_per_class, config.test_per_class)):
        offsets = rng_from(config.seed, stream).standard_normal((k, per_class, d)) * config.spread
        features = (centers[:, None, :] + offsets).reshape(k * per_class, d)
        if not np.isfinite(features).all():
            raise ValueError("separation or spread is too large: the blob features overflow")
        labels = np.repeat(np.arange(k, dtype=np.int64), per_class)
        pair.append(LabeledDataset(features, labels, labels.copy(), k))
    return pair[0], pair[1]


def _read_idx(path: str, magic: int, ndim: int) -> np.ndarray:
    """One IDX file as a uint8 array of ``ndim`` dims viewing the file bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    # IDX headers are big-endian 32-bit words: magic, then one size per dim.
    header_len = 4 * (1 + ndim)
    if len(raw) < header_len:
        raise ValueError(f"{path}: header cut short ({len(raw)} bytes)")
    found, *dims = struct.unpack_from(f">{1 + ndim}I", raw)
    if found != magic:
        raise ValueError(f"{path}: bad magic 0x{found:08x}")
    count = math.prod(dims)
    if len(raw) - header_len < count:
        raise ValueError(f"{path}: payload cut short")
    return np.frombuffer(raw, np.uint8, count, header_len).reshape(dims)


def load_idx(images_path: str, labels_path: str) -> LabeledDataset:
    """Load an images/labels IDX pair into a dataset.

    Pixel features are flattened row-major and scaled from [0, 255] to
    [0, 1]. The observed labels start out equal to the file labels;
    corruption is a separate step.
    """
    images = _read_idx(images_path, IMAGES_MAGIC, 3)
    labels = _read_idx(labels_path, LABELS_MAGIC, 1)
    n_img, rows, cols = images.shape
    if n_img != labels.size:
        raise ValueError(
            f"{images_path} holds {n_img} images but {labels_path} holds {labels.size} labels"
        )
    features = images.reshape(n_img, rows * cols) / 255.0
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
