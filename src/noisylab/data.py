"""Datasets: synthetic Gaussian blobs, IDX file loading, and batch plans.

A dataset carries both the true labels and the observed (possibly corrupted)
labels. The training loop only ever reads the observed labels; true labels
exist so that metrics can score selection quality after the fact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .seeding import SeedLike, rng_from

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Base class for malformed IDX input."""


class IdxMagicError(IdxFormatError):
    """Magic number does not identify an images or labels file."""


class IdxCountMismatchError(IdxFormatError):
    """Images and labels files disagree on the sample count."""


class IdxTruncatedError(IdxFormatError):
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
            if arr.size and (arr.min() < 0 or arr.max() >= self.k):
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


def _read_idx_header(raw: bytes, path: str, expected_magic: int, header_len: int) -> tuple[int, ...]:
    if len(raw) < header_len:
        raise IdxTruncatedError(f"{path}: header cut short ({len(raw)} bytes)")
    # IDX headers are big-endian 32-bit words: magic, then one count per dim.
    words = struct.unpack(f">{header_len // 4}I", raw[:header_len])
    if words[0] != expected_magic:
        raise IdxMagicError(f"{path}: bad magic 0x{words[0]:08x}")
    return words[1:]


def load_idx(images_path: str, labels_path: str, normalize: bool = True) -> LabeledDataset:
    """Load an images/labels IDX pair into a dataset.

    Pixel features are flattened row-major and, when ``normalize`` is set,
    scaled from [0, 255] to [0, 1]. The observed labels start out equal to
    the file labels; corruption is a separate step.
    """
    with open(images_path, "rb") as fh:
        img_raw = fh.read()
    with open(labels_path, "rb") as fh:
        lab_raw = fh.read()

    n_img, rows, cols = _read_idx_header(img_raw, images_path, IMAGES_MAGIC, 16)
    (n_lab,) = _read_idx_header(lab_raw, labels_path, LABELS_MAGIC, 8)
    if n_img != n_lab:
        raise IdxCountMismatchError(
            f"{images_path} holds {n_img} images but {labels_path} holds {n_lab} labels"
        )
    pixels = img_raw[16:]
    if len(pixels) < n_img * rows * cols:
        raise IdxTruncatedError(f"{images_path}: payload cut short")
    if len(lab_raw) - 8 < n_lab:
        raise IdxTruncatedError(f"{labels_path}: payload cut short")

    features = np.frombuffer(pixels[: n_img * rows * cols], dtype=np.uint8)
    features = features.reshape(n_img, rows * cols).astype(np.float64)
    if normalize:
        features = features / 255.0
    labels = np.frombuffer(lab_raw[8 : 8 + n_lab], dtype=np.uint8).astype(np.int64)
    k = int(labels.max()) + 1 if labels.size else 1
    return LabeledDataset(features, labels, labels.copy(), k)


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
