"""Seeded synthetic IDX quartet: 28x28 uint8 images around class prototypes.

Every class has one prototype image; each sample is its class prototype plus
per-pixel Gaussian noise, clipped to [0, 255]. Train and test share the
prototypes. Everything, prototypes included, is drawn from one generator
keyed by the seed, so the same seed gives byte-identical files.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801
SIDE = 28
BACKGROUND = 128.0
# Prototype contrast and per-pixel noise, in grey levels. Their ratio sets
# how far apart the classes sit and so the test error a trained net reaches.
CONTRAST = 6.0
NOISE = 50.0


def _images(prototypes: np.ndarray, per_class: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    k = prototypes.shape[0]
    labels = np.repeat(np.arange(k, dtype=np.uint8), per_class)
    order = rng.permutation(labels.size)
    labels = labels[order]
    pixels = prototypes[labels] + rng.standard_normal((labels.size, SIDE * SIDE)) * NOISE
    return np.clip(np.rint(pixels), 0, 255).astype(np.uint8), labels


def _write(path: Path, magic: int, dims: tuple[int, ...], payload: np.ndarray) -> None:
    header = struct.pack(f">{1 + len(dims)}I", magic, *dims)
    path.write_bytes(header + payload.tobytes())


def write_idx_quartet(directory: Path, seed: int, classes: int, train_per_class: int, test_per_class: int) -> dict[str, str]:
    """Write train/test images and labels; return the dataset config keys."""
    rng = np.random.default_rng(seed)
    prototypes = BACKGROUND + CONTRAST * rng.standard_normal((classes, SIDE * SIDE))
    paths = {}
    for split, per_class in (("train", train_per_class), ("test", test_per_class)):
        images, labels = _images(prototypes, per_class, rng)
        img_path = directory / f"{split}-images-idx3-ubyte"
        lab_path = directory / f"{split}-labels-idx1-ubyte"
        _write(img_path, IMAGES_MAGIC, (labels.size, SIDE, SIDE), images)
        _write(lab_path, LABELS_MAGIC, (labels.size,), labels)
        prefix = "" if split == "train" else "test_"
        paths[f"{prefix}images"] = str(img_path)
        paths[f"{prefix}labels"] = str(lab_path)
    return paths
