"""Blob generation, IDX loading, and epoch batch plans."""

import hashlib
import struct

import numpy as np
import pytest

from noisylab.config import make_datasets
from noisylab.data import (
    IMAGES_MAGIC,
    LABELS_MAGIC,
    DatasetConfig,
    LabeledDataset,
    class_centers,
    epoch_batches,
    load_idx,
    make_blobs,
)


def write_idx_pair(tmp_path, pixels, labels, rows=2, cols=2, n_images=None, n_labels=None):
    """Write a matching images/labels IDX pair and return the two paths."""
    n = len(labels)
    img = tmp_path / "images.idx"
    lab = tmp_path / "labels.idx"
    img_count = n if n_images is None else n_images
    lab_count = n if n_labels is None else n_labels
    img.write_bytes(struct.pack(">IIII", IMAGES_MAGIC, img_count, rows, cols) + bytes(pixels))
    lab.write_bytes(struct.pack(">II", LABELS_MAGIC, lab_count) + bytes(labels))
    return str(img), str(lab)


class TestLabeledDataset:
    def test_basic_properties(self):
        ds = LabeledDataset(np.zeros((4, 3)), [0, 1, 1, 0], [0, 1, 0, 0], 2)
        assert ds.n == 4
        assert ds.d == 3
        assert ds.features.dtype == np.float64
        assert ds.true_labels.dtype == np.int64
        assert np.array_equal(ds.clean_mask, [True, True, False, True])

    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 2)), [0, 2], [0, 1], 2)
        with pytest.raises(ValueError, match="k must be at least 1"):
            LabeledDataset(np.zeros((2, 2)), [0, 0], [0, 0], 0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 2)), [0], [0, 1], 2)


class TestClassCenters:
    def test_two_classes_sit_on_diameter(self):
        # separation 10 with k=2: antipodal points at radius 5
        centers = class_centers(2, 2, 10.0)
        assert np.allclose(centers, [[5.0, 0.0], [-5.0, 0.0]])

    def test_adjacent_distance_equals_separation(self):
        for k in (2, 3, 7, 10):
            centers = class_centers(k, 4, 2.5)
            gaps = np.linalg.norm(np.diff(centers, axis=0), axis=1)
            assert np.allclose(gaps, 2.5)
            assert np.allclose(centers[:, 2:], 0.0)

    def test_one_dimensional_line(self):
        centers = class_centers(3, 1, 4.0)
        assert np.array_equal(centers, [[0.0], [4.0], [8.0]])


def blobs(**geometry):
    return make_blobs(DatasetConfig(**geometry))


class TestMakeBlobs:
    def test_shapes_and_block_labels(self):
        for ds, per_class in zip(blobs(n_per_class=20, test_per_class=4, classes=3, dim=5, seed=0), (20, 4)):
            assert ds.features.shape == (3 * per_class, 5)
            assert np.array_equal(ds.true_labels, np.repeat([0, 1, 2], per_class))
            assert np.array_equal(ds.observed_labels, ds.true_labels)

    def test_deterministic_per_seed(self):
        geometry = dict(n_per_class=10, test_per_class=10, classes=4, dim=3, separation=1.0, spread=0.2)
        (a, a_test), (b, b_test) = blobs(**geometry, seed=9), blobs(**geometry, seed=9)
        c, _ = blobs(**geometry, seed=10)
        assert np.array_equal(a.features, b.features) and np.array_equal(a_test.features, b_test.features)
        assert not np.array_equal(a.features, c.features)
        assert not np.array_equal(a.features, a_test.features)  # train and test are separate streams

    def test_tiny_spread_pins_points_to_centers(self):
        for ds in blobs(n_per_class=1, test_per_class=1, classes=2, separation=10.0, spread=1e-9, seed=0):
            assert np.allclose(ds.features, [[5.0, 0.0], [-5.0, 0.0]], atol=1e-6)

    def test_separated_blobs_classified_by_nearest_center(self):
        # well separated clusters: nearest-center assignment recovers labels
        ds, _ = blobs(separation=6.0, spread=1.0)
        centers = class_centers(10, 2, 6.0)
        dists = np.linalg.norm(ds.features[:, None, :] - centers[None], axis=2)
        predicted = dists.argmin(axis=1)
        assert (predicted == ds.true_labels).mean() > 0.99

    @pytest.mark.filterwarnings("error")
    def test_overflowing_draw_is_rejected_without_a_warning(self):
        with pytest.raises(ValueError, match="the blob features overflow"):
            blobs(n_per_class=5, classes=3, separation=1.0, spread=1e308, seed=0)

    def test_desk_draw_is_pinned(self):
        # every desk-scale acceptance figure trains on this draw; the digests were recorded before
        # make_blobs took its DatasetConfig, so they also pin that the refactor kept every bit
        def digest(array, dtype):
            return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()[:16]

        train, test = make_datasets(DatasetConfig())
        assert [(ds.k, digest(ds.features, "<f8"), digest(ds.observed_labels, "<i8")) for ds in (train, test)] == [
            (10, "36580b14d3c25eae", "c3556f4a243d7dc7"),
            (10, "695ee7ec9e7c86fb", "bbdaed34ddb84891"),
        ]
        assert all(np.array_equal(ds.true_labels, ds.observed_labels) for ds in (train, test))


class TestLoadIdx:
    def test_roundtrip_with_normalization(self, tmp_path):
        pixels = [0, 255, 128, 64] * 3
        img, lab = write_idx_pair(tmp_path, pixels, [0, 2, 1])
        ds = load_idx(img, lab)
        assert ds.n == 3
        assert ds.d == 4
        assert ds.k == 3
        assert ds.features[0, 1] == 1.0
        assert ds.features[0, 0] == 0.0
        assert ds.features[0, 2] == pytest.approx(128 / 255)
        assert np.array_equal(ds.true_labels, [0, 2, 1])

    def test_bad_magic(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [0, 0, 0, 0], [0])
        broken = tmp_path / "broken.idx"
        broken.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + bytes(4))
        with pytest.raises(ValueError, match="bad magic 0xdeadbeef"):
            load_idx(str(broken), lab)

    def test_count_mismatch(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [0] * 8, [0, 1], n_labels=3)
        lab_path = tmp_path / "labels.idx"
        lab_path.write_bytes(struct.pack(">II", LABELS_MAGIC, 3) + bytes([0, 1, 1]))
        with pytest.raises(ValueError, match="holds 2 images but .* holds 3 labels"):
            load_idx(img, str(lab_path))

    def test_truncated_payload(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [0, 0], [0])  # needs 4 pixels
        with pytest.raises(ValueError, match="images.idx: payload cut short"):
            load_idx(img, lab)

    def test_truncated_header(self, tmp_path):
        stub = tmp_path / "stub.idx"
        stub.write_bytes(b"\x00\x00")
        img, lab = write_idx_pair(tmp_path, [0, 0, 0, 0], [0])
        with pytest.raises(ValueError, match="stub.idx: header cut short"):
            load_idx(str(stub), lab)

    def test_truncated_labels_header(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [0, 0, 0, 0], [0])
        stub = tmp_path / "stub.idx"
        stub.write_bytes(struct.pack(">I", LABELS_MAGIC))
        with pytest.raises(ValueError, match="header cut short"):
            load_idx(img, str(stub))

    def test_truncated_labels_payload(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [0] * 8, [0, 1])
        short = tmp_path / "short.idx"
        short.write_bytes(struct.pack(">II", LABELS_MAGIC, 2) + bytes([0]))
        with pytest.raises(ValueError, match="short.idx: payload cut short"):
            load_idx(img, str(short))

    def test_bad_labels_magic(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [0, 0, 0, 0], [0])
        broken = tmp_path / "broken.idx"
        broken.write_bytes(struct.pack(">II", IMAGES_MAGIC, 1) + bytes(1))
        with pytest.raises(ValueError, match="bad magic 0x00000803"):
            load_idx(img, str(broken))

    def test_zero_images_is_an_empty_dataset_error(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [], [])
        with pytest.raises(ValueError, match="features must be a non-empty n x d matrix"):
            load_idx(img, lab)

    def test_pixels_and_labels_are_copied_out_of_the_file_bytes(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [10, 20, 30, 40], [1])
        ds = load_idx(img, lab)
        assert ds.features.flags.writeable and ds.features.flags.owndata
        assert ds.observed_labels is not ds.true_labels
        assert ds.true_labels.dtype == np.int64


class TestEpochBatches:
    @staticmethod
    def dataset(n):
        labels = np.zeros(n, dtype=np.int64)
        return LabeledDataset(np.zeros((n, 1)), labels, labels, 1)

    def test_sizes_and_coverage(self):
        batches = epoch_batches(self.dataset(5), 2, seed=0, epoch=0)
        assert [len(b) for b in batches] == [2, 2, 1]
        seen = np.concatenate(batches)
        assert np.array_equal(np.sort(seen), np.arange(5))

    def test_epochs_reshuffle_but_stay_reproducible(self):
        ds = self.dataset(64)
        e0 = epoch_batches(ds, 16, seed=4, epoch=0)
        e0_again = epoch_batches(ds, 16, seed=4, epoch=0)
        e1 = epoch_batches(ds, 16, seed=4, epoch=1)
        assert all(np.array_equal(a, b) for a, b in zip(e0, e0_again))
        assert not all(np.array_equal(a, b) for a, b in zip(e0, e1))

    def test_batch_size_larger_than_n(self):
        batches = epoch_batches(self.dataset(3), 10, seed=0, epoch=0)
        assert len(batches) == 1
        assert len(batches[0]) == 3

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ValueError):
            epoch_batches(self.dataset(3), 0, seed=0, epoch=0)
