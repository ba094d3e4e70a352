"""Transition matrix construction and seeded label corruption."""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from noisylab.data import LabeledDataset
from noisylab.noise import ROW_SUM_TOL, NoiseKind, NoiseSpec, build_transition, corrupt_labels

ROW_TOL = 1e-12


def block_dataset(n_per_class, k):
    """Minimal dataset with n_per_class samples of each class in order."""
    labels = np.repeat(np.arange(k, dtype=np.int64), n_per_class)
    features = np.zeros((labels.size, 1))
    return LabeledDataset(features, labels, labels.copy(), k)


def empirical_transition(dataset, corrupted):
    k = dataset.k
    counts = np.zeros((k, k))
    for i in range(k):
        row = corrupted.observed_labels[dataset.true_labels == i]
        counts[i] = np.bincount(row, minlength=k) / row.size
    return counts


class TestBuildTransition:
    def test_pair_zero_noise_is_identity(self):
        matrix = build_transition(NoiseSpec("pair", 0.0), 10)
        assert np.array_equal(matrix, np.eye(10))

    def test_pair_structure(self):
        matrix = build_transition(NoiseSpec("pair", 0.4), 5)
        for i in range(5):
            assert matrix[i, i] == 0.6
            assert matrix[i, (i + 1) % 5] == 0.4
        assert np.count_nonzero(matrix) == 10

    def test_pair_wraps_last_class(self):
        matrix = build_transition(NoiseSpec("pair", 0.3), 4)
        assert matrix[3, 0] == 0.3

    def test_symmetry_structure(self):
        matrix = build_transition(NoiseSpec("symmetry", 0.4), 5)
        assert np.all(np.diag(matrix) == 0.6)
        off = matrix[~np.eye(5, dtype=bool)]
        assert np.all(off == 0.1)

    def test_mixed_dominant_row(self):
        # epsilon1 to the next class, the rest split over the other eight
        matrix = build_transition(NoiseSpec("mixed", epsilon1=0.24, epsilon2=0.16), 10)
        assert matrix[4, 4] == 0.6
        assert matrix[4, 5] == 0.24
        others = [matrix[4, j] for j in range(10) if j not in (4, 5)]
        assert all(v == 0.02 for v in others)

    def test_rows_sum_to_one_and_diagonal(self):
        specs = [
            NoiseSpec("pair", 0.2),
            NoiseSpec("pair", 0.45),
            NoiseSpec("symmetry", 0.2),
            NoiseSpec("symmetry", 0.6),
            NoiseSpec("mixed", epsilon1=0.3, epsilon2=0.1),
        ]
        for spec in specs:
            for k in (3, 4, 10, 33):
                matrix = build_transition(spec, k)
                assert np.all(np.abs(matrix.sum(axis=1) - 1.0) <= ROW_TOL)
                assert np.allclose(np.diag(matrix), 1.0 - spec.epsilon)
                assert np.all(matrix >= 0.0)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            build_transition(NoiseSpec("pair", 0.1), 1)

    def test_mixed_rejects_two_classes(self):
        with pytest.raises(ValueError):
            build_transition(NoiseSpec("mixed", epsilon1=0.1, epsilon2=0.1), 2)

    def test_symmetry_above_tested_range_warns(self):
        spec = NoiseSpec("symmetry", 0.7)
        assert spec.exceeds_tested_range
        assert not NoiseSpec("symmetry", 0.6).exceeds_tested_range


class TestNoiseSpec:
    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            NoiseSpec("pair", 1.0)
        with pytest.raises(ValueError):
            NoiseSpec("symmetry", -0.1)
        with pytest.raises(ValueError):
            NoiseSpec("mixed", epsilon1=0.9, epsilon2=0.2)
        # each part is a rate, even where the sum is one
        for parts in ((-0.1, 0.3), (0.3, -0.1)):
            with pytest.raises(ValueError, match="must be non-negative"):
                NoiseSpec("mixed", epsilon1=parts[0], epsilon2=parts[1])

    def test_mixed_requires_both_parts(self):
        with pytest.raises(ValueError):
            NoiseSpec("mixed", 0.4)
        with pytest.raises(ValueError):
            NoiseSpec("mixed", epsilon1=0.4)

    def test_mixed_epsilon_autofilled(self):
        spec = NoiseSpec("mixed", epsilon1=0.24, epsilon2=0.16)
        assert spec.epsilon == pytest.approx(0.4)

    def test_mixed_epsilon_is_the_parts_sum_even_when_given(self):
        spec = NoiseSpec("mixed", epsilon=0.400000000001, epsilon1=0.3, epsilon2=0.1)
        assert spec.epsilon == 0.3 + 0.1

    def test_mixed_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec("mixed", epsilon=0.5, epsilon1=0.24, epsilon2=0.16)

    def test_parts_only_for_mixed(self):
        with pytest.raises(ValueError):
            NoiseSpec("pair", 0.2, epsilon1=0.1)

    def test_kind_coerces_from_string(self):
        assert NoiseSpec("pair", 0.1).kind is NoiseKind.PAIR


class TestCorruptLabels:
    def test_identity_matrix_keeps_labels(self):
        dataset = block_dataset(50, 4)
        matrix = build_transition(NoiseSpec("pair", 0.0), 4)
        out = corrupt_labels(dataset, matrix, seed=3)
        assert np.array_equal(out.observed_labels, dataset.true_labels)
        assert out.clean_mask.all()

    def test_true_labels_untouched(self):
        dataset = block_dataset(200, 5)
        matrix = build_transition(NoiseSpec("pair", 0.4), 5)
        out = corrupt_labels(dataset, matrix, seed=3)
        assert np.array_equal(out.true_labels, dataset.true_labels)
        assert out.features is dataset.features

    def test_input_dataset_unchanged(self):
        dataset = block_dataset(200, 5)
        matrix = build_transition(NoiseSpec("pair", 0.4), 5)
        out = corrupt_labels(dataset, matrix, seed=3)
        assert not np.array_equal(out.observed_labels, dataset.observed_labels)
        assert np.array_equal(dataset.observed_labels, dataset.true_labels)

    def test_deterministic_and_seed_sensitive(self):
        dataset = block_dataset(300, 4)
        matrix = build_transition(NoiseSpec("symmetry", 0.4), 4)
        a = corrupt_labels(dataset, matrix, seed=11)
        b = corrupt_labels(dataset, matrix, seed=11)
        c = corrupt_labels(dataset, matrix, seed=12)
        assert np.array_equal(a.observed_labels, b.observed_labels)
        assert not np.array_equal(a.observed_labels, c.observed_labels)

    def test_pair_flips_only_to_next_class(self):
        dataset = block_dataset(500, 6)
        matrix = build_transition(NoiseSpec("pair", 0.4), 6)
        out = corrupt_labels(dataset, matrix, seed=5)
        moved = out.observed_labels != out.true_labels
        assert np.array_equal(
            out.observed_labels[moved], (out.true_labels[moved] + 1) % 6
        )

    def test_empirical_rates_match_matrix(self):
        # 3-sigma binomial bounds per transition entry at 1,000 draws per row
        dataset = block_dataset(1000, 5)
        for spec in (
            NoiseSpec("pair", 0.4),
            NoiseSpec("symmetry", 0.4),
            NoiseSpec("mixed", epsilon1=0.3, epsilon2=0.1),
        ):
            matrix = build_transition(spec, 5)
            out = corrupt_labels(dataset, matrix, seed=29)
            empirical = empirical_transition(dataset, out)
            for i in range(5):
                for j in range(5):
                    p = matrix[i, j]
                    bound = 3.0 * np.sqrt(p * (1.0 - p) / 1000)
                    assert abs(empirical[i, j] - p) <= bound, (spec.kind, i, j)

    def test_large_sample_convergence(self):
        # with 100,000 draws per class every empirical row is within 0.01
        dataset = block_dataset(100_000, 5)
        matrix = build_transition(NoiseSpec("mixed", epsilon1=0.24, epsilon2=0.16), 5)
        out = corrupt_labels(dataset, matrix, seed=1)
        empirical = empirical_transition(dataset, out)
        assert np.abs(empirical - matrix).max() < 0.01

    def test_rejects_bad_matrix(self):
        dataset = block_dataset(10, 3)
        with pytest.raises(ValueError):
            corrupt_labels(dataset, np.ones((3, 3)), seed=0)
        with pytest.raises(ValueError):
            corrupt_labels(dataset, np.eye(4), seed=0)


class TestCorruptLabelsProperty:
    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_row_frequencies_within_six_sigma(self, data):
        kind = data.draw(st.sampled_from(["pair", "symmetry", "mixed"]))
        k = data.draw(st.integers(3 if kind == "mixed" else 2, 12))
        if kind == "mixed":
            spec = NoiseSpec(
                kind,
                epsilon1=data.draw(st.floats(0.0, 0.6)),
                epsilon2=data.draw(st.floats(0.0, 0.35)),
            )
        else:
            spec = NoiseSpec(kind, data.draw(st.floats(0.0, 0.95)))
        n = 2000
        dataset = block_dataset(n, k)
        matrix = build_transition(spec, k)
        out = corrupt_labels(dataset, matrix, seed=data.draw(st.integers(0, 2**32 - 1)))
        # Bernstein's inequality at six sigma's Gaussian exponent, 18, so about 3e-8 per entry. The count's deviation
        # stays within 6 + 6 sqrt(1 + v) for variance v: near 6 sigma for large n p, but also where n p is tiny and a
        # single flip in n is already past six sigma (symmetry 6.1e-05 at k = 6 puts 1.2e-05 on each other class).
        # An entry of exactly 0 or 1 has no variance, so its count is pinned exactly.
        variance = n * matrix * (1.0 - matrix)
        bound = np.where(variance > 0, (6.0 + 6.0 * np.sqrt(1.0 + variance)) / n, 0.0)
        assert np.all(np.abs(empirical_transition(dataset, out) - matrix) <= bound)


class TestBuildTransitionProperty:
    @settings(deadline=None, max_examples=300)
    @given(data=st.data())
    def test_every_accepted_spec_builds_a_matrix_that_corrupt_labels_accepts(self, data):
        kind = data.draw(st.sampled_from(["pair", "symmetry", "mixed"]))
        if kind == "mixed":
            parts = data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(0.0, 1.0))
            # a given epsilon may sit anywhere within the tolerance of the parts' sum, its edges included
            offset = st.sampled_from([-ROW_SUM_TOL, ROW_SUM_TOL]) | st.floats(-ROW_SUM_TOL, ROW_SUM_TOL)
            epsilon = st.none() | offset.map(lambda d: parts[0] + parts[1] + d)
            rates = {"epsilon": data.draw(epsilon), "epsilon1": parts[0], "epsilon2": parts[1]}
        else:
            rates = {"epsilon": data.draw(st.floats(0.0, 1.0))}
        try:
            spec = NoiseSpec(kind, **rates)
        except ValueError:
            reject()
        k = data.draw(st.integers(3, 12))
        dataset = block_dataset(1, k)
        corrupted = corrupt_labels(dataset, build_transition(spec, k), seed=0)
        assert corrupted.observed_labels.shape == dataset.true_labels.shape
