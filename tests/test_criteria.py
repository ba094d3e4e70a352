"""Selection scores, penalty label estimation, and the affine-equivalence check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisylab.criteria import (
    MASS_TOL,
    ConfidenceAccumulator,
    PenaltyLabelSet,
    criteria_all,
    criteria_ol,
    criteria_pl,
    descending_order,
    estimate_penalty_labels,
    ideal_penalty_affine_check,
)


def onehot(labels, k):
    return np.eye(k)[np.asarray(labels)]


class TestScores:
    def test_hand_worked_example(self):
        # p = [.5, .3, .2], observed class 0, penalty row [0, .9, .1]
        probs = np.array([[0.5, 0.3, 0.2]])
        labels = onehot([0], 3)
        penalty = np.array([[0.0, 0.9, 0.1]])
        assert criteria_ol(probs, labels)[0] == pytest.approx(0.5)
        assert criteria_pl(probs, penalty)[0] == pytest.approx(0.29)
        assert criteria_all(probs, labels, penalty, 1.0)[0] == pytest.approx(0.21)

    def test_lambda_scales_penalty_term(self):
        probs = np.array([[0.5, 0.3, 0.2]])
        labels = onehot([0], 3)
        penalty = np.array([[0.0, 0.9, 0.1]])
        assert criteria_all(probs, labels, penalty, 2.0)[0] == pytest.approx(0.5 - 0.58)

    def test_lambda_zero_is_bitwise_ol(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(5), size=40)
        labels = onehot(rng.integers(0, 5, size=40), 5)
        penalty = rng.dirichlet(np.ones(4), size=40)
        penalty = np.insert(penalty, 0, 0.0, axis=1)[:, :5]
        combined = criteria_all(probs, labels, penalty, 0.0)
        assert np.array_equal(combined, criteria_ol(probs, labels))

    def test_combined_can_go_negative(self):
        probs = np.array([[0.1, 0.9]])
        assert criteria_all(probs, onehot([0], 2), np.array([[0.0, 1.0]]), 1.0)[0] < 0.0

    def test_batch_shapes(self):
        probs = np.full((6, 4), 0.25)
        scores = criteria_ol(probs, onehot([0, 1, 2, 3, 0, 1], 4))
        assert scores.shape == (6,)
        assert np.allclose(scores, 0.25)


class TestConfidenceAccumulator:
    def test_means_across_batches(self):
        acc = ConfidenceAccumulator(3)
        acc.stack_confidences(np.array([[0.8, 0.1, 0.1]]), np.array([0]))
        acc.stack_confidences(np.array([[0.4, 0.5, 0.1]]), np.array([0]))
        means = acc.class_means()
        assert np.allclose(means[0], [0.6, 0.3, 0.1])
        assert np.allclose(means[1], 0.0)
        assert acc.counts.tolist() == [2, 0, 0]

    def test_repeated_label_in_one_batch(self):
        # the fold must accumulate duplicates rather than overwrite
        acc = ConfidenceAccumulator(2)
        probs = np.array([[0.9, 0.1], [0.7, 0.3], [0.2, 0.8]])
        acc.stack_confidences(probs, np.array([0, 0, 1]))
        assert np.allclose(acc.sums[0], [1.6, 0.4])
        assert acc.counts.tolist() == [2, 1]

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            ConfidenceAccumulator(1)

    @pytest.mark.parametrize(
        "confidences, labels",
        [
            (np.full((2, 1), 0.5), [0, 1]),  # one column, broadcast over k
            (np.full(3, 0.5), [0]),  # one (k,) vector, no batch axis
            (np.full((2, 4), 0.25), [0, 1]),  # k + 1 columns
            (np.full((2, 3), 0.5), [[0, 1]]),  # labels not 1-d
            (np.full((2, 3), 0.5), [0, 1, 2]),  # more labels than rows
            (np.full((2, 3), 0.5), [0, 3]),  # label k
            (np.full((2, 3), 0.5), [-1, 0]),  # negative label
        ],
    )
    def test_rejects_misshaped_batch(self, confidences, labels):
        acc = ConfidenceAccumulator(3)
        with pytest.raises(ValueError):
            acc.stack_confidences(confidences, np.array(labels))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_later_changes_to_a_stacked_batch_are_not_seen(self, dtype):
        acc = ConfidenceAccumulator(2)
        probs = np.array([[0.75, 0.25], [0.5, 0.5]], dtype=dtype)
        labels = np.array([0, 1])
        acc.stack_confidences(probs, labels)
        probs[:] = 9.0
        labels[:] = 0
        assert acc.sums.tolist() == [[0.75, 0.25], [0.5, 0.5]]
        assert acc.counts.tolist() == [1, 1]

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_fold_equals_sequential_add_at(self, data):
        # however the rows are split into stacks, the sums keep np.add.at's bits
        k = data.draw(st.integers(2, 120))
        seen = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
        n = data.draw(st.integers(0, 300))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        labels = rng.choice(seen, size=n)
        # magnitudes over many decades, so a different summation order shows in the bits
        confidences = rng.random((n, k)) * 10.0 ** rng.integers(-8, 9, size=(n, k))
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=6)))
        acc = ConfidenceAccumulator(k)
        expected = np.zeros((k, k))
        for rows in np.split(np.arange(n), cuts):
            acc.stack_confidences(confidences[rows], labels[rows])
            np.add.at(expected, labels[rows], confidences[rows])
        assert np.array_equal(acc.sums, expected)
        assert np.array_equal(acc.counts, np.bincount(labels, minlength=k))


class TestEstimatePenaltyLabels:
    def test_hand_worked_row(self):
        # mean [0.6, 0.2, 0.2] for class 0 -> off-class [0.5, 0.5]
        acc = ConfidenceAccumulator(3)
        acc.stack_confidences(np.array([[0.6, 0.2, 0.2]]), np.array([0]))
        acc.stack_confidences(np.array([[0.2, 0.5, 0.3], [0.1, 0.2, 0.7]]), np.array([1, 2]))
        estimate = estimate_penalty_labels(acc, epoch=4)
        assert np.allclose(estimate.labels[0], [0.0, 0.5, 0.5], atol=1e-12)
        assert estimate.epoch_of_estimate == 4
        assert not estimate.fallback_mask.any()

    def test_unseen_class_gets_uniform_fallback(self):
        acc = ConfidenceAccumulator(4)
        acc.stack_confidences(np.array([[0.7, 0.1, 0.1, 0.1]]), np.array([0]))
        estimate = estimate_penalty_labels(acc, epoch=0)
        assert np.array_equal(estimate.fallback_mask, [False, True, True, True])
        assert np.allclose(estimate.labels[1], [1 / 3, 0.0, 1 / 3, 1 / 3])

    def test_vanishing_off_mass_gets_fallback(self):
        # all confidence on the own class leaves nothing to renormalize
        acc = ConfidenceAccumulator(3)
        acc.stack_confidences(np.array([[1.0, 0.0, 0.0]]), np.array([0]))
        acc.stack_confidences(np.array([[0.1, 0.8, 0.1]]), np.array([1]))
        acc.stack_confidences(np.array([[0.1, 0.1, 0.8]]), np.array([2]))
        estimate = estimate_penalty_labels(acc, epoch=2)
        assert estimate.fallback_mask[0]
        assert np.allclose(estimate.labels[0], [0.0, 0.5, 0.5])
        assert not estimate.fallback_mask[1]

    def test_rows_always_valid(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            k = int(rng.integers(2, 12))
            acc = ConfidenceAccumulator(k)
            n = int(rng.integers(1, 50))
            acc.stack_confidences(
                rng.dirichlet(np.ones(k), size=n), rng.integers(0, k, size=n)
            )
            estimate = estimate_penalty_labels(acc, epoch=0)
            estimate.validate()
            assert np.allclose(estimate.labels.sum(axis=1), 1.0)
            assert np.all(np.diagonal(estimate.labels) == 0.0)

    @settings(deadline=None)
    @given(st.data())
    def test_random_accumulators_give_valid_rows_and_exact_fallbacks(self, data):
        k = data.draw(st.integers(2, 12))
        # entries near and below the mass tolerance, and one-hot rows, reach the fallback
        entry = st.sampled_from([0.0, 1e-300, 1e-13, 1e-12, 2e-12, 1.0]) | st.floats(0.0, 1.0)
        batch = st.tuples(st.integers(0, k - 1), st.lists(entry, min_size=k, max_size=k))
        acc = ConfidenceAccumulator(k)
        for label, confidences in data.draw(st.lists(batch, max_size=3 * k)):
            acc.stack_confidences(np.array([confidences]), np.array([label]))
        off = acc.class_means()
        np.fill_diagonal(off, 0.0)

        estimate = estimate_penalty_labels(acc, epoch=3)
        estimate.validate()
        fallback = estimate.fallback_mask
        assert np.array_equal(fallback, (acc.counts == 0) | (off.sum(axis=1) <= MASS_TOL))
        uniform = PenaltyLabelSet.ideal_symmetric(k).labels
        assert estimate.labels[fallback].tobytes() == uniform[fallback].tobytes()
        assert estimate.epoch_of_estimate == 3


class TestPenaltyLabelSet:
    def test_ideal_symmetric(self):
        ideal = PenaltyLabelSet.ideal_symmetric(5)
        assert np.allclose(ideal.labels.sum(axis=1), 1.0)
        assert np.all(np.diagonal(ideal.labels) == 0.0)
        assert np.allclose(ideal.labels[0, 1:], 0.25)
        ideal.validate()

    def test_validate_rejects_nonzero_diagonal(self):
        labels = np.full((3, 3), 1 / 3)
        with pytest.raises(ValueError):
            PenaltyLabelSet(labels, 0, np.zeros(3, dtype=bool)).validate()

    def test_validate_rejects_bad_row_sum(self):
        labels = np.array([[0.0, 0.4, 0.4], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        with pytest.raises(ValueError):
            PenaltyLabelSet(labels, 0, np.zeros(3, dtype=bool)).validate()

    def test_validate_rejects_negative_entries(self):
        labels = np.array([[0.0, 1.2, -0.2], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        with pytest.raises(ValueError):
            PenaltyLabelSet(labels, 0, np.zeros(3, dtype=bool)).validate()


class TestDescendingOrder:
    def test_plain_ordering(self):
        assert descending_order(np.array([0.1, 0.9, 0.5])).tolist() == [1, 2, 0]

    def test_ties_break_by_index(self):
        assert descending_order(np.array([0.5, 0.7, 0.5, 0.7])).tolist() == [1, 3, 0, 2]

    def test_matches_python_sort_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=30)
            expected = sorted(range(30), key=lambda i: (-scores[i], i))
            assert descending_order(scores).tolist() == expected


class TestIdealPenaltyEquivalence:
    def test_affine_identity_hand_example(self):
        # OL = 0.8, K = 3, lam = 1: combined must be 1.5 * 0.8 - 0.5 = 0.7
        probs = np.array([[0.8, 0.15, 0.05]])
        check = ideal_penalty_affine_check(probs, np.array([0]), lam=1.0, k=3)
        combined = criteria_all(
            probs, onehot([0], 3), PenaltyLabelSet.ideal_symmetric(3).labels[[0]], 1.0
        )
        assert combined[0] == pytest.approx(0.7)
        assert check.residual < 1e-12
        assert check.ordering_identical

    def test_random_batches_small(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            k = int(rng.integers(2, 8))
            n = int(rng.integers(1, 40))
            probs = rng.dirichlet(np.ones(k), size=n)
            labels = rng.integers(0, k, size=n)
            for lam in (0.5, 1.0, 2.0):
                check = ideal_penalty_affine_check(probs, labels, lam, k)
                assert check.residual < 1e-12
                assert check.ordering_identical
