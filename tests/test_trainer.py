"""The training loop: selection mechanics, penalty refresh, reproducibility."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisylab.criteria import (
    ConfidenceAccumulator,
    PenaltyLabelSet,
    estimate_penalty_labels,
)
from noisylab.data import epoch_batches, make_blobs
from noisylab.losses import ce_grad_logits
from noisylab.network import Mlp
from noisylab.noise import NoiseSpec, build_transition, corrupt_labels
from noisylab.seeding import NOISE_STREAM, SHUFFLE_STREAM
from noisylab.trainer import (
    CriteriaConfig,
    LossKind,
    PenaltyUpdate,
    TrainConfig,
    Variant,
    batch_scores,
    init_state,
    predict_in_chunks,
    resolve_select_fraction,
    run_experiment,
    select_top_r,
    train_epoch,
)


def small_config(**kwargs):
    defaults = dict(
        epochs=4,
        warmup_epochs=2,
        batch_size=32,
        hidden=(8,),
        lr_milestones=(),
        seed=3,
    )
    defaults.update(kwargs)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def tiny_blobs():
    train = make_blobs(30, 3, 2, 0.55, 0.11, seed=(4, 0))
    test = make_blobs(10, 3, 2, 0.55, 0.11, seed=(4, 1))
    return train, test


class TestSelectTopR:
    def test_keeps_top_share(self):
        scores = np.array([0.1, 0.9, 0.5, 0.7])
        outcome = select_top_r(scores, 50.0)
        assert outcome.selected_indices.tolist() == [1, 3]

    def test_fractional_count_rounds_up(self):
        # R = 200/3 of 3 scores: ceil(2.0) keeps two
        outcome = select_top_r(np.array([0.9, 0.2, 0.8]), 200.0 / 3.0)
        assert outcome.selected_indices.tolist() == [0, 2]

    def test_never_fewer_than_one(self):
        outcome = select_top_r(np.array([0.4, 0.6]), 1.0)
        assert outcome.selected_indices.tolist() == [1]

    def test_full_fraction_keeps_everything(self):
        outcome = select_top_r(np.array([0.4, 0.6, 0.5]), 100.0)
        assert outcome.selected_indices.tolist() == [0, 1, 2]

    def test_ties_prefer_lower_index(self):
        outcome = select_top_r(np.array([0.5, 0.5, 0.5, 0.5]), 50.0)
        assert outcome.selected_indices.tolist() == [0, 1]

    def test_matches_python_sort_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            scores = rng.choice([0.0, 0.1, 0.5, 0.9], size=n)
            r = float(rng.uniform(1.0, 100.0))
            count = min(n, max(1, math.ceil(n * r / 100.0)))
            expected = sorted(sorted(range(n), key=lambda i: (-scores[i], i))[:count])
            assert select_top_r(scores, r).selected_indices.tolist() == expected

    @settings(deadline=None)
    @given(
        st.lists(
            st.sampled_from([-0.0, 0.0, 0.5, 1.0]) | st.floats(-10.0, 10.0), min_size=1, max_size=40
        ),
        st.floats(0.0, 100.0, exclude_min=True),
    )
    def test_every_share_matches_the_stable_sort_oracle(self, values, drawn_r):
        # few distinct values force ties; the whole percentages reach every count 1..n
        n = len(values)
        ranked = sorted(range(n), key=lambda i: (-values[i], i))
        for r in (drawn_r, *range(1, 101)):
            count = min(n, max(1, math.ceil(n * r / 100.0)))
            kept = select_top_r(np.array(values), r).selected_indices
            assert kept.tolist() == sorted(ranked[:count])

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            select_top_r(np.array([]), 50.0)
        with pytest.raises(ValueError):
            select_top_r(np.array([0.5]), 0.0)
        with pytest.raises(ValueError):
            select_top_r(np.array([0.5]), 101.0)


class TestBatchScores:
    probs = np.array([[0.5, 0.3, 0.2]])
    labels = np.eye(3)[[0]]
    penalty = np.array([[0.0, 0.9, 0.1]])

    def test_ol(self):
        assert batch_scores(Variant.OL, self.probs, self.labels, self.penalty, 1.0)[
            0
        ] == pytest.approx(0.5)

    def test_pl_prefers_low_alignment(self):
        # sign flip: the low-alignment sample must score higher
        score = batch_scores(Variant.PL, self.probs, self.labels, self.penalty, 1.0)
        assert score[0] == pytest.approx(-0.29)

    def test_all(self):
        assert batch_scores(Variant.ALL, self.probs, self.labels, self.penalty, 1.0)[
            0
        ] == pytest.approx(0.21)

    def test_none_refuses(self):
        with pytest.raises(ValueError):
            batch_scores(Variant.NONE, self.probs, self.labels, self.penalty, 1.0)


class TestTrainConfig:
    def test_string_coercion(self):
        cfg = TrainConfig(
            criteria=CriteriaConfig(variant="ol"), penalty_update="repredict", loss="sl"
        )
        assert cfg.criteria.variant is Variant.OL
        assert cfg.penalty_update is PenaltyUpdate.REPREDICT
        assert cfg.loss is LossKind.SL

    def test_warmup_may_equal_epochs(self):
        cfg = TrainConfig(epochs=10, warmup_epochs=10)
        assert cfg.warmup_epochs == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=5, warmup_epochs=6)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(select_fraction=0.0)
        with pytest.raises(ValueError):
            TrainConfig(hidden=(64, 0))
        with pytest.raises(ValueError):
            CriteriaConfig(lam=-0.5)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_lambda_must_be_finite(self, lam):
        # a NaN or infinite weight turns every combined score into garbage
        with pytest.raises(ValueError, match="lambda must be finite and non-negative"):
            CriteriaConfig(lam=lam)

    def test_resolve_select_fraction(self):
        spec = NoiseSpec("pair", 0.4)
        assert resolve_select_fraction(TrainConfig(), spec) == pytest.approx(60.0)
        assert resolve_select_fraction(TrainConfig(select_fraction=75.0), spec) == 75.0


class TestInitState:
    def test_network_layout_and_placeholder_penalty(self):
        state = init_state(TrainConfig(hidden=(64, 64)), d=12, k=7)
        assert state.net.layer_sizes == (12, 64, 64, 7)
        assert state.penalty.epoch_of_estimate == -1
        assert state.penalty.fallback_mask.all()
        state.penalty.validate()

    def test_seed_controls_weights(self):
        a = init_state(TrainConfig(seed=1), d=4, k=3)
        b = init_state(TrainConfig(seed=1), d=4, k=3)
        c = init_state(TrainConfig(seed=2), d=4, k=3)
        assert all(np.array_equal(x, y) for x, y in zip(a.net.weights, b.net.weights))
        assert not all(np.array_equal(x, y) for x, y in zip(a.net.weights, c.net.weights))


class TestTrainEpoch:
    def test_warmup_trains_everything(self, tiny_blobs):
        train, _ = tiny_blobs
        cfg = small_config(criteria=CriteriaConfig(variant=Variant.ALL), select_fraction=60.0)
        state = init_state(cfg, train.d, train.k)
        stats = train_epoch(state, train, cfg, epoch=0)
        assert stats.train_selected == train.n
        assert stats.precision is None
        assert stats.selected_per_class == (30, 30, 30)

    def test_penalty_stamped_with_epoch(self, tiny_blobs):
        train, _ = tiny_blobs
        cfg = small_config(criteria=CriteriaConfig(variant=Variant.NONE))
        state = init_state(cfg, train.d, train.k)
        for epoch in range(3):
            train_epoch(state, train, cfg, epoch)
            assert state.penalty.epoch_of_estimate == epoch
            state.penalty.validate()

    def test_selection_reduces_count(self, tiny_blobs):
        train, _ = tiny_blobs
        cfg = small_config(criteria=CriteriaConfig(variant=Variant.OL), select_fraction=60.0)
        state = init_state(cfg, train.d, train.k)
        train_epoch(state, train, cfg, epoch=0)
        train_epoch(state, train, cfg, epoch=1)
        stats = train_epoch(state, train, cfg, epoch=2)
        # ceil(30 * 0.6) per full batch of 32? batches are 32, 32, 26 at n=90
        assert stats.train_selected < train.n
        assert stats.train_selected == sum(
            math.ceil(len(b) * 0.6)
            for b in epoch_batches(train, cfg.batch_size, (cfg.seed, SHUFFLE_STREAM), 2)
        )
        assert stats.precision == 1.0  # labels were never corrupted here
        assert sum(stats.selected_per_class) == stats.train_selected

    def test_selecting_epoch_runs_one_forward_per_batch(self, tiny_blobs, monkeypatch):
        train, _ = tiny_blobs
        cfg = small_config(
            criteria=CriteriaConfig(variant=Variant.ALL),
            penalty_update=PenaltyUpdate.STACKED,
            select_fraction=60.0,
            warmup_epochs=0,
        )
        state = init_state(cfg, train.d, train.k)
        calls = []
        real_forward = Mlp._forward

        def counting_forward(net, x):
            calls.append(x.shape[0])
            return real_forward(net, x)

        monkeypatch.setattr(Mlp, "_forward", counting_forward)
        stats = train_epoch(state, train, cfg, epoch=0)
        batches = epoch_batches(train, cfg.batch_size, (cfg.seed, SHUFFLE_STREAM), 0)
        assert calls == [b.size for b in batches]
        assert stats.train_selected < train.n

    @pytest.mark.parametrize("update", list(PenaltyUpdate))
    def test_epoch_folds_its_confidences_once(self, tiny_blobs, monkeypatch, update):
        train, _ = tiny_blobs
        cfg = small_config(
            criteria=CriteriaConfig(variant=Variant.ALL),
            penalty_update=update,
            select_fraction=60.0,
            warmup_epochs=0,
        )
        state = init_state(cfg, train.d, train.k)
        stacks, folds = [], []
        real_stack, real_fold = ConfidenceAccumulator.stack_confidences, ConfidenceAccumulator._fold

        def counting_stack(acc, confidences, observed_labels):
            stacks.append(len(observed_labels))
            return real_stack(acc, confidences, observed_labels)

        def counting_fold(acc):
            folds.append(1)
            return real_fold(acc)

        monkeypatch.setattr(ConfidenceAccumulator, "stack_confidences", counting_stack)
        monkeypatch.setattr(ConfidenceAccumulator, "_fold", counting_fold)
        train_epoch(state, train, cfg, epoch=0)
        if update is PenaltyUpdate.STACKED:
            batches = epoch_batches(train, cfg.batch_size, (cfg.seed, SHUFFLE_STREAM), 0)
            assert stacks == [b.size for b in batches]
        else:
            assert stacks == [train.n]
        assert folds == [1]

    def test_stale_penalty_refused(self, tiny_blobs):
        train, _ = tiny_blobs
        cfg = small_config(
            criteria=CriteriaConfig(variant=Variant.ALL), select_fraction=60.0, warmup_epochs=0
        )
        state = init_state(cfg, train.d, train.k)
        with pytest.raises(RuntimeError):
            train_epoch(state, train, cfg, epoch=5)

    def test_unresolved_fraction_refused(self, tiny_blobs):
        train, _ = tiny_blobs
        cfg = small_config(criteria=CriteriaConfig(variant=Variant.OL), warmup_epochs=0)
        state = init_state(cfg, train.d, train.k)
        with pytest.raises(ValueError):
            train_epoch(state, train, cfg, epoch=0)

    def test_matches_manual_sgd_loop(self, tiny_blobs):
        # independent replay of the full-batch path, bit for bit
        train, _ = tiny_blobs
        cfg = small_config(criteria=CriteriaConfig(variant=Variant.NONE))
        state = init_state(cfg, train.d, train.k)
        shadow = init_state(cfg, train.d, train.k)
        onehot = np.eye(train.k)[train.observed_labels]
        for epoch in range(3):
            train_epoch(state, train, cfg, epoch)
            for batch in epoch_batches(train, cfg.batch_size, (cfg.seed, SHUFFLE_STREAM), epoch):
                grads = shadow.net.backward(train.features[batch], onehot[batch], ce_grad_logits)
                shadow.opt.step(shadow.net, grads, epoch)
        assert all(np.array_equal(a, b) for a, b in zip(state.net.weights, shadow.net.weights))
        assert all(np.array_equal(a, b) for a, b in zip(state.net.biases, shadow.net.biases))

    def test_stacked_estimate_uses_preupdate_confidences(self, tiny_blobs):
        train, _ = tiny_blobs
        cfg = small_config(criteria=CriteriaConfig(variant=Variant.NONE))
        state = init_state(cfg, train.d, train.k)
        shadow = init_state(cfg, train.d, train.k)
        acc = ConfidenceAccumulator(train.k)
        onehot = np.eye(train.k)[train.observed_labels]
        for batch in epoch_batches(train, cfg.batch_size, (cfg.seed, SHUFFLE_STREAM), 0):
            acc.stack_confidences(
                shadow.net.confidences(train.features[batch]), train.observed_labels[batch]
            )
            grads = shadow.net.backward(train.features[batch], onehot[batch], ce_grad_logits)
            shadow.opt.step(shadow.net, grads, 0)
        expected = estimate_penalty_labels(acc, 0)
        train_epoch(state, train, cfg, epoch=0)
        assert np.array_equal(state.penalty.labels, expected.labels)

    def test_stacked_estimate_uses_only_its_own_epoch(self, tiny_blobs):
        # each epoch's estimate comes from that epoch's confidences alone
        train, _ = tiny_blobs
        cfg = small_config(criteria=CriteriaConfig(variant=Variant.NONE))
        state = init_state(cfg, train.d, train.k)
        shadow = init_state(cfg, train.d, train.k)
        onehot = np.eye(train.k)[train.observed_labels]
        for epoch in range(3):
            acc = ConfidenceAccumulator(train.k)
            for batch in epoch_batches(train, cfg.batch_size, (cfg.seed, SHUFFLE_STREAM), epoch):
                acc.stack_confidences(
                    shadow.net.confidences(train.features[batch]), train.observed_labels[batch]
                )
                grads = shadow.net.backward(train.features[batch], onehot[batch], ce_grad_logits)
                shadow.opt.step(shadow.net, grads, epoch)
            train_epoch(state, train, cfg, epoch)
            if epoch > 0:
                expected = estimate_penalty_labels(acc, epoch)
                assert np.array_equal(state.penalty.labels, expected.labels)

    def test_repredict_estimate_uses_postupdate_model(self, tiny_blobs):
        train, _ = tiny_blobs
        cfg = small_config(
            criteria=CriteriaConfig(variant=Variant.NONE), penalty_update=PenaltyUpdate.REPREDICT
        )
        state = init_state(cfg, train.d, train.k)
        train_epoch(state, train, cfg, epoch=0)
        fresh = ConfidenceAccumulator(train.k)
        fresh.stack_confidences(
            predict_in_chunks(state.net, train.features), train.observed_labels
        )
        expected = estimate_penalty_labels(fresh, 0)
        assert np.array_equal(state.penalty.labels, expected.labels)
        assert state.penalty.epoch_of_estimate == 0


class TestPredictInChunks:
    def test_matches_single_pass(self):
        net = Mlp((3, 8, 4), seed=0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5000, 3))
        chunked = predict_in_chunks(net, x)
        assert chunked.shape == (5000, 4)
        assert np.allclose(chunked, net.confidences(x), atol=1e-12)


class TestRunExperiment:
    def test_record_layout_and_reproducibility(self, tiny_blobs):
        train, test = tiny_blobs
        cfg = small_config(criteria=CriteriaConfig(variant=Variant.ALL))
        spec = NoiseSpec("pair", 0.4)
        a = run_experiment(cfg, train, test, spec)
        b = run_experiment(cfg, train, test, spec)
        assert [r.epoch for r in a.records] == [0, 1, 2, 3]
        assert [r.test_error for r in a.records] == [r.test_error for r in b.records]
        assert [p.epoch_of_estimate for p in a.penalty_history] == [0, 1, 2, 3]
        assert a.records[0].precision is None
        assert a.records[3].precision is not None
        assert a.records[3].variant == "all"
        assert a.best_test_error == min(r.test_error for r in a.records)
        assert a.final is a.records[-1]

    def test_corruption_shared_across_variants(self, tiny_blobs):
        # same seed, different variant: warm-up epochs are bit-identical
        train, test = tiny_blobs
        spec = NoiseSpec("pair", 0.4)
        ol = run_experiment(small_config(criteria=CriteriaConfig(variant=Variant.OL)), train, test, spec)
        combined = run_experiment(small_config(criteria=CriteriaConfig(variant=Variant.ALL)), train, test, spec)
        for i in range(2):
            assert ol.records[i].test_error == combined.records[i].test_error

    def test_corruption_keyed_by_run_seed(self, tiny_blobs):
        train, _ = tiny_blobs
        matrix = build_transition(NoiseSpec("pair", 0.4), train.k)
        once = corrupt_labels(train, matrix, (3, NOISE_STREAM))
        again = corrupt_labels(train, matrix, (3, NOISE_STREAM))
        other = corrupt_labels(train, matrix, (4, NOISE_STREAM))
        assert np.array_equal(once.observed_labels, again.observed_labels)
        assert not np.array_equal(once.observed_labels, other.observed_labels)

    def test_select_all_equals_no_selection(self, tiny_blobs):
        # clean labels and R = 100: selection keeps every sample, so the
        # run must match a plain one bit for bit
        train, test = tiny_blobs
        spec = NoiseSpec("pair", 0.0)
        plain = run_experiment(
            small_config(criteria=CriteriaConfig(variant=Variant.NONE)), train, test, spec
        )
        select_all = run_experiment(
            small_config(criteria=CriteriaConfig(variant=Variant.OL), select_fraction=100.0),
            train,
            test,
            spec,
        )
        assert [r.test_error for r in plain.records] == [r.test_error for r in select_all.records]
        assert select_all.records[-1].precision == 1.0

    def test_lambda_zero_reduces_to_ol(self, tiny_blobs):
        train, test = tiny_blobs
        spec = NoiseSpec("pair", 0.4)
        ol = run_experiment(small_config(criteria=CriteriaConfig(variant=Variant.OL)), train, test, spec)
        lam0 = run_experiment(
            small_config(criteria=CriteriaConfig(variant=Variant.ALL, lam=0.0)), train, test, spec
        )
        for a, b in zip(ol.records, lam0.records):
            assert a.test_error == b.test_error
            assert a.precision == b.precision
            assert a.selected_per_class == b.selected_per_class

    def test_warmup_equal_epochs_erases_variant(self, tiny_blobs):
        train, test = tiny_blobs
        spec = NoiseSpec("pair", 0.4)
        outputs = []
        for variant in (Variant.NONE, Variant.OL, Variant.PL, Variant.ALL):
            cfg = small_config(warmup_epochs=4, criteria=CriteriaConfig(variant=variant))
            outputs.append(run_experiment(cfg, train, test, spec))
        baseline = [r.test_error for r in outputs[0].records]
        for result in outputs[1:]:
            assert [r.test_error for r in result.records] == baseline

    @pytest.mark.parametrize("k, d", [(4, 2), (3, 3)])
    def test_test_set_must_match_train_classes_and_width(self, tiny_blobs, k, d):
        # the head is sized from the train set, so a test set with an extra
        # class would score every sample of that class as wrong
        train, _ = tiny_blobs
        test = make_blobs(10, k, d, 0.55, 0.11, seed=(4, 1))
        message = f"test set (k, d) = {(k, d)} must equal the train set's (3, 2)"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(small_config(), train, test, NoiseSpec("pair", 0.4))

    def test_ideal_symmetric_penalty_selects_like_ol(self, tiny_blobs):
        # with the uniform penalty fixed in place, combined-score selection
        # must keep exactly the observed-score selection in every batch
        train, _ = tiny_blobs
        rng = np.random.default_rng(5)
        for _ in range(20):
            probs = rng.dirichlet(np.ones(train.k), size=16)
            labels = rng.integers(0, train.k, size=16)
            onehot = np.eye(train.k)[labels]
            penalty_rows = PenaltyLabelSet.ideal_symmetric(train.k).labels[labels]
            ol = batch_scores(Variant.OL, probs, onehot, penalty_rows, 1.0)
            combined = batch_scores(Variant.ALL, probs, onehot, penalty_rows, 1.0)
            keep_ol = select_top_r(ol, 60.0).selected_indices
            keep_all = select_top_r(combined, 60.0).selected_indices
            assert np.array_equal(keep_ol, keep_all)


class TestDeskScaleBehavior:
    def test_clean_run_reaches_low_error(self, desk_data):
        # the default geometry must let a plain run essentially solve the task
        train, test = desk_data
        cfg = TrainConfig(criteria=CriteriaConfig(variant=Variant.NONE), seed=1)
        result = run_experiment(cfg, train, test, NoiseSpec("pair", 0.0))
        assert result.best_test_error < 0.05

    def test_observed_score_selection_beats_no_selection_when_memorizing(self):
        # high-dimensional blobs: a plain run has capacity to fit the noise,
        # selection filters it out, so OL wins or ties on every seed
        train = make_blobs(500, 10, 100, 0.5, 0.1, seed=(7, 0))
        test = make_blobs(100, 10, 100, 0.5, 0.1, seed=(7, 1))
        spec = NoiseSpec("pair", 0.4)
        for seed in (1, 2, 3):
            plain = run_experiment(
                TrainConfig(criteria=CriteriaConfig(variant=Variant.NONE), seed=seed),
                train,
                test,
                spec,
            )
            ol = run_experiment(
                TrainConfig(criteria=CriteriaConfig(variant=Variant.OL), seed=seed),
                train,
                test,
                spec,
            )
            assert ol.best_test_error <= plain.best_test_error
