"""The training loop: selection mechanics, penalty refresh, reproducibility."""

import math
import multiprocessing
import os
import re
import time
from collections import Counter
from contextlib import closing
from dataclasses import replace
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pin_trainers
from noisylab import trainer
from noisylab.cli import run_plan
from noisylab.criteria import (
    ConfidenceAccumulator,
    PenaltyLabelSet,
    estimate_penalty_labels,
)
from noisylab.data import DatasetConfig, epoch_batches, make_blobs
from noisylab.losses import ce_grad_logits
from noisylab.network import Mlp, NumericalFault
from noisylab.noise import NoiseSpec, build_transition, corrupt_labels
from noisylab.seeding import NOISE_STREAM, SHUFFLE_STREAM
from noisylab.trainer import (
    CriteriaConfig,
    EpochCache,
    LossKind,
    PenaltyUpdate,
    TrainConfig,
    Variant,
    batch_scores,
    deal,
    epoch_key,
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
    return make_blobs(DatasetConfig(n_per_class=30, test_per_class=10, classes=3, seed=4))


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
        real_stack, real_means = ConfidenceAccumulator.stack_confidences, ConfidenceAccumulator.class_means

        def counting_stack(acc, confidences, observed_labels):
            stacks.append(len(observed_labels))
            return real_stack(acc, confidences, observed_labels)

        def counting_means(acc):
            folds.append(1)
            return real_means(acc)

        monkeypatch.setattr(ConfidenceAccumulator, "stack_confidences", counting_stack)
        monkeypatch.setattr(ConfidenceAccumulator, "class_means", counting_means)
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

    def test_selection_reads_only_the_epoch_key(self, tiny_blobs, monkeypatch):
        # runs whose epoch keys are equal share that epoch, so selection must
        # score with the criteria the key keeps: ol and pl see lambda erased
        train, test = tiny_blobs
        plan = [small_config(criteria=CriteriaConfig(v, 2.0)) for v in (Variant.OL, Variant.PL, Variant.ALL)]
        seen = []  # per run, the (variant, lambda) pairs that scored its batches

        def recording_scores(variant, confidences, observed_onehot, penalty_rows, lam):
            seen[-1].add((variant, lam))
            return batch_scores(variant, confidences, observed_onehot, penalty_rows, lam)

        monkeypatch.setattr(trainer, "batch_scores", recording_scores)
        for cfg in plan:
            seen.append(set())
            run_experiment(cfg, train, test, NoiseSpec("pair", 0.4))
        keys = [{epoch_key(cfg, e)[0].criteria for e in range(cfg.warmup_epochs, cfg.epochs)} for cfg in plan]
        assert seen == [{(c.variant, c.lam) for c in criteria} for criteria in keys]
        assert [c.lam for (c,) in keys] == [1.0, 1.0, 2.0]

    @pytest.mark.parametrize("k, d", [(4, 2), (3, 3)])
    def test_test_set_must_match_train_classes_and_width(self, tiny_blobs, k, d):
        # the head is sized from the train set, so a test set with an extra
        # class would score every sample of that class as wrong
        train, _ = tiny_blobs
        _, test = make_blobs(DatasetConfig(n_per_class=1, test_per_class=10, classes=k, dim=d, seed=4))
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


def trained_alike(config, epoch):
    """What an epoch's training reads of the fields a plan varies.

    Before warm-up, and under none, every row trains; ol reads neither lambda
    nor the penalty labels, so their update strategy does not matter either.
    pl reads the penalty labels but not lambda; only all reads both.
    """
    variant = config.criteria.variant if epoch >= config.warmup_epochs else Variant.NONE
    reads_penalty = variant in (Variant.PL, Variant.ALL)
    return (
        config.seed,
        variant,
        config.criteria.lam if variant is Variant.ALL else None,
        config.penalty_update if reads_penalty else None,
        epoch,
    )


def same_history(a, b):
    return len(a) == len(b) and all(
        x.epoch_of_estimate == y.epoch_of_estimate
        and np.array_equal(x.labels, y.labels)
        and np.array_equal(x.fallback_mask, y.fallback_mask)
        for x, y in zip(a, b)
    )


class TestEpochCache:
    @settings(deadline=None, max_examples=25)
    @given(st.data())
    def test_every_run_equals_the_same_run_alone(self, tiny_blobs, data):
        train, test = tiny_blobs
        spec = NoiseSpec("pair", 0.4)
        epochs = data.draw(st.integers(1, 6), label="epochs")
        warmup = data.draw(st.integers(0, epochs), label="warmup_epochs")
        variants = data.draw(st.lists(st.sampled_from(Variant), min_size=1, max_size=4, unique=True))
        updates = data.draw(st.lists(st.sampled_from(PenaltyUpdate), min_size=1, max_size=2, unique=True))
        lams = data.draw(st.lists(st.sampled_from([0.0, 0.5, 2.0]), min_size=1, max_size=2, unique=True))
        seeds = data.draw(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=2, unique=True))
        plan = [
            small_config(
                epochs=epochs,
                warmup_epochs=warmup,
                criteria=CriteriaConfig(variant, lam),
                penalty_update=update,
                seed=seed,
            )
            for variant, update, lam, seed in product(variants, updates, lams, seeds)
        ]
        plan = data.draw(st.permutations(plan), label="run order")
        alone = [run_experiment(cfg, train, test, spec) for cfg in plan]

        cache = EpochCache(plan, train, test, spec)
        trained = []

        def counting_train_epoch(state, dataset, config, epoch, *args):
            trained.append(trained_alike(config, epoch))
            return train_epoch(state, dataset, config, epoch, *args)

        with mock.patch.object(trainer, "train_epoch", counting_train_epoch):
            cached = [run_experiment(cfg, train, test, spec, cache) for cfg in plan]
        for a, c in zip(alone, cached):
            assert c.records == a.records
            assert same_history(c.penalty_history, a.penalty_history)
        distinct = {trained_alike(cfg, e) for cfg in plan for e in range(epochs)}
        assert Counter(trained) == Counter(distinct)
        assert sum(c.replayed for c in cached) == len(plan) * epochs - len(distinct)
        assert cache.found == {}  # each epoch goes after its last run

    def test_nothing_is_kept_when_no_epoch_is_shared(self, tiny_blobs):
        train, test = tiny_blobs
        spec = NoiseSpec("pair", 0.4)
        plan = [small_config(seed=seed) for seed in (1, 2, 3)]
        cache = EpochCache(plan, train, test, spec)
        extra = []

        def recording_train_epoch(state, dataset, config, epoch, *args):
            extra.extend(args)
            return train_epoch(state, dataset, config, epoch, *args)

        with mock.patch.object(trainer, "train_epoch", recording_train_epoch):
            for cfg in plan:
                assert run_experiment(cfg, train, test, spec, cache).replayed == 0
                assert cache.found == {}
        assert extra == [()] * 12  # no estimate beyond each run's own

    def test_no_weights_are_kept_when_the_runs_share_every_epoch(self, tiny_blobs):
        # ol reads no penalty labels, so its repredict run replays the stacked run whole and never resumes
        train, test = tiny_blobs
        spec = NoiseSpec("pair", 0.4)
        ol = small_config(criteria=CriteriaConfig(Variant.OL))
        plan = [ol, replace(ol, penalty_update=PenaltyUpdate.REPREDICT)]
        cache = EpochCache(plan, train, test, spec)
        first = run_experiment(plan[0], train, test, spec, cache)
        assert len(cache.found) == ol.epochs
        assert [weights for *_, weights in cache.found.values()] == [None] * ol.epochs
        second = run_experiment(plan[1], train, test, spec, cache)
        assert second.replayed == ol.epochs
        assert all(b is a for a, b in zip(first.records, second.records, strict=True))  # the epoch's own record
        assert second.records == run_experiment(plan[1], train, test, spec).records

    @pytest.mark.parametrize("other", ["train", "test", "spec"])
    def test_refuses_a_cache_built_for_other_inputs(self, tiny_blobs, other):
        train, test = tiny_blobs
        inputs = {"train": train, "test": test, "spec": NoiseSpec("pair", 0.4)}
        cfg = small_config()
        cache = EpochCache([cfg, replace(cfg, penalty_update=PenaltyUpdate.REPREDICT)], *inputs.values())
        inputs[other] = replace(inputs[other])  # equal, but not the object the cache was built for
        with pytest.raises(ValueError, match="epoch cache was built for another"):
            run_experiment(cfg, *inputs.values(), cache)
        assert cache.found == {}

    def test_resuming_after_a_failed_run_is_refused(self, tiny_blobs):
        # the run that trained epochs 0-1 failed in epoch 2, so no weights
        # were kept where the next run would have to go on from
        train, test = tiny_blobs
        spec = NoiseSpec("pair", 0.4)
        ol = small_config(criteria=CriteriaConfig(Variant.OL))
        plan = [ol, replace(ol, penalty_update=PenaltyUpdate.REPREDICT)]
        cache = EpochCache(plan, train, test, spec)

        def failing_train_epoch(state, dataset, config, epoch, *args):
            if epoch == 2:
                raise NumericalFault("non-finite parameter after update")
            return train_epoch(state, dataset, config, epoch, *args)

        with mock.patch.object(trainer, "train_epoch", failing_train_epoch):
            with pytest.raises(NumericalFault):
                run_experiment(plan[0], train, test, spec, cache)
        with pytest.raises(RuntimeError, match="epoch 1 kept no weights"):
            run_experiment(plan[1], train, test, spec, cache)


def command_plan(variants, strategies, lams, seeds, **kwargs):
    """The runs of a command in its plan order: every combo over every seed."""
    return [
        small_config(criteria=CriteriaConfig(variant, lam), penalty_update=update, seed=seed, **kwargs)
        for variant, update, lam in product(variants, strategies, lams)
        for seed in seeds
    ]


K100_SHAPED = dict(variants=["ol", "all"], strategies=["stacked", "repredict"], lams=[1.0], seeds=[1])
PAIR40_SHAPED = dict(variants=["all"], strategies=["stacked"], lams=[1.0], seeds=[1, 2, 3])
FOUR_SEEDS = dict(PAIR40_SHAPED, seeds=[1, 2, 3, 4])  # on two 1-thread teams dealt [[0, 2], [1, 3]]


def share_cost(plan, share):
    """A share's trained epochs, plus one for each that runs a repredict pass."""
    runs = [(epoch_key(plan[i], e), plan[i].penalty_update) for i in share for e in range(plan[i].epochs)]
    return len({key for key, _ in runs}) + len({key for key, update in runs if update is PenaltyUpdate.REPREDICT})


def modelled_finish(plan, shares, teams):
    """When the last share is done if, while r trainers are left, each runs at min(1, teams / r)."""
    now, done = Fraction(0), 0
    loads = sorted(share_cost(plan, share) for share in shares)
    for left, load in zip(range(len(loads), 0, -1), loads):
        now += (load - done) / min(Fraction(1), Fraction(teams, left))
        done = load
    return now


def fixed_width_deal(plan, width):
    """``width`` shares: whole seeds if at least that many, else chains, costliest first to the least loaded."""
    chain = [epoch_key(c, c.epochs - 1) for c in plan]
    key = chain if len({c.seed for c in plan}) < width else [c.seed for c in plan]
    units = [[i for i, k in enumerate(key) if k == unit] for unit in dict.fromkeys(key)]
    shares, loads = [[] for _ in range(width)], [0] * width
    for unit in sorted(units, key=lambda unit: share_cost(plan, unit), reverse=True):
        least = loads.index(min(loads))
        shares[least] += unit
        loads[least] += share_cost(plan, unit)
    return [sorted(share) for share in shares]


class TestDeal:
    @settings(deadline=None, max_examples=200)
    @given(
        variants=st.lists(st.sampled_from(Variant), min_size=1, max_size=4, unique=True),
        strategies=st.lists(st.sampled_from(PenaltyUpdate), min_size=1, max_size=2, unique=True),
        lams=st.lists(st.sampled_from([0.0, 0.5, 2.0]), min_size=1, max_size=2, unique=True),
        seeds=st.lists(st.integers(1, 5), min_size=1, max_size=4, unique=True),
        epochs=st.integers(1, 5),
        data=st.data(),
        teams=st.integers(1, 6),
        threads=st.integers(1, 2),
    )
    def test_every_run_is_dealt_once_and_no_chain_is_split(
        self, variants, strategies, lams, seeds, epochs, data, teams, threads
    ):
        warmup = data.draw(st.integers(0, epochs), label="warmup_epochs")
        plan = command_plan(variants, strategies, lams, seeds, epochs=epochs, warmup_epochs=warmup)
        shares = deal(plan, teams, threads)
        chains = len({epoch_key(c, epochs - 1) for c in plan})
        assert 1 <= len(shares) <= chains
        assert len(shares) <= teams or threads == 1  # BLAS workers never outnumber the CPUs
        capped = fixed_width_deal(plan, min(teams, chains))
        assert modelled_finish(plan, shares, teams) <= modelled_finish(plan, capped, teams)
        assert all(shares) and all(share == sorted(share) for share in shares)
        assert sorted(i for share in shares for i in share) == list(range(len(plan)))
        owner = {i: t for t, share in enumerate(shares) for i in share}
        for i, j in product(range(len(plan)), repeat=2):
            if epoch_key(plan[i], epochs - 1) == epoch_key(plan[j], epochs - 1):
                assert owner[i] == owner[j]  # a chain is trained by one EpochCache
            if plan[i].seed == plan[j].seed and {plan[i].criteria.variant, plan[j].criteria.variant} == {Variant.OL}:
                assert owner[i] == owner[j]
            if len(seeds) >= len(shares) and plan[i].seed == plan[j].seed:
                assert owner[i] == owner[j]  # enough seeds to deal whole ones

    def test_seeds_are_dealt_round_robin_when_they_outnumber_the_trainers(self):
        # pair40 on two 2-thread teams: seeds 1 and 3 stay in the command's own process
        assert deal(command_plan(**PAIR40_SHAPED), 2, 2) == [[0, 2], [1]]
        # on two 1-thread teams, 3 seeds in 3 processes finish in 1.5 run-lengths; 2 processes take 2
        assert deal(command_plan(**PAIR40_SHAPED), 2, 1) == [[0], [1], [2]]
        # an even number of equal seeds finishes no sooner in more processes than two
        for seeds in (4, 6, 8, 10):
            plan = command_plan(["all"], ["stacked"], [1.0], list(range(1, seeds + 1)))
            assert deal(plan, 2, 1) == [list(range(0, seeds, 2)), list(range(1, seeds, 2))]

    def test_k100_compare_pairs_the_cheap_chain_with_the_ol_chain(self):
        # ol-stacked and ol-repredict are one chain; both ol and all-repredict run a repredict pass every epoch
        plan = command_plan(**K100_SHAPED, epochs=30, warmup_epochs=8)
        assert deal(plan, 2, 2) == [[0, 1, 2], [3]]
        # on 1-thread teams each chain gets a process: 75 units of modelled time against 82
        assert deal(plan, 2, 1) == deal(plan, 3, 2) == deal(plan, 8, 1) == [[0, 1], [3], [2]]
        assert deal(plan, 1, 1) == deal(plan, 1, 2) == [[0, 1, 2, 3]]  # one CPU: splitting only retrains warm-up

    def test_one_trainer_takes_the_whole_plan_in_order(self):
        plan = command_plan(["none", "ol", "all"], ["repredict", "stacked"], [1.0], [2, 1])
        assert deal(plan, 1, 1) == [list(range(len(plan)))]

    @pytest.mark.parametrize("teams", [2, 3])
    def test_each_share_through_its_own_cache_keeps_nothing_for_the_others(self, tiny_blobs, teams):
        train, test = tiny_blobs
        spec = NoiseSpec("pair", 0.4)
        plan = command_plan(**K100_SHAPED, epochs=5, warmup_epochs=2)
        alone = [run_experiment(cfg, train, test, spec) for cfg in plan]
        repredicts = Counter()

        def counting_predict(net, features):
            repredicts[owner] += features is train.features
            return predict_in_chunks(net, features)

        with mock.patch.object(trainer, "predict_in_chunks", counting_predict):
            for share in deal(plan, teams, 2):
                owner = tuple(share)
                cache = EpochCache([plan[i] for i in share], train, test, spec)
                for i in share:
                    assert run_experiment(plan[i], train, test, spec, cache).records == alone[i].records
                assert cache.found == {}
                assert set(cache.readers.values()) == {0}
        if teams == 3:  # all-stacked alone never re-predicts the train set
            assert repredicts[(2,)] == 0
        assert repredicts[(3,)] == 5  # all-repredict trains its warm-up itself


class TestRunPlan:
    """``cli.run_plan`` as a library caller uses it, in one process and with forked helpers."""

    @pytest.mark.parametrize(
        "cpus, shape",
        [
            pytest.param(1, K100_SHAPED, id="1"),
            pytest.param(2, K100_SHAPED, id="2"),  # one process per chain
            pytest.param(2, PAIR40_SHAPED, id="2-three-seeds"),  # three processes on two CPUs
            pytest.param(2, FOUR_SEEDS, id="2-four-seeds"),  # this process's runs interleave with a helper's
        ],
    )
    def test_runs_come_in_plan_order_each_equal_to_the_run_alone(self, tiny_blobs, monkeypatch, cpus, shape):
        pin_trainers(monkeypatch, cpus)
        train, test = tiny_blobs
        spec = NoiseSpec("pair", 0.4)
        plan = command_plan(**shape, epochs=5, warmup_epochs=2)
        results = [result for _, result in run_plan(plan, train, test, spec)]
        assert len(results) == len(plan)
        for cfg, result in zip(plan, results):
            alone = run_experiment(cfg, train, test, spec)
            assert result.records == alone.records
            assert same_history(result.penalty_history, alone.penalty_history)

    def test_an_empty_plan_yields_nothing(self, tiny_blobs):
        assert list(run_plan([], *tiny_blobs, NoiseSpec("pair", 0.4))) == []

    @pytest.mark.parametrize(
        "cpus, trained",
        [
            pytest.param(1, [1], id="1"),  # alone, each run is yielded as soon as it is trained
            pytest.param(2, [1, 3], id="2"),  # beside a helper, this process trains its whole share first
        ],
    )
    def test_alone_it_streams_and_beside_helpers_trains_its_share_first(self, tiny_blobs, monkeypatch, cpus, trained):
        pin_trainers(monkeypatch, cpus)
        parent = os.getpid()
        seeds = []

        def run(config, *args, **kwargs):
            if os.getpid() == parent:
                seeds.append(config.seed)
            return run_experiment(config, *args, **kwargs)

        monkeypatch.setattr("noisylab.cli.run_experiment", run)
        plan = command_plan(**FOUR_SEEDS, epochs=5, warmup_epochs=2)
        with closing(run_plan(plan, *tiny_blobs, NoiseSpec("pair", 0.4))) as runs:
            next(runs)
            assert seeds == trained

    @pytest.mark.parametrize(
        "cpus, shape, helpers",
        [
            pytest.param(1, K100_SHAPED, 0, id="1"),
            pytest.param(2, K100_SHAPED, 2, id="2"),
            pytest.param(2, PAIR40_SHAPED, 2, id="2-three-seeds"),
        ],
    )
    def test_closing_after_the_first_run_leaves_no_child(self, tiny_blobs, monkeypatch, cpus, shape, helpers):
        pin_trainers(monkeypatch, cpus)
        parent = os.getpid()

        def run(config, *args, **kwargs):
            if os.getpid() != parent:
                time.sleep(30)  # every helper still trains at the close
            return run_experiment(config, *args, **kwargs)

        monkeypatch.setattr("noisylab.cli.run_experiment", run)
        train, test = tiny_blobs
        runs = run_plan(command_plan(**shape, epochs=5, warmup_epochs=2), train, test, NoiseSpec("pair", 0.4))
        next(runs)
        assert len(multiprocessing.active_children()) == helpers
        runs.close()
        assert multiprocessing.active_children() == []


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
        train, test = make_blobs(DatasetConfig(dim=100, separation=0.5, spread=0.1))
        plan = [
            TrainConfig(criteria=CriteriaConfig(variant=variant), seed=seed)
            for seed in (1, 2, 3)
            for variant in (Variant.NONE, Variant.OL)
        ]
        results = [result for _, result in run_plan(plan, train, test, NoiseSpec("pair", 0.4))]
        for plain, ol in zip(results[::2], results[1::2]):
            assert ol.best_test_error <= plain.best_test_error
