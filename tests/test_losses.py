"""Loss values and logit gradients, checked against hand-worked numbers."""

import numpy as np
import pytest

from noisylab.criteria import criteria_ol as observed_confidence
from noisylab.losses import (
    PROB_FLOOR,
    SlConfig,
    ce_grad_logits,
    ce_loss,
    rce_loss,
    sl_grad_logits,
    sl_loss,
)


def onehot(labels, k):
    eye = np.eye(k)
    return eye[np.asarray(labels)]


class TestCeLoss:
    def test_half_confidence_gives_ln_two(self):
        probs = np.array([[0.5, 0.25, 0.25]])
        assert ce_loss(probs, onehot([0], 3))[0] == pytest.approx(0.6931471805599453)

    def test_full_confidence_gives_zero(self):
        probs = np.array([[1.0, 0.0, 0.0]])
        assert ce_loss(probs, onehot([0], 3))[0] == 0.0

    def test_zero_confidence_is_floored(self):
        probs = np.array([[0.0, 1.0]])
        value = ce_loss(probs, onehot([0], 2))[0]
        # -log(1e-12), the ceiling the floor imposes
        assert value == pytest.approx(27.631021115928547)
        assert np.isfinite(value)

    def test_batched_shape(self):
        probs = np.array([[0.7, 0.3], [0.2, 0.8]])
        losses = ce_loss(probs, onehot([0, 1], 2))
        assert losses.shape == (2,)
        assert losses[1] == pytest.approx(-np.log(0.8))


class TestRceLoss:
    def test_uniform_ten_class(self):
        # p_observed = 0.1, so 4 * 0.9 = 3.6
        probs = np.full((1, 10), 0.1)
        assert rce_loss(probs, onehot([3], 10), SlConfig(log_zero_clamp=-4.0))[0] == pytest.approx(3.6)

    def test_quarter_confidence(self):
        probs = np.array([[0.25, 0.75]])
        assert rce_loss(probs, onehot([0], 2), SlConfig(log_zero_clamp=-4.0))[0] == pytest.approx(3.0)

    def test_full_confidence_is_zero(self):
        probs = np.array([[0.0, 1.0, 0.0]])
        assert rce_loss(probs, onehot([1], 3), SlConfig(log_zero_clamp=-4.0))[0] == pytest.approx(0.0)

    def test_custom_clamp_scales_linearly(self):
        probs = np.array([[0.25, 0.75]])
        assert rce_loss(probs, onehot([0], 2), SlConfig(log_zero_clamp=-2.0))[0] == pytest.approx(1.5)

    def test_rejects_nonnegative_clamp(self):
        with pytest.raises(ValueError, match="log_zero_clamp must be negative"):
            SlConfig(log_zero_clamp=0.0)


class TestSlLoss:
    def test_combined_value(self):
        # ln 2 plus RCE 0.08 * 4 * 0.5 = 0.16 with the default config
        probs = np.array([[0.5, 0.5]])
        value = sl_loss(probs, onehot([0], 2), SlConfig())
        assert value[0] == pytest.approx(0.8531471805599453)

    def test_beta_zero_is_plain_ce(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((8, 4))
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        targets = onehot(rng.integers(0, 4, size=8), 4)
        config = SlConfig(alpha=1.0, beta=0.0)
        assert np.array_equal(sl_loss(probs, targets, config), ce_loss(probs, targets))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SlConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            SlConfig(beta=-1.0)
        with pytest.raises(ValueError):
            SlConfig(log_zero_clamp=1.0)


class TestGradients:
    def test_ce_grad_is_probs_minus_targets(self):
        probs = np.array([[0.6, 0.3, 0.1]])
        grad = ce_grad_logits(probs, onehot([0], 3))
        assert np.allclose(grad, [[-0.4, 0.3, 0.1]])

    def test_ce_grad_accepts_soft_targets(self):
        probs = np.array([[0.5, 0.5]])
        soft = np.array([[0.9, 0.1]])
        assert np.allclose(ce_grad_logits(probs, soft), [[-0.4, 0.4]])

    def test_sl_grad_direction_and_scale(self):
        probs = np.array([[0.5, 0.5]])
        targets = onehot([0], 2)
        grad = sl_grad_logits(probs, targets, SlConfig())
        # scale = 1 + 0.08 * 4 * 0.5 = 1.16 applied to (probs - onehot)
        assert np.allclose(grad, 1.16 * (probs - targets))

    def test_sl_grad_with_beta_zero_matches_ce(self):
        rng = np.random.default_rng(1)
        probs = rng.dirichlet(np.ones(5), size=6)
        targets = onehot(rng.integers(0, 5, size=6), 5)
        config = SlConfig(beta=0.0)
        assert np.array_equal(
            sl_grad_logits(probs, targets, config), ce_grad_logits(probs, targets)
        )


def test_observed_confidence_picks_label_entry():
    probs = np.array([[0.1, 0.2, 0.7], [0.5, 0.4, 0.1]])
    assert np.allclose(observed_confidence(probs, onehot([2, 1], 3)), [0.7, 0.4])


def test_prob_floor_constant():
    assert PROB_FLOOR == 1e-12
