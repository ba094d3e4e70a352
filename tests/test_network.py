"""Forward pass, initialization, backprop, and the momentum optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import finite_difference_grads, kink_free_batch, relative_gradient_error
from noisylab.losses import SlConfig, ce_grad_logits, ce_loss, sl_grad_logits, sl_loss
from noisylab.network import LrSchedule, Mlp, MomentumSgd, NumericalFault, softmax


def onehot(labels, k):
    return np.eye(k)[np.asarray(labels)]


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        probs = softmax(rng.standard_normal((20, 7)))
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs > 0.0)

    def test_known_values(self):
        probs = softmax(np.array([[0.0, np.log(3.0)]]))
        assert np.allclose(probs, [[0.25, 0.75]])

    def test_shift_invariance_handles_huge_logits(self):
        probs = softmax(np.array([[1000.0, 1000.0, 999.0]]))
        assert np.all(np.isfinite(probs))
        assert probs[0, 0] == probs[0, 1]


class TestLrSchedule:
    def test_default_steps(self):
        schedule = LrSchedule()
        assert schedule.rate(0) == pytest.approx(0.1)
        assert schedule.rate(49) == pytest.approx(0.1)
        assert schedule.rate(50) == pytest.approx(0.02)
        assert schedule.rate(74) == pytest.approx(0.02)
        assert schedule.rate(75) == pytest.approx(0.004)
        assert schedule.rate(99) == pytest.approx(0.004)

    def test_milestones_compound(self):
        schedule = LrSchedule(initial=1.0, milestones=((2, 0.5), (4, 0.1)))
        assert schedule.rate(3) == pytest.approx(0.5)
        assert schedule.rate(4) == pytest.approx(0.05)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            LrSchedule(initial=0.0)

    @pytest.mark.parametrize("factor", [0.0, -1.0])
    def test_rejects_nonpositive_milestone_factor(self, factor):
        # a zero factor stalls training; a negative one turns descent into ascent
        with pytest.raises(ValueError, match="milestone factors must be positive"):
            LrSchedule(initial=0.1, milestones=((2, 0.5), (5, factor)))

    def test_rejects_negative_milestone_epoch(self):
        # epoch -3 would already apply its factor at epoch 0
        with pytest.raises(ValueError, match="milestone epochs must be non-negative"):
            LrSchedule(initial=0.1, milestones=((-3, 0.5),))

    def test_milestone_at_epoch_zero_applies_from_the_start(self):
        assert LrSchedule(initial=0.1, milestones=((0, 0.5),)).rate(0) == pytest.approx(0.05)


class TestMlpInit:
    def test_layer_shapes(self):
        net = Mlp((3, 64, 64, 10), seed=0)
        assert net.layer_sizes == (3, 64, 64, 10)
        assert [w.shape for w in net.weights] == [(3, 64), (64, 64), (64, 10)]
        assert all(np.array_equal(b, np.zeros_like(b)) for b in net.biases)

    def test_fan_in_limit_respected(self):
        net = Mlp((4, 50, 6), seed=1)
        for w in net.weights:
            limit = np.sqrt(6.0 / w.shape[0])
            assert np.abs(w).max() <= limit

    def test_seeded_reproducibility(self):
        a = Mlp((5, 8, 3), seed=2)
        b = Mlp((5, 8, 3), seed=2)
        c = Mlp((5, 8, 3), seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert not all(np.array_equal(x, y) for x, y in zip(a.weights, c.weights))

    def test_rejects_degenerate_layout(self):
        with pytest.raises(ValueError):
            Mlp((4,), seed=0)
        with pytest.raises(ValueError):
            Mlp((4, 0, 3), seed=0)


class TestForward:
    def test_confidences_are_distributions(self):
        net = Mlp((3, 16, 4), seed=0)
        rng = np.random.default_rng(0)
        probs = net.confidences(rng.standard_normal((10, 3)))
        assert probs.shape == (10, 4)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_passes_leave_their_input_unchanged(self):
        net = Mlp((3, 16, 4), seed=0)
        x = np.random.default_rng(0).standard_normal((10, 3))
        logits = x @ net.weights[0][:, :3]
        kept_x, kept_logits = x.copy(), logits.copy()
        softmax(logits)
        net.forward(x)
        net.confidences(x)
        assert np.array_equal(logits, kept_logits)
        assert np.array_equal(x, kept_x)

    def test_nonfinite_input_raises_fault(self):
        net = Mlp((2, 4, 2), seed=0)
        with pytest.raises(NumericalFault):
            net.confidences(np.array([[np.nan, 0.0]]))


class TestBackward:
    def test_matches_finite_differences_ce(self):
        rng = np.random.default_rng(0)
        net = Mlp((3, 6, 5, 4), seed=0)
        x = kink_free_batch(net, rng, 3, 3)
        targets = onehot(rng.integers(0, 4, size=3), 4)
        analytic = net.backward(x, targets, ce_grad_logits)
        numeric = finite_difference_grads(net, x, targets, ce_loss)
        assert relative_gradient_error(analytic, numeric) < 1e-4

    def test_matches_finite_differences_sl(self):
        rng = np.random.default_rng(1)
        config = SlConfig()
        net = Mlp((3, 6, 5, 4), seed=1)
        x = kink_free_batch(net, rng, 3, 3)
        targets = onehot(rng.integers(0, 4, size=3), 4)
        analytic = net.backward(x, targets, lambda p, t: sl_grad_logits(p, t, config))
        numeric = finite_difference_grads(
            net, x, targets, lambda p, t: sl_loss(p, t, config)
        )
        assert relative_gradient_error(analytic, numeric) < 1e-4

    def test_empty_selection_rejected(self):
        net = Mlp((2, 3, 2), seed=0)
        with pytest.raises(ValueError):
            net.backward(np.zeros((0, 2)), np.zeros((0, 2)), ce_grad_logits)

    def test_gradient_averages_over_batch(self):
        # duplicating a sample must not change the mean gradient
        net = Mlp((2, 4, 3), seed=5)
        x = np.array([[0.3, -0.2]])
        t = onehot([1], 3)
        single = net.backward(x, t, ce_grad_logits)
        doubled = net.backward(np.repeat(x, 2, axis=0), np.repeat(t, 2, axis=0), ce_grad_logits)
        for (gw1, gb1), (gw2, gb2) in zip(single, doubled):
            assert np.allclose(gw1, gw2)
            assert np.allclose(gb1, gb2)


    def test_cached_forward_rows_match_fresh_pass(self):
        rng = np.random.default_rng(2)
        net = Mlp((3, 6, 5, 4), seed=2)
        x = rng.standard_normal((12, 3))
        targets = onehot(rng.integers(0, 4, size=12), 4)
        rows = np.array([0, 3, 4, 9, 11])
        cached = net.backward(x[rows], targets[rows], ce_grad_logits, forward=net.forward(x).take(rows))
        fresh = net.backward(x[rows], targets[rows], ce_grad_logits)
        for (cw, cb), (fw, fb) in zip(cached, fresh):
            assert np.allclose(cw, fw, rtol=0.0, atol=1e-12)
            assert np.allclose(cb, fb, rtol=0.0, atol=1e-12)

    def test_cached_forward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        net = Mlp((3, 6, 5, 4), seed=3)
        x = kink_free_batch(net, rng, 6, 3)
        targets = onehot(rng.integers(0, 4, size=6), 4)
        rows = np.array([1, 2, 5])
        analytic = net.backward(x[rows], targets[rows], ce_grad_logits, forward=net.forward(x).take(rows))
        numeric = finite_difference_grads(net, x[rows], targets[rows], ce_loss)
        assert relative_gradient_error(analytic, numeric) < 1e-4


class TestMomentumSgd:
    def test_velocity_accumulates(self):
        # two steps with a constant unit gradient: displacement 1.0 then 1.9
        net = Mlp((1, 1), seed=0)
        net.weights[0][:] = 0.0
        opt = MomentumSgd(net, momentum=0.9, schedule=LrSchedule(initial=1.0, milestones=()))
        grad = [(np.ones((1, 1)), np.zeros(1))]
        opt.step(net, grad, epoch=0)
        assert net.weights[0][0, 0] == pytest.approx(-1.0)
        opt.step(net, grad, epoch=0)
        assert net.weights[0][0, 0] == pytest.approx(-2.9)

    def test_zero_momentum_is_plain_sgd(self):
        net = Mlp((2, 3, 2), seed=7)
        shadow = Mlp((2, 3, 2), seed=7)
        opt = MomentumSgd(net, momentum=0.0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 2))
        t = onehot(rng.integers(0, 2, size=4), 2)
        for _ in range(3):
            grads = net.backward(x, t, ce_grad_logits)
            expected = shadow.backward(x, t, ce_grad_logits)
            opt.step(net, grads, epoch=0)
            for i, (gw, gb) in enumerate(expected):
                shadow.weights[i] -= 0.1 * gw
                shadow.biases[i] -= 0.1 * gb
        assert all(np.array_equal(a, b) for a, b in zip(net.weights, shadow.weights))

    def test_schedule_applied_at_step(self):
        net = Mlp((1, 1), seed=0)
        net.weights[0][:] = 0.0
        opt = MomentumSgd(net, momentum=0.0, schedule=LrSchedule(initial=0.1, milestones=((1, 0.2),)))
        grad = [(np.ones((1, 1)), np.zeros(1))]
        opt.step(net, grad, epoch=1)
        assert net.weights[0][0, 0] == pytest.approx(-0.02)

    def test_momentum_bounds(self):
        net = Mlp((1, 1), seed=0)
        with pytest.raises(ValueError):
            MomentumSgd(net, momentum=1.0)
        with pytest.raises(ValueError):
            MomentumSgd(net, momentum=-0.1)

    def test_exploding_update_raises_fault(self):
        net = Mlp((1, 1), seed=0)
        opt = MomentumSgd(net, momentum=0.0, schedule=LrSchedule(initial=1e308, milestones=()))
        grad = [(np.full((1, 1), 1e308), np.zeros(1))]
        with np.errstate(over="ignore"), pytest.raises(NumericalFault):
            opt.step(net, grad, epoch=0)

    @settings(max_examples=40, deadline=None)
    @given(
        layer=st.integers(0, 2),
        in_bias=st.booleans(),
        position=st.integers(0, 10**6),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    def test_nonfinite_parameter_in_any_layer_raises_fault(self, layer, in_bias, position, bad):
        net = Mlp((3, 4, 5, 2), seed=0)
        opt = MomentumSgd(net)
        grads = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(net.weights, net.biases)]
        target = (net.biases if in_bias else net.weights)[layer]
        target.flat[position % target.size] = bad
        with pytest.raises(NumericalFault):
            opt.step(net, grads, epoch=0)

    def test_layers_stay_views_of_flat_params(self):
        net = Mlp((2, 3, 2), seed=4)
        opt = MomentumSgd(net)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 2))
        t = onehot(rng.integers(0, 2, size=5), 2)
        for _ in range(4):
            opt.step(net, net.backward(x, t, ce_grad_logits), epoch=0)
        assert net.params.size == sum(w.size + b.size for w, b in zip(net.weights, net.biases))
        for arr in (*net.weights, *net.biases):
            assert arr.base is net.params
        net.params[:] = 0.0
        assert not any(arr.any() for arr in (*net.weights, *net.biases))
