"""A small fully-connected classifier trained with momentum SGD.

Plain numpy, no regularization layers. The forward pass exposes softmax
confidences and can keep its layer inputs; the backward pass averages the
loss gradient over an explicit subset of the batch, optionally reusing those
inputs, so callers control which samples update the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .seeding import SeedLike, rng_from

# Per-sample logit gradient of some loss: (probs, targets) -> d loss / d logits.
GradFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


class NumericalFault(RuntimeError):
    """Non-finite values reached the forward pass or a parameter update."""


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety; ``logits`` is left unchanged."""
    probs = logits - logits.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


@dataclass(frozen=True)
class LrSchedule:
    """Step schedule: start at ``initial``, multiply at each milestone epoch.

    A milestone (e, m) applies from epoch e onward, and milestones compound.
    """

    initial: float
    milestones: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.initial > 0:  # NaN fails these too
            raise ValueError("initial learning rate must be positive")
        if not all(factor > 0 for _, factor in self.milestones):
            raise ValueError("learning rate milestone factors must be positive")
        if any(epoch < 0 for epoch, _ in self.milestones):
            raise ValueError("learning rate milestone epochs must be non-negative")

    def rate(self, epoch: int) -> float:
        rate = self.initial
        for milestone, factor in self.milestones:
            if epoch >= milestone:
                rate *= factor
        return rate


def check_momentum(momentum: float) -> None:
    if not 0.0 <= momentum < 1.0:
        raise ValueError("momentum must be in [0, 1)")


def _flat_layers(sizes: Sequence[int]) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """A zeroed flat buffer plus per-layer weight and bias views into it, laid out W0 b0 W1 b1 ..."""
    shapes = [s for fan_in, fan_out in zip(sizes, sizes[1:]) for s in ((fan_in, fan_out), (fan_out,))]
    counts = [math.prod(s) for s in shapes]
    buffer = np.zeros(sum(counts))
    views = [part.reshape(s) for part, s in zip(np.split(buffer, np.cumsum(counts)[:-1]), shapes)]
    return buffer, views[0::2], views[1::2]


@dataclass(frozen=True)
class Forward:
    """Softmax confidences of a batch plus the input of every layer."""

    probs: np.ndarray
    inputs: tuple[np.ndarray, ...]

    def take(self, rows: np.ndarray) -> "Forward":
        """The same pass restricted to the given batch rows."""
        return Forward(self.probs[rows], tuple(h[rows] for h in self.inputs))


class Mlp:
    """ReLU multi-layer perceptron with a linear logit head.

    All parameters live in one flat ``params`` buffer; ``weights[i]`` and
    ``biases[i]`` are views into it. Weights start from a seeded uniform draw
    scaled by fan-in (limit sqrt(6 / fan_in)); biases start at zero.
    """

    def __init__(self, layer_sizes: Sequence[int], seed: SeedLike):
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError("layer_sizes needs at least input and output widths")
        rng = rng_from(seed)
        self.params, self.weights, self.biases = _flat_layers(sizes)
        for w in self.weights:
            limit = np.sqrt(6.0 / w.shape[0])
            w[:] = rng.uniform(-limit, limit, size=w.shape)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Finite logits plus the post-activation inputs of every layer."""
        inputs = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w
            h += b
            if i < last:
                np.maximum(h, 0.0, out=h)
                inputs.append(h)
        if not np.isfinite(h).all():
            raise NumericalFault("non-finite logits in forward pass")
        return h, inputs

    def forward(self, x: np.ndarray) -> Forward:
        """Confidences plus the layer inputs that ``backward`` reuses."""
        logits, inputs = self._forward(np.asarray(x, dtype=np.float64))
        return Forward(softmax(logits), tuple(inputs))

    def confidences(self, x: np.ndarray) -> np.ndarray:
        """Softmax class probabilities; rows sum to 1. Keeps no layer inputs."""
        return softmax(self._forward(np.asarray(x, dtype=np.float64))[0])

    def backward(
        self, x: np.ndarray, targets: np.ndarray, grad_fn: GradFn, forward: Forward | None = None
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Gradients of the mean per-sample loss over the given samples.

        ``grad_fn`` supplies each sample's loss gradient at the logits; this
        routine handles the averaging and the backpropagation through the
        ReLU stack. Pass ``forward``, the pass already run on exactly these
        samples, to backpropagate from it instead of running the layers
        again. Raises on an empty sample set: the caller decides what a
        legal selection is, never this layer.
        """
        if len(x) == 0:
            raise ValueError("backward needs at least one sample")
        fwd = forward if forward is not None else self.forward(x)
        delta = grad_fn(fwd.probs, np.asarray(targets, dtype=np.float64)) / len(x)
        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(self.weights)  # type: ignore[list-item]
        for i in range(len(self.weights) - 1, -1, -1):
            grads[i] = (fwd.inputs[i].T @ delta, delta.sum(axis=0))
            if i > 0:
                # ReLU derivative taken as 1 strictly above zero.
                delta = (delta @ self.weights[i].T) * (fwd.inputs[i] > 0.0)
        return grads


class MomentumSgd:
    """Classical momentum: v <- gamma v + g, w <- w - eta(epoch) v.

    The velocity is one flat buffer laid out like ``Mlp.params``, so the
    momentum decay, the update and the finiteness check each run once.
    """

    def __init__(self, net: Mlp, momentum: float, schedule: LrSchedule):
        check_momentum(momentum)
        self.momentum = momentum
        self.schedule = schedule
        self.velocity, weights, biases = _flat_layers(net.layer_sizes)
        self._velocity_views = list(zip(weights, biases))

    def step(self, net: Mlp, grads: list[tuple[np.ndarray, np.ndarray]], epoch: int) -> None:
        self.velocity *= self.momentum
        for (vw, vb), (gw, gb) in zip(self._velocity_views, grads):
            vw += gw
            vb += gb
        net.params -= self.schedule.rate(epoch) * self.velocity
        if not np.isfinite(net.params).all():
            raise NumericalFault("non-finite parameter after update")
