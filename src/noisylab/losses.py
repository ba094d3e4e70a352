"""Cross entropy, reverse cross entropy, and their symmetric combination.

All losses take batched confidences of shape (n, k) and one-hot observed
labels of the same shape, and return one value per sample. The companion
``*_grad_logits`` functions give the per-sample gradient at the logits of a
softmax head, which is what the network's backward pass consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import criteria_ol

# Confidence floor inside the forward log only; keeps -log finite.
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class SlConfig:
    """Weights for the symmetric loss alpha * CE + beta * RCE.

    ``log_zero_clamp`` stands in for log 0 inside RCE. The default beta is
    the 10-class preset; 100-class runs conventionally use 0.3.
    """

    alpha: float = 1.0
    beta: float = 0.08
    log_zero_clamp: float = -4.0

    def __post_init__(self) -> None:
        if not self.alpha >= 0:  # NaN fails these too
            raise ValueError("alpha must be non-negative")
        if not self.beta >= 0:
            raise ValueError("beta must be non-negative")
        if not self.log_zero_clamp < 0:
            raise ValueError("log_zero_clamp must be negative")


def ce_loss(confidences: np.ndarray, observed_onehot: np.ndarray) -> np.ndarray:
    """Cross entropy against the observed label, floored to stay finite."""
    p = criteria_ol(confidences, observed_onehot)
    return -np.log(np.maximum(p, PROB_FLOOR))


def rce_loss(confidences: np.ndarray, observed_onehot: np.ndarray, config: SlConfig) -> np.ndarray:
    """Reverse cross entropy with log 0 clamped to ``config.log_zero_clamp``.

    Swapping the roles of prediction and one-hot label leaves
    |clamp| * (1 - p_observed): zero at full confidence on the observed
    class, and growing as mass leaks elsewhere.
    """
    p = criteria_ol(confidences, observed_onehot)
    return -config.log_zero_clamp * (1.0 - p)


def sl_loss(confidences: np.ndarray, observed_onehot: np.ndarray, config: SlConfig) -> np.ndarray:
    """Symmetric loss alpha * CE + beta * RCE."""
    return config.alpha * ce_loss(confidences, observed_onehot) + config.beta * rce_loss(
        confidences, observed_onehot, config
    )


def ce_grad_logits(confidences: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-sample CE gradient at the logits: probs minus targets.

    Valid for one-hot and soft targets alike; the forward floor is ignored
    here, it only guards the log.
    """
    return confidences - targets


def sl_grad_logits(
    confidences: np.ndarray, observed_onehot: np.ndarray, config: SlConfig
) -> np.ndarray:
    """Per-sample symmetric-loss gradient at the logits.

    The RCE term contributes |clamp| * p_observed * (probs - onehot), so both
    terms share the (probs - onehot) direction with a per-sample scale.
    """
    p = criteria_ol(confidences, observed_onehot)
    scale = config.alpha + config.beta * (-config.log_zero_clamp) * p
    return scale[..., None] * (confidences - observed_onehot)
