"""Library range checks reject NaN, which fails every comparison, with the error that names the field."""

import math

import numpy as np
import pytest

from noisylab.criteria import PenaltyLabelSet
from noisylab.data import LabeledDataset
from noisylab.losses import SlConfig
from noisylab.network import LrSchedule
from noisylab.noise import NoiseSpec, corrupt_labels

NAN = math.nan


def corrupt_with_a_nan_row():
    labels = np.arange(3, dtype=np.int64)
    matrix = np.eye(3)
    matrix[1] = [0.5, NAN, 0.5]
    corrupt_labels(LabeledDataset(np.zeros((3, 1)), labels, labels.copy(), 3), matrix, 0)


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda: PenaltyLabelSet(np.full((3, 3), NAN), 0, np.zeros(3, dtype=bool)).validate(), "own class"),
        (lambda: NoiseSpec("mixed", epsilon=0.4, epsilon1=NAN, epsilon2=0.1), "epsilon1 and epsilon2"),
        (lambda: NoiseSpec("mixed", epsilon=0.4, epsilon1=0.3, epsilon2=NAN), "epsilon1 and epsilon2"),
        (corrupt_with_a_nan_row, "transition matrix rows"),
        (lambda: SlConfig(alpha=NAN), "alpha"),
        (lambda: SlConfig(beta=NAN), "beta"),
        (lambda: SlConfig(log_zero_clamp=NAN), "log_zero_clamp"),
        (lambda: LrSchedule(NAN, ()), "initial learning rate"),
        (lambda: LrSchedule(0.1, ((2, NAN),)), "milestone factors"),
    ],
    ids=[
        "penalty-labels",
        "mixed-epsilon1",
        "mixed-epsilon2",
        "corrupt-labels",
        "sl-alpha",
        "sl-beta",
        "sl-log-zero-clamp",
        "lr-initial",
        "lr-milestone-factor",
    ],
)
def test_nan_is_rejected(check, message):
    with pytest.raises(ValueError, match=message):
        check()
