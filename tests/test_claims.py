"""tools/claims.py: its sign test, its acceptance row on the acceptance tests' own runs, and its far layout."""

import importlib.util
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

from conftest import ACCEPT_SEEDS
from noisylab.data import DatasetConfig, class_centers, make_datasets
from test_acceptance import mean_best_error, mean_final_precision

ROOT = Path(__file__).resolve().parents[1]


def load_claims():
    spec = importlib.util.spec_from_file_location("claims", ROOT / "tools" / "claims.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


claims = load_claims()


@pytest.mark.parametrize("above, below", [(0, 0), (1, 0), (4, 17), (10, 11), (11, 10), (15, 3), (21, 0)])
def test_sign_test_is_the_exact_two_sided_binomial_test(above, below):
    # the two-sided p-value by its definition: the chance of every split no likelier than the one seen
    n = above + below
    p = sum(Fraction(comb(n, i), 2**n) for i in range(n + 1) if comb(n, i) <= comb(n, above))
    assert claims.sign_test(above, below) == pytest.approx(float(p), rel=1e-12)


def test_seeds_1_to_3_row_is_what_acceptance_tests_07_to_10_compute(
    pair40_ol, pair40_all, pair40_all_repredict, pair40_all_lam0, sym40_ol, sym40_all
):
    assert claims.SEEDS[:3] == ACCEPT_SEEDS  # so the acceptance runs are the claims battery's first triple
    runs = {
        "pair-ol": pair40_ol,
        "pair-all": pair40_all,
        "pair-all-repredict": pair40_all_repredict,
        "sym-ol": sym40_ol,
        "sym-all": sym40_all,
    }
    gaps = [
        mean_final_precision(pair40_all) - mean_final_precision(pair40_ol),
        mean_best_error(pair40_ol) - mean_best_error(pair40_all),
        mean_final_precision(sym40_all) - mean_final_precision(sym40_ol),
        mean_best_error(pair40_all_repredict) - mean_best_error(pair40_all),
        mean_best_error(pair40_all_lam0) - mean_best_error(pair40_all),  # the table reads lambda 0 from ol
    ]
    assert claims.acceptance_gaps(runs, slice(0, 3)) == [(gap, True) for gap in gaps]


def test_far_layout_puts_every_pair_target_3_centres_away_on_the_ring():
    config = DatasetConfig()  # the desk blobs the battery trains on
    k = config.classes
    sigma = claims.far_labels(k)
    assert sorted(sigma.tolist()) == list(range(k))  # a permutation of the labels
    centre = np.argsort(sigma)  # label -> the centre whose blob carries it
    target = centre[(np.arange(k) + 1) % k]  # pair noise sends label L to L + 1
    steps = (target - centre) % k
    assert np.minimum(steps, k - steps).tolist() == [3] * k
    centres = class_centers(k, config.dim, config.separation)
    gaps = np.linalg.norm(centres[target] - centres[centre], axis=1)
    assert gaps == pytest.approx(np.full(k, np.linalg.norm(centres[3] - centres[0])))
    assert gaps.min() > 2.6 * config.separation  # against the adjacent blob's separation
    for before in make_datasets(config):
        after = claims.far_layout(before)
        assert after.features is before.features
        assert np.array_equal(after.true_labels, sigma[before.true_labels])
        assert np.array_equal(after.observed_labels, after.true_labels)
