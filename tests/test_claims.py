"""tools/claims.py: its sign test, and its acceptance row on the acceptance tests' own runs."""

import importlib.util
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from conftest import ACCEPT_SEEDS
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
