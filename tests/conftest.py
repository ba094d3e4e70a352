"""Shared fixtures: the desk-scale dataset and the expensive noisy runs.

The six run batteries below are session-scoped because both the behavior
tests and the acceptance gate read them; each is three full 100-epoch runs.
Build wall times are recorded so the runtime criteria can see them.
"""

import multiprocessing
import time

import pytest

from noisylab.config import DatasetConfig, make_datasets
from noisylab.noise import NoiseSpec
from noisylab.trainer import (
    CriteriaConfig,
    PenaltyUpdate,
    TrainConfig,
    Variant,
    run_experiment,
)

ACCEPT_SEEDS = (1, 2, 3)

RUN_TIMES: dict[str, float] = {}


@pytest.fixture(autouse=True)
def no_child_process_outlives_its_test():
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="session")
def desk_data():
    return make_datasets(DatasetConfig())


def desk_runs(desk_data, name, variant, update=PenaltyUpdate.STACKED, lam=1.0, noise=("pair", 0.4)):
    train, test = desk_data
    spec = NoiseSpec(noise[0], noise[1])
    started = time.perf_counter()
    results = []
    for seed in ACCEPT_SEEDS:
        cfg = TrainConfig(
            criteria=CriteriaConfig(variant=variant, lam=lam),
            penalty_update=update,
            seed=seed,
        )
        results.append(run_experiment(cfg, train, test, spec))
    RUN_TIMES[name] = time.perf_counter() - started
    return results


@pytest.fixture(scope="session")
def pair40_ol(desk_data):
    return desk_runs(desk_data, "pair40_ol", Variant.OL)


@pytest.fixture(scope="session")
def pair40_all(desk_data):
    return desk_runs(desk_data, "pair40_all", Variant.ALL)


@pytest.fixture(scope="session")
def pair40_all_repredict(desk_data):
    return desk_runs(desk_data, "pair40_all_repredict", Variant.ALL, update=PenaltyUpdate.REPREDICT)


@pytest.fixture(scope="session")
def pair40_all_lam0(desk_data):
    return desk_runs(desk_data, "pair40_all_lam0", Variant.ALL, lam=0.0)


@pytest.fixture(scope="session")
def sym40_ol(desk_data):
    return desk_runs(desk_data, "sym40_ol", Variant.OL, noise=("symmetry", 0.4))


@pytest.fixture(scope="session")
def sym40_all(desk_data):
    return desk_runs(desk_data, "sym40_all", Variant.ALL, noise=("symmetry", 0.4))
