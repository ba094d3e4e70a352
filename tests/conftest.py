"""Shared fixtures: the desk-scale dataset and the expensive noisy runs.

The six run batteries below are session-scoped because both the behavior
tests and the acceptance gate read them; each is three full 100-epoch runs.
Build wall times are recorded so the runtime criteria can see them.

The suite pins one BLAS thread unless the environment already sets one, so
that ``run_plan`` trains each of a battery's seeds in its own process on a
multi-core machine.

Hypothesis runs under one profile that draws the same examples on every run and
keeps no example database, so a property test that passes once passes again.
"""

import multiprocessing
import os
import time
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read once, when noisylab first imports numpy

from noisylab.cli import run_plan
from noisylab.data import DatasetConfig, make_datasets
from noisylab.noise import NoiseSpec
from noisylab.trainer import CriteriaConfig, PenaltyUpdate, TrainConfig, Variant

ACCEPT_SEEDS = (1, 2, 3)

RUN_TIMES: dict[str, float] = {}


@pytest.fixture(autouse=True)
def no_child_process_outlives_its_test():
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture(autouse=True)
def no_default_output_directory_left_behind():
    """A command run without ``--out`` writes ``./results``; a test must not leave one in the checkout."""
    results = Path("results").resolve()
    there = results.exists()
    yield
    assert there or not results.exists(), f"the test left {results}"


def pin_trainers(monkeypatch, cpus):
    """One BLAS thread on ``cpus`` CPUs: ``deal`` picks the process count, and on one CPU it is always one."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr("noisylab.cli.os.sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.fixture(scope="session")
def desk_data():
    return make_datasets(DatasetConfig())


def desk_runs(desk_data, name, variant, update=PenaltyUpdate.STACKED, lam=1.0, noise=("pair", 0.4)):
    train, test = desk_data
    spec = NoiseSpec(noise[0], noise[1])
    plan = [
        TrainConfig(criteria=CriteriaConfig(variant=variant, lam=lam), penalty_update=update, seed=seed)
        for seed in ACCEPT_SEEDS
    ]
    started = time.perf_counter()
    results = [result for _, result in run_plan(plan, train, test, spec)]
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
