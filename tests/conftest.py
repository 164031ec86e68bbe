"""Shared fixtures.

The Monte Carlo studies below are the expensive part of the suite, so each
one runs once per session and is shared between the module tests and the
acceptance tests.  Free parameters of the benchmark designs (dimensions,
coefficient patterns, seeds) are fixed here and in simulate.py; the assertions
elsewhere only rely on the documented statistical behavior, not on these
particular choices.
"""

import dataclasses

import pytest

from doublelasso import parallel
from doublelasso import (
    StudySpec,
    confounded_benchmark,
    null_logistic_benchmark,
    sparse_linear_benchmark,
    sparse_logistic_benchmark,
)
from doublelasso.simulate import run_replications, summarize

JOBS = 4


@pytest.fixture
def pool_always(monkeypatch):
    """Send every job with jobs > 1 and several items to the process pool.

    A test seam for small library inputs; the CLI keeps the size cutoff.
    """
    monkeypatch.setattr(parallel, "SERIAL_BELOW_CELLS", 0)


class PoolStarted(Exception):
    """Raised where parallel_map would have started worker processes."""


@pytest.fixture
def pool_refused(monkeypatch):
    """Make a pool start raise PoolStarted, as on a host with two usable CPUs.

    Returns the exception class, so a test can tell which jobs would have
    gone to the pool without paying for one.
    """
    def refuse(*args, **kwargs):
        raise PoolStarted

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    return PoolStarted


def _run(study):
    results = run_replications(study, jobs=JOBS)
    reports = dict(zip(study.methods, summarize(study, results)))
    return study, results, reports


@pytest.fixture(scope="session")
def sparse_logit_study():
    """500 paired reps of the sparse logistic design, dml only."""
    return _run(sparse_logistic_benchmark())


@pytest.fixture(scope="session")
def sparse_linear_study():
    """500 paired reps of the sparse linear design, dml only."""
    return _run(sparse_linear_benchmark())


@pytest.fixture(scope="session")
def confounded_study():
    """500 paired reps of the confounded linear design, dml and naive."""
    return _run(confounded_benchmark())


@pytest.fixture(scope="session")
def null_logit_study():
    """500 paired reps of the logistic design with a zero treatment effect."""
    return _run(null_logistic_benchmark())


@pytest.fixture(scope="session")
def null_linear_study():
    """Sparse linear design with the treatment effect set to zero."""
    base = sparse_linear_benchmark()
    study = StudySpec(
        dgp=dataclasses.replace(base.dgp, alpha0=0.0),
        reps=base.reps,
        methods=("dml",),
        level=base.level,
        base_seed=base.base_seed,
    )
    return _run(study)
