"""Fixtures for the tests of forked sweeps, which count the children a sweep
starts and make a sweep fork whatever its points cost, and a reference
propagator that decomposes its whole generator."""

import math
import os

import pytest

from wgherald import linalg, sweep


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children `os.fork` starts in this process, in order."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


@pytest.fixture
def free_forks(monkeypatch, forks):
    """`forks`, with forks costing nothing: every sweep of jobs > 1 forks."""
    monkeypatch.setattr(sweep, "FORK_COST_S", 0.0)
    return forks


@pytest.fixture
def full_propagator():
    """Builds a `Propagator` that decomposes its whole generator at any
    dimension, with no Krylov reduction: the reference for a reduced one."""
    def build(g, v0, horizon):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "KRYLOV_MIN_DIM", math.inf)
            return linalg.Propagator(g, v0, horizon)
    return build
