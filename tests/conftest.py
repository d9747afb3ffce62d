"""Fixtures for the tests of forked sweeps: count the children a sweep starts,
and make a sweep fork whatever its points cost."""

import os

import pytest

from wgherald import sweep


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
