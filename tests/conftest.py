import os

import pytest

import optforce.dynamics


@pytest.fixture
def cpus(monkeypatch):
    """use(n) lets the process use n CPUs; use(n, n_paths) also checks that a
    batch of n_paths then runs as n groups."""
    def use(n, n_paths=None):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        if n_paths is not None:
            assert len(optforce.dynamics._groups(n_paths)) == n
    return use
