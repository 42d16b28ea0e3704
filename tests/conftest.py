import errno
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


@pytest.fixture
def fork_fails(monkeypatch):
    """os.fork raises OSError(EAGAIN), as where no further process may start;
    returns a list that grows by one entry per attempt."""
    attempts = []

    def fork():
        attempts.append(None)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", fork)
    return attempts


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
