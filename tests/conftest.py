"""Shared fixtures: a guard that no test leaves a child process behind, and a
switch that runs every oracle in a forked child."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process outlived the test (waitpid gave {left})")


@pytest.fixture
def forked_oracle(monkeypatch):
    """Fork the oracle of every run, however small; the list collects the
    pid of each child forked."""
    import d3c.engine

    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(d3c.engine, "_FORK_MIN_VALUES", 0)
    monkeypatch.setattr(os, "fork", fork)
    return forked
