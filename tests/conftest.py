"""Shared fixtures: a guard that no test leaves a child process or a thread
behind, and a switch that runs every oracle in a forked child; and a fault
injector for the signals one node hears."""

import os
import time

import pytest

from d3c.engine import _one_thread


def until_one_thread():
    """Wait until the threads a test started have left the kernel's task
    list, which can lag behind ``join``, so that later runs fork again."""
    deadline = time.monotonic() + 10
    while not _one_thread():
        assert time.monotonic() < deadline, "a thread outlived its test"
        time.sleep(0.01)


def fault_signals_heard_by(monkeypatch, receiver, fault):
    """Hand ``receiver`` ``fault(signal)`` for each signal it finds in the
    broadcast store (None: the signal is missing); other nodes hear the
    store as it is. Faulting a signal at its sender would reach every
    node that hears it, and another node may decode with it first."""
    import d3c.engine

    real_get = d3c.engine._Node.get

    def get(node, key, default=None):
        found = real_get(node, key, default)
        return fault(found) if node.k == receiver and found is not None else found

    monkeypatch.setattr(d3c.engine._Node, "get", get)


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    """Fail a test that leaves a thread, or a child process running or
    unreaped. A live thread keeps every later oracle in-process."""
    yield
    until_one_thread()
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process outlived the test (waitpid gave {left})")


@pytest.fixture
def forked_oracle(monkeypatch):
    """Fork the oracle of every run, however small, as on a host with two
    CPUs; the list collects the pid of each child forked."""
    import d3c.engine

    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(d3c.engine, "_FORK_MIN_VALUES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", fork)
    return forked
