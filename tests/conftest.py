import os

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(params=["serial", "parallel"])
def writer_path(request, monkeypatch):
    """Force the trajectory writer's serial or forked-worker path through
    the CPU affinity it reads, and report which path each write took."""
    import multiprocessing
    from movingt import data_io
    if request.param == "parallel":
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no CPU affinity on this platform")
    cpus = {0, 1} if request.param == "parallel" else {0}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                        raising=False)
    taken = []
    choose = data_io._writer_processes

    def spy(rows):
        taken.append(choose(rows))
        return taken[-1]
    monkeypatch.setattr(data_io, "_writer_processes", spy)
    yield request.param, taken
    assert multiprocessing.active_children() == []
