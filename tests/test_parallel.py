import concurrent.futures
import multiprocessing
import os
import time

import pytest

from hybridbn import parallel
from hybridbn.data import DataError
from hybridbn.parallel import fork_map


def _pid_of_cell(i):
    return os.getpid()


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count it was
    asked for and runs the cells in this process, through the same
    trampoline the forked workers use."""

    created = []

    def __init__(self, max_workers, mp_context=None):
        self.created.append((max_workers, mp_context.get_start_method()))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def two_cpus(monkeypatch):
    # so the pool path runs on a one-CPU machine too
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.fixture
def fake_pool(monkeypatch):
    RecordingPool.created = []
    # fork_map imports the executor when it starts a pool, so the stand-in
    # goes where that import finds it
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool.created


class TestForkMap:
    def test_results_in_input_order_with_uneven_cells(self, two_cpus):
        # early cells take longest, so the workers finish out of order; the
        # cell is a closure, which reaches the workers through fork unpickled
        def cell(i):
            time.sleep(0.02 * (5 - i))
            return i * i

        assert fork_map(cell, 6, 2) == [0, 1, 4, 9, 16, 25]

    @pytest.mark.parametrize("count, jobs", [(4, 1), (4, 0), (1, 2), (0, 2)])
    def test_one_worker_or_cell_runs_in_process(self, count, jobs, fake_pool):
        assert fork_map(_pid_of_cell, count, jobs) == [os.getpid()] * count
        assert fake_pool == []

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_cells_run_in_worker_processes(self, two_cpus):
        pids = fork_map(_pid_of_cell, 4, 2)
        assert len(pids) == 4
        assert os.getpid() not in pids
        assert parallel._cell_fn is None

    @pytest.mark.parametrize("error", [ValueError, DataError])
    def test_cell_errors_keep_type_and_message(self, error, two_cpus):
        def cell(i):
            if i == 2:
                raise error(f"cell {i} failed")
            return i

        with pytest.raises(error) as info:
            fork_map(cell, 4, 2)
        assert type(info.value) is error
        assert str(info.value) == "cell 2 failed"
        assert parallel._cell_fn is None

    def test_without_fork_runs_in_process(self, monkeypatch, fake_pool):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn", "forkserver"])
        assert fork_map(_pid_of_cell, 4, 2) == [os.getpid()] * 4
        assert fake_pool == []

    @pytest.mark.parametrize("count, jobs, cpus, workers", [
        (10, 64, 3, 3),
        (2, 64, 3, 2),
        (10, 2, 3, 2),
        (10, 64, None, None),
    ])
    def test_worker_cap(self, count, jobs, cpus, workers, monkeypatch,
                        fake_pool):
        # os.cpu_count() may return None; that counts as one CPU
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert fork_map(lambda i: -i, count, jobs) == [-i for i in range(count)]
        assert fake_pool == ([(workers, "fork")] if workers else [])
        assert parallel._cell_fn is None
