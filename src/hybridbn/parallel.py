"""The package's one parallel layer: a map over independent cells in forked
worker processes.

Only work that shares no state between cells belongs here, such as the
folds of a cross-validated experiment or the (size, repeat) cells of a
benchmark sweep. The skeleton phase is not split: its targets share one
test cache, and private caches would run the same tests many times over.
"""

import os

# The function being mapped, set only while a pool runs. Forked workers
# inherit it, so it may be a closure over large data that is never pickled.
_cell_fn = None


def _run_cell(i):
    return _cell_fn(i)


def fork_map(fn, count, jobs):
    """Return [fn(0), ..., fn(count - 1)], in that order.

    Up to min(jobs, count, os.cpu_count()) forked worker processes run the
    cells. With one worker or fewer, or where the ``fork`` start method is
    not available, the cells run in order in the calling process. Only the
    cell indices and the results cross between processes, so results must
    pickle. An exception raised in a cell is raised here with the same type
    and message; with several workers, later cells may have run by then.
    Not safe to call from two threads of one process at once, and results
    must not depend on which process computed them.
    """
    global _cell_fn
    workers = min(jobs, count, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(i) for i in range(count)]
    # imported here, so that a process that never runs a pool never loads them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(i) for i in range(count)]
    _cell_fn = fn
    try:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            return list(pool.map(_run_cell, range(count)))
    finally:
        _cell_fn = None
