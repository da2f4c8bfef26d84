"""Large arrays: recycled buffers and the problem's one-pass validation.

From 4 MiB up to 16 MiB, the problem's copy and the l2 plan live in
2 MiB-aligned buffers from a pool, and a freed buffer is handed to the
next array of its size; any other size is a plain numpy array (see
solvers._empty).  These tests pin what that must never change: a live
array keeps its bytes, a recycled plan holds the bytes of a fresh one,
and the free list stays bounded, also under threads.
ContributionProblem copies and checks the deltas a block at a time; the
validation tests put a non-finite value at each block edge.
"""

import hashlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import nosell as ns
from nosell import solvers

from helpers import MASTER_SEED

#: 4 MiB of float64: the smallest size that comes from the pool
N = 1 << 19
#: budgets that fund a few hundred assets of uniform +-1e4 deltas (the
#: sparse route) and tens of thousands (the dense route, whose plan is its
#: gap buffer)
SPARSE, DENSE = 1e3, 1e8


def _deltas(k, n=N):
    return np.random.default_rng((MASTER_SEED, 13, k)).uniform(-1e4, 1e4, n)


def _digest(solution):
    return hashlib.sha256(solution.adjustments.tobytes() + repr((solution.threshold, solution.active_count)).encode()).hexdigest()


# -- recycled buffers --------------------------------------------------------

def test_live_solution_and_its_view_keep_their_bytes():
    problem = ns.ContributionProblem(_deltas(0), SPARSE)
    solution = ns.solve_l2(problem)
    whole = solution.adjustments.tobytes()
    view = solution.adjustments[solution.adjustments.argmax():][:10]
    part = view.tobytes()
    del problem
    later = [ns.solve_l2(ns.ContributionProblem(_deltas(k), budget)) for k in (1, 2) for budget in (SPARSE, DENSE)]
    assert solution.adjustments.tobytes() == whole
    assert not any(np.shares_memory(solution.adjustments, s.adjustments) for s in later)
    del solution, later
    # the view alone still holds the plan's buffer
    for k in (3, 4):
        for budget in (DENSE, SPARSE):
            assert not np.shares_memory(view, ns.solve_l2(ns.ContributionProblem(_deltas(k), budget)).adjustments)
    assert view.tobytes() == part and np.count_nonzero(view)


def test_freed_map_goes_to_the_next_array_of_its_size():
    arr = solvers._empty(N)
    arr.fill(7.0)
    address = arr.ctypes.data
    del arr
    again = solvers._empty(N)
    assert again.ctypes.data == address
    # a view keeps the array alive, so its buffer stays off the list
    view = again[1:]
    del again
    assert solvers._empty(N).ctypes.data != address
    del view
    # another rounded size takes a buffer of its own
    bigger = solvers._empty(2 * N)
    assert bigger.ctypes.data != address and bigger.size == 2 * N


def test_free_list_keeps_two_maps():
    arrays = [solvers._empty(N) for _ in range(5)]
    del arrays
    assert len(solvers._free) == solvers._FREE_BUFFERS == 2


def test_map_above_the_bound_goes_back_at_once():
    big = solvers._empty(solvers._FREE_BUFFER_BYTES // 8 + 1)
    assert not isinstance(big.base, memoryview)
    listed = list(solvers._free)
    del big
    assert solvers._free == listed
    at_bound = solvers._empty(solvers._FREE_BUFFER_BYTES // 8)
    del at_bound
    assert solvers._free[-1][0] == solvers._FREE_BUFFER_BYTES


def test_sparse_plan_on_a_recycled_dense_plan_matches_a_fresh_process():
    problem = ns.ContributionProblem(_deltas(1), SPARSE)
    dense = ns.solve_l2(ns.ContributionProblem(_deltas(0), DENSE))
    assert 64 * dense.active_count > N
    address = dense.adjustments.ctypes.data
    del dense
    sparse = ns.solve_l2(problem)
    assert 64 * sparse.active_count <= N
    # the plan of zeros was filled into the buffer that held the dense plan
    assert sparse.adjustments.ctypes.data == address

    script = (
        "import sys, hashlib, numpy as np\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import nosell as ns\n"
        "from test_buffers import _deltas, _digest, SPARSE\n"
        "print(_digest(ns.solve_l2(ns.ContributionProblem(_deltas(1), SPARSE))))\n"
    )
    env = dict(os.environ)
    src = str(Path(ns.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    tests = str(Path(__file__).resolve().parent)
    out = subprocess.run([sys.executable, "-c", script, tests], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == _digest(sparse)


def test_threads_match_serial_bytes():
    vectors = [_deltas(k) for k in range(4)]
    inputs = [(k, budget) for k in range(4) for budget in (1e-3, 10.0, SPARSE, 1e5, DENSE)]

    def solve_all():
        return [_digest(ns.solve_l2(ns.ContributionProblem(vectors[k], budget))) for k, budget in inputs]

    serial = solve_all()
    results = {}

    def worker(name):
        results[name] = solve_all()

    threads = [threading.Thread(target=worker, args=(name,)) for name in ("a", "b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(inputs) == 20
    assert results == {"a": serial, "b": serial}
    assert len(solvers._free) <= solvers._FREE_BUFFERS


# -- one-pass validation -----------------------------------------------------

def _block_edges(n):
    """The first and last index of the first, a middle and the last block."""
    block = solvers._BLOCK
    blocks = -(-n // block)
    edges = []
    for b in (0, blocks // 2, blocks - 1):
        edges += [b * block, min((b + 1) * block, n) - 1]
    return sorted(set(edges))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("n", [(1 << 16) - 1, 1 << 16, (1 << 16) + 1, 1 << 20])
def test_problem_refuses_non_finite_at_every_block_edge(n, bad):
    deltas = _deltas(5, n)
    problem = ns.ContributionProblem(deltas, 1.0)
    assert problem._d_max == float(problem.deltas.max())
    for i in _block_edges(n):
        kept, deltas[i] = deltas[i], bad
        with pytest.raises(ValueError, match="deltas must be finite"):
            ns.ContributionProblem(deltas, 1.0)
        deltas[i] = kept


def test_problem_from_a_long_list():
    deltas = _deltas(6)
    listed = deltas.tolist()
    problem = ns.ContributionProblem(listed, SPARSE)
    assert problem.deltas.tobytes() == deltas.tobytes()
    assert problem._d_max == float(problem.deltas.max()) == float(deltas.max())
    assert _digest(ns.solve_l2(problem)) == _digest(ns.solve_l2(ns.ContributionProblem(deltas, SPARSE)))
    listed[-1] = float("nan")
    with pytest.raises(ValueError, match="deltas must be finite"):
        ns.ContributionProblem(listed, SPARSE)
