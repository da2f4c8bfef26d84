"""Large arrays: recycled buffers, the problem's one-pass validation and
the passes that a worker thread shares.

From 4 MiB up to 16 MiB, the problem's copy and the l2 plan live in
2 MiB-aligned buffers from a pool, and a freed buffer is handed to the
next array of its size; any other size is a plain numpy array (see
solvers._empty).  These tests pin what that must never change: a live
array keeps its bytes, a recycled plan holds the bytes of a fresh one,
and the free list stays bounded, also under threads.  A sparse plan is
read-only for good, and its buffer goes back to the pool as zeros.
ContributionProblem copies and checks the deltas a block at a time; the
validation tests put a non-finite value at each block edge.
From 2^19 entries on, where more than one CPU is usable, a worker thread
takes blocks of the whole-array passes beside the caller (solvers._blocks):
its plans must be the serial plans, byte for byte, also after a fork.
The dense l2 route selects its live gaps a block at a time (solvers._below):
it must keep the gaps and the count that one partition of the whole array
keeps.  Each Michelot round keeps its live gaps the same way
(solvers._partition), with no array of the live set's size: on a warm
pool, a solve that keeps most of a million gaps through its rounds
allocates well under a megabyte.  Scaled by 2^j, the threaded plans on
both routes scale by 2^j, byte for byte, and each is a member of the l1
family (is_l1_optimal).  A contribution split in two steps gets the
one-step plan, and no entry falls as the budget rises, to a few ulps.
"""

import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nosell as ns
from nosell import solvers

from helpers import MASTER_SEED, assert_monotone, assert_split

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



# -- the dense route's blocked selection --------------------------------------

def _select(deltas, cut, monkeypatch, serial):
    """A copy of _below's live gaps, which stay at the front of its gap
    buffer, and their sum: threaded, or with the worker off."""
    with monkeypatch.context() as patch:
        if serial:
            patch.setattr(solvers, "_idle_worker", lambda: None)
        gaps = solvers._empty(deltas.size)
        live, total, _ = solvers._below(gaps, float(deltas.max()), deltas, cut)
    assert np.shares_memory(live, gaps) and live.ctypes.data == gaps.ctypes.data
    return live.copy(), total


@pytest.mark.parametrize("n", [N - 1, N, N + 1, 2 * N + 12345])
def test_blocked_selection_keeps_the_gaps_of_a_whole_array_partition(n, monkeypatch):
    block = solvers._BLOCK
    rng = np.random.default_rng((MASTER_SEED, 14, n))
    deltas = _deltas(11, n)
    # the first block keeps all its gaps and the second all but one, so the
    # third block's front moves down by one, onto itself; the fourth block
    # keeps none and the fifth one
    deltas[: 2 * block] = rng.uniform(9e3, 9.5e3, 2 * block)
    deltas[block + 100] = -1e4
    deltas[3 * block : 5 * block] = rng.uniform(-1e4, -9e3, 2 * block)
    deltas[4 * block + 777] = 9e3
    d_max = float(deltas.max())
    whole = d_max - deltas
    cut = 5e3
    third = np.sort(whole[2 * block : 3 * block][whole[2 * block : 3 * block] <= cut])
    k = int(np.count_nonzero(whole <= cut))
    whole.partition(k - 1)
    live, total = _select(deltas, cut, monkeypatch, serial=False)
    assert live.size == k
    assert np.array_equal(np.sort(live), np.sort(whole[:k]))
    assert total == pytest.approx(math.fsum(live.tolist()), rel=1e-12)
    # block by block, in block order
    front = 2 * block - 1
    assert np.array_equal(np.sort(live[:front]), np.sort(np.delete(d_max - deltas[: 2 * block], block + 100)))
    assert np.array_equal(np.sort(live[front : front + third.size]), third)
    assert live[front + third.size] == d_max - 9e3
    serial, serial_total = _select(deltas, cut, monkeypatch, serial=True)
    assert serial.tobytes() == live.tobytes() and serial_total == total


def test_blocked_selection_keeps_negative_zero_gaps():
    # a max(deltas) of -0.0 beside deltas of +0.0 gives gaps of -0.0, whose
    # bits are the smallest int64: the selection still keeps every gap <= cut
    rng = np.random.default_rng((MASTER_SEED, 16))
    deltas = -rng.uniform(0.0, 1e4, N + 1)
    deltas[rng.choice(N + 1, N // 3, replace=False)] = 0.0
    gaps = solvers._empty(N + 1)
    live, _, _ = solvers._below(gaps, -0.0, deltas, 5e3)
    whole = -0.0 - deltas
    assert np.count_nonzero(np.signbit(whole)) == N // 3
    assert np.array_equal(np.sort(live), np.sort(whole[whole <= 5e3]))
    assert np.count_nonzero(np.signbit(live)) == N // 3


def _spied(monkeypatch, name, calls):
    helper = getattr(solvers, name)

    def recorded(*args, **kwargs):
        calls.append((name, args, kwargs))
        return helper(*args, **kwargs)

    monkeypatch.setattr(solvers, name, recorded)


def _serial_digest(problem, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_idle_worker", lambda: None)
        return _digest(ns.solve_l2(problem))


def test_dense_route_cuts_again_past_a_sample_of_small_gaps(monkeypatch):
    # every sampled gap lies in [0, 10], every other one in [9, 20]: the
    # sample sees more small gaps than the vector has, so its cut falls
    # short of t, and the bound cuts again, higher
    n = N + 1
    step = -(-n // solvers._SAMPLE)
    rng = np.random.default_rng((MASTER_SEED, 15))
    gaps = rng.uniform(9.0, 20.0, n)
    gaps[::step] = rng.uniform(0.0, 10.0, gaps[::step].size)
    gaps[0] = 0.0
    budget = 1.25 * n
    problem = ns.ContributionProblem(-gaps, budget)
    calls = []
    _spied(monkeypatch, "_below", calls)
    solution = ns.solve_l2(problem)
    cuts = [args[-1] for _, args, _ in calls]
    assert len(cuts) == 2 and cuts[0] < cuts[1], cuts
    ascending = np.sort(gaps)
    k = solvers._prefix_count(ascending, budget)
    assert solution.active_count == k and 64 * k > n
    assert ns.kkt_check_l2(problem, solution.adjustments, solution.threshold)
    assert _serial_digest(problem, monkeypatch) == _digest(solution)


@pytest.mark.parametrize("n", [N + 1, 2 * N + 12345])
def test_dense_route_funds_all_gaps_in_input_order(n, monkeypatch):
    # every gap is funded: the selection keeps every block whole, so the
    # plan is funded from the gaps in place, with no refill
    problem = ns.ContributionProblem(_deltas(12, n), 1e12)
    calls = []
    _spied(monkeypatch, "_fund", calls)
    solution = ns.solve_l2(problem)
    assert solution.active_count == n
    assert [kwargs.get("refill", "missing") for _, _, kwargs in calls] == [None]
    lam = solution.threshold
    assert np.allclose(solution.adjustments, problem.deltas - lam, rtol=0.0, atol=1e-3)
    assert ns.kkt_check_l2(problem, solution.adjustments, lam)
    assert _serial_digest(problem, monkeypatch) == _digest(solution)


def _clustered(n):
    return 1000.0 + np.random.default_rng((MASTER_SEED, 17, n)).uniform(-1e-3, 1e-3, n)


def _traced_peak(solve):
    """``(solve(), peak)``: the result and the peak of the memory traced
    while it ran, in bytes."""
    tracemalloc.start()
    try:
        return solve(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("budget", [100.0, 534.0, 5000.0])
def test_threaded_rounds_keep_most_of_a_million_gaps_in_place(budget, monkeypatch):
    # clustered deltas: the rounds keep a third, most or all of the gaps
    n = 2 * N + 12345
    problem = ns.ContributionProblem(_clustered(n), budget)
    # warm: the plan's buffer and the worker are ready before the trace
    ns.solve_l2(problem)
    solution, peak = _traced_peak(lambda: ns.solve_l2(problem))
    assert peak < 500_000, peak
    gaps = np.subtract(problem._d_max, problem.deltas)
    assert solution.active_count == solvers._prefix_count(np.sort(gaps), budget)
    assert 64 * solution.active_count > n
    assert ns.kkt_check_l2(problem, solution.adjustments, solution.threshold)
    assert _serial_digest(problem, monkeypatch) == _digest(solution)


@pytest.mark.parametrize("n", [N + 1, 2 * N + 12345])
def test_threaded_plans_scale_by_powers_of_two(n):
    # every delta, gap and budget stays normal at 2^-200 and 2^200; the
    # first budget of each shape takes the sparse route, the second the dense
    cases = ((_deltas(18, n), (SPARSE, DENSE)), (_clustered(n), (1e-3, 534.0)))
    routes = []
    for deltas, budgets in cases:
        for budget in budgets:
            problem = ns.ContributionProblem(deltas, budget)
            solution, family = ns.solve_l2(problem), ns.solve_l1(problem)
            routes.append(64 * solution.active_count <= n)
            for j in (-200, 200):
                scaled = ns.ContributionProblem(np.ldexp(deltas, j), math.ldexp(budget, j))
                plan = ns.solve_l2(scaled)
                assert plan.adjustments.tobytes() == np.ldexp(solution.adjustments, j).tobytes()
                assert plan.threshold == math.ldexp(solution.threshold, j)
                assert plan.active_count == solution.active_count
                scaled_family = ns.solve_l1(scaled)
                assert scaled_family.particular.tobytes() == np.ldexp(family.particular, j).tobytes()
                assert scaled_family.slack == math.ldexp(family.slack, j)
                assert scaled_family.scale == family.scale
    assert routes == [True, False, True, False]


def test_threaded_l2_plans_are_l1_plans(monkeypatch):
    # the l2 plan lies in solve_l1's family (see test_properties.py) on
    # both sampled routes, at a size whose passes the worker thread shares,
    # in the deficit and the surplus case
    reached = {"sparse": 0, "dense": 0, "deficit": 0, "surplus": 0}
    for route, name in (("sparse", "_candidates"), ("dense", "_below")):
        def counted(*args, route=route, cut_at=getattr(solvers, name)):
            reached[route] += 1
            return cut_at(*args)

        monkeypatch.setattr(solvers, name, counted)
    n = N + 1

    @settings(max_examples=24, derandomize=True, deadline=None)
    @given(k=st.integers(min_value=0, max_value=2**16), clustered=st.booleans(),
           budget=st.floats(min_value=-3.0, max_value=11.0).map(lambda e: 10.0**e))
    def check(k, clustered, budget):
        deltas = _deltas(k, n)
        if clustered:
            deltas = 1000.0 + deltas * 1e-7
        problem = ns.ContributionProblem(deltas, budget)
        assert ns.is_l1_optimal(problem, ns.solve_l2(problem).adjustments), (k, clustered, budget)
        reached[ns.solve_l1(problem).case.value] += 1

    check()
    assert all(reached.values()), reached


def test_threaded_l2_plans_split_and_rise_with_the_budget(monkeypatch):
    # the split and monotone properties (see test_properties.py) on both
    # sampled routes, at a size whose passes the worker thread shares: the
    # one-step plan for y1 + y2 is the plan of y1, then of y2 on its final
    # values, and no entry of it lies below the plan of y1 alone
    routes = {"sparse": 0, "dense": 0}
    for route, name in (("sparse", "_candidates"), ("dense", "_below")):
        def counted(*args, route=route, cut_at=getattr(solvers, name)):
            routes[route] += 1
            return cut_at(*args)

        monkeypatch.setattr(solvers, name, counted)
    n = N + 1

    @settings(max_examples=24, derandomize=True, deadline=None)
    @given(k=st.integers(min_value=0, max_value=2**16), clustered=st.booleans(),
           budgets=st.lists(st.floats(min_value=-3.0, max_value=11.0).map(lambda e: 10.0**e), min_size=2, max_size=2))
    def check(k, clustered, budgets):
        rng = np.random.default_rng((MASTER_SEED, 17, k))
        values = 1000.0 + rng.uniform(-1e-3, 1e-3, n) if clustered else rng.uniform(0.0, 1e4, n)
        targets = rng.dirichlet(np.ones(n))
        first, second = budgets
        step, whole = assert_split(values, targets, first, second)
        assert_monotone(values, step, whole, first + second)

    check()
    assert all(routes.values()), routes


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


def test_problem_refuses_non_finite_at_every_block_edge_past_the_threaded_bound():
    # 2^19 + 1 deltas: blocks go to the worker thread too, and its error is raised
    for bad in (np.nan, np.inf, -np.inf):
        test_problem_refuses_non_finite_at_every_block_edge(N + 1, bad)


# -- passes shared with a worker thread --------------------------------------

def _fresh_process_digest(k, budget):
    """The digest of the plan of ``_deltas(k)`` at ``budget``, solved first
    thing in a new interpreter."""
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import nosell as ns\n"
        "from test_buffers import _deltas, _digest\n"
        "print(_digest(ns.solve_l2(ns.ContributionProblem(_deltas(int(sys.argv[2])), float(sys.argv[3])))))\n"
    )
    env = dict(os.environ)
    src = str(Path(ns.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    tests = str(Path(__file__).resolve().parent)
    out = subprocess.run([sys.executable, "-c", script, tests, str(k), repr(budget)],
                         capture_output=True, text=True, check=True, env=env)
    return out.stdout.strip()


@pytest.mark.parametrize("n", [N - 1, N, N + 1, 2 * N + 12345])
def test_threaded_passes_match_serial_bytes(n, monkeypatch):
    deltas = _deltas(8, n)
    budgets = (1e-3, 10.0, SPARSE, 1e5, DENSE)

    def solve_all():
        solutions = [ns.solve_l2(ns.ContributionProblem(deltas, budget)) for budget in budgets]
        return [_digest(s) for s in solutions], [64 * s.active_count <= n for s in solutions]

    threaded, sparse = solve_all()
    monkeypatch.setattr(solvers, "_idle_worker", lambda: None)
    assert solve_all() == (threaded, sparse)
    # both routes
    assert sparse == [True, True, True, True, False]


def test_threaded_passes_keep_the_callers_error_state(monkeypatch):
    # a gap between deltas of opposite sign near the float64 maximum is inf,
    # an overflow that solve_l2 lets pass on the caller and on the worker
    deltas = np.full(N + 1, 1e308)
    deltas[1::2] = -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        threaded = ns.solve_l2(ns.ContributionProblem(deltas, 1.0))
        assert threaded.active_count == np.count_nonzero(deltas > 0)
        monkeypatch.setattr(solvers, "_idle_worker", lambda: None)
        assert _digest(ns.solve_l2(ns.ContributionProblem(deltas, 1.0))) == _digest(threaded)


def test_a_worker_takes_blocks_beside_the_caller():
    if solvers._cpus() < 2:
        pytest.skip("one usable CPU: every block runs on the caller")
    caller = threading.get_ident()
    threads = []
    worker_started = threading.Event()

    def kernel(block):
        threads.append(threading.get_ident())
        if threads[-1] == caller:
            # hold the caller's first block until the worker has one too
            worker_started.wait(10)
        else:
            worker_started.set()
        return block.start

    n = 2 * N
    assert solvers._blocks(kernel, n) == list(range(0, n, solvers._BLOCK))
    assert len(threads) == n // solvers._BLOCK and len(set(threads)) == 2


def test_callers_on_more_threads_than_cpus_share_the_worker():
    # one caller at a time holds the worker, the others run their passes
    # alone; a block run twice or lost, or a buffer handed out twice, would
    # change a plan
    vectors = [_deltas(k, N + 1) for k in range(2)]
    inputs = [(k, budget) for k in range(2) for budget in (SPARSE, DENSE)]

    def solve_all():
        return [_digest(ns.solve_l2(ns.ContributionProblem(vectors[k], budget))) for k, budget in inputs]

    serial = solve_all()
    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda name=name: results.update({name: solve_all()})) for name in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {name: serial for name in range(4)}
    assert len(solvers._free) <= solvers._FREE_BUFFERS


def test_worker_keeps_no_buffer_after_its_task(monkeypatch):
    ns.solve_l2(ns.ContributionProblem(_deltas(0), SPARSE))
    fills = []
    clear = solvers._clear
    monkeypatch.setattr(solvers, "_clear", lambda buf: fills.append(buf) or clear(buf))
    solution = ns.solve_l2(ns.ContributionProblem(_deltas(0), SPARSE))
    assert 64 * solution.active_count <= N
    assert solvers._worker or solvers._cpus() < 2
    # no fill: the worker's last task was the candidates' pass over the problem's copy
    assert not fills
    del solution
    # the problem's copy and the plan, neither held by the worker's last task
    assert len(solvers._free) == 2
    addresses = {np.frombuffer(buf, dtype=np.uint8).ctypes.data for _, buf, _ in solvers._free}
    assert solvers._empty(N).ctypes.data in addresses


@pytest.mark.parametrize("n", [10_000, N])
def test_sparse_plan_and_its_views_refuse_writeable(n):
    plan = ns.solve_l2(ns.ContributionProblem(_deltas(9, n), 1e-3)).adjustments
    assert 0 < np.count_nonzero(plan) <= n // 64
    for array in (plan, plan[1:], plan[::2], plan.reshape(-1, 2), np.asarray(plan)):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flags.writeable = True


def test_sparse_plan_on_a_freed_sparse_plan_takes_it_without_a_fill(monkeypatch):
    problem = ns.ContributionProblem(_deltas(1), SPARSE)
    first = ns.solve_l2(ns.ContributionProblem(_deltas(0), SPARSE))
    assert 64 * first.active_count <= N
    address = first.adjustments.ctypes.data
    del first
    fills = []
    clear = solvers._clear
    monkeypatch.setattr(solvers, "_clear", lambda buf: fills.append(buf) or clear(buf))
    sparse = ns.solve_l2(problem)
    assert 64 * sparse.active_count <= N
    # the freed plan's entries were zeroed again, so its buffer needs no fill
    assert sparse.adjustments.ctypes.data == address and not fills
    assert _fresh_process_digest(1, SPARSE) == _digest(sparse)
    # a buffer that another array wrote is filled before a sparse plan takes it
    del problem, sparse
    dense = ns.solve_l2(ns.ContributionProblem(_deltas(0), DENSE))
    del dense
    fills.clear()
    assert _digest(ns.solve_l2(ns.ContributionProblem(_deltas(1), SPARSE))) == _fresh_process_digest(1, SPARSE)
    assert len(fills) == 1


def _solve_and_send(send, deltas):
    digests = [_digest(ns.solve_l2(ns.ContributionProblem(deltas, budget))) for budget in (SPARSE, DENSE)]
    # the parent's worker thread did not come along: the child started its own
    send.send((digests, any(thread.name == "nosell-blocks" for thread in threading.enumerate())))
    send.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform")
def test_forked_child_solves_after_a_threaded_solve():
    deltas = _deltas(10, 2 * N + 12345)
    digests = [_digest(ns.solve_l2(ns.ContributionProblem(deltas, budget))) for budget in (SPARSE, DENSE)]
    # the solves ran on the worker thread, where more than one CPU is usable
    threaded = solvers._cpus() > 1
    assert bool(solvers._worker) == threaded
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    with warnings.catch_warnings():
        # from Python 3.12, a fork of a process with threads warns
        warnings.simplefilter("ignore", DeprecationWarning)
        child = context.Process(target=_solve_and_send, args=(send, deltas))
        child.start()
    # the child holds the only write end now: if it dies, the poll ends
    send.close()
    try:
        assert receive.poll(30), "the forked child did not finish its solves in 30 s"
        assert receive.recv() == (digests, threaded)
    finally:
        child.kill()
        child.join()
