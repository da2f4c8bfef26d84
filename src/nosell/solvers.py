"""Closed-form solvers for budget-constrained, buy-only allocation.

Given per-asset shortfalls ``deltas`` (how far each asset sits below its
ideal post-contribution holding; negative entries mean the asset is
already overweight) and a cash budget ``y > 0``, the problem is

    minimize    ||x - deltas||           (l2 or l1 norm)
    subject to  x >= 0,  sum(x) = y.

Both norms admit closed-form answers.  The l2 minimizer is unique and has
water-filling form ``x_i = max(deltas_i - lam, 0)`` for a scalar threshold
``lam``.  The l1 problem has a whole polytope of minimizers, represented
here by :class:`L1SolutionFamily`.

The l2 solver doubles as a Euclidean projection onto the simplex of size
``y``; :func:`simplex_mle` exposes the unit-simplex case directly.
"""

from __future__ import annotations

import enum
import functools
import math
import os
import sys
import threading
import weakref
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

#: Absolute tolerance for feasibility checks (nonnegativity, stationarity).
FEAS_TOL = 1e-9
#: Michelot rounds before solve_l2 sorts the live gaps instead, which bounds
#: its worst case.  Started from the proven cut of the sorted sample, the
#: million_l2 inputs at n = 1e6 (seeds 1-3, 540 solves on both routes) take
#: at most 8 rounds (median 3), each of which drops gaps; the check that
#: ends them compares two floats.  5847 copies of 171 gap levels built so
#: that plain Michelot drops one level per round take 1.
_MAX_ROUNDS = 32
#: Gaps in the sorted sample that seeds solve_l2: up to this many assets the
#: sample is the whole vector and its scan is the answer.  At n = 1e6 the
#: sample costs about 0.06 ms against 2-3 ms for the dense route's
#: selection of the whole gap buffer.
_SAMPLE = 4096
#: Arrays of this many bytes up to _FREE_BUFFER_BYTES come from the pool (see
#: _empty); numpy hints huge pages for any array from this size on.
_POOLED_BYTES = 1 << 22
_HUGE_PAGE = 1 << 21
#: Freed buffers that _empty keeps for reuse, at most, and the largest buffer
#: it pools (two million float64): the free list never holds more than 32 MiB.
_FREE_BUFFERS = 2
_FREE_BUFFER_BYTES = 4 * _POOLED_BYTES
#: Entries that one step of a whole-array pass (see _blocks) takes at a
#: time: 512 KiB of float64, which stays in cache between, say, the
#: problem's copy of a block and its check.
_BLOCK = 1 << 16
#: Entries from which a worker thread takes blocks beside the caller: the
#: pool's lower bound, 2^19 float64.
_THREADED = _POOLED_BYTES // 8


def sum_tolerance(budget: float) -> float:
    """Tolerance for budget-conservation checks, relative for large budgets."""
    return 1e-9 * max(1.0, abs(_to_float(budget)))


class Norm(enum.Enum):
    L1 = "l1"
    L2 = "l2"


class L1Case(enum.Enum):
    SURPLUS = "surplus"
    DEFICIT = "deficit"


def _as_norm(norm: Union[Norm, str]) -> Norm:
    if isinstance(norm, Norm):
        return norm
    return Norm(str(norm).lower())


def _to_float(value) -> float:
    """``float(value)``, with an int too large for float64 read as inf, so
    that it meets the same finiteness check as an infinite float."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _to_floats(values) -> np.ndarray:
    """``values`` as a flat float64 array, each entry read as by _to_float."""
    try:
        return np.asarray(values, dtype=np.float64).reshape(-1)
    except OverflowError:
        return np.array([_to_float(v) for v in np.asarray(values, dtype=object).reshape(-1)])


def _check_budget(budget: float) -> float:
    budget = _to_float(budget)
    if not math.isfinite(budget) or budget <= 0.0:
        raise ValueError("budget must be a positive finite number")
    return budget


def _sum_error(total: float, budget: float) -> Optional[str]:
    """The sum half of the buy-only plan rule: why a plan whose entries sum
    to ``total`` breaks it, or None.  A NaN or infinite entry makes the sum
    non-finite."""
    if not math.isfinite(total):
        return "an entry or the sum is not finite"
    if abs(total - budget) > sum_tolerance(budget):
        return f"the entries sum to {total!r}, not to the budget {budget!r}"
    return None


def _plan_error(plan: np.ndarray, budget: float) -> Optional[str]:
    """The buy-only plan rule: every entry finite, none below -FEAS_TOL, and
    the sum within sum_tolerance(budget).  Returns why ``plan`` breaks it,
    or None.
    """
    total = _total(plan)
    if math.isfinite(total) and plan.size and plan.min() < -FEAS_TOL:
        return "an entry is negative"
    return _sum_error(total, budget)


def _refuse(reason: Optional[str]) -> None:
    if reason is not None:
        raise ValueError(f"infeasible plan: {reason}")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


#: (size, buffer, zero) of freed pooled arrays, newest last, at most
#: _FREE_BUFFERS; ``zero`` says that the whole buffer holds +0.0.  Only
#: list.append, list.pop and one slice deletion change it, each atomic, so a
#: finalizer that runs inside _take, or in another thread, takes no lock.
_free: list = []


def _empty(n: int) -> np.ndarray:
    """An uninitialised float64 array of length n.

    Of _POOLED_BYTES to _FREE_BUFFER_BYTES, the array starts on a huge page
    boundary and its buffer is rounded up to whole huge pages, so the huge
    pages that numpy hints for it back all of it; any other size is a plain
    ``np.empty(n)``.  Solves of one size tend to come in runs, so when a
    pooled array is freed its buffer goes onto a free list, and the next
    request of the same rounded size takes it, already paged in.  The list
    keeps the two newest buffers, the problem's copy and the plan of one
    solve, and drops older ones.  Sizes that alternate gain nothing: a
    request that finds no buffer of its size drops the newest one.

    A pooled buffer is in one of two zero states.  Most come back holding
    whatever their array last held; a sparse plan's comes back all zeros
    (_scattered), and only a sparse plan asks for zeros.  So a request
    takes the newest buffer of its size in the state it wants, else the
    newest of its size: this array a written one, a sparse plan a clean
    one, which it need not fill.

    The buffer is a memoryview, not an array, so numpy does not collapse a
    view's base past the returned array: a view keeps the array alive, and
    a buffer returns to the list only once its array is gone.
    """
    size, buf = _take(n, zero=False)
    if buf is None:
        return np.empty(n)
    arr = np.frombuffer(buf, dtype=np.float64, count=n)
    weakref.finalize(arr, _keep, size, buf).atexit = False
    return arr


def _scattered(n: int, idx: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A plan of n zeros with ``values`` at ``idx``, read-only for good.

    It is exposed through a read-only memoryview, so numpy refuses to make
    it, or any view of it, writeable.  So once a pooled plan is freed, its
    buffer differs from zeros only at ``idx``: _keep zeros those entries
    again and lists the buffer as all zeros, and the next sparse plan of
    its size writes its entries into it with no fill.
    """
    size, buf = _take(n, zero=True)
    if buf is None:
        buf = memoryview(np.zeros(n))
    np.frombuffer(buf, dtype=np.float64, count=n)[idx] = values
    plan = np.frombuffer(buf.toreadonly(), dtype=np.float64, count=n)
    if size:
        weakref.finalize(plan, _keep, size, buf, idx).atexit = False
    return plan


def _take(n: int, zero: bool):
    """``(size, buffer)`` from the pool for n float64 (see _empty), or
    ``(0, None)`` for a size it does not pool.  With ``zero`` the buffer is
    all zeros."""
    if not _POOLED_BYTES <= 8 * n <= _FREE_BUFFER_BYTES:
        return 0, None
    size = -(-8 * n // _HUGE_PAGE) * _HUGE_PAGE
    # another thread may change the list between the ranking and the pop;
    # the entry popped is then checked for its size like any other
    ranked = [(kept == size, clean == zero, i) for i, (kept, _, clean) in enumerate(_free)]
    try:
        kept, buf, clean = _free.pop(max(ranked)[2])
    except (ValueError, IndexError):
        kept = 0
    if kept != size:
        raw = np.empty(size + _HUGE_PAGE, dtype=np.uint8)
        start = -raw.ctypes.data % _HUGE_PAGE
        buf, clean = memoryview(raw[start : start + size]), False
    if zero and not clean:
        _clear(buf)
    return size, buf


def _clear(buf: memoryview) -> None:
    """Fill a whole pooled buffer with zeros."""
    whole = np.frombuffer(buf, dtype=np.float64)
    _blocks(lambda block: whole[block].fill(0.0), whole.size)


def _keep(size: int, buf: memoryview, idx: Optional[np.ndarray] = None) -> None:
    """Put the buffer of a freed pooled array on the free list.  A sparse
    plan's buffer differs from zeros only at its ``idx``: those entries are
    zeroed, and it goes back as all zeros."""
    if idx is not None:
        np.frombuffer(buf, dtype=np.float64)[idx] = 0.0
    _free.append((size, buf, idx is not None))
    del _free[:-_FREE_BUFFERS]


def _blocks(kernel, n: int) -> list:
    """``[kernel(block) for block in blocks]`` over the _BLOCK-sized slices
    of ``[0, n)``, in block order.

    From n = _THREADED on, where more than one CPU is usable and the worker
    thread serves no other caller, the worker takes blocks beside the
    caller, each block once, under the caller's numpy error state.  numpy
    lets go of the GIL inside each block, so the two run at once.  A kernel
    touches only its own block, so its results, and every byte it writes,
    are the ones it gives alone; what it raises, on either thread, the call
    raises.
    """
    blocks = [slice(start, start + _BLOCK) for start in range(0, n, _BLOCK)]
    worker = _idle_worker() if n >= _THREADED else None
    if worker is None:
        return [kernel(block) for block in blocks]
    out = [None] * len(blocks)
    # list.pop is atomic: each block index goes to one thread
    todo = list(range(len(blocks)))[::-1]

    def run():
        for _ in blocks:
            try:
                i = todo.pop()
            except IndexError:
                return
            out[i] = kernel(blocks[i])

    worker.run(run)
    return out


class _Worker:
    """One daemon thread that runs a caller's task beside the caller.

    ``free`` is held by the caller it serves; ``go`` and ``done`` hand a
    task over and back.  It drops the task before it reports done, so it
    keeps no array alive between tasks.
    """

    def __init__(self):
        self.free, self.go, self.done = threading.Lock(), threading.Lock(), threading.Lock()
        self.go.acquire()
        self.done.acquire()
        self.task = self.error = self.errstate = None
        threading.Thread(target=self._serve, name="nosell-blocks", daemon=True).start()

    def _serve(self):
        while True:
            self.go.acquire()
            try:
                with np.errstate(**self.errstate):
                    self.task()
            except BaseException as exc:
                # run raises it on the caller; a traceback would keep the
                # task's frames, and their arrays, alive
                self.error = exc.with_traceback(None)
            finally:
                self.done.release()

    def run(self, task) -> None:
        """Run ``task`` on the caller and on the worker at once, then give
        the worker back; raise what either raised."""
        self.task, self.errstate = task, np.geterr()
        self.go.release()
        try:
            task()
        finally:
            self.done.acquire()
            error, self.task, self.error = self.error, None, None
            self.free.release()
        if error is not None:
            try:
                raise error
            finally:
                error = None  # no cycle between this frame and the exception


#: the worker thread: None until a pass first asks for it, False where one
#: CPU is usable
_worker = None
_hiring = threading.Lock()


def _idle_worker() -> Optional[_Worker]:
    """The worker, now held by the caller, or None: one CPU is usable, or
    it serves another caller."""
    global _worker
    if _worker is None:
        with _hiring:
            if _worker is None:
                _worker = _Worker() if _cpus() > 1 else False
    if _worker and _worker.free.acquire(blocking=False):
        return _worker
    return None


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (macOS has none), else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forget_worker() -> None:
    """In a forked child: the worker thread did not come along, and its
    locks may be held, so the next pass builds a new worker."""
    global _worker, _hiring
    _worker, _hiring = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _finite_max(block: np.ndarray) -> float:
    """``max(block)``; ValueError if an entry is not finite.  NaN carries
    through min and max, so finite ends mean finite entries."""
    lo, hi = block.min(), block.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("deltas must be finite")
    return hi


@dataclass(frozen=True, eq=False)
class ContributionProblem:
    """A validated problem instance.

    Parameters
    ----------
    deltas:
        Per-asset shortfalls.  Any finite values, any order, length >= 1.
        Copied to an immutable float64 array.
    budget:
        Cash to allocate.  Must be finite and strictly positive.
    """

    deltas: np.ndarray
    budget: float
    _d_max: float = field(init=False, repr=False)

    def __post_init__(self):
        src = _to_floats(self.deltas)
        n = src.size
        if n == 0:
            raise ValueError("deltas must be non-empty")
        arr = _empty(n)

        def check(block):
            # one pass: each block is checked while its copy is in cache
            np.copyto(arr[block], src[block])
            return _finite_max(arr[block])

        d_max = max(_blocks(check, n))
        object.__setattr__(self, "deltas", _frozen(arr))
        object.__setattr__(self, "budget", _check_budget(self.budget))
        object.__setattr__(self, "_d_max", float(d_max))

    @classmethod
    def _own(cls, deltas: np.ndarray, budget: float) -> ContributionProblem:
        """A problem on checked float64 deltas, frozen in place, not copied."""
        problem = cls.__new__(cls)
        object.__setattr__(problem, "deltas", _frozen(deltas))
        object.__setattr__(problem, "budget", budget)
        object.__setattr__(problem, "_d_max", float(deltas.max()))
        return problem

    @property
    def n(self) -> int:
        return self.deltas.size

    def positive_parts(self) -> np.ndarray:
        """Elementwise max(deltas, 0)."""
        return np.maximum(self.deltas, 0.0)


@dataclass(frozen=True, eq=False)
class L2Solution:
    """Unique l2 minimizer plus its certificate.

    ``adjustments`` is in the original input order.  ``active_count`` is
    the number of assets that receive money, ``threshold`` the water level
    ``lam``: every funded asset ends exactly ``lam`` short of its ideal.
    """

    adjustments: np.ndarray
    threshold: float
    active_count: int

    def __post_init__(self):
        object.__setattr__(self, "adjustments", _frozen(np.asarray(self.adjustments, dtype=np.float64)))


@dataclass(frozen=True, eq=False)
class L1SolutionFamily:
    """Generators of the (generally non-unique) l1 solution set.

    Exactly one of the two shapes occurs:

    * ``SURPLUS`` (budget > sum of positive parts): every solution is
      ``positive_parts + eps`` with ``eps >= 0`` summing to ``slack``.
      ``scale`` is None.
    * ``DEFICIT`` (budget <= sum of positive parts): every solution is an
      elementwise rescaling ``alpha_i * positive_parts_i`` with
      ``alpha_i in [0, 1]`` and total equal to the budget.  ``scale`` holds
      the uniform alpha of the particular solution; ``slack`` is 0.

    ``particular`` is one concrete member: uniform slack split in the
    surplus case, uniform scaling in the deficit case.
    """

    case: L1Case
    particular: np.ndarray
    positive_parts: np.ndarray
    slack: float
    scale: Optional[float]

    def __post_init__(self):
        object.__setattr__(self, "particular", _frozen(np.asarray(self.particular, dtype=np.float64)))
        object.__setattr__(self, "positive_parts", _frozen(np.asarray(self.positive_parts, dtype=np.float64)))


def solve_l2(problem: ContributionProblem) -> L2Solution:
    """Solve the l2 problem in closed form: a sorted sample, then a short
    selection.

    Works in shifted coordinates ``e_i = max(deltas) - d_i``: every term
    summed is a gap between two deltas rather than a delta, so large,
    nearly equal deltas do not cancel away a small budget.  The rule is

        a_i = max(t - e_i, 0),   sum_i a_i = budget,   lam = max(deltas) - t

    which is the water-filling rule ``a_i = max(d_i - lam, 0)``, with
    k* = #{i : e_i < t} funded assets.  Sorted gaps give t by one scan for
    the largest prefix k with ``k e_k - sum_{j<=k} e_j < budget``.

    The scan runs on a strided sample of at most ``_SAMPLE`` gaps, with the
    budget scaled by the sample's share.  Above ``_SAMPLE`` assets the
    sample only places a cut a little past its own k; the cut is kept only
    once proven.  For any set A of gaps, ``sum_{i in A} (t - e_i) <= budget``
    gives ``t <= (sum(A) + budget) / |A|``, and the largest delta alone
    could take the whole budget, so ``t <= budget``.  If the gaps at or
    below the cut give a bound no greater than the cut, every funded gap
    is among them; otherwise the gaps are cut again at that bound (or the
    budget, if smaller), which is proven by the same two facts.  Michelot
    rounds (Michelot 1986; Condat 2016) then shrink the live gaps,
    ``t = (sum(live) + budget) / |live|`` and ``live = {e in live : e < t}``,
    until the largest live gap lies below t, when no round would drop one;
    t only falls and never below its final value.  After ``_MAX_ROUNDS``
    rounds the live gaps are sorted and scanned.

    The sorted sample picks the route, once.  Scan: up to ``_SAMPLE``
    assets it is the whole vector, and its k and t fund the unsorted gaps.
    Sparse: if at most one sampled gap in 64 lies at or below the cut, the
    candidates and their gaps are found from the deltas (_candidates), and
    the gaps, in the candidates' order, are funded into a read-only plan of
    zeros (_scattered).  Dense: otherwise all n gaps fill one buffer,
    each block selected in place as it is filled (_below), and the buffer
    is refilled in input order as it is funded, unless all are funded.  On
    both routes each round keeps its live gaps in place the same way, a
    block at a time (_partition).  The passes over all n
    entries, and the rounds over as many live gaps, run a block at a time
    (_blocks), from 2^19 entries on with a worker thread beside the caller.
    A block comes out the same on either thread, a blocked sum adds the
    blocks' sums in block order, the blocks' fronts move down in block
    order on the caller, and the other sums and the sorts run whole on the
    caller, so the plan's bytes are those of one thread.

    Expected O(n) time; the worst case adds one sort of the live gaps.
    Raises ValueError rather than return a plan that breaks the buy-only
    plan rule, or a lambda that is not a finite float64.
    """
    budget = problem.budget
    deltas = problem.deltas
    d_max = problem._d_max
    n = deltas.size
    step = -(-n // _SAMPLE)
    # a gap between deltas of opposite sign near 1e308 overflows to inf,
    # which is >= any budget, so it is never funded; a scan that meets it
    # computes inf - inf, a NaN that never qualifies either.  A plan whose
    # sum overflows fails the plan check without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.subtract(d_max, deltas[::step])
        sample = np.sort(gaps)
        if step == 1:
            k, t = _prefix_scan(sample, budget)
            adjustments = _fund(t, gaps, budget)
        else:
            m = sample.size
            # a subnormal budget can scale to 0; the sample scan then counts none
            k = _prefix_count(sample, budget * (m / n))
            i = k + 2 * math.isqrt(k) + 2
            cut = min(float(sample[i]), budget) if i < m else budget
            if 64 * int(sample.searchsorted(cut, "right")) <= m:
                k, t, idx, gaps = _settle(functools.partial(_candidates, deltas, d_max), cut, budget)
                adjustments = _scattered(n, idx, _fund(t, gaps, budget))
            else:
                gaps = _empty(n)
                k, t = _settle(functools.partial(_below, gaps, d_max, deltas), cut, budget)
                # the selection reordered the buffer unless it kept all n gaps
                adjustments = _fund(t, gaps, budget, refill=(d_max, deltas) if k < n else None)
    threshold = d_max - t
    # kkt_check_l2 rejects a plan with no finite lambda
    if not math.isfinite(threshold):
        _refuse(f"the threshold {threshold!r} is not a finite float64")
    return L2Solution(adjustments=adjustments, threshold=threshold, active_count=k)


def _settle(cut_at, cut: float, budget: float):
    """``(k, t, *tag)`` from the gaps that ``cut_at(cut)`` finds at or below
    ``cut`` (see solve_l2): the cut proven, or taken again at the bound,
    then Michelot rounds.  ``cut_at`` returns ``(live, total, top, *tag)``:
    those gaps, their sum, the largest of them, and the ``tag`` of the cut
    kept.  Each round keeps the live gaps below t (_partition); once the
    largest lies below t, no round would drop one, and t is final.
    """
    for _ in range(2):
        live, total, top, *tag = cut_at(cut)
        t = _level(live, total, budget)
        if t <= cut or cut >= budget:
            break
        # the bound does not prove the cut: cut again at the bound itself
        cut = min(t, budget)
    for _ in range(_MAX_ROUNDS):
        # a subnormal budget can round t to 0; the funded gaps are then
        # the zero ones, which the smallest positive float still counts
        level = max(t, math.ulp(0.0))
        if top < level:
            return live.size, t, *tag
        live, total, top = _partition(live, level)
        t = _level(live, total, budget)
    return (*_prefix_scan(np.sort(live), budget), *tag)


def _candidates(deltas: np.ndarray, d_max: float, cut: float):
    """``(live, total, top, idx, gaps)``: the gaps of the deltas at
    ``idx``, which hold every gap ``<= cut``, as ``gaps`` in the order of
    ``idx`` and as a copy ``live`` for _settle to reorder, their sum and
    the largest of them.

    Found in delta space, as ``d_i >= c`` for the float c = max(d) - cut.
    No float lies between c and the exact difference, the float nearest
    it, so a delta left out lies below the exact difference, and its gap,
    rounded, is at least the cut: never funded while t <= cut.
    """
    floor = d_max - cut

    def found(block):
        idx = np.flatnonzero(deltas[block] >= floor)
        idx += block.start
        return idx

    idx = np.concatenate(_blocks(found, deltas.size))
    gaps = np.subtract(d_max, deltas.take(idx))
    return gaps.copy(), float(gaps.sum()), float(gaps.max()), idx, gaps


def _below(gaps: np.ndarray, d_max: float, deltas: np.ndarray, cut: float):
    """The dense route's cut: ``(live, total, top)``, the gaps
    ``d_max - deltas`` at or below ``cut`` at the front of ``gaps``, their
    sum and the largest of them.  They always hold the zero gap of the
    largest delta.  One _partition pass fills each block of ``gaps`` and
    keeps its gaps below the float next above the cut.
    """
    return _partition(gaps, np.nextafter(cut, np.inf), (d_max, deltas))


def _partition(gaps: np.ndarray, level: float, fill=None):
    """``(live, total, top)``: the gaps below ``level`` moved to the front
    of ``gaps``, in place, their sum and the largest of them (-inf if
    there is none).  With ``fill = (d_max, deltas)`` each block of ``gaps``
    is first written as ``d_max - deltas``.

    One pass (_blocks) counts, partitions and sums each block's gaps below
    the level while it is in cache; the blocks' fronts then move down in
    block order.  So the live gaps, their sum and the largest are those of
    one thread.
    """

    def select(block):
        e = gaps[block]
        if fill is not None:
            np.subtract(fill[0], fill[1][block], out=e)
        k = int(np.count_nonzero(e < level))
        if 0 < k < e.size:
            # a gap is >= 0 and not NaN, so as int64 its bits order as the
            # gaps do (-0.0, from a max(deltas) of -0.0, first), and an
            # integer partition is about twice as fast
            e.view(np.int64).partition(k - 1)
        # the partition leaves the largest kept gap last in the front
        top = e.max() if k == e.size else e[k - 1] if k else -math.inf
        return k, float(e[:k].sum()), float(top)

    counts, totals, tops = zip(*_blocks(select, gaps.size))
    k = 0
    for start, kept in zip(range(0, gaps.size, _BLOCK), counts):
        if k < start:
            gaps[k : k + kept] = gaps[start : start + kept]
        k += kept
    return gaps[:k], sum(totals), max(tops)


def _fund(t: float, gaps: np.ndarray, budget: float, refill=None) -> np.ndarray:
    """The plan entries ``max(t - e, 0)`` of ``gaps``, in place, checked
    against ``budget``: they come out of np.maximum, so none is negative,
    and a NaN entry shows in the sum, so the sum alone is the rule; each
    block is summed as it is funded.  With ``refill = (d_max, deltas)``
    each block of gaps is first written again as ``d_max - deltas``, in the
    same pass."""

    def fund(block):
        e = gaps[block]
        if refill is not None:
            np.subtract(refill[0], refill[1][block], out=e)
        np.subtract(t, e, out=e)
        np.maximum(e, 0.0, out=e)
        return float(e.sum())

    _refuse(_sum_error(sum(_blocks(fund, gaps.size)), budget))
    return gaps


def _prefix_count(ascending: np.ndarray, budget: float) -> int:
    """The largest prefix k of sorted gaps with
    ``sum_{j<=k} (e_k - e_j) < budget`` (0 if there is none).

    That sum is 0 at k = 1, which any positive budget funds, and grows by
    the steps ``(k - 1)(e_k - e_{k-1})``, none negative, so its running
    sums never fall.  They pass the float64 maximum, or turn into NaN from
    an ``inf - inf`` step (NaN sorts last), only where the exact sum is
    past any finite budget."""
    lhs = ascending[1:] - ascending[:-1]
    lhs *= np.arange(1.0, ascending.size)
    return int(np.add.accumulate(lhs, out=lhs).searchsorted(budget)) + (budget > 0)


def _prefix_scan(ascending: np.ndarray, budget: float):
    """``(k, t)`` for sorted gaps that start with the zero gap:
    ``t = (sum_{j<=k} e_j + budget) / k``, with k as in _prefix_count and
    the sum taken in order."""
    k = _prefix_count(ascending, budget)
    live = ascending[:k]
    return k, _level(live, float(np.add.accumulate(live)[-1]), budget)


def _level(live: np.ndarray, total: float, budget: float) -> float:
    """The water level ``(total + budget) / k`` of the k finite ``live``
    gaps, whose sum is ``total``.  Where that is not finite (the sum, or
    the sum plus the budget, passed the float64 maximum) it is taken again
    as ``S / k + budget / k``, with S / k summed at a power-of-two scale
    that keeps it finite; t <= budget, so that cannot overflow."""
    k = live.size
    t = (total + budget) / k
    if math.isfinite(t):
        return t
    scale = 2.0 ** -k.bit_length()
    return float((live * scale).sum()) / (k * scale) + budget / k


def solve_l1(problem: ContributionProblem) -> L1SolutionFamily:
    """Characterize the full l1 solution set.

    The case split compares the budget against the total positive
    shortfall exactly; a budget equal to the total is a deficit.  Raises
    ValueError rather than return a particular member that breaks the
    buy-only plan rule.
    """
    pos = problem.positive_parts()
    total_pos = _total(pos)
    if problem.budget > total_pos:
        case, slack, scale = L1Case.SURPLUS, problem.budget - total_pos, None
        particular = pos + slack / problem.n
    else:
        parts, total, top = pos, total_pos, 1.0
        if not math.isfinite(total):
            # the positive parts overflow when summed: sum them scaled by the largest
            top = float(pos.max())
            parts = pos / top
            total = float(np.sum(parts))
        share = problem.budget / total
        case, slack, scale = L1Case.DEFICIT, 0.0, (problem.budget / top) / total
        # a subnormal share has lost bits (or is 0): scale the shares instead
        particular = share * parts if share >= sys.float_info.min else (parts / total) * problem.budget
    if problem.budget < sys.float_info.min:
        # each entry of a subnormal budget's split rounds to its grid on its own
        _spend(particular, pos, problem.budget)
    # nonnegative parts, scaled or raised by a positive slack: as in _fund
    _refuse(_sum_error(_total(particular), problem.budget))
    return L1SolutionFamily(
        case=case, particular=particular, positive_parts=pos, slack=slack, scale=scale
    )


def is_l1_optimal(problem: ContributionProblem, candidate) -> bool:
    """Membership test for the l1 solution set.

    Checks the buy-only plan rule (finite, nonnegative within FEAS_TOL,
    budget within sum_tolerance) plus the case-specific shape, within
    FEAS_TOL plus 4 ulps of the larger of max(positive parts) and budget:
    a surplus candidate covers every positive part, and a deficit one
    exceeds none (so it is zero wherever deltas <= 0).

    The positive parts are built once, so that the case split sums the
    array that solve_l1 sums; the shape is then tested a block at a time
    (_blocks), each block in its own scratch.
    """
    cand = _check_length(problem, candidate)
    if _plan_error(cand, problem.budget) is not None:
        return False
    pos = problem.positive_parts()
    # max(positive parts) is max(max(deltas), 0), and the budget is positive
    tol = FEAS_TOL + 4.0 * math.ulp(max(problem._d_max, problem.budget))
    over, under = (pos, cand) if problem.budget > _total(pos) else (cand, pos)
    # no entry is NaN, so a block passes iff its largest excess does
    return all(_blocks(lambda block: np.subtract(over[block], under[block]).max() <= tol, cand.size))


def kkt_check_l2(problem: ContributionProblem, candidate, threshold: float) -> bool:
    """First-order optimality check for the l2 problem.

    A candidate that satisfies the buy-only plan rule is optimal iff, with
    a finite lam = threshold, every strictly positive entry sits at
    ``deltas_i - lam`` and every zero entry has ``deltas_i <= lam`` (dual
    feasibility).  Both are tested within FEAS_TOL (an entry up to it counts
    as zero) plus 4 ulps of the funded side's scale, the larger of
    |max(deltas)| and |lam|: a funded entry has lam < deltas_i <= max(deltas),
    an unfunded one enters only through deltas_i <= lam + tol, rounded at
    lam's scale, and float64 places lam to within a few of those ulps.  Each
    block of the candidate is tested in its own scratch (_blocks).
    """
    cand = _check_length(problem, candidate)
    threshold = _to_float(threshold)
    if _plan_error(cand, problem.budget) is not None or not math.isfinite(threshold):
        return False
    deltas = problem.deltas
    tol = FEAS_TOL + 4.0 * math.ulp(max(abs(problem._d_max), abs(threshold)))
    ceiling = threshold + tol

    def test(block):
        d, c = deltas[block], cand[block]
        idle = c <= FEAS_TOL
        # dual feasibility: no unfunded delta above lam + tol
        bad = d > ceiling
        bad &= idle
        if bad.any():
            return False
        # stationarity of the funded entries; a difference past the float64
        # range is inf, and fails
        off = np.subtract(d, threshold)
        np.subtract(c, off, out=off)
        np.abs(off, out=off)
        np.greater(off, tol, out=bad)
        bad &= np.logical_not(idle, out=idle)
        return not bad.any()

    with np.errstate(over="ignore"):
        return all(_blocks(test, deltas.size))


def _total(parts: np.ndarray) -> float:
    """The sum of ``parts``, with no warning where a partial sum passes the
    float64 maximum: it is then not finite (nan where both signs do).
    np.add.reduce is the reduction that np.sum calls, without its wrapper."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.add.reduce(parts))


def _check_length(problem: ContributionProblem, candidate) -> np.ndarray:
    cand = _to_floats(candidate)
    if cand.size != problem.n:
        raise ValueError("candidate length does not match problem size")
    return cand


def simplex_mle(observations) -> np.ndarray:
    """Euclidean projection of a finite observation vector onto the unit
    simplex: the same threshold rule with budget 1.

    A vector already on the simplex is its own projection.
    """
    problem = ContributionProblem(observations, 1.0)
    return solve_l2(problem).adjustments


def sample_l1_member(family: L1SolutionFamily, rng=None) -> np.ndarray:
    """Draw one member of the l1 solution set.

    ``rng`` is anything ``np.random.default_rng`` accepts (None, an int
    seed, or a Generator, which is advanced in place).  Surplus members
    spread the slack with Dirichlet weights on top of the positive parts.
    Deficit members mix the uniform-scaling particular solution with
    random greedy fills (vertices of the solution polytope); any convex
    combination of members is a member.  Raises ValueError rather than
    return a member whose sum misses the particular's.
    """
    rng = np.random.default_rng(rng)
    n = family.particular.size
    budget = _total(family.particular)
    if family.case is L1Case.SURPLUS:
        member = family.positive_parts + family.slack * rng.dirichlet(np.ones(n))
        if budget < sys.float_info.min:
            _spend(member, family.positive_parts, budget)
    else:
        members = [family.particular]
        for _ in range(3):
            members.append(_greedy_fill(family.positive_parts, budget, rng))
        weights = rng.dirichlet(np.ones(len(members)))
        # mixed 2^k times larger, so that the products of a subnormal budget
        # do not round to whole ulps of zero; no entry passes the budget, so
        # the scaled ones stay below 1
        k = max(0, -math.frexp(budget)[1])
        member = np.ldexp(sum(w * np.ldexp(fill, k) for w, fill in zip(weights, members)), -k)
        if k:
            # scaled back, each entry rounds to the budget's grid on its own
            _spend(member, family.positive_parts, budget)
    # nonnegative parts, raised or mixed with nonnegative weights: as in _fund
    _refuse(_sum_error(_total(member), budget))
    return member


def _spend(member: np.ndarray, parts: np.ndarray, budget: float) -> None:
    """Add ``budget - fsum(member)`` to one entry of ``member``, in place:
    what the sum misses goes to the entry with the most room below its part
    in ``parts``, and what it passes comes off the largest entry."""
    rest = budget - math.fsum(member.tolist())
    member[np.argmax(parts - member) if rest > 0 else np.argmax(member)] += rest


def _greedy_fill(capacities: np.ndarray, budget: float, rng) -> np.ndarray:
    """Fill assets to capacity in random order until the budget runs out."""
    order = rng.permutation(capacities.size)
    caps = capacities[order]
    out = np.empty_like(capacities)
    # the budget left before each asset, subtracted in sequence; past zero it only falls
    with np.errstate(over="ignore"):
        out[order] = np.clip(np.cumsum(np.concatenate(([budget], -caps)))[:-1], 0.0, caps)
    return out
