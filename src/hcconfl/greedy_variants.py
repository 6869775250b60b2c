"""Greedy facility closing and the solvers built on top of it.

Closing estimates, for every open facility, the net cost of closing it:
reassigning its customers to their second-best open choice, minus the
saved opening cost, minus the saved cost of the cheapest hop-feasible
root path.  Facilities close one at a time while closing pays for
itself, or while more than ``max_open`` remain; ties go to the smallest
facility id.

One NumPy kernel, :func:`close_rows`, does every close.  It takes a
block of 0/1 rows, each holding the root open, and closes them in
lockstep over a :class:`Closer`, built once per solve on its
:class:`HopTableCache`, that ranks each customer's facilities once.  Each step sums every live row's regrets
with one ``np.bincount``, in customer order, picks each row's first
minimum, and moves only the customers the closed facility served or was
second for; so every row closes as it would alone, with scores bit for
bit those of a from-scratch rescoring.  Blocks of two or more rows keep
their state in a :class:`ClosingState`; a block of one row, such as each
iteration of ``ghs``'s search loop or a ``greedy_close`` call, in a
:class:`RowClosingState`, which finds each customer's two best open
facilities with one ``np.partition`` over the open members' ranks.
``greedy_close`` is the kernel on one open set of facility ids.

``ghs_solve`` plugs repair plus closing, as a rows -> rows transform
that keeps no state, into the harmony engine; ``hybrid_solve``
closes all its bias-guided samples in one block only to shortlist
facilities, then enumerates every root-open subset of the shortlist.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .harmony_core import (
    HarmonyParams,
    RunStats,
    SolveResult,
    Transform,
    harmony_solve,
    init_bias,
    repair_vector,
    seeded_rng,
)
from .hop_paths import HopTableCache
from .instance_model import Instance, _check_count
from .objective import Solution, as_open_set, evaluate, root_open_subsets, validate

EXHAUSTIVE_BIT_LIMIT = 24
MAX_OPEN = 6  # default open cap of ``ghs_solve`` and ``greedy_close``
# open cap of the hybrid's sampling phase: looser than ``MAX_OPEN``, so the
# frequency ranking sees more survivors
SAMPLE_MAX_OPEN = 18
GHS_PARAMS = HarmonyParams(hms=150)
# (row, customer) cells the closing kernel holds at once, and entries it
# reads per ranking scan: bounds its working memory for any block size
CLOSE_CELLS = 1 << 14


@dataclass(frozen=True)
class GreedyParams:
    """Knobs for the hybrid shortlist.

    The hybrid closes ``sample_count`` random vectors (capped at
    ``SAMPLE_MAX_OPEN``) and enumerates the subsets of its ``top_k`` most
    frequent survivors.
    """

    top_k: int = 18
    sample_count: int = 1500

    def __post_init__(self) -> None:
        _check_count("top_k", self.top_k, 1)
        if self.top_k > EXHAUSTIVE_BIT_LIMIT:
            raise ValueError(f"top_k must be <= {EXHAUSTIVE_BIT_LIMIT}, got {self.top_k}")
        _check_count("sample_count", self.sample_count, 1)


class Closer:
    """The tables every close of one solve reads.

    A facility's position is its row in ``instance.facilities``, which
    lists ids in ascending order, so a tie between positions goes to the
    smallest id.  ``base[p]`` is minus the opening cost minus the
    root-path cost (``cache.root_paths``), and +inf for the root.
    ``ranked[c]`` lists every position by customer ``c``'s (cost, id), then
    repeats its last entry so a window may read past the end;
    ``ranked_costs[c]`` holds the costs alongside, and ``rank[c, p]`` the
    index of ``p`` in ``ranked[c]``.
    """

    def __init__(self, cache: HopTableCache):
        instance = cache.instance
        width = len(instance.facilities)
        self.base = -instance.opening_cost_array - cache.root_paths
        self.base[instance.facility_index[instance.root]] = math.inf  # the root never closes
        costs = instance.assignment_costs
        ranked = np.argsort(costs, axis=0, kind="stable")
        self.ranked_costs = np.take_along_axis(costs, ranked, axis=0).T.copy()
        narrow = np.min_scalar_type(width)
        self.ranked = np.pad(ranked.T, ((0, 0), (0, width)), mode="edge").astype(narrow)
        # intp keeps its per-step reads out of NumPy's cache of small byte arrays
        self.rank = np.empty((len(instance.customers), width), dtype=np.intp)
        self.rank[np.arange(len(instance.customers))[:, None], ranked.T] = np.arange(width)


class ClosingState:
    """A block of open sets that close in lockstep, plus who serves whom.

    ``opened`` holds a copy of every row of the block as a 0/1 mask over
    positions; each row holds the root open.  ``live`` lists the rows
    still closing, and ``count`` their open counts.  Per live row and customer, ``best_at``
    and ``second_at`` are the positions of the customer's cheapest and
    second-cheapest open facility, and ``regret`` is their cost difference.
    """

    def __init__(self, closer: Closer, rows: np.ndarray):
        self.closer = closer
        self.opened = np.array(rows, dtype=bool)
        count = self.opened.sum(axis=1)
        self.live = np.flatnonzero(count > 1)  # one open: nothing to score
        self.count = count[self.live]
        live, customers = len(self.live), len(closer.ranked)
        i, c = np.divmod(np.arange(live * customers), customers)
        best = self._next_open(i, c, np.zeros(len(i), dtype=np.intp))
        second = self._next_open(i, c, best + 1)
        self.best_at = closer.ranked[c, best].reshape(live, customers)
        self.second_at = closer.ranked[c, second].reshape(live, customers)
        costs = closer.ranked_costs
        self.regret = (costs[c, second] - costs[c, best]).reshape(live, customers)

    def _next_open(self, i: np.ndarray, c: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Per entry ``n``, the first index from ``k[n]`` on at which customer
        ``c[n]``'s ranking names a position open in live row ``i[n]``.

        The ranking is read in windows of four mean gaps between open
        positions, which nearly always hit at once, and ``argmax`` takes
        each window's first hit; entries that miss read the next window.
        """
        if not len(k):
            return k
        ranked, width = self.closer.ranked, len(self.closer.base)
        found = k.astype(np.intp)
        span = -(-4 * width // int(self.count.min()))
        in_ranked = c * ranked.shape[1]  # flat offsets: np.take beats 2-d indexing
        in_opened = self.live[i] * width
        opened = self.opened.ravel()
        todo = np.arange(len(k))
        while len(todo):
            span = min(span, width, max(1, CLOSE_CELLS // len(todo)))
            window = found[todo, None] + np.arange(span)
            hit = opened.take(ranked.take(window + in_ranked[todo, None]) + in_opened[todo, None])
            first = hit.argmax(axis=1)
            done = hit[np.arange(len(todo)), first]
            found[todo] += np.where(done, first, span)
            todo = todo[~done]
            span = width
        return found

    def close(self, j: np.ndarray, closing: np.ndarray) -> None:
        """Close position ``j[n]`` in each live row ``n`` where ``closing[n]``
        (other rows, and rows left with the root alone, stop), moving only
        the customers a closed facility served or was second for."""
        self.opened[self.live[closing], j[closing]] = False
        self.count -= closing
        go_on = closing & (self.count > 1)
        if not go_on.all():
            self.live, self.count, j = self.live[go_on], self.count[go_on], j[go_on]
            self.best_at, self.second_at = self.best_at[go_on], self.second_at[go_on]
            self.regret = self.regret[go_on]
        lost = self.best_at == j[:, None]  # the second choice becomes the best
        i, c = np.nonzero(lost | (self.second_at == j[:, None]))
        np.copyto(self.best_at, self.second_at, where=lost)
        rank, costs = self.closer.rank, self.closer.ranked_costs
        k = self._next_open(i, c, rank[c, self.second_at[i, c]] + 1)
        self.second_at[i, c] = self.closer.ranked[c, k]
        self.regret[i, c] = costs[c, k] - costs[c, rank[c, self.best_at[i, c]]]


class RowClosingState:
    """A block of one open set, such as ``ghs``'s search loop hands over
    every iteration, with the attributes of :class:`ClosingState`.

    ``members`` lists the positions open at the start, ascending, and
    ``ranks`` their rank per customer, ``Closer.rank[:, members]``.  A
    closed member's column reads ``width``, which ranks last, so one
    ``np.partition`` per customer gives its best and second open rank.
    """

    def __init__(self, closer: Closer, rows: np.ndarray):
        self.closer = closer
        self.opened = np.array(rows, dtype=bool)
        self.members = np.flatnonzero(self.opened[0])
        self.count = np.array([len(self.members)])
        self.live = np.flatnonzero(self.count > 1)  # one open: nothing to score
        customers = len(closer.ranked)
        self.best_at = np.empty((1, customers), dtype=closer.ranked.dtype)
        self.second_at = np.empty_like(self.best_at)
        self.regret = np.empty((1, customers))
        if len(self.live):
            self.ranks = closer.rank[:, self.members]
            self._rerank(np.arange(customers))

    def _rerank(self, c: np.ndarray) -> None:
        """Re-read the best and second open facility of customers ``c``."""
        closer = self.closer
        two = np.partition(self.ranks[c], 1, axis=1)
        best, second = two[:, 0], two[:, 1]
        self.best_at[0][c] = closer.ranked[c, best]  # [0][c]: a 1-d write is cheaper
        self.second_at[0][c] = closer.ranked[c, second]
        self.regret[0][c] = closer.ranked_costs[c, second] - closer.ranked_costs[c, best]

    def close(self, j: np.ndarray, closing: np.ndarray) -> None:
        """:meth:`ClosingState.close` for the one row: close position
        ``j[0]`` if ``closing[0]``, else stop; re-rank only the customers
        it served or was second for."""
        if closing[0]:
            self.opened[0, j[0]] = False
            self.count -= 1
        if not closing[0] or self.count[0] < 2:
            self.live, self.count = self.live[:0], self.count[:0]
            return
        moved = np.flatnonzero((self.best_at[0] == j[0]) | (self.second_at[0] == j[0]))
        self.ranks[:, self.members.searchsorted(j[0])] = len(self.closer.base)
        self._rerank(moved)


def closing_scores(state: ClosingState | RowClosingState) -> np.ndarray:
    """Net objective change estimated for closing each open facility.

    Row ``n`` scores live row ``state.live[n]`` over every position:
    customers a facility serves move to their second-cheapest open
    facility, while its opening cost and its root-path cost are saved.
    Each facility's regrets are summed by one ``np.bincount`` in customer
    order.  The root and closed facilities score +inf.
    """
    closer = state.closer
    live, width = len(state.live), len(closer.base)
    scores = closer.base
    if len(closer.ranked):  # with no customers nothing is added, not even 0.0 to -0.0
        bins = state.best_at + (np.arange(live) * width)[:, None]
        sums = np.bincount(bins.ravel(), state.regret.ravel(), minlength=live * width)
        scores = scores + sums.reshape(live, width)
    return np.where(state.opened[state.live], scores, math.inf)


def close_rows(closer: Closer, rows: np.ndarray, max_open: int) -> np.ndarray:
    """Greedily close every 0/1 row of ``rows``; returns the rows kept open.

    Rows are in ``instance.facilities`` order and hold the root open.  A
    facility closes while that is estimated to pay for itself
    (:func:`closing_scores`), or while the open count still exceeds
    ``max_open``; ties pick the smallest facility id.  The rows close in
    lockstep, one chunk of at most ``CLOSE_CELLS`` (row, customer) cells
    at a time, and each row's result is that of closing it alone.  A
    block of one row closes through :class:`RowClosingState`, whose set-up
    and steps cost less; its scores are the same, bit for bit.
    """
    closed = np.zeros(np.shape(rows), dtype=np.uint8)
    chunk = max(1, CLOSE_CELLS // max(1, len(closer.ranked)))
    state_of = RowClosingState if len(closed) == 1 else ClosingState
    for start in range(0, len(closed), chunk):
        state = state_of(closer, rows[start : start + chunk])
        while len(state.live):
            scores = closing_scores(state)
            j = scores.argmin(axis=1)
            best = scores[np.arange(len(j)), j]
            state.close(j, (best < 0) | (state.count > max_open))
        closed[start : start + chunk] = state.opened
    return closed


def greedy_close(
    instance: Instance, open_facilities, max_open: int = MAX_OPEN
) -> np.ndarray:
    """:func:`close_rows` on one open set; returns the 0/1 vector kept open.

    ``open_facilities`` holds distinct facility ids; the root joins them,
    as in :func:`evaluate`.  The :class:`Closer` is built on a fresh
    :class:`HopTableCache`.
    """
    _check_count("max_open", max_open, 1)
    opened = as_open_set(instance, open_facilities) | {instance.root}
    row = np.zeros((1, len(instance.facilities)), dtype=np.uint8)
    row[0, [instance.facility_index[f] for f in opened]] = 1
    return close_rows(Closer(HopTableCache(instance)), row, max_open)[0]


def _repair_and_close(cache: HopTableCache, max_open: int) -> Transform:
    """Reachability repair followed by :func:`close_rows`, rows to rows;
    each repaired block closes whole, and no call keeps state."""
    reach = np.isfinite(cache.root_paths)
    closer = Closer(cache)

    def transform(rows: np.ndarray) -> np.ndarray:
        return close_rows(closer, repair_vector(cache.instance, rows, reach), max_open)

    return transform


def ghs_solve(
    instance: Instance,
    params: HarmonyParams | None = None,
    max_open: int = MAX_OPEN,
    seed: int = 1,
) -> SolveResult:
    """Harmony search that greedily closes facilities before evaluating."""
    _check_count("max_open", max_open, 1)
    params = params or GHS_PARAMS
    cache = HopTableCache(instance)
    transform = _repair_and_close(cache, max_open)
    return harmony_solve(
        instance, params=params, seed=seed, transform=transform, cache=cache
    )


def hybrid_solve(
    instance: Instance,
    greedy: GreedyParams | None = None,
    seed: int = 1,
) -> SolveResult:
    """Shortlist facilities by sampled open frequency, then enumerate.

    Bias-guided random vectors are repaired and greedily closed; the
    facilities that survive most often (ties: smaller id) form a shortlist
    of ``top_k`` entries including the root, and every root-open subset of
    the shortlist is evaluated exactly as-is.  ``seed`` is an integer >= 0
    (:func:`~hcconfl.harmony_core.seeded_rng`), the only randomness.
    """
    greedy = greedy or GreedyParams()
    start = time.perf_counter()
    rng = seeded_rng(seed)
    cache = HopTableCache(instance)
    close = _repair_and_close(cache, SAMPLE_MAX_OPEN)
    bias = init_bias(instance)
    stats = RunStats()

    draws = rng.random((greedy.sample_count, len(instance.facilities))) < bias
    counts = close(draws.astype(np.uint8)).sum(axis=0, dtype=float)

    root = instance.root
    ranked = sorted(
        (f for f in instance.facilities if f != root),
        key=lambda f: (-counts[instance.facility_index[f]], f),
    )
    shortlist = ranked[: greedy.top_k - 1]

    best: Solution | None = None
    for chosen in root_open_subsets(root, shortlist):
        stats.evaluations += 1
        candidate = evaluate(instance, chosen, cache)
        if best is None or candidate.total < best.total:
            best = candidate
            stats.incumbent_history.append((stats.evaluations, candidate.total))
    assert best is not None
    stats.iterations = stats.evaluations
    stats.counters = cache.counters()
    stats.wall_seconds = time.perf_counter() - start
    if best.feasible:
        problems = validate(instance, best)
        if problems:
            raise RuntimeError(
                f"internal error: best solution violates {problems[0].constraint}"
            )
    return SolveResult(solution=best, stats=stats)
