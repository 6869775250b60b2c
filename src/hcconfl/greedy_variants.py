"""Greedy facility closing and the solvers built on top of it.

``greedy_close`` estimates, for every open facility, the net cost of
closing it: reassigning its customers to their second-best open choice,
minus the saved opening cost, minus the saved cost of the cheapest
hop-feasible root path.  Facilities close one at a time while closing
pays for itself, or while more than ``max_open`` remain; ties go to the
smallest facility id.  It takes facility ids and returns the 0/1 vector
the harmony engine stores.

The work is incremental.  A solve builds one :class:`Closer`, which ranks
each customer's facilities by (cost, id) once.  A call then walks every
customer's ranking once to find its best and second open facility, and a
close touches only the customers the closed facility served or was second
for, so its cost grows with those customers rather than with open
facilities times customers.  Regrets are re-summed in customer order, the
order ``np.bincount`` adds in, so the scores match a from-scratch
rescoring bit for bit.

``ghs_solve`` plugs that closing step into the harmony engine;
``hybrid_solve`` uses bias-guided sampling plus closing only to shortlist
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
    root_path_costs,
    vector_ids,
)
from .hop_paths import HopTableCache
from .instance_model import Instance
from .objective import Solution, as_open_set, evaluate, root_open_subsets, validate

EXHAUSTIVE_BIT_LIMIT = 24
# open cap of the hybrid's sampling phase: looser than ``max_open``, so the
# frequency ranking sees more survivors
SAMPLE_MAX_OPEN = 18
GHS_PARAMS = HarmonyParams(hms=150)


@dataclass(frozen=True)
class GreedyParams:
    """Knobs for the closing heuristic and the hybrid shortlist.

    ``max_open`` caps the open count during harmony search.  The hybrid
    closes ``sample_count`` random vectors (capped at ``SAMPLE_MAX_OPEN``)
    and enumerates the subsets of its ``top_k`` most frequent survivors.
    """

    max_open: int = 6
    top_k: int = 18
    sample_count: int = 1500

    def __post_init__(self) -> None:
        if self.max_open < 1:
            raise ValueError("max_open must be >= 1")
        if not 1 <= self.top_k <= EXHAUSTIVE_BIT_LIMIT:
            raise ValueError(f"top_k must be in [1, {EXHAUSTIVE_BIT_LIMIT}]")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")


class Closer:
    """The tables every :func:`greedy_close` call of one solve reads.

    Facilities sit in id order: position ``p`` holds the ``p``-th smallest
    id and ``rows[p]`` its row in ``instance.facilities``, so every tie goes
    to the smallest id whatever that tuple's order.  ``base[p]`` is minus
    the opening cost minus the root-path cost (``root_paths``, as from
    :func:`root_path_costs`).  ``ranked[c]`` lists every position by
    customer ``c``'s (cost, id), and ``ranked_costs[c]`` the costs
    alongside.
    """

    def __init__(self, instance: Instance, root_paths: np.ndarray):
        rows = sorted(range(len(instance.facilities)), key=instance.facilities.__getitem__)
        self.instance = instance
        self.rows = rows
        self.position = {instance.facilities[r]: p for p, r in enumerate(rows)}
        self.root = self.position[instance.root]
        self.base = (-instance.opening_cost_array - root_paths)[rows].tolist()
        self.base[self.root] = math.inf  # the root never closes
        costs = instance.assignment_costs[rows]
        ranked = np.argsort(costs, axis=0, kind="stable")
        self.ranked = ranked.T.tolist()
        self.ranked_costs = np.take_along_axis(costs, ranked, axis=0).T.tolist()


class ClosingState:
    """The open facilities of one closing run, plus who serves whom.

    ``open`` holds the open positions in ascending order; the root is
    always among them.  Per customer, ``best`` and ``second`` index its
    ranking at its cheapest and second-cheapest open facility, and
    ``regret`` is their cost difference.  Per open position ``p``,
    ``served[p]`` lists the customers it is best for (it only grows until
    ``p`` closes), ``seconds[p]`` every customer whose second pointer
    reached ``p`` (an entry is stale once that pointer moved on), and
    ``regret_sum[p]`` adds up the regrets of ``served[p]``.
    """

    def __init__(self, closer: Closer, open_ids):
        self.closer = closer
        self.open = sorted({closer.position[f] for f in open_ids} | {closer.root})
        width = len(closer.rows)
        self.is_open = is_open = bytearray(width)
        for p in self.open:
            is_open[p] = 1
        customers = len(closer.ranked)
        self.best = best = [0] * customers
        self.second = second = [0] * customers
        self.regret = regret = [0.0] * customers
        self.served = served = [[] for _ in range(width)]
        self.seconds = seconds = [[] for _ in range(width)]
        self.regret_sum = regret_sum = [0.0] * width
        if len(self.open) == 1:
            return  # no customer has a second choice
        for c, (ranked, costs) in enumerate(zip(closer.ranked, closer.ranked_costs)):
            k = 0
            while not is_open[ranked[k]]:
                k += 1
            k2 = k + 1
            while not is_open[ranked[k2]]:
                k2 += 1
            best[c] = k
            second[c] = k2
            p = ranked[k]
            served[p].append(c)
            seconds[ranked[k2]].append(c)
            regret[c] = costs[k2] - costs[k]
            # summed in customer order from 0.0, as np.bincount adds
            regret_sum[p] += regret[c]

    def close(self, j: int) -> None:
        """Close ``open[j]``, moving only the customers it served or was second for."""
        p = self.open.pop(j)
        self.is_open[p] = 0
        if len(self.open) == 1:
            return  # only the root is left, and nothing more is scored
        is_open, best, second, regret = self.is_open, self.best, self.second, self.regret
        all_ranked, all_costs = self.closer.ranked, self.closer.ranked_costs
        served, seconds = self.served, self.seconds
        for c in served[p]:  # the second choice becomes the best
            best[c] = second[c]
            served[all_ranked[c][best[c]]].append(c)
        dirty = set()
        for c in served[p] + seconds[p]:
            ranked, k = all_ranked[c], second[c]
            if ranked[k] != p and k != best[c]:
                continue  # stale: this pointer had moved on
            k += 1
            while not is_open[ranked[k]]:
                k += 1
            second[c] = k
            seconds[ranked[k]].append(c)
            costs = all_costs[c]
            regret[c] = costs[k] - costs[best[c]]
            dirty.add(ranked[best[c]])
        for q in dirty:
            customers = served[q]
            customers.sort()
            total = 0.0
            for c in customers:
                total += regret[c]
            self.regret_sum[q] = total

    def vector(self) -> np.ndarray:
        """The 0/1 vector, in ``instance.facilities`` order, of the open set."""
        vector = bytearray(len(self.closer.rows))
        for p in self.open:
            vector[self.closer.rows[p]] = 1
        return np.frombuffer(vector, dtype=np.uint8)


def closing_scores(state: ClosingState) -> list[float]:
    """Net objective change estimated for closing each open facility.

    Entry j estimates closing ``state.open[j]``: customers it serves move
    to their second-cheapest open facility, while its opening cost and its
    root-path cost are saved.  The root's entry is +inf (never closed).
    """
    base, regret_sum = state.closer.base, state.regret_sum
    if not state.closer.ranked:
        return [base[p] for p in state.open]
    return [base[p] + regret_sum[p] for p in state.open]


def greedy_close(
    instance: Instance,
    open_facilities,
    max_open: int = GreedyParams.max_open,
    closer: Closer | None = None,
) -> np.ndarray:
    """Close facilities one by one; returns the 0/1 vector kept open.

    ``open_facilities`` holds distinct facility ids; the root joins them
    and never closes.  A facility closes while that is estimated to pay
    for itself (:func:`closing_scores`), or while the open count still
    exceeds ``max_open``.  Ties pick the smallest facility id.

    ``closer`` is the :class:`Closer` of ``instance``, built here from
    :func:`root_path_costs` when not given.  A solve builds one and passes
    it to every call: that ranks each customer's facilities once per solve,
    and a call then costs one walk over the customers plus, per closed
    facility, work in proportion to the customers it served or was second
    for.
    """
    if max_open < 1:
        raise ValueError("max_open must be >= 1")
    if closer is None:
        closer = Closer(instance, root_path_costs(instance, HopTableCache(instance)))
    elif closer.instance is not instance:
        raise ValueError("closer was built for another instance")
    state = ClosingState(closer, as_open_set(instance, open_facilities))
    while len(state.open) > 1:
        scores = closing_scores(state)
        j = min(range(len(scores)), key=scores.__getitem__)
        if scores[j] < 0 or len(state.open) > max_open:
            state.close(j)
        else:
            break
    return state.vector()


def _repair_and_close(
    instance: Instance, cache: HopTableCache, max_open: int
) -> Transform:
    """Reachability repair followed by :func:`greedy_close`."""
    root_paths = root_path_costs(instance, cache)
    reach = np.isfinite(root_paths)
    closer = Closer(instance, root_paths)

    def transform(vector: np.ndarray) -> np.ndarray:
        opened = vector_ids(instance, repair_vector(instance, vector, reach))
        return greedy_close(instance, opened, max_open, closer)

    return transform


def ghs_solve(
    instance: Instance,
    params: HarmonyParams | None = None,
    greedy: GreedyParams | None = None,
    seed: int = 1,
) -> SolveResult:
    """Harmony search that greedily closes facilities before evaluating."""
    params = params or GHS_PARAMS
    greedy = greedy or GreedyParams()
    cache = HopTableCache(instance)
    transform = _repair_and_close(instance, cache, greedy.max_open)
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
    the shortlist is evaluated exactly as-is.
    """
    greedy = greedy or GreedyParams()
    start = time.perf_counter()
    effective_k = min(greedy.top_k, len(instance.facilities))
    rng = np.random.default_rng(seed)
    cache = HopTableCache(instance)
    close = _repair_and_close(instance, cache, SAMPLE_MAX_OPEN)
    bias = init_bias(instance)
    stats = RunStats()

    counts = np.zeros(len(instance.facilities))
    draws = rng.random((greedy.sample_count, len(instance.facilities))) < bias
    for row in draws.astype(np.uint8):
        counts += close(row)

    root = instance.root
    ranked = sorted(
        (f for f in instance.facilities if f != root),
        key=lambda f: (-counts[instance.facility_index[f]], f),
    )
    shortlist = ranked[: effective_k - 1]

    best: Solution | None = None
    for chosen in root_open_subsets(root, shortlist):
        stats.evaluations += 1
        candidate = evaluate(instance, chosen, cache)
        if best is None or candidate.total < best.total:
            best = candidate
            stats.incumbent_history.append((stats.evaluations, candidate.total))
    assert best is not None
    stats.iterations = stats.evaluations
    stats.wall_seconds = time.perf_counter() - start
    if best.feasible:
        problems = validate(instance, best)
        if problems:
            raise RuntimeError(
                f"internal error: best solution violates {problems[0].constraint}"
            )
    return SolveResult(solution=best, stats=stats)
