"""Greedy facility closing and the solvers built on top of it.

``greedy_close`` estimates, for every open facility, the net cost of
closing it: reassigning its customers to their second-best open choice,
minus the saved opening cost, minus the saved cost of the cheapest
hop-feasible root path.  Facilities close one at a time while closing
pays for itself, or while more than ``max_open`` remain.

``ghs_solve`` plugs that closing step into the harmony engine;
``hybrid_solve`` uses bias-guided sampling plus closing only to shortlist
facilities, then enumerates every root-open subset of the shortlist.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product

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
)
from .hop_paths import HopTableCache
from .instance_model import Instance
from .objective import Solution, as_open_set, evaluate, validate

EXHAUSTIVE_BIT_LIMIT = 24


@dataclass(frozen=True)
class GreedyParams:
    """Knobs for the closing heuristic and the hybrid shortlist.

    ``max_open`` caps the open count during harmony search; the hybrid's
    sampling phase uses the looser ``greedy_limit`` so the frequency
    ranking sees more survivors.
    """

    max_open: int = 6
    top_k: int = 18
    sample_count: int = 1500
    greedy_limit: int = 18


def closing_scores(
    instance: Instance,
    open_ids: list[int],
    root_paths: np.ndarray,
) -> np.ndarray:
    """Net objective change estimated for closing each open facility.

    Entry j estimates closing ``open_ids[j]``: customers it serves move to
    their second-cheapest open facility, while its opening cost and its
    root-path cost are saved.  The root's entry is +inf (never closed), as
    is the last facility serving any customer.
    """
    rows = [instance.facility_index[f] for f in open_ids]
    opening = instance.opening_cost_array()[rows]
    paths = root_paths[rows]
    scores = -opening - paths
    if instance.customers:
        sub = instance.assignment_costs[rows]
        serving = np.argmin(sub, axis=0)  # first minimum: smallest id
        if len(open_ids) == 1:
            regret_sum = np.full(1, np.inf)
        else:
            two = np.partition(sub, 1, axis=0)[:2]
            regret = two[1] - two[0]
            regret_sum = np.bincount(
                serving, weights=regret, minlength=len(open_ids)
            )
        scores = scores + regret_sum
    root_pos = open_ids.index(instance.root) if instance.root in open_ids else -1
    if root_pos >= 0:
        scores[root_pos] = np.inf
    return scores


def greedy_close(
    instance: Instance,
    open_facilities,
    max_open: int = 6,
    root_paths: np.ndarray | None = None,
) -> np.ndarray:
    """Close facilities one by one; returns the 0/1 vector kept open.

    A facility closes while that is estimated to pay for itself, or while
    the open count still exceeds ``max_open``.  The root never closes.
    Ties pick the smallest facility id.  ``root_paths`` is
    :func:`root_path_costs`, computed here when not given.
    """
    if max_open < 1:
        raise ValueError("max_open must be >= 1")
    if root_paths is None:
        root_paths = root_path_costs(instance, HopTableCache(instance))
    open_set = as_open_set(instance, open_facilities) | {instance.root}
    open_ids = sorted(open_set)
    while len(open_ids) > 1:
        scores = closing_scores(instance, open_ids, root_paths)
        j = int(np.argmin(scores))
        if scores[j] < 0 or len(open_ids) > max_open:
            open_ids.pop(j)
        else:
            break
    vector = np.zeros(len(instance.facilities), dtype=np.uint8)
    for f in open_ids:
        vector[instance.facility_index[f]] = 1
    return vector


def _repair_and_close(
    instance: Instance, cache: HopTableCache, max_open: int
) -> Transform:
    """Reachability repair followed by :func:`greedy_close`."""
    root_paths = root_path_costs(instance, cache)
    reach = np.isfinite(root_paths)

    def transform(vector: np.ndarray) -> np.ndarray:
        repaired = repair_vector(instance, vector, reach)
        return greedy_close(
            instance, repaired, max_open=max_open, root_paths=root_paths
        )

    return transform


def ghs_solve(
    instance: Instance,
    params: HarmonyParams | None = None,
    greedy: GreedyParams | None = None,
    seed: int = 1,
) -> SolveResult:
    """Harmony search that greedily closes facilities before evaluating."""
    params = params or HarmonyParams(hms=150)
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
    if greedy.top_k > EXHAUSTIVE_BIT_LIMIT:
        raise ValueError(
            f"top_k={greedy.top_k} needs up to 2^{greedy.top_k - 1} "
            f"evaluations; keep top_k <= {EXHAUSTIVE_BIT_LIMIT}"
        )
    effective_k = min(greedy.top_k, len(instance.facilities))
    rng = np.random.default_rng(seed)
    cache = HopTableCache(instance)
    close = _repair_and_close(instance, cache, greedy.greedy_limit)
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
    for bits in product((0, 1), repeat=len(shortlist)):
        chosen = {root, *(f for f, b in zip(shortlist, bits) if b)}
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
