"""Harmony-search engine over binary facility-opening vectors.

One engine drives both solver flavours through a :data:`Transform`, a
map from a block of 0/1 rows to the rows evaluated and stored: the plain
variant only repairs reachability, while the greedy variant supplied by
:mod:`hcconfl.greedy_variants` also closes facilities.  The memory fill
hands the transform its random draws, and its sweep, in blocks; the loop
hands it one row at a time.  The search state is a memory of distinct
opening vectors kept sorted by objective value; improvisation mixes
memory recall with bias-guided random bits, and the recall rate ramps
toward 1 as the search matures.  The vectors are the engine's own
encoding: they leave it as facility ids (:func:`vector_ids`), the
open-set type of the package.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from itertools import islice, product
from typing import Callable

import numpy as np

from .hop_paths import HopTableCache, cache_for
from .instance_model import Instance, _check_integers
from .objective import COST_TOL, Solution, evaluate, validate

logger = logging.getLogger(__name__)

Transform = Callable[[np.ndarray], np.ndarray]

BIAS_FLOOR = 0.05
BIAS_CEIL = 0.95
DUPLICATE_DRAW_LIMIT = 40
EXHAUSTIVE_FILL_BITS = 20
HMCR_RAMP_ITERS = 5000


@dataclass(frozen=True)
class HarmonyParams:
    """Knobs of the harmony loop.

    ``hms`` rows of memory; the recall rate ramps from ``hmcr_start`` to
    1.0 over ``HMCR_RAMP_ITERS`` iterations.
    """

    hms: int = 50
    hmcr_start: float = 0.96
    max_no_improve: int = 1000

    def __post_init__(self) -> None:
        _check_integers(hms=self.hms, max_no_improve=self.max_no_improve)
        if self.hms < 2:
            raise ValueError("hms must be >= 2")
        if not 0.0 < self.hmcr_start <= 1.0:
            raise ValueError("hmcr_start must be in (0, 1]")
        if self.max_no_improve < 1:
            raise ValueError("max_no_improve must be >= 1")

    def hmcr(self, iteration: int) -> float:
        ramp = (1.0 - self.hmcr_start) * iteration / HMCR_RAMP_ITERS
        return min(1.0, self.hmcr_start + ramp)


@dataclass
class RunStats:
    """What a solve did.

    ``iterations`` counts the improvisations the harmony loop ran, 0 when
    the fill already held every transformed pattern (``hybrid_solve``
    counts its enumerated subsets); ``evaluations`` counts the ``evaluate``
    calls, each one priced whether its tree was built or reused.
    ``counters`` holds the solve's cache counters
    (:meth:`HopTableCache.counters`): ``tables_built`` hop tables, and
    ``trees_reused``, the evaluations whose open set had been seen before.
    """

    iterations: int = 0
    evaluations: int = 0
    wall_seconds: float = 0.0
    incumbent_history: list[tuple[int, float]] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class SolveResult:
    solution: Solution
    stats: RunStats


class HarmonyMemory:
    """Fixed-size pool of distinct opening vectors sorted by objective."""

    def __init__(self, vectors: np.ndarray, totals: np.ndarray):
        order = np.argsort(totals, kind="stable")
        self.vectors = np.ascontiguousarray(vectors[order], dtype=np.uint8)
        self.totals = np.asarray(totals, dtype=float)[order]
        self._keys = {row.tobytes() for row in self.vectors}
        if len(self._keys) != len(self.vectors):
            raise ValueError("memory rows must be distinct")

    def __len__(self) -> int:
        return len(self.totals)

    @property
    def worst_total(self) -> float:
        return float(self.totals[-1])

    def contains(self, vector: np.ndarray) -> bool:
        return np.ascontiguousarray(vector, dtype=np.uint8).tobytes() in self._keys

    def replace_worst(self, vector: np.ndarray, total: float) -> None:
        """Drop the worst row and insert, keeping ascending order."""
        vector = np.ascontiguousarray(vector, dtype=np.uint8)
        if total >= self.worst_total:
            raise ValueError("replacement must beat the worst row")
        if vector.tobytes() in self._keys:
            raise ValueError("duplicate vector")
        self._keys.discard(self.vectors[-1].tobytes())
        pos = int(np.searchsorted(self.totals, total, side="right"))
        self.totals[pos + 1 :] = self.totals[pos:-1]
        self.vectors[pos + 1 :] = self.vectors[pos:-1]
        self.totals[pos] = total
        self.vectors[pos] = vector
        self._keys.add(vector.tobytes())

    def frequencies(self) -> np.ndarray:
        """Fraction of rows opening each facility."""
        return self.vectors.mean(axis=0)


def vector_ids(instance: Instance, vector: np.ndarray) -> list[int]:
    """The facility ids a 0/1 vector in facility order opens."""
    return [instance.facilities[i] for i in np.flatnonzero(vector)]


def root_path_costs(instance: Instance, cache: HopTableCache) -> np.ndarray:
    """Cheapest hop-feasible root-to-facility path cost, per facility.

    The entry is inf where the root cannot reach the facility within the
    hop limit, and 0 for the root itself.
    """
    table = cache.table(instance.root)
    return table.dist[table.hop_limit, np.asarray(instance.facilities)]


def init_bias(instance: Instance) -> np.ndarray:
    """Static per-facility opening probabilities.

    Cheap-to-open facilities with cheap average assignments get higher
    probability; both signals are min-max normalized across facilities and
    averaged, then clipped away from 0/1 so no bit is ever frozen.  The
    root is always forced open.
    """

    opening = instance.opening_cost_array

    def normalized(values: np.ndarray) -> np.ndarray:
        span = values.max() - values.min()
        if span <= 0:
            return np.full(values.shape, 0.5)
        return (values - values.min()) / span

    score = 1.0 - normalized(opening)
    if instance.customers:
        mean_assign = instance.assignment_costs.mean(axis=1)
        score = 0.5 * score + 0.5 * (1.0 - normalized(mean_assign))
    else:
        score = 0.5 * score + 0.25
    bias = np.clip(score, BIAS_FLOOR, BIAS_CEIL)
    bias[instance.facility_index[instance.root]] = 1.0
    return bias


def update_bias(
    instance: Instance, static_bias: np.ndarray, memory: HarmonyMemory
) -> np.ndarray:
    """Blend the static bias with the observed memory frequencies."""
    bias = np.clip(
        0.5 * static_bias + 0.5 * memory.frequencies(), BIAS_FLOOR, BIAS_CEIL
    )
    bias[instance.facility_index[instance.root]] = 1.0
    return bias


def repair_vector(
    instance: Instance, vector: np.ndarray, reach_mask: np.ndarray
) -> np.ndarray:
    """Force the root open and close facilities outside the hop radius, per row."""
    repaired = np.asarray(vector, dtype=np.uint8) * reach_mask
    repaired[..., instance.facility_index[instance.root]] = 1
    return repaired


def improvise(
    rng: np.random.Generator,
    memory: HarmonyMemory,
    bias: np.ndarray,
    hmcr: float,
) -> np.ndarray:
    """Draw one candidate vector bit by bit.

    Each bit is recalled, with probability ``hmcr``, from a random memory
    row, and otherwise drawn from ``bias``.  The root bit is not forced:
    every memory row holds it open, its bias is 1, and every transform
    opens it again.
    """
    width = memory.vectors.shape[1]
    recall = rng.random(width) < hmcr
    rows = rng.integers(0, len(memory), size=width)
    from_memory = memory.vectors[rows, np.arange(width)]
    random_bits = (rng.random(width) < bias).astype(np.uint8)
    return np.where(recall, from_memory, random_bits).astype(np.uint8)


def _fill_memory(
    instance: Instance,
    params: HarmonyParams,
    rng: np.random.Generator,
    bias: np.ndarray,
    transform: Transform,
    evaluator: Callable[[np.ndarray], Solution],
) -> tuple[HarmonyMemory, list[tuple[np.ndarray, Solution]], bool]:
    """Seed the memory with distinct transformed vectors.

    Random bias draws come first, until ``DUPLICATE_DRAW_LIMIT`` duplicate
    draws have been spent; then, on small instances only, sweep the whole
    pattern space for anything new.  Both go in blocks no larger than the
    rows left before a limit, so they draw and keep what one row at a time
    would.  The memory shrinks, with a log note saying which of the two
    ran out, when they leave it short.

    The flag returned is true when the memory holds the transform's whole
    image of the root-open patterns: the sweep ran out of patterns, or
    the memory kept one distinct row per pattern.
    """
    width = len(instance.facilities)
    root_index = instance.facility_index[instance.root]
    free_bits = width - 1
    target = min(params.hms, 2**free_bits)

    evaluated: list[tuple[np.ndarray, Solution]] = []
    seen: set[bytes] = set()

    def keep(rows: np.ndarray) -> int:
        """Transform the block, evaluate and keep each new row; returns the repeats."""
        before = len(evaluated)
        for vector in transform(rows):
            if (key := vector.tobytes()) not in seen:
                seen.add(key)
                evaluated.append((vector, evaluator(vector)))
        return len(rows) - (len(evaluated) - before)

    misses = 0
    while len(evaluated) < target and misses < DUPLICATE_DRAW_LIMIT:
        block = min(target - len(evaluated), DUPLICATE_DRAW_LIMIT - misses)
        misses += keep((rng.random((block, width)) < bias).astype(np.uint8))

    swept = len(evaluated) < target and free_bits <= EXHAUSTIVE_FILL_BITS
    if swept:
        patterns = product((0, 1), repeat=free_bits)
        while block := list(islice(patterns, target - len(evaluated))):
            keep(np.insert(np.array(block, dtype=np.uint8), root_index, 1, axis=1))

    covered = (swept and len(evaluated) < target) or len(evaluated) == 2**free_bits
    if len(evaluated) < target:
        if swept:
            rest = f"a sweep of all {2**free_bits} root-open patterns found no more"
        else:
            rest = f"{free_bits} free bits are too many to sweep"
        logger.warning(
            "memory reduced to %d rows (%d requested): the random fill "
            "stopped after %d duplicate draws and %s",
            len(evaluated),
            params.hms,
            misses,
            rest,
        )
    memory = HarmonyMemory(
        np.array([vector for vector, _ in evaluated], dtype=np.uint8),
        np.array([solution.total for _, solution in evaluated]),
    )
    return memory, evaluated, covered


def harmony_solve(
    instance: Instance,
    params: HarmonyParams | None = None,
    seed: int = 1,
    transform: Transform | None = None,
    cache: HopTableCache | None = None,
) -> SolveResult:
    """Run the harmony loop until improvement stalls.

    ``transform`` maps a block of rows to the rows evaluated and stored,
    keeping the root open; the default repairs reachability only.  The
    loop is skipped when the fill has left the transform's whole image of
    the root-open patterns in memory: every improvised vector is
    root-open, so each would transform into a row memory already holds.
    ``stats.iterations`` counts the improvisations run, 0 in that case.
    """
    params = params or HarmonyParams()
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    cache = cache_for(instance, cache)

    if transform is None:
        reach = np.isfinite(root_path_costs(instance, cache))
        transform = lambda rows: repair_vector(instance, rows, reach)  # noqa: E731

    stats = RunStats()

    def evaluator(vector: np.ndarray) -> Solution:
        stats.evaluations += 1
        return evaluate(instance, vector_ids(instance, vector), cache)

    static_bias = init_bias(instance)
    memory, evaluated, covered = _fill_memory(
        instance, params, rng, static_bias, transform, evaluator
    )
    best_solution = min((solution for _, solution in evaluated), key=lambda s: s.total)
    stats.incumbent_history.append((0, best_solution.total))
    bias = update_bias(instance, static_bias, memory)

    no_improve = 0
    iteration = 0
    while not covered and no_improve < params.max_no_improve:
        iteration += 1
        vector = transform(improvise(rng, memory, bias, params.hmcr(iteration))[None])[0]
        improved = False
        if not memory.contains(vector):
            solution = evaluator(vector)
            if solution.total < memory.worst_total:
                memory.replace_worst(vector, solution.total)
                bias = update_bias(instance, static_bias, memory)
            if solution.total < best_solution.total - COST_TOL:
                best_solution = solution
                improved = True
                stats.incumbent_history.append((iteration, solution.total))
        no_improve = 0 if improved else no_improve + 1

    stats.iterations = iteration
    stats.counters = cache.counters()
    stats.wall_seconds = time.perf_counter() - start
    if best_solution.feasible:
        problems = validate(instance, best_solution)
        if problems:
            raise RuntimeError(
                f"internal error: best solution violates {problems[0].constraint}"
            )
    return SolveResult(solution=best_solution, stats=stats)


def hs_solve(
    instance: Instance, params: HarmonyParams | None = None, seed: int = 1
) -> SolveResult:
    """Plain harmony search over repaired opening vectors."""
    return harmony_solve(instance, params=params, seed=seed)
