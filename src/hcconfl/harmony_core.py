"""Harmony-search engine over binary facility-opening vectors.

One engine drives both solver flavours: the plain variant evaluates the
improvised vector after a reachability repair, while the greedy variant
supplied by :mod:`hcconfl.greedy_variants` additionally closes facilities
before evaluation.  The search state is a memory of distinct opening
vectors kept sorted by objective value; improvisation mixes memory recall
with bias-guided random bits, and the recall rate ramps toward 1 as the
search matures.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

import numpy as np

from .hop_paths import HopTableCache
from .instance_model import Instance
from .objective import COST_TOL, Solution, evaluate, validate

logger = logging.getLogger(__name__)

Transform = Callable[[np.ndarray], np.ndarray]

BIAS_FLOOR = 0.05
BIAS_CEIL = 0.95
DUPLICATE_DRAW_LIMIT = 40
EXHAUSTIVE_FILL_BITS = 20


@dataclass(frozen=True)
class HarmonyParams:
    """Knobs of the harmony loop.

    The recall rate starts at ``hmcr_start`` and ramps linearly to 1.0
    over ``hmcr_ramp_iters`` iterations.  ``par``/``bw`` are retained for
    completeness; with binary variables a pitch adjustment is a bit flip,
    and both default to 0 (inactive).  ``seed`` is used when the solver
    call does not pass one explicitly.
    """

    hms: int = 50
    hmcr_start: float = 0.96
    hmcr_ramp_iters: int = 5000
    par: float = 0.0
    bw: float = 0.0
    max_no_improve: int = 1000
    seed: int = 1

    def __post_init__(self) -> None:
        if self.hms < 2:
            raise ValueError("hms must be >= 2")
        if not 0.0 < self.hmcr_start <= 1.0:
            raise ValueError("hmcr_start must be in (0, 1]")
        if self.hmcr_ramp_iters < 1:
            raise ValueError("hmcr_ramp_iters must be >= 1")
        if not 0.0 <= self.par < 1.0:
            raise ValueError("par must be in [0, 1)")
        if self.par > self.hmcr_start:
            raise ValueError("par must not exceed hmcr_start")
        if self.max_no_improve < 1:
            raise ValueError("max_no_improve must be >= 1")

    def hmcr(self, iteration: int) -> float:
        ramp = (1.0 - self.hmcr_start) * iteration / self.hmcr_ramp_iters
        return min(1.0, self.hmcr_start + ramp)


@dataclass
class RunStats:
    iterations: int = 0
    evaluations: int = 0
    wall_seconds: float = 0.0
    incumbent_history: list[tuple[int, float]] = field(default_factory=list)


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


def reachable_open_mask(instance: Instance, cache: HopTableCache) -> np.ndarray:
    """True per facility when the root can reach it within the hop limit."""
    table = cache.table(instance.root)
    mask = np.zeros(len(instance.facilities), dtype=bool)
    for i, f in enumerate(instance.facilities):
        mask[i] = f == instance.root or np.isfinite(table.cost(f))
    return mask


def init_bias(instance: Instance) -> np.ndarray:
    """Static per-facility opening probabilities.

    Cheap-to-open facilities with cheap average assignments get higher
    probability; both signals are min-max normalized across facilities and
    averaged, then clipped away from 0/1 so no bit is ever frozen.  The
    root is always forced open.
    """

    opening = instance.opening_cost_array()

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
    """Force the root open and close facilities outside the hop radius."""
    repaired = np.ascontiguousarray(vector, dtype=np.uint8).copy()
    repaired[~reach_mask] = 0
    repaired[instance.facility_index[instance.root]] = 1
    return repaired


def improvise(
    rng: np.random.Generator,
    memory: HarmonyMemory,
    bias: np.ndarray,
    hmcr: float,
    par: float = 0.0,
    bw: float = 0.0,
    root_index: int = 0,
) -> np.ndarray:
    """Draw one candidate vector bit by bit.

    All four random arrays are drawn every call so the stream consumed
    from ``rng`` does not depend on the parameter values.  ``bw`` has no
    magnitude role for binary bits (an adjustment is a flip) but keeps its
    slot in the signature.
    """
    del bw
    width = memory.vectors.shape[1]
    recall = rng.random(width) < hmcr
    rows = rng.integers(0, len(memory), size=width)
    adjust = rng.random(width) < par
    rng.random(width)  # direction draw; a binary adjustment is always a flip
    from_memory = memory.vectors[rows, np.arange(width)]
    random_bits = (rng.random(width) < bias).astype(np.uint8)
    vector = np.where(recall, from_memory, random_bits).astype(np.uint8)
    flip = recall & adjust
    vector[flip] ^= 1
    vector[root_index] = 1
    return vector


def _fill_memory(
    instance: Instance,
    params: HarmonyParams,
    rng: np.random.Generator,
    bias: np.ndarray,
    transform: Transform,
    evaluator: Callable[[np.ndarray], Solution],
) -> tuple[HarmonyMemory, list[tuple[np.ndarray, Solution]]]:
    """Seed the memory with distinct transformed vectors.

    Random bias draws come first, until ``DUPLICATE_DRAW_LIMIT`` duplicate
    draws have been spent; then, on small instances only, sweep the whole
    pattern space for anything new.  The memory shrinks, with a log note
    saying which of the two ran out, when they leave it short.
    """
    width = len(instance.facilities)
    root_index = instance.facility_index[instance.root]
    free_bits = width - 1
    target = params.hms
    if free_bits <= 30:
        target = min(target, 2**free_bits)

    rows: list[np.ndarray] = []
    evaluated: list[tuple[np.ndarray, Solution]] = []
    totals: list[float] = []
    seen: set[bytes] = set()
    misses = 0
    while len(rows) < target and misses <= DUPLICATE_DRAW_LIMIT:
        vector = (rng.random(width) < bias).astype(np.uint8)
        vector[root_index] = 1
        vector = transform(vector)
        key = vector.tobytes()
        if key in seen:
            misses += 1
            continue
        seen.add(key)
        solution = evaluator(vector)
        rows.append(vector)
        totals.append(solution.total)
        evaluated.append((vector, solution))

    swept = len(rows) < target and free_bits <= EXHAUSTIVE_FILL_BITS
    if swept:
        positions = [i for i in range(width) if i != root_index]
        for bits in product((0, 1), repeat=free_bits):
            if len(rows) >= target:
                break
            vector = np.zeros(width, dtype=np.uint8)
            vector[root_index] = 1
            for pos, bit in zip(positions, bits):
                vector[pos] = bit
            vector = transform(vector)
            key = vector.tobytes()
            if key in seen:
                continue
            seen.add(key)
            solution = evaluator(vector)
            rows.append(vector)
            totals.append(solution.total)
            evaluated.append((vector, solution))

    if len(rows) < target:
        if swept:
            rest = f"a sweep of all {2**free_bits} root-open patterns found no more"
        else:
            rest = f"{free_bits} free bits are too many to sweep"
        logger.warning(
            "memory reduced to %d rows (%d requested): the random fill "
            "stopped after %d duplicate draws and %s",
            len(rows),
            params.hms,
            misses,
            rest,
        )
    memory = HarmonyMemory(np.array(rows, dtype=np.uint8), np.array(totals))
    return memory, evaluated


def harmony_solve(
    instance: Instance,
    params: HarmonyParams | None = None,
    seed: int | None = None,
    transform: Transform | None = None,
    cache: HopTableCache | None = None,
) -> SolveResult:
    """Run the harmony loop until improvement stalls.

    ``transform`` maps an improvised vector to the vector actually
    evaluated and stored; the default repairs reachability only.  A
    ``seed`` argument overrides ``params.seed``.
    """
    params = params or HarmonyParams()
    start = time.perf_counter()
    rng = np.random.default_rng(params.seed if seed is None else seed)
    cache = cache or HopTableCache(instance)
    reach = reachable_open_mask(instance, cache)
    root_index = instance.facility_index[instance.root]

    if transform is None:
        transform = lambda vec: repair_vector(instance, vec, reach)  # noqa: E731

    stats = RunStats()

    def evaluator(vector: np.ndarray) -> Solution:
        stats.evaluations += 1
        return evaluate(instance, vector, cache)

    static_bias = init_bias(instance)
    memory, evaluated = _fill_memory(
        instance, params, rng, static_bias, transform, evaluator
    )
    best_vector, best_solution = min(
        evaluated, key=lambda pair: pair[1].total
    )
    stats.incumbent_history.append((0, best_solution.total))
    bias = update_bias(instance, static_bias, memory)

    no_improve = 0
    iteration = 0
    while no_improve < params.max_no_improve:
        iteration += 1
        vector = improvise(
            rng,
            memory,
            bias,
            hmcr=params.hmcr(iteration),
            par=params.par,
            bw=params.bw,
            root_index=root_index,
        )
        vector = transform(vector)
        improved = False
        if not memory.contains(vector):
            solution = evaluator(vector)
            if solution.total < memory.worst_total:
                memory.replace_worst(vector, solution.total)
                bias = update_bias(instance, static_bias, memory)
            if solution.total < best_solution.total - COST_TOL:
                best_solution = solution
                best_vector = vector
                improved = True
                stats.incumbent_history.append((iteration, solution.total))
        no_improve = 0 if improved else no_improve + 1

    stats.iterations = iteration
    stats.wall_seconds = time.perf_counter() - start
    if best_solution.feasible:
        problems = validate(instance, best_solution)
        if problems:
            raise RuntimeError(
                f"internal error: best solution violates {problems[0].constraint}"
            )
    del best_vector
    return SolveResult(solution=best_solution, stats=stats)


def hs_solve(
    instance: Instance, params: HarmonyParams | None = None, seed: int | None = None
) -> SolveResult:
    """Plain harmony search over repaired opening vectors."""
    return harmony_solve(instance, params=params, seed=seed)
