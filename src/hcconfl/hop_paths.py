"""Hop-limited shortest paths on the core graph.

The central object is a per-source table ``dist[h][v]`` = cheapest cost of a
walk from the source to ``v`` using at most ``h`` edges, computed by a
Bellman-Ford sweep over hop levels, one scatter-minimum per level.  Rows are
nonincreasing in ``h``.  Ties between equal-cost paths are broken toward
fewer hops, then toward the smaller predecessor id, taken as a minimum over
the arcs that reach the cost; this makes extracted paths deterministic.

``HopTableCache`` builds tables lazily and keeps one per source.  The graph
is undirected, so ``dist[h][v]`` of ``u``'s table is ``dist[h][u]`` of
``v``'s table, and ``first`` matches the same way: a cheapest walk from
``u`` to ``v``, reversed, is one from ``v`` to ``u``.  With integer edge
costs the two are bit-identical; with other costs the sums are taken from
opposite ends and may differ in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance_model import Instance


@dataclass(frozen=True)
class HopDistanceTable:
    """Distances and predecessors from one source, per hop budget.

    ``dist`` has shape (hop_limit + 1, num_nodes + 1); column 0 is unused so
    node ids index directly.  ``pred[h][v]`` is the predecessor of ``v`` on
    the chosen cheapest walk of at most ``h`` edges (0 = none).
    ``first[h][v]`` is the fewest edges that reach ``dist[h][v]``, i.e. the
    first hop level holding that value (0 while it is still inf).
    """

    source: int
    hop_limit: int
    dist: np.ndarray
    pred: np.ndarray
    first: np.ndarray

    def cost(self, node: int, hop_budget: int | None = None) -> float:
        """Cheapest cost to ``node`` within ``hop_budget`` edges (inf if none)."""
        h = self.hop_limit if hop_budget is None else min(hop_budget, self.hop_limit)
        if h < 0:
            return math.inf
        return float(self.dist[h, node])

    def min_hops(self, node: int, hop_budget: int | None = None) -> int | None:
        """Fewest edges realizing ``cost(node, hop_budget)``; None if unreachable."""
        h = self.hop_limit if hop_budget is None else min(hop_budget, self.hop_limit)
        if h < 0:
            return None
        if not math.isfinite(self.dist[h, node]):
            return None
        return int(self.first[h, node])


def hop_bellman_ford(instance: Instance, source: int) -> HopDistanceTable:
    """Build one source's distance/predecessor table up to the hop limit.

    Level ``h`` scatter-minimizes level ``h - 1`` over every arc; where a
    cost strictly falls, ``first`` is ``h`` and ``pred`` the smallest source
    among the arcs that reach the new cost.
    """
    (source,) = instance.core_nodes([source], "source")
    hops = instance.hop_limit
    n = instance.num_nodes
    dist = np.full((hops + 1, n + 1), np.inf)
    pred = np.zeros((hops + 1, n + 1), dtype=np.int32)
    # the smallest signed type holding -(hops + 1) holds every count 0..hops
    first = np.zeros((hops + 1, n + 1), dtype=np.min_scalar_type(-hops - 1))
    dist[0, source] = 0.0
    src, dst, wgt = instance.arcs
    for h in range(1, hops + 1):
        prev, cur = dist[h - 1], dist[h]
        cand = prev[src] + wgt
        cur[:] = prev
        np.minimum.at(cur, dst, cand)
        won = (cand < prev[dst]) & (cand == cur[dst])
        fell = dst[won]
        pred[h], first[h] = pred[h - 1], first[h - 1]
        first[h, fell] = h
        pred[h, fell] = n + 1  # above every id, so the minimum is a source
        np.minimum.at(pred[h], fell, src[won])
    for arr in (dist, pred, first):
        arr.setflags(write=False)
    return HopDistanceTable(source, hops, dist, pred, first)


def extract_path(
    table: HopDistanceTable, target: int, hop_budget: int | None = None
) -> list[int] | None:
    """Recover the chosen source->target node path within ``hop_budget``.

    Returns None when the target is unreachable inside the budget.  The path
    realizes ``table.cost(target, hop_budget)`` with the fewest edges among
    equal-cost walks.
    """
    h = table.min_hops(target, hop_budget)
    if h is None:
        return None
    path = [target]
    node = target
    while node != table.source:
        if h <= 0:
            raise AssertionError("predecessor chain did not reach the source")
        node = int(table.pred[h, node])
        h -= 1
        path.append(node)
    path.reverse()
    return path


class HopTableCache:
    """Lazy per-source table memo for the lifetime of one solver run.

    Every table reaches the instance's hop limit.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self._tables: dict[int, HopDistanceTable] = {}

    def table(self, source: int) -> HopDistanceTable:
        tab = self._tables.get(source)
        if tab is None:
            tab = self._tables[source] = hop_bellman_ford(self.instance, source)
        return tab


def cache_for(instance: Instance, cache: HopTableCache | None) -> HopTableCache:
    """``cache``, or a new cache for ``instance`` when it is None.

    A cache built for another instance is refused with ValueError: its
    tables describe another graph, or the same graph with other edge costs.
    """
    if cache is None:
        return HopTableCache(instance)
    if cache.instance is not instance:
        raise ValueError("the hop-table cache was built for another instance")
    return cache
