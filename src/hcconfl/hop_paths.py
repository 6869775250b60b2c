"""Hop-limited shortest paths on the core graph.

The central object is a per-source table ``dist[h][v]`` = cheapest cost of a
walk from the source to ``v`` using at most ``h`` edges, computed by a
Bellman-Ford sweep over hop levels, one scatter-minimum per level.  Rows are
nonincreasing in ``h``.  A node's predecessor changes only at a level where
its cost strictly falls, so the chosen walk has the fewest edges among
equal-cost walks from the source; among the arcs that reach that cost, the
smallest predecessor id wins.  This makes extracted paths deterministic.

``HopTableCache`` builds tables lazily and keeps one per source; it also
keeps the tree of each open set ``objective.evaluate`` prices.  The graph
is undirected, so ``dist[h][v]`` of ``u``'s table is ``dist[h][u]`` of
``v``'s table: a cheapest walk from ``u`` to ``v``, reversed, is one from
``v`` to ``u``.  With integer edge costs the two are bit-identical; with
other costs the sums are taken from opposite ends and may differ in the
last bit.
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
    the chosen cheapest walk of at most ``h`` edges (0 = none); both carry
    over from level ``h - 1`` unless the cost strictly falls at ``h``.
    """

    source: int
    hop_limit: int
    dist: np.ndarray
    pred: np.ndarray

    def cost(self, node: int, hop_budget: int | None = None) -> float:
        """Cheapest cost to ``node`` within ``hop_budget`` edges (inf if none)."""
        h = self.hop_limit if hop_budget is None else min(hop_budget, self.hop_limit)
        if h < 0:
            return math.inf
        return float(self.dist[h, node])


def hop_bellman_ford(instance: Instance, source: int) -> HopDistanceTable:
    """Build one source's distance/predecessor table up to the hop limit.

    Level ``h`` scatter-minimizes level ``h - 1`` over every arc; where a
    cost strictly falls, ``pred`` is the smallest source among the arcs that
    reach the new cost.
    """
    (source,) = instance.core_nodes([source], "source")
    hops = instance.hop_limit
    n = instance.num_nodes
    dist = np.full((hops + 1, n + 1), np.inf)
    pred = np.zeros((hops + 1, n + 1), dtype=np.int32)
    dist[0, source] = 0.0
    src, dst, wgt = instance.arcs
    for h in range(1, hops + 1):
        prev, cur = dist[h - 1], dist[h]
        cand = prev[src] + wgt
        cur[:] = prev
        np.minimum.at(cur, dst, cand)
        won = (cand < prev[dst]) & (cand == cur[dst])
        fell = dst[won]
        pred[h] = pred[h - 1]
        pred[h, fell] = n + 1  # above every id, so the minimum is a source
        np.minimum.at(pred[h], fell, src[won])
    for arr in (dist, pred):
        arr.setflags(write=False)
    return HopDistanceTable(source, hops, dist, pred)


def extract_path(
    table: HopDistanceTable, target: int, hop_budget: int | None = None
) -> list[int] | None:
    """Recover the chosen source->target node path within ``hop_budget``.

    Returns None when the target is unreachable inside the budget.  The path
    realizes ``table.cost(target, hop_budget)`` with the fewest edges among
    equal-cost walks: ``pred`` is walked down from the budget level, and a
    node's entry there is the one set where its cost last fell.
    """
    h = table.hop_limit if hop_budget is None else min(hop_budget, table.hop_limit)
    if h < 0 or not math.isfinite(table.dist[h, target]):
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
    """The per-solve memo of hop tables and of the tree of each open set priced.

    Tables are built lazily, one per source, and every table reaches the
    instance's hop limit.  ``trees`` maps a packed open set to its packed
    tree, or to None when it has none; ``objective.evaluate`` fills it and
    counts the lookups it answers in ``trees_reused``.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self._tables: dict[int, HopDistanceTable] = {}
        self.trees: dict[bytes, bytes | None] = {}
        self.trees_reused = 0

    def counters(self) -> dict[str, int]:
        """Hop tables built and trees reused so far."""
        return {"tables_built": len(self._tables), "trees_reused": self.trees_reused}

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
