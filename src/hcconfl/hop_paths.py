"""Hop-limited shortest paths on the core graph.

The central object is a per-source table ``dist[h][v]`` = cheapest cost of a
walk from the source to ``v`` using at most ``h`` edges, computed by a
Bellman-Ford sweep over hop levels, one scatter-minimum per level.  Rows are
nonincreasing in ``h``, and a table stops at level :func:`top_level`,
``min(hop_limit, num_nodes - 1)``: no cost falls past it, so a budget above
it reads it.  A node's predecessor changes only at a level where
its cost strictly falls, so the chosen walk has the fewest edges among
equal-cost walks from the source; among the arcs that reach that cost, the
smallest predecessor id wins.  This makes extracted paths deterministic.

``HopTableCache`` builds tables lazily and keeps one per source; it also
keeps the tree of each served set ``objective.evaluate`` asks for.  The graph
is undirected, so ``dist[h][v]`` of ``u``'s table is ``dist[h][u]`` of
``v``'s table: a cheapest walk from ``u`` to ``v``, reversed, is one from
``v`` to ``u``.  With integer edge costs the two are bit-identical; with
other costs the sums are taken from opposite ends and may differ in the
last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .instance_model import Instance, _is_integer


@dataclass(frozen=True)
class HopDistanceTable:
    """Distances and predecessors from one source, per hop budget.

    ``hop_limit`` is the table's top level, :func:`top_level` of its
    instance, and ``dist`` has shape (hop_limit + 1, num_nodes + 1); column
    0 is unused so node ids index directly.  A budget above the top level
    reads the top level, which every level above it repeats.  ``pred[h][v]``
    is the predecessor of ``v`` on the chosen cheapest walk of at most
    ``h`` edges (0 = none); both carry over from level ``h - 1`` unless the
    cost strictly falls at ``h``.
    ``dist_view`` and ``pred_view`` are read-only memoryviews of the two
    arrays, made once per table on first use and sharing their memory:
    ``dist_view[h, v]`` is one entry as a Python float (``pred_view``: int),
    read with no NumPy call.
    """

    source: int
    hop_limit: int
    dist: np.ndarray
    pred: np.ndarray

    @cached_property
    def dist_view(self) -> memoryview:
        return memoryview(self.dist).toreadonly()

    @cached_property
    def pred_view(self) -> memoryview:
        return memoryview(self.pred).toreadonly()

    def cost(self, node: int, hop_budget: int | None = None) -> float:
        """Cheapest cost to ``node`` within ``hop_budget`` edges (inf if none).

        ValueError unless ``node`` is a core node.
        """
        self._check_target(node)
        h = self.hop_limit if hop_budget is None else min(hop_budget, self.hop_limit)
        if h < 0:
            return math.inf
        return self.dist_view[h, node]

    def _check_target(self, node: object) -> None:
        if not (_is_integer(node) and 1 <= node < self.dist.shape[1]):
            raise ValueError(f"target {node} is not a core node")


def top_level(instance: Instance) -> int:
    """The highest hop level a table of ``instance`` holds.

    That is ``min(hop_limit, num_nodes - 1)``: costs are >= 0, so a walk
    of more than ``num_nodes - 1`` edges costs no less than the path it
    contains, and no cost falls past that level; every level above repeats
    it, ``dist`` and ``pred`` alike.
    """
    return min(instance.hop_limit, instance.num_nodes - 1)


def hop_bellman_ford(instance: Instance, source: int) -> HopDistanceTable:
    """Build one source's distance/predecessor table up to :func:`top_level`.

    Level ``h`` scatter-minimizes level ``h - 1`` over every arc; where a
    cost strictly falls, ``pred`` is the smallest source among the arcs that
    reach the new cost.  Costs are >= 0, so once no cost falls at a level,
    every level above repeats it: the sweep stops there and copies it up
    to the top level.
    """
    (source,) = instance.core_nodes([source], "source")
    top = top_level(instance)
    n = instance.num_nodes
    dist = np.full((top + 1, n + 1), np.inf)
    pred = np.zeros((top + 1, n + 1), dtype=np.int32)
    dist[0, source] = 0.0
    src, dst, wgt = instance.arcs
    for h in range(1, top + 1):
        prev, cur = dist[h - 1], dist[h]
        cand = prev[src] + wgt
        cur[:] = prev
        np.minimum.at(cur, dst, cand)
        won = (cand < prev[dst]) & (cand == cur[dst])
        fell = dst[won]
        pred[h] = pred[h - 1]
        if not len(fell):  # no cost fell: every level above repeats this one
            dist[h + 1 :], pred[h + 1 :] = cur, pred[h]
            break
        pred[h, fell] = n + 1  # above every id, so the minimum is a source
        np.minimum.at(pred[h], fell, src[won])
    for arr in (dist, pred):
        arr.setflags(write=False)
    return HopDistanceTable(source, top, dist, pred)


def extract_path(
    table: HopDistanceTable, target: int, hop_budget: int | None = None
) -> list[int] | None:
    """Recover the chosen source->target node path within ``hop_budget``.

    Returns None when the target is unreachable inside the budget, and
    raises ValueError unless ``target`` is a core node.  The path realizes
    ``table.cost(target, hop_budget)`` with the fewest edges among
    equal-cost walks: ``pred`` is walked down from the budget level (the
    top level at most), and a node's entry there is the one set where its
    cost last fell.
    """
    table._check_target(target)
    h = table.hop_limit if hop_budget is None else min(hop_budget, table.hop_limit)
    if h < 0 or not math.isfinite(table.dist_view[h, target]):
        return None
    pred = table.pred_view
    path = [target]
    node = target
    while node != table.source:
        if h <= 0:
            raise AssertionError("predecessor chain did not reach the source")
        node = pred[h, node]
        h -= 1
        path.append(node)
    path.reverse()
    return path


# the work a HopTableCache counts: served sets whose tree was built before,
# then nrbi's phase-1 picks, nodes relabeled and table entries read, the
# tree nodes phase 2 priced its facilities against and the fresh paths it
# read, and the open sets priced without a tree because they cannot beat
# their cutoff
WORK_COUNTS = ("trees_reused", "phase1_rounds", "relabeled",
               "phase1_reads", "phase2_reads", "fresh_paths", "screened")


class HopTableCache:
    """The per-solve memo of hop tables and of the tree of each served set.

    Tables are built lazily, one per source, and every table reaches
    :func:`top_level`, which stands for every level up to the hop limit.
    ``root_paths`` reads the root's table once, and ``cheapest_edges``
    the edges once; both bound the cost of a tree from below.
    ``trees`` maps a packed served set (the root plus the facilities some
    customer picks) to its packed tree, or to None when it has none.
    ``counts`` holds one running total per ``WORK_COUNTS`` name:
    ``objective.evaluate`` adds the lookups ``trees`` answers, and ``nrbi``
    its work.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self._tables: dict[int, HopDistanceTable] = {}
        self.trees: dict[bytes, bytes | None] = {}
        self.counts = dict.fromkeys(WORK_COUNTS, 0)

    def counters(self) -> dict[str, int]:
        """Hop tables built, then ``counts``, so far."""
        return {"tables_built": len(self._tables), **self.counts}

    def table(self, source: int) -> HopDistanceTable:
        tab = self._tables.get(source)
        if tab is None:
            tab = self._tables[source] = hop_bellman_ford(self.instance, source)
        return tab

    @cached_property
    def root_paths(self) -> np.ndarray:
        """Cheapest hop-feasible path cost from the root to each facility, in
        ``Instance.facilities`` order (inf: out of reach); read-only."""
        table = self.table(self.instance.root)
        paths = table.dist[table.hop_limit, np.asarray(self.instance.facilities)]
        paths.setflags(write=False)
        return paths

    @cached_property
    def cheapest_edges(self) -> np.ndarray:
        """Cost of the cheapest edge at each facility, in
        ``Instance.facilities`` order, 0 for the root; read-only.

        A tree's non-root nodes each have their own parent edge, so a tree
        costs at least the sum of its facilities' entries.
        """
        instance = self.instance
        _, dst, wgt = instance.arcs
        cheapest = np.full(instance.num_nodes + 1, np.inf)
        np.minimum.at(cheapest, dst, wgt)
        edges = cheapest[np.asarray(instance.facilities)]
        edges[instance.facility_index[instance.root]] = 0.0
        edges.setflags(write=False)
        return edges


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
