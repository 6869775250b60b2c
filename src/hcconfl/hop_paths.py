"""Hop-limited shortest paths on the core graph.

The central object is a per-source table ``dist[h][v]`` = cheapest cost of a
walk from the source to ``v`` using at most ``h`` edges, computed by a
Bellman-Ford sweep over hop levels.  Rows are nonincreasing in ``h``.  Ties
between equal-cost paths are broken toward fewer hops, then toward the
smaller predecessor id, which makes extracted paths deterministic.

``HopTableCache`` builds tables lazily and also stacks every table it built
into ``(slots, H+1, n+1)`` arrays, so the tree heuristic can read many
sources at once with one gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    """Build one source's distance/predecessor table up to the hop limit."""
    if source not in range(1, instance.num_nodes + 1):
        raise ValueError(f"source {source} is not a core node")
    hops = instance.hop_limit
    n = instance.num_nodes
    dist = np.full((hops + 1, n + 1), np.inf)
    pred = np.zeros((hops + 1, n + 1), dtype=np.int32)
    dist[0, source] = 0.0
    src, dst, wgt = instance.arcs
    for h in range(1, hops + 1):
        prev = dist[h - 1]
        cand = prev[src] + wgt
        # per destination pick the min candidate, ties toward smaller source
        order = np.lexsort((src, cand))
        best_at = np.full(n + 1, -1, dtype=np.int64)
        best_at[dst[order[::-1]]] = order[::-1]
        cur = prev.copy()
        cur_pred = pred[h - 1].copy()
        nodes = np.nonzero(best_at >= 0)[0]
        picks = best_at[nodes]
        vals = cand[picks]
        better = vals < cur[nodes]  # strict: equal cost keeps the shorter walk
        upd = nodes[better]
        cur[upd] = vals[better]
        cur_pred[upd] = src[picks[better]]
        dist[h] = cur
        pred[h] = cur_pred
    # rows never increase and carried-over entries are bit-identical copies,
    # so a value equal to the level below was first reached there
    first = np.zeros((hops + 1, n + 1), dtype=_hop_dtype(hops))
    for h in range(1, hops + 1):
        first[h] = np.where(dist[h] == dist[h - 1], first[h - 1], h)
    for arr in (dist, pred, first):
        arr.setflags(write=False)
    return HopDistanceTable(
        source=source, hop_limit=hops, dist=dist, pred=pred, first=first
    )


def _hop_dtype(hop_limit: int) -> np.dtype:
    """Smallest signed integer type holding hop counts 0..``hop_limit``."""
    # a signed type holds +h whenever it holds -(h + 1)
    return np.min_scalar_type(-hop_limit - 1)


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
    """Lazy per-source table cache for the lifetime of one solver run.

    Every table reaches the instance's hop limit and lives in a stacked
    store: ``dist[k]`` and ``first[k]`` hold the table of the source whose
    ``slot`` entry is ``k`` (-1 = not built yet), and the table's own
    ``dist``/``first`` are views of them.
    The store grows with the number of sources built, not with the node
    count, and is reallocated when it fills, so read ``dist``/``first``
    again after anything that may build a table.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self._tables: dict[int, HopDistanceTable] = {}
        shape = (instance.hop_limit + 1, instance.num_nodes + 1)
        self.dist = np.empty((0, *shape))
        self.first = np.empty((0, *shape), dtype=_hop_dtype(instance.hop_limit))
        self.slot = np.full(instance.num_nodes + 1, -1, dtype=np.int64)

    def table(self, source: int) -> HopDistanceTable:
        tab = self._tables.get(source)
        if tab is None:
            built = hop_bellman_ford(self.instance, source)
            k = len(self._tables)
            if k == len(self.dist):
                self._grow(k + max(8, k // 2))
            self.dist[k] = built.dist
            self.first[k] = built.first
            self.slot[source] = k
            tab = self._tables[source] = self._view(built, k)
        return tab

    def slots(self, sources: np.ndarray) -> np.ndarray:
        """Store slots of ``sources``, building any table not built yet."""
        for source in sources[self.slot[sources] < 0]:
            self.table(int(source))
        return self.slot[sources]

    def _view(self, tab: HopDistanceTable, k: int) -> HopDistanceTable:
        """``tab`` reading its distances and min-hops from store slot ``k``."""
        dist, first = self.dist[k], self.first[k]
        dist.setflags(write=False)
        first.setflags(write=False)
        return replace(tab, dist=dist, first=first)

    def _grow(self, capacity: int) -> None:
        for name in ("dist", "first"):
            old = getattr(self, name)
            new = np.empty((capacity, *old.shape[1:]), dtype=old.dtype)
            new[: len(old)] = old
            setattr(self, name, new)
        # re-point every table at the new store so the old one is freed
        self._tables = {
            source: self._view(tab, self.slot[source])
            for source, tab in self._tables.items()
        }
