"""Exhaustive exact baselines for small instances.

These act as the ground truth the heuristics are measured against, so they
share no search with the rest of the package; the trees they return are
built by ``tree_from_parents``, like every tree in the package, and
``exact_solve`` hands ``objective.price`` the tree query
``HcstOracle.solve``, as ``evaluate`` hands it ``nrbi``.  Two enumeration
strategies cover the size envelope, and both fill the same rows: one per
candidate tree, with a bitmask of its non-root nodes, its cost (inf when
the row is no tree), and its parent and depth by node id.

* depth-profile enumeration, used when its (H+1)^(n-1) rows number at most
  ``PROFILE_ROW_CAP``: every assignment of "excluded or depth 1..H" to the
  non-root nodes is scored by giving each included node its cheapest parent
  one level up; every hop-feasible tree shape corresponds to exactly one
  profile, so the minimum over profiles is exact.  Vectorized.
* edge-subset enumeration otherwise, up to ``MAX_CORE_EDGES`` core edges:
  every subset of core edges is tested for being a hop-feasible tree, and
  each node set keeps its cheapest.  Slower, and kept both as the fallback
  and as a cross-check of the profile method.

Once the rows are filled, one table holds, for each of the 2^(n-1) sets of
non-root nodes, the first cheapest row whose mask covers that set, so a
query is one lookup, and only the rows the table names are kept.  Each
strategy's row order stays its tie rule.  ``HcstOracle(instance).solve``
is the one tree query; build one oracle per instance and ask it every
query.  Both strategies are exhaustive by construction.  The unit tests
compare them on random instances, and compare the lookups with a scan of
the rows; they reach the edge-subset strategy on small instances by
setting ``PROFILE_ROW_CAP`` to 0, which ``HcstOracle`` reads when built.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple

import numpy as np

from .hcst_nrbi import SteinerTree, tree_from_parents
from .instance_model import Instance
from .objective import Solution, price, root_open_subsets

PROFILE_ROW_CAP = 300_000
MAX_CORE_EDGES = 20  # edge-subset enumeration
MAX_FACILITIES = 12  # facility-subset enumeration in exact_solve


class OracleLimitError(ValueError):
    """Instance exceeds the size envelope the oracle is willing to handle."""


class _Rows(NamedTuple):
    """Candidate trees in tie order; ``depths`` is -1 for nodes off the tree.

    Node ids fit the int64 ``masks``: the profile cap admits at most 19
    nodes, and 20 edges connect at most 21.
    """

    masks: np.ndarray
    costs: np.ndarray
    parents: np.ndarray
    depths: np.ndarray


def _pack(masks, root: int):
    """Id-bit masks (int or array), root bit clear, as n - 1 bits in id order."""
    below = masks & (1 << root) - 1  # ids under the root; bit 0 is never set
    return below >> 1 | masks >> root + 1 << root - 1


def _first_covering(instance: Instance, rows: _Rows) -> np.ndarray:
    """For each packed set of non-root nodes, the index of the first
    cheapest row whose mask covers it, or -1 when no finite row does.

    A stable sort ranks the rows by ``(cost, index)``; each exact mask keeps
    its least rank, and one pass per bit hands the least rank down from
    ``m | bit`` to ``m``.  The 2^(n-1) entries never outnumber the profile
    strategy's (H+1)^(n-1) rows, and 20 edges connect at most 21 nodes.
    """
    bits = instance.num_nodes - 1
    order = np.argsort(rows.costs, kind="stable")[: np.isfinite(rows.costs).sum()]
    rank = np.full(1 << bits, len(order))
    np.minimum.at(rank, _pack(rows.masks[order], instance.root), np.arange(len(order)))
    for bit in range(bits):
        pair = rank.reshape(-1, 2, 1 << bit)  # [:, 0] lacks the bit, [:, 1] has it
        np.minimum(pair[:, 0], pair[:, 1], out=pair[:, 0])
    return np.append(order, -1)[rank]


class HcstOracle:
    """Exact hop-constrained Steiner trees for one instance.

    Fills one strategy's rows once and finds, for every set of non-root
    nodes, the first cheapest row that covers it; each query is then one
    lookup in that table of 2^(n-1) entries.  Only the rows the table
    names are kept.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        profile_rows = (instance.hop_limit + 1) ** (instance.num_nodes - 1)
        self._by_profile = profile_rows <= PROFILE_ROW_CAP
        rows = (_profile_rows if self._by_profile else _subset_rows)(instance)
        # keep only the rows the table names, in row order, so a scan of them
        # still meets each query's answer first; the appended -1 (no tree)
        # becomes kept[0], so every entry moves down by one
        kept, table = np.unique(
            np.append(_first_covering(instance, rows), -1), return_inverse=True
        )
        self._rows = _Rows(*(field[kept[1:]] for field in rows))
        self._table = table[:-1] - 1

    def solve(self, required: Iterable[int]) -> SteinerTree | None:
        """The first cheapest hop-feasible tree spanning root plus
        ``required``, or None when there is none."""
        root = self.instance.root
        needed = self.instance.core_nodes(required) - {root}
        idx = int(self._table[_pack(sum(1 << v for v in needed), root)])
        if idx < 0:
            return None
        levels = self._rows.depths[idx]
        nodes = np.flatnonzero(levels >= 1).tolist()  # the root sits at depth 0
        depth = {root: 0}
        depth.update(zip(nodes, levels[nodes].tolist()))
        parent = dict(zip(nodes, self._rows.parents[idx, nodes].tolist()))
        return tree_from_parents(self.instance, parent, depth)


def _profile_rows(instance: Instance) -> _Rows:
    """One row per depth profile, in ``itertools.product`` order.

    A profile gives each non-root node "excluded" or a depth 1..H, the last
    node varying fastest; each included node takes its cheapest neighbour
    one level up as parent, ties to the smaller id.
    """
    n = instance.num_nodes
    root = instance.root
    others = [v for v in range(1, n + 1) if v != root]
    base = instance.hop_limit + 1  # digit 0 is "excluded", digit d is depth d
    count = base ** len(others)
    shape = (count, n + 1)  # column-major, so each node's column is contiguous
    # the narrowest type that holds -1..H: int8 overflows from H = 128
    levels = np.zeros(shape, dtype=np.min_scalar_type(-instance.hop_limit), order="F")
    index = np.arange(count)
    for j, v in enumerate(others):
        digit = index // base ** (len(others) - 1 - j) % base
        levels[:, v] = np.where(digit == 0, -1, digit)

    masks = np.zeros(count, dtype=np.int64)
    total = np.zeros(count)
    parents = np.zeros(shape, dtype=np.int32, order="F")  # read only on the tree
    src, dst, weight = instance.arcs
    for v in others:
        best = np.full(count, np.inf)
        best_u = parents[:, v]  # a view: filled in place
        into = np.flatnonzero(dst == v)  # the arcs u -> v
        # sorted by neighbour id, as core_edges need not be: ties keep smaller u
        for u, w in sorted(zip(src[into].tolist(), weight[into].tolist())):
            upd = (levels[:, u] == levels[:, v] - 1) & (w < best)
            best[upd] = w
            best_u[upd] = u
        included = levels[:, v] >= 1
        masks |= included.astype(np.int64) << v
        total += np.where(included, best, 0.0)
    return _Rows(masks, total, parents, levels)


def _subset_rows(instance: Instance) -> _Rows:
    """One row per node set some hop-feasible edge subset spans.

    Node sets come in the order edge subsets first span them (by size, then
    lexicographically); each row keeps the first cheapest such subset.
    """
    edge_list = instance.core_edges
    if len(edge_list) > MAX_CORE_EDGES:
        raise OracleLimitError(
            f"{len(edge_list)} core edges exceed the oracle limit of {MAX_CORE_EDGES}"
        )
    root_bit = 1 << instance.root
    ends = [1 << u | 1 << v for u, v, _ in edge_list]
    # non-root node mask -> (cost, parent, depth); no edges span the root alone
    found = {0: (0.0, *_tree_levels(instance, ()))}
    for k in range(1, min(instance.num_nodes - 1, len(edge_list)) + 1):
        for combo in combinations(range(len(edge_list)), k):
            node_mask = 0
            for i in combo:
                node_mask |= ends[i]
            if node_mask.bit_count() != k + 1 or not node_mask & root_bit:
                continue
            cost = sum(edge_list[i][2] for i in combo)
            prev = found.get(node_mask ^ root_bit)
            if prev is not None and cost >= prev[0]:
                continue
            levels = _tree_levels(instance, combo)
            if levels is not None:
                found[node_mask ^ root_bit] = (cost, *levels)
    costs, parents, depths = zip(*found.values())
    return _Rows(
        np.fromiter(found, dtype=np.int64, count=len(found)),
        np.array(costs),
        np.array(parents, dtype=np.int32),
        np.array(depths, dtype=np.int32),
    )


def _tree_levels(
    instance: Instance, combo: tuple[int, ...]
) -> tuple[list[int], list[int]] | None:
    """Parent and depth by node id of the subset's BFS tree from the root.

    None unless all its nodes lie within the hop limit, which makes k edges
    on k + 1 nodes, root included, a tree.
    """
    adj: dict[int, list[int]] = {}
    for i in combo:
        u, v, _ = instance.core_edges[i]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    parent = [0] * (instance.num_nodes + 1)
    depth = [-1] * (instance.num_nodes + 1)
    depth[instance.root] = 0
    frontier = [instance.root]
    reached = level = 1
    while frontier and level <= instance.hop_limit:
        nxt = []
        for x in frontier:
            for y in adj.get(x, ()):
                if depth[y] < 0:
                    depth[y] = level
                    parent[y] = x
                    nxt.append(y)
        reached += len(nxt)
        frontier = nxt
        level += 1
    return (parent, depth) if reached == len(combo) + 1 else None


def exact_solve(instance: Instance) -> Solution:
    """Optimal solution by enumerating every root-open facility subset.

    ``objective.price`` prices each subset, asking ``HcstOracle.solve``
    once for the exact tree over the facilities that serve someone.  Ties
    between equal totals go to the lexicographically smallest open vector
    over ``instance.facilities``, which lists ids in ascending order (the
    root always open).
    """
    if len(instance.facilities) > MAX_FACILITIES:
        raise OracleLimitError(
            f"{len(instance.facilities)} facilities exceed the oracle limit "
            f"of {MAX_FACILITIES}"
        )
    oracle = HcstOracle(instance)
    root = instance.root
    others = [f for f in instance.facilities if f != root]
    return min(
        (price(instance, s, oracle.solve) for s in root_open_subsets(root, others)),
        key=lambda solution: solution.total,  # min keeps the first of equal totals
    )
