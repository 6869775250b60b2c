"""Exhaustive exact baselines for small instances.

These act as the ground truth the heuristics are measured against, so they
share no search with the rest of the package; the trees they return are
built by ``tree_from_parents``, like every tree in the package, and
``exact_solve`` prices them with ``objective.price``, like every solver.  Two
enumeration strategies cover the size envelope:

* depth-profile enumeration: every assignment of "excluded or depth 1..H"
  to the non-root nodes is scored by giving each included node its cheapest
  parent one level up; every hop-feasible tree shape corresponds to exactly
  one profile, so the minimum over profiles is exact.  Vectorized, and used
  whenever the profile space is small enough.
* edge-subset enumeration: every subset of core edges is tested for being a
  hop-feasible tree.  Slower, bounded by the edge-count limit, and kept
  both as the fallback and as a cross-check of the profile method.

Both are exhaustive by construction; the unit tests compare them against
each other on random instances.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable

import numpy as np

from .hcst_nrbi import SteinerTree, tree_from_parents
from .instance_model import Instance
from .objective import Solution, price, root_open_subsets

PROFILE_ROW_CAP = 300_000
MAX_CORE_EDGES = 20  # edge-subset enumeration
MAX_FACILITIES = 12  # facility-subset enumeration in exact_solve


class OracleLimitError(ValueError):
    """Instance exceeds the size envelope the oracle is willing to handle."""


def _required_nodes(instance: Instance, required: Iterable[int]) -> list[int]:
    """Sorted non-root nodes of ``required``; each must be a core node."""
    needed = sorted(set(required) - {instance.root})
    for v in needed:
        if v not in range(1, instance.num_nodes + 1):
            raise ValueError(f"required node {v} is not a core node")
    return needed


class HcstOracle:
    """Exact hop-constrained Steiner trees for one instance.

    Precomputes once, then answers any required-node subset.  Choose the
    profile strategy when its row count stays under the cap, otherwise
    enumerate edge subsets (guarded by ``MAX_CORE_EDGES``).
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        n = instance.num_nodes
        profile_rows = (instance.hop_limit + 1) ** (n - 1) if n > 1 else 1
        self._by_profile = profile_rows <= PROFILE_ROW_CAP
        if self._by_profile:
            self._build_profiles()
        else:
            self._table = _subset_table(instance)

    # -- depth-profile strategy -------------------------------------------

    def _build_profiles(self) -> None:
        inst = self.instance
        n = inst.num_nodes
        root = inst.root
        others = [v for v in range(1, n + 1) if v != root]
        domain = [-1] + list(range(1, inst.hop_limit + 1))
        rows = np.array(list(product(domain, repeat=len(others))), dtype=np.int8)
        rows = rows.reshape(-1, len(others))
        levels = np.zeros((rows.shape[0], n + 1), dtype=np.int8)
        for j, v in enumerate(others):
            levels[:, v] = rows[:, j]
        levels[:, root] = 0

        total = np.zeros(rows.shape[0])
        parent_pick = np.zeros((rows.shape[0], n + 1), dtype=np.int32)
        for v in others:
            best = np.full(rows.shape[0], np.inf)
            best_u = np.zeros(rows.shape[0], dtype=np.int32)
            for u, w in inst.adjacency[v]:  # ascending u: ties keep smaller id
                hit = levels[:, u] == levels[:, v] - 1
                upd = hit & (w < best)
                best[upd] = w
                best_u[upd] = u
            included = levels[:, v] >= 1
            total += np.where(included, best, 0.0)
            parent_pick[:, v] = np.where(included, best_u, 0)
        self._levels = levels
        self._totals = total
        self._parents = parent_pick

    def _solve_profiles(self, needed: list[int]) -> SteinerTree | None:
        mask = np.isfinite(self._totals)
        for v in needed:
            mask &= self._levels[:, v] >= 1
        if not mask.any():
            return None
        costs = np.where(mask, self._totals, np.inf)
        idx = int(np.argmin(costs))  # first minimum: canonical profile order
        levels = self._levels[idx]
        nodes = np.flatnonzero(levels >= 1).tolist()  # the root sits at level 0
        depth = {self.instance.root: 0}
        depth.update(zip(nodes, levels[nodes].tolist()))
        parent = dict(zip(nodes, self._parents[idx, nodes].tolist()))
        return tree_from_parents(self.instance, self.instance.root, parent, depth)

    # -- public -------------------------------------------------------------

    def solve(self, required: Iterable[int]) -> SteinerTree | None:
        """Cheapest hop-feasible tree spanning root plus ``required``."""
        needed = _required_nodes(self.instance, required)
        if self._by_profile:
            return self._solve_profiles(needed)
        return _subset_tree(self.instance, self._table, needed)


# -- edge-subset strategy -----------------------------------------------------


def _subset_table(instance: Instance) -> dict[int, tuple[float, tuple[int, ...]]]:
    """Cheapest hop-feasible edge subset (cost, edge indices) per node mask."""
    edge_list = instance.core_edges
    if len(edge_list) > MAX_CORE_EDGES:
        raise OracleLimitError(
            f"{len(edge_list)} core edges exceed the oracle limit of {MAX_CORE_EDGES}"
        )
    root_bit = 1 << instance.root
    masks = [1 << u | 1 << v for u, v, _ in edge_list]
    table: dict[int, tuple[float, tuple[int, ...]]] = {root_bit: (0.0, ())}
    max_edges = min(instance.num_nodes - 1, len(edge_list))
    for k in range(1, max_edges + 1):
        for combo in combinations(range(len(edge_list)), k):
            node_mask = 0
            for i in combo:
                node_mask |= masks[i]
            if node_mask.bit_count() != k + 1 or not node_mask & root_bit:
                continue
            depth_ok, cost = _check_tree(instance, combo, node_mask)
            if not depth_ok:
                continue
            prev = table.get(node_mask)
            if prev is None or cost < prev[0]:
                table[node_mask] = (cost, combo)
    return table


def _check_tree(
    instance: Instance, combo: tuple[int, ...], node_mask: int
) -> tuple[bool, float]:
    """BFS from the root over the edge subset: connected within hops?"""
    adj: dict[int, list[int]] = {}
    cost = 0.0
    for i in combo:
        u, v, w = instance.core_edges[i]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
        cost += w
    seen_mask = 1 << instance.root
    frontier = [instance.root]
    level = 0
    while frontier and level < instance.hop_limit:
        level += 1
        nxt = []
        for x in frontier:
            for y in adj.get(x, ()):
                if not seen_mask >> y & 1:
                    seen_mask |= 1 << y
                    nxt.append(y)
        frontier = nxt
    return seen_mask == node_mask | 1 << instance.root, cost


def _subset_tree(
    instance: Instance,
    table: dict[int, tuple[float, tuple[int, ...]]],
    needed: list[int],
) -> SteinerTree | None:
    """Cheapest tree in ``table`` spanning root plus ``needed``, or None."""
    root = instance.root
    req_mask = 1 << root
    for v in needed:
        req_mask |= 1 << v
    best: tuple[float, tuple[int, ...]] | None = None
    for node_mask, (cost, combo) in table.items():
        if node_mask & req_mask == req_mask:
            if best is None or cost < best[0]:
                best = (cost, combo)
    if best is None:
        return None
    adj: dict[int, list[int]] = {}
    for i in best[1]:
        u, v, _ = instance.core_edges[i]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    depth = {root: 0}
    parent: dict[int, int] = {}
    frontier = [root]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj.get(x, ()):
                if y not in depth:
                    depth[y] = depth[x] + 1
                    parent[y] = x
                    nxt.append(y)
        frontier = nxt
    return tree_from_parents(instance, root, parent, depth)


def exact_hcst(instance: Instance, required: Iterable[int]) -> SteinerTree | None:
    """Exact minimum-cost hop-feasible tree, or None when infeasible."""
    return HcstOracle(instance).solve(required)


def exact_hcst_edge_subsets(
    instance: Instance, required: Iterable[int]
) -> SteinerTree | None:
    """Edge-subset reference enumeration, exposed for cross-checking."""
    needed = _required_nodes(instance, required)
    return _subset_tree(instance, _subset_table(instance), needed)


def exact_solve(instance: Instance) -> Solution:
    """Optimal solution by enumerating every root-open facility subset.

    Each subset is priced by ``objective.price`` on its exact tree.  Ties
    between equal totals go to the lexicographically smallest open vector
    over the facilities in ascending id order (the root always open),
    whatever the order of ``instance.facilities``.
    """
    if len(instance.facilities) > MAX_FACILITIES:
        raise OracleLimitError(
            f"{len(instance.facilities)} facilities exceed the oracle limit "
            f"of {MAX_FACILITIES}"
        )
    oracle = HcstOracle(instance)
    root = instance.root
    others = sorted(f for f in instance.facilities if f != root)
    return min(
        (price(instance, s, oracle.solve(s)) for s in root_open_subsets(root, others)),
        key=lambda solution: solution.total,  # min keeps the first of equal totals
    )
