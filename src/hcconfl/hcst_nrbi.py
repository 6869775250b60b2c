"""Two-phase insertion heuristic for hop-limited Steiner trees.

Given a set of required nodes (the open facilities) the heuristic builds a
tree rooted at the designated root in which every node sits within the hop
limit:

* phase 1 grows a partial structure from the root, repeatedly attaching the
  cheapest hop-feasible path from any reached node to any missing required
  node, while labelling each reached node with the hops used to get there
  and each required node with its insertion epoch;
* phase 2 rebuilds the final tree, visiting required nodes in reverse epoch
  order and connecting each one either through a freshly computed path into
  the current tree or through its phase-1 route, whichever is cheaper.

Ties are broken by cost, then fewer hops, then smallest id pair, so
results are deterministic.  Both phases read whole hop-table rows at once:
phase 1 keeps the best known connection to every node and refreshes it only
from the nodes whose label the last insertion set or lowered; phase 2
prices every tree node for a facility with one gather over the stacked
tables of ``HopTableCache``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .hop_paths import HopTableCache, extract_path
from .instance_model import Instance


class TreeInfeasibleError(ValueError):
    """No hop-feasible connection exists for a required facility."""

    def __init__(self, facility: int, hop_limit: int):
        self.facility = facility
        self.hop_limit = hop_limit
        super().__init__(
            f"facility {facility} cannot be reached within {hop_limit} hops"
        )


@dataclass
class NrbiState:
    """Phase-1 output: partial structure plus bookkeeping labels.

    ``hops_from_root`` upper-bounds the hops needed to reach each partial
    node from the root; ``insertion_epoch`` numbers the required nodes in
    the order phase 1 attached them (root excluded).  ``parent`` retains,
    for every partial node, the predecessor on its cheapest known root walk;
    following it always terminates at the root within the hop limit.
    """

    root: int
    hop_limit: int
    partial_nodes: set[int] = field(default_factory=set)
    partial_edges: set[tuple[int, int]] = field(default_factory=set)
    hops_from_root: dict[int, int] = field(default_factory=dict)
    insertion_epoch: dict[int, int] = field(default_factory=dict)
    remaining: set[int] = field(default_factory=set)
    parent: dict[int, int] = field(default_factory=dict)
    insertion_path: dict[int, tuple[int, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class SteinerTree:
    """A rooted tree on core nodes with per-node hop depth."""

    root: int
    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]  # (u, v) with u < v
    depth: dict[int, int]
    parent: dict[int, int]  # absent for the root
    cost: float


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _insert_phase1_path(state: NrbiState, path: list[int]) -> list[int]:
    """Add ``path`` to the partial structure; return the nodes it relabeled.

    A node is relabeled when it is new or the path reaches it in fewer hops
    than its label.
    """
    base = state.hops_from_root[path[0]]
    prev = path[0]
    relabeled: list[int] = []
    for pos in range(1, len(path)):
        node = path[pos]
        label = base + pos
        if node not in state.partial_nodes:
            state.partial_nodes.add(node)
            state.hops_from_root[node] = label
            state.parent[node] = prev
            relabeled.append(node)
        elif label < state.hops_from_root[node]:
            # cheaper-in-hops route found later; relabel so the stored walk
            # to the root never exceeds the label
            state.hops_from_root[node] = label
            state.parent[node] = prev
            relabeled.append(node)
        state.partial_edges.add(_edge(prev, node))
        if node in state.remaining:
            state.remaining.discard(node)
            state.insertion_epoch[node] = len(state.insertion_epoch) + 1
            state.insertion_path[node] = tuple(path[: pos + 1])
        prev = node
    return relabeled


def nrbi_phase1(
    instance: Instance,
    open_facilities: Iterable[int],
    cache: HopTableCache | None = None,
) -> NrbiState:
    """Grow the partial structure until every open facility is attached.

    Each round attaches the lexicographically smallest (cost, hops, u, v)
    path from a partial node ``u`` within its remaining hop budget to a
    missing facility ``v``.  ``best_*`` hold, per node, the smallest
    (cost, hops, u) seen so far and are refreshed only from relabeled
    nodes.  That is exact: a relabel only raises ``u``'s budget, table rows
    never increase with the budget, and an equal cost keeps the same fewest
    hops, so a stale entry never beats the fresh one.
    """
    if cache is None:
        cache = HopTableCache(instance)
    hops = instance.hop_limit
    if cache.hop_limit < hops:
        raise ValueError("hop table cache is shallower than the instance hop limit")
    root = instance.root
    state = NrbiState(root=root, hop_limit=hops)
    state.partial_nodes.add(root)
    state.hops_from_root[root] = 0
    state.remaining = {f for f in open_facilities if f != root}

    best_cost = np.full(instance.num_nodes + 1, np.inf)
    best_hops = np.zeros(instance.num_nodes + 1, dtype=cache.first.dtype)
    best_from = np.zeros(instance.num_nodes + 1, dtype=np.int64)
    relabeled = [root]
    while state.remaining:
        for u in relabeled:
            budget = hops - state.hops_from_root[u]
            if budget < 1:
                continue
            table = cache.table(u)
            cost = table.dist[budget]
            fewest = table.first[budget]
            better = (cost < best_cost) | (
                (cost == best_cost)
                & ((fewest < best_hops) | ((fewest == best_hops) & (u < best_from)))
            )
            np.copyto(best_cost, cost, where=better)
            np.copyto(best_hops, fewest, where=better)
            best_from[better] = u
        targets = np.fromiter(sorted(state.remaining), dtype=np.int64)
        pick = np.lexsort(
            (targets, best_from[targets], best_hops[targets], best_cost[targets])
        )[0]
        if not math.isfinite(best_cost[targets[pick]]):
            raise TreeInfeasibleError(min(state.remaining), hops)
        v_star = int(targets[pick])
        u_star = int(best_from[v_star])
        path = extract_path(cache.table(u_star), v_star, hops - state.hops_from_root[u_star])
        assert path is not None
        relabeled = _insert_phase1_path(state, path)
    return state


def _parent_chain(state: NrbiState, node: int, stop: set[int]) -> list[int]:
    """Walk phase-1 parents from ``node`` until a node in ``stop``; root-first."""
    chain = [node]
    while chain[-1] not in stop:
        chain.append(state.parent[chain[-1]])
    chain.reverse()
    return chain


def _parent_tree(instance: Instance, state: NrbiState) -> SteinerTree:
    """Fallback tree: union of the phase-1 parent walks of all required nodes.

    The phase-1 labels strictly increase along parent links, so this union
    is a tree whose depths stay within the hop limit.  Only used when the
    regular phase-2 attachment cannot place a node without breaking the
    limit, which requires a rather contorted graph.
    """
    nodes = {state.root}
    edges: set[tuple[int, int]] = set()
    parent: dict[int, int] = {}
    for v in state.insertion_epoch:
        x = v
        while x not in nodes:
            p = state.parent[x]
            nodes.add(x)
            edges.add(_edge(p, x))
            parent[x] = p
            x = p
    depth = {state.root: 0}

    def resolve(x: int) -> int:
        trail = []
        while x not in depth:
            trail.append(x)
            x = parent[x]
        d = depth[x]
        for y in reversed(trail):
            d += 1
            depth[y] = d
        return d

    for v in nodes:
        resolve(v)
    cost = sum(instance.edge_cost(u, v) for u, v in sorted(edges))
    return SteinerTree(
        root=state.root,
        nodes=frozenset(nodes),
        edges=frozenset(edges),
        depth=depth,
        parent=parent,
        cost=float(cost),
    )


def nrbi_phase2(
    instance: Instance,
    state: NrbiState,
    cache: HopTableCache | None = None,
) -> SteinerTree:
    """Assemble the final tree from the phase-1 structure.

    Required nodes are processed from the newest insertion epoch to the
    oldest.  Each is attached either via the cheapest fresh hop-feasible
    path from a current tree node, or via its phase-1 route when its
    recorded insertion path costs no more than that.  Tree nodes, depths
    and labels also sit in arrays that ``attach`` appends to, so all fresh
    candidates of a facility come from one gather over the table store.
    """
    if cache is None:
        cache = HopTableCache(instance)
    hops = instance.hop_limit
    root = state.root
    tree_nodes = {root}
    depth = {root: 0}
    parent: dict[int, int] = {}
    edges: set[tuple[int, int]] = set()
    # tree nodes in attach order, their depths and phase-1 labels (the
    # depth for nodes phase 1 never reached)
    members = np.zeros(instance.num_nodes, dtype=np.int64)
    member_depth = np.zeros(instance.num_nodes, dtype=np.int64)
    member_label = np.zeros(instance.num_nodes, dtype=np.int64)
    members[0] = root
    size = 1

    def attach(path: list[int]) -> None:
        nonlocal size
        prev = path[0]
        for node in path[1:]:
            tree_nodes.add(node)
            depth[node] = depth[prev] + 1
            parent[node] = prev
            edges.add(_edge(prev, node))
            members[size] = node
            member_depth[size] = depth[node]
            member_label[size] = state.hops_from_root.get(node, depth[node])
            size += 1
            prev = node

    order = sorted(state.insertion_epoch, key=lambda v: -state.insertion_epoch[v])
    for v in order:
        if v in tree_nodes:
            continue
        bound = state.hops_from_root[v]

        # cheapest fresh connection from any current tree node
        budgets = np.minimum(bound - member_label[:size], hops - member_depth[:size])
        usable = budgets >= 1
        us = members[:size][usable]
        budgets = budgets[usable]
        slots = cache.slots(us)
        costs = cache.dist[slots, budgets, v]
        fewest = cache.first[slots, budgets, v]
        fresh_pick: tuple[float, list[int]] | None = None
        for k in np.lexsort((us, fewest, costs)):
            if not math.isfinite(costs[k]):
                break
            path = extract_path(cache.table(int(us[k])), v, int(budgets[k]))
            assert path is not None
            cut = max(i for i, x in enumerate(path) if x in tree_nodes)
            suffix = path[cut:]
            if depth[suffix[0]] + len(suffix) - 1 <= hops:
                fresh_pick = (float(costs[k]), suffix)
                break

        # phase-1 route: the surviving parent-walk segment into the tree
        chain = _parent_chain(state, v, tree_nodes)
        chain_ok = depth[chain[0]] + len(chain) - 1 <= hops
        phase1_cost = instance.path_cost(state.insertion_path[v])

        if fresh_pick is not None and (not chain_ok or fresh_pick[0] < phase1_cost):
            attach(fresh_pick[1])
        elif chain_ok:
            attach(chain)
        else:
            # neither attachment fits the hop limit from here; fall back to
            # the raw phase-1 parent tree, which always does
            return _parent_tree(instance, state)

    cost = sum(instance.edge_cost(u, v) for u, v in sorted(edges))
    return SteinerTree(
        root=root,
        nodes=frozenset(tree_nodes),
        edges=frozenset(edges),
        depth=depth,
        parent=parent,
        cost=float(cost),
    )


def nrbi(
    instance: Instance,
    open_facilities: Iterable[int],
    cache: HopTableCache | None = None,
) -> SteinerTree:
    """Build a hop-feasible tree spanning root plus ``open_facilities``."""
    if cache is None:
        cache = HopTableCache(instance)
    state = nrbi_phase1(instance, open_facilities, cache)
    return nrbi_phase2(instance, state, cache)
