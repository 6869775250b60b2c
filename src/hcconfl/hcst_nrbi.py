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
  the current tree or through its phase-1 route, whichever is cheaper; if
  neither fits the hop limit, it returns the tree of the phase-1 chains
  alone, which always fits.

Every tree is made by ``tree_from_parents``, which takes the root from the
instance.  Candidate paths are ranked by cost, then by the smallest id
pair, never by hop count, so results are deterministic; each path has the
fewest edges among its own source's equal-cost walks.  Both phases read the
hop tables only at the open facilities' columns: phase 1 keeps the best
known connection to each missing facility and refreshes it only from the
nodes whose label the last insertion set or lowered; phase 2 prices every
tree node for a facility with one gather from that facility's own table,
since on an undirected graph the cheapest walk from ``v`` to ``u`` is the
reverse of one from ``u`` to ``v``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .hop_paths import HopTableCache, cache_for, extract_path
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

    The keys of ``hops_from_root`` are the partial nodes; each value
    upper-bounds the hops needed to reach that node from the root.
    ``insertion_epoch`` numbers the required nodes in the order phase 1
    attached them (root excluded).  ``parent`` retains, for every partial
    node but the root, the predecessor on its cheapest known root walk;
    following it always terminates at the root within the hop limit.
    ``insertion_cost`` holds, for every attached required node, the cost
    of the path stretch that attached it, summed edge by edge from the
    partial node it started at.
    """

    hops_from_root: dict[int, int] = field(default_factory=dict)
    insertion_epoch: dict[int, int] = field(default_factory=dict)
    parent: dict[int, int] = field(default_factory=dict)
    insertion_cost: dict[int, float] = field(default_factory=dict)


@dataclass(frozen=True)
class SteinerTree:
    """A rooted tree on core nodes with per-node hop depth."""

    root: int
    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]  # (u, v) with u < v
    depth: dict[int, int]
    parent: dict[int, int]  # absent for the root
    cost: float


def tree_from_parents(
    instance: Instance, parent: dict[int, int], depth: dict[int, int]
) -> SteinerTree:
    """The tree on the keys of ``depth`` whose edges are the ``parent`` links.

    Rooted at the instance's root; its cost sums its edge costs in sorted order.
    """
    edges = frozenset((p, v) if p < v else (v, p) for v, p in parent.items())
    return SteinerTree(
        root=instance.root,
        nodes=frozenset(depth),
        edges=edges,
        depth=depth,
        parent=parent,
        cost=float(sum(map(instance.edge_costs.__getitem__, sorted(edges)))),
    )


def _insert_phase1_path(
    instance: Instance, state: NrbiState, remaining: set[int], path: list[int]
) -> list[int]:
    """Add ``path`` to the partial structure; return the nodes it relabeled.

    A node is relabeled when it is new or the path reaches it in fewer hops
    than its label.  Facilities of ``remaining`` on the path are attached
    and leave it.
    """
    edge_costs = instance.edge_costs
    base = state.hops_from_root[path[0]]
    prev = path[0]
    cost = 0.0
    relabeled: list[int] = []
    for pos in range(1, len(path)):
        node = path[pos]
        label = base + pos
        cost += edge_costs[(prev, node) if prev < node else (node, prev)]
        if label < state.hops_from_root.get(node, math.inf):
            # new, or a cheaper-in-hops route found later: relabel so the
            # stored walk to the root never exceeds the label
            state.hops_from_root[node] = label
            state.parent[node] = prev
            relabeled.append(node)
        if node in remaining:
            remaining.discard(node)
            state.insertion_epoch[node] = len(state.insertion_epoch) + 1
            state.insertion_cost[node] = cost
        prev = node
    return relabeled


def nrbi_phase1(
    instance: Instance,
    open_facilities: Iterable[int],
    cache: HopTableCache,
) -> NrbiState:
    """Grow the partial structure until every open facility is attached.

    Each round attaches the lexicographically smallest (cost, u, v) path
    from a partial node ``u`` within its remaining hop budget to a missing
    facility ``v``.  ``best`` holds, per missing facility, the smallest
    (cost, u) seen so far, refreshed only from relabeled nodes, which read
    their table rows at the missing facilities' columns.  That is exact: a
    relabel only raises ``u``'s budget and table rows never increase with
    the budget, so a stale entry never beats the fresh one.
    """
    hops = instance.hop_limit
    root = instance.root
    state = NrbiState()
    state.hops_from_root[root] = 0
    remaining = instance.core_nodes(open_facilities) - {root}

    # an unreachable facility's entries are (inf, u) and never displace this
    best = dict.fromkeys(remaining, (math.inf, 0))
    relabeled = [root]
    while remaining:
        targets = sorted(remaining)
        columns = np.array(targets)
        for u in relabeled:
            budget = hops - state.hops_from_root[u]
            if budget < 1:
                continue
            table = cache.table(u)
            for v, cost in zip(targets, table.dist[budget][columns].tolist()):
                if (cost, u) < best[v]:
                    best[v] = (cost, u)
        cost, u_star, v_star = min((*best[v], v) for v in targets)
        if not math.isfinite(cost):
            raise TreeInfeasibleError(min(remaining), hops)
        path = extract_path(cache.table(u_star), v_star, hops - state.hops_from_root[u_star])
        assert path is not None
        relabeled = _insert_phase1_path(instance, state, remaining, path)
    return state


def _parent_chain(state: NrbiState, node: int, stop: dict[int, int]) -> list[int]:
    """Walk phase-1 parents from ``node`` until a key of ``stop``; root-first."""
    chain = [node]
    while chain[-1] not in stop:
        chain.append(state.parent[chain[-1]])
    chain.reverse()
    return chain


def _attach(depth: dict[int, int], parent: dict[int, int], path: list[int]) -> None:
    """Hang ``path`` below ``path[0]``, a node already in the tree."""
    for prev, node in zip(path, path[1:]):
        depth[node] = depth[prev] + 1
        parent[node] = prev


def _parent_tree(instance: Instance, state: NrbiState) -> SteinerTree:
    """Fallback tree: the phase-1 chains of the required nodes alone.

    The chains are hung in insertion order, each down to the first node
    already hung.  Phase-1 labels rise by at least one along every parent
    link, so no depth exceeds its label: the tree always fits the hop limit.
    """
    depth = {instance.root: 0}
    parent: dict[int, int] = {}
    for v in state.insertion_epoch:
        _attach(depth, parent, _parent_chain(state, v, depth))
    return tree_from_parents(instance, parent, depth)


def nrbi_phase2(instance: Instance, state: NrbiState, cache: HopTableCache) -> SteinerTree:
    """Assemble the final tree from the phase-1 structure.

    Required nodes are processed from the newest insertion epoch to the
    oldest.  Each is attached either via the cheapest fresh hop-feasible
    path from a current tree node (the smallest node on ties), or via its
    phase-1 route when that fits and its recorded insertion cost is no more
    than the fresh path's.  One scan reads the candidates in (cost, node)
    order while they cost less than that route (any finite cost when the
    route does not fit), and reads no fresh path when none does.  Tree
    nodes, depths and labels also sit in arrays that ``attach`` appends to,
    so all fresh candidates of facility ``v`` come from one gather over
    ``v``'s own table: distances are symmetric, so its entry at tree node
    ``u`` is ``u``'s entry at ``v``.  The chosen path is still read from
    ``u``'s table, so its tie-breaks are those of a walk from ``u``.
    """
    hops = instance.hop_limit
    depth = {instance.root: 0}  # its keys are the tree's nodes
    parent: dict[int, int] = {}
    # tree nodes in attach order, the hops left below each (hops - depth)
    # and their phase-1 labels (the depth for nodes phase 1 never reached)
    members = np.zeros(instance.num_nodes, dtype=np.int64)
    member_room = np.full(instance.num_nodes, hops, dtype=np.int64)
    member_label = np.zeros(instance.num_nodes, dtype=np.int64)
    members[0] = instance.root
    size = 1

    def attach(path: list[int]) -> None:
        nonlocal size
        _attach(depth, parent, path)
        for node in path[1:]:
            members[size] = node
            member_room[size] = hops - depth[node]
            member_label[size] = state.hops_from_root.get(node, depth[node])
            size += 1

    for v in reversed(state.insertion_epoch):
        if v in depth:
            continue
        bound = state.hops_from_root[v]

        # phase-1 route: the surviving parent-walk segment into the tree
        chain = _parent_chain(state, v, depth)
        chain_ok = depth[chain[0]] + len(chain) - 1 <= hops

        # cheapest fresh connection from any current tree node
        budgets = np.minimum(bound - member_label[:size], member_room[:size])
        usable = budgets >= 1
        us = members[:size][usable]
        budgets = budgets[usable]
        costs = cache.table(v).dist[budgets, us]
        # the first fresh suffix that fits and costs less than the limit wins
        limit = state.insertion_cost[v] if chain_ok else math.inf
        pick = chain if chain_ok else None
        if (costs < limit).any():
            for k in np.lexsort((us, costs)):
                if not costs[k] < limit:
                    break
                path = extract_path(cache.table(int(us[k])), v, int(budgets[k]))
                assert path is not None
                cut = max(i for i, x in enumerate(path) if x in depth)
                suffix = path[cut:]
                if depth[suffix[0]] + len(suffix) - 1 <= hops:
                    pick = suffix
                    break
        if pick is None:
            # neither attachment fits the hop limit from here; fall back to
            # the phase-1 chains alone, which always fit
            return _parent_tree(instance, state)
        attach(pick)

    return tree_from_parents(instance, parent, depth)


def nrbi(
    instance: Instance,
    open_facilities: Iterable[int],
    cache: HopTableCache | None = None,
) -> SteinerTree:
    """Build a hop-feasible tree spanning root plus ``open_facilities``.

    ``cache`` must have been built for ``instance``: ValueError otherwise.
    """
    cache = cache_for(instance, cache)
    state = nrbi_phase1(instance, open_facilities, cache)
    return nrbi_phase2(instance, state, cache)
