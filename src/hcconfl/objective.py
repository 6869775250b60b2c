"""Objective evaluation of open sets and solution validation.

An open set is a collection of distinct facility ids.  ``evaluate`` turns
one into a full solution: ``nrbi`` builds a hop-feasible tree over the
open facilities, then ``price`` assigns every customer to its cheapest
open facility and closes facilities that serve nobody (root excepted),
dropping their opening cost and pruning tree branches that only existed
to reach them.  ``price`` is the one place an open set becomes a cost;
the exact oracle calls it on its own trees.  A solve's
:class:`HopTableCache` keeps the tree of every open set ``evaluate`` has
seen, packed as bytes, so ``nrbi`` runs once per distinct open set and a
repeat is rebuilt from the packed copy and priced again.

``validate`` checks a finished solution against the underlying integer
model: edge positions chain back to the root, assignments are exactly-one
and point at open facilities, the root is open, and every tree node sits
within the hop limit.  Violations are tagged with the constraint family
they break so tests can pinpoint them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .hcst_nrbi import SteinerTree, TreeInfeasibleError, nrbi, tree_from_parents
from .hop_paths import HopTableCache, cache_for
from .instance_model import Instance, _is_integer

COST_TOL = 1e-9


@dataclass(frozen=True)
class CostBreakdown:
    tree_cost: float
    assignment_cost: float
    opening_cost: float

    @property
    def total(self) -> float:
        return self.tree_cost + self.assignment_cost + self.opening_cost


@dataclass(frozen=True)
class Solution:
    """Final state of one evaluated open set."""

    open_facilities: frozenset[int]
    tree: SteinerTree | None
    assignment: dict[str, int]  # customer -> facility
    breakdown: CostBreakdown | None
    feasible: bool

    @property
    def total(self) -> float:
        if not self.feasible or self.breakdown is None:
            return math.inf
        return self.breakdown.total


@dataclass(frozen=True)
class Violation:
    constraint: str  # rule tag, e.g. "tree-structure", "assignment-open"
    message: str


def as_open_set(instance: Instance, open_facilities: Iterable[int]) -> set[int]:
    """The open set as a set; ValueError on a non-integer, unknown or repeated id.

    Ids must be integers (NumPy integers included): a float such as 2.9
    is refused rather than truncated, and a bool rather than read as 0 or
    1.  A 0/1 vector over three or more facilities always repeats a value,
    so it fails here instead of being read as ids.
    """
    ids = list(open_facilities)
    if not all(map(_is_integer, ids)):
        raise ValueError("facility ids must be integers")
    opened = set(map(int, ids))
    if len(opened) != len(ids):
        raise ValueError("open set repeats a facility id")
    unknown = opened.difference(instance.facility_index)
    if unknown:
        raise ValueError(f"unknown facility id {min(unknown)}")
    return opened


def root_open_subsets(root: int, candidates: Sequence[int]) -> Iterator[set[int]]:
    """Every subset of ``candidates``, the root added, in lexicographic order.

    That is the order of the 0/1 vectors over ``candidates`` as given, the
    empty subset first and the first candidate most significant.
    """
    for bits in product((0, 1), repeat=len(candidates)):
        yield {root, *(f for f, b in zip(candidates, bits) if b)}


def _prune_tree(instance: Instance, tree: SteinerTree, keep: set[int]) -> SteinerTree:
    """Repeatedly drop leaves outside ``keep`` (the root never leaves)."""
    parent = dict(tree.parent)
    children = Counter(parent.values())
    stack = [v for v in parent if children[v] == 0 and v not in keep]
    while stack:
        p = parent.pop(stack.pop())
        children[p] -= 1
        if children[p] == 0 and p != tree.root and p not in keep:
            stack.append(p)
    depth = {v: d for v, d in tree.depth.items() if v in parent or v == tree.root}
    return tree_from_parents(instance, parent, depth)


def _packed(instance: Instance, nodes: Iterable[int]) -> bytes:
    """Node ids as bytes of the smallest dtype that holds every node id."""
    return np.fromiter(nodes, np.min_scalar_type(instance.num_nodes)).tobytes()


def _pack_tree(instance: Instance, tree: SteinerTree) -> bytes:
    """The children of ``tree.parent`` in its order, then their parents.

    ``nrbi`` adds each node after its parent, one hop deeper, so the
    depths follow from the parents and are not kept.
    """
    return _packed(instance, [*tree.parent, *tree.parent.values()])


def _unpack_tree(instance: Instance, packed: bytes) -> SteinerTree:
    """The tree :func:`_pack_tree` packed, its dicts in the same order."""
    nodes = np.frombuffer(packed, np.min_scalar_type(instance.num_nodes))
    parent = dict(zip(*nodes.reshape(2, -1).tolist()))
    depth = {instance.root: 0}
    for node, up in parent.items():
        depth[node] = depth[up] + 1
    return tree_from_parents(instance, parent, depth)


def evaluate(
    instance: Instance,
    open_facilities: Iterable[int],
    cache: HopTableCache | None = None,
) -> Solution:
    """Evaluate an open set (the root is added); an infeasible one totals inf.

    ``nrbi`` builds the tree the first time ``cache`` sees the open set,
    in any order of its ids; after that the tree, or its absence, comes
    from ``cache.trees``.  Either way ``price`` prices it, so every call
    returns an equal solution.  Without a cache, a fresh one is used and
    dropped, so nothing is kept.
    """
    opened = as_open_set(instance, open_facilities)
    opened.add(instance.root)
    cache = cache_for(instance, cache)
    key = _packed(instance, sorted(opened))
    if key in cache.trees:
        cache.trees_reused += 1
        packed = cache.trees[key]
        tree = None if packed is None else _unpack_tree(instance, packed)
    else:
        try:
            tree = nrbi(instance, opened, cache)
        except TreeInfeasibleError:
            tree = None
        cache.trees[key] = None if tree is None else _pack_tree(instance, tree)
    return price(instance, opened, tree)


def price(instance: Instance, opened: set[int], tree: SteinerTree | None) -> Solution:
    """The solution of open set ``opened`` (root included) on ``tree``.

    Each customer goes to its cheapest open facility, ties to the smallest
    id; facilities that serve nobody close (the root excepted) and the tree
    is pruned behind them.  No tree means the open set is infeasible.
    """
    if tree is None:
        return Solution(frozenset(opened), None, {}, None, feasible=False)
    fac_ids = sorted(opened)
    sub = instance.assignment_costs[[instance.facility_index[f] for f in fac_ids]]
    choice = np.argmin(sub, axis=0)  # first minimum = smallest facility id
    assignment = dict(zip(instance.customers, (fac_ids[k] for k in choice.tolist())))
    assignment_cost = float(sub[choice, np.arange(len(instance.customers))].sum())
    final_open = set(assignment.values()) | {instance.root}
    if final_open != opened:
        tree = _prune_tree(instance, tree, final_open)
    opening_cost = float(sum(instance.opening_costs[f] for f in sorted(final_open)))
    return Solution(
        open_facilities=frozenset(final_open),
        tree=tree,
        assignment=assignment,
        breakdown=CostBreakdown(tree.cost, assignment_cost, opening_cost),
        feasible=True,
    )


def validate(instance: Instance, solution: Solution) -> list[Violation]:
    """Check a solution against the integer model; empty list means clean."""
    out: list[Violation] = []
    if not solution.feasible:
        return [Violation("infeasible", "solution is marked infeasible")]
    opened = solution.open_facilities
    tree = solution.tree
    root = instance.root
    hops = instance.hop_limit

    if not opened.issubset(instance.facilities):
        bad = min(opened - set(instance.facilities))
        out.append(Violation("open-domain", f"open set contains non-facility {bad}"))
        opened = opened & set(instance.facilities)
    if root not in opened:
        out.append(Violation("root-open", "root facility is not open"))

    if tree is None:
        out.append(Violation("tree-structure", "solution has no tree"))
        tree = tree_from_parents(instance, {}, {root: 0})

    depth = tree.depth
    incoming: dict[int, int] = {}
    oriented: list[tuple[int, int, int]] = []  # (parent, child, position)
    for u, v in sorted(tree.edges):
        if not instance.has_edge(u, v):
            out.append(Violation("core-edge", f"tree edge ({u},{v}) is not a core edge"))
            continue
        du, dv = depth.get(u), depth.get(v)
        if du is None or dv is None:
            out.append(Violation("tree-structure", f"tree edge ({u},{v}) endpoint lacks a depth"))
            continue
        if du == dv:
            out.append(
                Violation("tree-structure", f"tree edge ({u},{v}) endpoints at equal depth {du}")
            )
            continue
        q, c = (u, v) if du < dv else (v, u)
        oriented.append((q, c, depth[c]))
        incoming[c] = incoming.get(c, 0) + 1

    for c, count in sorted(incoming.items()):
        if count > 1:
            out.append(Violation("tree-structure", f"node {c} has {count} incoming tree edges"))
    for q, c, pos in oriented:
        if pos > hops:
            out.append(
                Violation("tree-structure", f"node {c} sits at depth {pos} beyond hop limit {hops}")
            )
        if q == root:
            if pos >= 2:
                out.append(
                    Violation("root-edge-position", f"edge ({root},{c}) leaves the root at position {pos}")
                )
        else:
            if pos == 1:
                out.append(
                    Violation("root-edge-position", f"edge ({q},{c}) at position 1 does not leave the root")
                )
            else:
                if depth.get(q) != pos - 1:
                    out.append(
                        Violation(
                            "tree-structure",
                            f"edge ({q},{c}) at position {pos} has parent at depth {depth.get(q)}",
                        )
                    )
                if incoming.get(q, 0) < 1:
                    out.append(
                        Violation(
                            "tree-structure",
                            f"edge ({q},{c}) at position {pos} has no supporting edge into {q}",
                        )
                    )

    if depth.get(tree.root, None) != 0:
        out.append(Violation("tree-structure", "tree root does not sit at depth 0"))
    # connectivity: every tree node must be reachable from the root
    adj: dict[int, list[int]] = {v: [] for v in tree.nodes}
    for u, v in tree.edges:
        if u in adj and v in adj:
            adj[u].append(v)
            adj[v].append(u)
    seen = {tree.root}
    frontier = [tree.root]
    while frontier:
        x = frontier.pop()
        for y in adj.get(x, ()):
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    stranded = set(tree.nodes) - seen
    if stranded:
        out.append(
            Violation("tree-structure", f"tree node {min(stranded)} is not connected to the root")
        )

    for f in sorted(opened):
        if f == root:
            continue
        if f not in tree.nodes or incoming.get(f, 0) < 1:
            out.append(Violation("facility-connected", f"open facility {f} has no incoming tree path"))

    for customer in instance.customers:
        fac = solution.assignment.get(customer)
        if fac is None:
            out.append(Violation("assignment-complete", f"customer {customer!r} is unassigned"))
        elif fac not in instance.facilities:
            out.append(
                Violation("known-ids", f"customer {customer!r} assigned to unknown facility {fac}")
            )
        elif fac not in opened:
            out.append(
                Violation("assignment-open", f"customer {customer!r} assigned to closed facility {fac}")
            )
    for customer in solution.assignment:
        if customer not in instance.customer_index:
            out.append(Violation("known-ids", f"assignment for unknown customer {customer!r}"))
    return out
