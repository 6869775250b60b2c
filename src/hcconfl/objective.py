"""Objective evaluation of open sets and solution validation.

An open set is a collection of distinct facility ids.  ``price`` turns
one into a full solution: it assigns every customer to its cheapest open
facility, closes facilities that serve nobody (root excepted), dropping
their opening cost, and only then asks for a hop-feasible tree over the
root and the facilities left.  ``evaluate`` hands it ``nrbi``'s tree and
the exact oracle its own; ``price`` is the one place an open set becomes
a cost.  Given a cutoff, ``price`` asks for no tree when the assignment
and opening costs plus a lower bound on the tree already reach past it.
A solve's :class:`HopTableCache` keeps the tree of every served set
``evaluate`` has asked for, packed as bytes, so ``nrbi`` runs once per
distinct served set and a repeat is rebuilt from the packed copy.

``validate`` checks a finished solution against the underlying integer
model: edge positions chain back to the root, assignments are exactly-one
and point at open facilities, the root is open, and every tree node sits
within the hop limit.  Violations are tagged with the constraint family
they break so tests can pinpoint them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .hcst_nrbi import SteinerTree, TreeInfeasibleError, nrbi, tree_from_parents
from .hop_paths import HopTableCache, cache_for
from .instance_model import Instance, _is_integer

COST_TOL = 1e-9
# A set is screened only when its lower bound passes the cutoff by more
# than this share of the cutoff.  The bound and the total add the same
# non-negative costs in other orders, so they can part in the last bits,
# by an amount that grows with the totals; an absolute tolerance such as
# COST_TOL falls below one unit in the last place once totals pass 10^7.
SCREEN_RTOL = 1e-9


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
    """Final state of one evaluated open set.

    No ``breakdown`` means the set is infeasible, or was screened under a
    cutoff it cannot beat (:func:`evaluate`); either way it totals inf.
    """

    open_facilities: frozenset[int]
    tree: SteinerTree | None
    assignment: dict[str, int]  # customer -> facility
    breakdown: CostBreakdown | None

    @property
    def feasible(self) -> bool:
        return self.breakdown is not None

    @property
    def total(self) -> float:
        return math.inf if self.breakdown is None else self.breakdown.total


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
    cutoff: float = math.inf,
) -> Solution:
    """Evaluate an open set (the root is added); an infeasible one totals inf.

    ``price`` asks for the tree over the facilities that serve someone.
    ``nrbi`` builds it the first time ``cache`` sees that served set; after
    that the tree, or its absence, comes from ``cache.trees``, so every
    call returns an equal solution.  Without a cache, a fresh one is used
    and dropped, so nothing is kept.

    A set whose total cannot fall below ``cutoff`` may be screened: it
    comes back with no tree and no breakdown, totalling inf, adds one to
    ``cache.counts["screened"]`` and writes nothing to ``cache.trees``.
    Its tree is bounded below by its farthest facility's
    ``cache.root_paths`` entry and by the sum of its facilities'
    ``cache.cheapest_edges``.  A set that is not screened comes back as it
    would with no cutoff, and the default cutoff screens nothing.
    """
    opened = as_open_set(instance, open_facilities)
    opened.add(instance.root)
    cache = cache_for(instance, cache)

    def tree_bound(served: set[int]) -> float:
        rows = [instance.facility_index[f] for f in served]
        return max(cache.root_paths[rows].max(), cache.cheapest_edges[rows].sum())

    def tree_for(served: set[int]) -> SteinerTree | None:
        key = _packed(instance, sorted(served))
        if key in cache.trees:
            cache.counts["trees_reused"] += 1
            packed = cache.trees[key]
            return None if packed is None else _unpack_tree(instance, packed)
        try:
            tree = nrbi(instance, served, cache)
        except TreeInfeasibleError:
            tree = None
        cache.trees[key] = None if tree is None else _pack_tree(instance, tree)
        return tree

    solution = price(instance, opened, tree_for, cutoff, tree_bound)
    if solution is None:
        cache.counts["screened"] += 1
        return Solution(frozenset(opened), None, {}, None)
    return solution


def price(
    instance: Instance,
    opened: set[int],
    tree_for: Callable[[set[int]], SteinerTree | None],
    cutoff: float = math.inf,
    tree_bound: Callable[[set[int]], float] | None = None,
) -> Solution | None:
    """The solution of open set ``opened`` (root included).

    Each customer goes to its cheapest open facility, ties to the smallest
    id, and facilities that serve nobody close (the root excepted).  Then
    ``tree_for`` gives the tree over the root and the facilities that
    serve someone; None means the open set is infeasible.

    With a finite ``cutoff``, ``tree_bound`` gives a lower bound on the
    cost of that tree.  When the assignment and opening costs plus the
    bound pass ``cutoff`` by more than ``SCREEN_RTOL`` of it, no tree is
    asked for and None comes back: the set's total is at least ``cutoff``.
    """
    fac_ids = sorted(opened)
    sub = instance.assignment_costs[[instance.facility_index[f] for f in fac_ids]]
    choice = np.argmin(sub, axis=0)  # first minimum = smallest facility id
    assignment = dict(zip(instance.customers, (fac_ids[k] for k in choice.tolist())))
    served = set(assignment.values()) | {instance.root}
    assignment_cost = float(sub[choice, np.arange(len(instance.customers))].sum())
    opening_cost = float(sum(instance.opening_costs[f] for f in sorted(served)))
    if cutoff < math.inf:
        lower = assignment_cost + opening_cost + tree_bound(served)
        if lower > cutoff + SCREEN_RTOL * abs(cutoff):
            return None
    tree = tree_for(served)
    if tree is None:
        return Solution(frozenset(opened), None, {}, None)
    return Solution(
        open_facilities=frozenset(served),
        tree=tree,
        assignment=assignment,
        breakdown=CostBreakdown(tree.cost, assignment_cost, opening_cost),
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
