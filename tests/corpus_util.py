"""Random small instances plus naive reference computations for tests.

Everything here is written the dumb, obviously-correct way (plain Python
loops, no shared code with the package internals) so it can serve as an
independent check.
"""

from __future__ import annotations

import json
import logging
import math
import random
from itertools import combinations, product
from pathlib import Path

import numpy as np

from hcconfl import HarmonyMemory, HopDistanceTable, Instance, parse_tiny
from hcconfl.harmony_core import DUPLICATE_DRAW_LIMIT, EXHAUSTIVE_FILL_BITS

GOLDENS = Path(__file__).parent / "data" / "solver_goldens.json"


def random_tiny_instance(
    rng: random.Random,
    max_nodes: int = 8,
    max_facilities: int = 4,
    max_customers: int = 5,
    max_hop: int = 3,
) -> Instance:
    """A connected instance small enough for the exhaustive oracle.

    At most 20 core edges, integer costs, facilities drawn from any nodes
    with a random root among them.
    """
    n = rng.randint(2, max_nodes)
    nodes = list(range(1, n + 1))
    order = nodes[1:]
    rng.shuffle(order)
    reached = [1]
    edges: dict[tuple[int, int], float] = {}
    for v in order:
        u = rng.choice(reached)
        edges[(min(u, v), max(u, v))] = float(rng.randint(1, 10))
        reached.append(v)
    spare = [
        (a, b)
        for a, b in combinations(nodes, 2)
        if (a, b) not in edges
    ]
    rng.shuffle(spare)
    for pair in spare[: rng.randint(0, n)]:
        if len(edges) >= 20:
            break
        edges[pair] = float(rng.randint(1, 10))

    k = rng.randint(1, min(max_facilities, n))
    pool = nodes[:]
    rng.shuffle(pool)
    facilities = tuple(sorted(pool[:k]))
    root = rng.choice(facilities)
    customers = tuple(f"c{j}" for j in range(1, rng.randint(1, max_customers) + 1))
    opening = {f: float(rng.randint(0, 10)) for f in facilities}
    matrix = np.array(
        [[float(rng.randint(1, 10)) for _ in customers] for _ in facilities]
    )
    return Instance(
        name=f"rand{rng.randint(0, 10**6)}",
        num_nodes=n,
        core_edges=tuple((u, v, c) for (u, v), c in sorted(edges.items())),
        facilities=facilities,
        root=root,
        customers=customers,
        opening_costs=opening,
        assignment_costs=matrix,
        hop_limit=rng.randint(1, max_hop),
    )


def random_graph_instance(
    rng: random.Random, num_nodes: int, num_edges: int, hop_limit: int
) -> Instance:
    """A connected random graph too large for the oracle, for tree tests.

    A random spanning tree plus extra edges, integer costs 1-10 (so equal
    costs are common), a fifth of the nodes as facilities, no customers.
    """
    order = list(range(1, num_nodes + 1))
    rng.shuffle(order)
    edges: dict[tuple[int, int], float] = {}
    for i in range(1, num_nodes):
        u, v = order[i], order[rng.randrange(i)]
        edges[(min(u, v), max(u, v))] = float(rng.randint(1, 10))
    while len(edges) < num_edges:
        u, v = rng.sample(range(1, num_nodes + 1), 2)
        edges.setdefault((min(u, v), max(u, v)), float(rng.randint(1, 10)))
    facilities = tuple(sorted(rng.sample(range(1, num_nodes + 1), num_nodes // 5)))
    return Instance(
        name=f"graph{num_nodes}",
        num_nodes=num_nodes,
        core_edges=tuple((u, v, c) for (u, v), c in sorted(edges.items())),
        facilities=facilities,
        root=rng.choice(facilities),
        customers=(),
        opening_costs={f: 0.0 for f in facilities},
        assignment_costs=np.zeros((len(facilities), 0)),
        hop_limit=hop_limit,
    )


def random_dense_instance(
    rng: random.Random,
    facilities: int = 200,
    customers: int = 200,
    cost_values: int | None = None,
    shuffled: bool = False,
) -> Instance:
    """A benchmark-shaped instance for the closing step, too large for the oracle.

    ``facilities`` + 50 nodes, a random spanning tree plus twice as many
    extra edges, hop limit 3, so some facilities are out of the root's
    reach.
    Costs are non-integer; with ``cost_values`` every cost is drawn from
    that many values instead, so ties are everywhere.  ``shuffled`` puts
    the facilities tuple (and the cost rows with it) out of id order.
    """

    def cost(scale: float) -> float:
        if cost_values is None:
            return rng.uniform(0.0, scale)
        return scale * rng.randrange(cost_values) / cost_values

    nodes = facilities + 50
    order = list(range(1, nodes + 1))
    rng.shuffle(order)
    edges: dict[tuple[int, int], float] = {}
    for i in range(1, nodes):
        u, v = order[i], order[rng.randrange(i)]
        edges[(min(u, v), max(u, v))] = cost(10.0)
    while len(edges) < 3 * (nodes - 1):
        u, v = rng.sample(range(1, nodes + 1), 2)
        edges.setdefault((min(u, v), max(u, v)), cost(10.0))
    ids = list(range(1, facilities + 1))
    if shuffled:
        rng.shuffle(ids)
    names = tuple(f"c{j}" for j in range(customers))
    return Instance(
        name=f"dense{facilities}x{customers}",
        num_nodes=nodes,
        core_edges=tuple((u, v, c) for (u, v), c in sorted(edges.items())),
        facilities=tuple(ids),
        root=rng.choice(ids),
        customers=names,
        opening_costs={f: cost(30.0) for f in ids},
        assignment_costs=np.array([[cost(50.0) for _ in names] for _ in ids]),
        hop_limit=3,
    )


def random_deep_instance(
    rng: random.Random,
    nodes: int = 250,
    edges: int = 312,
    facilities: int = 100,
    customers: int = 100,
    hop_limit: int = 5,
) -> Instance:
    """A sparse, deep instance on which harmony search opens many facilities.

    A random spanning tree plus extra edges (integer costs 1-10), random
    facility sites with one of them the root, opening costs 50-250 and
    assignment costs 20-400: the shape of the benchmark's ``hs-deep``
    workload, scaled down.
    """
    order = list(range(1, nodes + 1))
    rng.shuffle(order)
    graph: dict[tuple[int, int], float] = {}
    for i in range(1, nodes):
        u, v = order[i], order[rng.randrange(i)]
        graph[(min(u, v), max(u, v))] = float(rng.randint(1, 10))
    while len(graph) < edges:
        u, v = rng.sample(range(1, nodes + 1), 2)
        graph.setdefault((min(u, v), max(u, v)), float(rng.randint(1, 10)))
    sites = tuple(sorted(rng.sample(range(1, nodes + 1), facilities)))
    names = tuple(f"c{j}" for j in range(customers))
    return Instance(
        name=f"deep{nodes}",
        num_nodes=nodes,
        core_edges=tuple((u, v, c) for (u, v), c in sorted(graph.items())),
        facilities=sites,
        root=rng.choice(sites),
        customers=names,
        opening_costs={f: float(rng.randint(50, 250)) for f in sites},
        assignment_costs=np.array(
            [[float(rng.randint(20, 400)) for _ in names] for _ in sites]
        ),
        hop_limit=hop_limit,
    )


def reference_closing_scores(
    instance: Instance, open_ids: list[int], root_paths: np.ndarray
) -> np.ndarray:
    """Closing score of each id in ascending ``open_ids``, from scratch.

    Each customer's regret (second-cheapest minus cheapest open cost) is
    summed, by ``np.bincount``, on the facility serving it (ties: smallest
    id); the score adds minus the opening and root-path costs.  The root
    scores +inf.
    """
    rows = [instance.facility_index[f] for f in open_ids]
    scores = -instance.opening_cost_array[rows] - root_paths[rows]
    if instance.customers:
        sub = instance.assignment_costs[rows]
        serving = np.argmin(sub, axis=0)
        if len(open_ids) == 1:
            regret_sum = np.full(1, np.inf)
        else:
            two = np.partition(sub, 1, axis=0)[:2]
            regret_sum = np.bincount(
                serving, weights=two[1] - two[0], minlength=len(open_ids)
            )
        scores = scores + regret_sum
    if instance.root in open_ids:
        scores[open_ids.index(instance.root)] = np.inf
    return scores


def reference_greedy_close(
    instance: Instance,
    open_facilities,
    max_open: int,
    root_paths: np.ndarray,
    steps: list[np.ndarray] | None = None,
) -> np.ndarray:
    """The greedy closing loop rescoring every open facility at every step.

    Returns the 0/1 vector in ``instance.facilities`` order; each step's
    scores (over the open ids, ascending) are appended to ``steps``.
    """
    open_ids = sorted(set(open_facilities) | {instance.root})
    while len(open_ids) > 1:
        scores = reference_closing_scores(instance, open_ids, root_paths)
        if steps is not None:
            steps.append(scores)
        j = int(np.argmin(scores))
        if scores[j] < 0 or len(open_ids) > max_open:
            open_ids.pop(j)
        else:
            break
    vector = np.zeros(len(instance.facilities), dtype=np.uint8)
    for f in open_ids:
        vector[instance.facility_index[f]] = 1
    return vector


def reference_fill_memory(instance, params, rng, bias, transform, evaluator):
    """The harmony memory fill one draw, and one transform call, at a time.

    ``transform`` maps rows to rows and is handed one row per call.  The
    shrink note goes to the ``corpus_util`` logger, worded as the
    package's.  Also returns whether the memory is known to hold every
    transformed root-open pattern: the sweep ran through them all with
    the memory still short, or it kept as many rows as there are patterns.
    """
    width = len(instance.facilities)
    root_index = instance.facility_index[instance.root]
    free_bits = width - 1
    target = params.hms
    if free_bits <= 30:
        target = min(target, 2**free_bits)

    evaluated = []
    seen = set()

    def keep(vector):
        vector = transform(vector[None])[0]
        key = vector.tobytes()
        if key in seen:
            return False
        seen.add(key)
        evaluated.append((vector, evaluator(vector)))
        return True

    misses = 0
    while len(evaluated) < target and misses < DUPLICATE_DRAW_LIMIT:
        if not keep((rng.random(width) < bias).astype(np.uint8)):
            misses += 1

    swept = len(evaluated) < target and free_bits <= EXHAUSTIVE_FILL_BITS
    ran_out = False
    if swept:
        for bits in product((0, 1), repeat=free_bits):
            if len(evaluated) >= target:
                break
            keep(np.insert(np.array(bits, dtype=np.uint8), root_index, 1))
        else:
            ran_out = len(evaluated) < target

    if len(evaluated) < target:
        if swept:
            rest = f"a sweep of all {2**free_bits} root-open patterns found no more"
        else:
            rest = f"{free_bits} free bits are too many to sweep"
        logging.getLogger(__name__).warning(
            "memory reduced to %d rows (%d requested): the random fill "
            "stopped after %d duplicate draws and %s",
            len(evaluated),
            params.hms,
            misses,
            rest,
        )
    memory = HarmonyMemory(
        np.array([vector for vector, _ in evaluated], dtype=np.uint8),
        np.array([solution.total for _, solution in evaluated]),
    )
    return memory, evaluated, ran_out or len(evaluated) == 2**free_bits


def golden_cases() -> tuple[dict[str, Instance], dict[str, dict]]:
    """The instances and seed->result goldens of ``data/solver_goldens.json``.

    Besides the file's two ``exact-small`` instances there are ``tiny1``,
    ``dense40``, a 40x40 :func:`random_dense_instance`, and ``deep250``, a
    :func:`random_deep_instance` on which ``hs`` opens 13 facilities.
    """
    spec = json.loads(GOLDENS.read_text())
    instances = {
        "tiny1": parse_tiny((GOLDENS.parent / "tiny1.txt").read_text(), name="tiny1"),
        "dense40": random_dense_instance(random.Random(10), facilities=40, customers=40),
        "deep250": random_deep_instance(random.Random(3)),
    }
    for name, kw in spec["instances"].items():
        instances[name] = Instance(
            **{
                **kw,
                "core_edges": tuple(tuple(edge) for edge in kw["core_edges"]),
                "facilities": tuple(kw["facilities"]),
                "customers": tuple(kw["customers"]),
                "opening_costs": {int(f): c for f, c in kw["opening_costs"].items()},
                "assignment_costs": np.array(kw["assignment_costs"]),
            }
        )
    return instances, spec["results"]


def naive_assignment(instance: Instance, open_ids) -> tuple[dict[str, int], float]:
    """Cheapest open facility per customer, ties to the smallest id."""
    assign: dict[str, int] = {}
    total = 0.0
    for c in instance.customers:
        best_cost = math.inf
        best_f = None
        for f in sorted(open_ids):
            cost = instance.assignment_cost(f, c)
            if cost < best_cost:
                best_cost = cost
                best_f = f
        assign[c] = best_f
        total += best_cost
    return assign, total


def neighbour_lists(instance: Instance) -> dict[int, list[tuple[int, float]]]:
    """Node -> its (neighbour, edge cost) pairs, read from ``core_edges`` alone."""
    adjacency: dict[int, list[tuple[int, float]]] = {
        v: [] for v in range(1, instance.num_nodes + 1)
    }
    for u, v, cost in instance.core_edges:
        adjacency[u].append((v, cost))
        adjacency[v].append((u, cost))
    return adjacency


def naive_hop_costs(instance: Instance, source: int, hop_limit: int) -> dict:
    """Cheapest cost to each node using at most h edges, plain dict DP."""
    adjacency = neighbour_lists(instance)
    dist = {(0, source): 0.0}
    for h in range(1, hop_limit + 1):
        for v in range(1, instance.num_nodes + 1):
            best = dist.get((h - 1, v), math.inf)
            for u, w in adjacency[v]:
                best = min(best, dist.get((h - 1, u), math.inf) + w)
            if best < math.inf:
                dist[(h, v)] = best
    return dist


def reference_hop_bellman_ford(instance: Instance, source: int):
    """One source's hop table with a per-level sort, for differential tests.

    Per level, an ``np.lexsort`` of all arcs by (candidate, source) and a
    reversed scatter pick each destination's cheapest arc with the smaller
    source on ties; a node takes it only where that strictly beats the
    level below.  The reversed scatter relies on NumPy applying repeated
    fancy-assignment indices in order, which it does not document.  Returns
    the package's ``HopDistanceTable``.
    """
    hops = instance.hop_limit
    n = instance.num_nodes
    dist = np.full((hops + 1, n + 1), np.inf)
    pred = np.zeros((hops + 1, n + 1), dtype=np.int32)
    dist[0, source] = 0.0
    src, dst, wgt = instance.arcs
    for h in range(1, hops + 1):
        prev = dist[h - 1]
        cand = prev[src] + wgt
        order = np.lexsort((src, cand))
        best_at = np.full(n + 1, -1, dtype=np.int64)
        best_at[dst[order[::-1]]] = order[::-1]
        cur = prev.copy()
        cur_pred = pred[h - 1].copy()
        nodes = np.nonzero(best_at >= 0)[0]
        picks = best_at[nodes]
        vals = cand[picks]
        better = vals < cur[nodes]
        upd = nodes[better]
        cur[upd] = vals[better]
        cur_pred[upd] = src[picks[better]]
        dist[h] = cur
        pred[h] = cur_pred
    return HopDistanceTable(source, hops, dist, pred)


def naive_cheapest_paths(
    instance: Instance, source: int, hop_limit: int
) -> dict[int, float]:
    """Cheapest simple path costs within the hop budget, by DFS enumeration."""
    adjacency = neighbour_lists(instance)
    best = {source: 0.0}

    def walk(node: int, cost: float, hops: int, seen: set[int]) -> None:
        if hops == hop_limit:
            return
        for nxt, w in adjacency[node]:
            if nxt in seen:
                continue
            total = cost + w
            if total < best.get(nxt, math.inf):
                best[nxt] = total
            walk(nxt, total, hops + 1, seen | {nxt})

    walk(source, 0.0, 0, {source})
    return best


def path_cost(instance: Instance, path) -> float:
    """Total edge cost along a node path, summed from its first edge."""
    return sum(instance.edge_cost(a, b) for a, b in zip(path, path[1:]))


def tree_is_valid(instance: Instance, tree, required) -> bool:
    """Connected, acyclic, hop-feasible, spanning root plus ``required``.

    ``tree.parent`` must map every non-root node to its tree neighbour one
    level up.
    """
    nodes = set(tree.nodes)
    edges = set(tree.edges)
    if tree.root != instance.root or instance.root not in nodes:
        return False
    if len(edges) != len(nodes) - 1:
        return False
    for u, v in edges:
        if not instance.has_edge(u, v):
            return False
    adj: dict[int, list[int]] = {x: [] for x in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    depth = {tree.root: 0}
    frontier = [tree.root]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in depth:
                    depth[y] = depth[x] + 1
                    nxt.append(y)
        frontier = nxt
    if set(depth) != nodes:
        return False
    if any(d > instance.hop_limit for d in depth.values()):
        return False
    if depth != dict(tree.depth):
        return False
    if set(tree.parent) != nodes - {tree.root}:
        return False
    for v, p in tree.parent.items():
        if (min(v, p), max(v, p)) not in edges or depth[p] != depth[v] - 1:
            return False
    if set(required) - nodes:
        return False
    total = sum(instance.edge_cost(u, v) for u, v in edges)
    return math.isclose(total, tree.cost, abs_tol=1e-9)


def reference_cheapest_tree(instance: Instance, rows, required):
    """The first cheapest of the oracle's ``rows`` whose nodes hold
    ``required``, as ``(edges, depth, cost)``, or None when none of finite
    cost does.

    A plain scan in row order, which is each oracle strategy's tie rule.
    """
    want = sum(1 << v for v in set(required) - {instance.root})
    best = None
    best_cost = math.inf
    for i, (mask, cost) in enumerate(zip(rows.masks.tolist(), rows.costs.tolist())):
        if mask & want == want and cost < best_cost:
            best, best_cost = i, cost
    if best is None:
        return None
    depths = rows.depths[best].tolist()
    parents = rows.parents[best].tolist()
    nodes = range(1, instance.num_nodes + 1)
    depth = {v: depths[v] for v in nodes if depths[v] >= 0}
    edges = {
        (min(v, parents[v]), max(v, parents[v])) for v in depth if v != instance.root
    }
    return edges, depth, sum(instance.edge_cost(u, v) for u, v in edges)


def reference_parent_tree(instance: Instance, state):
    """Phase 2's fallback tree as its own parent walk and depth pass.

    The union of the phase-1 parent walks of the required nodes, taken in
    insertion order; returns ``(edges, depth, parent, cost)``.
    """
    root = instance.root
    parent: dict[int, int] = {}
    for v in state.insertion_epoch:
        x = v
        while x != root and x not in parent:
            parent[x] = state.parent[x]
            x = parent[x]
    depth = {root: 0}

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

    for v in parent:
        resolve(v)
    edges = frozenset((min(v, p), max(v, p)) for v, p in parent.items())
    cost = float(sum(instance.edge_cost(u, v) for u, v in sorted(edges)))
    return edges, depth, parent, cost


def reference_phase1(instance: Instance, open_facilities):
    """Phase 1 keeping its best known connection to every node in whole rows.

    Per node, ``best_*`` hold the smallest (cost, u) seen so far, refreshed
    from each relabeled node's full table row; each round picks the
    smallest (cost, u, v) over the missing facilities with one
    ``np.lexsort``.  Returns the package's ``NrbiState``, with insertion
    costs summed edge by edge from the path's first node.
    """
    from hcconfl import NrbiState, TreeInfeasibleError, extract_path, hop_bellman_ford

    hops = instance.hop_limit
    root = instance.root
    tables: dict = {}
    state = NrbiState()
    state.hops_from_root[root] = 0
    remaining = {f for f in open_facilities if f != root}

    best_cost = np.full(instance.num_nodes + 1, np.inf)
    best_from = np.zeros(instance.num_nodes + 1, dtype=np.int64)
    relabeled = [root]
    while remaining:
        for u in relabeled:
            budget = hops - state.hops_from_root[u]
            if budget < 1:
                continue
            if u not in tables:
                tables[u] = hop_bellman_ford(instance, u)
            cost = tables[u].dist[budget]
            better = (cost < best_cost) | ((cost == best_cost) & (u < best_from))
            best_cost[better] = cost[better]
            best_from[better] = u
        targets = np.array(sorted(remaining), dtype=np.int64)
        pick = np.lexsort((targets, best_from[targets], best_cost[targets]))[0]
        if not math.isfinite(best_cost[targets[pick]]):
            raise TreeInfeasibleError(min(remaining), hops)
        v_star = int(targets[pick])
        u_star = int(best_from[v_star])
        path = extract_path(tables[u_star], v_star, hops - state.hops_from_root[u_star])
        base = state.hops_from_root[path[0]]
        cost = 0.0
        relabeled = []
        for pos in range(1, len(path)):
            prev, node = path[pos - 1], path[pos]
            cost += instance.edge_cost(prev, node)
            if base + pos < state.hops_from_root.get(node, math.inf):
                state.hops_from_root[node] = base + pos
                state.parent[node] = prev
                relabeled.append(node)
            if node in remaining:
                remaining.discard(node)
                state.insertion_epoch[node] = len(state.insertion_epoch) + 1
                state.insertion_cost[node] = cost
    return state


def reference_nrbi(instance: Instance, open_facilities):
    """The two-phase tree heuristic as plain loops, for differential tests.

    Phase 1 rescans every partial node in every round; phase 2 prices every
    tree node for each facility one at a time.  Tie-breaks are those of
    ``hcconfl.nrbi``: cost, then the smallest node ids.
    Returns ``(edges, depth, parent, cost)`` and raises the package's
    ``TreeInfeasibleError`` naming the same facility.
    """
    from hcconfl import TreeInfeasibleError, extract_path, hop_bellman_ford

    hops = instance.hop_limit
    root = instance.root
    tables: dict = {}

    def table(u: int):
        if u not in tables:
            tables[u] = hop_bellman_ford(instance, u)
        return tables[u]

    def edge(u: int, v: int) -> tuple[int, int]:
        return (min(u, v), max(u, v))

    # phase 1
    partial = {root}
    label = {root: 0}
    parent1: dict[int, int] = {}
    epoch: dict[int, int] = {}
    insertion_path: dict[int, tuple[int, ...]] = {}
    remaining = {f for f in open_facilities if f != root}
    while remaining:
        targets = sorted(remaining)
        best_cost = math.inf
        for u in sorted(partial):
            budget = hops - label[u]
            if budget < 1:
                continue
            for v in targets:
                best_cost = min(best_cost, float(table(u).dist[budget, v]))
        if not math.isfinite(best_cost):
            raise TreeInfeasibleError(min(remaining), hops)
        best = None
        for u in sorted(partial):
            budget = hops - label[u]
            if budget < 1:
                continue
            for v in targets:
                if float(table(u).dist[budget, v]) == best_cost:
                    cand = (u, v)
                    if best is None or cand < best:
                        best = cand
        u_star, v_star = best
        path = extract_path(table(u_star), v_star, hops - label[u_star])
        base = label[path[0]]
        for pos in range(1, len(path)):
            node, prev = path[pos], path[pos - 1]
            if node not in partial or base + pos < label[node]:
                partial.add(node)
                label[node] = base + pos
                parent1[node] = prev
            if node in remaining:
                remaining.discard(node)
                epoch[node] = len(epoch) + 1
                insertion_path[node] = tuple(path[: pos + 1])

    # phase 2
    tree_nodes = {root}
    depth = {root: 0}
    parent: dict[int, int] = {}
    edges: set[tuple[int, int]] = set()

    def attach(path) -> None:
        for prev, node in zip(path, path[1:]):
            tree_nodes.add(node)
            depth[node] = depth[prev] + 1
            parent[node] = prev
            edges.add(edge(prev, node))

    def parent_tree():
        nodes = {root}
        tree_edges = set()
        up: dict[int, int] = {}
        for v in epoch:
            x = v
            while x not in nodes:
                nodes.add(x)
                tree_edges.add(edge(parent1[x], x))
                up[x] = parent1[x]
                x = parent1[x]
        down = {root: 0}
        for v in nodes:
            trail = []
            x = v
            while x not in down:
                trail.append(x)
                x = up[x]
            for y in reversed(trail):
                down[y] = down[up[y]] + 1
        cost = sum(instance.edge_cost(u, v) for u, v in sorted(tree_edges))
        return frozenset(tree_edges), down, up, float(cost)

    for v in sorted(epoch, key=lambda x: -epoch[x]):
        if v in tree_nodes:
            continue
        bound = label[v]
        fresh = []
        for u in sorted(tree_nodes):
            budget = min(bound - label.get(u, depth[u]), hops - depth[u])
            if budget < 1:
                continue
            cost = float(table(u).dist[budget, v])
            if math.isfinite(cost):
                fresh.append((cost, u, budget))
        fresh.sort()
        fresh_pick = None
        for cost, u, budget in fresh:
            path = extract_path(table(u), v, budget)
            cut = max(i for i, x in enumerate(path) if x in tree_nodes)
            suffix = path[cut:]
            if depth[suffix[0]] + len(suffix) - 1 <= hops:
                fresh_pick = (cost, suffix)
                break
        chain = [v]
        while chain[-1] not in tree_nodes:
            chain.append(parent1[chain[-1]])
        chain.reverse()
        chain_ok = depth[chain[0]] + len(chain) - 1 <= hops
        phase1_cost = path_cost(instance, insertion_path[v])
        if fresh_pick is not None and (not chain_ok or fresh_pick[0] < phase1_cost):
            attach(fresh_pick[1])
        elif chain_ok:
            attach(chain)
        else:
            return parent_tree()

    cost = sum(instance.edge_cost(u, v) for u, v in sorted(edges))
    return frozenset(edges), depth, parent, float(cost)
