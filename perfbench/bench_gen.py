"""Seeded instance generators for the benchmark workloads.

Everything here is a pure function of its ``random.Random`` argument, so a
seed always yields byte-identical text.  The solver only ever sees the
generated STP/UflLib text (parsed by the package's own readers) or the
keyword arguments of ``Instance(...)``.
"""

from __future__ import annotations

import random

# Cost ranges of the UflLib-style block.  With these, plain harmony search
# opens about twenty facilities at H=5 on the steinc-shaped graph, so tree
# pricing (not the greedy step) carries the load.
OPENING_RANGE = (50, 250)
ASSIGN_RANGE = (20, 400)
EDGE_COST_RANGE = (1, 10)


def _graph_edges(rng: random.Random, nodes: int, edges: int) -> list[tuple[int, int, int]]:
    """A random spanning tree plus distinct extra edges, integer costs."""
    if not nodes - 1 <= edges <= nodes * (nodes - 1) // 2:
        raise ValueError(f"cannot build a connected simple graph with {nodes} nodes and {edges} edges")
    order = list(range(1, nodes + 1))
    rng.shuffle(order)
    pairs: set[tuple[int, int]] = set()
    for i in range(1, nodes):
        u, v = order[i], order[rng.randrange(i)]
        pairs.add((min(u, v), max(u, v)))
    while len(pairs) < edges:
        u, v = rng.randint(1, nodes), rng.randint(1, nodes)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return [(u, v, rng.randint(*EDGE_COST_RANGE)) for u, v in sorted(pairs)]


def _hop_reach(adjacency: dict[int, list[int]], source: int, hops: int, targets: set[int]) -> int:
    """How many of ``targets`` lie within ``hops`` edges of ``source``."""
    seen = {source}
    frontier = [source]
    for _ in range(hops):
        reached = []
        for x in frontier:
            for y in adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    reached.append(y)
        frontier = reached
    return len(seen & targets)


def _relabel_median_root(
    rng: random.Random, nodes: int, edges: list[tuple[int, int, int]], facilities: int, hops: int
) -> list[tuple[int, int, int]]:
    """Relabel so nodes ``1..facilities`` are random facility sites, root 1 in the middle.

    The root (node 1 after relabelling) is the facility site whose count of
    facility sites within ``hops`` edges is the median over all sites.  A
    random root would make that count, and with it the solvers' work, swing
    several-fold from seed to seed.
    """
    adjacency: dict[int, list[int]] = {v: [] for v in range(1, nodes + 1)}
    for u, v, _ in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    sites = rng.sample(range(1, nodes + 1), facilities)
    site_set = set(sites)
    by_reach = sorted(sites, key=lambda f: (_hop_reach(adjacency, f, hops, site_set), f))
    root = by_reach[len(by_reach) // 2]
    others = [v for v in range(1, nodes + 1) if v not in site_set]
    rng.shuffle(others)
    order = [root] + [f for f in sites if f != root] + others
    label = {old: new for new, old in enumerate(order, start=1)}
    relabelled = [(label[u], label[v], c) for u, v, c in edges]
    return sorted((min(u, v), max(u, v), c) for u, v, c in relabelled)


def stp_text(rng: random.Random, nodes: int, edges: int, terminals: int, hops: int) -> str:
    """OR-Library Steiner file: ``nodes edges``, edge lines, terminal section.

    Nodes ``1..terminals`` are the facility sites (see ``_relabel_median_root``)
    and are also listed as the terminals, so the instance does not depend on
    whether a reader takes its facilities from the terminal list or from the
    lowest ids.
    """
    graph = _relabel_median_root(rng, nodes, _graph_edges(rng, nodes, edges), terminals, hops)
    lines = [f"{nodes} {edges}"]
    lines += [f"{u} {v} {c}" for u, v, c in graph]
    lines.append(str(terminals))
    lines += [str(t) for t in range(1, terminals + 1)]
    return "\n".join(lines) + "\n"


def uflp_text(rng: random.Random, facilities: int, customers: int, name: str) -> str:
    """UflLib facility location file: ``FILE:`` line, ``m n 0``, one row per facility."""
    lines = [f"FILE: {name}", f"{facilities} {customers} 0"]
    for i in range(1, facilities + 1):
        row = [str(i), str(rng.randint(*OPENING_RANGE))]
        row += [str(rng.randint(*ASSIGN_RANGE)) for _ in range(customers)]
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def steinc_texts(seed: int, index: int, edges: int, hops: int) -> tuple[str, str]:
    """STP and UFLP text of one 500-node, 200x200 instance of a run."""
    rng = random.Random(f"steinc:{seed}:{index}:{edges}:{hops}")
    stp = stp_text(rng, nodes=500, edges=edges, terminals=200, hops=hops)
    uflp = uflp_text(rng, facilities=200, customers=200, name=f"mp-{seed}-{index}")
    return stp, uflp


# (nodes, hop limit, edges or None for random in nodes+1..20), cycled by
# instance index so every batch of eight has the same mix.  Even entries fall
# under the oracle's depth-profile cap ((H+1)^(n-1) <= 300 000); odd ones
# exceed it and go to edge-subset enumeration, whose cost grows as
# C(edges, nodes-1), so their edge count is fixed.
SMALL_SHAPES = [
    (8, 3, None),
    (9, 4, 13),
    (8, 4, None),
    (10, 4, 14),
    (9, 3, None),
    (9, 4, 13),
    (10, 3, None),
    (10, 4, 14),
]


def small_instance_kwargs(seed: int, index: int) -> dict:
    """Keyword arguments of ``Instance(...)`` for one ``exact-small`` instance."""
    rng = random.Random(f"small:{seed}:{index}")
    nodes, hop, edges = SMALL_SHAPES[index % len(SMALL_SHAPES)]
    if edges is None:
        edges = rng.randint(nodes + 1, 20)
    core = _graph_edges(rng, nodes, edges)
    facilities = tuple(sorted(rng.sample(range(1, nodes + 1), 8)))
    customers = tuple(f"c{k}" for k in range(1, 21))
    return {
        "name": f"small-{seed}-{index}",
        "num_nodes": nodes,
        "core_edges": tuple((u, v, float(c)) for u, v, c in core),
        "facilities": facilities,
        "root": rng.choice(facilities),
        "customers": customers,
        "opening_costs": {f: float(rng.randint(10, 45)) for f in facilities},
        "assignment_costs": [
            [float(rng.randint(1, 30)) for _ in customers] for _ in facilities
        ],
        "hop_limit": hop,
    }
