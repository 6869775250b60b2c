import dataclasses
import math
import random
import re

import numpy as np
import pytest

from hcconfl import HopTableCache, Instance, extract_path, hop_bellman_ford, hop_paths

from corpus_util import (
    naive_cheapest_paths,
    naive_hop_costs,
    path_cost,
    random_dense_instance,
    random_graph_instance,
    random_tiny_instance,
    reference_hop_bellman_ford,
)


def test_fixture_table_values(tiny1):
    table = hop_bellman_ford(tiny1, 1)
    assert table.hop_limit == 2
    # one hop: direct neighbours only
    assert table.cost(2, 1) == 2.0
    assert table.cost(4, 1) == 1.0
    assert not math.isfinite(table.cost(3, 1))
    # two hops: 1-4-3 beats nothing else
    assert table.cost(3) == 2.0
    assert len(extract_path(table, 3)) - 1 == 2
    assert extract_path(table, 3, 2) == [1, 4, 3]
    assert extract_path(table, 3, 1) is None
    # a negative budget reaches nothing, not the last row
    assert table.cost(1, -1) == math.inf
    assert extract_path(table, 1, -1) is None


@pytest.mark.parametrize("target", [-1, 0, 5, 2.0, True])
def test_a_target_that_is_no_core_node_is_refused(tiny1, target):
    # -1 used to read node 4's column, 0 the unused column and 5 past the end
    table = hop_bellman_ford(tiny1, tiny1.root)
    message = f"^target {re.escape(str(target))} is not a core node$"
    with pytest.raises(ValueError, match=message):
        table.cost(target)
    with pytest.raises(ValueError, match=message):
        extract_path(table, target)
    with pytest.raises(ValueError, match=message):
        extract_path(table, target, 1)


def test_rows_are_nonincreasing(tiny1):
    table = hop_bellman_ford(dataclasses.replace(tiny1, hop_limit=4), 1)
    finite = np.nan_to_num(table.dist, posinf=1e18)
    assert (np.diff(finite[:, 1:], axis=0) <= 1e-12).all()


def test_matches_naive_dp_and_simple_paths():
    rng = random.Random(1301)
    for _ in range(1000):
        inst = random_tiny_instance(rng, max_nodes=10)
        source = rng.randint(1, inst.num_nodes)
        hops = rng.randint(1, 5)
        table = hop_bellman_ford(dataclasses.replace(inst, hop_limit=hops), source)
        dp = naive_hop_costs(inst, source, hops)
        simple = naive_cheapest_paths(inst, source, hops)
        for v in range(1, inst.num_nodes + 1):
            expect = dp.get((hops, v), math.inf)
            assert table.cost(v) == pytest.approx(expect, abs=1e-9)
            # with non-negative costs the best walk is a simple path
            assert table.cost(v) == pytest.approx(
                simple.get(v, math.inf), abs=1e-9
            )
            for h in range(hops + 1):
                assert table.cost(v, h) == pytest.approx(
                    dp.get((h, v), math.inf), abs=1e-9
                )


def test_extracted_paths_are_feasible_and_priced_right():
    rng = random.Random(917)
    for _ in range(300):
        inst = random_tiny_instance(rng, max_nodes=9)
        source = rng.randint(1, inst.num_nodes)
        table = hop_bellman_ford(inst, source)
        for v in range(1, inst.num_nodes + 1):
            budget = rng.randint(0, inst.hop_limit)
            path = extract_path(table, v, budget)
            if path is None:
                assert not math.isfinite(table.cost(v, budget))
                continue
            assert path[0] == source and path[-1] == v
            assert len(path) - 1 <= budget
            assert len(set(path)) == len(path)
            assert path_cost(inst, path) == pytest.approx(table.cost(v, budget))


def test_tie_break_prefers_fewer_hops_then_smaller_predecessor():
    # equal-cost two-hop routes to node 4 via 2 or via 3; direct costs more
    inst = Instance(
        name="ties",
        num_nodes=4,
        core_edges=((1, 2, 1.0), (1, 3, 1.0), (1, 4, 2.0), (2, 4, 1.0), (3, 4, 1.0)),
        facilities=(1,),
        root=1,
        customers=(),
        opening_costs={1: 0.0},
        assignment_costs=np.zeros((1, 0)),
        hop_limit=3,
    )
    table = hop_bellman_ford(inst, 1)
    # equal cost 2.0 at one hop (direct) and two hops: fewer hops wins
    assert table.cost(4) == 2.0
    assert len(extract_path(table, 4)) - 1 == 1
    assert extract_path(table, 4, 3) == [1, 4]

    # make the direct edge lose: now via-2 and via-3 tie at cost 2
    pricier = Instance(
        name="ties2",
        num_nodes=4,
        core_edges=((1, 2, 1.0), (1, 3, 1.0), (1, 4, 3.0), (2, 4, 1.0), (3, 4, 1.0)),
        facilities=(1,),
        root=1,
        customers=(),
        opening_costs={1: 0.0},
        assignment_costs=np.zeros((1, 0)),
        hop_limit=2,
    )
    table2 = hop_bellman_ford(pricier, 1)
    assert table2.cost(4) == 2.0
    assert len(extract_path(table2, 4)) - 1 == 2
    assert extract_path(table2, 4, 2) == [1, 2, 4]  # smaller predecessor id


@pytest.mark.parametrize("source", [0, 5, 2.5])
def test_source_must_be_core_node(tiny1, source):
    with pytest.raises(ValueError, match=f"^{re.escape(f'source {source} is not a core node')}$"):
        hop_bellman_ford(tiny1, source)


def test_cache_reuses_tables(tiny1):
    cache = HopTableCache(tiny1)
    assert cache.table(1) is cache.table(1)
    assert cache.table(2).source == 2


def test_min_hop_table_is_first_level_holding_the_value():
    rng = random.Random(4711)
    for _ in range(300):
        inst = dataclasses.replace(
            random_tiny_instance(rng, max_nodes=10), hop_limit=rng.randint(1, 6)
        )
        table = hop_bellman_ford(inst, rng.randint(1, inst.num_nodes))
        for b in range(inst.hop_limit + 1):
            for v in range(1, inst.num_nodes + 1):
                col = table.dist[: b + 1, v]  # a budget past the top level reads it
                path = extract_path(table, v, b)
                if not math.isfinite(col[-1]):
                    assert path is None
                    continue
                # the fewest edges that reach the budget's cost
                assert len(path) - 1 == np.argmax(col == col[-1])


def test_cached_tables_are_fresh_read_only_and_symmetric():
    # nrbi's phase 2 prices tree node u for facility v from v's own table,
    # so on integer costs v's entries at u must be u's entries at v, bit for bit
    rng = random.Random(5)
    cases = [random_tiny_instance(rng, max_hop=5) for _ in range(150)]
    cases += [random_graph_instance(rng, n, m, h) for n, m, h in ((30, 45, 4), (40, 90, 6))]
    for inst in cases:
        cache = HopTableCache(inst)
        nodes = range(1, inst.num_nodes + 1)
        for source in nodes:
            tab, fresh = cache.table(source), hop_bellman_ford(inst, source)
            for name in ("dist", "pred"):
                assert (getattr(tab, name) == getattr(fresh, name)).all()
                assert not getattr(tab, name).flags.writeable
        for u in nodes:
            # column u of every table, against u's own rows
            column = np.stack([cache.table(v).dist[:, u] for v in nodes], axis=1)
            assert (column == cache.table(u).dist[:, 1:]).all()


def _one_node_instance():
    return Instance(
        name="one",
        num_nodes=1,
        core_edges=(),
        facilities=(1,),
        root=1,
        customers=(),
        opening_costs={1: 0.0},
        assignment_costs=np.zeros((1, 0)),
        hop_limit=2,
    )


def _shuffled_edges(rng, inst):
    edges = list(inst.core_edges)
    rng.shuffle(edges)
    return dataclasses.replace(inst, core_edges=tuple(edges))


# each entry builds a list of instances; integer edge costs 1-10 (and the
# dense ones drawn from 3 values) make equal-cost candidates common, so the
# predecessor tie rule decides many entries
HOP_CORPORA = {
    "tiny": lambda rng: [random_tiny_instance(rng, max_hop=5) for _ in range(300)],
    "dense": lambda rng: [
        random_dense_instance(rng, facilities=40, customers=2, cost_values=3 if i % 2 else None)
        for i in range(40)
    ],
    # the benchmark's graph shapes: 500 nodes, (edges, hop limit) of each workload
    "steinc-shaped": lambda rng: [
        random_graph_instance(rng, 500, m, h) for m, h in ((625, 5), (625, 10), (2500, 3))
    ],
    "shuffled-edges": lambda rng: [
        _shuffled_edges(rng, random_graph_instance(rng, 60, 150, h)) for h in (4, 10)
    ],
    "one-node": lambda rng: [_one_node_instance()],
}


@pytest.mark.parametrize("corpus", sorted(HOP_CORPORA))
def test_tables_match_the_sorting_reference(corpus):
    rng = random.Random(1509)
    for inst in HOP_CORPORA[corpus](rng):
        for source in range(1, inst.num_nodes + 1):
            table = hop_bellman_ford(inst, source)
            ref = reference_hop_bellman_ford(inst, source)  # all hop_limit + 1 levels
            top = min(inst.hop_limit, inst.num_nodes - 1)
            assert table.hop_limit == top
            for name in ("dist", "pred"):
                got, want = getattr(table, name), getattr(ref, name)
                assert got.dtype == want.dtype, (inst.name, source, name)
                assert np.array_equal(got, want[: top + 1]), (inst.name, source, name)
                # the cap drops only levels that repeat the top one
                assert (want[top + 1 :] == want[top]).all(), (inst.name, source, name)


def _star_instance(leaves: int, hop_limit: int) -> Instance:
    """Node 1 joined to each of ``leaves`` other nodes; every node is a facility."""
    nodes = range(1, leaves + 2)
    return Instance(
        name="star",
        num_nodes=leaves + 1,
        core_edges=tuple((1, v, float(v)) for v in nodes[1:]),
        facilities=tuple(nodes),
        root=1,
        customers=(),
        opening_costs=dict.fromkeys(nodes, 0.0),
        assignment_costs=np.zeros((leaves + 1, 0)),
        hop_limit=hop_limit,
    )


def test_the_sweep_stops_once_no_cost_falls(monkeypatch):
    # every node of a star is within two hops of every other, far below the
    # top level num_nodes - 1
    star = _star_instance(29, 10**5)
    n = star.num_nodes
    scatters = []  # the dtype of each array the sweep scatter-minimizes

    class Minimum:
        @staticmethod
        def at(array, index, values):
            scatters.append(array.dtype)
            np.minimum.at(array, index, values)

    class CountingNumpy:
        minimum = Minimum

        def __getattr__(self, name):
            return getattr(np, name)

    for source in range(1, n + 1):
        scatters.clear()
        with monkeypatch.context() as patch:
            patch.setattr(hop_paths, "np", CountingNumpy())
            table = hop_bellman_ford(star, source)
        # one per level computed: the level each node is first reached at,
        # then the one where no cost falls
        assert scatters.count(np.float64) == (2 if source == 1 else 3)
        # the sorting reference has no early exit
        ref = reference_hop_bellman_ford(dataclasses.replace(star, hop_limit=n - 1), source)
        for name in ("dist", "pred"):
            got, want = getattr(table, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.shape == (n, n + 1)
            assert np.array_equal(got, want), (source, name)


def test_a_table_holds_levels_up_to_num_nodes_minus_one(tiny1):
    # at hop_limit 10**5 a 4-node graph's tables hold levels 0-3, not 100001
    # rows: no cost falls past level 3, so every level above repeats it
    deep = dataclasses.replace(tiny1, hop_limit=10**5)
    n = tiny1.num_nodes
    assert hop_paths.top_level(deep) == n - 1
    assert hop_paths.top_level(tiny1) == tiny1.hop_limit == 2
    for source in range(1, n + 1):
        table = hop_bellman_ford(deep, source)
        assert table.hop_limit == n - 1
        ref = reference_hop_bellman_ford(dataclasses.replace(tiny1, hop_limit=2 * n), source)
        for name in ("dist", "pred"):
            got, want = getattr(table, name), getattr(ref, name)
            assert got.shape == (n, n + 1) and not got.flags.writeable
            assert np.array_equal(got, want[:n]), (source, name)
            assert (want[n:] == want[n - 1]).all(), (source, name)
        for v in range(1, n + 1):
            for budget in (n - 1, n, 2 * n, 10**5, None):
                assert table.cost(v, budget) == ref.cost(v, budget)
                assert extract_path(table, v, budget) == extract_path(ref, v, n - 1)


def _numpy_walk(table, target, hop_budget):
    """(cost, path) of ``table`` read through its NumPy arrays, entry by entry."""
    h = table.hop_limit if hop_budget is None else min(hop_budget, table.hop_limit)
    if h < 0:
        return math.inf, None
    cost = float(table.dist[h, target])
    if not math.isfinite(cost):
        return cost, None
    path = [target]
    while path[-1] != table.source:
        path.append(int(table.pred[h, path[-1]]))
        h -= 1
    return cost, path[::-1]


def test_views_read_what_the_arrays_hold():
    # cost and extract_path read the tables through memoryviews; every
    # source, target and budget, from -1 to one past the hop limit, must
    # give what a walk over the arrays gives, float bits included
    rng = random.Random(2424)
    cases = [random_tiny_instance(rng, max_hop=5) for _ in range(60)]
    for n, m, h in ((30, 45, 3), (40, 90, 6)):
        graph = random_graph_instance(rng, n, m, h)
        edges = tuple((u, v, rng.uniform(0.5, 10.0)) for u, v, _ in graph.core_edges)
        cases += [graph, dataclasses.replace(graph, core_edges=edges)]
    cases.append(_one_node_instance())
    checked = 0
    for inst in cases:
        cache = HopTableCache(inst)
        for source in range(1, inst.num_nodes + 1):
            table = cache.table(source)
            for name in ("dist", "pred"):
                view, array = getattr(table, f"{name}_view"), getattr(table, name)
                assert view is getattr(table, f"{name}_view")  # made once per table
                assert view.readonly and view.shape == array.shape
                assert np.shares_memory(np.asarray(view), array)  # no copy
            for target in range(1, inst.num_nodes + 1):
                for budget in (None, *range(-1, inst.hop_limit + 2)):
                    cost, path = _numpy_walk(table, target, budget)
                    got = table.cost(target, budget)
                    assert type(got) is float and got.hex() == cost.hex()
                    got_path = extract_path(table, target, budget)
                    assert got_path == path
                    assert got_path is None or all(type(x) is int for x in got_path)
                    checked += 1
    assert checked > 20000


def test_cheapest_edges_hold_each_facilitys_cheapest_edge(tiny1):
    # tiny1's edges: 1-2 (2), 1-4 (1), 2-3 (5), 3-4 (1); facilities 1-3, root 1
    cache = HopTableCache(tiny1)
    assert cache.cheapest_edges.tolist() == [0.0, 2.0, 1.0]
    assert cache.root_paths.tolist() == [0.0, 2.0, 2.0]
    assert not cache.cheapest_edges.flags.writeable
    assert cache.cheapest_edges is cache.cheapest_edges
