import dataclasses
import math
import random
import re

import numpy as np
import pytest

from hcconfl import HopTableCache, Instance, extract_path, hop_bellman_ford

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
                col = table.dist[: b + 1, v]
                path = extract_path(table, v, b)
                if not math.isfinite(col[b]):
                    assert path is None
                    continue
                # the fewest edges that reach the budget's cost
                assert len(path) - 1 == np.argmax(col == col[b])


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
            ref = reference_hop_bellman_ford(inst, source)
            for name in ("dist", "pred"):
                got, want = getattr(table, name), getattr(ref, name)
                assert got.dtype == want.dtype, (inst.name, source, name)
                assert np.array_equal(got, want), (inst.name, source, name)
