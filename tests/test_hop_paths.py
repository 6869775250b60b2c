import dataclasses
import math
import random
import re

import numpy as np
import pytest

from hcconfl import HopTableCache, extract_path, hop_bellman_ford

from corpus_util import (
    naive_cheapest_paths,
    naive_hop_costs,
    path_cost,
    random_graph_instance,
    random_tiny_instance,
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
    assert table.min_hops(3) == 2
    assert extract_path(table, 3, 2) == [1, 4, 3]
    assert extract_path(table, 3, 1) is None


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
    from hcconfl import Instance

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
    assert table.min_hops(4) == 1
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
    assert table2.min_hops(4) == 2
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
        inst = random_tiny_instance(rng, max_nodes=10)
        inst = dataclasses.replace(inst, hop_limit=rng.randint(1, 6))
        table = hop_bellman_ford(inst, rng.randint(1, inst.num_nodes))
        hops = inst.hop_limit
        for b in range(hops + 1):
            for v in range(inst.num_nodes + 1):
                col = table.dist[: b + 1, v]
                assert table.first[b, v] == np.argmax(col == col[b])


def test_cache_store_stacks_every_built_table():
    inst = random_graph_instance(random.Random(5), 30, 45, 4)
    cache = HopTableCache(inst)
    built = [7, 3, 30, 1, 12, 9, 22, 18, 5, 14, 27]  # more than one growth
    slots = cache.slots(np.array(built[:4]))
    for source in built[4:]:
        cache.table(source)
    assert list(slots) == list(cache.slot[built[:4]])
    for source in built:
        k = cache.slot[source]
        fresh = hop_bellman_ford(inst, source)
        assert (cache.dist[k] == fresh.dist).all()
        assert (cache.first[k] == fresh.first).all()
        tab = cache.table(source)
        assert (tab.dist == fresh.dist).all() and (tab.pred == fresh.pred).all()
        assert not tab.dist.flags.writeable and not tab.first.flags.writeable
    assert (np.delete(cache.slot, [0, *built]) == -1).all()
    assert len(cache.dist) < inst.num_nodes
