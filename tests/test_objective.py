import dataclasses
import math
import random

import numpy as np
import pytest

from hcconfl import (
    CostBreakdown,
    GreedyParams,
    HarmonyParams,
    HopTableCache,
    Instance,
    Solution,
    SteinerTree,
    Violation,
    as_open_set,
    evaluate,
    exact_solve,
    ghs_solve,
    hs_solve,
    hybrid_solve,
    validate,
)
from hcconfl import greedy_variants, harmony_core, objective
from hcconfl.objective import root_open_subsets

from corpus_util import (
    naive_assignment,
    random_deep_instance,
    random_dense_instance,
    random_tiny_instance,
    served_set,
)


def test_fixture_totals(tiny1):
    assert evaluate(tiny1, {1, 2, 3}).total == 12.0
    assert evaluate(tiny1, {1, 3}).total == 10.0
    assert evaluate(tiny1, {1}).total == 18.0


def test_fixture_breakdown(tiny1):
    sol = evaluate(tiny1, {1, 2, 3})
    assert sol.breakdown.tree_cost == 4.0
    assert sol.breakdown.assignment_cost == 2.0
    assert sol.breakdown.opening_cost == 6.0
    assert sol.assignment == {"a": 2, "b": 3}
    assert sol.feasible
    assert validate(tiny1, sol) == []


def test_unused_facilities_are_closed_and_pruned(tiny1):
    # make facility 2 useless: both customers prefer 3, which is cheaper
    matrix = np.array([[9.0, 8.0], [9.0, 9.0], [1.0, 1.0]])
    inst = dataclasses.replace(tiny1, assignment_costs=matrix)
    sol = evaluate(inst, {1, 2, 3})
    assert sorted(sol.open_facilities) == [1, 3]
    assert 2 not in sol.tree.nodes  # closed before the tree was asked for
    assert sol.breakdown.opening_cost == 3.0
    assert validate(inst, sol) == []


def test_root_stays_open_even_when_unused(tiny1):
    sol = evaluate(tiny1, {1, 3})
    # both customers go to 3; the root cannot close
    assert sol.assignment == {"a": 3, "b": 3}
    assert 1 in sol.open_facilities
    assert sol.breakdown.opening_cost == 3.0


def test_open_bit_vector_is_rejected(tiny1):
    # read as ids, np.ones(3) would silently mean {1} (total 18, not 12)
    for vector in (np.ones(3, np.uint8), [1, 0, 1]):
        with pytest.raises(ValueError, match="repeats"):
            as_open_set(tiny1, vector)
        with pytest.raises(ValueError, match="repeats"):
            evaluate(tiny1, vector)


def test_as_open_set_rejects_unknown_ids(tiny1):
    with pytest.raises(ValueError):
        as_open_set(tiny1, {1, 9})
    with pytest.raises(ValueError):
        evaluate(tiny1, [4])  # node 4 is not a facility


def test_id_list_as_long_as_the_facility_list(tiny1):
    # tiny1's facilities are (1, 2, 3): any sequence holds ids, whatever
    # its length
    assert as_open_set(tiny1, [1, 2, 3]) == {1, 2, 3}
    assert as_open_set(tiny1, np.array([3, 2, 1])) == {1, 2, 3}
    assert as_open_set(tiny1, (3, 1)) == {1, 3}
    with pytest.raises(ValueError, match="repeats"):
        as_open_set(tiny1, [3, 1, 1])
    with pytest.raises(ValueError, match="repeats"):
        evaluate(tiny1, [3, 1, 1])
    with pytest.raises(ValueError, match="unknown facility id 0"):
        as_open_set(tiny1, [1, 0, 2])


def test_non_integer_ids_are_rejected(tiny1):
    # int() used to truncate these: [2.9] priced the open set {1, 2}; a
    # Python bool passed operator.index, so [True] priced {1}
    for ids in ([2.9], [1.7, 3.2], np.array([2.0]), [True], [1, False], [np.True_]):
        with pytest.raises(ValueError, match="must be integers"):
            as_open_set(tiny1, ids)
        with pytest.raises(ValueError, match="must be integers"):
            evaluate(tiny1, ids)
    assert as_open_set(tiny1, [np.int64(3), np.int32(1)]) == {1, 3}
    assert as_open_set(tiny1, np.array([2], dtype=np.int16)) == {2}


def test_infeasible_hop_limit_gives_inf_total(tiny1):
    one_hop = dataclasses.replace(tiny1, hop_limit=1)
    sol = evaluate(one_hop, {1, 3})
    assert not sol.feasible
    assert sol.total == math.inf
    assert validate(one_hop, sol) == [v for v in validate(one_hop, sol)]
    assert [v.constraint for v in validate(one_hop, sol)] == ["infeasible"]


def test_feasible_follows_the_breakdown():
    assert "feasible" not in {f.name for f in dataclasses.fields(Solution)}
    none = Solution(frozenset({1}), None, {}, None)
    assert not none.feasible and none.total == math.inf
    priced = Solution(frozenset({1}), None, {}, CostBreakdown(1.0, 2.0, 4.0))
    assert priced.feasible and priced.total == 7.0


def test_assignment_matches_naive_reference():
    rng = random.Random(31415)
    for _ in range(300):
        inst = random_tiny_instance(rng)
        opens = {
            f for f in inst.facilities if f == inst.root or rng.random() < 0.6
        }
        sol = evaluate(inst, opens)
        if not sol.feasible:
            continue
        expect_assign, expect_cost = naive_assignment(inst, opens)
        assert sol.assignment == expect_assign
        assert sol.breakdown.assignment_cost == pytest.approx(expect_cost)
        used = {inst.root} | set(sol.assignment.values())
        assert set(sol.open_facilities) == used
        leaves = set(sol.tree.nodes) - {inst.root} - set(sol.tree.parent.values())
        assert leaves <= used  # pruning left no closed leaf behind
        assert sol.breakdown.opening_cost == pytest.approx(
            sum(inst.opening_costs[f] for f in used)
        )
        assert sol.total == pytest.approx(
            sol.breakdown.tree_cost
            + sol.breakdown.assignment_cost
            + sol.breakdown.opening_cost
        )
        assert validate(inst, sol) == []


def test_total_never_below_exact_optimum():
    rng = random.Random(2718)
    for _ in range(150):
        inst = random_tiny_instance(rng, max_nodes=6)
        best = exact_solve(inst)
        for _ in range(3):
            opens = {
                f for f in inst.facilities if f == inst.root or rng.random() < 0.5
            }
            sol = evaluate(inst, opens)
            if sol.feasible:
                assert sol.total >= best.total - 1e-9


# -- the tree memo on the cache -----------------------------------------------


def _deep_instance():
    # the loop of hs_solve on it, with 10 rows of memory, re-prices 30 of
    # its 75 evaluations
    return random_deep_instance(
        random.Random(0), nodes=40, edges=50, facilities=12, customers=10, hop_limit=3
    )


def _exactly(sol):
    """A solution as plain values, dict orders and float bytes included."""
    tree = sol.tree
    breakdown = sol.breakdown
    return (
        sol.feasible,
        sol.open_facilities,
        None if tree is None else (
            tree.root,
            tree.nodes,
            sorted(tree.edges),
            list(tree.depth.items()),
            list(tree.parent.items()),
            np.float64(tree.cost).tobytes(),
        ),
        list(sol.assignment.items()),
        None if breakdown is None else np.array(
            [breakdown.tree_cost, breakdown.assignment_cost, breakdown.opening_cost]
        ).tobytes(),
    )


def _counting_nrbi(monkeypatch):
    """Patch ``objective.nrbi`` to record each open set and cache it is given."""
    calls = []
    real = objective.nrbi

    def counted(instance, opened, cache=None):
        calls.append((set(opened), cache))
        return real(instance, opened, cache)

    monkeypatch.setattr(objective, "nrbi", counted)
    return calls


def test_a_shared_cache_prices_every_hs_open_set_as_a_fresh_cache(monkeypatch):
    inst = _deep_instance()
    traced = []
    real = harmony_core.evaluate

    def recording(instance, open_facilities, cache=None, cutoff=math.inf):
        traced.append(list(open_facilities))
        return real(instance, open_facilities, cache, cutoff)

    monkeypatch.setattr(harmony_core, "evaluate", recording)
    hs_solve(inst, HarmonyParams(hms=10, max_no_improve=60), seed=3)
    monkeypatch.undo()
    assert len({frozenset(ids) for ids in traced}) < len(traced)  # the trace repeats
    shared = HopTableCache(inst)
    for ids in traced + traced[::-1]:
        assert _exactly(evaluate(inst, ids, shared)) == _exactly(evaluate(inst, ids))


def test_a_shared_cache_prices_every_open_set_of_tiny_ties_as_a_fresh_cache():
    # integer costs from 1-10 tie often, and low hop limits leave open sets
    # without a tree
    rng = random.Random(909)
    infeasible = 0
    for _ in range(40):
        inst = random_tiny_instance(rng, max_facilities=5)
        others = [f for f in inst.facilities if f != inst.root]
        shared = HopTableCache(inst)
        for repeat in range(2):
            for opens in root_open_subsets(inst.root, others):
                ids = sorted(opens, reverse=bool(repeat))
                fresh = evaluate(inst, ids)
                assert _exactly(evaluate(inst, ids, shared)) == _exactly(fresh)
                infeasible += not fresh.feasible
    assert infeasible > 0


def test_nrbi_runs_once_per_distinct_open_set(tiny1, monkeypatch):
    calls = _counting_nrbi(monkeypatch)
    cache = HopTableCache(tiny1)
    sets = ([1, 2, 3], [3, 2, 1], [2, 3], [1, 3], [3])
    totals = [evaluate(tiny1, ids, cache).total for ids in sets]
    assert totals == [12.0, 12.0, 12.0, 10.0, 10.0]
    # the root joins every set, so [2, 3] is [1, 2, 3] and [3] is [1, 3]
    assert [opened for opened, _ in calls] == [{1, 2, 3}, {1, 3}]
    assert len(cache.trees) == 2
    # phase 1 attaches 2 (path 1-2) and 3 (1-4-3) for {1, 2, 3}, then 3 for
    # {1, 3}; no tree node reaches a facility more cheaply than its route.
    # Phase 1 reads the root's row at 2 and 3, then 2's at 3 (4 and 3, at
    # the hop limit, read nothing), then the root's at 3 for {1, 3}.
    # Phase 2 visits 3 with a tree of the root alone, then 2 with 1, 4 and
    # 3 in the tree, then 3 again with the root alone for {1, 3}.
    assert cache.counters() == {
        "tables_built": len(cache._tables),
        "trees_reused": 3,
        "phase1_rounds": 3,
        "relabeled": 5,
        "phase1_reads": 2 + 1 + 1,
        "phase2_reads": 1 + 3 + 1,
        "fresh_paths": 0,
        "screened": 0,
    }


def test_a_repeated_infeasible_open_set_stays_infeasible_without_nrbi(tiny1, monkeypatch):
    one_hop = dataclasses.replace(tiny1, hop_limit=1)
    calls = _counting_nrbi(monkeypatch)
    cache = HopTableCache(one_hop)
    first, again = (evaluate(one_hop, ids, cache) for ids in ([1, 3], [3]))
    assert len(calls) == 1
    assert cache.trees == {objective._packed(one_hop, [1, 3]): None}
    for sol in (first, again):
        assert not sol.feasible and sol.total == math.inf
        assert sol.open_facilities == {1, 3}


def test_an_idle_facility_out_of_reach_closes(tiny1):
    # within one hop the root reaches facility 2 but not 3
    one_hop = dataclasses.replace(tiny1, hop_limit=1)
    idle = dataclasses.replace(
        one_hop, assignment_costs=np.array([[9.0, 8.0], [1.0, 7.0], [99.0, 99.0]])
    )
    sol = evaluate(idle, {1, 2, 3})
    assert sol.feasible and sorted(sol.open_facilities) == [1, 2]
    assert _exactly(sol) == _exactly(evaluate(idle, {1, 2}))
    assert validate(idle, sol) == []
    # with tiny1's costs customer b picks 3, so the set stays infeasible
    serving = evaluate(one_hop, {1, 2, 3})
    assert not serving.feasible and serving.total == math.inf
    assert serving.open_facilities == {1, 2, 3}


def test_requests_with_one_served_set_share_one_tree(tiny1, monkeypatch):
    # both customers prefer 3, so 2 serves nobody in {1, 2, 3}
    inst = dataclasses.replace(
        tiny1, assignment_costs=np.array([[9.0, 8.0], [9.0, 9.0], [1.0, 1.0]])
    )
    calls = _counting_nrbi(monkeypatch)
    cache = HopTableCache(inst)
    first, again = (evaluate(inst, ids, cache) for ids in ([1, 2, 3], [3]))
    assert [opened for opened, _ in calls] == [{1, 3}]
    assert cache.counters()["trees_reused"] == 1
    assert _exactly(first) == _exactly(again)


@pytest.mark.parametrize("solver", ["hs", "ghs", "hybrid"])
def test_nrbi_is_asked_for_the_served_set_alone(solver, tiny1, monkeypatch):
    dense = random_dense_instance(random.Random(10), facilities=40, customers=40)
    asked: list[tuple[frozenset[int], frozenset[int]]] = []  # (requested, built)
    requested: list[frozenset[int]] = []
    real_evaluate, real_nrbi = objective.evaluate, objective.nrbi

    def requesting(instance, open_facilities, cache=None, cutoff=math.inf):
        requested.append(frozenset(open_facilities))
        return real_evaluate(instance, open_facilities, cache, cutoff)

    def building(instance, opened, cache=None):
        asked.append((requested[-1], frozenset(opened)))
        return real_nrbi(instance, opened, cache)

    for module in (harmony_core, greedy_variants):
        monkeypatch.setattr(module, "evaluate", requesting)
    monkeypatch.setattr(objective, "nrbi", building)
    for inst in (tiny1, dense):
        asked.clear()
        if solver == "hs":
            hs_solve(inst, seed=3)
        elif solver == "ghs":
            ghs_solve(inst, seed=4)
        else:
            hybrid_solve(inst, GreedyParams(top_k=8, sample_count=300), seed=5)
        assert asked
        for opened, built in asked:
            assert built == served_set(inst, opened)
    if solver == "hs":
        # some request held a facility that serves nobody
        assert any(built != opened | {dense.root} for opened, built in asked)


def test_evaluate_without_a_cache_keeps_nothing(tiny1, monkeypatch):
    calls = _counting_nrbi(monkeypatch)
    assert evaluate(tiny1, {1, 3}).total == evaluate(tiny1, {1, 3}).total == 10.0
    (first, one), (second, other) = calls
    assert first == second == {1, 3}
    assert one is not other  # each call prices on a cache of its own


# -- the screen under a cutoff ------------------------------------------------


def _non_integer(inst, rng):
    """``inst`` with every edge, opening and assignment cost redrawn from [0.1, 10]."""

    def draw():
        return rng.uniform(0.1, 10.0)

    return dataclasses.replace(
        inst,
        core_edges=tuple((u, v, draw()) for u, v, _ in inst.core_edges),
        opening_costs={f: draw() for f in inst.facilities},
        assignment_costs=np.array([[draw() for _ in inst.customers] for _ in inst.facilities]),
    )


def _has_no_tree(sol, inst, ids):
    """``sol`` is the requested set with no tree, assignment or breakdown."""
    return _exactly(sol) == _exactly(
        Solution(frozenset({inst.root, *ids}), None, {}, None)
    )


def test_a_screened_set_cannot_beat_its_cutoff_and_the_rest_price_as_uncut():
    rng = random.Random(2024)
    screened = kept = 0
    for _ in range(120):
        inst = _non_integer(random_tiny_instance(rng, max_facilities=6), rng)
        others = [f for f in inst.facilities if f != inst.root]
        cache = HopTableCache(inst)
        for _ in range(4):
            ids = [f for f in others if rng.random() < 0.5]
            uncut = evaluate(inst, ids)
            near = uncut.total if uncut.feasible else 100.0
            # -1 screens every set before any tree of it is kept; around the
            # total, a bound equal to the tree's cost meets it, summed in
            # another order
            cutoffs = [-1.0, 0.0, near * rng.uniform(0.3, 1.2), near,
                       math.nextafter(near, 0.0), math.nextafter(near, math.inf),
                       near * (1 - 1e-12), near * (1 + 1e-12), math.inf]
            for cutoff in cutoffs:
                trees = dict(cache.trees)
                before = cache.counts["screened"]
                sol = evaluate(inst, ids, cache, cutoff)
                if cache.counts["screened"] > before:
                    screened += 1
                    assert cutoff < math.inf
                    assert uncut.total >= cutoff
                    assert _has_no_tree(sol, inst, ids)
                    assert cache.trees == trees  # it writes nothing
                else:
                    kept += 1
                    assert _exactly(sol) == _exactly(uncut)
    assert screened > 0 and kept > 0


def test_the_screen_on_tiny1(tiny1):
    cache = HopTableCache(tiny1)
    # the root alone needs no tree: assignment 9 + 8 and opening 1
    assert evaluate(tiny1, [], cache, 18.0).total == 18.0
    assert _has_no_tree(evaluate(tiny1, [], cache, 17.9), tiny1, [])
    # {1, 2, 3} totals 12 with a tree of 4; its bound is assignment 2,
    # opening 6 and max(root path 2, cheapest edges 2 + 1) = 11
    assert evaluate(tiny1, [2, 3], cache, 11.0).total == 12.0
    assert _has_no_tree(evaluate(tiny1, [2, 3], cache, 10.9), tiny1, [2, 3])
    assert cache.counters()["screened"] == 2
    assert len(cache.trees) == 2


def test_a_set_served_through_an_out_of_reach_facility_is_screened(tiny1):
    # within one hop the root does not reach facility 3, which serves b
    one_hop = dataclasses.replace(tiny1, hop_limit=1)
    cache = HopTableCache(one_hop)
    assert _has_no_tree(evaluate(one_hop, [3], cache, 1e300), one_hop, [3])
    assert cache.trees == {} and cache.counts["screened"] == 1
    # with no cutoff it is priced, and has no tree
    assert _has_no_tree(evaluate(one_hop, [3], cache), one_hop, [3])
    assert cache.trees == {objective._packed(one_hop, [1, 3]): None}
    assert cache.counts["screened"] == 1


@pytest.mark.parametrize("scale", [1.0, 2.0**40], ids=["unit", "2^40"])
def test_the_screen_allows_for_the_order_of_its_sums(scale):
    # one customer served by facility 2 over the edge 1-2, whose cost is the
    # bound: the bound adds the tree last and the total adds it first, and
    # here that puts the bound two units in the last place above the total.
    # A power of two scales every sum exactly; at 2^40 one unit is about
    # 0.004, far above COST_TOL
    inst = Instance(
        name="ulp",
        num_nodes=2,
        core_edges=((1, 2, scale * 9.874431830894336),),
        facilities=(1, 2),
        root=1,
        customers=("c",),
        opening_costs={1: scale * 8.68411746870004, 2: scale * 0.31706225777445285},
        assignment_costs=scale * np.array([[100.0], [9.935786168013895]]),
        hop_limit=1,
    )
    uncut = evaluate(inst, [2])
    parts = uncut.breakdown
    bound = parts.assignment_cost + parts.opening_cost + parts.tree_cost
    above = math.nextafter(uncut.total, math.inf)
    assert bound > above  # the bound alone would screen the set
    cache = HopTableCache(inst)
    assert _exactly(evaluate(inst, [2], cache, above)) == _exactly(uncut)
    assert cache.counts["screened"] == 0


@pytest.mark.parametrize("solve", [hs_solve, ghs_solve])
def test_the_screen_changes_no_solve(solve, monkeypatch):
    inst = _deep_instance()
    params = HarmonyParams(hms=10, max_no_improve=60)

    def run():
        result = solve(inst, params, seed=3)
        stats = result.stats
        return (_exactly(result.solution), stats.evaluations, stats.iterations,
                stats.incumbent_history), stats.counters

    screened, counters = run()
    real = harmony_core.evaluate
    monkeypatch.setattr(
        harmony_core,
        "evaluate",
        lambda instance, ids, cache=None, cutoff=math.inf: real(instance, ids, cache),
    )
    uncut, uncut_counters = run()
    assert screened == uncut
    assert counters["screened"] > 0 and uncut_counters["screened"] == 0


# -- validator ---------------------------------------------------------------


def _solution(tiny1, *, opens, edges, depth, assignment):
    parent = {}
    for u, v in edges:
        child, par = (u, v) if depth.get(u, 0) > depth.get(v, 0) else (v, u)
        parent[child] = par
    nodes = {tiny1.root}
    for u, v in edges:
        nodes.update((u, v))
    def edge_cost(u, v):
        try:
            return tiny1.edge_cost(u, v)
        except KeyError:
            return 0.0

    tree = SteinerTree(
        root=tiny1.root,
        nodes=frozenset(nodes),
        edges=frozenset(edges),
        depth=dict(depth),
        parent=parent,
        cost=float(sum(edge_cost(u, v) for u, v in edges)),
    )
    def pair_cost(f, c):
        try:
            return tiny1.assignment_cost(f, c)
        except KeyError:
            return 0.0

    breakdown = CostBreakdown(
        tree_cost=tree.cost,
        assignment_cost=float(sum(pair_cost(f, c) for c, f in assignment.items())),
        opening_cost=float(sum(tiny1.opening_costs.get(f, 0.0) for f in opens)),
    )
    return Solution(
        open_facilities=frozenset(opens),
        tree=tree,
        assignment=dict(assignment),
        breakdown=breakdown,
    )


def _tags(tiny1, sol):
    return {v.constraint for v in validate(tiny1, sol)}


def test_validator_accepts_good_solution(tiny1):
    sol = _solution(
        tiny1,
        opens={1, 2, 3},
        edges={(1, 2), (1, 4), (3, 4)},
        depth={1: 0, 2: 1, 4: 1, 3: 2},
        assignment={"a": 2, "b": 3},
    )
    assert _tags(tiny1, sol) == set()


def test_validator_flags_depth_chain_breaks(tiny1):
    # edge (3,4) claims depths 2 and 1 but 4 is made depth 2: stale chain
    sol = _solution(
        tiny1,
        opens={1, 2, 3},
        edges={(1, 2), (3, 4)},
        depth={1: 0, 2: 1, 4: 1, 3: 2},
        assignment={"a": 2, "b": 3},
    )
    assert _tags(tiny1, sol) == {"tree-structure"}


def test_validator_flags_root_edge_positions(tiny1):
    sol = _solution(
        tiny1,
        opens={1, 2},
        edges={(1, 2)},
        depth={1: 0, 2: 2},
        assignment={"a": 2, "b": 2},
    )
    assert _tags(tiny1, sol) == {"root-edge-position"}


def test_validator_flags_missing_assignment(tiny1):
    sol = _solution(
        tiny1,
        opens={1, 2, 3},
        edges={(1, 2), (1, 4), (3, 4)},
        depth={1: 0, 2: 1, 4: 1, 3: 2},
        assignment={"a": 2},
    )
    assert _tags(tiny1, sol) == {"assignment-complete"}


def test_validator_flags_assignment_to_closed_facility(tiny1):
    sol = _solution(
        tiny1,
        opens={1, 3},
        edges={(1, 4), (3, 4)},
        depth={1: 0, 4: 1, 3: 2},
        assignment={"a": 2, "b": 3},
    )
    assert _tags(tiny1, sol) == {"assignment-open"}


def test_validator_flags_closed_root(tiny1):
    sol = _solution(
        tiny1,
        opens={2, 3},
        edges={(1, 2), (1, 4), (3, 4)},
        depth={1: 0, 2: 1, 4: 1, 3: 2},
        assignment={"a": 2, "b": 3},
    )
    assert _tags(tiny1, sol) == {"root-open"}


def test_validator_flags_open_facility_without_tree_path(tiny1):
    sol = _solution(
        tiny1,
        opens={1, 2, 3},
        edges={(1, 2)},
        depth={1: 0, 2: 1},
        assignment={"a": 2, "b": 2},
    )
    assert _tags(tiny1, sol) == {"facility-connected"}


def test_validator_flags_non_core_edge(tiny1):
    sol = _solution(
        tiny1,
        opens={1, 2},
        edges={(1, 2), (2, 4)},
        depth={1: 0, 2: 1, 4: 2},
        assignment={"a": 2, "b": 2},
    )
    assert "core-edge" in _tags(tiny1, sol)


def test_validator_flags_hop_limit_excess(tiny1):
    one_hop = dataclasses.replace(tiny1, hop_limit=1)
    sol = _solution(
        one_hop,
        opens={1, 2, 3},
        edges={(1, 2), (1, 4), (3, 4)},
        depth={1: 0, 2: 1, 4: 1, 3: 2},
        assignment={"a": 2, "b": 3},
    )
    assert _tags(one_hop, sol) == {"tree-structure"}


def test_validator_flags_nonfacility_open_and_unknown_assignment(tiny1):
    sol = _solution(
        tiny1,
        opens={1, 4},
        edges={(1, 4)},
        depth={1: 0, 4: 1},
        assignment={"a": 1, "b": 1},
    )
    assert _tags(tiny1, sol) == {"open-domain"}
    sol2 = _solution(
        tiny1,
        opens={1},
        edges=set(),
        depth={1: 0},
        assignment={"a": 1, "b": 1, "zzz": 1},
    )
    assert _tags(tiny1, sol2) == {"known-ids"}


@pytest.mark.parametrize(
    "changes, constraint, message",
    [
        ({"tree": None}, "tree-structure", "solution has no tree"),
        ({"edges": {(1, 2)}}, "tree-structure", "tree edge (1,2) endpoint lacks a depth"),
        (
            {"edges": {(1, 2)}, "depth": {1: 0, 2: 0}},
            "tree-structure",
            "tree edge (1,2) endpoints at equal depth 0",
        ),
        (
            {"edges": {(1, 2), (1, 4), (2, 3), (3, 4)}, "depth": {1: 0, 2: 1, 4: 1, 3: 2}},
            "tree-structure",
            "node 3 has 2 incoming tree edges",
        ),
        (
            {"edges": {(2, 3)}, "depth": {1: 0, 2: 0, 3: 1}},
            "root-edge-position",
            "edge (2,3) at position 1 does not leave the root",
        ),
        (
            {"edges": {(1, 2), (2, 3)}, "depth": {1: 0, 2: 1, 3: 3}},
            "tree-structure",
            "edge (2,3) at position 3 has parent at depth 1",
        ),
        ({"depth": {1: 1}}, "tree-structure", "tree root does not sit at depth 0"),
        (
            {"assignment": {"a": 7, "b": 1}},
            "known-ids",
            "customer 'a' assigned to unknown facility 7",
        ),
    ],
)
def test_validator_messages(tiny1, changes, constraint, message):
    fields = {"opens": {1}, "edges": set(), "depth": {1: 0}, "assignment": {"a": 1, "b": 1}}
    fields.update((k, v) for k, v in changes.items() if k != "tree")
    sol = _solution(tiny1, **fields)
    if "tree" in changes:
        sol = dataclasses.replace(sol, tree=changes["tree"])
    assert Violation(constraint, message) in validate(tiny1, sol)
