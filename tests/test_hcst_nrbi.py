import dataclasses
import heapq
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from hcconfl import (
    HarmonyParams,
    HcstOracle,
    Instance,
    TreeInfeasibleError,
    evaluate,
    harmony_solve,
    hcst_nrbi,
    nrbi,
)
from hcconfl.hcst_nrbi import NrbiState, _parent_tree, nrbi_phase1, nrbi_phase2
from hcconfl.hop_paths import HopTableCache

from corpus_util import (
    naive_assignment,
    random_deep_instance,
    random_dense_instance,
    random_graph_instance,
    random_tiny_instance,
    reference_nrbi,
    reference_parent_tree,
    reference_phase1,
    served_set,
    tree_is_valid,
)


def test_phase1_trace_on_fixture(tiny1):
    cache = HopTableCache(tiny1)
    state = nrbi_phase1(tiny1, {1, 2, 3}, cache)
    assert state.hops_from_root == {1: 0, 2: 1, 4: 1, 3: 2}
    assert state.insertion_epoch == {2: 1, 3: 2}
    # attached along 1-2 (cost 2) and 1-4-3 (cost 1 + 1)
    assert state.insertion_cost == {2: 2.0, 3: 2.0}


def test_phase2_keeps_fixture_tree(tiny1):
    cache = HopTableCache(tiny1)
    state = nrbi_phase1(tiny1, {1, 2, 3}, cache)
    tree = nrbi_phase2(tiny1, state, cache)
    assert tree.edges == frozenset({(1, 2), (1, 4), (3, 4)})
    assert tree.cost == 4.0
    assert tree.depth == {1: 0, 2: 1, 4: 1, 3: 2}
    assert tree.parent == {2: 1, 4: 1, 3: 4}


def test_single_facility_tree_is_just_the_root(tiny1):
    tree = nrbi(tiny1, {1})
    assert tree.nodes == frozenset({1})
    assert tree.edges == frozenset()
    assert tree.cost == 0.0


def test_unreachable_facility_raises(tiny1):
    import dataclasses

    one_hop = dataclasses.replace(tiny1, hop_limit=1)
    with pytest.raises(TreeInfeasibleError) as err:
        nrbi(one_hop, {1, 3})
    assert err.value.facility == 3
    assert err.value.hop_limit == 1
    assert "within 1 hops" in str(err.value)


def test_trees_always_valid_and_near_oracle():
    rng = random.Random(424242)
    gap_hits = 0
    total = 0
    for _ in range(500):
        inst = random_tiny_instance(rng)
        opens = {
            f for f in inst.facilities if f == inst.root or rng.random() < 0.6
        }
        reference = HcstOracle(inst).solve(opens)
        try:
            tree = nrbi(inst, opens)
        except TreeInfeasibleError:
            assert reference is None
            continue
        assert reference is not None
        assert tree_is_valid(inst, tree, opens)
        assert tree.cost >= reference.cost - 1e-9
        total += 1
        if tree.cost > reference.cost + 1e-9:
            gap_hits += 1
    # the two-phase heuristic is exact on most tiny instances; a modest
    # number of strictly-worse trees is expected and fine
    assert total > 300
    assert gap_hits < total * 0.2


def test_phase2_tie_goes_to_the_smaller_tree_node():
    edges = (
        (1, 3, 6.0), (1, 4, 10.0), (1, 5, 2.0), (1, 8, 5.0), (2, 4, 8.0), (3, 6, 9.0),
        (4, 5, 8.0), (4, 6, 9.0), (4, 7, 2.0), (4, 8, 10.0), (5, 7, 3.0), (7, 8, 2.0),
    )
    facilities = (1, 2, 3, 5, 6, 7, 8)
    inst = Instance(
        name="tie",
        num_nodes=8,
        core_edges=edges,
        facilities=facilities,
        root=1,
        customers=(),
        opening_costs={f: 0.0 for f in facilities},
        assignment_costs=np.zeros((len(facilities), 0)),
        hop_limit=2,
    )
    tree = nrbi(inst, set(facilities))
    # phase 2 reaches 7 from tree nodes 4 and 8 alike: cost 2, one hop
    assert tree.parent[7] == 4
    assert (tree.edges, tree.depth, tree.parent, tree.cost) == reference_nrbi(inst, facilities)

    facilities = (1, 5, 7, 8)
    hops_differ = Instance(
        name="tie-hops",
        num_nodes=8,
        core_edges=(
            (1, 2, 3.0), (1, 6, 1.0), (2, 3, 2.0), (2, 4, 1.0),
            (3, 5, 2.0), (3, 8, 3.0), (4, 5, 1.0), (6, 7, 2.0),
        ),
        facilities=facilities,
        root=1,
        customers=(),
        opening_costs={f: 0.0 for f in facilities},
        assignment_costs=np.zeros((len(facilities), 0)),
        hop_limit=3,
    )
    tree = nrbi(hops_differ, set(facilities))
    # phase 1 attached 5 at cost 5 along 1-2-4-5; phase 2 hangs 8's chain
    # 1-2-3-8 first, then reaches 5 for cost 2 from tree node 2 in two hops
    # (2-4-5) and from tree node 3 in one: the smaller id wins
    assert (tree.parent[5], tree.parent[4]) == (4, 2)
    assert tree.cost == 13.0
    assert (tree.edges, tree.depth, tree.parent, tree.cost) == reference_nrbi(
        hops_differ, facilities
    )


def test_shared_cache_and_fresh_cache_agree(tiny1):
    cache = HopTableCache(tiny1)
    a = nrbi(tiny1, {1, 2, 3}, cache)
    b = nrbi(tiny1, {1, 2, 3})
    assert a.edges == b.edges and a.cost == b.cost


def test_deterministic_across_runs():
    rng = random.Random(99)
    for _ in range(50):
        inst = random_tiny_instance(rng)
        opens = set(inst.facilities)
        try:
            first = nrbi(inst, opens)
            second = nrbi(inst, opens)
        except TreeInfeasibleError:
            continue
        assert first.edges == second.edges
        assert first.depth == second.depth


def _outcome(build):
    """(edges, depth, parent, cost) of a tree, or the facility named infeasible."""
    try:
        tree = build()
    except TreeInfeasibleError as err:
        return ("infeasible", err.facility)
    if isinstance(tree, tuple):
        return tree
    return (tree.edges, tree.depth, tree.parent, tree.cost)


def test_matches_plain_loop_reference():
    rng = random.Random(2468)
    # (instance, open sets drawn, share of facilities open in each)
    cases = [(random_tiny_instance(rng, max_facilities=6, max_hop=4), 3, 0.7) for _ in range(400)]
    for nodes, edges, hops in ((40, 60, 3), (50, 90, 4), (60, 100, 5), (80, 120, 6)):
        cases.append((random_graph_instance(rng, nodes, edges, hops), 5, 0.6))
    checked = infeasible = 0
    for inst, draws, share in cases:
        cache = HopTableCache(inst)  # shared across calls, as in the solvers
        for _ in range(draws):
            opens = {f for f in inst.facilities if rng.random() < share}
            got = _outcome(lambda: nrbi(inst, opens, cache))
            assert got == _outcome(lambda: reference_nrbi(inst, opens))
            checked += 1
            infeasible += got[0] == "infeasible"
    assert checked >= 1000
    assert 0 < infeasible < checked / 2


def test_hop_limits_past_the_top_level_match_the_plain_loop_reference(tiny1):
    # a table holds levels up to num_nodes - 1 and nrbi reads a budget above
    # it at that level; the reference reads whole tables of hop_limit + 1
    # levels.  Trees, and evaluate's totals, must not tell the two apart.
    rng = random.Random(8642)
    bases = [tiny1] + [random_tiny_instance(rng, max_facilities=6) for _ in range(60)]
    small = [inst for inst in bases[1:] if inst.num_nodes <= 4][:2]
    checked = 0
    for base in bases:
        n = base.num_nodes
        deep = (10**5,) if base is tiny1 or any(base is inst for inst in small) else ()
        for hops in (n - 1, n, 2 * n, *deep):
            if hops < 1:
                continue
            inst = dataclasses.replace(base, hop_limit=hops)
            cache, tables = HopTableCache(inst), {}
            others = [f for f in inst.facilities if f != inst.root]
            for mask in range(1 << len(others)):
                opens = {f for k, f in enumerate(others) if mask >> k & 1} | {inst.root}
                want = _outcome(lambda: reference_nrbi(inst, opens, tables))
                assert _outcome(lambda: nrbi(inst, opens, cache)) == want
                served = served_set(inst, opens)
                tree = _outcome(lambda: reference_nrbi(inst, served, tables))
                if tree[0] == "infeasible":
                    total = math.inf
                else:
                    assignment_cost = naive_assignment(inst, opens)[1]
                    total = tree[3] + assignment_cost + sum(inst.opening_costs[f] for f in served)
                assert evaluate(inst, opens, cache).total == total
                checked += 1
    assert len(small) == 2 and checked > 500


def test_a_phase1_label_past_the_top_level_reads_the_top_level():
    # 4 is the root.  Round 1 attaches 1 along 4-3-2-1 (labels 1, 2, 3); the
    # zero-cost edges tie 1, 2 and 3 for facility 5 at cost 10, and the
    # smallest id, 1, wins, so 5 is attached along 1-2-3-5 and labelled
    # 3 + 3 = 6, above the top level num_nodes - 1 = 4.  Phase 2 then prices
    # the root for 5 at budget 6, which must read level 4.
    inst = Instance(
        name="label-past-top",
        num_nodes=5,
        core_edges=((1, 2, 0.0), (2, 3, 0.0), (3, 4, 1.0), (3, 5, 10.0)),
        facilities=(1, 4, 5),
        root=4,
        customers=(),
        opening_costs={1: 0.0, 4: 0.0, 5: 0.0},
        assignment_costs=np.zeros((3, 0)),
        hop_limit=6,
    )
    cache = HopTableCache(inst)
    state = nrbi_phase1(inst, {1, 5}, cache)
    assert state.hops_from_root == {4: 0, 3: 1, 2: 2, 1: 3, 5: 6}
    assert cache.table(5).hop_limit == 4
    tree = nrbi(inst, {1, 5}, cache)
    assert _outcome(lambda: tree) == _outcome(lambda: reference_nrbi(inst, {1, 5}))
    assert tree.depth == {4: 0, 3: 1, 2: 2, 1: 3, 5: 2}


def test_matches_reference_where_the_phase1_chain_wins(monkeypatch):
    # the hs-deep shape, scaled down: most facilities hang on their phase-1
    # chain, and phase 2 then reads no fresh path for them
    rng = random.Random(1122)
    events: list[tuple[str, int]] = []
    chain, extract = hcst_nrbi._parent_chain, hcst_nrbi.extract_path
    monkeypatch.setattr(
        hcst_nrbi,
        "_parent_chain",
        lambda state, v, stop: events.append(("chain", v)) or chain(state, v, stop),
    )
    monkeypatch.setattr(
        hcst_nrbi,
        "extract_path",
        lambda table, v, budget: events.append(("path", v)) or extract(table, v, budget),
    )
    chains = chain_only = 0
    for hops in (3, 5, 10):
        for _ in range(3):
            inst = random_deep_instance(rng, customers=0, hop_limit=hops)
            cache = HopTableCache(inst)
            # open only what the root reaches, as the solvers' repair does
            reach = cache.table(inst.root).dist[hops, list(inst.facilities)]
            sites = [f for f, d in zip(inst.facilities, reach) if np.isfinite(d)]
            for _ in range(6):
                opens = set(rng.sample(sites, min(20, len(sites)))) | {inst.root}
                events.clear()
                got = _outcome(lambda: nrbi(inst, opens, cache))
                assert got == _outcome(lambda: reference_nrbi(inst, opens))
                # phase 2 reads the chain, then fresh paths only if one may win
                chains += sum(kind == "chain" for kind, _ in events)
                chain_only += sum(
                    kind == "chain" and (i + 1 == len(events) or events[i + 1][0] == "chain")
                    for i, (kind, _) in enumerate(events)
                )
    assert chains >= 500
    assert chain_only >= chains / 2


def test_parent_tree_is_valid_on_phase1_states():
    # phase 2 falls back to this tree only on contorted graphs that random
    # instances do not produce, so it is built from phase-1 states directly
    rng = random.Random(1357)
    cases = [(random_tiny_instance(rng, max_facilities=6, max_hop=4), 3) for _ in range(300)]
    for nodes, edges, hops in ((40, 60, 3), (50, 90, 4), (60, 100, 5), (80, 120, 6)):
        cases.append((random_graph_instance(rng, nodes, edges, hops), 10))
    checked = 0
    for inst, draws in cases:
        cache = HopTableCache(inst)
        for _ in range(draws):
            opens = {f for f in inst.facilities if rng.random() < 0.6}
            try:
                state = nrbi_phase1(inst, opens, cache)
            except TreeInfeasibleError:
                continue
            tree = _parent_tree(inst, state)
            assert tree_is_valid(inst, tree, opens)
            got = (tree.edges, tree.depth, tree.parent, tree.cost)
            assert got == reference_parent_tree(inst, state)
            # the tree keeps phase-1 parents, so no node sits below its label
            assert all(state.parent[v] == p for v, p in tree.parent.items())
            assert all(d <= state.hops_from_root[v] for v, d in tree.depth.items())
            checked += 1
    assert checked >= 500


def _fallback_case(cost_of_2: float):
    """A hand-built phase-1 state on which phase 2 can hang 2 neither way.

    Phase 2 hangs 4 and 8 along the fresh paths 1-7-4 and 7-3-8, which
    puts 3 at depth 2 and 8 at depth 3, so neither a fresh path to 2 nor
    its chain 3-6-2 fits three hops.  ``cost_of_2`` is 2's insertion cost.
    """
    edges = (
        (1, 3, 50.0), (1, 5, 5.0), (1, 7, 2.0), (2, 6, 50.0), (2, 8, 1.0), (3, 4, 1.0),
        (3, 6, 2.0), (3, 7, 5.0), (3, 8, 5.0), (4, 6, 2.0), (4, 7, 1.0), (5, 7, 2.0),
        (5, 8, 50.0), (6, 8, 2.0),
    )
    facilities = tuple(range(1, 9))
    inst = Instance(
        name="fallback",
        num_nodes=8,
        core_edges=edges,
        facilities=facilities,
        root=1,
        customers=(),
        opening_costs={f: 0.0 for f in facilities},
        assignment_costs=np.zeros((len(facilities), 0)),
        hop_limit=3,
    )
    epochs = (7, 6, 3, 2, 8, 4)
    state = NrbiState(
        hops_from_root={1: 0, 3: 1, 6: 2, 2: 3, 8: 3, 4: 3, 7: 1, 5: 2},
        insertion_epoch={v: k for k, v in enumerate(epochs, start=1)},
        parent={3: 1, 6: 3, 2: 6, 8: 6, 4: 6, 7: 1, 5: 7},
        insertion_cost={v: 1.0 if v in (6, 3) else 1e9 for v in epochs},
    )
    state.insertion_cost[2] = cost_of_2
    return inst, state


def test_phase2_falls_back_to_the_phase1_chains(monkeypatch):
    inst, state = _fallback_case(1e9)
    calls = []

    def counting(*args):
        calls.append(args)
        return _parent_tree(*args)

    monkeypatch.setattr(hcst_nrbi, "_parent_tree", counting)
    tree = nrbi_phase2(inst, state, HopTableCache(inst))
    assert len(calls) == 1
    assert tree_is_valid(inst, tree, state.insertion_epoch)
    assert tree.edges == frozenset({(1, 3), (1, 7), (2, 6), (3, 6), (4, 6), (6, 8)})


def test_phase2_never_hangs_a_chain_that_overflows():
    # no fresh path to 2 costs less than its insertion cost of 0, yet its
    # chain does not fit: phase 2 must still fall back
    inst, state = _fallback_case(0.0)
    tree = nrbi_phase2(inst, state, HopTableCache(inst))
    assert tree_is_valid(inst, tree, state.insertion_epoch)
    assert tree.edges == frozenset({(1, 3), (1, 7), (2, 6), (3, 6), (4, 6), (6, 8)})


def test_phase2_hangs_the_chain_when_no_fresh_path_fits(monkeypatch):
    # some tree node reaches 13 more cheaply than 13's phase-1 chain, so
    # phase 2 reads fresh paths for it; none fits the hop limit once cut at
    # the tree, and the chain does, so 13 hangs on its chain
    inst = random_deep_instance(
        random.Random(5472), nodes=60, edges=75, facilities=25, customers=3, hop_limit=6
    )
    opens = [3, 6, 9, 12, 13, 21, 22, 30, 31, 40, 58]
    cache = HopTableCache(inst)
    state = nrbi_phase1(inst, opens, cache)
    reads = []
    extract = hcst_nrbi.extract_path
    monkeypatch.setattr(
        hcst_nrbi,
        "extract_path",
        lambda table, v, budget: reads.append(v) or extract(table, v, budget),
    )
    monkeypatch.setattr(
        hcst_nrbi, "_parent_tree", lambda *args: pytest.fail("phase 2 fell back")
    )
    tree = nrbi_phase2(inst, state, cache)
    assert (tree.edges, tree.depth, tree.parent, tree.cost) == reference_nrbi(inst, opens)
    assert tree.cost == 132.0
    assert 13 in reads
    assert cache.counters()["fresh_paths"] == len(reads)
    assert all(tree.parent[x] == state.parent[x] for x in (13, 42, 7, 31))


def test_phase2_reads_the_next_candidate_when_a_tied_one_does_not_fit(monkeypatch):
    # phase 2 hangs 4 on its chain 1-6-7-4 (at the hop limit), then 2 and 3
    # on theirs; tree nodes 2 and 3 then both reach 5 for cost 2 within two
    # hops.  2's path 2-4-5 is cut at 4 and would put 5 four hops deep, so
    # 3's path 3-5 wins, though 5's own chain 6-5 fits and costs 5
    edges = (
        (1, 2, 5.0), (1, 3, 1.0), (1, 6, 1.0), (2, 4, 1.0), (3, 5, 2.0),
        (4, 5, 1.0), (4, 7, 1.0), (5, 6, 5.0), (6, 7, 1.0),
    )
    facilities = (1, 2, 3, 4, 5)
    inst = Instance(
        name="tied-misfit",
        num_nodes=7,
        core_edges=edges,
        facilities=facilities,
        root=1,
        customers=(),
        opening_costs={f: 0.0 for f in facilities},
        assignment_costs=np.zeros((len(facilities), 0)),
        hop_limit=3,
    )
    state = NrbiState(
        hops_from_root={1: 0, 2: 1, 3: 1, 6: 1, 7: 2, 4: 3, 5: 3},
        insertion_epoch={5: 1, 3: 2, 2: 3, 4: 4},
        parent={2: 1, 3: 1, 6: 1, 7: 6, 4: 7, 5: 6},
        insertion_cost={5: 5.0, 3: 1.0, 2: 5.0, 4: 3.0},
    )
    reads = []
    extract = hcst_nrbi.extract_path
    monkeypatch.setattr(
        hcst_nrbi,
        "extract_path",
        lambda table, v, budget: reads.append((table.source, v, budget))
        or extract(table, v, budget),
    )
    cache = HopTableCache(inst)
    assert cache.table(5).dist[2, 2] == cache.table(5).dist[2, 3] == 2.0
    tree = nrbi_phase2(inst, state, cache)
    assert reads == [(2, 5, 2), (3, 5, 2)]
    assert tree.parent == {6: 1, 7: 6, 4: 7, 2: 1, 3: 1, 5: 3}
    assert tree.depth[5] == 2 and tree.cost == 11.0
    assert tree_is_valid(inst, tree, facilities)
    counters = cache.counters()
    # phase 2 prices 4 against the root alone, 2 against the chain's four
    # nodes, 3 against those and 2, and 5 against all six
    assert (counters["fresh_paths"], counters["phase2_reads"]) == (2, 1 + 4 + 5 + 6)


def test_phase2_budget_stops_at_the_hop_limit(monkeypatch):
    # phase 2 hangs 5 on the fresh path 2-3-5, which puts 3 two hops deep
    # though phase 1 labelled it 1; facility 4 (label 3) may then read only
    # 3's one-hop row, where it is out of reach, not the two-hop 3-6-4,
    # which would put 4 four hops deep.  4 hangs on the root's edge
    facilities = (1, 2, 4, 5)
    inst = Instance(
        name="room",
        num_nodes=6,
        core_edges=(
            (1, 2, 1.0), (1, 3, 10.0), (1, 4, 11.0), (2, 3, 1.0), (3, 5, 1.0),
            (3, 6, 1.0), (4, 6, 1.0),
        ),
        facilities=facilities,
        root=1,
        customers=(),
        opening_costs={f: 0.0 for f in facilities},
        assignment_costs=np.zeros((len(facilities), 0)),
        hop_limit=3,
    )
    state = NrbiState(
        hops_from_root={1: 0, 2: 1, 3: 1, 5: 3, 6: 2, 4: 3},
        insertion_epoch={4: 1, 5: 2, 2: 3},
        parent={2: 1, 3: 1, 5: 3, 6: 3, 4: 6},
        insertion_cost={2: 1.0, 5: 11.0, 4: 12.0},
    )
    reads = []
    extract = hcst_nrbi.extract_path
    monkeypatch.setattr(
        hcst_nrbi,
        "extract_path",
        lambda table, v, budget: reads.append((table.source, v, budget))
        or extract(table, v, budget),
    )
    tree = nrbi_phase2(inst, state, HopTableCache(inst))
    assert reads == [(2, 5, 2), (1, 4, 3)]
    assert tree.parent == {2: 1, 3: 2, 5: 3, 4: 1}
    assert tree_is_valid(inst, tree, facilities)


def _deep_cases(rng):
    """``random_deep_instance`` at H = 3, 5, 10, recosted to 0/1/2 and to non-integer costs."""
    for hops in (3, 5, 10):
        deep = random_deep_instance(rng, customers=0, hop_limit=hops)
        yield _recosted(deep, lambda: float(rng.randint(0, 2)))
        yield _recosted(deep, lambda: rng.uniform(0.5, 10.0))


def test_matches_reference_on_deep_instances_with_ties_and_non_integer_costs():
    # phase 2 ranks its candidates by (cost, node) with no hop-count key;
    # with costs of 0, 1 or 2 ties are everywhere, and non-integer costs
    # are summed from the facility's end in phase 2's pricing
    rng = random.Random(8080)
    checked = fresh = 0
    for inst in _deep_cases(rng):
        cache = HopTableCache(inst)
        sites = [f for f, d in zip(inst.facilities, cache.root_paths) if np.isfinite(d)]
        for _ in range(5):
            opens = set(rng.sample(sites, min(20, len(sites)))) | {inst.root}
            tree = nrbi(inst, opens, cache)
            edges, depth, parent, cost = reference_nrbi(inst, opens)
            assert (tree.edges, tree.depth, tree.parent) == (edges, depth, parent)
            assert tree.cost.hex() == cost.hex()
            checked += 1
        fresh += cache.counts["fresh_paths"]
    assert checked == 30
    assert fresh > 0


def _phase1_outcome(build):
    """A phase-1 state with its dict orders and float bits, or the facility named infeasible."""
    try:
        state = build()
    except TreeInfeasibleError as err:
        return ("infeasible", err.facility)
    return (
        list(state.hops_from_root.items()),
        state.parent,
        list(state.insertion_epoch.items()),
        [(v, cost.hex()) for v, cost in state.insertion_cost.items()],
    )


def _recosted(inst, cost):
    """``inst`` with every edge cost redrawn by ``cost()``."""
    edges = tuple((u, v, cost()) for u, v, _ in inst.core_edges)
    return dataclasses.replace(inst, core_edges=edges)


def test_phase1_matches_whole_row_reference():
    rng = random.Random(2468)
    # the open sets of test_matches_plain_loop_reference, drawn in the same order
    cases = [(random_tiny_instance(rng, max_facilities=6, max_hop=4), 3, 0.7) for _ in range(400)]
    for nodes, edges, hops in ((40, 60, 3), (50, 90, 4), (60, 100, 5), (80, 120, 6)):
        cases.append((random_graph_instance(rng, nodes, edges, hops), 5, 0.6))
    extra = random.Random(97531)  # leaves rng's open-set draws as they were
    for nodes, edges, hops in ((40, 60, 3), (50, 90, 4), (60, 100, 5), (80, 120, 6)):
        graph = random_graph_instance(extra, nodes, edges, hops)
        # non-integer costs, then costs of 1 or 2, where ties are everywhere
        cases.append((_recosted(graph, lambda: extra.uniform(0.5, 10.0)), 10, 0.6))
        cases.append((_recosted(graph, lambda: float(extra.randint(1, 2))), 10, 0.6))
    cases.append((random_dense_instance(extra, facilities=40, customers=0), 10, 0.5))
    checked = infeasible = 0
    for inst, draws, share in cases:
        cache = HopTableCache(inst)
        for _ in range(draws):
            opens = {f for f in inst.facilities if rng.random() < share}
            got = _phase1_outcome(lambda: nrbi_phase1(inst, opens, cache))
            assert got == _phase1_outcome(lambda: reference_phase1(inst, opens))
            checked += 1
            infeasible += got[0] == "infeasible"
    assert checked >= 1200
    assert 0 < infeasible < checked / 2
    # the hs-deep shape: about 20 open facilities the root reaches, so the
    # heap keeps many superseded entries and entries of facilities already
    # attached; with costs of 0, 1 or 2, ties are everywhere and a path can
    # attach a facility on its way to the one it was picked for
    en_route = 0
    for hops in (3, 5, 10):
        deep = random_deep_instance(extra, customers=0, hop_limit=hops)
        for inst in (deep, _recosted(deep, lambda: float(extra.randint(0, 2)))):
            cache = HopTableCache(inst)
            sites = [f for f, d in zip(inst.facilities, cache.root_paths) if np.isfinite(d)]
            for draw in range(6):
                opens = set(extra.sample(sites, min(20, len(sites)))) | {inst.root}
                rounds = cache.counts["phase1_rounds"]
                got = _phase1_outcome(lambda: nrbi_phase1(inst, opens, cache))
                assert got == _phase1_outcome(lambda: reference_phase1(inst, opens))
                # the root reaches every open site, and each round attaches
                # at least the facility it picked
                rounds = cache.counts["phase1_rounds"] - rounds
                assert 0 < rounds <= len(got[2]) == len(opens) - 1
                en_route += len(got[2]) - rounds
                if draw == 0:
                    tree = _outcome(lambda: nrbi(inst, opens, cache))
                    assert tree == _outcome(lambda: reference_nrbi(inst, opens))
    assert en_route > 0


def test_phase1_pushes_only_what_improves_a_facilitys_best(monkeypatch):
    # an entry is pushed only when it beats the facility's best, so the heap
    # grows by one entry per improvement and never holds a repeat
    pushes: list[tuple[float, int, int]] = []

    def push(heap, entry):
        pushes.append(entry)
        heapq.heappush(heap, entry)

    monkeypatch.setattr(hcst_nrbi, "heapq", SimpleNamespace(heappush=push, heappop=heapq.heappop))
    facilities = (1, 4, 6, 7)
    inst = Instance(
        name="relabel",
        num_nodes=7,
        core_edges=(
            (1, 2, 1.0), (1, 3, 5.0), (2, 3, 1.0), (3, 4, 1.0),
            (3, 5, 1.0), (3, 7, 10.0), (5, 6, 1.0),
        ),
        facilities=facilities,
        root=1,
        customers=(),
        opening_costs={f: 0.0 for f in facilities},
        assignment_costs=np.zeros((len(facilities), 0)),
        hop_limit=3,
    )
    state = nrbi_phase1(inst, facilities, HopTableCache(inst))
    # 4 hangs on 1-2-3-4, which labels 3 two hops out, where it is best for
    # 7 at cost 10 within one hop; 6 hangs on 1-3-5-6, which relabels 3 to
    # one hop, and its row at 7 still reads 10: nothing more is pushed
    assert pushes == [(3.0, 1, 4), (7.0, 1, 6), (12.0, 1, 7), (11.0, 2, 7), (10.0, 3, 7)]
    assert state.insertion_epoch == {4: 1, 6: 2, 7: 3}
    assert (state.hops_from_root[3], state.parent[3]) == (1, 1)

    rng = random.Random(3579)
    superseded = 0
    for hops in (3, 5, 10):
        inst = random_deep_instance(rng, customers=0, hop_limit=hops)
        cache = HopTableCache(inst)
        for _ in range(6):
            opens = set(rng.sample(inst.facilities, 25)) | {inst.root}
            pushes.clear()
            try:
                nrbi_phase1(inst, opens, cache)
            except TreeInfeasibleError:
                pass
            last: dict[int, tuple[float, int]] = {}
            for cost, u, v in pushes:
                assert np.isfinite(cost)
                assert (cost, u) < last.get(v, (np.inf, 0))
                last[v] = (cost, u)
            superseded += len(pushes) - len(last)
    assert superseded > 100


def _non_integer_cases(rng):
    """Graphs with uniform and with decimal edge costs, and the open-set draws for each."""
    decimals = (0.1, 0.2, 0.3, 0.7, 1.1)
    cases = []
    for nodes, edges, hops in ((30, 45, 3), (40, 60, 4), (50, 90, 5), (60, 100, 6)):
        graph = random_graph_instance(rng, nodes, edges, hops)
        cases.append((_recosted(graph, lambda: rng.uniform(0.5, 10.0)), 15))
        cases.append((_recosted(graph, lambda: rng.choice(decimals)), 15))
    for _ in range(100):
        tiny = random_tiny_instance(rng, max_facilities=6, max_hop=4)
        cases.append((_recosted(tiny, lambda: rng.choice(decimals)), 2))
    return cases


def test_trees_valid_on_non_integer_costs():
    # phase 2 reads facility v's table at tree node u, whose sums run from
    # the other end than u's table at v: with non-integer costs the two may
    # differ in the last bit and break an exact tie the other way than
    # reference_nrbi does.  The trees must stay valid all the same.
    rng = random.Random(8642)
    checked = 0
    for inst, draws in _non_integer_cases(rng):
        cache = HopTableCache(inst)
        for _ in range(draws):
            opens = {f for f in inst.facilities if rng.random() < 0.6}
            try:
                tree = nrbi(inst, opens, cache)
            except TreeInfeasibleError as err:
                # phase 1 alone decides feasibility
                assert _outcome(lambda: reference_nrbi(inst, opens)) == ("infeasible", err.facility)
                continue
            assert tree_is_valid(inst, tree, opens)
            checked += 1
    assert checked >= 200


def test_cache_of_another_instance_is_refused(tiny1):
    other_graph = random_tiny_instance(random.Random(5), max_nodes=8)
    other_costs = _recosted(tiny1, lambda: 1.0)
    for other in (other_graph, other_costs):
        cache = HopTableCache(other)
        with pytest.raises(ValueError, match="another instance"):
            nrbi(tiny1, {1, 2, 3}, cache)
        with pytest.raises(ValueError, match="another instance"):
            evaluate(tiny1, {1, 2, 3}, cache)
        with pytest.raises(ValueError, match="another instance"):
            harmony_solve(tiny1, HarmonyParams(hms=2), cache=cache)
