import dataclasses
import math
import random
import re

import numpy as np
import pytest

from hcconfl import (
    HcstOracle,
    Instance,
    OracleLimitError,
    evaluate,
    exact_solve,
    ghs_solve,
    hs_solve,
    hybrid_solve,
    parse_tiny,
    validate,
)

import hcconfl.oracle
from hcconfl.oracle import _subset_rows

from corpus_util import (
    naive_assignment,
    random_tiny_instance,
    reference_cheapest_tree,
    tree_is_valid,
)


def _by_edge_subsets(inst: Instance) -> HcstOracle:
    """``inst``'s oracle on the edge-subset strategy, whatever its size: the
    profile cap, which ``HcstOracle`` reads when built, is 0 meanwhile."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hcconfl.oracle, "PROFILE_ROW_CAP", 0)
        oracle = HcstOracle(inst)
    assert not oracle._by_profile
    return oracle


def test_fixture_tree_for_all_facilities(tiny1):
    tree = HcstOracle(tiny1).solve({2, 3})
    assert tree.cost == 4.0
    assert tree.edges == {(1, 2), (1, 4), (3, 4)}
    assert tree.depth == {1: 0, 2: 1, 3: 2, 4: 1}


def test_fixture_tree_infeasible_within_one_hop(tiny1):
    assert HcstOracle(dataclasses.replace(tiny1, hop_limit=1)).solve({3}) is None
    tree = HcstOracle(dataclasses.replace(tiny1, hop_limit=2)).solve({3})
    assert tree.cost == 2.0
    assert tree.edges == {(1, 4), (3, 4)}


def test_fixture_exact_solution(tiny1):
    best = exact_solve(tiny1)
    assert best.total == 10.0
    assert sorted(best.open_facilities) == [1, 3]
    assert best.assignment == {"a": 3, "b": 3}
    assert best.breakdown.tree_cost == 2.0
    assert best.breakdown.assignment_cost == 5.0
    assert best.breakdown.opening_cost == 3.0
    assert validate(tiny1, best) == []


def test_fixture_exact_with_tighter_hop(tiny1):
    one_hop = dataclasses.replace(tiny1, hop_limit=1)
    best = exact_solve(one_hop)
    assert best.total == 14.0
    assert sorted(best.open_facilities) == [1, 2]


def test_two_enumeration_strategies_agree():
    rng = random.Random(515151)
    for _ in range(200):
        inst = random_tiny_instance(rng, max_nodes=6)
        required = {
            f for f in inst.facilities if rng.random() < 0.5 and f != inst.root
        }
        by_profile = HcstOracle(inst).solve(required)
        by_subsets = _by_edge_subsets(inst).solve(required)
        if by_profile is None:
            assert by_subsets is None
            continue
        assert by_subsets is not None
        assert by_profile.cost == pytest.approx(by_subsets.cost)
        for tree in (by_profile, by_subsets):
            assert tree_is_valid(inst, tree, required)


def _diamond(hop_limit: int) -> Instance:
    # node 4 is reached at cost 2 through node 2 or through node 3
    return Instance(
        name="diamond",
        num_nodes=4,
        core_edges=((1, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0), (3, 4, 1.0)),
        facilities=(1, 4),
        root=1,
        customers=("c",),
        opening_costs={1: 0.0, 4: 0.0},
        assignment_costs=np.ones((2, 1)),
        hop_limit=hop_limit,
    )


def test_profile_strategy_keeps_first_cheapest_profile():
    inst = _diamond(2)  # 3**3 profiles
    oracle = HcstOracle(inst)
    assert oracle._by_profile
    # (2 excluded, 3 at depth 1, 4 at depth 2) precedes
    # (2 at depth 1, 3 excluded, 4 at depth 2) in product order
    assert oracle.solve({4}).edges == {(1, 3), (3, 4)}
    # 2 and 3 can both parent 4 at equal cost: the smaller id wins
    assert oracle.solve({2, 3, 4}).edges == {(1, 2), (1, 3), (2, 4)}
    # the edge-subset strategy breaks the first tie the other way
    assert _by_edge_subsets(inst).solve({4}).edges == {(1, 2), (2, 4)}


def test_edge_subset_strategy_keeps_first_node_set_then_first_subset():
    inst = _diamond(100)  # 101**3 profiles exceed the cap
    assert not HcstOracle(inst)._by_profile
    # at H = 2 the strategy is forced: 3**3 profiles are under the cap
    for oracle in (HcstOracle(inst), _by_edge_subsets(_diamond(2))):
        # edges 0 and 2 span {1, 2, 4} before edges 1 and 3 span {1, 3, 4}
        assert oracle.solve({4}).edges == {(1, 2), (2, 4)}
        # four 3-edge trees span {1, 2, 3, 4} at cost 3; edges 0, 1, 2 come first
        assert oracle.solve({2, 3, 4}).edges == {(1, 2), (1, 3), (2, 4)}


def test_one_node_instance():
    inst = parse_tiny("1 1 1 2 1\nf 1 2\na 1 a 3\n", name="one")
    for oracle in (HcstOracle(inst), _by_edge_subsets(inst)):
        tree = oracle.solve([])
        assert tree.nodes == {1} and tree.edges == set()
        assert tree.depth == {1: 0} and tree.parent == {} and tree.cost == 0.0
    assert exact_solve(inst).total == 5.0
    for solver in (hs_solve, ghs_solve, hybrid_solve):
        assert solver(inst).solution.total == 5.0


def test_profile_depths_beyond_int8():
    # 201**2 profiles stay under the cap; depths up to 200 overflow int8
    inst = dataclasses.replace(
        _diamond(200),
        num_nodes=3,
        core_edges=((1, 2, 1.0), (2, 3, 1.0)),
        facilities=(1, 3),
        opening_costs={1: 0.0, 3: 0.0},
    )
    oracle = HcstOracle(inst)
    assert oracle._by_profile
    tree = oracle.solve({3})
    assert tree.edges == {(1, 2), (2, 3)} and tree.depth == {1: 0, 2: 1, 3: 2}


def test_cost_invariant_under_edge_permutation(tiny1):
    rng = random.Random(77)
    base = HcstOracle(tiny1).solve({2, 3}).cost
    edges = list(tiny1.core_edges)
    for _ in range(5):
        rng.shuffle(edges)
        shuffled = dataclasses.replace(tiny1, core_edges=tuple(edges))
        assert HcstOracle(shuffled).solve({2, 3}).cost == base


def _answers(inst):
    """Every query's tree as (edges, depth, cost), and the exact solution."""
    oracle = HcstOracle(inst)
    trees = []
    for mask in range(2**inst.num_nodes):
        tree = oracle.solve(v for v in range(1, inst.num_nodes + 1) if mask >> (v - 1) & 1)
        trees.append(tree and (tree.edges, tree.depth, tree.cost))
    best = exact_solve(inst)
    return trees, best.open_facilities, best.tree.edges, best.total


def test_profile_answers_do_not_depend_on_the_order_of_core_edges():
    # every node is a facility that serves one customer best, so all open;
    # node 4 then hangs below 2 or 3 at equal cost, and the smaller id must
    # win whichever of the two edges core_edges lists first
    diamond = Instance(
        name="diamond",
        num_nodes=4,
        core_edges=((1, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0), (3, 4, 1.0)),
        facilities=(1, 2, 3, 4),
        root=1,
        customers=("c1", "c2", "c3", "c4"),
        opening_costs=dict.fromkeys((1, 2, 3, 4), 0.0),
        assignment_costs=np.where(np.eye(4), 1.0, 9.0),
        hop_limit=2,
    )
    assert HcstOracle(diamond)._by_profile
    assert exact_solve(diamond).tree.edges == {(1, 2), (1, 3), (2, 4)}
    reversed_edges = dataclasses.replace(diamond, core_edges=diamond.core_edges[::-1])
    assert _answers(reversed_edges) == _answers(diamond)
    rng = random.Random(31)
    for _ in range(20):
        inst = random_tiny_instance(rng, max_nodes=7, max_hop=2)
        assert HcstOracle(inst)._by_profile
        edges = list(inst.core_edges)
        rng.shuffle(edges)
        assert _answers(dataclasses.replace(inst, core_edges=tuple(edges))) == _answers(inst)


def test_oracle_answers_match_per_query_solvers():
    # one oracle per instance answers every query; the other strategy on the
    # same instance checks each answer
    rng = random.Random(2024)
    for _ in range(50):
        inst = random_tiny_instance(rng, max_nodes=7)
        oracle, by_subsets = HcstOracle(inst), _by_edge_subsets(inst)
        assert oracle._by_profile  # 4**6 profiles at most
        for _ in range(4):
            required = {
                f for f in inst.facilities if rng.random() < 0.5 and f != inst.root
            }
            a = oracle.solve(required)
            b = by_subsets.solve(required)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.cost == b.cost
                assert tree_is_valid(inst, a, required)
                assert tree_is_valid(inst, b, required)


def _rooted_at(inst: Instance, root: int) -> Instance:
    facilities = tuple(sorted({*inst.facilities, root}))
    return dataclasses.replace(
        inst,
        facilities=facilities,
        root=root,
        opening_costs=dict.fromkeys(facilities, 0.0),
        assignment_costs=np.ones((len(facilities), len(inst.customers))),
    )


def _same_tree(tree, reference) -> bool:
    if tree is None or reference is None:
        return tree is reference
    return (set(tree.edges), dict(tree.depth), tree.cost) == reference


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_lookups_match_a_scan_of_the_rows(where):
    # the root's place decides how node ids pack into the table's n - 1 bits
    rng = random.Random(f"lookup:{where}")
    seen = {"profile": 0, "edge_subsets": 0, "none": 0, "tree": 0}
    for i in range(60):
        inst = random_tiny_instance(rng, max_nodes=8)
        n = inst.num_nodes
        root = {"first": 1, "middle": (n + 1) // 2, "last": n}[where]
        # H = 1000 puts every instance of 3 or more nodes past the profile cap
        hop_limit = rng.choice([1, 2, 3]) if i % 2 else 1000
        inst = _rooted_at(dataclasses.replace(inst, hop_limit=hop_limit), root)
        oracle, by_subsets = HcstOracle(inst), _by_edge_subsets(inst)
        seen["profile" if oracle._by_profile else "edge_subsets"] += 1
        # it keeps the rows its table names, and no other
        named = np.unique(oracle._table[oracle._table >= 0])
        assert named.tolist() == list(range(len(oracle._rows.costs)))
        subset_rows = _subset_rows(inst)
        nodes = list(range(1, n + 1))
        queries = [[], nodes, list(inst.facilities)] + [
            rng.sample(nodes, rng.randint(1, n)) for _ in range(6)
        ]
        for required in queries:
            expected = reference_cheapest_tree(inst, oracle._rows, required)
            assert _same_tree(oracle.solve(required), expected)
            # every row of the strategy, not only the kept ones
            assert _same_tree(
                by_subsets.solve(required),
                reference_cheapest_tree(inst, subset_rows, required),
            )
            seen["none" if expected is None else "tree"] += 1
    assert min(seen.values()) >= 20, seen


def test_largest_profile_table_has_one_entry_per_node_set():
    # 19 nodes at H = 1 give 2**18 profiles, the most under the profile cap;
    # the path 1..19 plus spokes from the root at 10 reach every node in one hop
    n, root = 19, 10
    edges = {(min(v, root), max(v, root)): 2.0 + v % 3 for v in range(1, n + 1) if v != root}
    edges.update({(v, v + 1): 1.0 for v in range(1, n)})
    inst = Instance(
        name="path19",
        num_nodes=n,
        core_edges=tuple((u, v, c) for (u, v), c in sorted(edges.items())),
        facilities=(root,),
        root=root,
        customers=("c",),
        opening_costs={root: 0.0},
        assignment_costs=np.ones((1, 1)),
        hop_limit=1,
    )
    oracle = HcstOracle(inst)
    assert oracle._by_profile and len(oracle._table) == 2 ** (n - 1)
    assert len(oracle._rows.costs) == len(np.unique(oracle._table[oracle._table >= 0]))
    rng = random.Random(19)
    others = [v for v in range(1, n + 1) if v != root]
    queries = [[], others, [1], [9, 11], [19, root]] + [
        rng.sample(others, rng.randint(1, n - 1)) for _ in range(5)
    ]
    for required in queries:
        expected = reference_cheapest_tree(inst, oracle._rows, required)
        assert expected is not None
        assert _same_tree(oracle.solve(required), expected)


def test_exact_solve_never_beaten_by_any_open_set():
    rng = random.Random(606)
    for _ in range(60):
        inst = random_tiny_instance(rng, max_nodes=6, max_facilities=3)
        best = exact_solve(inst)
        assert validate(inst, best) == []
        oracle = HcstOracle(inst)
        others = [f for f in inst.facilities if f != inst.root]
        for mask in range(2 ** len(others)):
            chosen = {inst.root} | {
                f for i, f in enumerate(others) if mask >> i & 1
            }
            tree = oracle.solve(chosen)
            if tree is None:
                continue
            _, assign_cost = naive_assignment(inst, chosen)
            open_cost = sum(inst.opening_costs[f] for f in chosen)
            assert best.total <= tree.cost + assign_cost + open_cost + 1e-9


def _complete_graph(nodes: int, hop_limit: int) -> Instance:
    return Instance(
        name=f"complete{nodes}",
        num_nodes=nodes,
        core_edges=tuple(
            (u, v, 1.0) for u in range(1, nodes + 1) for v in range(u + 1, nodes + 1)
        ),
        facilities=tuple(range(1, nodes + 1)),
        customers=("a",),
        opening_costs={f: 1.0 for f in range(1, nodes + 1)},
        assignment_costs=np.ones((nodes, 1)),
        root=1,
        hop_limit=hop_limit,
    )


def test_facility_limit_enforced():
    with pytest.raises(OracleLimitError, match="13 facilities exceed the oracle limit of 12"):
        exact_solve(_complete_graph(13, 2))


def test_edge_limit_enforced_for_subset_strategy():
    # 28 edges, and 7**7 depth profiles exceed the profile cap
    with pytest.raises(OracleLimitError, match="28 core edges exceed the oracle limit of 20"):
        HcstOracle(_complete_graph(8, 6))
    # at H = 1 the 2**7 profiles are under the cap; forced, edge subsets still refuse
    inst = _complete_graph(8, 1)
    assert HcstOracle(inst)._by_profile
    with pytest.raises(OracleLimitError, match="28 core edges exceed the oracle limit of 20"):
        _by_edge_subsets(inst)


# an unchecked id would shift into the lookup entry of another node set
@pytest.mark.parametrize("node", [0, 5, 2.5, True, "x"])
def test_required_nodes_must_be_core_nodes(tiny1, node):
    message = f"^{re.escape(f'required node {node} is not a core node')}$"
    for oracle in (HcstOracle(tiny1), _by_edge_subsets(tiny1)):
        with pytest.raises(ValueError, match=message):
            oracle.solve([node])


@pytest.mark.parametrize("facilities", [(1, 2, 3), (1, 3, 2), (3, 1, 2)])
def test_exact_solve_breaks_ties_by_id_whatever_the_facility_order(facilities):
    # {1,2} and {1,3} both total 3.0 ({1,2,3} closes 3 and prices as {1,2});
    # the 0/1 vector over ids (2, 3) is smaller for {1,3}
    serve = {1: 10.0, 2: 1.0, 3: 1.0}
    inst = Instance(
        name="tie",
        num_nodes=3,
        core_edges=((1, 2, 1.0), (1, 3, 1.0)),
        facilities=facilities,
        root=1,
        customers=("c",),
        opening_costs={1: 0.0, 2: 1.0, 3: 1.0},
        assignment_costs=np.array([[serve[f]] for f in facilities]),
        hop_limit=1,
    )
    assert evaluate(inst, {1, 2}).total == evaluate(inst, {1, 3}).total == 3.0
    best = exact_solve(inst)
    assert best.total == 3.0
    assert best.open_facilities == {1, 3}
    assert best.assignment == {"c": 3}


def test_heuristic_evaluation_never_beats_oracle():
    rng = random.Random(271828)
    for _ in range(100):
        inst = random_tiny_instance(rng)
        best = exact_solve(inst)
        sol = evaluate(inst, set(inst.facilities))
        if sol.feasible:
            assert sol.total >= best.total - 1e-9
        assert math.isfinite(best.total)
