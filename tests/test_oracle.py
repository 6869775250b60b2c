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
    exact_hcst,
    exact_hcst_edge_subsets,
    exact_solve,
    validate,
)

from corpus_util import naive_assignment, random_tiny_instance, tree_is_valid


def test_fixture_tree_for_all_facilities(tiny1):
    tree = exact_hcst(tiny1, {2, 3})
    assert tree.cost == 4.0
    assert tree.edges == {(1, 2), (1, 4), (3, 4)}
    assert tree.depth == {1: 0, 2: 1, 3: 2, 4: 1}


def test_fixture_tree_infeasible_within_one_hop(tiny1):
    assert exact_hcst(dataclasses.replace(tiny1, hop_limit=1), {3}) is None
    tree = exact_hcst(dataclasses.replace(tiny1, hop_limit=2), {3})
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
        by_profile = exact_hcst(inst, required)
        by_subsets = exact_hcst_edge_subsets(inst, required)
        if by_profile is None:
            assert by_subsets is None
            continue
        assert by_subsets is not None
        assert by_profile.cost == pytest.approx(by_subsets.cost)
        for tree in (by_profile, by_subsets):
            assert tree_is_valid(inst, tree, required)


def test_cost_invariant_under_edge_permutation(tiny1):
    rng = random.Random(77)
    base = exact_hcst(tiny1, {2, 3}).cost
    edges = list(tiny1.core_edges)
    for _ in range(5):
        rng.shuffle(edges)
        shuffled = dataclasses.replace(tiny1, core_edges=tuple(edges))
        assert exact_hcst(shuffled, {2, 3}).cost == base


def test_oracle_answers_match_per_query_solvers():
    rng = random.Random(2024)
    for _ in range(50):
        inst = random_tiny_instance(rng, max_nodes=7)
        oracle = HcstOracle(inst)
        for _ in range(4):
            required = {
                f for f in inst.facilities if rng.random() < 0.5 and f != inst.root
            }
            a = oracle.solve(required)
            b = exact_hcst(inst, required)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.cost == pytest.approx(b.cost)


def test_exact_solve_never_beaten_by_any_open_set():
    rng = random.Random(606)
    for _ in range(60):
        inst = random_tiny_instance(rng, max_nodes=6, max_facilities=3)
        best = exact_solve(inst)
        assert validate(inst, best) == []
        others = [f for f in inst.facilities if f != inst.root]
        for mask in range(2 ** len(others)):
            chosen = {inst.root} | {
                f for i, f in enumerate(others) if mask >> i & 1
            }
            tree = exact_hcst(inst, chosen)
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
    inst = _complete_graph(8, 6)
    with pytest.raises(OracleLimitError, match="28 core edges exceed the oracle limit of 20"):
        HcstOracle(inst)
    with pytest.raises(OracleLimitError, match="28 core edges exceed the oracle limit of 20"):
        exact_hcst_edge_subsets(inst, {2})


@pytest.mark.parametrize("node", [0, 5, 2.5])
def test_required_nodes_must_be_core_nodes(tiny1, node):
    message = f"^{re.escape(f'required node {node} is not a core node')}$"
    with pytest.raises(ValueError, match=message):
        exact_hcst(tiny1, [node])
    with pytest.raises(ValueError, match=message):
        exact_hcst_edge_subsets(tiny1, [node])


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
