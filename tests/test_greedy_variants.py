import math
import random

import numpy as np
import pytest

from hcconfl import (
    GreedyParams,
    HarmonyParams,
    HopTableCache,
    Instance,
    exact_solve,
    ghs_solve,
    greedy_close,
    hybrid_solve,
    validate,
)
from hcconfl.greedy_variants import closing_scores
from hcconfl.harmony_core import root_path_costs

from corpus_util import naive_hop_costs, random_tiny_instance


def test_closing_scores_fixture_trace(tiny1):
    cache = HopTableCache(tiny1)
    paths = root_path_costs(tiny1, cache)
    scores = closing_scores(tiny1, [1, 2, 3], paths)
    assert scores[0] == math.inf  # root never closes
    # facility 2 serves a (regret 4-1=3), opening 3, root path 2
    assert scores[1] == pytest.approx(-2.0)
    # facility 3 serves b (regret 7-1=6), opening 2, root path 2
    assert scores[2] == pytest.approx(2.0)


def test_greedy_close_fixture(tiny1):
    vec = greedy_close(tiny1, {1, 2, 3})
    assert list(vec) == [1, 0, 1]
    # a second call from the reduced set changes nothing: closing 3 costs +8
    again = greedy_close(tiny1, {1, 3})
    assert list(again) == [1, 0, 1]


def test_greedy_close_respects_max_open(tiny1):
    vec = greedy_close(tiny1, {1, 2, 3}, max_open=1)
    assert list(vec) == [1, 0, 0]


def test_greedy_close_drops_unreachable_facilities(tiny1):
    import dataclasses

    one_hop = dataclasses.replace(tiny1, hop_limit=1)
    vec = greedy_close(one_hop, {1, 2, 3})
    assert vec[2] == 0  # facility 3 sits two hops out


def _naive_close(inst: Instance, opens, max_open: int) -> set[int]:
    opens = set(opens) | {inst.root}
    dp = naive_hop_costs(inst, inst.root, inst.hop_limit)
    while len(opens) > 1:
        scores = {}
        for f in sorted(opens):
            if f == inst.root:
                continue
            regret = 0.0
            for c in inst.customers:
                ranked = sorted((inst.assignment_cost(g, c), g) for g in sorted(opens))
                if ranked[0][1] == f:
                    regret += ranked[1][0] - ranked[0][0]
            path = dp.get((inst.hop_limit, f), math.inf)
            scores[f] = regret - inst.opening_costs[f] - path
        best = min(scores, key=lambda f: (scores[f], f))
        if scores[best] < 0 or len(opens) > max_open:
            opens.discard(best)
        else:
            break
    return opens


def test_greedy_close_matches_naive_reimplementation():
    rng = random.Random(123321)
    for _ in range(500):
        inst = random_tiny_instance(rng)
        opens = {
            f for f in inst.facilities if f == inst.root or rng.random() < 0.7
        }
        max_open = rng.randint(1, 4)
        vec = greedy_close(inst, opens, max_open=max_open)
        kept = {
            f for f in inst.facilities if vec[inst.facility_index[f]] == 1
        }
        assert kept == _naive_close(inst, opens, max_open)


def test_ghs_finds_fixture_optimum(tiny1):
    result = ghs_solve(tiny1, HarmonyParams(hms=150, max_no_improve=100), seed=1)
    assert result.solution.total == 10.0
    assert sorted(result.solution.open_facilities) == [1, 3]
    assert validate(tiny1, result.solution) == []


def test_ghs_deterministic_per_seed(tiny1):
    params = HarmonyParams(hms=30, max_no_improve=50)
    a = ghs_solve(tiny1, params, seed=4)
    b = ghs_solve(tiny1, params, seed=4)
    assert a.solution.total == b.solution.total
    assert a.stats.evaluations == b.stats.evaluations


def test_hybrid_finds_fixture_optimum(tiny1):
    result = hybrid_solve(tiny1, GreedyParams(sample_count=100), seed=1)
    assert result.solution.total == 10.0
    assert sorted(result.solution.open_facilities) == [1, 3]
    assert result.stats.evaluations == 4  # 2^(3-1) shortlist subsets


def test_hybrid_deterministic_per_seed(tiny1):
    a = hybrid_solve(tiny1, GreedyParams(sample_count=60), seed=2)
    b = hybrid_solve(tiny1, GreedyParams(sample_count=60), seed=2)
    assert a.solution.total == b.solution.total
    assert a.solution.open_facilities == b.solution.open_facilities


def test_hybrid_rejects_oversized_shortlist():
    n = 27
    edges = tuple((i, i + 1, 1.0) for i in range(1, n))
    inst = Instance(
        name="chain",
        num_nodes=n,
        core_edges=edges,
        facilities=tuple(range(1, n + 1)),
        root=1,
        customers=("c1",),
        opening_costs={f: 1.0 for f in range(1, n + 1)},
        assignment_costs=np.ones((n, 1)),
        hop_limit=n,
    )
    with pytest.raises(ValueError, match="top_k"):
        hybrid_solve(inst, GreedyParams(top_k=26, sample_count=5))


def test_solvers_never_beat_oracle_and_stay_feasible():
    rng = random.Random(777)
    for _ in range(25):
        inst = random_tiny_instance(rng, max_nodes=6)
        best = exact_solve(inst)
        g = ghs_solve(
            inst, HarmonyParams(hms=16, max_no_improve=60), seed=3
        )
        h = hybrid_solve(inst, GreedyParams(sample_count=40), seed=3)
        for result in (g, h):
            assert result.solution.feasible
            assert validate(inst, result.solution) == []
            assert result.solution.total >= best.total - 1e-9


def test_hybrid_sampling_uses_looser_limit_than_search(tiny1):
    assert GreedyParams().greedy_limit == 18
    tight = hybrid_solve(tiny1, GreedyParams(sample_count=50, greedy_limit=1), seed=1)
    loose = hybrid_solve(tiny1, GreedyParams(sample_count=50), seed=1)
    # the fixture shortlist covers every facility either way, so both reach
    # the optimum; the knob only shapes the sampling-phase frequencies
    assert tight.solution.total == loose.solution.total == 10.0
