import math
import random
from collections import Counter

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
    parse_tiny,
    serialize_tiny,
    validate,
)
from hcconfl import greedy_variants
from hcconfl.greedy_variants import (
    EXHAUSTIVE_BIT_LIMIT,
    Closer,
    ClosingState,
    closing_scores,
)
from hcconfl.harmony_core import root_path_costs

from corpus_util import (
    naive_hop_costs,
    random_dense_instance,
    random_tiny_instance,
    reference_greedy_close,
)


def test_closing_scores_fixture_trace(tiny1):
    closer = Closer(tiny1, root_path_costs(tiny1, HopTableCache(tiny1)))
    scores = closing_scores(ClosingState(closer, [1, 2, 3]))
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
    closer = Closer(tiny1, root_path_costs(tiny1, HopTableCache(tiny1)))
    assert list(greedy_close(tiny1, {1, 2, 3}, closer=closer)) == [1, 0, 1]
    with pytest.raises(ValueError, match="another instance"):
        greedy_close(parse_tiny(serialize_tiny(tiny1)), {1, 2, 3}, closer=closer)


def test_greedy_close_respects_max_open(tiny1):
    vec = greedy_close(tiny1, {1, 2, 3}, max_open=1)
    assert list(vec) == [1, 0, 0]
    with pytest.raises(ValueError, match="^max_open must be >= 1$"):
        greedy_close(tiny1, {1, 2, 3}, max_open=0)


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


def _reference_checker(monkeypatch):
    """A check that greedy_close matches reference_greedy_close bit for bit.

    It compares the returned vectors and, step by step, every score list
    ``closing_scores`` hands the loop, as raw float64 bytes.
    """
    got_steps: list[np.ndarray] = []
    scores_of = greedy_variants.closing_scores

    def recording(state):
        scores = scores_of(state)
        got_steps.append(np.array(scores, dtype=np.float64))
        return scores

    monkeypatch.setattr(greedy_variants, "closing_scores", recording)

    def check(inst: Instance, cases) -> None:
        paths = root_path_costs(inst, HopTableCache(inst))
        closer = Closer(inst, paths)
        for opens, max_open in cases:
            want_steps: list[np.ndarray] = []
            want = reference_greedy_close(inst, opens, max_open, paths, want_steps)
            got_steps.clear()
            got = greedy_close(inst, opens, max_open, closer)
            assert got.tolist() == want.tolist()
            assert [s.tobytes() for s in got_steps] == [s.tobytes() for s in want_steps]
            # built from root_path_costs when no closer is given
            assert greedy_close(inst, opens, max_open).tolist() == want.tolist()

    return check


def test_greedy_close_matches_naive_reimplementation(monkeypatch):
    check = _reference_checker(monkeypatch)
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
        check(inst, [(opens, max_open)])


@pytest.mark.parametrize(
    "shape",
    [
        {},
        {"cost_values": 5},
        {"cost_values": 5, "shuffled": True},
        {"shuffled": True},
        {"customers": 0},
    ],
    ids=["non-integer", "ties", "ties-out-of-id-order", "out-of-id-order", "no-customers"],
)
def test_greedy_close_matches_reference_on_dense_instances(shape, monkeypatch):
    check = _reference_checker(monkeypatch)
    rng = random.Random(2024)
    inst = random_dense_instance(rng, **shape)
    cases = [
        (
            [f for f in inst.facilities if rng.random() < density],
            max_open,
        )
        for density in (0.1, 0.3, 0.5, 0.7)
        for max_open in (6, 18, 200)
    ]
    check(inst, cases)


@pytest.mark.parametrize("solver", ["ghs", "hybrid"])
def test_solvers_look_closing_names_up_at_call_time(solver, monkeypatch):
    # The counting wrappers go in only after the solve's set-up: a name
    # bound there, or at import, bypasses them, as it would any tracer
    # that patches the module.
    inst = random_dense_instance(random.Random(31), facilities=12, customers=15)
    counts: Counter[str] = Counter()
    closes = []

    def count(name, record=None):
        original = getattr(greedy_variants, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if record is not None:
                record(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(greedy_variants, name, wrapper)

    make_transform = greedy_variants._repair_and_close

    def counted_transforms(*args):
        transform = make_transform(*args)
        count("closing_scores")
        count("repair_vector")
        count("greedy_close", lambda args: closes.append((list(args[1]), args[2])))

        def wrapper(vector):
            counts["transform"] += 1
            return transform(vector)

        return wrapper

    monkeypatch.setattr(greedy_variants, "_repair_and_close", counted_transforms)
    if solver == "ghs":
        result = ghs_solve(inst, HarmonyParams(hms=20, max_no_improve=40), seed=5)
        assert counts["transform"] >= result.stats.evaluations > 0
    else:
        hybrid_solve(inst, GreedyParams(top_k=6, sample_count=60), seed=5)
        assert counts["transform"] == 60

    paths = root_path_costs(inst, HopTableCache(inst))
    steps: list[np.ndarray] = []
    for opens, max_open in closes:
        reference_greedy_close(inst, opens, max_open, paths, steps)
    assert counts["greedy_close"] == counts["transform"]
    assert counts["repair_vector"] == counts["transform"]
    assert counts["closing_scores"] == len(steps) > counts["transform"]


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


@pytest.mark.parametrize(
    "bad",
    [
        {"max_open": 0},
        {"top_k": 0},
        {"top_k": -3},
        {"top_k": EXHAUSTIVE_BIT_LIMIT + 1},
        {"sample_count": 0},
        {"sample_count": -3},
    ],
)
def test_greedy_params_validate_their_ranges(bad):
    (name,) = bad
    with pytest.raises(ValueError, match=name):
        GreedyParams(**bad)


def test_hybrid_rejects_empty_shortlist(tiny1):
    # top_k < 1 used to wrap the shortlist slice round to 2^(|F| - 2) subsets
    with pytest.raises(ValueError, match="top_k"):
        hybrid_solve(tiny1, GreedyParams(top_k=0, sample_count=5))
    assert GreedyParams(top_k=1).top_k == 1
    assert GreedyParams(top_k=EXHAUSTIVE_BIT_LIMIT).top_k == EXHAUSTIVE_BIT_LIMIT


def test_hybrid_sampling_uses_looser_limit_than_search(tiny1, monkeypatch):
    assert greedy_variants.SAMPLE_MAX_OPEN == 18 > GreedyParams().max_open
    loose = hybrid_solve(tiny1, GreedyParams(sample_count=50), seed=1)
    monkeypatch.setattr(greedy_variants, "SAMPLE_MAX_OPEN", 1)
    tight = hybrid_solve(tiny1, GreedyParams(sample_count=50), seed=1)
    # the fixture shortlist covers every facility either way, so both reach
    # the optimum; the cap only shapes the sampling-phase frequencies
    assert tight.solution.total == loose.solution.total == 10.0
