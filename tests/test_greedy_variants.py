import dataclasses
import math
import random
import re
from collections import Counter, defaultdict

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
from hcconfl import greedy_variants, harmony_core
from hcconfl.greedy_variants import (
    EXHAUSTIVE_BIT_LIMIT,
    Closer,
    ClosingState,
    RowClosingState,
    close_rows,
    closing_scores,
)
from hcconfl.harmony_core import repair_vector, vector_ids

from corpus_util import (
    naive_hop_costs,
    random_dense_instance,
    random_tiny_instance,
    reference_greedy_close,
)


def test_closing_scores_fixture_trace(tiny1):
    closer = Closer(HopTableCache(tiny1))
    rows = np.array([[1, 1, 1], [1, 0, 1], [1, 0, 0]], dtype=np.uint8)
    state = ClosingState(closer, rows)
    assert state.live.tolist() == [0, 1]  # the root alone has nothing to score
    scores = closing_scores(state)
    assert scores.shape == (2, 3)
    assert scores[0, 0] == math.inf  # root never closes
    # facility 2 serves a (regret 4-1=3), opening 3, root path 2
    assert scores[0, 1] == pytest.approx(-2.0)
    # facility 3 serves b (regret 7-1=6), opening 2, root path 2
    assert scores[0, 2] == pytest.approx(2.0)
    # a closed facility scores +inf; 3 alone serves a and b (regrets 5, 7)
    assert scores[1].tolist() == [math.inf, math.inf, 8.0]


def test_greedy_close_fixture(tiny1):
    vec = greedy_close(tiny1, {1, 2, 3})
    assert list(vec) == [1, 0, 1]
    # a second call from the reduced set changes nothing: closing 3 costs +8
    again = greedy_close(tiny1, {1, 3})
    assert list(again) == [1, 0, 1]


def test_greedy_close_respects_max_open(tiny1):
    vec = greedy_close(tiny1, {1, 2, 3}, max_open=1)
    assert list(vec) == [1, 0, 0]
    with pytest.raises(ValueError, match="^max_open must be >= 1, got 0$"):
        greedy_close(tiny1, {1, 2, 3}, max_open=0)
    for bad in (1.5, True):
        with pytest.raises(ValueError, match=f"^max_open must be an integer, got {bad}$"):
            greedy_close(tiny1, {1, 2, 3}, max_open=bad)


def test_greedy_close_drops_unreachable_facilities(tiny1):
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
    """A check that the closing kernel matches reference_greedy_close bit for bit.

    Each block of open sets, the root bit set in every row as the solvers
    set it, goes through ``close_rows`` whole, under three chunk sizes (the
    default, three rows, and one row with one-entry ranking reads), then
    one row at a time, which ``close_rows`` hands to
    ``RowClosingState``, and through ``greedy_close`` one set at a time.
    Every row must come back as the reference's, and every row's scores
    over its open facilities, step by step, must equal the reference's as
    raw float64 bytes.  A chunk calls ``closing_scores`` once per step of
    its longest row.
    """
    states: list = []  # the state of each chunk, in order
    got_steps: defaultdict[int, list[bytes]] = defaultdict(list)
    calls: Counter[int] = Counter()  # closing_scores calls per chunk
    scores_of = greedy_variants.closing_scores
    default_cells = greedy_variants.CLOSE_CELLS

    def recorded(state_class):
        class Recorded(state_class):
            def __init__(self, closer, rows):
                super().__init__(closer, rows)
                self.first = sum(len(s.opened) for s in states)
                self.chunk = len(states)
                states.append(self)

        return Recorded

    def recording(state):
        scores = scores_of(state)
        calls[state.chunk] += 1
        for n, r in enumerate(state.live):
            got_steps[state.first + r].append(scores[n][state.opened[r]].tobytes())
        return scores

    for name in ("ClosingState", "RowClosingState"):
        monkeypatch.setattr(greedy_variants, name, recorded(getattr(greedy_variants, name)))
    monkeypatch.setattr(greedy_variants, "closing_scores", recording)

    def check(inst: Instance, block, max_open: int) -> None:
        cache = HopTableCache(inst)
        closer, paths = Closer(cache), cache.root_paths
        want, want_steps = [], []
        rows = np.zeros((len(block), len(inst.facilities)), dtype=np.uint8)
        for row, opens in zip(rows, block):
            steps: list[np.ndarray] = []
            want.append(reference_greedy_close(inst, opens, max_open, paths, steps).tolist())
            want_steps.append([s.astype(np.float64).tobytes() for s in steps])
            row[[inst.facility_index[f] for f in {*opens, inst.root}]] = 1
        customers = max(1, len(inst.customers))
        passes = [(cells, [rows]) for cells in (default_cells, 3 * customers, 1)]
        passes.append((default_cells, [row[None] for row in rows]))
        for cells, blocks in passes:
            monkeypatch.setattr(greedy_variants, "CLOSE_CELLS", cells)
            states.clear()
            got_steps.clear()
            calls.clear()
            got = [row for b in blocks for row in close_rows(closer, b, max_open).tolist()]
            assert got == want
            assert [got_steps[r] for r in range(len(block))] == want_steps
            # the block's size alone picks the state
            kind = RowClosingState if len(blocks[0]) == 1 else ClosingState
            for chunk, state in enumerate(states):
                assert type(state).__mro__[1] is kind
                rows_in = range(state.first, state.first + len(state.opened))
                assert calls[chunk] == max(len(want_steps[r]) for r in rows_in)
        for opens, vector in zip(block, want):
            assert greedy_close(inst, opens, max_open).tolist() == vector

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
        check(inst, [opens], max_open)


@pytest.mark.parametrize(
    "shape",
    [
        {},
        {"cost_values": 5},
        {"customers": 0},
    ],
    ids=["non-integer", "ties", "no-customers"],
)
def test_greedy_close_matches_reference_on_dense_instances(shape, monkeypatch):
    check = _reference_checker(monkeypatch)
    rng = random.Random(2024)
    inst = random_dense_instance(rng, **shape)
    block = [
        [f for f in inst.facilities if rng.random() < density]
        for density in (0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    ]
    for max_open in (1, 6, 18, 200):
        check(inst, block, max_open)


def _one_facility_instance() -> Instance:
    return Instance(
        name="one",
        num_nodes=2,
        core_edges=((1, 2, 1.0),),
        facilities=(2,),
        root=2,
        customers=("a", "b"),
        opening_costs={2: 3.0},
        assignment_costs=np.array([[1.0, 2.0]]),
        hop_limit=1,
    )


def test_close_rows_on_a_single_facility_and_an_empty_block(monkeypatch):
    check = _reference_checker(monkeypatch)
    inst = _one_facility_instance()
    check(inst, [[], [2]], 1)
    closer = Closer(HopTableCache(inst))
    assert close_rows(closer, np.zeros((0, 1), dtype=np.uint8), 6).shape == (0, 1)


def _one_row_cases(tiny1):
    rng = random.Random(77)
    ties = random_dense_instance(rng, facilities=40, customers=30, cost_values=5)
    edges = list(ties.core_edges)
    rng.shuffle(edges)
    ties = dataclasses.replace(ties, core_edges=tuple(edges))
    dense = random_dense_instance(rng, facilities=30, customers=25)
    half = [rng.random() < 0.5 for _ in dense.facilities]
    return {
        "root-only": (tiny1, [1, 0, 0], 6),
        "all-zero": (tiny1, [0, 0, 0], 6),
        "one-facility": (_one_facility_instance(), [1], 6),
        "no-customers": (random_dense_instance(rng, facilities=30, customers=0), half, 6),
        "max-open-1": (dense, half, 1),
        "ties": (ties, [rng.random() < 0.6 for _ in ties.facilities], 3),
    }


@pytest.mark.parametrize(
    "case",
    ["root-only", "all-zero", "one-facility", "no-customers", "max-open-1", "ties"],
)
def test_one_row_state_matches_the_lockstep_kernel(case, tiny1, monkeypatch):
    # the same row closes alone, through RowClosingState, and as the first
    # row of a 2-row block, through ClosingState, beside an all-open row;
    # the root bit is set first, as the solvers set it ("all-zero" is then
    # the root alone)
    inst, row, max_open = _one_row_cases(tiny1)[case]
    closer = Closer(HopTableCache(inst))
    steps: dict[str, list[bytes]] = defaultdict(list)
    scores_of = greedy_variants.closing_scores

    def recording(state):
        scores = scores_of(state)
        for n in np.flatnonzero(state.live == 0):
            steps[type(state).__name__].append(scores[n].tobytes())
        return scores

    monkeypatch.setattr(greedy_variants, "closing_scores", recording)
    row = np.array([row], dtype=np.uint8)
    row[0, inst.facility_index[inst.root]] = 1
    block = np.vstack([row, np.ones_like(row)])
    alone = close_rows(closer, row, max_open)
    assert alone.tolist() == close_rows(closer, block, max_open)[:1].tolist()
    assert steps["RowClosingState"] == steps["ClosingState"]
    assert alone[0, inst.facility_index[inst.root]] == 1


def _promise_only_partition(a, kth, axis=-1):
    """``np.partition`` keeping only its promise: the ``kth`` entry in its
    sorted place, none larger before it and none smaller after it.  The
    entries on each side are in descending order, the worst order allowed."""
    out = np.moveaxis(np.sort(a, axis=axis), axis, -1)
    sides = (out[..., :kth][..., ::-1], out[..., kth : kth + 1], out[..., kth + 1 :][..., ::-1])
    return np.moveaxis(np.concatenate(sides, axis=-1), -1, axis)


def test_one_row_state_needs_only_what_np_partition_promises(monkeypatch):
    # Some NumPy builds leave the two least entries in order even for kth
    # 0, so no run on them can tell kth 0 from kth 1; this stand-in puts
    # the largest entry right after the least when kth is 0.
    rows = np.array([[2, 0, 1, 3], [3, 2, 1, 0]])
    assert _promise_only_partition(rows, 0, axis=1).tolist() == [[0, 3, 2, 1], [0, 3, 2, 1]]
    assert _promise_only_partition(rows, 1, axis=1).tolist() == [[0, 1, 3, 2], [0, 1, 3, 2]]
    assert _promise_only_partition(rows.T, 1, axis=0).T.tolist() == [[0, 1, 3, 2], [0, 1, 3, 2]]
    monkeypatch.setattr(np, "partition", _promise_only_partition)
    check = _reference_checker(monkeypatch)
    rng = random.Random(4242)
    for shape in ({}, {"cost_values": 5}):
        inst = random_dense_instance(rng, facilities=60, customers=50, **shape)
        block = [[f for f in inst.facilities if rng.random() < d] for d in (0.1, 0.5, 1.0)]
        for max_open in (1, 6, 60):
            check(inst, block, max_open)


@pytest.mark.parametrize("solver", ["ghs", "hybrid"])
def test_solvers_look_closing_names_up_at_call_time(solver, monkeypatch):
    # The counting wrappers go in only after the solve's set-up: a name
    # bound there, or at import, bypasses them, as it would any tracer
    # that patches the module.
    inst = random_dense_instance(random.Random(31), facilities=12, customers=15)
    counts: Counter[str] = Counter()
    handed: list[np.ndarray] = []  # each block the transform was handed
    returned: list[np.ndarray] = []  # each block the transform returned
    repaired: list[np.ndarray] = []  # each block repair_vector returned
    closed: list[np.ndarray] = []  # each block close_rows was handed
    priced: list[list[int]] = []  # each open set evaluate priced
    max_open = []

    def count(module, name, record=None):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = original(*args, **kwargs)
            if record is not None:
                record(args, result)
            return result

        monkeypatch.setattr(module, name, wrapper)

    make_transform = greedy_variants._repair_and_close

    def counted_transforms(*args):
        transform = make_transform(*args)
        max_open.append(args[1])
        count(greedy_variants, "closing_scores")
        count(greedy_variants, "greedy_close")
        count(greedy_variants, "close_rows", lambda a, _: closed.append(a[1].copy()))
        count(greedy_variants, "repair_vector", lambda _, got: repaired.append(got))

        def wrapper(rows):
            if not counts["transform"]:  # the harmony engine is set up by now
                for module in (greedy_variants, harmony_core):
                    count(module, "evaluate", lambda a, _: priced.append(sorted(a[1])))
            counts["transform"] += 1
            handed.append(rows.copy())
            returned.append(transform(rows))
            return returned[-1]

        return wrapper

    monkeypatch.setattr(greedy_variants, "_repair_and_close", counted_transforms)
    if solver == "ghs":
        result = ghs_solve(inst, HarmonyParams(hms=20, max_no_improve=40), seed=5)
    else:
        result = hybrid_solve(inst, GreedyParams(top_k=6, sample_count=60), seed=5)
        assert [len(block) for block in handed] == [60]  # one block
    assert counts["evaluate"] == len(priced) == result.stats.evaluations > 0

    # every block is repaired, and its rows come back as the reference closes them
    paths = HopTableCache(inst).root_paths
    reach = np.isfinite(paths)
    assert counts["repair_vector"] == counts["transform"] == len(handed) > 0
    for block, got, out in zip(handed, repaired, returned):
        assert got.tobytes() == repair_vector(inst, block, reach).tobytes()
        for row, vector in zip(got, out):
            opens = [f for f, bit in zip(inst.facilities, row) if bit]
            want = reference_greedy_close(inst, opens, max_open[0], paths)
            assert vector.tolist() == want.tolist()
    # each repaired block goes to close_rows whole, once per transform call
    assert counts["close_rows"] == counts["transform"]
    assert [block.tobytes() for block in closed] == [block.tobytes() for block in repaired]
    assert counts["greedy_close"] == 0
    if solver == "ghs":
        # ghs evaluates nothing but rows the transform returned
        out = {tuple(sorted(vector_ids(inst, row))) for block in returned for row in block}
        assert sum(map(len, returned)) >= result.stats.evaluations
        assert {tuple(ids) for ids in priced} <= out
    chunk = greedy_variants.CLOSE_CELLS // len(inst.customers)
    steps = 0
    for block in closed:
        for start in range(0, len(block), chunk):
            steps += max(
                len(_reference_steps(inst, row, max_open[0], paths))
                for row in block[start : start + chunk]
            )
    assert counts["closing_scores"] == steps > counts["close_rows"]


def test_every_row_reaching_close_rows_holds_the_root(tiny1, monkeypatch):
    # close_rows no longer opens the root: each caller hands it rows that
    # hold it, ghs and hybrid through their repair, greedy_close by adding it
    blocks: list[np.ndarray] = []
    close = greedy_variants.close_rows

    def recording(closer, rows, max_open):
        blocks.append(rows.copy())
        return close(closer, rows, max_open)

    monkeypatch.setattr(greedy_variants, "close_rows", recording)
    inst = random_dense_instance(random.Random(8), facilities=40, customers=40)
    for case in (tiny1, inst):
        callers = {
            "ghs": lambda: ghs_solve(case, HarmonyParams(hms=20, max_no_improve=40), seed=3),
            "hybrid": lambda: hybrid_solve(case, GreedyParams(top_k=6, sample_count=50), seed=3),
            "greedy_close": lambda: greedy_close(
                case, [f for f in case.facilities[::2] if f != case.root]
            ),
        }
        root = case.facility_index[case.root]
        for name, call in callers.items():
            blocks.clear()
            call()
            assert blocks, name
            assert all(block[:, root].all() for block in blocks), name


@pytest.mark.parametrize("root_bias", [0.05, 1.0])
def test_no_result_depends_on_the_roots_bias(root_bias, tiny1, monkeypatch):
    # every transform opens the root, so its entry of the static bias is read
    # only by draws whose root bit is then overwritten
    dense = random_dense_instance(random.Random(40), facilities=40, customers=40)

    def solves(inst):
        return [
            harmony_core.hs_solve(inst, HarmonyParams(hms=20, max_no_improve=40), seed=6),
            ghs_solve(inst, HarmonyParams(hms=20, max_no_improve=40), seed=6),
            hybrid_solve(inst, GreedyParams(top_k=6, sample_count=50), seed=6),
        ]

    bias_of = harmony_core.init_bias

    def pinned(instance):
        bias = bias_of(instance)
        bias[instance.facility_index[instance.root]] = root_bias
        return bias

    for inst in (tiny1, dense):
        want = solves(inst)
        with monkeypatch.context() as patch:
            for module in (harmony_core, greedy_variants):
                patch.setattr(module, "init_bias", pinned)
            got = solves(inst)
        for a, b in zip(want, got):
            assert a.solution == b.solution
            assert a.stats.incumbent_history == b.stats.incumbent_history
            assert a.stats.evaluations == b.stats.evaluations


def _reference_steps(inst: Instance, row: np.ndarray, max_open: int, paths) -> list:
    steps: list[np.ndarray] = []
    opens = [f for f, bit in zip(inst.facilities, row) if bit]
    reference_greedy_close(inst, opens, max_open, paths, steps)
    return steps


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
        # NumPy integers pass the type check and still meet the range check
        {"sample_count": np.int64(0)},
        {"top_k": 0},
        {"top_k": -3},
        {"top_k": EXHAUSTIVE_BIT_LIMIT + 1},
        {"sample_count": 0},
        {"sample_count": -3},
        # counts must be integers: 1.5 and True used to run as 1, and
        # 2.5 to fail later with a TypeError
        {"sample_count": 2.5},
        {"top_k": np.float64(3)},
        {"top_k": 2.5},
        {"top_k": True},
        {"sample_count": 3.5},
        {"sample_count": True},
    ],
)
def test_greedy_params_validate_their_ranges(bad):
    (name,) = bad
    with pytest.raises(ValueError, match=f"^{name} must be "):
        GreedyParams(**bad)


@pytest.mark.parametrize("bad", [0, 1.5, True])
def test_ghs_solve_checks_max_open_as_greedy_close_does(tiny1, bad):
    with pytest.raises(ValueError, match="^max_open must be ") as closing:
        greedy_close(tiny1, {1, 2, 3}, max_open=bad)
    with pytest.raises(ValueError, match=f"^{re.escape(str(closing.value))}$"):
        ghs_solve(tiny1, max_open=bad)


def test_hybrid_rejects_empty_shortlist(tiny1):
    # top_k < 1 used to wrap the shortlist slice round to 2^(|F| - 2) subsets
    with pytest.raises(ValueError, match="top_k"):
        hybrid_solve(tiny1, GreedyParams(top_k=0, sample_count=5))
    assert GreedyParams(top_k=1).top_k == 1
    assert GreedyParams(top_k=EXHAUSTIVE_BIT_LIMIT).top_k == EXHAUSTIVE_BIT_LIMIT


def test_hybrid_sampling_uses_looser_limit_than_search(tiny1, monkeypatch):
    assert greedy_variants.SAMPLE_MAX_OPEN == 18 > greedy_variants.MAX_OPEN
    loose = hybrid_solve(tiny1, GreedyParams(sample_count=50), seed=1)
    monkeypatch.setattr(greedy_variants, "SAMPLE_MAX_OPEN", 1)
    tight = hybrid_solve(tiny1, GreedyParams(sample_count=50), seed=1)
    # the fixture shortlist covers every facility either way, so both reach
    # the optimum; the cap only shapes the sampling-phase frequencies
    assert tight.solution.total == loose.solution.total == 10.0
