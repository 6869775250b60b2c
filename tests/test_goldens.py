"""Seed -> result goldens: the solvers' outputs may only move on purpose."""

import pytest

from hcconfl import GreedyParams, ghs_solve, hs_solve, hybrid_solve

from corpus_util import golden_cases

INSTANCES, RESULTS = golden_cases()
SOLVERS = {
    "hs": lambda inst, seed: hs_solve(inst, seed=seed),
    "ghs": lambda inst, seed: ghs_solve(inst, seed=seed),
    "hybrid": lambda inst, seed: hybrid_solve(
        inst, GreedyParams(top_k=8, sample_count=300), seed=seed
    ),
}


@pytest.mark.parametrize("case", sorted(RESULTS))
def test_solver_matches_golden(case):
    name, solver, seed = case.split("/")
    result = SOLVERS[solver](INSTANCES[name], int(seed))
    got = {
        "total": float(result.solution.total).hex(),
        "open": sorted(result.solution.open_facilities),
        "evaluations": result.stats.evaluations,
        "iterations": result.stats.iterations,
        "history": [[i, float(t).hex()] for i, t in result.stats.incumbent_history],
    }
    assert got == RESULTS[case]
