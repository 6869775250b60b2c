"""Out-of-tree tracer: wraps the package's public functions for one run.

The package binds names with ``from .x import y``, so a function is looked
up in the namespace of the module that calls it.  Every wrapper is therefore
installed in each module that binds the name (``PATCHES``), and every
original is put back by :meth:`Tracer.uninstall`.  Nothing is patched unless
a tracer is installed, so an untraced run executes the package unchanged.

Spans record a name, start, end and parent span; they stay in memory and
are summarised when the run ends.  A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass

import hcconfl
from hcconfl import greedy_variants, harmony_core, hcst_nrbi, hop_paths, instance_model, objective, oracle


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span


@dataclass
class _Solve:
    """The innermost harmony_solve or hybrid_solve call in progress."""

    kind: str  # "harmony" or "hybrid"
    phase: str  # harmony: "fill" then "loop"; hybrid: "sample" then "enumerate"
    started: float
    phase_span: int = -1  # hybrid only: the open sample/enumerate span


# (span name, attribute, modules binding it).  The first module defines the
# function; the others import it by name.
PATCHES = [
    ("instance_model.parse_stp", "parse_stp", (instance_model, hcconfl)),
    ("instance_model.parse_uflp", "parse_uflp", (instance_model, hcconfl)),
    ("instance_model.merge_instances", "merge_instances", (instance_model, hcconfl)),
    ("hop_paths.hop_bellman_ford", "hop_bellman_ford", (hop_paths, hcconfl)),
    ("hop_paths.extract_path", "extract_path", (hop_paths, hcst_nrbi, hcconfl)),
    ("hcst_nrbi.nrbi_phase1", "nrbi_phase1", (hcst_nrbi,)),
    ("hcst_nrbi.nrbi_phase2", "nrbi_phase2", (hcst_nrbi,)),
    ("objective.evaluate", "evaluate", (objective, harmony_core, greedy_variants, hcconfl)),
    ("objective.as_open_set", "as_open_set", (objective, greedy_variants, hcconfl)),
    ("objective.validate", "validate", (objective, harmony_core, greedy_variants, hcconfl)),
    ("harmony_core.improvise", "improvise", (harmony_core, hcconfl)),
    ("harmony_core.update_bias", "update_bias", (harmony_core, hcconfl)),
    ("harmony_core.harmony_solve", "harmony_solve", (harmony_core, greedy_variants, hcconfl)),
    ("greedy_variants.greedy_close", "greedy_close", (greedy_variants, hcconfl)),
    ("greedy_variants.hybrid_solve", "hybrid_solve", (greedy_variants, hcconfl)),
    ("oracle.HcstOracle.solve", "solve", (oracle.HcstOracle,)),
]

# (count name, attribute, modules or classes binding it): calls are counted,
# no span is recorded, because these run too often or too briefly to time.
COUNTS = [
    ("hop_paths.table.calls", "table", (hop_paths.HopTableCache,)),
    ("hcst_nrbi.parent_tree_fallbacks", "_parent_tree", (hcst_nrbi,)),
    ("harmony_core.replace_worst.calls", "replace_worst", (harmony_core.HarmonyMemory,)),
    ("harmony_core.contains.calls", "contains", (harmony_core.HarmonyMemory,)),
    ("greedy_variants.closing_scores.calls", "closing_scores", (greedy_variants,)),
]


class Tracer:
    """Collects spans and counts while installed; restores everything after."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.fill_s = 0.0  # harmony_solve entry to its first improvise, summed
        self._stack: list[int] = []
        self._solves: list[_Solve] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        """Context manager recording one span (for the benchmark's own phases)."""
        tracer = self

        class _Ctx:
            def __enter__(self):
                self.index = tracer._open(name)

            def __exit__(self, *exc):
                tracer._close(self.index)

        return _Ctx()

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- wrappers with extra bookkeeping ---------------------------------------

    def _wrap_evaluate(self, fn):
        spanned = self._spanned("objective.evaluate", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            solve = self._solves[-1] if self._solves else None
            if solve is not None and solve.phase == "sample":
                # the hybrid's first evaluation ends its sampling phase
                self._close(solve.phase_span)
                solve.phase_span = self._open("greedy_variants.hybrid.enumerate")
                solve.phase = "enumerate"
            result = spanned(*args, **kwargs)
            if solve is not None and solve.kind == "harmony":
                self.counts["harmony_core.evaluations"] += 1
            if not result.feasible:
                self.counts["objective.infeasible"] += 1
            return result

        return wrapper

    def _wrap_harmony_solve(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open("harmony_core.harmony_solve")
            self._solves.append(_Solve("harmony", "fill", time.perf_counter()))
            try:
                return fn(*args, **kwargs)
            finally:
                self._solves.pop()
                self._close(index)

        return wrapper

    def _wrap_improvise(self, fn):
        spanned = self._spanned("harmony_core.improvise", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            solve = self._solves[-1] if self._solves else None
            if solve is not None and solve.phase == "fill":
                self.fill_s += time.perf_counter() - solve.started
                solve.phase = "loop"
            return spanned(*args, **kwargs)

        return wrapper

    def _wrap_repair(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            solve = self._solves[-1] if self._solves else None
            if solve is not None and solve.phase == "fill":
                self.counts["harmony_core.fill_draws"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_hybrid(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open("greedy_variants.hybrid_solve")
            solve = _Solve("hybrid", "sample", time.perf_counter())
            solve.phase_span = self._open("greedy_variants.hybrid.sample")
            self._solves.append(solve)
            try:
                return fn(*args, **kwargs)
            finally:
                self._solves.pop()
                self._close(solve.phase_span)
                self._close(index)

        return wrapper

    def _wrap_oracle_init(self, fn):
        @functools.wraps(fn)
        def wrapper(oracle_self, *args, **kwargs):
            index = self._open("oracle.HcstOracle.init")
            try:
                fn(oracle_self, *args, **kwargs)
            finally:
                self._close(index)
            strategy = "profile" if oracle_self._by_profile else "edge_subsets"
            self.spans[index].name = f"oracle.HcstOracle.init.{strategy}"
            self.counts[f"oracle.strategy_{strategy}"] += 1

        return wrapper

    # -- install / uninstall -----------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        special = {
            "evaluate": self._wrap_evaluate,
            "harmony_solve": self._wrap_harmony_solve,
            "improvise": self._wrap_improvise,
            "hybrid_solve": self._wrap_hybrid,
        }
        for name, attr, owners in PATCHES:
            original = getattr(owners[0], attr)
            make = special.get(attr)
            wrapped = make(original) if make else self._spanned(name, original)
            for owner in owners:
                self._set(owner, attr, wrapped)
        for name, attr, owners in COUNTS:
            wrapped = self._counted(name, getattr(owners[0], attr))
            for owner in owners:
                self._set(owner, attr, wrapped)
        repair = self._wrap_repair(harmony_core.repair_vector)
        self._set(harmony_core, "repair_vector", repair)
        self._set(greedy_variants, "repair_vector", repair)
        self._set(
            oracle.HcstOracle, "__init__", self._wrap_oracle_init(oracle.HcstOracle.__init__)
        )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- summary -------------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = {}
        for i, span in enumerate(self.spans):
            entry = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += span.end - span.start
            entry["self_s"] += span.end - span.start - child_time[i]
        return out

    def share_under(self, root_name: str, names: set[str]) -> float:
        """Fraction of the time of spans ``root_name`` spent in descendants named in ``names``."""
        root_total = 0.0
        covered = 0.0
        inside: dict[int, bool] = {}  # span index -> lies under a root span
        for i, span in enumerate(self.spans):
            under = span.parent >= 0 and (
                inside.get(span.parent, False) or self.spans[span.parent].name == root_name
            )
            inside[i] = under
            if span.name == root_name:
                root_total += span.end - span.start
            elif under and span.name in names:
                covered += span.end - span.start
        return covered / root_total if root_total else 0.0
