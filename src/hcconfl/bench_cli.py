"""Benchmark CLI: solve one instance with one algorithm, emit CSV rows.

Example::

    hcconfl-bench --stp steinc5.txt --uflp capmp1.txt --hop 3 \
        --algo ghs --seed 7 --repeats 5 --out results.csv

Each repeat runs with seed ``seed + i`` and contributes one CSV row; a
``best`` row per (instance, algo) group repeats the winning entry.  With
a fixed seed the output is reproducible end to end; pass ``--zero-time``
to blank the one physically measured column when byte-identical files
matter.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .greedy_variants import GHS_PARAMS, GreedyParams, ghs_solve, hybrid_solve
from .harmony_core import HarmonyParams, hs_solve
from .instance_model import (
    Instance,
    ParseError,
    merge_instances,
    parse_stp,
    parse_tiny,
    parse_uflp,
)
from .objective import validate
from .oracle import exact_solve

CSV_HEADER = "instance,algo,hop,seed,obj,cpu_seconds,iterations,open_count"

# each algorithm parameter, by argparse dest, and the --algo values that read it
READ_BY = {
    "hms": ("hs", "ghs"),
    "hmcr": ("hs", "ghs"),
    "max_no_improve": ("hs", "ghs"),
    "max_open": ("ghs",),
    "top_k": ("hybrid",),
    "samples": ("hybrid",),
}


@dataclass
class RunRow:
    instance: str
    algo: str
    hop: int
    seed: str
    obj: float
    cpu_seconds: float
    iterations: int
    open_count: int

    def render(self) -> str:
        return (
            f"{self.instance},{self.algo},{self.hop},{self.seed},"
            f"{self.obj:.2f},{self.cpu_seconds:.3f},"
            f"{self.iterations},{self.open_count}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcconfl-bench",
        description="Benchmark hop-constrained connected facility location solvers.",
    )
    src = parser.add_argument_group("instance input")
    src.add_argument("--tiny", type=Path, help="self-contained instance file")
    src.add_argument("--stp", type=Path, help="core graph in STP format")
    src.add_argument("--uflp", type=Path, help="facility/customer costs in UFLP format")
    src.add_argument("--hop", type=int, help="hop limit (required with --stp)")
    src.add_argument("--name", help="override the instance name in the output")

    run = parser.add_argument_group("run control")
    run.add_argument(
        "--algo",
        choices=("hs", "ghs", "hybrid", "oracle"),
        default="ghs",
        help="solver to run (default: ghs)",
    )
    run.add_argument("--seed", type=int, default=1, help="base seed (default: 1)")
    run.add_argument(
        "--repeats", type=int, default=1, help="independent runs, seeds seed+i"
    )
    run.add_argument("--out", type=Path, help="write CSV here instead of stdout")
    run.add_argument(
        "--zero-time",
        action="store_true",
        help="report cpu_seconds as 0.000 for byte-identical output",
    )

    knobs = parser.add_argument_group("algorithm parameters", "read only by the --algo named")
    knobs.add_argument("--hms", type=int, help="harmony memory size (hs, ghs)")
    knobs.add_argument("--hmcr", type=float, help="initial memory recall rate (hs, ghs)")
    knobs.add_argument(
        "--max-no-improve",
        type=int,
        help="stop after this many stale iterations (hs, ghs); the loop is skipped "
        "once the memory fill has covered every root-open pattern, and the "
        "iterations column counts the improvisations run",
    )
    knobs.add_argument("--max-open", type=int, help="greedy closing keeps at most this many (ghs)")
    knobs.add_argument("--top-k", type=int, help="shortlist size (hybrid)")
    knobs.add_argument("--samples", type=int, help="sampling rounds (hybrid)")
    return parser


def instance_label(args: argparse.Namespace) -> str:
    """Short display name: steinc5 + capmp1 becomes C5mp1."""
    if args.name:
        return args.name
    if args.tiny:
        return args.tiny.stem
    stp_stem = args.stp.stem
    uflp_stem = args.uflp.stem
    match = re.fullmatch(r"stein([a-z])(\d+)", stp_stem)
    if match:
        stp_stem = match.group(1).upper() + match.group(2)
    uflp_stem = re.sub(r"^cap", "", uflp_stem)
    return stp_stem + uflp_stem


def load_instance(args: argparse.Namespace) -> Instance:
    if args.tiny and (args.stp or args.uflp):
        raise ParseError("--tiny cannot be combined with --stp/--uflp")
    if args.tiny:
        instance = parse_tiny(args.tiny.read_text(), name=args.tiny.stem)
        if args.hop is not None:
            instance = replace(instance, hop_limit=args.hop)
        return instance
    if not (args.stp and args.uflp):
        raise ParseError("provide --tiny, or both --stp and --uflp")
    if args.hop is None:
        raise ParseError("--hop is required with --stp/--uflp")
    stp = parse_stp(args.stp.read_text())
    uflp = parse_uflp(args.uflp.read_text())
    return merge_instances(stp, uflp, hop_limit=args.hop, name=instance_label(args))


def _given(args: argparse.Namespace, **fields: str) -> dict:
    """``field: value`` for each field whose option (``field=dest``) was given."""
    values = {field: getattr(args, dest) for field, dest in fields.items()}
    return {field: value for field, value in values.items() if value is not None}


def harmony_params(args: argparse.Namespace) -> HarmonyParams:
    params = GHS_PARAMS if args.algo == "ghs" else HarmonyParams()
    given = _given(args, hms="hms", hmcr_start="hmcr", max_no_improve="max_no_improve")
    return replace(params, **given)


def greedy_params(args: argparse.Namespace) -> GreedyParams:
    return GreedyParams(**_given(args, top_k="top_k", sample_count="samples"))


def run_once(instance: Instance, label: str, args: argparse.Namespace, seed: int) -> RunRow:
    cpu_start = time.process_time()
    if args.algo == "oracle":
        solution, iterations = exact_solve(instance), 0
    else:
        if args.algo == "hs":
            result = hs_solve(instance, params=harmony_params(args), seed=seed)
        elif args.algo == "ghs":
            result = ghs_solve(
                instance, harmony_params(args), **_given(args, max_open="max_open"), seed=seed
            )
        else:
            result = hybrid_solve(instance, greedy=greedy_params(args), seed=seed)
        solution, iterations = result.solution, result.stats.iterations
    cpu = 0.0 if args.zero_time else time.process_time() - cpu_start

    if not solution.feasible:
        raise RuntimeError(f"{label}: no feasible solution found")
    problems = validate(instance, solution)
    if problems:
        raise RuntimeError(
            f"{label}: solution violates {problems[0].constraint}: "
            f"{problems[0].message}"
        )
    return RunRow(
        instance=label,
        algo=args.algo,
        hop=instance.hop_limit,
        seed=str(seed),
        obj=solution.total,
        cpu_seconds=cpu,
        iterations=iterations,
        open_count=len(solution.open_facilities),
    )


def format_csv(rows: list[RunRow]) -> str:
    """Rows sorted by (instance, algo, seed) with a best row per group."""
    lines = [CSV_HEADER]
    groups: dict[tuple[str, str], list[RunRow]] = {}
    for row in rows:
        groups.setdefault((row.instance, row.algo), []).append(row)
    for key in sorted(groups):
        members = sorted(groups[key], key=lambda r: int(r.seed))
        for row in members:
            lines.append(row.render())
        winner = min(members, key=lambda r: (r.obj, int(r.seed)))
        lines.append(replace(winner, seed="best").render())
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.repeats < 1:
            raise ValueError("--repeats must be >= 1")
        for dest, algos in READ_BY.items():
            if getattr(args, dest) is not None and args.algo not in algos:
                raise ValueError(f"--{dest.replace('_', '-')} does not apply to --algo {args.algo}")
        instance = load_instance(args)
        label = instance_label(args)
        rows = [
            run_once(instance, label, args, seed=args.seed + i)
            for i in range(args.repeats)
        ]
        text = format_csv(rows)
        if args.out:
            args.out.write_text(text)
        else:
            sys.stdout.write(text)
    except (ValueError, RuntimeError, OSError) as exc:  # bad input or parameter
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
