"""Benchmark CLI: solve one instance with one algorithm, emit CSV rows.

Example::

    hcconfl-bench --stp steinc5.txt --uflp capmp1.txt --hop 3 \
        --algo ghs --seed 7 --repeats 5 --out results.csv

Each repeat runs with seed ``seed + i`` and contributes one CSV row, in
seed order; a closing ``best`` row repeats the winning entry.  With
a fixed seed the output is reproducible end to end; pass ``--zero-time``
to blank the one physically measured column when byte-identical files
matter.

Each algorithm option is declared once, in ``PARAMS``: ``build_parser``
adds it from there, and an option an ``--algo`` does not read is refused.
"""

from __future__ import annotations

import argparse
import csv
import io
import re
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .greedy_variants import GHS_PARAMS, GreedyParams, ghs_solve, hybrid_solve
from .harmony_core import HarmonyParams, hs_solve
from .instance_model import (
    Instance,
    ParseError,
    _check_count,
    merge_instances,
    parse_stp,
    parse_tiny,
    parse_uflp,
)
from .objective import validate
from .oracle import exact_solve

# each algorithm option, by the params field it sets: its flag, its type,
# the --algo values that read it, and its help
PARAMS = dict(
    hms=("--hms", int, ("hs", "ghs"), "harmony memory size"),
    hmcr_start=("--hmcr", float, ("hs", "ghs"), "initial memory recall rate"),
    max_no_improve=("--max-no-improve", int, ("hs", "ghs"), "stop after this many stale "
                    "iterations; the loop is skipped once the memory fill has covered every "
                    "root-open pattern, and the iterations column counts the improvisations run"),
    max_open=("--max-open", int, ("ghs",), "greedy closing keeps at most this many"),
    top_k=("--top-k", int, ("hybrid",), "shortlist size"),
    sample_count=("--samples", int, ("hybrid",), "sampling rounds"),
)


@dataclass
class RunRow:
    """One CSV row: its fields are the columns, in order, and name the header."""

    instance: str
    algo: str
    hop: int
    seed: str
    obj: float
    cpu_seconds: float
    iterations: int
    open_count: int


CSV_HEADER = ",".join(field.name for field in fields(RunRow))


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
    run.add_argument("--repeats", type=int, default=1, help="independent runs, seeds seed+i")
    run.add_argument("--out", type=Path, help="write CSV here instead of stdout")
    run.add_argument(
        "--zero-time",
        action="store_true",
        help="report cpu_seconds as 0.000 for byte-identical output",
    )

    knobs = parser.add_argument_group("algorithm parameters", "read only by the --algo named")
    for field, (option, kind, algos, text) in PARAMS.items():
        knobs.add_argument(option, dest=field, type=kind, help=f"{text} ({', '.join(algos)})")
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
        instance = parse_tiny(args.tiny.read_text(), name=instance_label(args))
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


def _given(args: argparse.Namespace, *fields: str) -> dict:
    """``field: value`` for each of ``fields`` whose option was given."""
    return {field: getattr(args, field) for field in fields if getattr(args, field) is not None}


def _as_typed(args: argparse.Namespace, message: str) -> str:
    """``message`` with a leading params field renamed to the option given for
    it: ``sample_count must be >= 1, got 0`` becomes ``--samples must be >= 1,
    got 0``."""
    field, space, rest = message.partition(" ")
    if field in PARAMS and _given(args, field):
        return PARAMS[field][0] + space + rest
    return message


def harmony_params(args: argparse.Namespace) -> HarmonyParams:
    params = GHS_PARAMS if args.algo == "ghs" else HarmonyParams()
    return replace(params, **_given(args, "hms", "hmcr_start", "max_no_improve"))


def run_once(instance: Instance, args: argparse.Namespace, seed: int) -> RunRow:
    cpu_start = time.process_time()
    if args.algo == "oracle":
        solution, iterations = exact_solve(instance), 0
    else:
        if args.algo == "hs":
            result = hs_solve(instance, params=harmony_params(args), seed=seed)
        elif args.algo == "ghs":
            max_open = _given(args, "max_open")
            result = ghs_solve(instance, harmony_params(args), **max_open, seed=seed)
        else:
            greedy = GreedyParams(**_given(args, "top_k", "sample_count"))
            result = hybrid_solve(instance, greedy=greedy, seed=seed)
        solution, iterations = result.solution, result.stats.iterations
    cpu = 0.0 if args.zero_time else time.process_time() - cpu_start

    if not solution.feasible:
        raise RuntimeError(f"{instance.name}: no feasible solution found")
    problems = validate(instance, solution)
    if problems:
        raise RuntimeError(
            f"{instance.name}: solution violates {problems[0].constraint}: "
            f"{problems[0].message}"
        )
    return RunRow(
        instance=instance.name,
        algo=args.algo,
        hop=instance.hop_limit,
        seed=str(seed),
        obj=solution.total,
        cpu_seconds=cpu,
        iterations=iterations,
        open_count=len(solution.open_facilities),
    )


def format_csv(rows: list[RunRow]) -> str:
    """The header, ``rows`` as given (seed order), and the first lowest ``obj`` as
    ``best``; a cell holding a comma, a quote or a newline is quoted (RFC 4180)."""
    if rows:
        rows = [*rows, replace(min(rows, key=lambda r: r.obj), seed="best")]
    spec = {"obj": ".2f", "cpu_seconds": ".3f"}
    cells = [[format(value, spec.get(name, "")) for name, value in asdict(row).items()] for row in rows]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([CSV_HEADER.split(","), *cells])
    return out.getvalue()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_count("--repeats", args.repeats, 1)
        if args.hop is not None:
            _check_count("--hop", args.hop, 1)
        _check_count("--seed", args.seed, 0)
        for field, (option, _, algos, _) in PARAMS.items():
            if _given(args, field) and args.algo not in algos:
                raise ValueError(f"{option} does not apply to --algo {args.algo}")
        instance = load_instance(args)
        rows = [run_once(instance, args, seed=args.seed + i) for i in range(args.repeats)]
        text = format_csv(rows)
        if args.out:
            args.out.write_text(text)
        else:
            sys.stdout.write(text)
    except (ValueError, RuntimeError, OSError) as exc:  # bad input or parameter
        print(f"error: {_as_typed(args, str(exc))}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
