import csv
import dataclasses
import io
import re
import runpy
import sys
from pathlib import Path

import pytest

from hcconfl import Solution, bench_cli
from hcconfl.bench_cli import instance_label, main

from test_instance_model import STP_TEXT, UFLP_BEASLEY

ROOT = Path(__file__).parent.parent
DATA = ROOT / "tests" / "data"
TINY = DATA / "tiny1.txt"

GOLDEN_ORACLE = """\
instance,algo,hop,seed,obj,cpu_seconds,iterations,open_count
tiny1,oracle,2,1,10.00,0.000,0,2
tiny1,oracle,2,best,10.00,0.000,0,2
"""


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_oracle_golden_csv(capsys):
    code, out, err = run(
        capsys, "--tiny", str(TINY), "--algo", "oracle", "--zero-time"
    )
    assert code == 0 and err == ""
    assert out == GOLDEN_ORACLE


def test_python_m_runs_main_and_exits_with_its_code(capsys, monkeypatch):
    argv = ["--tiny", str(TINY), "--algo", "oracle", "--zero-time"]
    monkeypatch.setattr(sys, "argv", ["bench_cli", *argv])
    # run_module warns when the module it runs as __main__ is already imported
    monkeypatch.delitem(sys.modules, "hcconfl.bench_cli")
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("hcconfl.bench_cli", run_name="__main__")
    assert stop.value.code == 0
    assert capsys.readouterr().out == GOLDEN_ORACLE


README_GHS_COMMAND = "hcconfl-bench --tiny tests/data/tiny1.txt --algo ghs --repeats 3 --zero-time"


def readme_output_of(command: str) -> str | None:
    """The stdout the README shows for ``command``: the block that follows
    the command's block at once (None if there is no such block)."""
    readme = (ROOT / "README.md").read_text()
    shown = re.search(re.escape(command) + r"\n```\n\n```\n(.*?)```", readme, re.S)
    return None if shown is None else shown.group(1)


def readme_uflp_text() -> str:
    """The UFLP file the README shows with the tiny instance's costs."""
    readme = (ROOT / "README.md").read_text()
    return re.search(r"this UFLP file in the classic layout.*?```\n(.*?)```", readme, re.S).group(1)


# the tiny fixture's graph with a self loop added; the Instance refuses it
SELF_LOOP_STP = STP_TEXT.replace("4 4\n", "4 5\n") + "2 2 1\n"


def test_readme_ghs_example_prints_what_the_readme_shows(capsys, monkeypatch):
    shown = readme_output_of(README_GHS_COMMAND)
    assert shown is not None
    monkeypatch.chdir(ROOT)
    code, out, _ = run(capsys, *README_GHS_COMMAND.split()[1:])
    assert code == 0
    assert out == shown


def test_max_open_reaches_ghs(capsys):
    # tiny1's optimum opens 2 facilities; a cap of 1 leaves the root alone
    argv = ("--tiny", str(TINY), "--algo", "ghs", "--repeats", "2", "--zero-time")
    for cap, opened in ((None, "2"), ("1", "1")):
        code, out, _ = run(capsys, *argv, *(("--max-open", cap) if cap else ()))
        assert code == 0
        assert [line.split(",")[-1] for line in out.splitlines()[1:]] == [opened] * 3


def test_repeats_emit_one_row_per_seed_plus_best(capsys):
    code, out, _ = run(
        capsys,
        "--tiny", str(TINY),
        "--algo", "ghs",
        "--seed", "5",
        "--repeats", "3",
        "--max-no-improve", "40",
        "--zero-time",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "instance,algo,hop,seed,obj,cpu_seconds,iterations,open_count"
    seeds = [line.split(",")[3] for line in lines[1:]]
    assert seeds == ["5", "6", "7", "best"]
    objs = {line.split(",")[4] for line in lines[1:]}
    assert objs == {"10.00"}


def test_zero_time_output_is_reproducible(capsys):
    argv = (
        "--tiny", str(TINY),
        "--algo", "ghs",
        "--seed", "2",
        "--repeats", "2",
        "--max-no-improve", "60",
        "--zero-time",
    )
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_unzeroed_output_matches_outside_cpu_column(capsys):
    argv = (
        "--tiny", str(TINY),
        "--algo", "hs",
        "--seed", "3",
        "--max-no-improve", "60",
    )
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)

    def strip_cpu(text):
        rows = [line.split(",") for line in text.strip().splitlines()]
        return [row[:5] + row[6:] for row in rows]

    assert strip_cpu(first) == strip_cpu(second)


def test_out_file_written(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys,
        "--tiny", str(TINY),
        "--algo", "oracle",
        "--zero-time",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == GOLDEN_ORACLE


def test_hop_override_changes_result(capsys):
    code, out, _ = run(
        capsys, "--tiny", str(TINY), "--algo", "oracle", "--hop", "1", "--zero-time"
    )
    assert code == 0
    assert "tiny1,oracle,1,1,14.00" in out


@pytest.fixture
def orlib_pair(tmp_path) -> tuple[str, str]:
    """The tiny fixture as an STP graph plus a classic UFLP cost file."""
    stp, uflp = tmp_path / "steinc5.txt", tmp_path / "capmp1.txt"
    stp.write_text(STP_TEXT)
    uflp.write_text(UFLP_BEASLEY)
    return str(stp), str(uflp)


def test_stp_uflp_pair_golden_csv(capsys, orlib_pair):
    stp, uflp = orlib_pair
    code, out, _ = run(
        capsys, "--stp", stp, "--uflp", uflp, "--hop", "2", "--algo", "ghs", "--zero-time"
    )
    assert code == 0
    assert out == (
        "instance,algo,hop,seed,obj,cpu_seconds,iterations,open_count\n"
        "C5mp1,ghs,2,1,10.00,0.000,0,2\n"
        "C5mp1,ghs,2,best,10.00,0.000,0,2\n"
    )


def test_a_self_loop_in_the_stp_file_exits_2_naming_it(capsys, tmp_path):
    stp, uflp = tmp_path / "loop.stp", tmp_path / "tiny.uflp"
    stp.write_text(SELF_LOOP_STP)
    uflp.write_text(readme_uflp_text())
    code, out, err = run(capsys, "--stp", str(stp), "--uflp", str(uflp), "--hop", "2")
    assert (code, out, err) == (2, "", "error: self loop on node 2\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--tiny", str(TINY), "--stp", "STP"), "--tiny cannot be combined"),
        (("--stp", "STP", "--uflp", "UFLP"), "--hop is required"),
        (("--stp", "STP", "--uflp", "UFLP", "--hop", "2", "--repeats", "0"), "--repeats"),
        (("--stp", "STP", "--uflp", "UFLP", "--hop", "0"), "--hop must be >= 1, got 0"),
    ],
)
def test_bad_input_combination_exits_2(capsys, orlib_pair, argv, message):
    stp, uflp = orlib_pair
    argv = [{"STP": stp, "UFLP": uflp}.get(arg, arg) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_missing_file_exits_nonzero(capsys):
    code, out, err = run(capsys, "--tiny", "no-such-file.txt")
    assert code == 2 and out == "" and "error:" in err


def test_incomplete_merge_arguments_exit_nonzero(capsys):
    code, _, err = run(capsys, "--stp", str(TINY))
    assert code == 2 and "error:" in err


def test_bad_instance_text_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("this is not an instance\n")
    code, _, err = run(capsys, "--tiny", str(bad))
    assert code == 2 and "error:" in err


def test_a_bad_solution_exits_2(capsys, monkeypatch):
    best = bench_cli.exact_solve(bench_cli.parse_tiny(TINY.read_text()))
    cases = [
        (
            Solution(frozenset({1}), None, {}, None),
            "error: tiny1: no feasible solution found\n",
        ),
        (
            dataclasses.replace(best, assignment={}),
            "error: tiny1: solution violates assignment-complete: "
            "customer 'a' is unassigned\n",
        ),
    ]
    for solution, message in cases:
        monkeypatch.setattr(bench_cli, "exact_solve", lambda instance: solution)
        code, out, err = run(capsys, "--tiny", str(TINY), "--algo", "oracle")
        assert (code, out, err) == (2, "", message)


# each bad value and the message it gets, which names the option as typed
BAD_VALUES = {
    ("--hms", "1"): "--hms must be >= 2, got 1",
    ("--algo", "hs", "--hmcr", "0"): "--hmcr must be in (0, 1], got 0.0",
    ("--max-no-improve", "0"): "--max-no-improve must be >= 1, got 0",
    ("--algo", "hybrid", "--top-k", "30"): "--top-k must be <= 24, got 30",
    ("--algo", "hybrid", "--top-k", "0"): "--top-k must be >= 1, got 0",
    ("--algo", "hybrid", "--samples", "-3"): "--samples must be >= 1, got -3",
    ("--max-open", "0"): "--max-open must be >= 1, got 0",
    ("--algo", "oracle", "--hop", "0"): "--hop must be >= 1, got 0",
    ("--algo", "hybrid", "--samples", "0"): "--samples must be >= 1, got 0",
    ("--hmcr", "0"): "--hmcr must be in (0, 1], got 0.0",
    ("--seed", "-1"): "--seed must be >= 0, got -1",
    ("--algo", "oracle", "--seed", "-1"): "--seed must be >= 0, got -1",
    ("--repeats", "0"): "--repeats must be >= 1, got 0",
}


@pytest.mark.parametrize("argv", list(BAD_VALUES))
def test_bad_parameter_value_exits_2(capsys, argv):
    code, out, err = run(capsys, "--tiny", str(TINY), *argv)
    assert code == 2 and out == ""
    assert err == f"error: {BAD_VALUES[argv]}\n"


@pytest.mark.parametrize(
    "algo, option, value",
    [
        ("hs", "--top-k", "5"),
        ("hs", "--max-open", "3"),
        ("ghs", "--samples", "10"),
        ("hybrid", "--max-open", "0"),
        ("hybrid", "--hmcr", "0.5"),
        ("oracle", "--hms", "7"),
    ],
)
def test_option_the_algorithm_never_reads_exits_2(capsys, algo, option, value):
    code, out, err = run(capsys, "--tiny", str(TINY), "--algo", algo, option, value)
    assert code == 2 and out == ""
    assert err == f"error: {option} does not apply to --algo {algo}\n"


def test_help_lists_every_algorithm_option_with_the_algos_that_read_it(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    section = out.split("\nalgorithm parameters:\n")[1]
    options = [option for option, *_ in bench_cli.PARAMS.values()]
    assert re.findall(r"^  (--[\w-]+)", section, re.M) == options
    flat = " ".join(section.split())
    for field, (option, _, algos, text) in bench_cli.PARAMS.items():
        entry = re.search(rf"{option} {field.upper()} (.*?)(?= --|$)", flat)
        assert entry is not None, option
        # argparse wraps the help, breaking lines at spaces and after hyphens
        shown = "".join(entry.group(1).split())
        assert shown == "".join(f"{text} ({', '.join(algos)})".split()), option


def test_instance_label_maps_benchmark_names():
    import argparse

    args = argparse.Namespace(
        name=None, tiny=None, stp=Path("steinc5.txt"), uflp=Path("capmp1.txt")
    )
    assert instance_label(args) == "C5mp1"
    args = argparse.Namespace(
        name=None, tiny=None, stp=Path("steind10.txt"), uflp=Path("capmq2.txt")
    )
    assert instance_label(args) == "D10mq2"
    args = argparse.Namespace(name="custom", tiny=None, stp=None, uflp=None)
    assert instance_label(args) == "custom"


def test_report_shape_scales_with_record_count(capsys):
    from hcconfl.bench_cli import CSV_HEADER, format_csv

    assert format_csv([]) == CSV_HEADER + "\n"
    code, out, _ = run(capsys, "--tiny", str(TINY), "--algo", "oracle", "--zero-time")
    assert code == 0
    assert len(out.splitlines()) == 3  # header + row + best


@pytest.mark.parametrize("label", ['C5, "mp1"', "C5\nmp1", "C5,mp1"])
def test_a_label_with_a_comma_quote_or_newline_stays_one_cell(capsys, label):
    code, out, _ = run(
        capsys, "--tiny", str(TINY), "--algo", "oracle", "--zero-time", "--name", label
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == bench_cli.CSV_HEADER.split(",")
    assert [len(row) for row in rows] == [8, 8, 8]
    assert [row[0] for row in rows[1:]] == [label, label]
    assert [row[1:] for row in rows[1:]] == [
        line.split(",")[1:] for line in GOLDEN_ORACLE.splitlines()[1:]
    ]


def test_format_csv_writes_its_rows_then_the_first_best_one():
    from hcconfl.bench_cli import CSV_HEADER, RunRow, format_csv

    rows = [
        RunRow("C5mp1", "ghs", 3, "4", 12.5, 0.25, 7, 3),
        RunRow("C5mp1", "ghs", 3, "5", 11.0, 0.5, 9, 4),
        RunRow("C5mp1", "ghs", 3, "6", 11.0, 0.75, 2, 5),  # ties seed 5
    ]
    assert format_csv(rows) == (
        CSV_HEADER + "\n"
        "C5mp1,ghs,3,4,12.50,0.250,7,3\n"
        "C5mp1,ghs,3,5,11.00,0.500,9,4\n"
        "C5mp1,ghs,3,6,11.00,0.750,2,5\n"
        "C5mp1,ghs,3,best,11.00,0.500,9,4\n"  # seed 5's other columns
    )
    assert format_csv([]) == CSV_HEADER + "\n"
