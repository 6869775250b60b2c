import re
from pathlib import Path

import pytest

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


def test_readme_ghs_example_prints_what_the_readme_shows(capsys, monkeypatch):
    command = "hcconfl-bench --tiny tests/data/tiny1.txt --algo ghs --repeats 3 --zero-time"
    readme = (ROOT / "README.md").read_text()
    # the command's block is followed at once by the block of its stdout
    shown = re.search(re.escape(command) + r"\n```\n\n```\n(.*?)```", readme, re.S)
    assert shown is not None
    monkeypatch.chdir(ROOT)
    code, out, _ = run(capsys, *command.split()[1:])
    assert code == 0
    assert out == shown.group(1)


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--tiny", str(TINY), "--stp", "STP"), "--tiny cannot be combined"),
        (("--stp", "STP", "--uflp", "UFLP"), "--hop is required"),
        (("--stp", "STP", "--uflp", "UFLP", "--hop", "2", "--repeats", "0"), "--repeats"),
        (("--stp", "STP", "--uflp", "UFLP", "--hop", "0"), "hop limit must be >= 1, got 0"),
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


@pytest.mark.parametrize(
    "argv",
    [
        ("--hms", "1"),
        ("--algo", "hs", "--hmcr", "0"),
        ("--max-no-improve", "0"),
        ("--algo", "hybrid", "--top-k", "30"),
        ("--algo", "hybrid", "--top-k", "0"),
        ("--algo", "hybrid", "--samples", "-3"),
        ("--max-open", "0"),
        ("--algo", "oracle", "--hop", "0"),
    ],
)
def test_bad_parameter_value_exits_2(capsys, argv):
    code, out, err = run(capsys, "--tiny", str(TINY), *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


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
