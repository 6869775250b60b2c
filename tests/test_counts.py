"""Every count of the package is checked by one rule, with one message shape.

A count is an integer (a NumPy integer is one; a bool or a float is not) at
or above its floor.  ValueError says ``<name> must be an integer, got
<value!r>`` or ``<name> must be >= <floor>, got <value>``.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from hcconfl import GreedyParams, HarmonyParams, Instance, ghs_solve, greedy_close
from hcconfl.bench_cli import main
from hcconfl.harmony_core import seeded_rng

from test_instance_model import _instance_kwargs

TINY = Path(__file__).parent / "data" / "tiny1.txt"


def _instance(**changes) -> Instance:
    return Instance(**_instance_kwargs(**changes))


# each count: its floor, a value that passes, and the call that checks it
COUNTS = {
    "num_nodes": (1, 4, lambda v: _instance(num_nodes=v)),
    "hop_limit": (1, 2, lambda v: _instance(hop_limit=v)),
    "hms": (2, 3, lambda v: HarmonyParams(hms=v)),
    "max_no_improve": (1, 5, lambda v: HarmonyParams(max_no_improve=v)),
    "seed": (0, 3, seeded_rng),
    "top_k": (1, 5, lambda v: GreedyParams(top_k=v)),
    "sample_count": (1, 10, lambda v: GreedyParams(sample_count=v)),
    "max_open": (1, 2, lambda v: greedy_close(_instance(), {1, 2, 3}, max_open=v)),
    "max_open in ghs_solve": (1, 2, lambda v: ghs_solve(_instance(), max_open=v)),
}

CASES = [
    (count, value, message)
    for count, (floor, _, _) in COUNTS.items()
    for value, message in (
        (floor + 0.5, f"must be an integer, got {floor + 0.5}"),
        (True, "must be an integer, got True"),
        (floor - 1, f"must be >= {floor}, got {floor - 1}"),
    )
]


@pytest.mark.parametrize("count, value, message", CASES)
def test_a_count_below_its_floor_or_not_an_integer_is_refused(count, value, message):
    floor, _, call = COUNTS[count]
    name = count.split()[0]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {message}')}$"):
        call(value)


@pytest.mark.parametrize("count", sorted(COUNTS))
def test_a_numpy_integer_is_a_count(count):
    _, valid, call = COUNTS[count]
    call(np.int64(valid))
    call(np.int32(valid))


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--repeats", "0", "--repeats must be >= 1, got 0"),
        ("--hop", "0", "--hop must be >= 1, got 0"),
        ("--seed", "-1", "--seed must be >= 0, got -1"),
    ],
)
def test_a_cli_count_below_its_floor_exits_2(capsys, option, value, message):
    # argparse refuses a value that is no integer before the count rule runs
    assert main(["--tiny", str(TINY), option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
