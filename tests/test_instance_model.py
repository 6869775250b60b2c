import random

import numpy as np
import pytest

from hcconfl import (
    Instance,
    MergeError,
    ParseError,
    merge_instances,
    parse_stp,
    parse_tiny,
    parse_uflp,
    serialize_tiny,
)

from corpus_util import random_tiny_instance

STP_TEXT = """\
4 4
1 2 2
1 4 1
2 3 5
3 4 1
"""

UFLP_BEASLEY = """\
3 2
0 1.0
0 3.0
0 2.0
1 9.0 1.0 4.0
1 8.0 7.0 1.0
"""

UFLP_UFLLIB = """\
FILE: tiny.txt
3 2 0
1 1.0 9.0 8.0
2 3.0 1.0 7.0
3 2.0 4.0 1.0
"""


def test_parse_stp_basic():
    graph = parse_stp(STP_TEXT)
    assert graph.num_nodes == 4
    assert graph.edges == ((1, 2, 2.0), (1, 4, 1.0), (2, 3, 5.0), (3, 4, 1.0))


def test_parse_stp_with_terminal_section():
    graph = parse_stp(STP_TEXT + "2\n1\n3\n")
    assert graph.num_nodes == 4
    assert len(graph.edges) == 4


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ("1 5 2", "out of node range"),
        ("2 2 2", "self loop"),
        ("1 2 -1", "negative edge cost"),
        ("2 1 3", "duplicate edge"),
    ],
)
def test_parse_stp_rejects_bad_edges(mutation, fragment):
    text = "4 5\n1 2 2\n1 4 1\n2 3 5\n3 4 1\n" + mutation + "\n"
    with pytest.raises(ParseError, match=fragment):
        parse_stp(text)


def test_parse_stp_rejects_trailing_garbage():
    with pytest.raises(ParseError, match="trailing"):
        parse_stp(STP_TEXT + "2\n1\n3\n7\n")
    with pytest.raises(ParseError, match="terminal"):
        parse_stp(STP_TEXT + "1\nwhat\n")


def test_parse_uflp_both_layouts_agree():
    a = parse_uflp(UFLP_BEASLEY)
    b = parse_uflp(UFLP_UFLLIB)
    assert a.opening == b.opening == (1.0, 3.0, 2.0)
    assert np.array_equal(a.costs, b.costs)
    assert a.costs.shape == (3, 2)
    # columns are customers: first customer costs 9/1/4
    assert list(a.costs[:, 0]) == [9.0, 1.0, 4.0]


def test_parse_uflp_rejects_negative_cost():
    with pytest.raises(ParseError):
        parse_uflp(UFLP_BEASLEY.replace("7.0", "-7.0"))


def test_parse_uflp_rejects_bad_facility_index():
    with pytest.raises(ParseError):
        parse_uflp(UFLP_UFLLIB.replace("\n2 3.0", "\n9 3.0"))


def test_merge_instances_matches_tiny_fixture(tiny1):
    merged = merge_instances(parse_stp(STP_TEXT), parse_uflp(UFLP_BEASLEY), hop_limit=2)
    assert merged.facilities == (1, 2, 3)
    assert merged.root == 1
    assert merged.customers == ("c1", "c2")
    assert merged.opening_costs == {1: 1.0, 2: 3.0, 3: 2.0}
    assert list(merged.opening_cost_array()) == [1.0, 3.0, 2.0]
    assert not merged.opening_cost_array().flags.writeable
    assert np.array_equal(merged.assignment_costs, tiny1.assignment_costs)
    assert merged.core_edges == tiny1.core_edges


def test_merge_rejects_too_many_facilities():
    uflp = parse_uflp("5 1\n" + "0 1.0\n" * 5 + "1 " + "2.0 " * 5 + "\n")
    with pytest.raises(MergeError):
        merge_instances(parse_stp(STP_TEXT), uflp, hop_limit=2)


def test_parse_tiny_fixture(tiny1):
    assert tiny1.num_nodes == 4
    assert tiny1.facilities == (1, 2, 3)
    assert tiny1.root == 1
    assert tiny1.customers == ("a", "b")
    assert tiny1.hop_limit == 2
    assert tiny1.assignment_cost(2, "a") == 1.0
    assert tiny1.edge_cost(4, 3) == 1.0
    assert tiny1.neighbors(1) == [(2, 2.0), (4, 1.0)]


@pytest.mark.parametrize(
    "needle, replacement",
    [
        ("e 1 2 2", "e 1 2 2\ne 2 1 2"),  # duplicate edge
        ("f 2 3", "f 5 3"),  # facility outside the core graph
        ("a 3 b 1", ""),  # missing assignment pair
        ("4 3 2 2 1", "4 3 2 0 1"),  # hop limit below 1
        ("4 3 2 2 1", "4 3 2 2 4"),  # root is not a facility
    ],
)
def test_parse_tiny_rejects_bad_input(tiny1_text, needle, replacement):
    with pytest.raises(ParseError):
        parse_tiny(tiny1_text.replace(needle, replacement))


def test_instance_requires_connected_core():
    with pytest.raises(ValueError, match="disconnected"):
        Instance(
            name="x",
            num_nodes=3,
            core_edges=((1, 2, 1.0),),
            facilities=(1,),
            root=1,
            customers=(),
            opening_costs={1: 0.0},
            assignment_costs=np.zeros((1, 0)),
            hop_limit=1,
        )


def test_assignment_matrix_is_write_locked(tiny1):
    with pytest.raises(ValueError):
        tiny1.assignment_costs[0, 0] = 99.0


def test_serialize_tiny_round_trip():
    rng = random.Random(4242)
    for _ in range(50):
        inst = random_tiny_instance(rng)
        again = parse_tiny(serialize_tiny(inst), name=inst.name)
        assert again == inst
        # canonical form is a fixed point
        assert serialize_tiny(again) == serialize_tiny(inst)


def test_serialize_tiny_fixture_is_canonical(tiny1, tiny1_text):
    assert serialize_tiny(tiny1) == tiny1_text
