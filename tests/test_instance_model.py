import copy
import dataclasses
import math
import random
import re

import numpy as np
import pytest

from hcconfl import (
    HcstOracle,
    Instance,
    ParseError,
    hop_bellman_ford,
    merge_instances,
    nrbi,
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


def _with_fifth_edge(edge: str) -> str:
    """``STP_TEXT`` with ``edge`` as a fifth edge line."""
    return STP_TEXT.replace("4 4\n", "4 5\n", 1) + edge + "\n"


NEGATIVE_OPENING = UFLP_BEASLEY.replace("0 3.0", "0 -3.0")
NEGATIVE_ASSIGNMENT = UFLP_BEASLEY.replace("1 9.0 1.0", "1 9.0 -8.0")
FIVE_FACILITIES = "5 1\n" + "0 1.0\n" * 5 + "1 " + "2.0 " * 5 + "\n"

# STP and UFLP texts the readers read, and what the Instance that
# merge_instances builds refuses in them
MERGE_REFUSALS = [
    (_with_fifth_edge("5 1 2"), UFLP_BEASLEY, "edge (1,5) references unknown node"),
    (_with_fifth_edge("2 2 2"), UFLP_BEASLEY, "self loop on node 2"),
    (_with_fifth_edge("2 1 3"), UFLP_BEASLEY, "duplicate edge (1,2)"),
    (STP_TEXT.replace("3 4 1", "4 3 -1"), UFLP_BEASLEY, "edge (3,4) has invalid cost -1.0"),
    (STP_TEXT, NEGATIVE_OPENING, "facility 2 has invalid opening cost -3.0"),
    (STP_TEXT, NEGATIVE_ASSIGNMENT, "assignment (2, 'c1') has invalid cost -8.0"),
    (STP_TEXT, FIVE_FACILITIES, "facility 5 is not a core node"),
]


@pytest.mark.parametrize(
    "stp, uflp, message", MERGE_REFUSALS, ids=[message for *_, message in MERGE_REFUSALS]
)
def test_merge_refuses_what_the_instance_refuses(stp, uflp, message):
    graph, costs = parse_stp(stp), parse_uflp(uflp)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as refused:
        merge_instances(graph, costs, hop_limit=2)
    assert refused.type is ValueError  # not a ParseError: the text was read


def test_readers_return_what_they_read_unchecked():
    # the readers check only that they can read the text; Instance checks
    # what it says
    graph = parse_stp("4 4\n2 2 2\n5 1 -1\n2 1 3\n1 2 3\n")
    assert graph.edges == ((1, 2, 3.0), (1, 2, 3.0), (1, 5, -1.0), (2, 2, 2.0))
    assert parse_uflp(NEGATIVE_OPENING).opening == (1.0, -3.0, 2.0)
    assert parse_uflp(NEGATIVE_ASSIGNMENT).costs[1, 0] == -8.0
    assert parse_uflp(FIVE_FACILITIES).num_facilities == 5


def test_parse_stp_rejects_trailing_garbage():
    with pytest.raises(ParseError, match="trailing"):
        parse_stp(STP_TEXT + "2\n1\n3\n7\n")
    with pytest.raises(ParseError, match="terminal"):
        parse_stp(STP_TEXT + "1\nwhat\n")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_stp, "4 4\n1 2 2\n", "unexpected end of file while reading edge endpoint"),
        (parse_uflp, "", "unexpected end of file while reading facility count"),
        (parse_stp, "4 1\n1 2 x\n", "line 2: expected number edge cost, got 'x'"),
        # lines end as str.splitlines() ends them
        (parse_stp, "4 1\r1 2\x0bx\r\n", "line 3: expected number edge cost, got 'x'"),
        (
            parse_uflp,
            UFLP_UFLLIB.replace("9.0", "nine"),
            "line 3: expected number assignment cost, got 'nine'",
        ),
        (parse_stp, "4 1\n1 2\ninf\n", "line 3: non-finite edge cost"),
        (parse_uflp, UFLP_BEASLEY.replace("3.0", "nan"), "line 3: non-finite opening cost"),
        (parse_stp, "0 0\n", "line 1: node count must be >= 1, got 0"),
        # a count is refused at its own token, before the next one is read
        (parse_stp, "0\n\n0\n", "line 1: node count must be >= 1, got 0"),
        (parse_stp, "1 -5\n", "line 1: edge count must be >= 0, got -5"),
        (parse_stp, "2 -2\n1 2 3\n", "line 1: edge count must be >= 0, got -2"),
        (parse_stp, STP_TEXT + "-3\n", "line 6: terminal count must be >= 0, got -3"),
        (parse_stp, STP_TEXT + "-1\n2\n", "line 6: terminal count must be >= 0, got -1"),
        (parse_stp, STP_TEXT + "1\n9\n", "line 7: terminal 9 out of range"),
        (parse_stp, STP_TEXT + "2\n1 0\n", "line 7: terminal 0 out of range"),
        (parse_stp, STP_TEXT + "1\nwhat\n", "line 7: expected integer terminal id, got 'what'"),
        (parse_stp, STP_TEXT + "1\n3 4\n", "line 7: trailing token '4'"),
        (parse_uflp, "0 2\n", "line 1: facility count must be >= 1, got 0"),
        (parse_uflp, "3 -2\n", "line 1: customer count must be >= 0, got -2"),
        # each count at its own line, after blank and FILE: lines
        (parse_uflp, "\nFILE: x\n\n3\n-1 0\n", "line 5: customer count must be >= 0, got -1"),
        (parse_uflp, UFLP_BEASLEY + "5\n", "line 7: trailing token '5'"),
        (parse_uflp, UFLP_UFLLIB + "\n\n x\n", "line 8: trailing token 'x'"),
        (
            parse_uflp,
            UFLP_UFLLIB.replace("\n2 3.0", "\n9 3.0"),
            "line 4: expected facility 2, got 9",
        ),
    ],
)
def test_reader_error_messages(parse, text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse(text)


def test_parse_uflp_both_layouts_agree():
    a = parse_uflp(UFLP_BEASLEY)
    b = parse_uflp(UFLP_UFLLIB)
    assert a.opening == b.opening == (1.0, 3.0, 2.0)
    assert np.array_equal(a.costs, b.costs)
    assert a.costs.shape == (3, 2)
    # columns are customers: first customer costs 9/1/4
    assert list(a.costs[:, 0]) == [9.0, 1.0, 4.0]


def test_parse_uflp_rejects_bad_facility_index():
    with pytest.raises(ParseError):
        parse_uflp(UFLP_UFLLIB.replace("\n2 3.0", "\n9 3.0"))


def test_merge_instances_matches_tiny_fixture(tiny1):
    merged = merge_instances(parse_stp(STP_TEXT), parse_uflp(UFLP_BEASLEY), hop_limit=2)
    assert merged.facilities == (1, 2, 3)
    assert merged.root == 1
    assert merged.customers == ("c1", "c2")
    assert merged.opening_costs == {1: 1.0, 2: 3.0, 3: 2.0}
    assert list(merged.opening_cost_array) == [1.0, 3.0, 2.0]
    assert not merged.opening_cost_array.flags.writeable
    assert np.array_equal(merged.assignment_costs, tiny1.assignment_costs)
    assert merged.core_edges == tiny1.core_edges


def test_merge_ignores_stp_terminals():
    # terminals 4 and 3 play no part: facilities are nodes 1..m, root 1
    with_terminals = parse_stp(STP_TEXT + "2\n4\n3\n")
    merged = merge_instances(with_terminals, parse_uflp(UFLP_BEASLEY), hop_limit=2)
    assert merged.facilities == (1, 2, 3)
    assert merged.root == 1
    assert merged == merge_instances(
        parse_stp(STP_TEXT), parse_uflp(UFLP_BEASLEY), hop_limit=2
    )


def test_merge_rejects_too_many_facilities():
    uflp = parse_uflp(FIVE_FACILITIES)
    with pytest.raises(ValueError, match="^facility 5 is not a core node$"):
        merge_instances(parse_stp(STP_TEXT), uflp, hop_limit=2)


def test_merge_rejects_a_fractional_hop_limit():
    with pytest.raises(ValueError, match=r"^hop_limit must be an integer, got 2\.5$"):
        merge_instances(parse_stp(STP_TEXT), parse_uflp(UFLP_BEASLEY), hop_limit=2.5)


def test_parse_tiny_fixture(tiny1):
    assert tiny1.num_nodes == 4
    assert tiny1.facilities == (1, 2, 3)
    assert tiny1.root == 1
    assert tiny1.customers == ("a", "b")
    assert tiny1.hop_limit == 2
    assert tiny1.assignment_cost(2, "a") == 1.0
    assert tiny1.edge_cost(4, 3) == 1.0


PARSE_TINY_ERRORS = [
    ("e 1 2 2", "e 1 2 2\ne 2 1 2", ParseError, "line 3: duplicate edge (2,1)"),
    ("f 2 3", "f 5 3", ParseError, "missing assignment cost for (5, 'a')"),
    ("a 3 b 1", "", ParseError, "missing assignment cost for (3, 'b')"),
    ("4 3 2 2 1", "4 3 2 0 1", ValueError, "hop_limit must be >= 1, got 0"),
    ("4 3 2 2 1", "4 3 2 2 4", ValueError, "root 4 is not a facility"),
    ("4 3 2 2 1", "4 3 2 2", ParseError, "line 1: header needs 5 fields"),
    ("e 1 4 1", "e 1 4", ParseError, "line 3: edge line needs 'e u v cost'"),
    ("e 1 4 1", "e 1 x 1", ParseError, "line 3: bad edge line"),
    ("f 2 3", "f 2", ParseError, "line 7: facility line needs 'f id cost'"),
    ("f 2 3", "f 2 x", ParseError, "line 7: bad facility line"),
    ("a 2 a 1", "a 2 a", ParseError, "line 11: assignment line needs 'a facility customer cost'"),
    ("a 2 a 1", "a 2 a one", ParseError, "line 11: bad assignment line"),
    ("f 3 2", "f 3 2\nf 2 5", ParseError, "line 9: duplicate facility 2"),
    ("a 3 b 1", "a 3 b 1\na 3 b 2", ParseError, "line 15: duplicate assignment (3,b)"),
    ("e 1 2 2", "x 1 2 2", ParseError, "line 2: unknown record type 'x'"),
    (None, "\n  \n", ParseError, "line 1: empty file"),
    ("4 3 2 2 1", "4 4 2 2 1", ParseError, "header declares 4 facilities, file has 3"),
    ("4 3 2 2 1", "4 3 3 2 1", ParseError, "header declares 3 customers, file has 2"),
    ("a 3 b 1", "a 3 b 1\na 4 a 1", ParseError, "assignment for unknown pair (4, 'a')"),
]


@pytest.mark.parametrize(
    "needle, replacement, error, message",
    PARSE_TINY_ERRORS,
    ids=[f"{needle}-{replacement}" for needle, replacement, *_ in PARSE_TINY_ERRORS],
)
def test_parse_tiny_rejects_bad_input(tiny1_text, needle, replacement, error, message):
    text = replacement if needle is None else tiny1_text.replace(needle, replacement)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as refused:
        parse_tiny(text)
    # ParseError for text the reader cannot read; the Instance's own
    # ValueError, unwrapped, for what it refuses
    assert refused.type is error


def test_parse_tiny_without_customers_or_facilities():
    header_only = "4 3 0 2 1\ne 1 2 2\ne 1 4 1\ne 2 3 5\ne 3 4 1\n"
    inst = parse_tiny(header_only + "f 1 1\nf 2 3\nf 3 2\n")
    assert inst.customers == ()
    assert inst.assignment_costs.shape == (3, 0)
    with pytest.raises(ValueError, match="^root 1 is not a facility$") as refused:
        parse_tiny(header_only.replace("4 3 0 2 1", "4 0 0 2 1"))
    assert refused.type is ValueError


def _one_facility_graph(num_nodes, edges) -> Instance:
    """The instance on ``edges`` (cost 1 each) with node 1 its only facility."""
    return Instance(
        name="x",
        num_nodes=num_nodes,
        core_edges=tuple((u, v, 1.0) for u, v in edges),
        facilities=(1,),
        root=1,
        customers=(),
        opening_costs={1: 0.0},
        assignment_costs=np.zeros((1, 0)),
        hop_limit=1,
    )


def test_instance_requires_connected_core():
    with pytest.raises(ValueError, match="disconnected"):
        _one_facility_graph(3, ((1, 2),))


@pytest.mark.parametrize(
    "num_nodes, edges, missing",
    [
        (4, ((2, 3), (3, 4)), 2),
        (6, ((1, 2), (3, 4), (5, 6)), 3),
        (6, ((1, 6), (2, 5), (3, 4)), 2),
        (5, ((1, 2), (1, 3), (4, 5)), 4),
        # the last edge joins node 1's component to 4's, not to 2's
        (5, ((2, 3), (4, 5), (1, 4)), 2),
    ],
)
def test_disconnected_core_names_its_smallest_unreachable_node(num_nodes, edges, missing):
    message = f"core graph is disconnected (node {missing} unreachable)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _one_facility_graph(num_nodes, edges)


def test_connectivity_matches_a_graph_search():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 8)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        reached, frontier = {1}, [1]
        while frontier:
            x = frontier.pop()
            for u, v in edges:
                for a, b in ((u, v), (v, u)):
                    if a == x and b not in reached:
                        reached.add(b)
                        frontier.append(b)
        unreachable = sorted(set(range(1, n + 1)) - reached)
        if unreachable:
            with pytest.raises(ValueError, match=f"node {unreachable[0]} unreachable"):
                _one_facility_graph(n, edges)
        else:
            assert _one_facility_graph(n, edges).num_nodes == n


EDGES = ((1, 2, 2.0), (1, 4, 1.0), (2, 3, 5.0), (3, 4, 1.0))
OPENING = {1: 1.0, 2: 3.0, 3: 2.0}


def _instance_kwargs(**changes) -> dict:
    """Keyword arguments of the tiny fixture's instance, with ``changes``."""
    kwargs = dict(
        name="x",
        num_nodes=4,
        core_edges=EDGES,
        facilities=(1, 2, 3),
        root=1,
        customers=("a", "b"),
        opening_costs=OPENING,
        assignment_costs=np.array([[9.0, 8.0], [1.0, 7.0], [4.0, 1.0]]),
        hop_limit=2,
    )
    kwargs.update(changes)
    return kwargs


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"num_nodes": 0}, "num_nodes must be >= 1, got 0"),
        ({"hop_limit": 0}, "hop_limit must be >= 1, got 0"),
        ({"facilities": (1, 2, 2)}, "duplicate facility ids"),
        ({"facilities": (1, 2, 5)}, "facility 5 is not a core node"),
        ({"facilities": (0, 1, 2)}, "facility 0 is not a core node"),
        ({"facilities": (1, 2.5, 3)}, "facility 2.5 is not a core node"),
        ({"root": 4}, "root 4 is not a facility"),
        ({"customers": ("a", "a")}, "duplicate customer ids"),
        ({"core_edges": EDGES + ((1, 5, 1.0),)}, "edge (1,5) references unknown node"),
        ({"core_edges": EDGES + ((0, 2, 1.0),)}, "edge (0,2) references unknown node"),
        ({"core_edges": EDGES + ((2, 2, 1.0),)}, "self loop on node 2"),
        ({"core_edges": EDGES + ((3, 1, 1.0),)}, "edge (3,1) not in canonical order"),
        ({"core_edges": EDGES + ((1, 2, 3.0),)}, "duplicate edge (1,2)"),
        ({"core_edges": ((1, 2, -1.0),) + EDGES[1:]}, "edge (1,2) has invalid cost -1.0"),
        ({"core_edges": ((1, 2, math.nan),) + EDGES[1:]}, "edge (1,2) has invalid cost nan"),
        ({"opening_costs": {1: 1.0, 2: 3.0}}, "opening costs must cover exactly the facilities"),
        ({"opening_costs": {**OPENING, 4: 0.0}}, "opening costs must cover exactly the facilities"),
        ({"opening_costs": {**OPENING, 2: math.inf}}, "facility 2 has invalid opening cost inf"),
        ({"opening_costs": {**OPENING, 2: -3.0}}, "facility 2 has invalid opening cost -3.0"),
        (
            {"assignment_costs": np.zeros((3, 1))},
            "assignment matrix shape (3, 1) does not match 3 facilities x 2 customers",
        ),
        ({"assignment_costs": np.full((3, 2), -1.0)}, "assignment (1, 'a') has invalid cost -1.0"),
        ({"assignment_costs": np.full((3, 2), np.nan)}, "assignment (1, 'a') has invalid cost nan"),
        ({"core_edges": EDGES + ((1, 2.5, 1.0),)}, "edge (1,2.5) references unknown node"),
        ({"hop_limit": 2.5}, "hop_limit must be an integer, got 2.5"),
        ({"hop_limit": 2.0}, "hop_limit must be an integer, got 2.0"),
        ({"hop_limit": True}, "hop_limit must be an integer, got True"),
        ({"num_nodes": 4.0}, "num_nodes must be an integer, got 4.0"),
        # ids equal to a core node but not integers: 2.0 == 2 and True == 1
        ({"facilities": (1, 2.0, 3)}, "facility 2.0 is not a core node"),
        ({"facilities": (True, 2, 3)}, "facility True is not a core node"),
        ({"root": True}, "root True is not a core node"),
        ({"root": 1.0}, "root 1.0 is not a core node"),
        ({"core_edges": EDGES + ((1, 3.0, 1.0),)}, "edge (1,3.0) references unknown node"),
        ({"core_edges": EDGES + ((True, 3, 1.0),)}, "edge (True,3) references unknown node"),
        ({"facilities": (1, 3, 2)}, "facilities must be listed in ascending id order"),
        # the id order is checked after the ids themselves
        ({"facilities": (3, 1, 5)}, "facility 5 is not a core node"),
        # a cost is a real number: a string or a bool is not one
        ({"core_edges": ((1, 2, "x"),) + EDGES[1:]}, "edge (1,2) has invalid cost x"),
        ({"core_edges": ((1, 2, True),) + EDGES[1:]}, "edge (1,2) has invalid cost True"),
        ({"opening_costs": {**OPENING, 1: "x"}}, "facility 1 has invalid opening cost x"),
        ({"opening_costs": {**OPENING, 2: True}}, "facility 2 has invalid opening cost True"),
    ],
)
def test_instance_rejects_bad_input(changes, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Instance(**_instance_kwargs(**changes))


def test_facilities_are_listed_in_id_order(tiny1, tiny1_text):
    message = "^facilities must be listed in ascending id order$"
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(
            tiny1, facilities=tiny1.facilities[::-1], assignment_costs=tiny1.assignment_costs[::-1]
        )
    # parse_tiny sorts the facility records it reads
    f_lines = "\n".join(line for line in tiny1_text.splitlines() if line.startswith("f "))
    descending = tiny1_text.replace(f_lines, "\n".join(reversed(f_lines.splitlines())))
    assert "f 3 2\nf 2 3\nf 1 1" in descending
    assert parse_tiny(descending, name="tiny1") == tiny1
    merged = merge_instances(parse_stp(STP_TEXT), parse_uflp(UFLP_UFLLIB), hop_limit=2)
    assert list(merged.facilities) == sorted(merged.facilities)


def test_instance_takes_numpy_integer_ids():
    inst = Instance(
        **_instance_kwargs(
            facilities=(np.int64(1), np.int32(2), 3),
            root=np.int16(1),
            core_edges=((np.int64(1), np.int64(2), 2.0),) + EDGES[1:],
        )
    )
    assert inst == Instance(**_instance_kwargs())


@pytest.mark.parametrize("node", [7, 0, 2.0, True])
@pytest.mark.parametrize(
    "entry, what",
    [
        (lambda inst, v: nrbi(inst, [v]), "required node"),
        (lambda inst, v: HcstOracle(inst).solve([v]), "required node"),
        (hop_bellman_ford, "source"),
    ],
    ids=["nrbi", "HcstOracle.solve", "hop_bellman_ford"],
)
def test_solver_entry_points_take_only_core_nodes(tiny1, entry, what, node):
    # tiny1 has nodes 1..4; 2.0 and True would pass for nodes 2 and 1
    with pytest.raises(ValueError, match=f"^{re.escape(f'{what} {node} is not a core node')}$"):
        entry(tiny1, node)


@pytest.mark.parametrize("derived", ["facility_index", "customer_index"])
def test_instance_takes_no_derived_arguments(derived):
    with pytest.raises(TypeError, match=derived):
        Instance(**_instance_kwargs(**{derived: {}}))


def test_derived_views():
    inst = Instance(**_instance_kwargs())
    # built on first use: construction builds none of them
    views = {"facility_index", "customer_index", "edge_costs", "arcs", "opening_cost_array"}
    assert not views & set(vars(inst))
    assert inst.facility_index == {1: 0, 2: 1, 3: 2}
    assert inst.customer_index == {"a": 0, "b": 1}
    assert inst.edge_costs == {(1, 2): 2.0, (1, 4): 1.0, (2, 3): 5.0, (3, 4): 1.0}
    assert inst.has_edge(4, 1) and not inst.has_edge(1, 3)
    src, dst, cost = inst.arcs
    assert src.tolist() == [1, 1, 2, 3, 2, 4, 3, 4]
    assert dst.tolist() == [2, 4, 3, 4, 1, 1, 2, 3]
    assert cost.tolist() == [2.0, 1.0, 5.0, 1.0, 2.0, 1.0, 5.0, 1.0]
    assert not any(arr.flags.writeable for arr in inst.arcs)
    # replace() builds the views afresh for the new instance
    one_hop = dataclasses.replace(inst, hop_limit=1, customers=("b", "a"))
    assert one_hop.customer_index == {"b": 0, "a": 1}


# each field of the instance, and a value that differs from the fixture's
OTHER_FIELD_VALUES = {
    "name": "y",
    "num_nodes": 5,
    "core_edges": EDGES[:-1] + ((3, 4, 2.0),),
    "facilities": (1, 2, 4),
    "root": 2,
    "customers": ("a", "c"),
    "opening_costs": {**OPENING, 3: 2.5},
    "assignment_costs": np.array([[9.0, 8.0], [1.0, 7.0], [4.0, 2.0]]),
    "hop_limit": 3,
}


def test_instance_equals_a_copy_of_itself():
    inst = Instance(**_instance_kwargs())
    assert inst == Instance(**_instance_kwargs()) == copy.deepcopy(inst)
    inst.facility_index, inst.arcs  # built views take no part
    assert inst == Instance(**_instance_kwargs())
    assert inst != _instance_kwargs() and inst != "x"
    with pytest.raises(TypeError, match="unhashable"):
        hash(inst)


@pytest.mark.parametrize("name", list(OTHER_FIELD_VALUES))
def test_instance_differs_when_one_field_does(name):
    assert set(OTHER_FIELD_VALUES) == {f.name for f in dataclasses.fields(Instance)}
    inst = Instance(**_instance_kwargs())
    other = copy.copy(inst)
    # set without the checks: num_nodes alone, say, cannot change validly
    object.__setattr__(other, name, OTHER_FIELD_VALUES[name])
    assert inst != other and other != inst
    object.__setattr__(other, name, getattr(inst, name))
    assert inst == other


def test_replace_builds_the_indexes_over_the_new_ids():
    inst = Instance(**_instance_kwargs())
    assert inst.facility_index == {1: 0, 2: 1, 3: 2}
    fewer = dataclasses.replace(
        inst,
        facilities=(1, 3),
        opening_costs={1: 1.0, 3: 2.0},
        assignment_costs=inst.assignment_costs[[0, 2]],
    )
    assert fewer.facility_index == {1: 0, 3: 1}
    assert fewer.assignment_cost(3, "b") == 1.0
    assert inst.facility_index == {1: 0, 2: 1, 3: 2}


def test_instance_repr_shows_its_fields_alone():
    inst = Instance(**_instance_kwargs())
    inst.facility_index, inst.customer_index, inst.edge_costs  # built views are not shown
    shown = ", ".join(f"{f.name}={getattr(inst, f.name)!r}" for f in dataclasses.fields(inst))
    assert repr(inst) == f"Instance({shown})"
    assert repr(inst).startswith("Instance(name='x', num_nodes=4, core_edges=((1, 2, 2.0), ")


def test_assignment_matrix_is_write_locked(tiny1):
    with pytest.raises(ValueError):
        tiny1.assignment_costs[0, 0] = 99.0


def _non_integer_costs(rng, inst):
    """``inst`` with every cost drawn from 2.5, 0.1 + 0.2 (inexact in binary) and 7."""

    def cost():
        return rng.choice((2.5, 0.1 + 0.2, 7.0))

    return dataclasses.replace(
        inst,
        core_edges=tuple((u, v, cost()) for u, v, _ in inst.core_edges),
        opening_costs={f: cost() for f in inst.facilities},
        assignment_costs=np.array([[cost() for _ in inst.customers] for _ in inst.facilities]),
    )


def test_serialize_tiny_round_trip():
    rng = random.Random(4242)
    cases = [random_tiny_instance(rng) for _ in range(50)]
    cases += [_non_integer_costs(rng, inst) for inst in cases[:10]]
    for inst in cases:
        again = parse_tiny(serialize_tiny(inst), name=inst.name)
        assert again == inst
        # an instance never equals its text
        assert inst != serialize_tiny(inst)
        # canonical form is a fixed point
        assert serialize_tiny(again) == serialize_tiny(inst)


def test_serialize_tiny_fixture_is_canonical(tiny1, tiny1_text):
    assert serialize_tiny(tiny1) == tiny1_text
