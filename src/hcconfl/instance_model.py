"""Problem instances: parsing, merging and the immutable instance container.

An instance couples three ingredients:

* a weighted undirected core graph over nodes ``1..num_nodes``,
* a set of candidate facilities (a subset of the core nodes) with opening
  costs, one of which is the designated root,
* a set of customers, living in their own id space (strings), with a complete
  facility x customer assignment cost matrix.

Supported input formats:

* ``parse_stp``  - OR-Library Steiner tree files (graph only),
* ``parse_uflp`` - OR-Library / UflLib facility location files (costs only),
* ``parse_tiny`` - a small self-describing text format used for fixtures,
* ``merge_instances`` - combine an STP graph with UFLP cost data.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np


class ParseError(ValueError):
    """Raised for malformed input files; message includes a line number."""


class MergeError(ValueError):
    """Raised when an STP graph and UFLP cost data cannot be combined."""


def canon_edge(u: int, v: int) -> tuple[int, int]:
    """The edge {u, v} as ``(smaller id, larger id)``."""
    return (u, v) if u < v else (v, u)


def _is_integer(value: object) -> bool:
    """Whether ``value`` is an integer: NumPy integers are, bools are not.

    Floats are not either, 2.0 included.  This is the rule for the
    instance's counts and node ids, and, through ``Instance.core_nodes``,
    for the node ids the solvers take.
    """
    if type(value) is int:  # the usual case, and the cheapest test
        return True
    if isinstance(value, bool):  # operator.index takes Python bools
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def _check_integers(**values: object) -> None:
    """ValueError naming the first of ``values`` that is no integer."""
    for name, value in values.items():
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True, eq=False)
class Instance:
    """Immutable problem instance.

    ``assignment_costs`` is a dense float64 matrix with one row per facility
    (in ``facilities`` order) and one column per customer (in ``customers``
    order).  Arrays are frozen after construction.

    Derived views are never passed in.  ``facility_index`` and
    ``customer_index`` (id -> row/column) are set at construction.
    ``edge_costs``, ``arcs`` and ``opening_cost_array`` are built on first
    use and kept; construction builds none of them.
    """

    name: str
    num_nodes: int
    core_edges: tuple[tuple[int, int, float], ...]  # (u, v, cost), u < v
    facilities: tuple[int, ...]
    root: int
    customers: tuple[str, ...]
    opening_costs: dict[int, float]  # facility id -> cost
    assignment_costs: np.ndarray  # shape (len(facilities), len(customers))
    hop_limit: int

    facility_index: dict[int, int] = field(init=False, repr=False)
    customer_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_integers(num_nodes=self.num_nodes, hop_limit=self.hop_limit)
        if self.num_nodes < 1:
            raise ValueError("instance needs at least one core node")
        if self.hop_limit < 1:
            raise ValueError(f"hop limit must be >= 1, got {self.hop_limit}")
        if len(set(self.facilities)) != len(self.facilities):
            raise ValueError("duplicate facility ids")
        self.core_nodes(self.facilities, "facility")
        self.core_nodes([self.root], "root")
        if self.root not in self.facilities:
            raise ValueError(f"root {self.root} is not a facility")
        if len(set(self.customers)) != len(self.customers):
            raise ValueError("duplicate customer ids")
        seen: set[tuple[int, int]] = set()
        n = self.num_nodes
        for u, v, cost in self.core_edges:
            if not (_is_integer(u) and _is_integer(v) and 1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) references unknown node")
            if u == v:
                raise ValueError(f"self loop on node {u}")
            if u > v:
                raise ValueError(f"edge ({u},{v}) not in canonical order")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            if not (cost >= 0 and math.isfinite(cost)):
                raise ValueError(f"edge ({u},{v}) has invalid cost {cost}")
        if set(self.opening_costs) != set(self.facilities):
            raise ValueError("opening costs must cover exactly the facilities")
        for f, cost in self.opening_costs.items():
            if not (cost >= 0 and math.isfinite(cost)):
                raise ValueError(f"facility {f} has invalid opening cost {cost}")
        mat = np.asarray(self.assignment_costs, dtype=np.float64)
        if mat.shape != (len(self.facilities), len(self.customers)):
            raise ValueError(
                f"assignment matrix shape {mat.shape} does not match "
                f"{len(self.facilities)} facilities x {len(self.customers)} customers"
            )
        if mat.size and (not np.isfinite(mat).all() or (mat < 0).any()):
            raise ValueError("assignment costs must be finite and >= 0")
        mat.setflags(write=False)
        object.__setattr__(self, "assignment_costs", mat)
        object.__setattr__(
            self, "facility_index", {f: i for i, f in enumerate(self.facilities)}
        )
        object.__setattr__(
            self, "customer_index", {c: i for i, c in enumerate(self.customers)}
        )
        self._check_connected()

    # -- derived views ---------------------------------------------------------

    def _check_connected(self) -> None:
        link = list(range(self.num_nodes + 1))  # union-find forest over node ids

        def find(x: int) -> int:
            while link[x] != x:
                link[x] = x = link[link[x]]
            return x

        for u, v, _ in self.core_edges:
            link[find(u)] = find(v)
        cut = [v for v in range(2, self.num_nodes + 1) if find(v) != find(1)]
        if cut:
            raise ValueError(f"core graph is disconnected (node {cut[0]} unreachable)")

    @cached_property
    def edge_costs(self) -> dict[tuple[int, int], float]:
        """Canonical edge (u < v) -> its cost."""
        return {(u, v): cost for u, v, cost in self.core_edges}

    @cached_property
    def arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(src, dst, cost)`` of every edge in both directions (read-only).

        With ``m`` edges, arc ``i`` runs ``u -> v`` along ``core_edges[i]``
        and arc ``m + i`` runs back.
        """
        table = np.array(self.core_edges, dtype=np.float64).reshape(-1, 3)
        u, v = table[:, 0].astype(np.int32), table[:, 1].astype(np.int32)
        arcs = (np.concatenate((u, v)), np.concatenate((v, u)), np.tile(table[:, 2], 2))
        for arr in arcs:
            arr.setflags(write=False)
        return arcs

    @cached_property
    def opening_cost_array(self) -> np.ndarray:
        """Opening costs in ``facilities`` order (read-only)."""
        opening = np.array([self.opening_costs[f] for f in self.facilities])
        opening.setflags(write=False)
        return opening

    def core_nodes(self, nodes: Iterable[object], what: str = "required node") -> set[int]:
        """``nodes`` as a set of core node ids: integers in 1..num_nodes.

        ValueError names ``what`` and the first of ``nodes`` that is no
        core node.  This is the check of every solver entry point that
        takes node ids, and of the instance's facilities and root.
        """
        ids: set[int] = set()
        n = self.num_nodes
        for v in nodes:
            if not (_is_integer(v) and 1 <= v <= n):
                raise ValueError(f"{what} {v} is not a core node")
            ids.add(operator.index(v))
        return ids

    def edge_cost(self, u: int, v: int) -> float:
        """Cost of core edge {u, v}; KeyError if the edge does not exist."""
        return self.edge_costs[canon_edge(u, v)]

    def has_edge(self, u: int, v: int) -> bool:
        return canon_edge(u, v) in self.edge_costs

    def assignment_cost(self, facility: int, customer: str) -> float:
        return float(
            self.assignment_costs[
                self.facility_index[facility], self.customer_index[customer]
            ]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.name == other.name
            and self.num_nodes == other.num_nodes
            and self.core_edges == other.core_edges
            and self.facilities == other.facilities
            and self.root == other.root
            and self.customers == other.customers
            and self.opening_costs == other.opening_costs
            and np.array_equal(self.assignment_costs, other.assignment_costs)
            and self.hop_limit == other.hop_limit
        )

    __hash__ = None  # type: ignore[assignment]


# -- token stream helper ----------------------------------------------------


class _Tokens:
    """Whitespace token stream over ``text``.

    The tokens come from one ``text.split()``; no line numbers are stored.
    ``line_bounds`` works a token's line out by counting the tokens of each
    line up to it.  It runs for error messages, and to find the extent of
    a UflLib file's ``FILE:`` and header lines.
    """

    def __init__(self, text: str):
        self.text = text
        self.items = text.split()
        self.pos = 0

    def line_bounds(self, index: int) -> tuple[int, int]:
        """Line number of token ``index`` and the index just past that line."""
        end = 0
        for lineno, line in enumerate(self.text.splitlines(), start=1):
            end += len(line.split())
            if index < end:
                return lineno, end
        raise IndexError(index)

    def error(self, message: str, index: int | None = None) -> ParseError:
        """``message`` at the line of token ``index`` (default: the last read)."""
        line, _ = self.line_bounds(self.pos - 1 if index is None else index)
        return ParseError(f"line {line}: {message}")

    def exhausted(self) -> bool:
        return self.pos >= len(self.items)

    def next(self, what: str) -> str:
        try:
            tok = self.items[self.pos]
        except IndexError:
            raise ParseError(f"unexpected end of file while reading {what}") from None
        self.pos += 1
        return tok

    def next_int(self, what: str) -> int:
        tok = self.next(what)
        try:
            return int(tok)
        except ValueError:
            raise self.error(f"expected integer {what}, got {tok!r}") from None

    def next_float(self, what: str) -> float:
        tok = self.next(what)
        try:
            val = float(tok)
        except ValueError:
            raise self.error(f"expected number {what}, got {tok!r}") from None
        if not math.isfinite(val):
            raise self.error(f"non-finite {what}")
        return val

    def floats(self, whats: tuple[str, ...]) -> list[float]:
        """The next ``len(whats)`` tokens, ``whats[k]`` naming token ``k``, as
        finite floats in one pass; any bad token re-reads them with
        :meth:`next_float`, which words the error."""
        tokens = self.items[self.pos : self.pos + len(whats)]
        try:
            values = list(map(float, tokens))
        except ValueError:
            values = []
        if len(values) == len(whats) and math.isfinite(sum(values)):
            self.pos += len(whats)
            return values
        return [self.next_float(what) for what in whats]

    def expect_end(self) -> None:
        if not self.exhausted():
            raise self.error(f"trailing token {self.items[self.pos]!r}", self.pos)


# -- OR-Library Steiner tree files ------------------------------------------


@dataclass(frozen=True)
class StpGraph:
    """Raw parse of an OR-Library Steiner tree file (terminals dropped)."""

    num_nodes: int
    edges: tuple[tuple[int, int, float], ...]


def parse_stp(text: str) -> StpGraph:
    """Parse an OR-Library Steiner tree file.

    Layout: first the node and edge counts, then one ``u v cost`` line per
    edge, then the terminal count and terminal ids.  The terminal section is
    optional here and its content is ignored; the graph is what matters.
    """
    toks = _Tokens(text)
    num_nodes = toks.next_int("node count")
    num_edges = toks.next_int("edge count")
    if num_nodes < 1:
        raise toks.error("node count must be >= 1")
    edges: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    for _ in range(num_edges):
        u = toks.next_int("edge endpoint")
        v = toks.next_int("edge endpoint")
        cost = toks.next_float("edge cost")
        if not (1 <= u <= num_nodes and 1 <= v <= num_nodes):
            raise toks.error(f"edge ({u},{v}) out of node range")
        if u == v:
            raise toks.error(f"self loop on node {u}")
        if cost < 0:
            raise toks.error(f"negative edge cost {cost}")
        key = canon_edge(u, v)
        if key in seen:
            raise toks.error(f"duplicate edge ({u},{v})")
        seen.add(key)
        edges.append((key[0], key[1], float(cost)))
    if not toks.exhausted():
        num_terminals = toks.next_int("terminal count")
        for _ in range(num_terminals):
            t = toks.next_int("terminal id")
            if not (1 <= t <= num_nodes):
                raise toks.error(f"terminal {t} out of range")
    toks.expect_end()
    return StpGraph(num_nodes=num_nodes, edges=tuple(sorted(edges)))


# -- OR-Library / UflLib facility location files -----------------------------


@dataclass(frozen=True)
class UflpData:
    """Opening costs plus the dense facility x customer cost matrix."""

    opening: tuple[float, ...]
    costs: np.ndarray  # shape (num_facilities, num_customers)

    @property
    def num_facilities(self) -> int:
        return len(self.opening)

    @property
    def num_customers(self) -> int:
        return int(self.costs.shape[1])


def parse_uflp(text: str) -> UflpData:
    """Parse an uncapacitated facility location file.

    Two layouts are auto-detected from the header shape:

    * classic OR-Library: ``m n`` header, m ``capacity opening`` lines, then
      per customer a demand value followed by m assignment costs.  Capacities
      and demands are parsed and discarded.
    * UflLib: optional ``FILE: name`` line, ``m n 0`` header, then per
      facility a row ``index opening cost_1 .. cost_n``.
    """
    toks = _Tokens(text)
    if toks.items and toks.items[0].startswith("FILE:"):
        _, toks.pos = toks.line_bounds(0)  # skip the whole FILE: line
    header = toks.pos
    m = toks.next_int("facility count")
    n = toks.next_int("customer count")
    if m < 1 or n < 0:
        raise toks.error("bad facility/customer counts", header)
    # UflLib pads the header line with a 0; classic files start a new line
    ufllib = (
        toks.items[toks.pos : toks.pos + 1] == ["0"]
        and toks.line_bounds(header)[1] > toks.pos
    )

    opening = np.empty(m, dtype=np.float64)
    costs = np.empty((m, n), dtype=np.float64)
    if ufllib:
        toks.next("header padding")
        row = ("opening cost",) + ("assignment cost",) * n
        for i in range(m):
            idx = toks.next_int("facility index")
            if idx != i + 1:
                raise toks.error(f"expected facility {i + 1}, got {idx}")
            values = toks.floats(row)
            opening[i] = values[0]
            costs[i] = values[1:]
    else:
        opening[:] = toks.floats(("capacity", "opening cost") * m)[1::2]  # capacities discarded
        column = ("demand",) + ("assignment cost",) * m
        for k in range(n):
            costs[:, k] = toks.floats(column)[1:]  # the demand is discarded
    toks.expect_end()
    if (opening < 0).any() or (costs < 0).any():
        raise ParseError("negative cost in facility location file")
    return UflpData(opening=tuple(float(x) for x in opening), costs=costs)


# -- merging ------------------------------------------------------------------


def merge_instances(
    stp: StpGraph, uflp: UflpData, hop_limit: int, name: str = "merged"
) -> Instance:
    """Combine an STP core graph with UFLP cost data into one instance.

    The first ``m`` node ids (ascending) become the facilities, the
    smallest-id facility becomes the root, and customers get fresh ids
    ``c1..cn`` so the two id spaces stay disjoint.
    """
    m = uflp.num_facilities
    if m > stp.num_nodes:
        raise MergeError(
            f"{m} facilities but the core graph has only {stp.num_nodes} nodes"
        )
    facilities = tuple(range(1, m + 1))
    customers = tuple(f"c{k}" for k in range(1, uflp.num_customers + 1))
    return Instance(
        name=name,
        num_nodes=stp.num_nodes,
        core_edges=stp.edges,
        facilities=facilities,
        root=facilities[0],
        customers=customers,
        opening_costs={f: uflp.opening[i] for i, f in enumerate(facilities)},
        assignment_costs=np.array(uflp.costs, dtype=np.float64),
        hop_limit=hop_limit,
    )


# -- tiny fixture format ------------------------------------------------------


def _fmt_cost(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


# record kind -> (name, layout, field types); the last field is the cost
_TINY_RECORDS = {
    "e": ("edge", "e u v cost", (int, int, float)),
    "f": ("facility", "f id cost", (int, float)),
    "a": ("assignment", "a facility customer cost", (int, str, float)),
}


def parse_tiny(text: str, name: str = "tiny") -> Instance:
    """Parse the tiny fixture format.

    Header line: ``num_nodes num_facilities num_customers hop_limit root``.
    Then ``e u v cost`` per core edge, ``f id cost`` per facility and
    ``a facility customer cost`` per assignment pair.  The assignment section
    must be complete (every facility x customer pair exactly once).
    """
    header: list[int] | None = None
    # kind -> the fields before the cost, canonical for an edge -> the cost
    records: dict[str, dict[tuple, float]] = {kind: {} for kind in _TINY_RECORDS}

    def fail(lineno: int, msg: str) -> ParseError:
        return ParseError(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if header is None:
            if len(parts) != 5:
                raise fail(lineno, "header needs 5 fields")
            try:
                header = [int(p) for p in parts]
            except ValueError:
                raise fail(lineno, "header fields must be integers") from None
            continue
        kind = parts[0]
        if kind not in _TINY_RECORDS:
            raise fail(lineno, f"unknown record type {kind!r}")
        what, layout, types = _TINY_RECORDS[kind]
        if len(parts) != len(types) + 1:
            raise fail(lineno, f"{what} line needs '{layout}'")
        try:
            *fields, cost = [convert(p) for convert, p in zip(types, parts[1:])]
        except ValueError:
            raise fail(lineno, f"bad {what} line") from None
        key = canon_edge(*fields) if kind == "e" else tuple(fields)
        if key in records[kind]:
            label = ",".join(map(str, fields))
            label = label if len(fields) == 1 else f"({label})"
            raise fail(lineno, f"duplicate {what} {label}")
        records[kind][key] = cost

    if header is None:
        raise ParseError("line 1: empty file")
    num_nodes, num_fac, num_cust, hop_limit, root = header
    openings = {f: cost for (f,), cost in records["f"].items()}
    assign = records["a"]
    facilities = tuple(sorted(openings))
    if len(facilities) != num_fac:
        raise ParseError(f"header declares {num_fac} facilities, file has {len(facilities)}")
    customers = tuple(sorted({cust for _, cust in assign}))
    if len(customers) != num_cust:
        raise ParseError(f"header declares {num_cust} customers, file has {len(customers)}")
    pairs = [(f, c) for f in facilities for c in customers]
    missing = [pair for pair in pairs if pair not in assign]
    if missing:
        raise ParseError(f"missing assignment cost for {missing[0]}")
    if len(assign) != len(pairs):
        raise ParseError(f"assignment for unknown pair {min(set(assign) - set(pairs))}")
    matrix = np.reshape([assign[pair] for pair in pairs], (len(facilities), len(customers)))
    try:
        return Instance(
            name=name,
            num_nodes=num_nodes,
            core_edges=tuple(sorted((u, v, cost) for (u, v), cost in records["e"].items())),
            facilities=facilities,
            root=root,
            customers=customers,
            opening_costs=openings,
            assignment_costs=matrix,
            hop_limit=hop_limit,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_tiny(instance: Instance) -> str:
    """Canonical tiny-format text; inverse of :func:`parse_tiny`."""
    out: list[str] = [
        f"{instance.num_nodes} {len(instance.facilities)} "
        f"{len(instance.customers)} {instance.hop_limit} {instance.root}"
    ]
    for u, v, cost in sorted(instance.core_edges):
        out.append(f"e {u} {v} {_fmt_cost(cost)}")
    for f in instance.facilities:
        out.append(f"f {f} {_fmt_cost(instance.opening_costs[f])}")
    for f in instance.facilities:
        for c in instance.customers:
            out.append(f"a {f} {c} {_fmt_cost(instance.assignment_cost(f, c))}")
    return "\n".join(out) + "\n"
