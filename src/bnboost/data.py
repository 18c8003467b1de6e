"""Binary datasets, DAGs and synthetic generating networks, with their files.

Synthetic networks attach a logistic conditional to every node:
P(X_i = 1 | parents) = sigmoid(sum_j theta_ij * x_j + u_i) with the parent
values entering as raw bits. Datasets are plain 0/1 matrices with named
columns.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BinaryDataset",
    "Dag",
    "Network",
    "random_network",
    "sample",
    "save_dataset",
    "load_dataset",
    "read_variable_names",
    "save_network",
    "load_network",
    "save_structure",
    "load_structure",
    "network_to_dict",
    "network_from_dict",
    "json_field",
    "load_json",
    "is_integer",
    "check_count",
    "derived_seed",
]


def is_integer(value) -> bool:
    """An int or numpy integer, and not a bool."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def check_count(name: str, value, low: int) -> None:
    """The rule for an integer argument (a size, a degree, a count or a
    seed): an int or numpy integer, not a bool, at or above low."""
    if not is_integer(value) or value < low:
        raise ValueError(f"{name}={value!r} must be an integer >= {low}")


def derived_seed(*parts: int) -> int:
    """The sub-seed rule: the seed of one part of a seeded run (a table
    cell, an experiment's dataset or search), fixed by the run's seed and
    the part's indices alone, so it does not depend on evaluation order."""
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


class CycleError(ValueError):
    """The edge set contains a directed cycle."""


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph on nodes 0..n-1 with edges (parent, child)."""

    n: int
    edges: frozenset[tuple[int, int]]
    # sorted parents of every node, built once from edges
    _parents: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_count("n", self.n, 1)
        object.__setattr__(self, "edges", frozenset(self.edges))
        parents: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            if u == v or not all(is_integer(x) and 0 <= x < self.n for x in (u, v)):
                raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")
            parents[v].append(u)
        object.__setattr__(self, "_parents", tuple(tuple(sorted(p)) for p in parents))
        self.topological_order()  # raises CycleError if cyclic

    def parents(self, i: int) -> tuple[int, ...]:
        return self._parents[i]

    def in_degree(self, i: int) -> int:
        return len(self._parents[i])

    def adjacent(self, u: int, v: int) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges

    def topological_order(self) -> list[int]:
        """Kahn's algorithm; ties broken by smallest node index."""
        indeg = [len(p) for p in self._parents]
        children: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            children[u].append(v)
        ready = [i for i in range(self.n) if indeg[i] == 0]
        order: list[int] = []
        while ready:
            i = heapq.heappop(ready)
            order.append(i)
            for v in children[i]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    heapq.heappush(ready, v)
        if len(order) != self.n:
            raise CycleError("edge set contains a directed cycle")
        return order

    def check_in_degree(self, d: int) -> None:
        bad = [i for i, p in enumerate(self._parents) if len(p) > d]
        if bad:
            raise ValueError(f"nodes {bad} exceed the in-degree bound {d}")


@dataclass(frozen=True)
class BinaryDataset:
    """N rows of n binary observations with named columns."""

    variable_names: tuple[str, ...]
    rows: np.ndarray  # (N, n) uint8

    def __post_init__(self):
        rows = np.asarray(self.rows)
        # before the cast, which would wrap 256 to 0 and truncate 0.5 to 0
        if not ((rows == 0) | (rows == 1)).all():
            raise ValueError("cells must be 0 or 1")
        rows = np.ascontiguousarray(rows, dtype=np.uint8)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "variable_names", tuple(self.variable_names))
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise ValueError(f"rows must be a nonempty 2-d matrix, got {rows.shape}")
        if rows.shape[1] != len(self.variable_names):
            raise ValueError("column count does not match variable names")
        if len(set(self.variable_names)) != len(self.variable_names):
            raise ValueError("duplicate variable names")

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_vars(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class Network:
    """DAG plus logistic conditionals: per-edge weight theta and per-node bias u."""

    dag: Dag
    theta: dict[int, dict[int, float]] = field(default_factory=dict)
    bias: dict[int, float] = field(default_factory=dict)
    variable_names: tuple[str, ...] = ()

    def __post_init__(self):
        names = self.variable_names or tuple(f"X{i}" for i in range(self.dag.n))
        object.__setattr__(self, "variable_names", tuple(names))
        if len(self.variable_names) != self.dag.n:
            raise ValueError("variable name count does not match the DAG")
        for i in range(self.dag.n):
            pa = self.dag.parents(i)
            th = self.theta.get(i, {})
            if set(th) != set(pa) or not all(map(is_integer, th)):
                raise ValueError(
                    f"node {i}: theta keys {sorted(th)} != parents {list(pa)}"
                )
            if i not in self.bias:
                raise ValueError(f"node {i}: missing bias")

    @property
    def n(self) -> int:
        return self.dag.n

    def p_one(self, i: int, values: np.ndarray) -> np.ndarray:
        """P(X_i = 1 | parents) = sigmoid(u_i + theta_i . x_pa) for every
        column of values, where values[p] holds X_p."""
        act = np.full(values.shape[1], self.bias[i])
        for p, w in self.theta[i].items():
            act += w * values[p]
        return 1.0 / (1.0 + np.exp(-act))


def random_network(n: int, d: int, seed: int) -> Network:
    """Random DAG with in-degree <= d and logistic parameters.

    A random permutation fixes the topological order; each node draws its
    parent count uniformly from 0..min(d, #predecessors) and its parents
    uniformly without replacement. Weights are U[-1/2, 1/2] + N(0,1)/4,
    biases N(0,1)/4.
    """
    for name, value, low in (("n", n, 1), ("d", d, 0), ("seed", seed, 0)):
        check_count(name, value, low)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    edges: set[tuple[int, int]] = set()
    theta: dict[int, dict[int, float]] = {i: {} for i in range(n)}
    bias: dict[int, float] = {}
    for pos in range(n):
        child = int(order[pos])
        cap = min(d, pos)
        k = int(rng.integers(0, cap + 1))
        parents = rng.choice(order[:pos], size=k, replace=False) if k else []
        for p in parents:
            p = int(p)
            edges.add((p, child))
            theta[child][p] = float(rng.uniform(-0.5, 0.5) + 0.25 * rng.normal())
        bias[child] = float(0.25 * rng.normal())
    return Network(dag=Dag(n, frozenset(edges)), theta=theta, bias=bias)


def sample(net: Network, n_rows: int, seed: int) -> BinaryDataset:
    """Ancestral sampling: each node draws Bernoulli(sigmoid(theta.x_pa + u))."""
    check_count("n_rows", n_rows, 1)
    check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    rows = np.zeros((n_rows, net.n), dtype=np.uint8)
    for i in net.dag.topological_order():
        rows[:, i] = rng.random(n_rows) < net.p_one(i, rows.T)
    return BinaryDataset(net.variable_names, rows)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

_EOL = csv.excel.lineterminator.encode()  # the line end csv.writer writes
_CELLS = {"0": 0, "1": 1}  # the cell texts load_dataset accepts, spaces stripped


def save_dataset(data: BinaryDataset, path) -> None:
    """CSV with a header row of variable names and 0/1 body cells, as
    csv.writer writes them: the body is one (N, 2n+1) byte buffer of
    cells, commas and csv.writer's line end."""
    header = io.StringIO()
    csv.writer(header).writerow(data.variable_names)
    n_rows, n = data.rows.shape
    body = np.empty((n_rows, 2 * n - 1 + len(_EOL)), dtype=np.uint8)
    body[:, 0:2 * n - 1:2] = data.rows + ord("0")
    body[:, 1:2 * n - 1:2] = ord(",")
    body[:, 2 * n - 1:] = np.frombuffer(_EOL, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(header.getvalue().encode("utf-8"))
        fh.write(body.tobytes())


def _canonical_rows(body: memoryview, n: int, eol: bytes) -> np.ndarray | None:
    """The (N, n) rows of a body that is exactly N lines of n cells `0` or
    `1` joined by commas, each ending in eol; None for any other body."""
    width = 2 * n - 1 + len(eol)
    if n < 1 or not body or len(body) % width:
        return None
    lines = np.frombuffer(body, dtype=np.uint8).reshape(-1, width)
    cells = lines[:, 0:2 * n - 1:2] - np.uint8(ord("0"))  # wraps below "0"
    if (
        (cells > 1).any()
        or (lines[:, 1:2 * n - 1:2] != ord(",")).any()
        or (lines[:, 2 * n - 1:] != np.frombuffer(eol, dtype=np.uint8)).any()
    ):
        return None
    return cells


def _read_header(text, path):
    """A csv reader over the text stream, left just past the header record,
    and that record's names; a name given twice raises ValueError naming
    the file and the line. Callers open the stream as utf-8-sig, which
    drops a BOM, and with newline="" as the csv module asks."""
    reader = csv.reader(text)
    header = next(reader, [])
    repeated = [name for j, name in enumerate(header) if name in header[:j]]
    if repeated:
        raise ValueError(
            f"{path} line {reader.line_num}: duplicate variable name {repeated[0]!r}"
        )
    return reader, header


def _utf8_error(path, raw: bytes | None = None) -> ValueError:
    """The ValueError for a file that is not UTF-8: it names the file, the
    1-based line of the first byte that does not decode, and that byte.
    raw is the file's content, read here when not given."""
    if raw is None:
        with open(path, "rb") as fh:
            raw = fh.read()
    try:
        raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # offsets count from after a BOM
        line = exc.object.count(b"\n", 0, exc.start) + 1
        return ValueError(f"{path} line {line}: byte 0x{exc.object[exc.start]:02x} "
                          f"is not UTF-8 ({exc.reason})")
    return ValueError(f"{path} is not UTF-8")


def read_variable_names(path) -> tuple[str, ...]:
    """The variable names of a dataset CSV, from its header record alone.
    The rows below it are not parsed or checked; only the bytes read with
    the header, one block of the file, must still decode as UTF-8, or
    ValueError names the file and the line."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            return tuple(_read_header(fh, path)[1])
    except UnicodeDecodeError:
        raise _utf8_error(path) from None


def load_dataset(path) -> BinaryDataset:
    """Read a save_dataset CSV; a malformed file raises ValueError naming
    the file and its 1-based line. Cells read 0 or 1, with optional
    surrounding spaces; blank lines are skipped and a UTF-8 BOM ignored.

    The header always goes through the csv module. A body in save_dataset's
    own layout is read as one byte array; any other body falls through to
    the csv loop, which alone reports errors."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return _parse_dataset(raw, path)
    except UnicodeDecodeError:
        raise _utf8_error(path, raw) from None


def _parse_dataset(raw: bytes, path) -> BinaryDataset:
    """load_dataset of the file's content raw; a byte that is not UTF-8
    raises UnicodeDecodeError."""
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="")
    reader, header = _read_header(text, path)
    end = raw.find(b"\n") + 1
    first = raw[:end]
    eol = b"\r\n" if first.endswith(b"\r\n") else b"\n"
    cells = None
    if end and b'"' not in first and b"\r" not in first[:-len(eol)]:
        # the csv module's first record is exactly this line
        cells = _canonical_rows(memoryview(raw)[end:], len(header), eol)
    if cells is None:
        rows = []
        for row in filter(None, reader):  # blank lines read as []
            if len(row) != len(header):
                raise ValueError(f"{path} line {reader.line_num}: {len(row)} cells, "
                                 f"the header has {len(header)}")
            values = [_CELLS.get(cell.strip()) for cell in row]
            if None in values:
                raise ValueError(f"{path} line {reader.line_num}: "
                                 f"cell {row[values.index(None)]!r} is not 0 or 1")
            rows.append(values)
        if not rows:
            raise ValueError(f"{path} line {reader.line_num + 1}: no data rows")
        cells = np.asarray(rows, dtype=np.uint8)
    return BinaryDataset(tuple(header), cells)


def _structure_to_dict(names, dag: Dag) -> dict:
    return {
        "variables": list(names),
        "edges": [[names[u], names[v]] for u, v in sorted(dag.edges)],
    }


def _dump_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def network_to_dict(net: Network) -> dict:
    names = net.variable_names
    return {
        **_structure_to_dict(names, net.dag),
        "cpds": {
            names[i]: {
                "theta": {names[p]: w for p, w in sorted(net.theta[i].items())},
                "u": net.bias[i],
            }
            for i in range(net.n)
        },
    }


_REQUIRED = object()
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string",
               float: "a number", int: "an integer"}


def _json_value(value, kind: type, what: str):
    if not isinstance(value, bool):  # JSON true and false are not numbers
        if kind is float and isinstance(value, int):
            try:
                return float(value)
            except OverflowError:  # an integer beyond the float range
                pass
        if kind is float and isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{what} is {value!r}, not a finite number")
        if isinstance(value, kind):
            return value
    raise ValueError(f"{what} is {value!r}, not {_JSON_TYPES[kind]}")


def json_field(doc, key: str, kind: type, where: str, default=_REQUIRED, each=None):
    """doc[key] of the JSON object doc as kind, which must be the value's
    JSON type: dict an object, list a list, str a string, int an integer
    (not written with a point or an exponent) and float any finite
    number, returned as a float. A boolean or a string is never a number,
    nor are the NaN and Infinity that Python's json reads. A missing key
    gives default where one is given, and each, if given, is the kind of
    every entry of a list. A document of another shape raises ValueError
    naming where and the key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} is not a JSON object")
    if key not in doc:
        if default is _REQUIRED:
            raise ValueError(f"{where} has no {key!r} key")
        return default
    value = _json_value(doc[key], kind, f"{where} key {key!r}")
    if each is not None:
        value = [_json_value(x, each, f"an entry of {where} key {key!r}") for x in value]
    return value


def _index(pos: dict[str, int], name, where: str) -> int:
    if isinstance(name, str) and name in pos:
        return pos[name]
    raise ValueError(f"{where} names unknown variable {name!r}")


def _structure_from_dict(doc) -> tuple[tuple[str, ...], dict[str, int], Dag]:
    """Names, name -> index map and DAG of a {variables, edges} document."""
    names = tuple(json_field(doc, "variables", list, "document", each=str))
    pos: dict[str, int] = {}
    for k, name in enumerate(names):
        if name in pos:
            raise ValueError(f"variable {name!r} is listed twice")
        pos[name] = k
    edges = json_field(doc, "edges", list, "document", each=list)
    for edge in edges:
        if len(edge) != 2:
            raise ValueError(f"edge {edge!r} is not a pair of names")
    edges = frozenset((_index(pos, u, "edge"), _index(pos, v, "edge")) for u, v in edges)
    return names, pos, Dag(len(names), edges)


def network_from_dict(doc) -> Network:
    names, pos, dag = _structure_from_dict(doc)
    theta: dict[int, dict[int, float]] = {i: {} for i in range(len(names))}
    bias: dict[int, float] = {}
    for name, cpd in json_field(doc, "cpds", dict, "document").items():
        i = _index(pos, name, "cpd")
        where = f"cpd of {name!r}"
        theta[i] = {
            _index(pos, p, where): _json_value(w, float, f"{where} weight of {p!r}")
            for p, w in json_field(cpd, "theta", dict, where).items()
        }
        bias[i] = json_field(cpd, "u", float, where)
    return Network(dag=dag, theta=theta, bias=bias, variable_names=names)


def load_json(path, parse):
    """parse(document) of a JSON file, where a ValueError from parsing the
    JSON or from parse is raised again naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def save_network(net: Network, path) -> None:
    _dump_json(network_to_dict(net), path)


def load_network(path) -> Network:
    """Read a save_network file; a malformed one raises ValueError naming it."""
    return load_json(path, network_from_dict)


def save_structure(names, dag: Dag, path) -> None:
    """Write the {variables, edges} JSON file that load_structure reads."""
    _dump_json(_structure_to_dict(names, dag), path)


def load_structure(path) -> tuple[tuple[str, ...], Dag]:
    """Variable names and DAG of a network or learned-structure JSON file; a
    malformed one raises ValueError naming it."""
    names, _, dag = load_json(path, _structure_from_dict)
    return names, dag
