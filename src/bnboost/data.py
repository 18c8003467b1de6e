"""Binary datasets, DAGs and synthetic generating networks, with their files.

Synthetic networks attach a logistic conditional to every node:
P(X_i = 1 | parents) = sigmoid(sum_j theta_ij * x_j + u_i) with the parent
values entering as raw bits. Datasets are plain 0/1 matrices with named
columns.
"""

from __future__ import annotations

import csv
import heapq
import json
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
    "save_network",
    "load_network",
    "save_structure",
    "load_structure",
    "network_to_dict",
    "network_from_dict",
]


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
        if self.n < 1:
            raise ValueError(f"node count {self.n} must be >= 1")
        object.__setattr__(self, "edges", frozenset(self.edges))
        parents: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
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
        rows = np.ascontiguousarray(np.asarray(self.rows, dtype=np.uint8))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "variable_names", tuple(self.variable_names))
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise ValueError(f"rows must be a nonempty 2-d matrix, got {rows.shape}")
        if rows.shape[1] != len(self.variable_names):
            raise ValueError("column count does not match variable names")
        if len(set(self.variable_names)) != len(self.variable_names):
            raise ValueError("duplicate variable names")
        if (rows > 1).any():
            raise ValueError("cells must be 0 or 1")

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_vars(self) -> int:
        return self.rows.shape[1]

    def index(self, name: str) -> int:
        return self.variable_names.index(name)


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
            if set(th) != set(pa):
                raise ValueError(
                    f"node {i}: theta keys {sorted(th)} != parents {list(pa)}"
                )
            if i not in self.bias:
                raise ValueError(f"node {i}: missing bias")

    @property
    def n(self) -> int:
        return self.dag.n


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def random_network(n: int, d: int, seed: int) -> Network:
    """Random DAG with in-degree <= d and logistic parameters.

    A random permutation fixes the topological order; each node draws its
    parent count uniformly from 0..min(d, #predecessors) and its parents
    uniformly without replacement. Weights are U[-1/2, 1/2] + N(0,1)/4,
    biases N(0,1)/4.
    """
    if n < 1 or d < 0:
        raise ValueError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
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
    if n_rows < 1:
        raise ValueError(f"n_rows={n_rows} must be >= 1")
    rng = np.random.default_rng(seed)
    rows = np.zeros((n_rows, net.n), dtype=np.uint8)
    for i in net.dag.topological_order():
        act = np.full(n_rows, net.bias[i])
        for p, w in net.theta[i].items():
            act += w * rows[:, p]
        rows[:, i] = rng.random(n_rows) < _sigmoid(act)
    return BinaryDataset(net.variable_names, rows)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def save_dataset(data: BinaryDataset, path) -> None:
    """CSV with a header row of variable names and 0/1 body cells."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.variable_names)
        for row in data.rows:
            writer.writerow(int(x) for x in row)


def load_dataset(path) -> BinaryDataset:
    """Read a save_dataset CSV; a malformed file raises ValueError naming
    the file and its 1-based line. Cells may carry surrounding spaces."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        repeated = [name for j, name in enumerate(header) if name in header[:j]]
        if repeated:
            raise ValueError(
                f"{path} line {reader.line_num}: duplicate variable name {repeated[0]!r}"
            )
        lines, rows = [], []
        try:
            for row in filter(None, reader):  # blank lines read as []
                lines.append(reader.line_num)
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} cells, the header has {len(header)}")
                rows.append(list(map(int, row)))
        except ValueError as exc:
            raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path} line {reader.line_num + 1}: no data rows")
    try:
        cells = np.asarray(rows, dtype=np.int8)
    except OverflowError:  # a cell beyond int8, still reported by its line below
        cells = np.asarray(rows, dtype=object)
    bad = np.flatnonzero(((cells < 0) | (cells > 1)).any(axis=1))
    if bad.size:
        raise ValueError(f"{path} line {lines[bad[0]]}: cells must be 0 or 1")
    return BinaryDataset(tuple(header), cells.astype(np.uint8))


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


def _index(pos: dict[str, int], name: str, where: str) -> int:
    try:
        return pos[name]
    except KeyError:
        raise ValueError(f"{where} names unknown variable {name!r}") from None


def _structure_from_dict(doc: dict) -> tuple[tuple[str, ...], dict[str, int], Dag]:
    """Names, name -> index map and DAG of a {variables, edges} document."""
    names = tuple(doc["variables"])
    pos: dict[str, int] = {}
    for k, name in enumerate(names):
        if name in pos:
            raise ValueError(f"variable {name!r} is listed twice")
        pos[name] = k
    edges = frozenset(
        (_index(pos, u, "edge"), _index(pos, v, "edge")) for u, v in doc["edges"]
    )
    return names, pos, Dag(len(names), edges)


def network_from_dict(doc: dict) -> Network:
    names, pos, dag = _structure_from_dict(doc)
    theta: dict[int, dict[int, float]] = {i: {} for i in range(len(names))}
    bias: dict[int, float] = {}
    for name, cpd in doc["cpds"].items():
        i = _index(pos, name, "cpd")
        theta[i] = {
            _index(pos, p, f"cpd of {name!r}"): float(w) for p, w in cpd["theta"].items()
        }
        bias[i] = float(cpd["u"])
    return Network(dag=dag, theta=theta, bias=bias, variable_names=names)


def save_network(net: Network, path) -> None:
    _dump_json(network_to_dict(net), path)


def load_network(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        return network_from_dict(json.load(fh))


def save_structure(names, dag: Dag, path) -> None:
    """Write the {variables, edges} JSON file that load_structure reads."""
    _dump_json(_structure_to_dict(names, dag), path)


def load_structure(path) -> tuple[tuple[str, ...], Dag]:
    """Variable names and DAG of a network or learned-structure JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        names, _, dag = _structure_from_dict(json.load(fh))
    return names, dag
