"""Finite filtered probability spaces as rooted scenario trees.

A tree with horizon ``N`` encodes a filtration F_0 <= ... <= F_N on a finite
sample space: the depth-t nodes are the atoms of F_t.  Adapted random vectors
are stored as one value per node of their depth.  By convention F_{N+1} = F_N,
so data of logical depth ``N + 1`` (terminal dual prices) is stored on the
leaves; conditional expectation acts as the identity on that layer.

All types are immutable after construction and every operation is a pure
function, so concurrent read access is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadProbability,
    CycleOrForest,
    DepthMismatch,
    DimensionMismatch,
    RaggedDepth,
    UnknownNode,
)

PROB_TOL = 1e-12


@dataclass(frozen=True)
class Node:
    """One atom of the filtration: index is the position in ``tree.nodes``."""

    index: int
    node_id: str
    parent: int | None
    depth: int
    cond_prob: float


@dataclass(frozen=True)
class ScenarioTree:
    """Validated rooted tree; build with :func:`build_tree`."""

    horizon: int
    nodes: tuple[Node, ...]
    state_dims: tuple[int, ...]
    _children: tuple[tuple[int, ...], ...] = field(repr=False)
    _levels: tuple[tuple[Node, ...], ...] = field(repr=False)
    _probs: tuple[float, ...] = field(repr=False)
    _id_index: dict[str, int] = field(repr=False)
    _level_pos: tuple[int, ...] = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def root(self) -> Node:
        return self._levels[0][0]

    def node(self, ref: int | str | Node) -> Node:
        """Resolve an index, id or Node to the tree's Node."""
        if isinstance(ref, Node):
            ref = ref.index
        if isinstance(ref, str):
            if ref not in self._id_index:
                raise UnknownNode(f"no node with id {ref!r}")
            return self.nodes[self._id_index[ref]]
        if not 0 <= ref < len(self.nodes):
            raise UnknownNode(f"node index {ref} out of range")
        return self.nodes[ref]

    def children(self, ref: int | str | Node) -> tuple[Node, ...]:
        node = self.node(ref)
        return tuple(self.nodes[i] for i in self._children[node.index])

    def parent(self, ref: int | str | Node) -> Node | None:
        node = self.node(ref)
        return None if node.parent is None else self.nodes[node.parent]

    def level(self, depth: int) -> tuple[Node, ...]:
        """Nodes at a given depth, in stable construction order."""
        if not 0 <= depth <= self.horizon:
            raise DepthMismatch(f"depth {depth} outside 0..{self.horizon}")
        return self._levels[depth]

    def leaves(self) -> tuple[Node, ...]:
        return self.level(self.horizon)

    def level_position(self, ref: int | str | Node) -> int:
        """Position of a node within its depth level."""
        return self._level_pos[self.node(ref).index]


def build_tree(
    raw_nodes: list[tuple[str, str | None, float]],
    dimensions: int | list[int],
) -> ScenarioTree:
    """Validate a raw node list and build a :class:`ScenarioTree`.

    ``raw_nodes`` holds ``(id, parent_id_or_None, cond_prob)`` triples; the
    root's probability entry is ignored (taken as 1).  ``dimensions`` is the
    per-depth state dimension, broadcast if given as a single int.
    """
    if not raw_nodes:
        raise CycleOrForest("empty node list")

    ids = [nid for nid, _, _ in raw_nodes]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise CycleOrForest(f"duplicate node ids: {dupes}")
    id_index = {nid: k for k, (nid, _, _) in enumerate(raw_nodes)}
    parent_of = {nid: par for nid, par, _ in raw_nodes}

    roots = [nid for nid, par, _ in raw_nodes if par is None]
    if len(roots) != 1:
        raise CycleOrForest(f"expected exactly one root, found {len(roots)}")
    for nid, par, _ in raw_nodes:
        if par is not None and par not in id_index:
            raise CycleOrForest(f"node {nid!r} references unknown parent {par!r}")

    # Depths via BFS; a node left unvisited means a cycle or detached component.
    children_ids: dict[str, list[str]] = {nid: [] for nid in ids}
    for nid, par, _ in raw_nodes:
        if par is not None:
            children_ids[par].append(nid)
    depth: dict[str, int] = {roots[0]: 0}
    frontier = [roots[0]]
    while frontier:
        nxt: list[str] = []
        for nid in frontier:
            for c in children_ids[nid]:
                depth[c] = depth[nid] + 1
                nxt.append(c)
        frontier = nxt
    if len(depth) != len(ids):
        missing = sorted(set(ids) - set(depth))
        raise CycleOrForest(f"nodes unreachable from root (cycle?): {missing}")

    horizon = max(depth.values())
    if horizon < 1:
        raise RaggedDepth("tree must have horizon N >= 1")
    for nid in ids:
        if not children_ids[nid] and depth[nid] != horizon:
            raise RaggedDepth(
                f"leaf {nid!r} at depth {depth[nid]}, expected {horizon}"
            )

    # Probabilities: strictly positive, children summing to one.
    cond = {nid: p for nid, _, p in raw_nodes}
    cond[roots[0]] = 1.0
    for nid, p in cond.items():
        if not (0.0 < p <= 1.0) or not np.isfinite(p):
            raise BadProbability(f"node {nid!r} has conditional probability {p}")
    for nid, kids in children_ids.items():
        if kids:
            s = sum(cond[c] for c in kids)
            if abs(s - 1.0) > PROB_TOL:
                raise BadProbability(
                    f"children of {nid!r} have probabilities summing to {s!r}"
                )

    # Canonical node order: by depth, then original file order.
    order = sorted(ids, key=lambda nid: (depth[nid], id_index[nid]))
    new_index = {nid: k for k, nid in enumerate(order)}
    nodes = tuple(
        Node(
            index=new_index[nid],
            node_id=nid,
            parent=None if nid == roots[0] else new_index[parent_of[nid]],
            depth=depth[nid],
            cond_prob=cond[nid],
        )
        for nid in order
    )
    children = tuple(
        tuple(new_index[c] for c in children_ids[nid]) for nid in order
    )
    levels: list[list[Node]] = [[] for _ in range(horizon + 1)]
    for n in nodes:
        levels[n.depth].append(n)

    probs = [0.0] * len(nodes)
    level_pos = [0] * len(nodes)
    for n in nodes:
        probs[n.index] = n.cond_prob if n.parent is None else probs[n.parent] * n.cond_prob
    for lev in levels:
        for pos, n in enumerate(lev):
            level_pos[n.index] = pos

    if isinstance(dimensions, int):
        dims = (dimensions,) * (horizon + 1)
    else:
        dims = tuple(int(d) for d in dimensions)
        if len(dims) != horizon + 1:
            raise DimensionMismatch(
                f"need {horizon + 1} per-depth dimensions, got {len(dims)}"
            )
    if any(d < 1 for d in dims):
        raise DimensionMismatch("state dimensions must be positive")

    return ScenarioTree(
        horizon=horizon,
        nodes=nodes,
        state_dims=dims,
        _children=children,
        _levels=tuple(tuple(lev) for lev in levels),
        _probs=tuple(probs),
        _id_index={nid: new_index[nid] for nid in ids},
        _level_pos=tuple(level_pos),
    )


def node_probability(tree: ScenarioTree, ref: int | str | Node) -> float:
    """Unconditional probability of a node's atom (product along the root path)."""
    return tree._probs[tree.node(ref).index]


@dataclass(frozen=True)
class AdaptedVector:
    """An F_t-measurable random vector: one row per depth-t node.

    ``depth`` may be ``N + 1`` (the F_{N+1} = F_N convention); the rows are
    then aligned with the leaves.  Row order follows ``tree.level(t)``.
    """

    depth: int
    values: np.ndarray  # shape (n_nodes_at_depth, dim)

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise DimensionMismatch("adapted values must be a 2-d array")
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def storage_depth(self, tree: ScenarioTree) -> int:
        return min(self.depth, tree.horizon)

    def check_against(self, tree: ScenarioTree) -> None:
        t = self.depth
        if not 0 <= t <= tree.horizon + 1:
            raise DepthMismatch(f"depth {t} outside 0..{tree.horizon + 1}")
        rows = len(tree.level(self.storage_depth(tree)))
        if self.values.shape[0] != rows:
            raise DepthMismatch(
                f"expected {rows} rows at depth {t}, got {self.values.shape[0]}"
            )

    def value_at(self, tree: ScenarioTree, ref: int | str | Node) -> np.ndarray:
        node = tree.node(ref)
        if node.depth != self.storage_depth(tree):
            raise DepthMismatch(
                f"node {node.node_id!r} at depth {node.depth}, data stored at "
                f"depth {self.storage_depth(tree)}"
            )
        return self.values[tree.level_position(node)]

    @staticmethod
    def constant(tree: ScenarioTree, depth: int, vec: np.ndarray) -> "AdaptedVector":
        vec = np.atleast_1d(np.asarray(vec, dtype=float))
        rows = len(tree.level(min(depth, tree.horizon)))
        return AdaptedVector(depth, np.tile(vec, (rows, 1)))

    @staticmethod
    def from_dict(
        tree: ScenarioTree, depth: int, values: dict[str, np.ndarray]
    ) -> "AdaptedVector":
        level = tree.level(min(depth, tree.horizon))
        missing = [n.node_id for n in level if n.node_id not in values]
        if missing:
            raise DepthMismatch(f"missing values for nodes {missing}")
        rows = np.vstack([np.atleast_1d(np.asarray(values[n.node_id], float)) for n in level])
        return AdaptedVector(depth, rows)


def level_probabilities(tree: ScenarioTree, depth: int) -> np.ndarray:
    return np.array([node_probability(tree, n) for n in tree.level(depth)])


def expectation(tree: ScenarioTree, av: AdaptedVector) -> float:
    """E[X] of a scalar adapted field: probability-weighted sum over its depth."""
    av.check_against(tree)
    if av.dim != 1:
        raise DimensionMismatch("expectation is defined for scalar fields")
    probs = level_probabilities(tree, av.storage_depth(tree))
    return float(probs @ av.values[:, 0])


def conditional_expectation(tree: ScenarioTree, av: AdaptedVector) -> AdaptedVector:
    """E[ . | F_{t-1}] of a depth-t field: child-probability-weighted averages.

    Input of logical depth N+1 is F_N-measurable already (F_{N+1} = F_N), so
    it is returned at depth N unchanged.
    """
    av.check_against(tree)
    if av.depth == tree.horizon + 1:
        return AdaptedVector(tree.horizon, av.values.copy())
    if av.depth < 1:
        raise DepthMismatch("cannot condition a depth-0 field further")
    t = av.depth - 1
    out = np.zeros((len(tree.level(t)), av.dim))
    for pos, node in enumerate(tree.level(t)):
        for child in tree.children(node):
            out[pos] += child.cond_prob * av.value_at(tree, child)
    return AdaptedVector(t, out)
