"""Finite filtered probability spaces as rooted scenario trees.

A tree with horizon ``N`` encodes a filtration F_0 <= ... <= F_N on a finite
sample space: the depth-t nodes are the atoms of F_t.  Adapted random vectors
are stored as one value per node of their depth.  By convention F_{N+1} = F_N,
so data of logical depth ``N + 1`` (terminal dual prices) is stored on the
leaves; conditional expectation acts as the identity on that layer.

Tree algebra works on whole levels.  Nodes are indexed by depth, then input
order, so level t is the contiguous index range ``tree.span(t)`` and per-node
market arrays are sliced per level.  An :class:`AdaptedVector` of depth t has
its rows in that index order, and ``tree.up(t)`` maps each depth-t row to its
parent's row in level t - 1: a parent gather is ``values[tree.up(t)]`` and a
conditional expectation is one ordered ``np.add.at`` over the children.

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


@dataclass(frozen=True, eq=False)
class ScenarioTree:
    """Validated rooted tree; build with :func:`build_tree`.

    Nodes are indexed by depth, then input order, so level t is the index
    range ``offsets[t]:offsets[t + 1]`` and whole levels are array slices.
    ``parents``, ``depth``, ``cond_prob`` and ``prob`` (unconditional) hold one
    entry per node index; the root is index 0, with parent -1.
    """

    horizon: int
    nodes: tuple[Node, ...]
    state_dim: int
    parents: np.ndarray = field(repr=False)
    depth: np.ndarray = field(repr=False)
    cond_prob: np.ndarray = field(repr=False)
    prob: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    _id_index: dict[str, int] = field(repr=False)
    _up: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def root(self) -> Node:
        return self.nodes[0]

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
        return tuple(self.nodes[i] for i in np.flatnonzero(self.parents == node.index))

    def parent(self, ref: int | str | Node) -> Node | None:
        node = self.node(ref)
        return None if node.parent is None else self.nodes[node.parent]

    def span(self, depth: int) -> slice:
        """Index range of the depth-t level."""
        if not 0 <= depth <= self.horizon:
            raise DepthMismatch(f"depth {depth} outside 0..{self.horizon}")
        return slice(int(self.offsets[depth]), int(self.offsets[depth + 1]))

    def indices(self, depth: int) -> np.ndarray:
        """Node indices of the depth-t level."""
        lev = self.span(depth)
        return np.arange(lev.start, lev.stop)

    def level(self, depth: int) -> tuple[Node, ...]:
        """Nodes at a given depth, in index order."""
        return self.nodes[self.span(depth)]

    def leaves(self) -> tuple[Node, ...]:
        return self.level(self.horizon)

    def up(self, depth: int) -> np.ndarray:
        """Row of each depth-t node's parent within level t - 1 (t >= 1).

        A parent gather of a depth-(t-1) array is ``values[tree.up(t)]``.
        """
        if not 1 <= depth <= self.horizon:
            raise DepthMismatch(f"depth {depth} outside 1..{self.horizon}")
        return self._up[depth - 1]

    def level_position(self, ref: int | str | Node) -> int:
        """Position of a node within its depth level."""
        node = self.node(ref)
        return node.index - int(self.offsets[node.depth])


def build_tree(
    raw_nodes: list[tuple[str, str | None, float]],
    dimension: int,
) -> ScenarioTree:
    """Validate a raw node list and build a :class:`ScenarioTree`.

    ``raw_nodes`` holds ``(id, parent_id_or_None, cond_prob)`` triples; the
    root's probability entry is ignored (taken as 1).  ``dimension`` is the
    state dimension at every node.
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
    parents = np.array([-1 if n.parent is None else n.parent for n in nodes])
    depths = np.array([n.depth for n in nodes])
    cond_prob = np.array([n.cond_prob for n in nodes])
    offsets = np.searchsorted(depths, np.arange(horizon + 2))
    prob = cond_prob.copy()
    for t in range(1, horizon + 1):
        lev = slice(offsets[t], offsets[t + 1])
        prob[lev] = prob[parents[lev]] * cond_prob[lev]
    up = tuple(
        parents[offsets[t]:offsets[t + 1]] - offsets[t - 1]
        for t in range(1, horizon + 1)
    )
    for arr in (parents, depths, cond_prob, prob, offsets, *up):
        arr.flags.writeable = False

    if dimension < 1:
        raise DimensionMismatch("state dimension must be positive")

    return ScenarioTree(
        horizon=horizon,
        nodes=nodes,
        state_dim=int(dimension),
        parents=parents,
        depth=depths,
        cond_prob=cond_prob,
        prob=prob,
        offsets=offsets,
        _id_index={nid: new_index[nid] for nid in ids},
        _up=up,
    )


@dataclass(frozen=True)
class AdaptedVector:
    """An F_t-measurable random vector: one row per depth-t node.

    ``depth`` may be ``N + 1`` (the F_{N+1} = F_N convention); the rows are
    then aligned with the leaves.  Rows are in node index order: row k of a
    depth-t vector belongs to node ``tree.span(t).start + k``.
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
        lev = tree.span(self.storage_depth(tree))
        rows = lev.stop - lev.start
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


def expectation(tree: ScenarioTree, av: AdaptedVector) -> float:
    """E[X] of a scalar adapted field: probability-weighted sum over its depth."""
    av.check_against(tree)
    if av.dim != 1:
        raise DimensionMismatch("expectation is defined for scalar fields")
    return float(tree.prob[tree.span(av.storage_depth(tree))] @ av.values[:, 0])


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
    weights = tree.cond_prob[tree.span(av.depth), None]
    np.add.at(out, tree.up(av.depth), weights * av.values)  # in child order
    return AdaptedVector(t, out)
