"""Finite filtered probability spaces as rooted scenario trees.

A tree with horizon ``N`` encodes a filtration F_0 <= ... <= F_N on a finite
sample space: the depth-t nodes are the atoms of F_t.  By convention
F_{N+1} = F_N, so data of logical depth ``N + 1`` (terminal dual prices) is
stored on the leaves.

A tree is its node ids plus index arrays, and tree algebra works on the
whole tree at once.  Nodes are indexed by depth, then input order, so level
t is the contiguous index range ``tree.span(t)``, and an adapted field is one
array with a row per node in that order: a parent gather is
``values[tree.parents]`` and a conditional expectation is one ordered
``np.add.at`` over the children.  A node is found by ``tree.index(id)`` and
read off the arrays: node k's parent is ``parents[k]`` and its children are
the indices whose parent is k.  :class:`NodeArray` views an adapted array
date by date, as :class:`AdaptedVector` rows of one level, and
``tree.nodes`` holds one :class:`Node` record per index, for callers outside
the library.

All types are immutable after construction and every operation is a pure
function, so concurrent read access is safe.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BadProbability,
    CycleOrForest,
    DepthMismatch,
    DimensionMismatch,
    RaggedDepth,
    ShapeMismatch,
    UnknownNode,
)

PROB_TOL = 1e-12


@dataclass(frozen=True)
class Node:
    """A view of one atom of the filtration: row ``index`` of the tree's arrays."""

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
    ``ids``, ``parents``, ``depth``, ``cond_prob``, ``prob`` (unconditional)
    and ``child_counts`` hold one entry per node index; the root is index 0,
    with parent -1.  ``nodes`` and ``level(t)`` are :class:`Node` views of
    these arrays.
    """

    horizon: int
    state_dim: int
    ids: tuple[str, ...] = field(repr=False)
    parents: np.ndarray = field(repr=False)
    depth: np.ndarray = field(repr=False)
    cond_prob: np.ndarray = field(repr=False)
    prob: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    child_counts: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @property
    def n_leaves(self) -> int:
        return int(self.offsets[-1] - self.offsets[-2])

    @cached_property
    def nodes(self) -> tuple[Node, ...]:
        """One :class:`Node` view per index, built on first access."""
        rows = zip(self.ids, self.parents.tolist(), self.depth.tolist(),
                   self.cond_prob.tolist())
        return tuple(Node(k, nid, None if par < 0 else par, d, p)
                     for k, (nid, par, d, p) in enumerate(rows))

    @cached_property
    def _id_index(self) -> dict[str, int]:
        return {nid: k for k, nid in enumerate(self.ids)}

    def index(self, ref: int | str) -> int:
        """Node index of an id or an integer index; UnknownNode for anything
        else, booleans included."""
        if isinstance(ref, str):
            k = self._id_index.get(ref, -1)
        elif isinstance(ref, bool) or not hasattr(ref, "__index__"):
            k = -1
        else:
            k = operator.index(ref)
        if not 0 <= k < self.n_nodes:
            raise UnknownNode(f"no node {ref!r} in the tree")
        return k

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

    def up(self, depth: int) -> np.ndarray:
        """Row of each depth-t node's parent within level t - 1 (t >= 1).

        A parent gather of a depth-(t-1) array is ``values[tree.up(t)]``.
        """
        if not 1 <= depth <= self.horizon:
            raise DepthMismatch(f"depth {depth} outside 1..{self.horizon}")
        return self.parents[self.span(depth)] - self.offsets[depth - 1]


def build_tree(
    raw_nodes: list[tuple[str, str | None, float]],
    dimension: int,
) -> ScenarioTree:
    """Validate a raw node list and build a :class:`ScenarioTree`.

    ``raw_nodes`` holds ``(id, parent_id_or_None, cond_prob)`` triples; the
    root's probability entry is ignored (taken as 1).  ``dimension`` is the
    state dimension at every node.  Each check names the first offending
    node in input order.
    """
    if not raw_nodes:
        raise CycleOrForest("empty node list")
    ids, parent_ids, probs = (list(col) for col in zip(*raw_nodes, strict=True))
    n = len(ids)

    position = {nid: k for k, nid in enumerate(ids)}
    if len(position) != n:
        dupes = sorted({nid for k, nid in enumerate(ids) if position[nid] != k})
        raise CycleOrForest(f"duplicate node ids: {dupes}")
    roots = [k for k, par in enumerate(parent_ids) if par is None]
    if len(roots) != 1:
        raise CycleOrForest(f"expected exactly one root, found {len(roots)}")
    # input position of each node's parent: -1 at the root, n if unknown
    parent = np.array([-1 if p is None else position.get(p, n) for p in parent_ids])
    if (bad := np.flatnonzero(parent == n)).size:
        k = bad[0]
        raise CycleOrForest(
            f"node {ids[k]!r} references unknown parent {parent_ids[k]!r}"
        )

    # Depths level by level; a node left at -1 is on a cycle or detached.
    depth = np.where(parent < 0, 0, -1)
    horizon = 0
    while (new := (depth < 0) & (depth[parent] == horizon)).any():
        horizon += 1
        depth[new] = horizon
    if (bad := np.flatnonzero(depth < 0)).size:
        missing = sorted(ids[k] for k in bad)
        raise CycleOrForest(f"nodes unreachable from root (cycle?): {missing}")

    if horizon < 1:
        raise RaggedDepth("tree must have horizon N >= 1")
    child = parent >= 0
    child_counts = np.bincount(parent[child], minlength=n)
    if (bad := np.flatnonzero((child_counts == 0) & (depth != horizon))).size:
        k = bad[0]
        raise RaggedDepth(f"leaf {ids[k]!r} at depth {depth[k]}, expected {horizon}")

    # Probabilities: strictly positive, children summing to one.
    probs[roots[0]] = 1.0
    cond = np.array(probs, dtype=float)
    if (bad := np.flatnonzero(~((0.0 < cond) & (cond <= 1.0)))).size:
        k = bad[0]
        raise BadProbability(f"node {ids[k]!r} has conditional probability {probs[k]}")
    sums = np.zeros(n)
    np.add.at(sums, parent[child], cond[child])  # in input order, as sum() adds
    off = (child_counts > 0) & (np.abs(sums - 1.0) > PROB_TOL)
    if (bad := np.flatnonzero(off)).size:
        k = bad[0]
        raise BadProbability(
            f"children of {ids[k]!r} have probabilities summing to {float(sums[k])!r}"
        )

    if dimension < 1:
        raise DimensionMismatch("state dimension must be positive")

    # Canonical node order: by depth, then input order.
    order = np.argsort(depth, kind="stable")
    parents = np.argsort(order)[parent[order]]
    parents[0] = -1  # the root
    depths, cond_prob = depth[order], cond[order]
    offsets = np.searchsorted(depths, np.arange(horizon + 2))
    prob = cond_prob.copy()
    for t in range(1, horizon + 1):
        lev = slice(offsets[t], offsets[t + 1])
        prob[lev] = prob[parents[lev]] * cond_prob[lev]
    child_counts = child_counts[order]
    for arr in (parents, depths, cond_prob, prob, offsets, child_counts):
        arr.flags.writeable = False

    return ScenarioTree(
        horizon=horizon,
        state_dim=int(dimension),
        ids=tuple(ids[k] for k in order.tolist()),
        parents=parents,
        depth=depths,
        cond_prob=cond_prob,
        prob=prob,
        offsets=offsets,
        child_counts=child_counts,
    )


@dataclass(frozen=True)
class AdaptedVector:
    """The date-t view of a whole-tree array: one row per depth-t node.

    ``depth`` may be ``N + 1`` (the F_{N+1} = F_N convention); the rows are
    then aligned with the leaves.  Rows are in node index order: row k of a
    depth-t vector belongs to node ``tree.span(t).start + k``.
    """

    depth: int
    values: np.ndarray  # shape (n_nodes_at_depth, dim)


@dataclass(frozen=True, eq=False)
class NodeArray:
    """Rows in node order, from node index ``first`` on, viewed date by date.

    ``np.asarray`` gives the whole array; ``[t]`` gives the depth-t rows as
    an :class:`AdaptedVector`.  A path is a NodeArray over every node; the
    price layers of a dual path start at node 1.
    """

    tree: ScenarioTree
    values: np.ndarray
    first: int = 0

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.values, dtype=dtype, copy=copy)

    def __getitem__(self, t: int) -> AdaptedVector:
        lev = self.tree.span(t)
        if lev.start < self.first:
            raise DepthMismatch(f"no rows at depth {t}")
        return AdaptedVector(t, self.values[lev.start - self.first:lev.stop - self.first])


def node_array(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``values`` as a float array, or ShapeMismatch unless it has ``shape``."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise ShapeMismatch(f"{what} must have shape {shape}, got {arr.shape}")
    return arr
