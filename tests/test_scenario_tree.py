"""Tree construction, probability algebra, and the per-date expectation oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vng
from oracles import (
    build_tree_loop,
    conditional_expectation,
    expectation,
    node_probability,
)
from vng.errors import (
    BadProbability,
    CycleOrForest,
    DepthMismatch,
    DimensionMismatch,
    RaggedDepth,
    UnknownNode,
    VngError,
)

TOL = 1e-12


def minimal_binary():
    return vng.build_tree(
        [("r", None, 1.0), ("u", "r", 0.5), ("d", "r", 0.5)], 1
    )


def three_level():
    raw = [("r", None, 1.0)]
    raw += [("a", "r", 0.3), ("b", "r", 0.7)]
    raw += [("aa", "a", 0.5), ("ab", "a", 0.5), ("ba", "b", 0.2), ("bb", "b", 0.8)]
    return vng.build_tree(raw, 1)


class TestBuildTree:
    def test_minimal_binary(self):
        tree = minimal_binary()
        assert tree.horizon == 1
        assert tree.n_nodes == 3
        assert tree.ids[tree.span(tree.horizon)] == ("u", "d")

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(BadProbability):
            vng.build_tree([("r", None, 1.0), ("u", "r", 0.6), ("d", "r", 0.6)], 1)

    def test_nonpositive_probability_rejected(self):
        with pytest.raises(BadProbability):
            vng.build_tree([("r", None, 1.0), ("u", "r", 0.0), ("d", "r", 1.0)], 1)

    def test_full_three_period_tree(self):
        raw = [("n0", None, 1.0)]
        count = 1
        level = ["n0"]
        for _ in range(3):
            new = []
            for parent in level:
                for _ in range(2):
                    nid = f"n{count}"
                    count += 1
                    raw.append((nid, parent, 0.5))
                    new.append(nid)
            level = new
        tree = vng.build_tree(raw, 1)
        assert tree.horizon == 3
        assert tree.n_nodes == 1 + 2 + 4 + 8

    def test_two_roots_rejected(self):
        with pytest.raises(CycleOrForest):
            vng.build_tree([("r", None, 1.0), ("s", None, 1.0)], 1)

    def test_unknown_parent_rejected(self):
        with pytest.raises(CycleOrForest):
            vng.build_tree([("r", None, 1.0), ("u", "ghost", 1.0)], 1)

    def test_ragged_leaf_rejected(self):
        raw = [
            ("r", None, 1.0),
            ("a", "r", 0.5), ("b", "r", 0.5),
            ("aa", "a", 1.0),
        ]
        with pytest.raises(RaggedDepth):
            vng.build_tree(raw, 1)

    @pytest.mark.parametrize("dimension", [0, -2])
    def test_nonpositive_dimension_rejected(self, dimension):
        with pytest.raises(DimensionMismatch):
            vng.build_tree(
                [("r", None, 1.0), ("u", "r", 0.5), ("d", "r", 0.5)], dimension
            )

    def test_level_layout(self):
        # children of a and b interleave in the input, so level 2 is not
        # grouped by parent
        raw = [("r", None, 1.0), ("a", "r", 0.3), ("b", "r", 0.7),
               ("ba", "b", 0.2), ("aa", "a", 0.5), ("bb", "b", 0.8),
               ("ab", "a", 0.5)]
        tree = vng.build_tree(raw, 2)
        assert tree.state_dim == 2
        assert [n.node_id for n in tree.nodes] == [nid for nid, _, _ in raw]
        for t in range(tree.horizon + 1):
            lev = tree.span(t)
            assert [n.index for n in tree.level(t)] == list(range(lev.start, lev.stop))
            assert tree.indices(t).tolist() == list(range(lev.start, lev.stop))
            assert all(n.depth == t for n in tree.level(t))
        assert tree.up(1).tolist() == [0, 0]
        assert tree.up(2).tolist() == [1, 0, 1, 0]
        for node in tree.nodes:
            k = node.index
            assert tree.prob[k] == node_probability(tree, k)
            assert tree.indices(node.depth)[k - tree.span(node.depth).start] == k
            assert tree.child_counts[k] == np.count_nonzero(tree.parents == k)
        kids = np.flatnonzero(tree.parents == tree.index("a"))
        assert [tree.ids[k] for k in kids] == ["aa", "ab"]
        assert not tree.child_counts.flags.writeable
        assert tree.ids == ("r", "a", "b", "ba", "aa", "bb", "ab")
        assert tree.n_leaves == len(tree.level(tree.horizon)) == 4
        for k, node in enumerate(tree.nodes):  # the Node view reads the arrays
            parent = int(tree.parents[k])
            assert node == vng.Node(
                k, tree.ids[k], None if parent < 0 else parent,
                int(tree.depth[k]), float(tree.cond_prob[k]),
            )
            assert type(node.depth) is int and type(node.cond_prob) is float

    def test_unknown_node_lookup(self):
        tree = minimal_binary()
        for ref in ("missing", 3, -1, True, False, np.True_, None, 1.5,
                    np.float64(1.0), [1], tree.nodes[2]):
            with pytest.raises(UnknownNode):
                tree.index(ref)

    def test_node_refs(self):
        tree = minimal_binary()
        for ref in ("d", 2, np.int64(2)):
            assert tree.index(ref) == 2
            assert tree.nodes[tree.index(ref)].node_id == "d"


class TestNodeProbability:
    def test_root_is_one(self):
        assert node_probability(minimal_binary(), "r") == 1.0

    def test_child_probability(self):
        tree = vng.build_tree(
            [("r", None, 1.0), ("u", "r", 0.3), ("d", "r", 0.7)], 1
        )
        assert node_probability(tree, "u") == pytest.approx(0.3, abs=TOL)

    def test_grandchild_product(self):
        raw = [("r", None, 1.0), ("a", "r", 0.5), ("b", "r", 0.5),
               ("aa", "a", 0.2), ("ab", "a", 0.8), ("ba", "b", 0.5), ("bb", "b", 0.5)]
        tree = vng.build_tree(raw, 1)
        assert node_probability(tree, "aa") == pytest.approx(0.1, abs=TOL)

    def test_each_depth_sums_to_one(self):
        tree = three_level()
        for t in range(tree.horizon + 1):
            total = sum(node_probability(tree, k) for k in tree.indices(t))
            assert total == pytest.approx(1.0, abs=TOL)


class TestExpectation:
    def test_equiprobable_average(self):
        tree = minimal_binary()
        av = vng.AdaptedVector(1, np.array([[2.0], [4.0]]))
        assert expectation(tree, av) == pytest.approx(3.0, abs=TOL)

    def test_constant_field(self):
        tree = three_level()
        av = vng.AdaptedVector(2, np.full((4, 1), 3.25))
        assert expectation(tree, av) == pytest.approx(3.25, abs=TOL)

    def test_weighted_sum(self):
        raw = [("r", None, 1.0), ("a", "r", 0.2), ("b", "r", 0.3), ("c", "r", 0.5)]
        tree = vng.build_tree(raw, 1)
        av = vng.AdaptedVector(1, np.array([[1.0], [2.0], [3.0]]))
        assert expectation(tree, av) == pytest.approx(2.3, abs=TOL)

    def test_depth_mismatch(self):
        tree = three_level()
        av = vng.AdaptedVector(1, np.array([[1.0]]))
        with pytest.raises(DepthMismatch):
            expectation(tree, av)


class TestConditionalExpectation:
    def test_two_children_average(self):
        tree = minimal_binary()
        av = vng.AdaptedVector(1, np.array([[2.0], [4.0]]))
        out = conditional_expectation(tree, av)
        assert out.depth == 0
        assert out.values[0, 0] == pytest.approx(3.0, abs=TOL)

    def test_deterministic_chain_is_identity(self):
        raw = [("r", None, 1.0), ("a", "r", 1.0), ("b", "a", 1.0)]
        tree = vng.build_tree(raw, 1)
        av = vng.AdaptedVector(2, np.array([[5.5]]))
        out = conditional_expectation(tree, av)
        assert out.depth == 1
        assert out.values[0, 0] == pytest.approx(5.5, abs=TOL)

    def test_tower_property_three_levels(self):
        tree = three_level()
        rng = np.random.default_rng(3)
        av = vng.AdaptedVector(2, rng.normal(size=(4, 1)))
        direct = expectation(tree, av)
        nested = expectation(tree, conditional_expectation(tree, av))
        assert nested == pytest.approx(direct, abs=TOL)

    def test_terminal_convention_returns_itself(self):
        tree = three_level()
        values = np.arange(4.0)[:, None]
        av = vng.AdaptedVector(tree.horizon + 1, values)
        out = conditional_expectation(tree, av)
        assert out.depth == tree.horizon
        np.testing.assert_allclose(out.values, values)

    def test_interleaved_children_match_per_node_sums(self):
        raw = [("r", None, 1.0), ("a", "r", 0.3), ("b", "r", 0.7),
               ("ba", "b", 0.2), ("aa", "a", 0.5), ("bb", "b", 0.8),
               ("ab", "a", 0.5)]
        tree = vng.build_tree(raw, 2)
        av = vng.AdaptedVector(2, np.arange(8.0).reshape(4, 2))
        out = conditional_expectation(tree, av)
        for pos, node in enumerate(tree.level(1)):
            expected = sum(
                tree.cond_prob[child] * av.values[child - tree.span(2).start]
                for child in np.flatnonzero(tree.parents == node.index)
            )
            assert np.array_equal(out.values[pos], expected)

    def test_positivity_and_linearity(self):
        tree = three_level()
        rng = np.random.default_rng(8)
        a = vng.AdaptedVector(2, rng.uniform(0.0, 1.0, (4, 1)))
        b = vng.AdaptedVector(2, rng.uniform(0.0, 1.0, (4, 1)))
        ca = conditional_expectation(tree, a)
        cb = conditional_expectation(tree, b)
        combo = vng.AdaptedVector(2, 2.0 * a.values - 0.5 * b.values)
        ccombo = conditional_expectation(tree, combo)
        np.testing.assert_allclose(
            ccombo.values, 2.0 * ca.values - 0.5 * cb.values, atol=TOL
        )
        assert (ca.values >= 0.0).all()


@settings(max_examples=40, deadline=None)
@given(
    probs=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=4),
    values=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
)
def test_tower_property_hypothesis(probs, values):
    """E[E_t[X]] = E[X] on a two-level tree with arbitrary branch weights."""
    weights = np.array(probs) / np.sum(probs)
    raw = [("r", None, 1.0)]
    raw += [(f"c{k}", "r", float(w)) for k, w in enumerate(weights)]
    leaf_probs = [0.25, 0.75]
    for k in range(len(weights)):
        raw += [(f"c{k}{j}", f"c{k}", p) for j, p in enumerate(leaf_probs)]
    tree = vng.build_tree(raw, 1)
    data = np.resize(np.array(values), (tree.n_leaves, 1))
    av = vng.AdaptedVector(2, data)
    direct = expectation(tree, av)
    nested = expectation(tree, conditional_expectation(tree, av))
    assert nested == pytest.approx(direct, abs=1e-10)


DEFECTS = [
    None, "empty", "duplicate", "no root", "two roots", "unknown parent", "cycle",
    "horizon 0", "extra child", "reparent", "bad probability", "sum off",
    "root probability", "dimension",
]


@st.composite
def raw_trees(draw):
    """(raw_nodes, dimension, defect): a random tree in shuffled input order,
    valid or with one defect."""
    horizon = draw(st.integers(1, 3))
    raw, level = [[0, None, 1.0]], [0]
    for _ in range(horizon):
        nxt = []
        for par in level:
            w = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3))
            for x in w:
                nxt.append(len(raw))
                raw.append([len(raw), par, x / sum(w)])
        level = nxt
    names = draw(st.lists(st.text("abxy", min_size=1, max_size=4),
                          min_size=len(raw), max_size=len(raw), unique=True))
    raw = [[names[k], None if par is None else names[par], p] for k, par, p in raw]
    raw = draw(st.permutations(raw))
    pick = lambda: draw(st.integers(0, len(raw) - 1))  # noqa: E731
    non_root = [k for k, (_, par, _) in enumerate(raw) if par is not None]
    k = draw(st.sampled_from(non_root))
    root = next(j for j, (_, par, _) in enumerate(raw) if par is None)
    defect = draw(st.sampled_from(DEFECTS))
    if defect == "empty":
        raw = []
    elif defect == "duplicate":
        other = draw(st.sampled_from([j for j in range(len(raw)) if j != k]))
        raw[k][0] = raw[other][0]
    elif defect == "no root":
        raw[root][1] = raw[k][0]
    elif defect == "two roots":
        raw[k][1] = None
    elif defect == "unknown parent":
        raw[k][1] = "ghost"
    elif defect == "cycle":  # k's parent becomes k or one of its descendants
        below, grew = {raw[k][0]}, True
        while grew:
            more = {nid for nid, par, _ in raw if par in below}
            grew, below = not more <= below, below | more
        raw[k][1] = draw(st.sampled_from(sorted(below)))
    elif defect == "horizon 0":
        raw = [raw[root]]
    elif defect == "extra child":  # under a leaf this makes the tree ragged
        raw.insert(pick(), ["new", raw[pick()][0], 1.0])
    elif defect == "reparent":
        raw[k][1] = raw[pick()][0]
    elif defect == "bad probability":
        raw[k][2] = draw(st.sampled_from([0.0, -0.25, 1.5, np.nan, np.inf, -np.inf]))
    elif defect == "sum off":  # beyond or within the 1e-12 tolerance
        raw[k][2] *= 1.0 + draw(st.sampled_from([-1e-6, -3e-12, 5e-13, 3e-12, 1e-6]))
    elif defect == "root probability":  # ignored: the root's is taken as 1
        raw[root][2] = draw(st.sampled_from([0.0, np.nan, 7.0]))
    dimension = draw(st.sampled_from([0, -1])) if defect == "dimension" else 2
    return [tuple(entry) for entry in raw], dimension, defect


@settings(max_examples=500, deadline=None)
@given(case=raw_trees())
def test_build_tree_matches_the_loop_builder(case):
    """The whole-array builder stores the loop builder's arrays bit for bit,
    or raises the same error with the same message."""
    raw, dimension, defect = case
    try:
        want = build_tree_loop(raw, dimension)
    except VngError as exc:
        with pytest.raises(VngError) as got:
            vng.build_tree(raw, dimension)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    assert defect in (None, "sum off", "root probability", "reparent", "extra child")
    tree = vng.build_tree(raw, dimension)
    assert (tree.horizon, tree.state_dim, tree.ids) == (
        want["horizon"], want["state_dim"], want["ids"]
    )
    for name in ("parents", "depth", "cond_prob", "prob", "offsets", "child_counts"):
        got = getattr(tree, name)
        assert got.dtype == want[name].dtype and got.tobytes() == want[name].tobytes()
        assert not got.flags.writeable
