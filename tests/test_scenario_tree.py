"""Tree construction, probability algebra, and conditional expectations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vng
from vng.errors import (
    BadProbability,
    CycleOrForest,
    DepthMismatch,
    DimensionMismatch,
    RaggedDepth,
    UnknownNode,
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
        assert [n.node_id for n in tree.leaves()] == ["u", "d"]

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
            parent = tree.parent(node)
            assert tree.parents[node.index] == (-1 if parent is None else parent.index)
            assert tree.prob[node.index] == vng.node_probability(tree, node)
            assert tree.level_position(node) == node.index - tree.span(node.depth).start
        assert [n.node_id for n in tree.children("a")] == ["aa", "ab"]

    def test_unknown_node_lookup(self):
        tree = minimal_binary()
        with pytest.raises(UnknownNode):
            tree.node("missing")


class TestNodeProbability:
    def test_root_is_one(self):
        assert vng.node_probability(minimal_binary(), "r") == 1.0

    def test_child_probability(self):
        tree = vng.build_tree(
            [("r", None, 1.0), ("u", "r", 0.3), ("d", "r", 0.7)], 1
        )
        assert vng.node_probability(tree, "u") == pytest.approx(0.3, abs=TOL)

    def test_grandchild_product(self):
        raw = [("r", None, 1.0), ("a", "r", 0.5), ("b", "r", 0.5),
               ("aa", "a", 0.2), ("ab", "a", 0.8), ("ba", "b", 0.5), ("bb", "b", 0.5)]
        tree = vng.build_tree(raw, 1)
        assert vng.node_probability(tree, "aa") == pytest.approx(0.1, abs=TOL)

    def test_each_depth_sums_to_one(self):
        tree = three_level()
        for t in range(tree.horizon + 1):
            total = sum(vng.node_probability(tree, n) for n in tree.level(t))
            assert total == pytest.approx(1.0, abs=TOL)


class TestExpectation:
    def test_equiprobable_average(self):
        tree = minimal_binary()
        av = vng.AdaptedVector(1, np.array([[2.0], [4.0]]))
        assert vng.expectation(tree, av) == pytest.approx(3.0, abs=TOL)

    def test_constant_field(self):
        tree = three_level()
        av = vng.AdaptedVector.constant(tree, 2, np.array([3.25]))
        assert vng.expectation(tree, av) == pytest.approx(3.25, abs=TOL)

    def test_weighted_sum(self):
        raw = [("r", None, 1.0), ("a", "r", 0.2), ("b", "r", 0.3), ("c", "r", 0.5)]
        tree = vng.build_tree(raw, 1)
        av = vng.AdaptedVector(1, np.array([[1.0], [2.0], [3.0]]))
        assert vng.expectation(tree, av) == pytest.approx(2.3, abs=TOL)

    def test_depth_mismatch(self):
        tree = three_level()
        av = vng.AdaptedVector(1, np.array([[1.0]]))
        with pytest.raises(DepthMismatch):
            vng.expectation(tree, av)


class TestConditionalExpectation:
    def test_two_children_average(self):
        tree = minimal_binary()
        av = vng.AdaptedVector(1, np.array([[2.0], [4.0]]))
        out = vng.conditional_expectation(tree, av)
        assert out.depth == 0
        assert out.values[0, 0] == pytest.approx(3.0, abs=TOL)

    def test_deterministic_chain_is_identity(self):
        raw = [("r", None, 1.0), ("a", "r", 1.0), ("b", "a", 1.0)]
        tree = vng.build_tree(raw, 1)
        av = vng.AdaptedVector(2, np.array([[5.5]]))
        out = vng.conditional_expectation(tree, av)
        assert out.depth == 1
        assert out.values[0, 0] == pytest.approx(5.5, abs=TOL)

    def test_tower_property_three_levels(self):
        tree = three_level()
        rng = np.random.default_rng(3)
        av = vng.AdaptedVector(2, rng.normal(size=(4, 1)))
        direct = vng.expectation(tree, av)
        nested = vng.expectation(tree, vng.conditional_expectation(tree, av))
        assert nested == pytest.approx(direct, abs=TOL)

    def test_terminal_convention_returns_itself(self):
        tree = three_level()
        values = np.arange(4.0)[:, None]
        av = vng.AdaptedVector(tree.horizon + 1, values)
        out = vng.conditional_expectation(tree, av)
        assert out.depth == tree.horizon
        np.testing.assert_allclose(out.values, values)

    def test_interleaved_children_match_per_node_sums(self):
        raw = [("r", None, 1.0), ("a", "r", 0.3), ("b", "r", 0.7),
               ("ba", "b", 0.2), ("aa", "a", 0.5), ("bb", "b", 0.8),
               ("ab", "a", 0.5)]
        tree = vng.build_tree(raw, 2)
        av = vng.AdaptedVector(2, np.arange(8.0).reshape(4, 2))
        out = vng.conditional_expectation(tree, av)
        for node in tree.level(1):
            expected = sum(
                child.cond_prob * av.value_at(tree, child)
                for child in tree.children(node)
            )
            assert np.array_equal(out.value_at(tree, node), expected)

    def test_positivity_and_linearity(self):
        tree = three_level()
        rng = np.random.default_rng(8)
        a = vng.AdaptedVector(2, rng.uniform(0.0, 1.0, (4, 1)))
        b = vng.AdaptedVector(2, rng.uniform(0.0, 1.0, (4, 1)))
        ca = vng.conditional_expectation(tree, a)
        cb = vng.conditional_expectation(tree, b)
        combo = vng.AdaptedVector(2, 2.0 * a.values - 0.5 * b.values)
        ccombo = vng.conditional_expectation(tree, combo)
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
    data = np.resize(np.array(values), (len(tree.leaves()), 1))
    av = vng.AdaptedVector(2, data)
    direct = vng.expectation(tree, av)
    nested = vng.expectation(tree, vng.conditional_expectation(tree, av))
    assert nested == pytest.approx(direct, abs=1e-10)
