"""Margin cones, self-financing transitions, lifts, and the (B2) constants."""

import numpy as np
import pytest

import vng
from conftest import (
    identical_assets_market,
    kelly_problem,
    make_instance,
    two_asset_margin_market,
)
from oracles import (
    frontier_bisection,
    lift_contains,
    lift_X,
    on_margin_boundary,
    section_grid_min,
)
from vng.errors import (
    DimensionMismatch,
    MarginTooTight,
    NonpositivePrice,
    NotInCone,
    PreconditionViolated,
    ShapeMismatch,
    UnknownNode,
)
from vng.market_model import section_vertices, transition_frontier_batch

MEMBER_TOL = 1e-9


def frictionless_market(m, returns_by_node, margins, probs=None):
    """Single-period helper: root plus one leaf per returns entry."""
    k = len(returns_by_node)
    probs = probs or [1.0 / k] * k
    raw = [("r", None, 1.0)] + [
        (f"l{j}", "r", probs[j]) for j in range(k)
    ]
    tree = vng.build_tree(raw, m)
    ret = np.full((tree.n_nodes, m), np.nan)
    for j, row in enumerate(returns_by_node):
        ret[tree.index(f"l{j}")] = row
    return tree, vng.MarketData(
        tree=tree, m=m, returns=ret,
        lam_plus=np.zeros((tree.n_nodes, m)),
        lam_minus=np.zeros((tree.n_nodes, m)),
        margins=np.asarray(margins, dtype=float),
    )


class TestReturnsFromPrices:
    def test_single_step(self):
        tree = vng.build_tree([("r", None, 1.0), ("u", "r", 1.0)], 1)
        prices = np.array([[100.0], [110.0]])
        out = vng.returns_from_prices(tree, prices)
        assert out[tree.index("u"), 0] == pytest.approx(1.1)

    def test_constant_prices_give_unit_returns(self):
        tree = vng.build_tree([("r", None, 1.0), ("u", "r", 1.0)], 2)
        prices = np.array([[50.0, 20.0], [50.0, 20.0]])
        out = vng.returns_from_prices(tree, prices)
        np.testing.assert_allclose(out[tree.index("u")], [1.0, 1.0])

    def test_componentwise(self):
        tree = vng.build_tree([("r", None, 1.0), ("u", "r", 1.0)], 2)
        prices = np.array([[100.0, 50.0], [90.0, 55.0]])
        out = vng.returns_from_prices(tree, prices)
        np.testing.assert_allclose(out[tree.index("u")], [0.9, 1.1])

    def test_nonpositive_price_rejected(self):
        tree = vng.build_tree([("r", None, 1.0), ("u", "r", 1.0)], 1)
        with pytest.raises(NonpositivePrice):
            vng.returns_from_prices(tree, np.array([[100.0], [0.0]]))


class TestMarketDataChecks:
    """A nan or infinite return, cost rate or margin, and an asset count that
    is not the tree's state dimension, are refused at construction."""

    @pytest.mark.parametrize("name, value, error", [
        ("returns", np.nan, NonpositivePrice),
        ("returns", np.inf, NonpositivePrice),
        ("lam_plus", np.nan, ValueError),
        ("lam_minus", np.nan, ValueError),
        ("lam_minus", np.inf, ValueError),
        ("margins", np.inf, MarginTooTight),
    ])
    def test_non_finite_entry_raises(self, name, value, error):
        tree = vng.build_tree([("r", None, 1.0), ("u", "r", 0.5), ("d", "r", 0.5)], 2)
        data = {
            "returns": np.array([[np.nan, np.nan], [1.1, 0.9], [0.9, 1.1]]),
            "lam_plus": np.zeros((3, 2)),
            "lam_minus": np.zeros((3, 2)),
            "margins": np.array([1.5, 1.5]),
        }
        data[name].flat[-1] = value  # a non-root node's entry, or the last date's
        with pytest.raises(error):
            vng.MarketData(tree=tree, m=2, **data)

    def test_asset_count_off_the_state_dimension_raises(self):
        tree = vng.build_tree([("r", None, 1.0), ("u", "r", 0.5), ("d", "r", 0.5)], 1)
        with pytest.raises(DimensionMismatch, match="state dimension 1"):
            vng.MarketData(
                tree=tree, m=2,
                returns=np.array([[np.nan, np.nan], [1.1, 0.9], [0.9, 1.1]]),
                lam_plus=np.zeros((3, 2)), lam_minus=np.zeros((3, 2)),
                margins=np.array([1.5, 1.5]),
            )


class TestMarginResidual:
    def test_long_covers_short(self):
        _, market = frictionless_market(2, [[1.0, 1.0]], [1.5, 1.5])
        assert vng.margin_residual(market, [[3.0, -1.0]], [0])[0] == pytest.approx(1.5)

    def test_short_too_large(self):
        _, market = frictionless_market(2, [[1.0, 1.0]], [1.5, 1.5])
        assert vng.margin_residual(market, [[1.0, -1.0]], [0])[0] == pytest.approx(-0.5)

    def test_nonnegative_orthant_always_member(self):
        market = two_asset_margin_market()
        rng = np.random.default_rng(0)
        A = rng.uniform(0.0, 2.0, (market.tree.n_nodes, 2))
        resid = vng.margin_residual(market, A, np.arange(market.tree.n_nodes))
        np.testing.assert_allclose(resid, np.vecdot(market.Lp, A))
        assert (resid >= 0.0).all()


class TestSelfFinancing:
    def test_frictionless_rebalance_at_par(self):
        _, market = frictionless_market(2, [[1.1, 0.9]], [1.5, 1.5])
        psi = vng.self_financing_value(market, [[1.0, 1.0]], [[1.0, 1.0]], [1])
        assert psi[0] == pytest.approx(0.0, abs=1e-15)

    def test_costs_make_par_rebalance_lossy(self):
        # 1% both ways on the same (1.1, 0.9) move: 0.99*0.1 - 1.01*0.1
        tree = vng.build_tree([("r", None, 1.0), ("l", "r", 1.0)], 2)
        ret = np.array([[np.nan, np.nan], [1.1, 0.9]])
        market = vng.MarketData(
            tree=tree, m=2, returns=ret,
            lam_plus=np.full((2, 2), 0.01), lam_minus=np.full((2, 2), 0.01),
            margins=np.array([1.5, 1.5]),
        )
        psi = vng.self_financing_value(market, [[1.0, 1.0]], [[1.0, 1.0]], [1])
        assert psi[0] == pytest.approx(-0.002, abs=1e-15)

    def test_liquidation_is_admissible_from_any_member(self):
        market = two_asset_margin_market()
        rng = np.random.default_rng(1)
        for node in market.tree.nodes:
            if node.parent is None:
                continue
            nodes = np.full(50, node.index)
            A = vng.sample_cone_batch(market, market.tree.parents[nodes], rng)
            psi = vng.self_financing_value(market, A, np.zeros_like(A), nodes)
            assert np.all(psi >= -MEMBER_TOL)


def _psi_min_form(market, A, B, nodes):
    """psi as the frontier evaluates it: sum_j min(Lp_j d_j, Lm_j d_j)."""
    diff = A * market.returns[nodes] - B
    return np.minimum(market.Lp[nodes] * diff, market.Lm[nodes] * diff).sum(axis=1)


class TestTransitionFrontier:
    """The closed-form frontier against 60-step bisection on random draws."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 5, 6])
    def test_matches_bisection_and_stays_feasible(self, seed):
        problem = make_instance(seed)
        market, tree = problem.market, problem.tree
        rng = np.random.default_rng(seed)
        nodes = rng.permutation(np.repeat(np.arange(1, tree.n_nodes), 40))
        A = vng.sample_cone_batch(market, tree.parents[nodes], rng)
        D = vng.sample_cone_batch(market, nodes, rng)
        D[::9] = 0.0
        c = transition_frontier_batch(market, A, D, nodes)
        ref = frontier_bisection(market, A, D, nodes)
        assert np.all(c >= 0.0)
        assert np.all(_psi_min_form(market, A, c[:, None] * D, nodes) >= 0.0)
        assert np.all(c[::9] == 0.0)
        np.testing.assert_allclose(c, ref, rtol=1e-12, atol=0.0)
        # maximal: a relative step of 1e-9 past an uncapped root is infeasible
        K = market.constants.K[tree.depth[nodes]]
        norm_a, norm_d = np.abs(A).sum(axis=1), np.abs(D).sum(axis=1)
        uncapped = (norm_d > 0.0) & (c < 2.0 * K * norm_a / np.where(norm_d > 0, norm_d, 1.0))
        assert uncapped.sum() > 0.5 * len(c)
        past = (1.0 + 1e-9) * c[uncapped, None] * D[uncapped]
        assert np.all(_psi_min_form(market, A[uncapped], past, nodes[uncapped]) < 0.0)

    def test_frontier_points_are_members_without_tolerance(self):
        """psi rounds one way: in_Z(tol=0) accepts every frontier point."""
        for seed in range(50):
            problem = make_instance(seed)
            market, tree = problem.market, problem.tree
            rng = np.random.default_rng(seed)
            nodes = np.repeat(np.arange(1, tree.n_nodes), 10)
            A = vng.sample_cone_batch(market, tree.parents[nodes], rng)
            D = vng.sample_cone_batch(market, nodes, rng)
            B = transition_frontier_batch(market, A, D, nodes)[:, None] * D
            res = vng.in_Z(market, A, B, nodes, tol=0.0)
            assert res.member.all(), f"seed {seed}: psi {res.psi[~res.member]}"


class TestFixedFractionPath:
    def test_weights_without_finite_norm_are_refused(self):
        problem = kelly_problem()
        args = problem.tree, problem.market, problem.x0
        # homogeneity: a huge but summable weight vector spends the same frontier
        unit = vng.fixed_fraction_path(*args, [1.0, 1.0])
        assert np.array_equal(vng.fixed_fraction_path(*args, [1e300, 1e300]), unit)
        for weights in ([1e308, 1e308], [np.inf, 1.0], [np.nan, 1.0]):
            with pytest.raises(PreconditionViolated, match="fixed-fraction weights"):
                vng.fixed_fraction_path(*args, weights)


class TestInZ:
    def test_liquidation_pair_is_member(self):
        market = two_asset_margin_market()
        rng = np.random.default_rng(2)
        node = market.tree.nodes[market.tree.index("aa")]
        a = vng.sample_cone_batch(market, market.tree.parents[[node.index]], rng)
        res = vng.in_Z(market, a, np.zeros_like(a), [node.index])
        assert res.member.all()

    def test_full_reinvestment_single_asset(self):
        _, market = frictionless_market(1, [[1.2]], [1.5, 1.5])
        res = vng.in_Z(market, [[1.0]], [[1.2]], [1])
        assert res.member.all()
        assert res.psi[0] == pytest.approx(0.0, abs=1e-15)

    def test_cone_homogeneity_doubles_residuals(self):
        market = two_asset_margin_market()
        rng = np.random.default_rng(3)
        node = market.tree.nodes[market.tree.index("ab")]
        a, b = vng.sample_transition_pairs(market, [node.index], rng)
        r1 = vng.in_Z(market, a, b, [node.index])
        r2 = vng.in_Z(market, 2.0 * a, 2.0 * b, [node.index])
        assert r2.member.all()
        assert r2.parent_margin == pytest.approx(2.0 * r1.parent_margin, rel=1e-12)
        assert r2.child_margin == pytest.approx(2.0 * r1.child_margin, rel=1e-12)
        assert r2.psi == pytest.approx(2.0 * r1.psi, rel=1e-12, abs=1e-15)


class TestConeAxioms:
    """Scaling and convex combinations stay in the cones (sampled)."""

    def test_membership_closed_under_cone_operations(self):
        market = two_asset_margin_market()
        rng = np.random.default_rng(4)
        node = [market.tree.index("ba")]
        failures = 0
        for _ in range(1000):
            a1, b1 = vng.sample_transition_pairs(market, node, rng)
            a2, b2 = vng.sample_transition_pairs(market, node, rng)
            lam = rng.uniform(0.0, 4.0)
            th = rng.uniform(0.0, 1.0)
            scaled = vng.in_Z(market, lam * a1, lam * b1, node)
            mixed = vng.in_Z(
                market,
                th * a1 + (1 - th) * a2,
                th * b1 + (1 - th) * b2,
                node,
            )
            if not (scaled.member[0] and mixed.member[0]):
                failures += 1
        assert failures == 0

    def test_pointedness(self):
        market = two_asset_margin_market()
        rng = np.random.default_rng(5)
        nodes = np.full(200, market.tree.index("a"))
        A = vng.sample_cone_batch(market, nodes, rng)
        A = on_margin_boundary(market, A, nodes)
        nonzero = np.abs(A).sum(axis=1) >= 1e-12
        assert np.all(vng.margin_residual(market, -A[nonzero], nodes[nonzero]) < 0.0)


class TestLifts:
    def test_lift_x_agrees_with_margin_residual(self):
        market = two_asset_margin_market()
        rng = np.random.default_rng(6)
        node = market.tree.nodes[market.tree.index("a")]
        lift = lift_X(market, node.index)
        checked = 0
        for _ in range(1000):
            if rng.random() < 0.5:
                a = vng.sample_cone_batch(market, [node.index], rng)[0]
            else:
                a = rng.normal(scale=1.0, size=2)
            resid = vng.margin_residual(market, [a], [node.index])[0]
            if abs(resid) < 1e-7:
                continue
            assert lift_contains(lift, a) == (resid > 0)
            checked += 1
        assert checked > 900

    def test_lift_z_agrees_with_in_z(self):
        market = two_asset_margin_market()
        rng = np.random.default_rng(7)
        node = market.tree.nodes[market.tree.index("ab")]
        lift = vng.lift_Z(market, node.index)
        agree = 0
        for _ in range(1300):
            a = vng.sample_cone_batch(market, market.tree.parents[[node.index]], rng)[0]
            direction = vng.sample_cone_batch(market, [node.index], rng)[0]
            c_star = transition_frontier_batch(market, [a], [direction], [node.index])[0]
            b = rng.uniform(0.0, 1.6) * c_star * direction
            if rng.random() < 0.3:
                b = b - rng.uniform(0.1, 0.5) * np.abs(b).sum() * np.ones(2)
            verdict = vng.in_Z(market, [a], [b], [node.index], tol=0.0)
            margin = min(verdict.parent_margin[0], verdict.child_margin[0], verdict.psi[0])
            if abs(margin) < 1e-7:
                continue
            assert lift_contains(lift, np.concatenate([a, b])) == verdict.member[0]
            agree += 1
        assert agree > 1000

    def test_zero_vector_in_lift(self):
        market = two_asset_margin_market()
        assert lift_contains(lift_X(market, "a"), np.zeros(2))

    def test_nonnegative_orthant_in_lift(self):
        market = two_asset_margin_market()
        lift = lift_X(market, "b")
        rng = np.random.default_rng(8)
        for _ in range(20):
            assert lift_contains(lift, rng.uniform(0.0, 3.0, 2))


def test_node_callers_reject_refs_that_are_no_node():
    """Every per-node entry point resolves its node through the tree: a bool
    (which would read as index 1), None, a float or a Node record raises
    UnknownNode.  The row functions read a vector of node indices the same
    way: a boolean or a fraction in it (which would truncate) raises, an
    empty list is valid."""
    problem = kelly_problem()
    market, a = problem.market, np.ones(2)
    for ref in (True, None, 2.0, "nowhere", 9, problem.tree.nodes[1]):
        with pytest.raises(UnknownNode):
            vng.lift_Z(market, ref)
        with pytest.raises(UnknownNode):
            vng.dual_cone_violation(market, a, a, ref)
    a = np.ones((1, 2))
    for rows in ([True], [1.9], [1.5], np.array([2.0]), ["mid"], [[1]], [[1], 2],
                 [9], [-1]):
        with pytest.raises(UnknownNode):
            vng.margin_residual(market, a, rows)
        with pytest.raises(UnknownNode):
            vng.self_financing_value(market, a, a, rows)
        with pytest.raises(UnknownNode):
            vng.transition_frontier_batch(market, a, a, rows)
        with pytest.raises(UnknownNode):
            vng.in_Z(market, a, a, rows)
    empty = np.ones((0, 2))
    assert vng.margin_residual(market, empty, []).shape == (0,)
    assert vng.in_Z(market, empty, empty, []).member.shape == (0,)
    assert vng.margin_residual(market, a, np.array([1], dtype=np.uint8)).shape == (1,)


class TestDualConeViolation:
    def test_frictionless_tight_price_has_no_violation(self):
        _, market = frictionless_market(1, [[1.25]], [1.5, 1.5])
        check = vng.dual_cone_violation(
            market, np.array([1.0]), np.array([1.0 / 1.25]), "l0"
        )
        assert abs(check.value) <= 1e-9

    def test_zero_future_price_no_violation(self):
        market = two_asset_margin_market()
        check = vng.dual_cone_violation(
            market, np.array([1.0, 1.0]), np.zeros(2), "aa"
        )
        assert check.value <= 1e-12

    def test_doubled_price_violates_by_known_amount(self):
        R = 1.25
        _, market = frictionless_market(1, [[R]], [1.5, 1.5])
        check = vng.dual_cone_violation(
            market, np.array([1.0]), np.array([2.0 / R]), "l0"
        )
        assert check.value == pytest.approx(1.0 / (1.0 + R), abs=1e-8)
        assert check.witness_a is not None

    @pytest.mark.parametrize("k", [1, -1, 10, -10, 500, -500])
    def test_value_scales_exactly_with_the_prices(self, k):
        """The LP value is positively homogeneous in (p, p_bar), and the LP
        runs at one power-of-two scale: prices times 2^k give exactly 2^k
        times the value, and the same witness pair."""
        market = two_asset_margin_market()
        p, p_bar = np.array([1.0, 0.9]), np.array([1.3, 0.7])
        base = vng.dual_cone_violation(market, p, p_bar, "aa", tol=-np.inf)
        assert base.value > 0.1
        c = 2.0 ** k
        scaled = vng.dual_cone_violation(market, c * p, c * p_bar, "aa", tol=-np.inf)
        assert scaled.value == c * base.value
        assert np.array_equal(scaled.witness_a, base.witness_a)
        assert np.array_equal(scaled.witness_b, base.witness_b)

    def test_dual_cone_residual_matches_lp_membership(self):
        market = two_asset_margin_market()
        rng = np.random.default_rng(9)
        node = market.tree.nodes[market.tree.index("a")]
        for _ in range(200):
            p = rng.normal(size=2)
            resid = vng.dual_cone_residual(market, [p], [node.index])[0]
            if abs(resid) < 1e-8:
                continue
            # p in X* iff min over sampled members of p.a is nonnegative
            nodes = np.full(200, node.index)
            rows = vng.sample_cone_batch(market, nodes, rng)
            worst = float((on_margin_boundary(market, rows, nodes) @ p).min())
            if resid > 0:
                assert worst >= -1e-9
            else:
                sampled_min = min(
                    float(p @ v) for v in section_vertices(
                        market.Lp[[node.index]],
                        market.margins[node.depth] * market.Lm[[node.index]],
                    )[0]
                )
                assert sampled_min < 0


class TestFeasibleCompletion:
    def test_zero_maps_to_zero(self):
        market = two_asset_margin_market()
        aa = [market.tree.index("aa")]
        b = vng.feasible_completion(market, [np.zeros(2)], aa)
        np.testing.assert_allclose(b, np.zeros((1, 2)))

    def test_ones_completion_size_and_membership(self):
        market = two_asset_margin_market()
        constants = market.constants
        node = market.tree.nodes[market.tree.index("ba")]
        a = np.ones(2)
        b = vng.feasible_completion(market, [a], [node.index])
        assert np.abs(b).sum() == pytest.approx(
            constants.C2[node.depth] / 2.0 * np.abs(a).sum()
        )
        assert vng.in_Z(market, [a], b, [node.index]).member.all()

    def test_property_over_samples(self):
        market = two_asset_margin_market()
        rng = np.random.default_rng(10)
        nodes = np.full(500, market.tree.index("bb"))
        A = vng.sample_cone_batch(market, market.tree.parents[nodes], rng)
        B = vng.feasible_completion(market, A, nodes)
        assert vng.in_Z(market, A, B, nodes).member.all()

    def test_rejects_nonmember(self):
        market = two_asset_margin_market()
        with pytest.raises(NotInCone):
            vng.feasible_completion(
                market, [[1.0, -1.0]], [market.tree.index("aa")]
            )


class TestSlaterPath:
    def test_single_asset_strictly_positive(self):
        _, market = frictionless_market(1, [[1.2], [0.9]], [1.5, 1.5], [0.5, 0.5])
        witness = vng.slater_path(market.tree, market)
        assert all(v[0] > 0 for v in witness.values)
        assert all(s > 0 for s in witness.psi_slack[1:])
        assert all(r > 0 for r in witness.radii)

    def test_margin_market_path_exists(self):
        market = two_asset_margin_market()
        witness = vng.slater_path(market.tree, market)
        for t in range(1, market.tree.horizon + 1):
            lev = market.tree.indices(t)
            res = vng.in_Z(
                market, np.tile(witness.values[t - 1], (len(lev), 1)),
                np.tile(witness.values[t], (len(lev), 1)), lev, tol=0.0,
            )
            assert res.member.all() and (res.psi > 0).all()

    def test_perturbations_stay_inside(self):
        market = two_asset_margin_market()
        witness = vng.slater_path(market.tree, market)
        rng = np.random.default_rng(11)
        for t in range(market.tree.horizon + 1):
            for _ in range(200):
                e = rng.normal(size=2)
                e *= rng.uniform(0.0, 1.0) * witness.radii[t] / np.abs(e).sum()
                lev = market.tree.indices(t)
                resid = vng.margin_residual(
                    market, np.tile(witness.values[t] + e, (len(lev), 1)), lev
                )
                assert (resid >= -1e-12).all()

    def test_too_tight_margin_raises(self):
        tree = vng.build_tree(
            [("r", None, 1.0), ("u", "r", 0.5), ("d", "r", 0.5)], 1
        )
        ret = np.array([[np.nan], [1.4], [0.7]])
        with pytest.raises(MarginTooTight):
            market = vng.MarketData(
                tree=tree, m=1, returns=ret,
                lam_plus=np.zeros((3, 1)), lam_minus=np.zeros((3, 1)),
                margins=np.array([1.5, 1.5]),
            )
            vng.slater_path(tree, market)


class TestDominatingPath:
    def _relaxed_from_slater(self, market, shrink):
        """v_t and u_t constant per date: the Slater witness and its shrink."""
        tree = market.tree
        witness = vng.slater_path(tree, market)
        depth = tree.depth
        vs = np.array(witness.values)[depth]
        us = shrink * np.array(witness.values)[depth[1:] - 1]
        u_terminal = np.tile(shrink * witness.values[tree.horizon], (tree.n_leaves, 1))
        return vs, us, u_terminal

    def test_path_input_reproduces_path_property(self):
        market = two_asset_margin_market()
        vs, us, u_terminal = self._relaxed_from_slater(market, 1.0)
        ys = vng.dominating_path(market.tree, market, vs, us, u_terminal)
        resid = vng.margin_residual(market, ys - vs, np.arange(market.tree.n_nodes))
        assert (resid >= -MEMBER_TOL).all()

    def test_half_slater_sequence_dominated(self):
        market = two_asset_margin_market()
        vs, us, u_terminal = self._relaxed_from_slater(market, 0.5)
        ys = vng.dominating_path(market.tree, market, vs, us, u_terminal)
        tree = market.tree
        idx = np.arange(1, tree.n_nodes)
        assert vng.in_Z(market, ys[tree.parents[idx]], ys[idx], idx).member.all()

    def test_violated_precondition_raises(self):
        market = two_asset_margin_market()
        # v_{t-1} - u_t leaves cone
        vs, us, u_terminal = self._relaxed_from_slater(market, 3.0)
        with pytest.raises(PreconditionViolated):
            vng.dominating_path(market.tree, market, vs, us, u_terminal)

    def test_inputs_of_wrong_shape_raise(self):
        market = two_asset_margin_market()
        vs, us, u_terminal = self._relaxed_from_slater(market, 0.5)
        for bad in ((vs[1:], us, u_terminal), (vs, us[1:], u_terminal),
                    (vs, us, u_terminal[1:])):
            with pytest.raises(ShapeMismatch):
                vng.dominating_path(market.tree, market, *bad)


class TestMarketConstants:
    def test_nu_formula_frozen_value(self):
        # lam = 0.02 both ways, returns spanning [0.9, 1.1] at every date
        tree = vng.build_tree(
            [("r", None, 1.0), ("u", "r", 0.5), ("d", "r", 0.5)], 1
        )
        ret = np.array([[np.nan], [1.1], [0.9]])
        market = vng.MarketData(
            tree=tree, m=1, returns=ret,
            lam_plus=np.full((3, 1), 0.02), lam_minus=np.full((3, 1), 0.02),
            margins=np.array([1.5, 1.5]),
        )
        constants = vng.market_constants(market)
        expected = (1.02 * 1.1) / (0.98 * 0.9)
        assert expected == pytest.approx(1.2721088435374148, abs=1e-12)
        assert constants.nu[0] == pytest.approx(expected, abs=1e-12)
        # last date: only the cost-ratio term remains
        assert constants.nu[1] == pytest.approx(1.02 / 0.98, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_c1_and_h_match_closed_forms(self, m):
        mu = 1.5
        market = identical_assets_market(m, mu, 1.1, 0.9, 0.02, 0.02)
        constants = vng.market_constants(market)
        assert constants.nu[0] == pytest.approx(1.2721088435374148, abs=1e-12)
        for t, nu in enumerate(constants.nu):
            grid = section_grid_min(mu, m, 1.0, nu), section_grid_min(mu, m, 1.0, 1.0)
            for c1, q in (grid, (constants.C1[t], constants.Q[t])):
                assert c1 == pytest.approx((mu - nu) / (1.0 + mu), abs=1e-3)
                if t == 0:
                    assert c1 == pytest.approx(0.0911564625850341, abs=1e-3)
                assert 1.0 / q == pytest.approx((mu + 1.0) / (mu - 1.0), abs=1e-3)
                assert 1.0 / q == pytest.approx(5.0, abs=1e-3)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_grid_and_pattern_methods_agree(self, m):
        mu = 1.7
        constants = vng.market_constants(identical_assets_market(m, mu, 1.0, 1.0, 0.0, 0.3))
        assert constants.nu.tolist() == [1.3, 1.3]
        for t, nu in enumerate(constants.nu):
            grid = section_grid_min(mu, m, 1.0, nu)
            assert grid == pytest.approx(constants.C1[t], abs=1e-4)
            grid_q = section_grid_min(mu, m, 1.0, 1.0)
            assert grid_q == pytest.approx(constants.Q[t], abs=1e-4)

    def test_b2_failure_raises_margin_too_tight(self):
        tree = vng.build_tree(
            [("r", None, 1.0), ("u", "r", 0.5), ("d", "r", 0.5)], 1
        )
        ret = np.array([[np.nan], [1.4], [0.7]])
        market = vng.MarketData(
            tree=tree, m=1, returns=ret,
            lam_plus=np.zeros((3, 1)), lam_minus=np.zeros((3, 1)),
            margins=np.array([1.5, 1.5]),  # nu_0 = 2 > 1.5
        )
        with pytest.raises(MarginTooTight):
            vng.market_constants(market)


class TestPaperBounds:
    """Sampled forms of the value-bound, boundedness, and growth estimates."""

    def test_all_ones_price_two_sided_bound(self):
        market = two_asset_margin_market()
        constants = market.constants
        rng = np.random.default_rng(12)
        ones = np.ones(2)
        for node in market.tree.nodes:
            h = constants.H[node.depth]
            A = vng.sample_cone_batch(market, np.full(100, node.index), rng)
            value, norm = A @ ones, np.abs(A).sum(axis=1)
            assert np.all(value >= norm / h - 1e-9)
            assert np.all(value <= h * norm + 1e-9)

    def test_transition_bound_k(self):
        market = two_asset_margin_market()
        constants = market.constants
        rng = np.random.default_rng(13)
        for node in market.tree.nodes:
            if node.parent is None:
                continue
            a, b = vng.sample_transition_pairs(market, np.full(200, node.index), rng)
            assert (
                np.abs(b).sum(axis=1)
                <= constants.K[node.depth] * np.abs(a).sum(axis=1) + 1e-9
            ).all()

    def test_lemma_positive_part_bound(self):
        market = two_asset_margin_market()
        constants = market.constants
        rng = np.random.default_rng(14)
        for node in market.tree.nodes:
            t = node.depth
            A = vng.sample_cone_batch(market, np.full(200, node.index), rng)
            longs, shorts = np.maximum(A, 0).sum(axis=1), np.maximum(-A, 0).sum(axis=1)
            lhs = longs - constants.nu[t] * shorts
            assert np.all(lhs >= constants.C1[t] * np.abs(A).sum(axis=1) - 1e-9)

    def test_small_completions_are_admissible(self):
        market = two_asset_margin_market()
        constants = market.constants
        rng = np.random.default_rng(15)
        for node in market.tree.nodes:
            if node.parent is None:
                continue
            nodes = np.full(100, node.index)
            A = vng.sample_cone_batch(market, market.tree.parents[nodes], rng)
            B = vng.sample_cone_batch(market, nodes, rng)
            norm_b = np.abs(B).sum(axis=1)
            size = rng.uniform(0.0, 1.0, 100) * constants.C2[node.depth]
            size *= np.abs(A).sum(axis=1)
            B *= np.divide(size, norm_b, out=np.zeros(100), where=norm_b > 0.0)[:, None]
            assert vng.in_Z(market, A, B, nodes).member.all()

    def test_psi_upper_bound_chain(self):
        market = two_asset_margin_market()
        constants = market.constants
        b_bounds = market.bounds
        rng = np.random.default_rng(16)
        for node in market.tree.nodes:
            if node.parent is None:
                continue
            t = node.depth
            a, b = vng.sample_transition_pairs(market, np.full(200, node.index), rng)
            lhs = constants.C1[t] * b_bounds["L_lo"][t] * np.abs(b).sum(axis=1)
            rhs = 2.0 * b_bounds["L_hi"][t] * b_bounds["R_hi"][t] * np.abs(a).sum(axis=1)
            assert (lhs <= rhs + 1e-9).all()


def test_random_instances_have_positive_constants():
    for seed in range(6):
        problem = make_instance(seed)
        constants = problem.market.constants
        assert (constants.C1 > 0).all()
        assert (constants.Q > 0).all()
        assert (constants.H >= 1.0 - 1e-12).all()
        assert (constants.C2[1:] > 0).all()
        assert (constants.K[1:] > 0).all()
