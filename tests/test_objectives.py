"""Terminal objectives: values, supergradients, the log functional, axioms."""

import numpy as np
import pytest

import vng
from conftest import two_asset_margin_market
from oracles import (
    central_difference_gradient,
    leaf_grad,
    leaf_value,
    log_objective_loop,
    over_bound_objective,
)
from vng.errors import ShapeMismatch


@pytest.fixture
def market():
    return two_asset_margin_market()


@pytest.fixture
def tree(market):
    return market.tree


def leaf_pos(tree, ref) -> int:
    """Position of a leaf within the leaf level: the row a ``LeafForm`` reads."""
    return tree.index(ref) - tree.span(tree.horizon).start


def value(obj, pos, a) -> float:
    return float(obj.form.values(np.asarray(a, dtype=float)[None], [pos])[0])


class TestEvaluate:
    def test_linear_all_ones(self, tree, market):
        obj = vng.LinearObjective(tree, market)
        assert value(obj, leaf_pos(tree, "aa"), [2.0, 3.0]) == pytest.approx(5.0)

    def test_liquidation_frictionless_net_value(self):
        tree = vng.build_tree(
            [("r", None, 1.0), ("u", "r", 0.5), ("d", "r", 0.5)], 2
        )
        ret = np.full((3, 2), np.nan)
        ret[1:] = 1.0
        market = vng.MarketData(
            tree=tree, m=2, returns=ret,
            lam_plus=np.zeros((3, 2)), lam_minus=np.zeros((3, 2)),
            margins=np.array([1.5, 1.5]),
        )
        obj = vng.LiquidationObjective(tree, market)
        assert value(obj, leaf_pos(tree, "u"), [2.0, -1.0]) == pytest.approx(1.0)

    def test_zero_penalty_equals_linear(self, tree, market):
        q = np.array([1.0, 1.05])
        lin = vng.LinearObjective(tree, market, q=q)
        pen = vng.NormPenalizedObjective(tree, market, q=q, theta=0.0)
        rng = np.random.default_rng(0)
        rows = vng.sample_cone_batch(market, tree.indices(tree.horizon), rng)
        for pos, a in enumerate(rows):
            assert value(pen, pos, a) == pytest.approx(value(lin, pos, a))

    def test_theta_bound_enforced(self, tree, market):
        probe = vng.NormPenalizedObjective(tree, market, theta=0.0)
        too_big = 1.5 * float(probe.theta_bound.min())
        with pytest.raises(ValueError):
            vng.NormPenalizedObjective(tree, market, theta=too_big)

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -1e-3])
    def test_theta_not_finite_or_negative_refused(self, tree, market, theta):
        # NaN passes both a "< 0" test and the bound test
        with pytest.raises(ValueError, match="finite and nonnegative"):
            vng.NormPenalizedObjective(tree, market, theta=theta)


class TestGradient:
    """``oracles.leaf_grad``, which the solver's terminal-price test reads,
    against finite differences, the Euler identity and the known slopes."""

    def test_linear_gradient_and_euler(self, tree, market):
        q = np.array([1.1, 0.9])
        obj = vng.LinearObjective(tree, market, q=q)
        a, pos = np.array([2.0, 1.0]), leaf_pos(tree, "ab")
        g = leaf_grad(obj, pos, a)
        np.testing.assert_allclose(g, q)
        assert g @ a == pytest.approx(value(obj, pos, a))

    def test_liquidation_componentwise_slopes(self, tree, market):
        obj = vng.LiquidationObjective(tree, market)
        i = tree.index("ba")
        a, pos = np.array([2.0, -0.4]), leaf_pos(tree, i)
        g = leaf_grad(obj, pos, a)
        np.testing.assert_allclose(g, [market.Lp[i][0], market.Lm[i][1]])
        assert g @ a == pytest.approx(value(obj, pos, a))

    def test_finite_difference_agreement(self, tree, market):
        rng = np.random.default_rng(1)
        leaves = tree.indices(tree.horizon)
        objectives = [
            vng.LinearObjective(tree, market, q=np.array([1.0, 1.1])),
            vng.LiquidationObjective(tree, market),
            vng.NormPenalizedObjective(tree, market, theta=0.01, norm="l1"),
            vng.NormPenalizedObjective(tree, market, theta=0.01, norm="l2"),
        ]
        for obj in objectives:
            checked = 0
            while checked < 100:
                pos = int(rng.integers(tree.n_leaves))
                a = vng.sample_cone_batch(market, [leaves[pos]], rng)[0]
                if np.abs(a).min() < 1e-2:  # stay clear of kinks
                    continue
                g = leaf_grad(obj, pos, a)
                fd = central_difference_gradient(lambda x: value(obj, pos, x), a)
                rel = np.abs(g - fd).max() / max(1.0, np.abs(g).max())
                assert rel < 1e-5
                checked += 1

    def test_euler_identity_sampled(self, tree, market):
        rng = np.random.default_rng(2)
        obj = vng.NormPenalizedObjective(tree, market, theta=0.01, norm="l2")
        for pos, leaf in enumerate(tree.indices(tree.horizon)):
            for a in vng.sample_cone_batch(market, np.full(200, leaf), rng):
                if np.abs(a).sum() < 1e-9:
                    continue
                val = value(obj, pos, a)
                assert leaf_grad(obj, pos, a) @ a == pytest.approx(
                    val, rel=1e-9, abs=1e-12
                )


def _four_variants(tree, market):
    return [
        vng.LinearObjective(tree, market, q=np.array([1.0, 1.1])),
        vng.LiquidationObjective(tree, market),
        vng.NormPenalizedObjective(tree, market, theta=0.01, norm="l1"),
        vng.NormPenalizedObjective(tree, market, theta=0.01, norm="l2"),
    ]


class TestLeafFormAgreement:
    """Value and log functional through ``LeafForm`` agree with the
    per-leaf references, kinks included."""

    def test_agrees_with_per_leaf_reference(self, tree, market):
        rng = np.random.default_rng(11)
        leaves = tree.indices(tree.horizon)
        for obj in _four_variants(tree, market):
            for pos, leaf in enumerate(leaves):
                draws = vng.sample_cone_batch(market, np.full(200, leaf), rng)
                for k, a in enumerate(draws):
                    if k % 4 == 0:
                        a[np.argmin(a)] = 0.0  # on a kink of |.| and min
                    assert value(obj, pos, a) == pytest.approx(
                        leaf_value(obj, pos, a), rel=1e-12, abs=1e-300
                    )
            for _ in range(20):
                rows = vng.sample_cone_batch(market, leaves, rng)
                assert vng.log_objective(tree, obj, rows) == pytest.approx(
                    log_objective_loop(tree, obj, rows), rel=1e-12, abs=1e-15
                )


class TestLogObjective:
    def test_all_ones_terminal_gives_zero(self, tree, market):
        obj = vng.LinearObjective(tree, market)
        x = np.tile([0.5, 0.5], (tree.n_leaves, 1))
        assert vng.log_objective(tree, obj, x) == pytest.approx(0.0, abs=1e-15)

    def test_doubling_adds_log_two(self, tree, market):
        obj = vng.LiquidationObjective(tree, market)
        rng = np.random.default_rng(3)
        rows = vng.sample_cone_batch(
            market, tree.indices(tree.horizon), rng
        )
        f1 = vng.log_objective(tree, obj, rows)
        f2 = vng.log_objective(tree, obj, 2.0 * rows)
        assert f2 - f1 == pytest.approx(np.log(2.0), abs=1e-12)

    def test_scaling_identity_exact(self, tree, market):
        obj = vng.LinearObjective(tree, market)
        x = np.tile([0.3, 0.6], (tree.n_leaves, 1))
        for c in (0.1, 2.5, 10.0):
            shifted = vng.log_objective(tree, obj, c * x)
            assert shifted == pytest.approx(
                vng.log_objective(tree, obj, x) + np.log(c), abs=1e-12
            )

    def test_zero_leaf_gives_minus_infinity(self, tree, market):
        obj = vng.LinearObjective(tree, market)
        rows = np.tile([0.5, 0.5], (tree.n_leaves, 1))
        rows[1] = 0.0
        assert vng.log_objective(tree, obj, rows) == float("-inf")

    def test_terminal_layer_of_wrong_shape_raises(self, tree, market):
        obj = vng.LinearObjective(tree, market)
        for shape in ((tree.n_nodes, 2), (tree.n_leaves, 3)):
            with pytest.raises(ShapeMismatch):
                vng.log_objective(tree, obj, np.ones(shape))


class TestPsiClass:
    def test_linear_all_ones_passes(self, tree, market):
        report = vng.check_psi_class(
            vng.LinearObjective(tree, market), tree, market, n_samples=2000, seed=0
        )
        assert report.passed
        assert "finite" in report.psi1_note

    def test_liquidation_passes_with_derived_bound(self, tree, market):
        report = vng.check_psi_class(
            vng.LiquidationObjective(tree, market), tree, market,
            n_samples=2000, seed=1,
        )
        assert report.passed

    def test_overweight_penalty_detected(self, tree, market):
        bad = over_bound_objective(tree, market)
        report = vng.check_psi_class(bad, tree, market, n_samples=2000, seed=2)
        assert not report.two_sided_bound.passed
        assert report.two_sided_bound.violations > 0
