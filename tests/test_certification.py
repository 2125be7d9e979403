"""Dual extraction, rapidity verification, and the growth-bound checks."""

import dataclasses
import os
import re

import numpy as np
import pytest

import vng
import vng.cli_io as cli
from conftest import make_instance, regular_problem
from oracles import (
    competitor_paths_loop,
    conditional_expectation,
    conditional_expectation_loop,
    dual_bar,
    dual_layer,
    exact_transition_bound,
    growth_table_loop,
    sample_competitor_path,
    supermartingale_loop,
    verify_loops,
)
from vng.certification import _supermartingale_checks
from vng.errors import (
    DepthMismatch,
    NonpositiveDenominator,
    NotCertified,
    ShapeMismatch,
    ZeroDenominator,
)
from vng.market_model import _transition_bound_terms


@pytest.fixture(scope="module")
def pipeline():
    """One solved, certified mid-size instance shared across this module."""
    problem = make_instance(0)  # horizon 4, three assets
    solution = vng.solve_log_optimal(problem)
    assert solution.converged
    dual = vng.extract_dual(solution, problem)
    cert = vng.verify_rapid(solution.path, dual, problem.tree, problem.market)
    assert cert.certified
    return problem, solution, dual, cert


def date_rows(tree, t: int) -> slice:
    """The rows of date t in a dual's ``p``, where node i sits at row i - 1."""
    return slice(tree.offsets[t] - 1, tree.offsets[t + 1] - 1)


def scaled_dual(dual: vng.DualPath, layer: int, factor, tree) -> vng.DualPath:
    p, terminal = dual.p.copy(), dual.p_terminal.copy()
    if layer == tree.horizon + 1:
        terminal *= factor
    else:
        p[date_rows(tree, layer)] *= factor
    return vng.DualPath(tree, p, terminal)


class TestExtractDual:
    def test_single_asset_hand_multiplier(self, single_asset):
        solution = vng.solve_log_optimal(single_asset)
        dual = vng.extract_dual(solution, single_asset)
        # frictionless one-asset market: p_1 = 1 / x0 at both leaves
        assert dual.prices[1].values[:, 0] == pytest.approx([1.0, 1.0], abs=1e-8)
        assert float(dual.prices[1].values[0] @ single_asset.x0) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_linear_terminal_layer_is_scaled_price(self, kelly):
        linear = vng.PathProblem(
            tree=kelly.tree, market=kelly.market,
            objective=vng.LinearObjective(kelly.tree, kelly.market), x0=kelly.x0,
        )
        solution = vng.solve_log_optimal(linear)
        dual = vng.extract_dual(solution, linear)
        x_N = solution.path[kelly.tree.horizon].values
        for pos in range(kelly.tree.n_leaves):
            q_over_value = np.ones(2) / float(np.ones(2) @ x_N[pos])
            np.testing.assert_allclose(
                dual.terminal.values[pos], q_over_value, atol=1e-7
            )
            assert float(dual.terminal.values[pos] @ x_N[pos]) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_deterministic_chain_normalization(self):
        raw = [("n0", None, 1.0), ("n1", "n0", 1.0), ("n2", "n1", 1.0)]
        tree = vng.build_tree(raw, 1)
        ret = np.array([[np.nan], [1.07], [0.96]])
        market = vng.MarketData(
            tree=tree, m=1, returns=ret,
            lam_plus=np.zeros((3, 1)), lam_minus=np.zeros((3, 1)),
            margins=np.full(3, 1.5),
        )
        problem = vng.PathProblem(
            tree=tree, market=market,
            objective=vng.LiquidationObjective(tree, market), x0=np.array([1.0]),
        )
        solution = vng.solve_log_optimal(problem)
        dual = vng.extract_dual(solution, problem)
        X = np.asarray(solution.path)
        for t in range(1, 3):
            node = tree.level(t)[0]
            value = float(dual.p[node.index - 1] @ X[node.parent])
            assert value == pytest.approx(1.0, abs=1e-8)

    def test_refuses_non_converged(self, kelly):
        solution = vng.solve_log_optimal(kelly, vng.SolveOptions(max_iter=3))
        with pytest.raises(NotCertified):
            vng.extract_dual(solution, kelly)


class TestVerifyRapid:
    def test_pipeline_certifies(self, pipeline):
        _, _, _, cert = pipeline
        assert cert.certified
        assert cert.normalization.max() <= 1e-6
        assert cert.membership.max() <= 1e-6
        assert cert.transition.max() <= 1e-6

    def test_scaled_terminal_layer_refuted(self, pipeline):
        problem, solution, dual, _ = pipeline
        bad = scaled_dual(dual, problem.tree.horizon + 1, 2.0, problem.tree)
        cert = vng.verify_rapid(solution.path, bad, problem.tree, problem.market)
        assert not cert.certified
        assert cert.normalization[-1] == pytest.approx(1.0, abs=1e-6)
        assert cert.witness is not None

    def test_negated_node_refuted_with_witness(self, pipeline):
        problem, solution, dual, _ = pipeline
        tree = problem.tree
        p = dual.p.copy()
        p[0] = -p[0]
        bad = vng.DualPath(tree, p, dual.p_terminal)
        cert = vng.verify_rapid(solution.path, bad, tree, problem.market)
        assert not cert.certified
        assert cert.membership.max() > 1e-6
        assert cert.witness is not None

    def test_solved_path_starts_exactly_at_x0(self, pipeline):
        problem, solution, dual, _ = pipeline
        cert = vng.verify_rapid(solution.path, dual, problem.tree, problem.market,
                                x0=problem.x0)
        assert cert.certified and cert.start == 0.0
        assert vng.verify_rapid(solution.path, dual, problem.tree,
                                problem.market).start is None

    @pytest.mark.parametrize("c", [2.0, 0.5, 1024.0])
    def test_rescaled_path_and_dual_refuted_at_the_start(self, pipeline, c):
        """c X against the dual over c passes every other criterion, so only
        x0 tells it from the solved path; the start witness comes first."""
        problem, solution, dual, _ = pipeline
        tree, market, x0 = problem.tree, problem.market, problem.x0
        path = c * np.asarray(solution.path)
        bad = vng.DualPath(tree, dual.p / c, dual.p_terminal / c)
        assert vng.verify_rapid(path, bad, tree, market).certified
        cert = vng.verify_rapid(path, bad, tree, market, x0=x0)
        assert not cert.certified
        assert cert.start == pytest.approx(abs(c - 1.0), rel=1e-12)
        assert cert.witness == {"kind": "start", "node": tree.ids[0],
                                "value": cert.start, "layer": 0}
        # the start is scale-free: x0, path and dual scaled together pass
        assert vng.verify_rapid(path, bad, tree, market, x0=c * x0).start == 0.0

    def test_start_witness_comes_before_path_feasibility(self, pipeline):
        problem, solution, dual, _ = pipeline
        path = np.array(solution.path)
        path[-1, 0] = np.nan
        path[0] *= 1.5
        cert = vng.verify_rapid(path, dual, problem.tree, problem.market,
                                x0=problem.x0)
        assert cert.feasibility.max() == np.inf
        assert cert.witness["kind"] == "start"
        assert cert.witness["value"] == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_or_zero_start_refuted_without_warning(self, pipeline):
        problem, solution, dual, _ = pipeline
        tree, market = problem.tree, problem.market
        path = np.array(solution.path)
        path[0, 0] = np.nan
        assert vng.verify_rapid(path, dual, tree, market, x0=problem.x0).start == np.inf
        cert = vng.verify_rapid(solution.path, dual, tree, market,
                                x0=np.zeros(market.m))
        assert cert.start == np.inf and not cert.certified
        with pytest.raises(ShapeMismatch):
            vng.verify_rapid(solution.path, dual, tree, market, x0=np.ones(market.m + 1))


    def test_nan_path_entry_refuted(self, pipeline):
        problem, solution, dual, _ = pipeline
        path = np.array(solution.path)
        path[-1, 0] = np.nan
        cert = vng.verify_rapid(path, dual, problem.tree, problem.market)
        assert not cert.certified
        assert cert.feasibility.max() == np.inf
        assert cert.witness["kind"] == "path_feasibility"

    def test_nan_price_refuted_without_lp(self, pipeline, monkeypatch):
        """A non-finite price reads inf and gets no LP, which cannot take it;
        its own membership is the witness."""
        problem, solution, dual, _ = pipeline
        tree = problem.tree
        bad = tampered_duals(problem, solution, dual)["nan_price"]
        lp_nodes = []
        violation = vng.certification.dual_cone_violation

        def logged(market, p, p_bar, node, tol):
            lp_nodes.append(node)
            return violation(market, p, p_bar, node, tol)

        monkeypatch.setattr(vng.certification, "dual_cone_violation", logged)
        cert = vng.verify_rapid(solution.path, bad, tree, problem.market)
        nan_node = tree.level(2)[0].node_id
        assert not cert.certified
        assert cert.transition[tree.index(nan_node) - 1] == np.inf
        assert cert.transition[tree.level(1)[0].index - 1] == np.inf
        assert lp_nodes == [] and cert.transition_lp_nodes == []
        assert cert.witness == {
            "kind": "dual_cone_membership", "node": nan_node, "value": np.inf,
            "layer": 2,
        }

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: regular_problem(3, 1, 2, seed=0), id="horizon1"),
        pytest.param(lambda: regular_problem(2, 4, 3, seed=0), id="horizon4"),
        pytest.param(lambda: regular_problem(2, 6, 2, seed=0), id="horizon6"),
    ])
    def test_one_pass_per_criterion(self, make, monkeypatch):
        """One verify_rapid makes one in_Z, one dual_cone_residual and one
        transition_bound call at any horizon, with or without LP nodes, and
        leaves conditional expectations to whole-tree sums."""
        problem = make()
        solution = vng.solve_log_optimal(problem)
        dual = vng.extract_dual(solution, problem)
        calls = {}

        def counted(name):
            inner = getattr(vng.certification, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(vng.certification, name, wrapper)

        for name in ("in_Z", "dual_cone_residual", "transition_bound"):
            counted(name)
        for d in (dual, tampered_duals(problem, solution, dual)["tilted"]):
            calls.clear()
            cert = vng.verify_rapid(solution.path, d, problem.tree, problem.market)
            assert calls == {"in_Z": 1, "dual_cone_residual": 1, "transition_bound": 1}
        assert cert.transition_lp_nodes


class TestDateViews:
    """A path is one (n_nodes, m) array and a dual two arrays; their date
    views read the same rows."""

    def test_views_are_the_whole_tree_rows(self, pipeline):
        problem, solution, dual, _ = pipeline
        tree = problem.tree
        X = np.asarray(solution.path)
        assert X.shape == (tree.n_nodes, problem.market.m)
        assert dual.p.shape == (tree.n_nodes - 1, problem.market.m)
        for t in range(tree.horizon + 1):
            assert solution.path[t].depth == t
            assert np.array_equal(solution.path[t].values, X[tree.span(t)])
        for t in range(1, tree.horizon + 1):
            lev = tree.span(t)
            assert dual.prices[t].depth == t
            assert np.array_equal(
                dual.prices[t].values, dual.p[lev.start - 1:lev.stop - 1]
            )
        assert dual.terminal.depth == tree.horizon + 1
        assert np.array_equal(dual.terminal.values, dual.p_terminal)
        assert len(dual.p_terminal) == tree.n_leaves
        with pytest.raises(DepthMismatch):
            dual.prices[0]  # the root has no price row

    def test_competitor_rows_and_the_solved_path_alike(self, pipeline):
        problem, solution, dual, _ = pipeline
        tree = problem.tree
        paths = vng.sample_competitor_paths(
            tree, problem.market, np.random.default_rng(4), problem.x0, 3
        )
        assert paths.shape == (3, tree.n_nodes, problem.market.m)
        assert vng.supermartingale_check(dual, paths[1], tree) == (
            vng.supermartingale_check(dual, vng.NodeArray(tree, paths[1]), tree)
        )
        assert vng.supermartingale_check(dual, solution.path, tree) == (
            vng.supermartingale_check(dual, np.asarray(solution.path), tree)
        )
        empty = vng.sample_competitor_paths(
            tree, problem.market, np.random.default_rng(4), problem.x0, 0
        )
        assert empty.shape == (0, tree.n_nodes, problem.market.m)

    @pytest.mark.parametrize("cut", ["row", "column", "flat"])
    def test_wrong_path_shape_raises_everywhere(self, pipeline, cut):
        problem, solution, dual, _ = pipeline
        tree, market = problem.tree, problem.market
        X = np.asarray(solution.path)
        bad = {"row": X[:-1], "column": X[:, 1:], "flat": X.reshape(-1)}[cut]
        calls = [
            lambda: vng.verify_rapid(bad, dual, tree, market),
            lambda: vng.supermartingale_check(dual, bad, tree),
            lambda: vng.growth_dominance(dual, bad, tree),
            lambda: vng.check_equivalences(tree, market, bad, dual, 1, n_samples=2),
            lambda: vng.prop4_reconstruct(dual, bad, tree, market),
            lambda: vng.extract_dual(dataclasses.replace(solution, path=bad), problem),
            lambda: vng.kkt_report(dataclasses.replace(solution, path=bad), problem),
            lambda: vng.log_objective(tree, problem.objective, bad[tree.span(1)]),
            lambda: vng.dominating_path(tree, market, bad, dual.p, dual.p_terminal),
        ]
        for call in calls:
            with pytest.raises(ShapeMismatch):
                call()


class TestDualPath:
    """A dual checks its shapes once, stores read-only copies and its
    conditional sums, and belongs to the tree it was built on."""

    @pytest.mark.parametrize("cut", ["row", "column", "flat", "terminal_row",
                                     "terminal_column"])
    def test_wrong_shape_raises_at_construction(self, pipeline, cut):
        problem, _, dual, _ = pipeline
        p, terminal = dual.p, dual.p_terminal
        p, terminal = {
            "row": (p[:-1], terminal),
            "column": (p[:, 1:], terminal),
            "flat": (p.reshape(-1), terminal),
            "terminal_row": (p, terminal[:-1]),
            "terminal_column": (p, terminal[:, 1:]),
        }[cut]
        with pytest.raises(ShapeMismatch, match="must have shape"):
            vng.DualPath(problem.tree, p, terminal)

    def test_arrays_are_read_only_copies(self, pipeline):
        problem, _, dual, _ = pipeline
        p, terminal = dual.p.copy(), dual.p_terminal.copy()
        d = vng.DualPath(problem.tree, p, terminal)
        p[0] = terminal[0] = np.nan  # the source arrays stay the caller's
        assert np.array_equal(d.p, dual.p)
        assert np.array_equal(d.p_terminal, dual.p_terminal)
        for name in ("p", "p_terminal", "bar", "bar_abs"):
            arr = getattr(d, name)
            assert arr.dtype == float and not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[0] = 0.0
        with pytest.raises(ValueError):
            d.prices[1].values[0] = 0.0

    def test_values_are_not_checked(self, pipeline):
        problem, solution, dual, _ = pipeline
        tree = problem.tree
        parent = next(i for i in range(tree.n_nodes)
                      if tree.child_counts[i] >= 2 and tree.depth[i] < tree.horizon)
        kids = np.flatnonzero(tree.parents == parent)
        p = dual.p.copy()
        p[kids[0] - 1], p[kids[1] - 1] = np.inf, -np.inf  # their sum is NaN
        d = vng.DualPath(tree, p, dual.p_terminal)
        assert np.isnan(d.bar[parent]).all() and np.isinf(d.bar_abs[parent]).all()
        cert = vng.verify_rapid(solution.path, d, tree, problem.market)
        assert not cert.certified and cert.membership.max() == np.inf
        assert cert.witness["kind"] == "dual_cone_membership"

    def test_another_tree_object_raises_everywhere(self, pipeline):
        problem, solution, dual, _ = pipeline
        tree, market, X = problem.tree, problem.market, solution.path
        twin = dataclasses.replace(tree)  # equal arrays, another object
        other = vng.DualPath(twin, dual.p, dual.p_terminal)
        calls = [
            lambda: vng.verify_rapid(X, other, tree, market),
            lambda: vng.supermartingale_check(other, X, tree),
            lambda: vng.growth_dominance(other, X, tree),
            lambda: vng.check_equivalences(tree, market, X, other, 1, n_samples=2),
            lambda: vng.prop4_reconstruct(other, X, tree, market),
        ]
        for call in calls:
            with pytest.raises(ShapeMismatch, match="another tree"):
                call()


class TestSupermartingale:
    def test_rapid_path_is_martingale(self, pipeline):
        problem, solution, dual, _ = pipeline
        report = vng.supermartingale_check(dual, solution.path, problem.tree)
        assert report.equality_gap <= 1e-8
        assert report.second_form <= 1e-8

    def test_competitors_never_gain(self, pipeline):
        problem, _, dual, _ = pipeline
        rng = np.random.default_rng(0)
        for _ in range(200):
            y = sample_competitor_path(
                problem.tree, problem.market, rng, problem.x0
            )
            report = vng.supermartingale_check(dual, y, problem.tree)
            assert report.first_form <= 1e-8
            assert report.second_form <= 1e-8

    def test_scaling_competitor_scales_residuals(self, pipeline):
        problem, _, dual, _ = pipeline
        rng = np.random.default_rng(1)
        y = sample_competitor_path(problem.tree, problem.market, rng, problem.x0)
        r1 = vng.supermartingale_check(dual, y, problem.tree)
        r2 = vng.supermartingale_check(dual, 3.0 * y, problem.tree)
        assert r2.first_form == pytest.approx(3.0 * r1.first_form, rel=1e-9, abs=1e-12)

    def test_nan_residual_is_unbounded(self, pipeline):
        """A NaN residual reads inf: it cannot hide the other nodes of its date."""
        problem, solution, dual, _ = pipeline
        tree = problem.tree
        y = np.array(solution.path)
        y[tree.span(2).start + 1] *= 50.0
        report = vng.supermartingale_check(dual, y, tree)
        assert report.first_form == pytest.approx(49.0, rel=1e-6)
        assert report.second_form == pytest.approx(23.6, rel=1e-2)
        y[tree.span(2).start, 0] = np.nan
        report = vng.supermartingale_check(dual, y, tree)
        assert (report.first_form, report.second_form, report.equality_gap) == (
            np.inf, np.inf, np.inf
        )
        assert supermartingale_loop(dual, y, tree) == (np.inf, np.inf, np.inf)

    def test_layers_of_wrong_shape_raise(self, pipeline):
        """A path or a dual of the wrong width raises, whatever its row count."""
        problem, solution, dual, _ = pipeline
        y = np.ones((problem.tree.n_nodes, 2))
        with pytest.raises(ShapeMismatch):
            vng.supermartingale_check(dual, y, problem.tree)
        with pytest.raises(ShapeMismatch):
            vng.growth_dominance(dual, y, problem.tree, on_nonpositive="mark")
        for p, terminal in ((dual.p[:, :2], dual.p_terminal),
                            (dual.p, dual.p_terminal[:, :2])):
            with pytest.raises(ShapeMismatch):
                vng.supermartingale_check(
                    vng.DualPath(problem.tree, p, terminal), solution.path, problem.tree,
                )

    def test_path_of_wrong_length_raises(self, pipeline):
        problem, solution, dual, _ = pipeline
        X = np.asarray(solution.path)
        with pytest.raises(ShapeMismatch):
            vng.supermartingale_check(dual, X[:-1], problem.tree)
        with pytest.raises(ShapeMismatch):
            _supermartingale_checks(dual, np.stack([X[:-1], X[:-1]]), problem.tree)
        with pytest.raises(ShapeMismatch):
            _supermartingale_checks(
                vng.DualPath(problem.tree, dual.p[:-1], dual.p_terminal),
                X[None], problem.tree,
            )


class TestGrowthDominance:
    def test_rapid_path_all_ones(self, pipeline):
        problem, solution, dual, _ = pipeline
        tree = problem.tree
        table = vng.growth_dominance(dual, solution.path, tree)
        # one ratio per non-root node, in node order
        assert table.shape == (tree.n_nodes - 1,)
        for ratio in table:
            assert ratio == pytest.approx(1.0, abs=1e-8)

    def test_buy_and_hold_dominated_in_kelly(self, kelly):
        solution = vng.solve_log_optimal(kelly)
        dual = vng.extract_dual(solution, kelly)
        y = vng.buy_and_hold_path(kelly.tree, kelly.market, kelly.x0)
        ratios = vng.growth_dominance(dual, y, kelly.tree)
        # frictionless deflated prices are martingales, so holding the assets
        # earns ratio 1; only wasteful strategies are strictly dominated
        assert all(r <= 1.0 + 1e-8 for r in ratios)
        wasteful = vng.fixed_fraction_path(
            kelly.tree, kelly.market, kelly.x0, np.array([0.5, 0.5]), fill=0.9
        )
        ratios = vng.growth_dominance(dual, wasteful, kelly.tree)
        assert all(r <= 1.0 + 1e-8 for r in ratios)
        assert min(ratios) < 1.0 - 1e-3

    def test_ratio_scale_invariance(self, pipeline):
        problem, solution, dual, _ = pipeline
        rng = np.random.default_rng(2)
        y = sample_competitor_path(problem.tree, problem.market, rng, problem.x0)
        e1 = vng.growth_dominance(dual, y, problem.tree, on_nonpositive="mark")
        e2 = vng.growth_dominance(dual, 2.0 * y, problem.tree, on_nonpositive="mark")
        for a, b in zip(e1, e2, strict=True):
            if np.isnan(a):
                assert np.isnan(b)
            else:
                assert b == pytest.approx(a, rel=1e-12)

    def test_nonpositive_denominator_raises(self, pipeline):
        problem, solution, dual, _ = pipeline
        zeroed = 0.0 * np.asarray(solution.path)
        with pytest.raises(NonpositiveDenominator):
            vng.growth_dominance(dual, zeroed, problem.tree)

    def test_nan_denominator_raises(self, pipeline):
        """A NaN denominator is not positive: it raises, or reads nan."""
        problem, solution, dual, _ = pipeline
        tree = problem.tree
        p = dual.p.copy()
        p[tree.span(2).start - 1, 0] = np.nan
        bad = vng.DualPath(tree, p, dual.p_terminal)
        with pytest.raises(NonpositiveDenominator, match="= nan at node"):
            vng.growth_dominance(bad, solution.path, tree, on_nonpositive="raise")
        marked = vng.growth_dominance(bad, solution.path, tree, on_nonpositive="mark")
        assert np.isnan(marked[tree.span(2).start - 1])

    def test_unknown_on_nonpositive_rejected(self, pipeline):
        problem, solution, dual, _ = pipeline
        zeroed = 0.0 * np.asarray(solution.path)
        with pytest.raises(ValueError, match="'raise' or 'mark', not 'rasie'"):
            vng.growth_dominance(dual, zeroed, problem.tree, on_nonpositive="rasie")


class TestEquivalences:
    def _report(self, pipeline, t, dual=None, **kw):
        problem, solution, base_dual, _ = pipeline
        dual = dual or base_dual
        return vng.check_equivalences(
            problem.tree, problem.market, solution.path, dual, t, **kw
        )

    def test_certified_dual_all_four_pass(self, pipeline):
        problem = pipeline[0]
        for t in range(1, problem.tree.horizon + 1):
            report = self._report(pipeline, t, n_samples=60, seed=t, tol=1e-7)
            assert report.all_pass, report
            assert report.consistent
            assert report.precondition_normalization <= 1e-6

    def test_equality_pair_is_tight(self, pipeline):
        report = self._report(pipeline, 1, n_samples=1, seed=0, tol=1e-7)
        # sample 0 is the solved pair itself: all three sampled forms sit at 0
        assert report.value_I == pytest.approx(0.0, abs=1e-7)
        assert report.value_II == pytest.approx(0.0, abs=1e-7)
        assert report.value_III == pytest.approx(0.0, abs=1e-7)

    def test_terminal_normalization_counts_at_the_last_date(self, pipeline):
        problem, solution, dual, _ = pipeline
        N = problem.tree.horizon
        bad = scaled_dual(dual, N + 1, 1.5, problem.tree)
        report = self._report(pipeline, N, dual=bad, n_samples=2, seed=0, tol=1e-7)
        cert = vng.verify_rapid(solution.path, bad, problem.tree, problem.market)
        assert report.precondition_normalization == pytest.approx(0.5, abs=1e-8)
        assert report.precondition_normalization == cert.normalization[N]

    def test_corrupted_dual_detected_consistently(self, pipeline):
        problem, solution, dual, _ = pipeline
        t = problem.tree.horizon
        bad = scaled_dual(dual, t + 1, 2.0, problem.tree)
        report = self._report(pipeline, t, dual=bad, n_samples=60, seed=5, tol=1e-7)
        assert not report.passes["IV"]
        assert not (report.passes["I"] and report.passes["II"] and report.passes["III"])
        assert report.consistent

    @pytest.mark.parametrize("date", [1, 2])
    def test_nan_price_reads_inf(self, pipeline, date):
        """A NaN price of date 1 or 2 makes the date-1 statistics NaN, which
        read inf and fail."""
        problem, solution, dual, _ = pipeline
        tree = problem.tree
        p = dual.p.copy()
        p[tree.span(date).start - 1, 0] = np.nan
        bad = vng.DualPath(tree, p, dual.p_terminal)
        report = self._report(pipeline, 1, dual=bad, n_samples=20, seed=0, tol=1e-7)
        assert report.precondition_normalization == np.inf
        assert report.precondition_membership == np.inf
        assert (report.value_I, report.value_II, report.value_III) == (
            np.inf, np.inf, np.inf
        )
        assert report.value_IV == np.inf
        assert not any(report.passes.values())
        assert report.consistent

    def test_date_outside_the_horizon_raises(self, pipeline):
        for t in (0, pipeline[0].tree.horizon + 1):
            with pytest.raises(DepthMismatch):
                self._report(pipeline, t, n_samples=2)


class TestProp4:
    def test_idempotent_on_normalized_dual(self, pipeline):
        problem, solution, dual, cert = pipeline
        rebuilt, cert2 = vng.prop4_reconstruct(
            dual, solution.path, problem.tree, problem.market
        )
        assert cert2.certified
        # idempotent up to the extracted dual's own normalization residual
        slack = 10.0 * cert.normalization.max() + 1e-12
        np.testing.assert_allclose(rebuilt.p, dual.p, rtol=slack, atol=slack)

    def test_positive_scalings_do_not_matter(self, pipeline):
        problem, solution, dual, _ = pipeline
        rng = np.random.default_rng(3)
        tree = problem.tree
        factors = rng.uniform(0.5, 4.0, (len(dual.p), 1))
        tfac = rng.uniform(0.5, 4.0, (len(dual.p_terminal), 1))
        scaled = vng.DualPath(tree, factors * dual.p, tfac * dual.p_terminal)
        rebuilt, cert = vng.prop4_reconstruct(
            scaled, solution.path, tree, problem.market
        )
        assert cert.certified
        base, _ = vng.prop4_reconstruct(dual, solution.path, tree, problem.market)
        np.testing.assert_allclose(rebuilt.p, base.p, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(
            rebuilt.p_terminal, base.p_terminal, rtol=1e-10, atol=1e-12
        )

    def test_bad_membership_refuted(self, pipeline):
        problem, solution, dual, _ = pipeline
        tree = problem.tree
        m = problem.market.m
        # boost one price coordinate far out of the dual cone but keep the
        # normalizing inner products positive
        p = dual.p.copy()
        distort = np.ones(m)
        distort[0] = 80.0
        p[date_rows(tree, 1)] *= distort
        bad = vng.DualPath(tree, p, dual.p_terminal)
        rebuilt, cert = vng.prop4_reconstruct(
            bad, solution.path, tree, problem.market
        )
        assert not cert.certified

    def test_zero_denominator_raises(self, pipeline):
        problem, solution, dual, _ = pipeline
        tree = problem.tree
        p = dual.p.copy()
        p[date_rows(tree, 1)] = 0.0
        bad = vng.DualPath(tree, p, dual.p_terminal)
        with pytest.raises(ZeroDenominator):
            vng.prop4_reconstruct(bad, solution.path, tree, problem.market)

    def test_nan_denominator_raises(self, pipeline):
        """A NaN inner product is not strictly positive, on either layer."""
        problem, solution, dual, _ = pipeline
        tree = problem.tree
        p, terminal = dual.p.copy(), dual.p_terminal.copy()
        p[tree.span(2).start - 1, 0] = np.nan
        terminal[0, 0] = np.nan
        for bad, where in (
            (vng.DualPath(tree, p, dual.p_terminal),
             f"l_2 . x_1 = nan at node {tree.level(2)[0].node_id!r}"),
            (vng.DualPath(tree, dual.p, terminal),
             f"l_{tree.horizon + 1} . x_{tree.horizon} = nan at leaf "
             f"{tree.level(tree.horizon)[0].node_id!r}"),
        ):
            with pytest.raises(ZeroDenominator, match=re.escape(where)):
                vng.prop4_reconstruct(bad, solution.path, tree, problem.market)


FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
LP_TOL = 1e-9


@pytest.fixture(scope="module")
def solved_set():
    """The fifty acceptance instances and the three CLI fixtures, solved once."""
    problems = [make_instance(seed) for seed in range(50)]
    problems += [
        cli.load_problem(os.path.join(FIXTURES, f"{name}.json"))[0]
        for name in ("kelly", "single_asset", "two_asset_margin")
    ]
    out = []
    for problem in problems:
        solution = vng.solve_log_optimal(problem)
        out.append((problem, solution, vng.extract_dual(solution, problem)))
    return out


def level_prices(dual, tree, t):
    """Depth-t nodes with their prices p_t and p_bar = E_t p_{t+1}."""
    return tree.level(t), dual.prices[t].values, dual_bar(tree, dual, t).values


def bar_terms(dual, tree, t, node):
    """The (weight, price) pairs whose weighted sum is p_bar at the node."""
    if t == tree.horizon:
        return [(1.0, dual.p_terminal[node.index - tree.span(t).start])]
    return [(tree.cond_prob[child], dual.p[child - 1])
            for child in np.flatnonzero(tree.parents == node.index)]


_LP_VALUES: dict = {}


def lp_value(market, p, p_bar, node) -> float:
    """HiGHS's value of the node's transition LP, memoized by market, node and
    row bytes: the transition tests pose many rows more than once, and the
    value depends on nothing else, so tests may share it."""
    p, p_bar = np.asarray(p, dtype=float), np.asarray(p_bar, dtype=float)
    key = (market, int(node), p.tobytes(), p_bar.tobytes())
    if key not in _LP_VALUES:
        _LP_VALUES[key] = vng.dual_cone_violation(
            market, p, p_bar, node, tol=LP_TOL
        ).value
    return _LP_VALUES[key]


def level_bar_abs(dual, tree, t):
    """The conditional sum over |p_{t+1}| that verification passes."""
    nxt = dual_layer(dual, t + 1)
    return conditional_expectation(
        tree, vng.AdaptedVector(nxt.depth, np.abs(nxt.values))
    ).values


def assert_bound_sound(market, nodes, p, p_bar, terms, bar_abs=None) -> np.ndarray:
    """``transition_bound`` on these rows, checked node by node; returns it.

    ``terms[k]`` are the (weight, price) pairs whose exact sum is p_bar at
    node k.  At every node, those reading 0 included, in exact arithmetic
    with the library's kappa and gamma:

    - the distances of the exact sigma and sigma - p_bar are at most the
      library's e and f (the forward-error terms);
    - max(e R_max, e + f) of those floats is at most the bound (the outward
      rounding; a bound of 0 needs e = f = 0);
    - so the exact bound, which is at least the exact LP value, is at most
      the float bound; and the bound is at least HiGHS's value less LP_TOL.
    """
    from fractions import Fraction as F

    nodes = [int(i) for i in nodes]
    bound = vng.transition_bound(market, nodes, p, p_bar, bar_abs)
    e, f, r_max, kappa, gamma = _transition_bound_terms(
        market, nodes, p, p_bar, bar_abs
    )
    for k, i in enumerate(nodes):
        exact, e_exact, f_exact = exact_transition_bound(
            market, i, p[k], terms[k], kappa[k], gamma[k]
        )
        assert e_exact <= F(e[k]) and f_exact <= F(f[k]), i
        assert max(F(e[k]) * F(r_max[k]), F(e[k]) + F(f[k])) <= F(bound[k]), i
        assert exact <= F(bound[k]), i
        assert bound[k] >= lp_value(market, p[k], p_bar[k], i) - LP_TOL, i
    return bound


class TestTransitionProof:
    """The rigorous bound reads exactly 0 where both of its distances vanish,
    and is never below the exact bound or the LP value."""

    def test_proved_nodes_pass_the_lp_and_exact_arithmetic(self, solved_set):
        zero_total = nodes_total = 0
        for problem, _, dual in solved_set:
            tree, market = problem.tree, problem.market
            for t in range(1, tree.horizon + 1):
                level, p, p_bar = level_prices(dual, tree, t)
                idx = [node.index for node in level]
                bound = assert_bound_sound(
                    market, idx, p, p_bar,
                    [bar_terms(dual, tree, t, node) for node in level],
                    level_bar_abs(dual, tree, t),
                )
                nodes_total += len(level)
                zero_total += int((bound == 0.0).sum())
                # with costs on every coordinate both boxes have room around
                # the solved prices, so both distances vanish
                costly = (market.Lp[idx] < market.Lm[idx]).all(axis=1)
                assert np.all(bound[costly] == 0.0)
                assert np.all(bound <= 1e-14)
        # the bound settles the solved duals at exactly 0, bar a few
        # frictionless nodes a few ulps above it
        assert zero_total >= 0.95 * nodes_total

    def test_random_and_perturbed_pairs_never_accepted_above_lp(self, solved_set):
        rng = np.random.default_rng(12)
        zero = positive = 0

        def check(market, level, p, p_bar):
            nonlocal zero, positive
            # the drawn p_bar is the exact child sum of a single child
            bound = assert_bound_sound(
                market, [node.index for node in level], p, p_bar,
                [[(1.0, row)] for row in p_bar],
            )
            zero += int((bound == 0.0).sum())
            positive += int((bound > 0.0).sum())

        for problem, _, dual in solved_set[::6] + solved_set[50:52]:
            tree, market = problem.tree, problem.market
            for t in range(1, tree.horizon + 1):
                level, p, p_bar = level_prices(dual, tree, t)
                # perturbed solved pairs, relative noise from tiny to large
                for scale in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3):
                    check(
                        market, level,
                        p * (1.0 + scale * rng.normal(size=p.shape)),
                        p_bar * (1.0 + scale * rng.normal(size=p.shape)),
                    )
                # solved pairs scaled toward underflow, where e and f come
                # down to a few multiples of the smallest normal float
                check(market, level, 2.0 ** -1010 * p, 2.0 ** -1010 * p_bar)
                # random pairs around the cones' boundaries: sigma and
                # sigma - p_bar drawn in and just outside their cones, also
                # scaled toward underflow
                idx = [node.index for node in level]
                Lp, Lm = market.Lp[idx], market.Lm[idx]
                beta = market.margins[t] * Lm
                for _ in range(4):
                    u = rng.uniform(-0.1, 1.1, p.shape)
                    w = rng.uniform(-0.1, 1.1, p.shape)
                    kappa = rng.uniform(0.5, 2.0, (len(idx), 1))
                    gamma = rng.uniform(0.0, 0.1, (len(idx), 1))
                    sigma = kappa * (Lp + u * (Lm - Lp))
                    y = gamma * (Lp + w * (beta - Lp))
                    for tiny in (1.0, 2.0 ** -1010):
                        check(
                            market, level,
                            tiny * market.returns[idx] * sigma, tiny * (sigma - y),
                        )
        assert zero > 100 and positive > 100

    def test_float_boundary_pairs_never_accepted_against_exact_arithmetic(
        self, solved_set
    ):
        """sigma and sigma - p_bar placed on their ratio-cone boundaries.

        Each coordinate sits at an end of its interval (or inside it), and
        p_bar is the float child sum of equal child prices, so the pairs sit
        within a few ulps of the boundary.  The bound may read above 0 on
        such a pair, but never below the exact bound for its kappa and gamma.
        """
        from fractions import Fraction as F

        rng = np.random.default_rng(41)
        zero_total = float_only = 0
        for problem, _, _ in solved_set[::3] + solved_set[50:]:
            tree, market = problem.tree, problem.market
            m = market.m
            for t in range(1, tree.horizon + 1):
                level = tree.level(t)
                idx = tree.indices(t)
                Lp, Lm = market.Lp[idx], market.Lm[idx]
                beta = market.margins[t] * Lm
                for _ in range(4):
                    shape = (len(idx), m)
                    u = np.where(rng.random(shape) < 0.5,
                                 rng.integers(0, 2, shape), rng.random(shape))
                    w = rng.integers(0, 2, shape)
                    sigma = rng.uniform(0.5, 2.0, (len(idx), 1)) * (Lp + u * (Lm - Lp))
                    y = rng.uniform(1e-3, 0.1, (len(idx), 1)) * (Lp + w * (beta - Lp))
                    target = sigma - y
                    if t == tree.horizon:
                        p_bar = target
                        terms = [[(1.0, row)] for row in target]
                    else:
                        child = target[tree.up(t + 1)]
                        p_bar = conditional_expectation(
                            tree, vng.AdaptedVector(t + 1, child)
                        ).values
                        terms = [
                            [(tree.cond_prob[c], child[c - tree.offsets[t + 1]])
                             for c in np.flatnonzero(tree.parents == node.index)]
                            for node in level
                        ]
                    p = market.returns[idx] * sigma
                    bound = assert_bound_sound(market, idx, p, p_bar, terms)
                    zero_total += int((bound == 0.0).sum())
                    # the same distances in plain floats, without error terms
                    _, _, _, kappa, gamma = _transition_bound_terms(
                        market, idx, p, p_bar
                    )
                    s = p / market.returns[idx]
                    yb = s - p_bar
                    k, g = kappa[:, None], gamma[:, None]
                    plain = (
                        (k * Lp <= s) & (s <= k * Lm) & (g * Lp <= yb) & (yb <= g * beta)
                    ).all(axis=1)
                    for j in np.flatnonzero(plain):
                        exact, _, _ = exact_transition_bound(
                            market, idx[j], p[j], terms[j], kappa[j], gamma[j]
                        )
                        float_only += int(exact > F(0))
        # the draws do reach the bound's zero territory, and they sit close
        # enough to the boundary that distances without error terms accept
        # pairs that exact arithmetic rejects
        assert zero_total > 100
        assert float_only > 0

    def test_certificate_lists_the_nodes_the_lp_decided(self, solved_set):
        certified = []
        for problem, solution, dual in solved_set:
            tree, market = problem.tree, problem.market
            for d in (dual, negated_first_price(dual)):
                cert = vng.verify_rapid(solution.path, d, tree, market)
                over_tol = []
                for t in range(1, tree.horizon + 1):
                    level, p, p_bar = level_prices(d, tree, t)
                    bound = vng.transition_bound(
                        market, [node.index for node in level], p, p_bar,
                        level_bar_abs(d, tree, t),
                    )
                    over_tol += [
                        level[k].node_id for k in np.flatnonzero(bound > cert.tol)
                    ]
                    for node, b in zip(level, bound):
                        if b <= cert.tol:
                            assert cert.transition[node.index - 1] == b
                assert cert.transition_lp_nodes == over_tol
            certified.append(vng.verify_rapid(solution.path, dual, tree, market))
        # a certified dual needs no LP at all
        assert all(c.certified and c.transition_lp_nodes == [] for c in certified)
        # frictionless kelly: its three nodes read a few ulps above 0
        assert solved_set[50][0].tree.ids[1:] == ("mid", "up", "down")
        assert all(0.0 < v <= 1e-14 for v in certified[50].transition)

    @pytest.mark.parametrize("cost", [0.0, 0.02])
    def test_transition_only_failure_keeps_lp_witness(self, cost):
        tree = vng.build_tree([("r", None, 1.0), ("l", "r", 1.0)], 2)
        returns = np.array([[np.nan, np.nan], [1.0, 1.0]])
        lam = np.full((2, 2), cost)
        market = vng.MarketData(
            tree=tree, m=2, returns=returns, lam_plus=lam, lam_minus=lam,
            margins=np.array([2.5, 2.5]),
        )
        x0 = np.array([0.5, 0.5])
        path = np.array([x0, x0])
        # p_1 lies in the dual cone and prices x0 at 1, but buying asset 1 at
        # p_1 and holding it is worth p_2 > p_1 next date
        p = np.array([1.0, 1.2]) / 1.1
        terminal = np.array([1.0, 1.0])
        dual = vng.DualPath(tree, p[None, :], terminal[None, :])
        cert = vng.verify_rapid(path, dual, tree, market)
        assert not cert.certified
        assert max(
            cert.normalization.max(), cert.membership.max(), cert.feasibility.max()
        ) <= 1e-6
        assert cert.transition_lp_nodes == ["l"]
        lp = vng.dual_cone_violation(market, p, terminal, "l", tol=1e-6)
        assert cert.transition.max() == lp.value > 1e-6
        assert cert.witness == {
            "kind": "transition", "node": "l", "value": lp.value,
            "pair": (lp.witness_a.tolist(), lp.witness_b.tolist()),
        }
        report = vng.check_equivalences(
            tree, market, path, dual, 1, n_samples=5, tol=1e-6
        )
        assert report.value_IV == lp.value
        assert not report.passes["IV"] and report.consistent


FRICTIONLESS_FAMILY = [  # (branching, depth, m, seed): b 2-3, depth 2-4, m 1-5
    (2 + k % 2, 2 + k % 3, 1 + k % 5, k) for k in range(12)
]


class TestTransitionBound:
    """The rigorous bound settles tampered and cancelling duals."""

    def test_solved_and_tampered_duals(self, solved_set):
        # the solved duals' rows are checked in TestTransitionProof
        for problem, _, dual in solved_set:
            tree, market = problem.tree, problem.market
            d = negated_first_price(dual)
            for t in range(1, tree.horizon + 1):
                level, p, p_bar = level_prices(d, tree, t)
                assert_bound_sound(
                    market, [node.index for node in level], p, p_bar,
                    [bar_terms(d, tree, t, node) for node in level],
                    level_bar_abs(d, tree, t),
                )

    def test_cancelling_child_sums(self, solved_set):
        """Child prices of about 1e3 whose weighted sum is of order 1.

        sigma and sigma - p_bar sit on their cone boundaries, as in the
        float-boundary draws, but p_bar is now a sum with cancellation, so its
        rounding error (Higham's gamma_n term) dwarfs the ulps of sigma.
        """
        from fractions import Fraction as F

        rng = np.random.default_rng(17)
        reached = 0
        for problem, _, _ in solved_set:
            tree, market = problem.tree, problem.market
            m = market.m
            for t in range(1, tree.horizon):
                level, idx = tree.level(t), tree.indices(t)
                Lp, Lm = market.Lp[idx], market.Lm[idx]
                beta = market.margins[t] * Lm
                up, w = tree.up(t + 1), tree.cond_prob[tree.span(t + 1)]
                for _ in range(3):
                    shape = (len(idx), m)
                    sigma = rng.uniform(0.5, 2.0, (len(idx), 1)) * (
                        Lp + rng.integers(0, 2, shape) * (Lm - Lp)
                    )
                    y = rng.uniform(1e-3, 0.1, (len(idx), 1)) * (
                        Lp + rng.integers(0, 2, shape) * (beta - Lp)
                    )
                    # offsets of about 1e3 whose weighted sum per parent is ~0:
                    # each parent's last child carries the balance
                    offset = 1e3 * rng.choice([-1.0, 1.0], (len(up), m))
                    for k in range(len(idx)):
                        kids = np.flatnonzero(up == k)
                        rest = kids[:-1]
                        offset[kids[-1]] = -(w[rest] @ offset[rest]) / w[kids[-1]]
                    child = (sigma - y)[up] + offset
                    nxt = vng.AdaptedVector(t + 1, child)
                    p_bar = conditional_expectation(tree, nxt).values
                    bar_abs = conditional_expectation(
                        tree, vng.AdaptedVector(t + 1, np.abs(child))
                    ).values
                    terms = [
                        [(w[c], child[c]) for c in np.flatnonzero(up == k)]
                        for k in range(len(idx))
                    ]
                    p = market.returns[idx] * sigma
                    assert_bound_sound(market, idx, p, p_bar, terms, bar_abs)
                    for k in range(len(idx)):
                        exact = [sum(F(a) * F(v[j]) for a, v in terms[k])
                                 for j in range(m)]
                        err = max(abs(F(p_bar[k, j]) - exact[j]) for j in range(m))
                        reached += int(err > 64 * np.spacing(np.abs(sigma[k]).max()))
        # the draws do make p_bar's rounding error large against sigma's
        assert reached > 100

    @pytest.mark.parametrize("kind", ["half", "all"])
    def test_frictionless_families_certify_without_lp(self, kind, monkeypatch):
        calls = []
        lp = vng.certification.dual_cone_violation

        def counted(*args, **kwargs):
            calls.append(args[3])
            return lp(*args, **kwargs)

        monkeypatch.setattr("vng.certification.dual_cone_violation", counted)
        open_nodes = 0
        for branching, depth, m, seed in FRICTIONLESS_FAMILY:
            problem = regular_problem(
                branching, depth, m, seed, m if kind == "all" else (m + 1) // 2
            )
            tree, market = problem.tree, problem.market
            solution = vng.solve_log_optimal(problem)
            dual = vng.extract_dual(solution, problem)
            cert = vng.verify_rapid(solution.path, dual, tree, market)
            assert cert.certified and calls == [] and cert.transition_lp_nodes == []
            for t in range(1, tree.horizon + 1):
                level, p, p_bar = level_prices(dual, tree, t)
                bound = assert_bound_sound(
                    market, [node.index for node in level], p, p_bar,
                    [bar_terms(dual, tree, t, node) for node in level],
                )
                open_nodes += int((bound > 0.0).sum())
        # frictionless coordinates leave rounding to cover, so these nodes
        # read above 0, yet within tol
        assert open_nodes > 100


def negated_first_price(dual):
    """The dual with the first date-1 price negated: refuted with a witness."""
    p = dual.p.copy()
    p[0] *= -1.0
    return vng.DualPath(dual.tree, p, dual.p_terminal)


def tampered_duals(problem, solution, dual):
    """Refutable duals, by name, each from one edit of the solved dual.

    - ``scaled``: p_1 times 1.5.
    - ``negative``: at the first node of date 1 or later with two children,
      every child's price becomes the node's p / R, so the node's
      sigma - p_bar vanishes but for rounding and its bound reads only
      rounding terms.  Then the first coordinate of the first two children
      moves apart, keeping their conditional mean, until the second reads
      -1.  The node's p_bar barely moves; its |p| sums do.
    - ``nan_price``: the first date-2 price (date 1 on a horizon-1 tree)
      reads NaN.
    - ``tilted``: p_1 at the first node moves by 1e-3 along a direction the
      root state does not price (any direction when m = 1).
    """
    tree, market, N = problem.tree, problem.market, problem.tree.horizon

    def edited(edit):
        prices = {t: dual.prices[t].values.copy() for t in range(1, N + 1)}
        prices[N + 1] = dual.terminal.values.copy()
        edit(prices)
        return vng.DualPath(
            tree, np.concatenate([prices[t] for t in range(1, N + 1)]), prices[N + 1]
        )

    def scale(prices):
        prices[1] *= 1.5

    def negative(prices):
        for node in tree.nodes[1:tree.n_nodes - tree.n_leaves]:
            kids = np.flatnonzero(tree.parents == node.index)
            if len(kids) >= 2:
                t, (w1, w2) = node.depth + 1, tree.cond_prob[kids[:2]]
                r1, r2 = kids[:2] - tree.offsets[t]
                p = prices[t - 1][node.index - tree.offsets[t - 1]]
                prices[t][kids - tree.offsets[t]] = (
                    p / market.returns[node.index]
                )
                delta = w2 * (prices[t][r2, 0] + 1.0)
                prices[t][r1, 0] += delta / w1
                prices[t][r2, 0] -= delta / w2
                return
        prices[N][0, 0] = -prices[N][0, 0]

    def nan(prices):
        prices[min(2, N)][0, 0] = np.nan

    def tilt(prices):
        x, v = solution.path[0].values[0], np.zeros(market.m)
        if len(v) >= 2:
            v[0], v[1] = x[1], -x[0]
        else:
            v[0] = 1.0
        prices[1][0] += 1e-3 * v / np.abs(v).max()

    return {name: edited(edit) for name, edit in (
        ("scaled", scale), ("negative", negative), ("nan_price", nan), ("tilted", tilt),
    )}


def tampered_paths(solution):
    """Refutable paths, by name: a NaN entry in the last layer, a date-1
    layer blown up 50 times, past the self-financing frontier, and the whole
    path doubled, which starts off x0 and breaks every normalization."""
    nan_path = np.array(solution.path)
    nan_path[-1, 0] = np.nan
    infeasible = np.array(solution.path)
    infeasible[solution.path.tree.span(1)] *= 50.0
    return {"nan_path": nan_path, "infeasible": infeasible,
            "rescaled": 2.0 * np.asarray(solution.path)}


def hex_fields(value):
    """Floats as ``float.hex``, dicts as their item lists in key order, and
    containers tagged with their type, so equality is bit for bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(k, hex_fields(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [hex_fields(v) for v in value])
    return (type(value).__name__, value)


def named_tables(cert, tree) -> dict:
    """The certificate's fields with each array row under its node's name.

    Row i - 1 of transition and feasibility is node i; membership holds
    p_t on the non-root nodes (node i at row i - 1), then p_{N+1} on the
    leaves, keyed ``p_t@id``; normalization is a list by date.
    """
    N, ids = tree.horizon, tree.ids
    prices = [(tree.depth[i], i) for i in range(1, tree.n_nodes)]
    prices += [(N + 1, i) for i in tree.indices(N)]
    by_node = {
        name: {ids[row + 1]: value for row, value in enumerate(getattr(cert, name).tolist())}
        for name in ("transition", "feasibility")
    }
    return {
        "certified": cert.certified,
        "normalization": cert.normalization.tolist(),
        "membership": dict(zip(
            (f"p_{t}@{ids[i]}" for t, i in prices), cert.membership.tolist(), strict=True
        )),
        **by_node,
        "witness": cert.witness,
        "transition_lp_nodes": cert.transition_lp_nodes,
        "start": cert.start,
    }


def assert_certificate_matches_loops(path, dual, tree, market, x0=None):
    """verify_rapid equals the node-by-node oracle in every field, bit for bit,
    with the certificate's rows mapped to the oracle's node names."""
    cert = vng.verify_rapid(path, dual, tree, market, x0=x0)
    loops = verify_loops(path, dual, tree, market, cert.tol, x0=x0)
    assert hex_fields(named_tables(cert, tree)) == hex_fields(loops)
    return cert


LADDER = [(3, 3, 2), (3, 3, 4), (2, 5, 2), (2, 5, 4), (4, 3, 2), (2, 6, 2)]


@pytest.fixture(scope="module")
def ladder_set():
    """Regular trees of the benchmark ladder's shapes, solved once."""
    out = []
    for branching, depth, m in LADDER:
        problem = regular_problem(branching, depth, m, seed=0)
        solution = vng.solve_log_optimal(problem)
        out.append((problem, solution, vng.extract_dual(solution, problem)))
    return out


class TestLevelAlgebraMatchesNodeLoops:
    """Whole-level array forms equal the per-node references bit for bit."""

    def test_certification_outputs(self, solved_set):
        witnesses = 0
        for k, (problem, solution, dual) in enumerate(solved_set):
            tree, market = problem.tree, problem.market
            competitors = vng.sample_competitor_paths(
                tree, market, np.random.default_rng(k), problem.x0, 3
            )
            strategies = [
                solution.path,
                vng.buy_and_hold_path(tree, market, problem.x0),
                *competitors,
            ]
            for d in (dual, negated_first_price(dual)):
                # the whole-tree sums equal the per-date oracle byte for byte,
                # over the prices and over |p|
                for t in range(tree.horizon + 1):
                    av = dual_layer(d, t + 1)
                    abs_av = vng.AdaptedVector(av.depth, np.abs(av.values))
                    for sums, layer in ((d.bar, av), (d.bar_abs, abs_av)):
                        date_t = conditional_expectation(tree, layer).values
                        assert sums[tree.span(t)].tobytes() == date_t.tobytes()
                        if layer.depth <= tree.horizon:
                            assert np.array_equal(
                                date_t, conditional_expectation_loop(tree, layer)
                            )
                for y in strategies:
                    report = vng.supermartingale_check(d, y, tree)
                    assert (
                        report.first_form, report.second_form, report.equality_gap
                    ) == supermartingale_loop(d, y, tree)
                    table = vng.growth_dominance(d, y, tree, "mark")
                    assert np.array_equal(
                        table,
                        [r for _, _, r in growth_table_loop(d, y, tree)],
                        equal_nan=True,
                    )
                # all paths at once
                assert [
                    (r.first_form, r.second_form, r.equality_gap)
                    for r in _supermartingale_checks(d, np.stack(strategies), tree)
                ] == [supermartingale_loop(d, y, tree) for y in strategies]
                cert = assert_certificate_matches_loops(solution.path, d, tree, market)
                witnesses += cert.witness is not None
        assert witnesses >= len(solved_set)

    def test_verify_rapid_solved_and_tampered(self, solved_set, ladder_set):
        """Acceptance seeds 0-49, the fixtures and the ladder shapes, each
        with its solved dual, four tampered duals and three tampered paths,
        against the problem's x0."""
        kinds, lp_nodes = set(), 0
        for problem, solution, dual in solved_set + ladder_set:
            tree, market, x0 = problem.tree, problem.market, problem.x0
            cert = assert_certificate_matches_loops(solution.path, dual, tree, market, x0)
            assert cert.certified and cert.start == 0.0
            cases = [(solution.path, d) for d in
                     tampered_duals(problem, solution, dual).values()]
            cases += [(y, dual) for y in tampered_paths(solution).values()]
            for path, d in cases:
                cert = assert_certificate_matches_loops(path, d, tree, market, x0)
                assert not cert.certified
                kinds.add(cert.witness["kind"])
                lp_nodes += len(cert.transition_lp_nodes)
        assert kinds == {
            "start", "path_feasibility", "dual_cone_membership", "normalization",
            "transition",
        }
        assert lp_nodes >= len(ladder_set)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: regular_problem(2, 6, 2, seed=0), id="2^6-m2"),
        pytest.param(lambda: make_instance(32), id="seed32-m1"),
    ])
    def test_supermartingale_single_and_batched(self, make):
        """Horizon 6 and m = 1: the node loop, single and batched calls agree
        bit for bit, NaN paths included."""
        problem = make()
        tree, market = problem.tree, problem.market
        assert tree.horizon == 6 or market.m == 1
        solution = vng.solve_log_optimal(problem)
        dual = vng.extract_dual(solution, problem)
        nan_path = np.array(solution.path)
        nan_path[-1, 0] = np.nan
        strategies = [
            solution.path,
            nan_path,
            vng.buy_and_hold_path(tree, market, problem.x0),
            *vng.sample_competitor_paths(
                tree, market, np.random.default_rng(0), problem.x0, 5
            ),
        ]
        def fields(reports):
            return np.array([[r.first_form, r.second_form, r.equality_gap]
                             for r in reports])

        for d in (dual, negated_first_price(dual)):
            single = fields(vng.supermartingale_check(d, y, tree) for y in strategies)
            batched = fields(_supermartingale_checks(d, np.stack(strategies), tree))
            assert single.tobytes() == batched.tobytes()
            assert single.tolist() == [
                list(supermartingale_loop(d, y, tree)) for y in strategies
            ]

    def test_sampler_matches_per_node_frontier_calls(self, solved_set):
        for k, (problem, _, _) in enumerate(solved_set):
            tree, market = problem.tree, problem.market
            paths = vng.sample_competitor_paths(
                tree, market, np.random.default_rng(k), problem.x0, 4
            )
            levels = competitor_paths_loop(
                tree, market, np.random.default_rng(k), problem.x0, 4
            )
            for t in range(tree.horizon + 1):
                assert np.array_equal(paths[:, tree.span(t)], levels[t])

    def test_frontier_rows_from_mixed_nodes(self, solved_set):
        rng = np.random.default_rng(3)
        for problem, _, _ in solved_set:
            market = problem.market
            nodes = rng.permutation(np.repeat(np.arange(1, problem.tree.n_nodes), 3))
            A = vng.sample_cone_batch(market, problem.tree.parents[nodes], rng)
            D = vng.sample_cone_batch(market, nodes, rng)
            D[::7] = 0.0  # rows without a direction stay at 0
            batch = vng.transition_frontier_batch(market, A, D, nodes)
            single = [
                vng.transition_frontier_batch(market, A[[k]], D[[k]], [i])[0]
                for k, i in enumerate(nodes)
            ]
            assert np.array_equal(batch, single)
