"""Program assembly, the interior-point solve, and the KKT report."""

import copy
import dataclasses
import gc
import logging
import os
import pickle
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import vng
import vng.cli_io as cli
from conftest import (
    kelly_problem,
    make_instance,
    regular_problem,
    two_asset_margin_market,
)
from oracles import (
    central_difference_gradient,
    dense_constraint_matrix,
    dense_neg_hess,
    dense_newton_matrix,
    golden_section_max,
    kelly_oracle,
    leaf_grad,
    leaf_value,
    level_by_level_entries,
    retained_fraction_oracle,
    root_coupling,
    sample_competitor_path,
)
from vng.cli_io import load_problem
from vng.errors import DimensionMismatch, InfeasibleStart
from vng.solver import (
    BETA,
    HANDOVER,
    _interior_start,
    _entry_product,
    _mu_floor,
    _newton_direction,
    _NewtonSystem,
    assemble,
)


def _certified(problem, solution) -> bool:
    dual = vng.extract_dual(solution, problem)
    return vng.verify_rapid(solution.path, dual, problem.tree, problem.market).certified


class TestAssemble:
    def test_single_asset_two_leaf_counts(self, single_asset):
        prog = assemble(single_asset)
        assert single_asset.tree.n_nodes == 3  # root + 2 leaves
        # x, v, d per non-root node; liquidation objective adds w per leaf
        assert prog.n_vars == 2 * 3 * 1 + 2 * 1

    def test_deterministic_chain_counts(self):
        raw = [("n0", None, 1.0)]
        for t in range(1, 4):
            raw.append((f"n{t}", f"n{t - 1}", 1.0))
        tree = vng.build_tree(raw, 1)
        ret = np.full((4, 1), np.nan)
        ret[1:] = [[1.1], [0.95], [1.02]]
        market = vng.MarketData(
            tree=tree, m=1, returns=ret,
            lam_plus=np.zeros((4, 1)), lam_minus=np.zeros((4, 1)),
            margins=np.full(4, 1.5),
        )
        problem = vng.PathProblem(
            tree=tree, market=market,
            objective=vng.LinearObjective(tree, market), x0=np.array([1.0]),
        )
        prog = assemble(problem)
        assert tree.n_nodes == 4
        # x, v, s per non-root node; 4m + 2 rows each, no lifted leaf
        assert (prog.n_vars, prog.n_cons) == (3 * 3 * 1, 3 * (4 * 1 + 2))

    def test_binary_depth_three_counts(self):
        raw = [("n0", None, 1.0)]
        count, level = 1, ["n0"]
        for _ in range(3):
            new = []
            for parent in level:
                for _ in range(2):
                    raw.append((f"n{count}", parent, 0.5))
                    new.append(f"n{count}")
                    count += 1
            level = new
        tree = vng.build_tree(raw, 1)
        ret = np.full((tree.n_nodes, 1), np.nan)
        rng = np.random.default_rng(0)
        for node in tree.nodes:
            if node.parent is not None:
                ret[node.index] = rng.uniform(0.95, 1.1)
        market = vng.MarketData(
            tree=tree, m=1, returns=ret,
            lam_plus=np.zeros((tree.n_nodes, 1)),
            lam_minus=np.zeros((tree.n_nodes, 1)),
            margins=np.full(4, 1.5),
        )
        problem = vng.PathProblem(
            tree=tree, market=market,
            objective=vng.LinearObjective(tree, market), x0=np.array([1.0]),
        )
        assert tree.n_nodes == 15
        assert assemble(problem).n_vars == 14 * 3 * 1

    @pytest.mark.parametrize("make", [
        *(lambda s=s: make_instance(s) for s in range(50)),
        lambda: regular_problem(2, 6, 2, seed=0),  # 127 nodes, every leaf lifted
    ], ids=[*(f"seed{s}" for s in range(50)), "ladder127"])
    def test_entries_match_level_by_level_assembly(self, make):
        problem = make()
        prog = assemble(problem)
        for name, oracle in zip(("A_rows", "A_cols", "A_vals"),
                                level_by_level_entries(prog)):
            got = getattr(prog, name)
            assert got.dtype == oracle.dtype and np.array_equal(got, oracle), name
        assert np.array_equal(prog.b, root_coupling(problem))

    def test_interior_start_is_strictly_feasible(self, kelly):
        prog = kelly.program
        z0 = _interior_start(kelly)
        assert prog.g(z0).min() > 0.0
        assert prog.sigmas(z0).min() > 0.0

    @pytest.mark.parametrize("make", [
        *(pytest.param(lambda n=n: _fixture_problem(n), id=n)
          for n in ("kelly", "single_asset", "two_asset_margin")),
        *(pytest.param(lambda s=s: regular_problem(*s, seed=0), id="x".join(map(str, s)))
          for s in ((2, 6, 2), (3, 3, 4))),
        *(pytest.param(lambda s=s: make_instance(s), id=f"seed{s}")
          for s in (0, 2, 7, 13, 21)),  # linear, l1, l2, liquidation, liquidation
    ])
    def test_interior_start_is_exactly_homogeneous(self, make):
        """The start at 2^k x0 is 2^k times the start at x0, bit for bit."""
        problem = make()
        z = _interior_start(problem)
        for k in (1, -1, 20, -20, 40, -40):
            scaled = dataclasses.replace(problem, x0=np.ldexp(problem.x0, k))
            assert np.array_equal(_interior_start(scaled), np.ldexp(z, k)), k

    def test_start_whose_frontier_overflows_names_the_node(self, kelly):
        """At x0 * 1e155 the frontier overflows at node 'up'; the start says
        so, and no RuntimeWarning (an error in this suite) comes first."""
        huge = dataclasses.replace(kelly, x0=1e155 * kelly.x0)
        with pytest.raises(
            InfeasibleStart, match="the self-financing frontier at node 'up' is not finite"
        ):
            _interior_start(huge)

    def test_start_whose_direction_overflows_names_the_reason(self, kelly, caplog):
        """At x0 * 1e152 the Newton direction turns non-finite after 6 steps;
        the solve stops unconverged with that reason, and no RuntimeWarning
        (an error in this suite) comes first."""
        huge = dataclasses.replace(kelly, x0=1e152 * kelly.x0)
        with caplog.at_level(logging.WARNING, logger="vng.solver"):
            solution = vng.solve_log_optimal(huge)
        assert not solution.converged and solution.iterations == 6
        warned = [r.getMessage() for r in caplog.records]
        assert len(warned) == 1 and "newton direction is not finite" in warned[0]

    def test_objective_of_another_market_rejected(self, kelly):
        """Kelly's tree with 5% costs takes only its own objective: the
        frictionless one would solve another problem, and one of another
        tree does not fit the leaves."""
        tree = kelly.tree
        costs = np.full((tree.n_nodes, 2), 0.05)
        costly = dataclasses.replace(kelly.market, lam_plus=costs, lam_minus=costs)
        own = vng.LiquidationObjective(tree, costly)
        vng.PathProblem(tree=tree, market=costly, objective=own, x0=kelly.x0)
        for objective in (kelly.objective, make_instance(3).objective):
            with pytest.raises(DimensionMismatch, match="objective does not belong"):
                vng.PathProblem(
                    tree=tree, market=costly, objective=objective, x0=kelly.x0
                )

    def test_x0_is_a_read_only_copy(self, kelly):
        x0 = np.array(kelly.x0)
        problem = dataclasses.replace(kelly, x0=x0)
        with pytest.raises(ValueError, match="read-only"):
            problem.x0[0] = 1.0
        x0 *= 2.0
        assert np.array_equal(problem.x0, kelly.x0)
        assert np.array_equal(problem.program.x0, kelly.x0)

    def test_infeasible_x0_rejected(self, single_asset):
        with pytest.raises(InfeasibleStart):
            vng.PathProblem(
                tree=single_asset.tree,
                market=single_asset.market,
                objective=single_asset.objective,
                x0=np.array([0.0]),
            )


class TestSolveOracles:
    def test_single_asset_full_reinvestment(self, single_asset):
        solution = vng.solve_log_optimal(single_asset)
        assert solution.converged
        frac, f_star = retained_fraction_oracle([1.2, 0.9], [0.5, 0.5])
        assert frac == pytest.approx(1.0, abs=1e-6)
        assert f_star == pytest.approx(0.5 * (np.log(1.2) + np.log(0.9)), abs=1e-9)
        assert solution.objective_value == pytest.approx(f_star, abs=1e-6)
        x = np.asarray(solution.path)
        tree = single_asset.tree
        assert x[tree.index("up"), 0] == pytest.approx(1.2, abs=1e-6)
        assert x[tree.index("down"), 0] == pytest.approx(0.9, abs=1e-6)

    def test_kelly_fraction_and_value(self, kelly):
        solution = vng.solve_log_optimal(kelly)
        assert solution.converged
        f_oracle, v_oracle = kelly_oracle()
        assert f_oracle == pytest.approx(5.0 / 12.0, abs=1e-7)
        x1 = np.asarray(solution.path)[kelly.tree.index("mid")]
        fraction = x1[1] / x1.sum()
        assert fraction == pytest.approx(f_oracle, abs=1e-4)
        assert solution.objective_value == pytest.approx(v_oracle, abs=1e-6)

    def test_deterministic_chain_closed_form(self):
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
        assert solution.converged
        assert solution.objective_value == pytest.approx(
            np.log(1.07) + np.log(0.96), abs=1e-7
        )


class TestSolveProperties:
    def test_homogeneity_in_x0(self, kelly):
        """Scaling x0 by c scales the path by c and shifts F by ln c.

        At ten scalings, with acceptance 08's bound on the path error (the
        split of kelly's frictionless leaf along a flat face of the optimal
        set, which only the central path's barrier fixes) and elementwise.
        """
        base = vng.solve_log_optimal(kelly)
        for c in (0.1, 0.3, 0.5, 0.7, 2.0, 3.0, 5.0, 7.0, 10.0, 33.0):
            scaled_problem = vng.PathProblem(
                tree=kelly.tree, market=kelly.market,
                objective=kelly.objective, x0=c * kelly.x0,
            )
            scaled = vng.solve_log_optimal(scaled_problem)
            assert scaled.converged
            assert scaled.objective_value - base.objective_value == pytest.approx(
                np.log(c), abs=1e-9
            )
            for t in range(kelly.tree.horizon + 1):
                ref = c * base.path[t].values
                np.testing.assert_allclose(
                    scaled.path[t].values, ref, rtol=1e-6, atol=1e-9 * c,
                )
                rel = np.abs(scaled.path[t].values - ref).max() / np.abs(ref).max()
                assert rel <= 1e-6

    def test_determinism(self, kelly):
        a = vng.solve_log_optimal(kelly, vng.SolveOptions(seed=7))
        b = vng.solve_log_optimal(kelly, vng.SolveOptions(seed=7))
        assert a.iterations == b.iterations
        assert a.objective_value == pytest.approx(b.objective_value, abs=1e-12)

    def test_feasible_competitors_never_beat_solution(self):
        problem = make_instance(1)
        solution = vng.solve_log_optimal(problem)
        assert solution.converged
        rng = np.random.default_rng(99)
        for _ in range(100):
            y = sample_competitor_path(
                problem.tree, problem.market, rng, problem.x0
            )
            leaves = problem.tree.span(problem.tree.horizon)
            f_y = vng.log_objective(problem.tree, problem.objective, y[leaves])
            assert f_y <= solution.objective_value + 1e-7

    def test_objective_trace_monotone(self):
        for seed in (0, 2, 5):
            solution = vng.solve_log_optimal(make_instance(seed))
            trace = np.array(solution.objective_trace)
            assert (np.diff(trace) >= -1e-12).all()

    def test_nonconvergence_flagged(self, kelly):
        solution = vng.solve_log_optimal(kelly, vng.SolveOptions(max_iter=3))
        assert not solution.converged
        assert solution.iterations <= 3

    def test_singular_block_ends_the_solve(
        self, kelly, monkeypatch, caplog, capsys, tmp_path
    ):
        """A singular Newton block stops the solve unconverged, and says so.

        There is no regularized retry: the first step fails, the warning names
        the singular block, ``vng solve`` exits 4, and no "line search
        stalled" message is logged (the benchmark counts those).
        """
        lu, failed = np.linalg.solve, []

        def singular_once(*args):
            if not failed:
                failed.append(True)
                raise np.linalg.LinAlgError("Singular matrix")
            return lu(*args)

        monkeypatch.setattr(np.linalg, "solve", singular_once)
        with caplog.at_level(logging.DEBUG, logger="vng.solver"):
            solution = vng.solve_log_optimal(kelly)
            assert not solution.converged and solution.iterations == 1
            warned = [r.getMessage() for r in caplog.records
                      if r.levelno == logging.WARNING]
            assert len(warned) == 1 and "singular Newton block" in warned[0]

            failed.clear()
            out = str(tmp_path / "kelly.solution.json")
            code = cli.main(["solve", os.path.join(FIXTURES, "kelly.json"),
                             "--out", out])
        assert code == cli.EXIT_NONCONVERGENCE == 4
        printed = capsys.readouterr()
        assert "converged=False" in printed.out
        assert "Traceback" not in printed.out + printed.err
        assert not any("line search stalled" in r.getMessage() for r in caplog.records)

    def test_final_stage_runs_at_the_target_mu(self, kelly, monkeypatch):
        """Centered steps aim at the handover mu, HANDOVER times 1e-2 tol,
        until that stage centers, and from then on at exactly 1e-2 tol."""
        centered, direction = [], _newton_direction

        def recorded(prog, z, lam, g, r_d, w, mu, hscale, predict, state=None):
            if not predict:
                centered.append(mu)
            return direction(prog, z, lam, g, r_d, w, mu, hscale, predict, state)

        monkeypatch.setattr(vng.solver, "_newton_direction", recorded)
        for tol in (1e-8, 1e-6):
            centered.clear()
            solution = vng.solve_log_optimal(kelly, vng.SolveOptions(tol=tol))
            target = 1e-2 * tol
            assert solution.converged and solution.outer_iterations == 2
            assert solution.mu_final == target
            k = centered.count(HANDOVER * target)
            assert 0 < k < len(centered)
            assert centered == [HANDOVER * target] * k + [target] * (len(centered) - k)

    def test_iteration_cap_flagged_even_with_small_residuals(self, kelly):
        needed = vng.solve_log_optimal(kelly).iterations
        capped = vng.solve_log_optimal(kelly, vng.SolveOptions(max_iter=needed - 1))
        # the last stage is reached and the residuals are within tol, but
        # the stage never centered
        assert capped.mu_final == 1e-2 * capped.options.tol
        assert capped.residuals.within(capped.options.tol)
        assert not capped.converged


class TestWeightedCentralPath:
    """The solve centers on lambda_i g_i = mu P(owner node of row i)."""

    @pytest.mark.parametrize("seed", [0, 7, 13, 21])
    def test_returned_iterate_is_weighted_centered(self, seed):
        problem = make_instance(seed)
        solution = vng.solve_log_optimal(problem)
        assert solution.converged
        prog = assemble(problem)
        w = problem.tree.prob[prog.row_owner]
        mu = solution.mu_final
        assert mu == 1e-2 * solution.options.tol
        spread = np.abs(solution.multipliers * prog.g(solution.z) / w - mu).max()
        assert spread <= 0.02 * mu

    @pytest.mark.parametrize("shape", [(2, 6, 2), (3, 4, 4)],
                             ids=["127-node-m2", "121-node-m4"])
    def test_regular_trees_converge_and_certify(self, shape):
        """Within 24 iterations: 16 and 19 taken, plus a quarter."""
        problem = regular_problem(*shape, seed=0)
        solution = vng.solve_log_optimal(problem)
        assert solution.converged
        assert solution.iterations <= 24
        assert solution.outer_iterations == 2
        assert _certified(problem, solution)

    @pytest.mark.parametrize("make", [
        *(pytest.param(lambda n=n: _fixture_problem(n), id=n)
          for n in ("kelly", "single_asset", "two_asset_margin")),
        *(pytest.param(lambda s=s: regular_problem(*s, seed=0), id="x".join(map(str, s)))
          for s in ((2, 3, 1), (3, 3, 2), (2, 5, 4))),
    ])
    def test_end_game_centers_at_most_three_times(self, make):
        """The end game centers exactly twice: at the handover mu, then at
        the final mu."""
        solution = vng.solve_log_optimal(make())
        assert solution.converged
        assert solution.outer_iterations == 2


FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _fixture_problem(name: str) -> vng.PathProblem:
    return load_problem(os.path.join(FIXTURES, f"{name}.json"))[0]


def _l1_alternating_problem() -> vng.PathProblem:
    """One asset, l1 penalty on every other leaf: lifted and plain leaves mix."""
    base = regular_problem(2, 3, 1, seed=4)
    bound = vng.NormPenalizedObjective(base.tree, base.market, norm="l1").theta_bound
    theta = 0.3 * bound
    theta[::2] = 0.0
    objective = vng.NormPenalizedObjective(base.tree, base.market, theta=theta, norm="l1")
    return vng.PathProblem(
        tree=base.tree, market=base.market, objective=objective, x0=base.x0
    )


# Where a Newton direction is checked: the solve options whose centered end
# gives the iterate (None: the interior start at mu = 1) and the mu the
# direction aims at, 0.2 times the centered mu.
NEWTON_POINTS = {
    "start": (None, 1.0),
    "mu1e-4": (vng.SolveOptions(tol=1e-2), 0.2e-4),   # final mu 1e-2 * tol
    "final": (vng.SolveOptions(), 0.2e-10),
}


def _newton_residuals(
    problem, point: str, mehrotra: bool = False
) -> tuple[float, float]:
    """Relative residual and backward error of the block direction.

    K and rhs are built densely; the relative residual is
    ||K dz - rhs|| / ||rhs||, the normwise backward error
    ||K dz - rhs|| / (||K|| ||dz|| + ||rhs||), both in the max norm.  At one
    of the ``NEWTON_POINTS``: the interior start, or the iterate centered at
    mu = 1e-4 or at the default final mu, 1e-10.  Either the Newton
    direction toward the point's mu or the predictor-corrector direction;
    the latter is checked against the corrector's right-hand side,
    r_c = lam g - mu w + dlam_aff dg_aff.
    """
    prog = assemble(problem)
    A = dense_constraint_matrix(problem)
    w = problem.tree.prob[prog.row_owner]
    options, mu = NEWTON_POINTS[point]
    if options is None:
        z = _interior_start(problem)
        lam = w / prog.g(z)
    else:
        solution = vng.solve_log_optimal(problem, options)
        z, lam = solution.z, solution.multipliers
    g = prog.g(z)
    gf = prog.grad_f(z)
    r_d = gf + A.T @ lam
    gscale = float(np.abs(gf).max())
    state = prog._leaf_state(z)

    def direction(mu: float, predict: bool):
        return _newton_direction(prog, z, lam, g, r_d, w, mu, gscale**2, predict, state)

    if mehrotra:
        mu_floor = HANDOVER * 1e-2 * vng.SolveOptions().tol
        dz, _, _, mu, r_c = direction(mu_floor, True)
        assert mu_floor <= mu <= float(lam @ g) / w.sum()
        # the corrector term is the affine direction's dlam * A dz, and the
        # affine direction is the centered one at mu = 0
        _, aff_dlam, aff_Adz, _, aff_r_c = direction(0.0, False)
        assert np.array_equal(aff_r_c, lam * g)
        term = aff_dlam * aff_Adz
        assert np.abs(r_c - (lam * g - mu * w) - term).max() <= (
            1e-6 * np.abs(term).max()
        )
    else:
        dz, _, _, _, r_c = direction(mu, False)
        assert np.array_equal(r_c, lam * g - mu * w)
    K = dense_newton_matrix(problem, z, lam, g)
    rhs = r_d - A.T @ (r_c / g)
    resid, scale = np.abs(K @ dz - rhs).max(), np.abs(rhs).max()
    return resid / scale, resid / (np.abs(K).sum(axis=1).max() * np.abs(dz).max() + scale)


NEWTON_CASES = (
    [pytest.param(lambda s=s: make_instance(s), id=f"seed{s}") for s in range(50)]
    + [pytest.param(lambda n=n: _fixture_problem(n), id=n)
       for n in ("kelly", "single_asset", "two_asset_margin")]
)


class TestNodeLayout:
    """The named row kinds against the node-by-node oracle A."""

    @pytest.mark.parametrize("make", NEWTON_CASES)
    def test_row_kinds_match_oracle(self, make):
        problem = make()
        tree, market, m = problem.tree, problem.market, problem.market.m
        prog = assemble(problem)
        A = dense_constraint_matrix(problem)
        rows = prog.node_rows(np.arange(prog.n_cons))
        x, v, s = prog.node_columns(np.arange(prog.n_vars))
        # the kinds tile every node block, in order
        block = np.concatenate(list(rows.values()), axis=1)
        assert np.array_equal(block.ravel(), np.arange(block.size))
        eye = np.eye(m)

        def coef(kind, i, cols, j=None):
            """A on node i's rows of a kind and node j's (default i's) columns."""
            return A[np.ix_(rows[kind][i - 1], cols[(j or i) - 1])]

        for i in range(1, tree.n_nodes):
            Lp, Lm, R = market.Lp[i], market.Lm[i], market.returns[i]
            mu = market.margins[tree.depth[i]]
            assert np.array_equal(coef("v", i, v), eye)
            assert np.array_equal(coef("u", i, x), eye)
            assert np.array_equal(coef("u", i, v), eye)
            assert np.array_equal(coef("margin", i, x), [Lp])
            assert np.array_equal(coef("margin", i, v), [Lp - mu * Lm])
            for kind, L in (("plus", Lp), ("minus", Lm)):
                assert np.array_equal(coef(kind, i, x), np.diag(-L))
                assert np.array_equal(coef(kind, i, s), -eye)
                parent = tree.parents[i]
                if parent:
                    assert np.array_equal(coef(kind, i, x, parent), np.diag(L * R))
                else:  # the root's x0 is a constant
                    assert np.array_equal(prog.b[rows[kind][i - 1]], L * R * problem.x0)
            assert np.array_equal(coef("cash", i, s), [np.ones(m)])
        # below the node blocks, each lifted leaf's 2m rows hold -1 on its own
        # w, as the plus and minus rows hold -1 on s
        lifts = np.kron(np.eye(len(prog.leaf_w)), np.vstack([-eye, -eye]))
        assert np.array_equal(A[block.size:, prog.leaf_w.ravel()], lifts)


class TestConstraintProducts:
    """A z and A^T y from the sorted entry list, against the dense oracle A."""

    @staticmethod
    def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("make", NEWTON_CASES)
    def test_products_match_oracle(self, make):
        problem = make()
        prog = assemble(problem)
        A = dense_constraint_matrix(problem)
        assert np.array_equal(prog.A_dot(np.eye(prog.n_vars)), A)
        assert np.array_equal(prog.A_T_dot(np.eye(prog.n_cons)), A.T)

        # every output entry adds its products in the order a CSR product does
        rng = np.random.default_rng(0)
        csr, csr_T, abs_T = (sp.csr_matrix(M) for M in (A, A.T, np.abs(A.T)))
        for shape in ((), (2,)):  # a vector and an (n, 2) stack
            z = rng.standard_normal((prog.n_vars, *shape))
            y = rng.standard_normal((prog.n_cons, *shape))
            assert self.same_bits(prog.A_dot(z), csr @ z)
            assert self.same_bits(prog.A_T_dot(y), csr_T @ y)
            # |A|^T y, as the noise floor of solve_log_optimal takes it
            abs_At_y = _entry_product(
                prog.A_cols, prog.A_rows, np.abs(prog.A_vals), y, prog.n_vars
            )
            assert self.same_bits(abs_At_y, abs_T @ y)


class TestBlockNewtonStep:
    """The leaves-to-root block elimination solves the full Newton system."""

    @pytest.mark.parametrize("make", NEWTON_CASES)
    @pytest.mark.parametrize("point", ["start", "mu1e-4"])
    def test_direction_solves_dense_system(self, make, point):
        assert _newton_residuals(make(), point)[0] <= 1e-11

    @pytest.mark.parametrize("make", NEWTON_CASES)
    @pytest.mark.parametrize("point", ["start", "mu1e-4"])
    def test_predictor_corrector_solves_dense_system(self, make, point):
        """Over these 106 cases the backward error reads at most 2.2e-16
        (seed23, start) and the relative residual up to 4.4e-12 (seed13,
        mu1e-4)."""
        relative, backward = _newton_residuals(make(), point, mehrotra=True)
        assert relative <= 1e-11
        assert backward <= 1e-15

    def test_each_step_costs_two_elimination_passes(self, monkeypatch):
        """Every Newton system of a solve runs ``solve`` twice, for both kinds
        of step: the factoring pass (two columns for a predictor step, one for
        a centered step) and the one-column refinement pass."""
        passes = {}  # id -> (system, columns per pass); holding it keeps the id
        solve = _NewtonSystem.solve

        def counted(self, rp, rq):
            passes.setdefault(id(self), (self, []))[1].append(rp.shape[1])
            return solve(self, rp, rq)

        monkeypatch.setattr(_NewtonSystem, "solve", counted)
        solution = vng.solve_log_optimal(make_instance(0))
        assert solution.converged
        assert len(passes) == solution.iterations
        columns = [tuple(c) for _, c in passes.values()]
        assert set(columns) == {(2, 1), (1, 1)}

    @pytest.mark.parametrize("make", NEWTON_CASES)
    def test_direction_backward_stable_at_final_mu(self, make):
        """At the final mu, the centered stages' Newton direction.

        Only centered steps run below HANDOVER times the final mu.  There the
        active rows' D is about 1e10 times the Hessian scale, so ||K|| ||dz||
        dwarfs ||rhs||: the relative residual reads up to 1.4e-11 on these
        instances, while the backward error stays near eps (3.9e-17).
        """
        assert _newton_residuals(make(), "final")[1] <= 1e-15

    @pytest.mark.parametrize("point", ["start", "mu1e-4"])
    def test_mixed_lifted_leaves(self, point):
        problem = _l1_alternating_problem()
        lifted = problem.objective.form.lifted
        assert problem.market.m == 1
        assert 0 < len(lifted) < problem.tree.n_leaves
        assert _newton_residuals(problem, point)[0] <= 1e-11

    def test_large_tree_converges(self):
        """A deep tree: 3^6 = 1,093 nodes at m = 2, within 22 iterations
        (17 taken, plus a quarter)."""
        problem = regular_problem(3, 6, 2, seed=0)
        assert problem.tree.n_nodes == 1093
        solution = vng.solve_log_optimal(problem)
        assert solution.converged
        assert solution.iterations <= 22
        assert solution.outer_iterations == 2
        assert _certified(problem, solution)


class TestResidualFloor:
    """A predictor-corrector step's mu stays above BETA rel / rel0, rel the
    relative dual residual ||r_d||_inf / gscale and rel0 its value at the
    interior start, so mu cannot outrun stationarity on deep trees."""

    def test_deep_binary_tree_within_24_iterations(self):
        """2^9 = 1,023 nodes at m = 2: 19 iterations taken, plus a quarter;
        21 without the floor."""
        problem = regular_problem(2, 9, 2, seed=0)
        assert problem.tree.n_nodes == 1023
        solution = vng.solve_log_optimal(problem)
        assert solution.converged
        assert solution.iterations <= 24
        assert solution.outer_iterations == 2
        assert _certified(problem, solution)

    def test_predictor_mu_respects_residual_floor(self, monkeypatch):
        """Every predictor step's mu is at least BETA rel / rel0 and the
        handover, and the residual floor binds above the handover."""
        problem = regular_problem(2, 9, 2, seed=0)
        prog = assemble(problem)
        w = problem.tree.prob[prog.row_owner]
        z0 = _interior_start(problem)
        gf0 = prog.grad_f(z0)
        r_d0 = gf0 + prog.A_T_dot(w / prog.g(z0))
        rel0 = np.abs(r_d0).max() / np.abs(gf0).max()
        handover = HANDOVER * 1e-2 * vng.SolveOptions().tol

        steps, direction = [], _newton_direction

        def recorded(prog, z, lam, g, r_d, w, mu, hscale, predict, state=None):
            out = direction(prog, z, lam, g, r_d, w, mu, hscale, predict, state)
            if predict:
                rel = np.abs(r_d).max() / np.abs(prog.grad_f(z)).max()
                steps.append((out[3], BETA * rel / rel0))
            return out

        monkeypatch.setattr(vng.solver, "_newton_direction", recorded)
        solution = vng.solve_log_optimal(problem)
        assert solution.converged and steps
        assert all(mu >= floor and mu >= handover for mu, floor in steps)
        assert any(mu == floor > handover for mu, floor in steps)

    def test_stationary_start_keeps_the_handover(self):
        """rel0 = 0 (a stationary start) leaves the handover as the floor."""
        assert _mu_floor(1e-8, 0.0, 0.0) == 1e-8
        assert _mu_floor(1e-8, 0.5, 0.0) == 1e-8
        assert _mu_floor(1e-8, 0.5, 2.0) == max(1e-8, 0.25 * BETA)
        assert _mu_floor(1e-8, 0.0, 2.0) == 1e-8

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-11])
    @pytest.mark.parametrize("make", [
        *(pytest.param(lambda s=s: make_instance(s), id=f"seed{s}") for s in range(4)),
        pytest.param(lambda: regular_problem(2, 9, 2, seed=0), id="1023-node-m2"),
    ])
    def test_converges_and_certifies_across_tolerances(self, make, tol):
        """The floor moves the path near the handover, which tol places;
        seeds 0-3 cover the four objective variants."""
        problem = make()
        solution = vng.solve_log_optimal(problem, vng.SolveOptions(tol=tol))
        assert solution.converged
        assert _certified(problem, solution)


def _record_systems(monkeypatch, record) -> list:
    """``record(system)`` for every Newton system a solve builds, in order."""
    seen, build = [], _NewtonSystem.__init__

    def init(self, *args, **kwargs):
        build(self, *args, **kwargs)
        seen.append(record(self))

    monkeypatch.setattr(_NewtonSystem, "__init__", init)
    return seen


class TestAugmentedRows:
    """Which rows the Newton blocks keep in augmented form."""

    @pytest.mark.parametrize("shape", [(2, 5, 2), (3, 3, 4)],
                             ids=["63-node-m2", "40-node-m4"])
    def test_median_block_is_narrow(self, shape, monkeypatch):
        """At the median iteration, at most half of a node's rows are augmented.

        A node's block is its 3m columns plus one slot per augmented row, so
        at most 3m + 4m + 2 wide.  Comparing D with gscale^2, that is P(node)
        with P(leaf)^2, augments nearly all rows of these trees (median
        widths 14 of 16 at m = 2, 28 of 30 at m = 4).
        """
        problem = regular_problem(*shape, seed=0)
        m = problem.market.m
        widths = _record_systems(monkeypatch, lambda system: max(
            K.shape[-1] for K in system.Ks[:len(system.Ks) - 1 - system.lifted]
        ))  # the widest block above the leaves
        solution = vng.solve_log_optimal(problem)
        assert solution.converged
        assert len(widths) == solution.iterations
        median = sorted(widths)[len(widths) // 2]
        assert median <= 3 * m + (4 * m + 2) // 2 < 3 * m + 4 * m + 2

    @pytest.mark.parametrize("k", [-3, 5])
    @pytest.mark.parametrize("make", [
        pytest.param(lambda: _fixture_problem("kelly"), id="kelly"),
        pytest.param(lambda: regular_problem(2, 4, 2, seed=0), id="31-node-m2"),
        pytest.param(lambda: make_instance(2), id="seed2-l1"),
    ])
    def test_flags_reproduce_under_power_of_two_scaling(self, make, k, monkeypatch):
        """Scaling x0 by 2^k leaves every augmentation flag of the solve as is.

        D scales by 4^-k and gscale^2 with it, so the threshold is covariant
        and the scaled solve repeats the original bit for bit.
        """
        problem = make()
        flags = _record_systems(monkeypatch, lambda system: system.big.copy())
        base = vng.solve_log_optimal(problem)
        count = len(flags)
        scaled = vng.solve_log_optimal(vng.PathProblem(
            tree=problem.tree, market=problem.market,
            objective=problem.objective, x0=2.0**k * problem.x0,
        ))
        assert len(flags) == 2 * count
        assert any(f.any() for f in flags) and not all(f.all() for f in flags)
        assert all(np.array_equal(a, b) for a, b in zip(flags[:count], flags[count:]))
        for t in range(problem.tree.horizon + 1):
            assert np.array_equal(scaled.path[t].values, 2.0**k * base.path[t].values)


class TestKktReport:
    def test_converged_solution_within_tolerance(self, kelly):
        solution = vng.solve_log_optimal(kelly)
        report = vng.kkt_report(solution, kelly)
        assert report.within(solution.options.tol)
        assert report.path_consistent

    def test_perturbed_iterate_detected(self, kelly):
        solution = vng.solve_log_optimal(kelly)
        z = solution.z.copy()
        z[0] += 1e-3
        tampered = vng.Solution(
            path=solution.path,
            objective_value=solution.objective_value,
            z=z,
            multipliers=solution.multipliers,
            residuals=solution.residuals,
            iterations=solution.iterations,
            outer_iterations=solution.outer_iterations,
            wall_time=solution.wall_time,
            converged=solution.converged,
            objective_trace=solution.objective_trace,
            mu_final=solution.mu_final,
            options=solution.options,
        )
        report = vng.kkt_report(tampered, kelly)
        worse = max(
            report.residuals.primal,
            report.residuals.stationarity,
            0.0 if report.path_consistent else 1.0,
        )
        assert worse > 1e-4

    def test_infeasible_candidate_measured(self, single_asset):
        solution = vng.solve_log_optimal(single_asset)
        prog = assemble(single_asset)
        z = solution.z.copy()
        # push a margin split negative: primal residual equals the violation
        v = prog.node_columns(z)[1]
        v[single_asset.tree.index("up") - 1, 0] = -0.25
        tampered = vng.Solution(
            path=prog.path_values(z),
            objective_value=solution.objective_value,
            z=z,
            multipliers=solution.multipliers,
            residuals=solution.residuals,
            iterations=solution.iterations,
            outer_iterations=solution.outer_iterations,
            wall_time=solution.wall_time,
            converged=solution.converged,
            objective_trace=solution.objective_trace,
            mu_final=solution.mu_final,
            options=solution.options,
        )
        report = vng.kkt_report(tampered, single_asset)
        assert report.residuals.primal == pytest.approx(0.25, abs=1e-8)


class TestTerminalPrices:
    @pytest.mark.parametrize("make", NEWTON_CASES)
    def test_terminal_row_is_a_supergradient_over_the_value(self, make):
        """p_{N+1} times the leaf value is a supergradient at the solved leaf.

        Away from kinks it is ``leaf_grad`` to 1e-7 relative.  A kink is a
        coordinate of a lifted leaf with |x_j| < 1e-6 |x|_1, where the
        product must lie in the superdifferential of cx . x + min(c1 x, c2 x),
        the interval [cx + min(c1, c2), cx + max(c1, c2)].
        """
        problem = make()
        solution = vng.solve_log_optimal(problem)
        assert solution.converged
        dual = vng.extract_dual(solution, problem)
        objective, form = problem.objective, problem.objective.form
        for pos, x in enumerate(solution.path[problem.tree.horizon].values):
            g = dual.p_terminal[pos] * leaf_value(objective, pos, x)
            ref = leaf_grad(objective, pos, x)
            k = form.lift_index[pos]
            kink = (np.abs(x) < 1e-6 * np.abs(x).sum()) & (k >= 0)
            gap = np.abs(g - ref)[~kink].max(initial=0.0)
            assert gap <= 1e-7 * np.abs(ref).max(), pos
            if kink.any():
                lo = form.cx[pos] + np.minimum(form.c1[k], form.c2[k])
                hi = form.cx[pos] + np.maximum(form.c1[k], form.c2[k])
                assert np.all(((lo <= g) & (g <= hi))[kink]), pos


def _program_arrays(prog) -> dict[str, np.ndarray]:
    """Every array of a program by name, its levels' blocks included."""
    arrays = {f.name: getattr(prog, f.name) for f in dataclasses.fields(prog)
              if isinstance(getattr(prog, f.name), np.ndarray)}
    for t, lev in enumerate(prog.levels):
        arrays.update({f"levels[{t}].{k}": getattr(lev, k) for k in ("loc", "par", "up")
                       if getattr(lev, k) is not None})
    return arrays


class TestSharedProgram:
    """A problem assembles its program once; solve and checks share it."""

    def test_pipeline_assembles_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(vng.solver, "assemble",
                            lambda problem: calls.append(problem) or assemble(problem))
        problem = kelly_problem()
        solution = vng.solve_log_optimal(problem)
        assert vng.kkt_report(solution, problem).within(solution.options.tol)
        vng.extract_dual(solution, problem)
        vng.extract_dual(solution, problem, strict=False)
        assert calls == [problem]

    @pytest.mark.parametrize("variant", ["liquidation", "l1_mixed"])
    def test_program_is_read_only(self, variant):
        problem = _margin_problem(variant)
        vng.solve_log_optimal(problem)
        arrays = _program_arrays(problem.program)
        assert {"A_vals", "b", "leaf_w", "levels[2].up"} <= set(arrays)
        for name, array in arrays.items():
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        # the form's own index array is not frozen by the program
        assert problem.objective.form.lifted.flags.writeable

    @pytest.mark.parametrize("variant", ["liquidation", "l1_mixed"])
    def test_program_after_solve_equals_fresh_assembly(self, variant):
        problem = _margin_problem(variant)
        solution = vng.solve_log_optimal(problem)
        vng.extract_dual(solution, problem)
        shared, fresh = problem.program, assemble(problem)
        assert (shared.n_vars, shared.n_cons) == (fresh.n_vars, fresh.n_cons)
        assert [(a.rows, a.cols) for a in shared.levels] == [
            (a.rows, a.cols) for a in fresh.levels
        ]
        arrays, expected = _program_arrays(shared), _program_arrays(fresh)
        assert arrays.keys() == expected.keys()
        for name, array in arrays.items():
            assert array.dtype == expected[name].dtype, name
            assert array.tobytes() == expected[name].tobytes(), name

    def test_program_does_not_keep_its_problem_alive(self):
        problem = kelly_problem()
        solution = vng.solve_log_optimal(problem)
        vng.extract_dual(solution, problem)
        program = weakref.ref(problem.program)
        gc.disable()
        try:
            del problem
            assert program() is None  # freed by reference counts: no cycle
        finally:
            gc.enable()

    @pytest.mark.parametrize("clone", [
        lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_copied_problem_assembles_its_own(self, clone):
        problem = kelly_problem()
        program = problem.program
        twin = clone(problem)
        assert twin.program is not program
        arrays, expected = _program_arrays(twin.program), _program_arrays(program)
        for name, array in arrays.items():
            assert not array.flags.writeable, name
            assert array.tobytes() == expected[name].tobytes(), name

    def test_replaced_problem_assembles_its_own(self):
        problem = kelly_problem()
        program = problem.program
        doubled = dataclasses.replace(problem, x0=2.0 * problem.x0)
        assert problem.program is program
        assert doubled.program is not program
        assert np.array_equal(doubled.program.b, 2.0 * program.b)
        assert np.array_equal(doubled.program.A_vals, program.A_vals)


def _margin_problem(variant: str) -> vng.PathProblem:
    """Two assets with costs and shorting room, four leaves; one objective."""
    market = two_asset_margin_market()
    tree = market.tree
    if variant == "linear":
        objective = vng.LinearObjective(tree, market, q=[1.0, 1.1])
    elif variant == "liquidation":
        objective = vng.LiquidationObjective(tree, market)
    else:
        norm = variant[:2]
        bound = vng.NormPenalizedObjective(tree, market, norm=norm).theta_bound
        theta = 0.3 * bound
        if variant == "l1_mixed":  # lifted and unlifted leaves side by side
            theta[::2] = 0.0
        objective = vng.NormPenalizedObjective(
            tree, market, theta=theta, norm=norm
        )
    return vng.PathProblem(
        tree=tree, market=market, objective=objective, x0=np.array([0.6, 0.4])
    )


class TestAssembledDerivatives:
    @pytest.mark.parametrize(
        "variant", ["linear", "liquidation", "l1", "l2", "l1_mixed"]
    )
    def test_derivatives_match_differences(self, variant):
        problem = _margin_problem(variant)
        prog = problem.program
        z0 = _interior_start(problem)
        grad = prog.grad_f(z0)
        def f(z):  # sum_l P_l ln sigma_l
            return float(prog.leaf_prob @ np.log(prog.sigmas(z)))
        assert grad == pytest.approx(
            central_difference_gradient(f, z0), rel=1e-6, abs=1e-8
        )
        hess = np.column_stack([
            -central_difference_gradient(lambda z: prog.grad_f(z)[k], z0)
            for k in range(prog.n_vars)
        ])
        W = dense_neg_hess(prog, z0)
        assert W == pytest.approx(hess, rel=1e-6, abs=1e-8 * np.abs(W).max())
        assert np.allclose(W, W.T)

    def test_mixed_penalty_solves_and_certifies(self):
        problem = _margin_problem("l1_mixed")
        prog = assemble(problem)
        lifted = problem.objective.form.lifted
        assert 0 < len(lifted) < problem.tree.n_leaves
        solution = vng.solve_log_optimal(problem)
        assert solution.converged
        dual = vng.extract_dual(solution, problem)
        cert = vng.verify_rapid(
            solution.path, dual, problem.tree, problem.market, tol=1e-6
        )
        assert cert.certified
        x_N = solution.path[problem.tree.horizon]
        values = problem.objective.form.values(x_N.values)
        assert prog.sigmas(solution.z) == pytest.approx(values, rel=1e-8)


def test_grid_search_on_retained_fraction_is_independent_oracle():
    """The oracle really searches: an interior optimum is recovered too."""
    x, val = golden_section_max(lambda f: np.log(f) - f, 1e-6, 3.0)
    assert x == pytest.approx(1.0, abs=1e-7)
    assert val == pytest.approx(-1.0, abs=1e-12)
