"""What the perfbench harness reads of the library stays in place.

The harness lives beside the package and is edited only with its own
workloads, so the names it reads are pinned here, without importing it:
the node records and date views its checks read, and every attribute its
tracer wraps that the program still has.
"""

import importlib

import numpy as np
import pytest

import vng
from conftest import make_instance

# (module, attribute path) of each function or method the tracer wraps
TRACED = [
    ("vng.scenario_tree", "build_tree"),
    ("vng.market_model", "market_constants"),
    ("vng.market_model", "dual_cone_violation"),
    ("vng.market_model", "transition_frontier_batch"),
    ("vng.objectives", "log_objective"),
    ("vng.solver", "solve_log_optimal"),
    ("vng.solver", "assemble"),
    ("vng.solver", "_interior_start"),
    ("vng.solver", "AssembledProgram.sigmas"),
    ("vng.solver", "AssembledProgram.grad_f"),
    ("vng.solver", "AssembledProgram.neg_hess_f"),
    ("vng.solver", "kkt_report"),
    ("vng.certification", "verify_rapid"),
    ("vng.certification", "supermartingale_check"),
    ("vng.certification", "sample_competitor_paths"),
    ("vng.cli_io", "load_problem"),
    ("vng.cli_io", "write_json"),
    ("vng.cli_io", "_atomic_write"),
]


@pytest.mark.parametrize("module, path", TRACED, ids=[p for _, p in TRACED])
def test_traced_attribute_exists(module, path):
    owner = importlib.import_module(module)
    for name in path.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


@pytest.fixture(scope="module")
def solved():
    problem = make_instance(3)
    solution = vng.solve_log_optimal(problem)
    dual = vng.extract_dual(solution, problem)
    cert = vng.verify_rapid(solution.path, dual, problem.tree, problem.market, tol=1e-6)
    return problem, solution, dual, cert


def test_node_records_read_the_tree_arrays(solved):
    problem = solved[0]
    tree = problem.tree
    assert [n.node_id for n in tree.nodes] == list(tree.ids)
    assert [-1 if n.parent is None else n.parent for n in tree.nodes] == (
        tree.parents.tolist()
    )
    assert [n.cond_prob for n in tree.nodes] == tree.cond_prob.tolist()


def test_date_views_read_the_path_and_dual_rows(solved):
    problem, solution, dual, cert = solved
    tree = problem.tree
    assert cert.certified
    X = np.asarray(solution.path)
    for t in range(tree.horizon + 1):
        assert np.array_equal(solution.path[t].values, X[tree.span(t)])
    for t in range(1, tree.horizon + 1):
        rows = slice(tree.offsets[t] - 1, tree.offsets[t + 1] - 1)
        assert np.array_equal(dual.prices[t].values, dual.p[rows])
    assert np.array_equal(dual.terminal.values, dual.p_terminal)
    assert dual.terminal.depth == tree.horizon + 1


@pytest.mark.parametrize("seed", [0, 1, 2])  # linear, liquidation, norm-penalized
def test_problem_fields_the_input_check_reads(seed):
    problem = make_instance(seed)
    market, objective, n_leaves = problem.market, problem.objective, problem.tree.n_leaves
    for name in ("returns", "lam_plus", "lam_minus", "margins"):
        assert isinstance(getattr(market, name), np.ndarray)
    assert problem.x0.shape == (market.m,)
    if isinstance(objective, vng.NormPenalizedObjective):
        assert objective.theta.shape == (n_leaves,)
        assert objective.norm in ("l1", "l2")
    if not isinstance(objective, vng.LiquidationObjective):
        assert objective.q.shape == (n_leaves, market.m)
