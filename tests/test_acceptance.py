"""Acceptance gate: every shipped guarantee at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
as they happen).  The fifty-instance pipeline is solved once and shared.
"""

import io
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

import vng
import vng.cli_io as cli
from conftest import (
    identical_assets_market,
    kelly_problem,
    make_instance,
    two_asset_margin_market,
)
from oracles import (
    batch_transition_members,
    dual_bar,
    kelly_oracle,
    node_probability,
    over_bound_objective,
    section_grid_min,
)

N_INSTANCES = 50
PIPELINE_BUDGET_S = 60.0
CERT_TOL = 1e-6
DOMINANCE_TOL = 1e-8
COMPETITORS = 200


def report(num: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[ACCEPTANCE {num:02d}] {status} {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def pipelines():
    """Solve, extract and verify the fifty seeded instances once."""
    out = []
    t0 = time.perf_counter()
    for seed in range(N_INSTANCES):
        problem = make_instance(seed)
        solution = vng.solve_log_optimal(problem)
        dual = (
            vng.extract_dual(solution, problem) if solution.converged else None
        )
        cert = (
            vng.verify_rapid(
                solution.path, dual, problem.tree, problem.market, tol=CERT_TOL
            )
            if dual is not None
            else None
        )
        out.append((problem, solution, dual, cert))
    elapsed = time.perf_counter() - t0
    return out, elapsed


@pytest.fixture(scope="module")
def competitors(pipelines):
    """200 sampled feasible competitor paths per certified instance."""
    runs, _ = pipelines
    table = {}
    for seed, (problem, solution, dual, cert) in enumerate(runs):
        rng = np.random.default_rng(10_000 + seed)
        table[seed] = vng.sample_competitor_paths(
            problem.tree, problem.market, rng, problem.x0, COMPETITORS
        )
    return table


def test_01_theorem_pipeline(pipelines):
    runs, elapsed = pipelines
    not_converged = [k for k, r in enumerate(runs) if not r[1].converged]
    refuted = [k for k, r in enumerate(runs) if r[3] is None or not r[3].certified]
    residual = max(
        max(c.normalization.max(), c.membership.max(), c.transition.max(),
            c.feasibility.max())
        for _, _, _, c in runs if c is not None
    ) if len(refuted) < len(runs) else float("inf")
    ok = not not_converged and not refuted and residual <= CERT_TOL
    ok = ok and elapsed <= PIPELINE_BUDGET_S
    report(
        1,
        f"solve->extract->verify certifies all {N_INSTANCES} seeded instances",
        ok,
        f"max residual {residual:.2e}, elapsed {elapsed:.1f}s <= {PIPELINE_BUDGET_S:.0f}s",
    )


def test_end_game_centers_at_most_three_times(pipelines):
    """Every solve centers exactly twice: at the handover mu, then at the
    final mu."""
    runs, _ = pipelines
    assert all(solution.outer_iterations == 2 for _, solution, _, _ in runs)


def test_02_kelly_oracle():
    t0 = time.perf_counter()
    problem = kelly_problem()
    solution = vng.solve_log_optimal(problem)
    elapsed = time.perf_counter() - t0
    f_star, v_star = kelly_oracle()
    x1 = np.asarray(solution.path)[problem.tree.index("mid")]
    fraction = float(x1[1] / x1.sum())
    ok = (
        solution.converged
        and abs(fraction - f_star) <= 1e-4
        and abs(solution.objective_value - v_star) <= 1e-6
        and elapsed <= 1.0
    )
    report(
        2,
        "two-asset binomial recovers the grid-search risky fraction",
        ok,
        f"fraction {fraction:.6f} vs {f_star:.6f} (5/12), "
        f"F gap {abs(solution.objective_value - v_star):.2e}, {elapsed:.2f}s",
    )


def test_03_normalization(pipelines):
    runs, _ = pipelines
    worst = max(c.normalization.max() for _, _, _, c in runs if c is not None)
    report(
        3,
        "unit inner products p_{t+1} . x_t at every node",
        worst <= CERT_TOL,
        f"max |p.x - 1| = {worst:.2e} <= {CERT_TOL:.0e}",
    )


def _expectation_form_violation(problem, dual, path) -> float:
    tree = problem.tree
    worst = 0.0
    for t in range(1, tree.horizon + 1):
        bar = dual_bar(tree, dual, t).values
        lhs = rhs = 0.0
        for pos, node in enumerate(tree.nodes[tree.span(t)]):
            prob = node_probability(tree, node.index)
            lhs += prob * float(bar[pos] @ path[node.index])
            rhs += prob * float(dual.p[node.index - 1] @ path[node.parent])
        worst = max(worst, lhs - rhs)
    return worst


def test_04_dominance_expectation_form(pipelines, competitors):
    runs, _ = pipelines
    worst = 0.0
    count = 0
    for seed, (problem, solution, dual, cert) in enumerate(runs):
        for y in competitors[seed]:
            worst = max(worst, _expectation_form_violation(problem, dual, y))
            count += 1
    report(
        4,
        f"expected deflated value never grows over {count} competitor paths",
        worst <= DOMINANCE_TOL,
        f"max E-form violation {worst:.2e} <= {DOMINANCE_TOL:.0e}",
    )


def test_05_supermartingale(pipelines, competitors):
    runs, _ = pipelines
    worst_comp = 0.0
    worst_eq = 0.0
    for seed, (problem, solution, dual, cert) in enumerate(runs):
        rapid = vng.supermartingale_check(dual, solution.path, problem.tree)
        worst_eq = max(worst_eq, rapid.equality_gap, rapid.second_form)
        for y in competitors[seed]:
            rep = vng.supermartingale_check(dual, y, problem.tree)
            worst_comp = max(worst_comp, rep.first_form, rep.second_form)
    ok = worst_comp <= DOMINANCE_TOL and worst_eq <= DOMINANCE_TOL
    report(
        5,
        "nodewise supermartingale for competitors, martingale for the solution",
        ok,
        f"competitor residual {worst_comp:.2e}, rapid equality gap {worst_eq:.2e}",
    )


def _corrupt(dual, tree, mode, rng):
    p, terminal = dual.p.copy(), dual.p_terminal.copy()
    if mode == "terminal_x2":
        terminal *= 2.0
        t_check = tree.horizon
    else:
        t_check = int(rng.integers(1, tree.horizon + 1))
        lev = tree.span(t_check)
        row = lev.start - 1 + int(rng.integers(lev.stop - lev.start))
        p[row] = -p[row] if mode == "negate_node" else 0.5 * p[row]
    return vng.DualPath(tree, p, terminal), t_check


def test_06_four_way_consistency(pipelines):
    runs, _ = pipelines
    silent = []
    detections = 0
    for seed in range(20):
        problem, solution, dual, _ = runs[seed]
        tree = problem.tree
        rng = np.random.default_rng(700 + seed)

        for t in range(1, tree.horizon + 1):
            clean = vng.check_equivalences(
                tree, problem.market, solution.path, dual, t,
                n_samples=25, seed=seed, tol=1e-7,
            )
            if not (clean.all_pass and clean.consistent):
                silent.append((seed, t, "clean", clean.passes))

        for mode in ("terminal_x2", "negate_node", "half_node"):
            bad, t = _corrupt(dual, tree, mode, rng)
            rep = vng.check_equivalences(
                tree, problem.market, solution.path, bad, t,
                n_samples=25, seed=seed, tol=1e-7,
            )
            p = rep.passes
            detected = not p["IV"] and not (p["I"] and p["II"] and p["III"])
            if not detected or not rep.consistent:
                silent.append((seed, t, mode, p))
            else:
                detections += 1
    report(
        6,
        "checks (I)-(IV) agree on clean duals and co-detect 3 corruption modes",
        not silent,
        f"{detections} corruptions detected, disagreements: {silent[:3]}",
    )


def test_07_constants_oracle():
    mu, nu = 1.5, 1.2721088435374148
    closed_c1 = (mu - nu) / (1.0 + mu)
    closed_h = (mu + 1.0) / (mu - 1.0)
    worst = 0.0
    for m in (2, 3):
        exact = vng.market_constants(identical_assets_market(m, mu, 1.1, 0.9, 0.02, 0.02))
        for c1, q in (
            (section_grid_min(mu, m, 1.0, nu), section_grid_min(mu, m, 1.0, 1.0)),
            (exact.C1[0], exact.Q[0]),
        ):
            worst = max(worst, abs(c1 - closed_c1), abs(1.0 / q - closed_h))
    market = two_asset_margin_market()
    constants = market.constants
    rng = np.random.default_rng(77)
    violations = 0
    total = 0
    for node in market.tree.nodes:
        if node.parent is None:
            continue
        a, b = batch_transition_members(market, node.index, rng, 10_000)
        bound = constants.K[node.depth] * np.abs(a).sum(axis=1) + 1e-9
        violations += int((np.abs(b).sum(axis=1) > bound).sum())
        total += len(a)
    ok = worst <= 1e-3 and violations == 0
    report(
        7,
        "grid constants match closed forms; |b| <= K|a| on sampled transitions",
        ok,
        f"closed-form gap {worst:.1e} <= 1e-3, {violations}/{total} bound violations",
    )


def test_08_homogeneity():
    problem = kelly_problem()
    base = vng.solve_log_optimal(problem)
    worst_path = 0.0
    worst_f = 0.0
    for c in (0.5, 2.0, 10.0):
        scaled = vng.solve_log_optimal(
            vng.PathProblem(tree=problem.tree, market=problem.market,
                            objective=problem.objective, x0=c * problem.x0)
        )
        worst_f = max(
            worst_f,
            abs(scaled.objective_value - base.objective_value - np.log(c)),
        )
        for t in range(problem.tree.horizon + 1):
            ref = c * base.path[t].values
            rel = np.abs(scaled.path[t].values - ref).max() / np.abs(ref).max()
            worst_path = max(worst_path, rel)
    ok = worst_path <= 1e-6 and worst_f <= 1e-9
    report(
        8,
        "scaling x0 by c scales the path by c and shifts F by ln c",
        ok,
        f"path rel err {worst_path:.2e} <= 1e-6, F shift err {worst_f:.2e} <= 1e-9",
    )


def test_09_objective_axioms():
    market = two_asset_margin_market()
    tree = market.tree
    shipped = [
        vng.LinearObjective(tree, market, q=np.array([1.0, 1.1])),
        vng.LiquidationObjective(tree, market),
        vng.NormPenalizedObjective(tree, market, theta=0.02, norm="l1"),
        vng.NormPenalizedObjective(tree, market, theta=0.02, norm="l2"),
    ]
    failures = []
    for obj in shipped:
        rep = vng.check_psi_class(obj, tree, market, n_samples=10_000, seed=5)
        if not rep.passed:
            failures.append(type(obj).__name__)
    broken = over_bound_objective(tree, market)
    broken_rep = vng.check_psi_class(broken, tree, market, n_samples=10_000, seed=6)
    ok = not failures and not broken_rep.two_sided_bound.passed
    report(
        9,
        "shipped objectives pass the value-class axioms; a broken one is caught",
        ok,
        f"failures {failures}, broken objective violations "
        f"{broken_rep.two_sided_bound.violations}",
    )


def test_10_cli_golden(tmp_path, monkeypatch):
    fixtures = os.path.join(os.path.dirname(__file__), "fixtures")
    golden = os.path.join(os.path.dirname(__file__), "golden")
    for name in os.listdir(fixtures):
        shutil.copy(os.path.join(fixtures, name), tmp_path / name)
    monkeypatch.chdir(tmp_path)
    mismatches = []
    for fixture in ("kelly", "single_asset", "two_asset_margin"):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli.main(["validate", f"{fixture}.json"]) == 0
            assert cli.main(["solve", f"{fixture}.json"]) == 0
            assert cli.main(
                ["certify", f"{fixture}.json", f"{fixture}.solution.json"]
            ) == 0
            strat = (
                "strategies.json" if fixture != "single_asset"
                else "single_strategies.json"
            )
            assert cli.main(
                ["compare", f"{fixture}.json", strat,
                 "--certificate", f"{fixture}.certificate.json"]
            ) == 0
        with open(os.path.join(golden, f"{fixture}.summary.txt")) as fh:
            if buf.getvalue() != fh.read():
                mismatches.append(f"{fixture} summary")
        with open(os.path.join(golden, f"{fixture}.compare.csv"), "rb") as fh:
            if (tmp_path / f"{fixture}.compare.csv").read_bytes() != fh.read():
                mismatches.append(f"{fixture} csv")
    report(
        10,
        "validate/solve/certify/compare reproduce byte-identical goldens",
        not mismatches,
        f"mismatches: {mismatches}" if mismatches else "3 fixtures byte-identical",
    )


def test_benchmark_inputs_reproduce_the_acceptance_instances():
    """perfbench's seeds50 generator rebuilds the 50 acceptance instances;
    its check reads each tree's Node records (id, parent, probability)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "check_inputs.py")],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
