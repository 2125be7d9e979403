"""Output checks computed apart from the program.

Every quantity is recomputed here from the generated instance (plain arrays)
and the program's outputs (path and dual prices per node), with this
module's own value functions, margin and self-financing formulas, cone
section vertices and competitor sampler.  Nothing is compared with stored
output.  Each check returns a list of failure messages; empty means pass.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

import numpy as np

from inputs import Instance, section_vertices

SOLVER_TOL = 1e-8
CERT_TOL = 1e-6
DOMINANCE_TOL = 1e-8
KELLY_FRACTION = 5.0 / 12.0


# --- the instance's own formulas ------------------------------------------------

def leaf_values(inst: Instance, x_leaves: np.ndarray) -> np.ndarray:
    """Terminal value of each leaf portfolio (rows follow the leaf level)."""
    leaves = inst.level(inst.horizon)
    obj = inst.objective
    variant = obj["variant"]
    if variant == "liquidation":
        lp, lm = 1.0 - inst.lam_plus[leaves], 1.0 + inst.lam_minus[leaves]
        return (np.minimum(lp * x_leaves, lm * x_leaves)).sum(axis=-1)
    q = np.broadcast_to(
        np.ones(inst.m) if obj.get("q") is None else np.asarray(obj["q"], float),
        (len(leaves), inst.m),
    )
    value = (q * x_leaves).sum(axis=-1)
    if variant == "linear":
        return value
    if obj.get("norm", "l1") == "l1":
        return value - obj["theta"] * np.abs(x_leaves).sum(axis=-1)
    return value - obj["theta"] * np.linalg.norm(x_leaves, axis=-1)


def growth(inst: Instance, x: np.ndarray) -> np.ndarray:
    """E log terminal value of path(s) x (..., n, m); -inf if a value is <= 0."""
    leaves = inst.level(inst.horizon)
    vals = leaf_values(inst, x[..., leaves, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(vals > 0.0, np.log(np.where(vals > 0.0, vals, 1.0)), -np.inf)
    return (logs * inst.prob[leaves]).sum(axis=-1)


def margin(inst: Instance, x: np.ndarray) -> np.ndarray:
    """Margin slack Lp . x+ - mu_t Lm . x- per node of path(s) x (..., n, m)."""
    lp, lm = 1.0 - inst.lam_plus, 1.0 + inst.lam_minus
    mu = inst.margins[inst.depth][:, None]
    return (lp * np.maximum(x, 0.0) - mu * lm * np.maximum(-x, 0.0)).sum(axis=-1)


def psi(inst: Instance, x: np.ndarray) -> np.ndarray:
    """Cash released into each non-root node: sum_j min(Lp d, Lm d), d = R a - b."""
    kids = np.arange(1, inst.n_nodes)
    d = inst.returns[kids] * x[..., inst.parent[kids], :] - x[..., kids, :]
    lp, lm = 1.0 - inst.lam_plus[kids], 1.0 + inst.lam_minus[kids]
    return np.minimum(lp * d, lm * d).sum(axis=-1)


def cone_residual(inst: Instance, p: np.ndarray, cone_nodes: np.ndarray) -> np.ndarray:
    """min over the cone section's vertices of p . v, row k at cone_nodes[k]."""
    out = np.empty(len(cone_nodes))
    for k, node in enumerate(cone_nodes):
        lp, lm = 1.0 - inst.lam_plus[node], 1.0 + inst.lam_minus[node]
        verts = section_vertices(lp, inst.margins[inst.depth[node]] * lm)
        out[k] = (verts @ p[k]).min()
    return out


# --- own competitor sampler -----------------------------------------------------

def _cone_directions(inst: Instance, node: int, rng, count: int) -> np.ndarray:
    """Random members of the node's margin cone: random longs, shorts scaled to
    use a random share below 0.9 of the cost-adjusted long value."""
    m = inst.m
    lp, lm = 1.0 - inst.lam_plus[node], 1.0 + inst.lam_minus[node]
    mu = inst.margins[inst.depth[node]]
    longs = rng.uniform(0.05, 1.0, (count, m))
    short = rng.random((count, m)) < 0.4
    short[short.all(axis=1), 0] = False
    budget = (lp * longs * ~short).sum(axis=1) * rng.uniform(0.0, 0.9, count)
    raw = rng.uniform(0.05, 1.0, (count, m)) * short
    need = mu * (lm * raw).sum(axis=1)
    scale = np.where(need > 0.0, budget / np.where(need > 0.0, need, 1.0), 0.0)
    return np.where(short, -scale[:, None] * raw, longs)


def _frontier(inst: Instance, node: int, A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Largest c with psi(A, c D) >= 0, per row, by doubling then bisection."""
    R = inst.returns[node]
    lp, lm = 1.0 - inst.lam_plus[node], 1.0 + inst.lam_minus[node]

    def ok(c):
        d = A * R - c[:, None] * D
        return np.minimum(lp * d, lm * d).sum(axis=1) >= 0.0

    lo = np.zeros(len(A))
    hi = np.abs(A).sum(axis=1) / np.abs(D).sum(axis=1)
    for _ in range(60):
        grow = ok(hi)
        if not grow.any():
            break
        lo = np.where(grow, hi, lo)
        hi = np.where(grow, 2.0 * hi, hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        good = ok(mid)
        lo = np.where(good, mid, lo)
        hi = np.where(good, hi, mid)
    return lo


def sample_paths(inst: Instance, rng, count: int) -> np.ndarray:
    """``count`` feasible paths from x0, shape (count, n, m)."""
    paths = np.zeros((count, inst.n_nodes, inst.m))
    paths[:, 0] = inst.x0
    for node in range(1, inst.n_nodes):
        A = paths[:, inst.parent[node]]
        D = _cone_directions(inst, node, rng, count)
        fill = rng.uniform(0.05, 0.95, count)
        paths[:, node] = (fill * _frontier(inst, node, A, D))[:, None] * D
    return paths


# --- the certificate checks -----------------------------------------------------

def check_certificate(
    inst: Instance, x: np.ndarray, prices: np.ndarray, terminal: np.ndarray,
    f_reported: float, rng, competitors: int,
) -> list[str]:
    """Check a solved path and its dual against the instance.

    ``x`` is (n, m) with the root row x0; ``prices[k]`` is p_t at depth-t node
    k >= 1 (it prices the parent's portfolio); ``terminal`` is p_{N+1} on the
    leaves, in leaf-level order.
    """
    fails: list[str] = []
    N = inst.horizon
    leaves = inst.level(N)
    kids = np.arange(1, inst.n_nodes)
    name = inst.name

    f_own = float(growth(inst, x))
    if not abs(f_own - f_reported) <= SOLVER_TOL * max(1.0, abs(f_own)):
        fails.append(f"{name}: F {f_reported!r} but leaf values give {f_own!r}")

    worst = max(-margin(inst, x)[kids].min(), -psi(inst, x).min())
    if worst > CERT_TOL:
        fails.append(f"{name}: path infeasible by {worst:.3e}")

    norm = np.abs((prices[kids] * x[inst.parent[kids]]).sum(axis=1) - 1.0)
    norm_leaf = np.abs((terminal * x[leaves]).sum(axis=1) - 1.0)
    worst = max(norm.max(), norm_leaf.max())
    if worst > CERT_TOL:
        fails.append(f"{name}: normalization off by {worst:.3e}")

    member = min(
        cone_residual(inst, prices[kids], inst.parent[kids]).min(),
        cone_residual(inst, terminal, leaves).min(),
    )
    if member < -CERT_TOL:
        fails.append(f"{name}: dual price outside the dual cone by {-member:.3e}")

    # bar[k] = E_t[p_{t+1}] at node k: child-weighted prices, terminal at leaves.
    bar = np.zeros_like(x)
    bar[leaves] = terminal
    for k in kids[::-1]:
        bar[inst.parent[k]] += inst.cond_prob[k] * prices[k]

    ys = sample_paths(inst, rng, competitors)
    w = rng.uniform(0.0, 1.0, (competitors, 1, 1))
    ys = np.concatenate([ys, (1.0 - w) * x + w * ys])
    now = (bar[kids] * ys[:, kids]).sum(axis=2)            # p_bar_t . y_t
    before = (prices[kids] * ys[:, inst.parent[kids]]).sum(axis=2)  # p_t . y_{t-1}
    nodewise = (now - before).max()
    # one date earlier: E_{t-1}[p_bar_t . y_t] <= p_bar_{t-1} . y_{t-1}
    cond_now = np.zeros((len(ys), inst.n_nodes))
    np.add.at(cond_now.T, inst.parent[kids], (inst.cond_prob[kids] * now).T)
    parents = np.unique(inst.parent[kids])
    earlier = (cond_now[:, parents] - (bar[parents] * ys[:, parents]).sum(axis=2)).max()
    prob = inst.prob[kids]
    depth = inst.depth[kids]
    expect = max(
        ((prob * (now - before))[:, depth == t].sum(axis=1)).max()
        for t in range(1, N + 1)
    )
    gain = (growth(inst, ys) - f_reported).max()
    for label, value in (("nodewise", nodewise), ("one-date-earlier", earlier),
                         ("expectation-form", expect), ("growth", gain)):
        if value > DOMINANCE_TOL:
            fails.append(f"{name}: competitor {label} violation {value:.3e}")
    return fails


def check_program_reports(name: str, certified: bool, reports, rapid) -> list[str]:
    """The program's own verdicts must agree: certified, no competitor gains."""
    fails = [] if certified else [f"{name}: program refuted its certificate"]
    worst = max([0.0] + [max(r.first_form, r.second_form) for r in reports])
    if worst > DOMINANCE_TOL:
        fails.append(f"{name}: program competitor residual {worst:.3e}")
    if max(rapid.equality_gap, rapid.second_form) > DOMINANCE_TOL:
        fails.append(f"{name}: program rapid-path gap {rapid.equality_gap:.3e}")
    return fails


# --- CLI artifacts --------------------------------------------------------------

def digest(problem: bytes, solver: dict) -> str:
    options = json.dumps(
        {"tol": solver["tol"], "max_iter": solver["max_iter"], "seed": solver["seed"]},
        sort_keys=True,
    )
    return hashlib.sha256(problem + b"\x00" + options.encode()).hexdigest()


def by_node(inst: Instance, table: dict, nodes) -> np.ndarray:
    return np.array([table[inst.ids[k]] for k in nodes], dtype=float)


def check_cli_artifacts(
    inst: Instance, problem: bytes, solution_doc: dict, cert_doc: dict,
    compare_csv: str, rng, competitors: int,
) -> list[str]:
    fails: list[str] = []
    name = inst.name
    solver = {"tol": 1e-8, "max_iter": 2000, "seed": 0}
    solver.update(json.loads(problem).get("solver", {}))
    want = digest(problem, solver)
    for label, doc in (("solution", solution_doc), ("certificate", cert_doc)):
        if doc.get("digest") != want:
            fails.append(f"{name}: {label} digest differs from sha256 of the inputs")
    if not solution_doc.get("converged"):
        fails.append(f"{name}: solution not converged")
    if cert_doc.get("verdict") != "certified":
        fails.append(f"{name}: verdict {cert_doc.get('verdict')!r}")
    report = cert_doc.get("supermartingale", {})
    worst = max(report.get(key, float("inf")) for key in
                ("first_form", "second_form", "rapid_equality_gap"))
    if not worst <= DOMINANCE_TOL:
        fails.append(f"{name}: certificate's supermartingale report {report}")

    everything = np.arange(inst.n_nodes)
    x = by_node(inst, cert_doc["path"], everything)
    if not np.array_equal(x, by_node(inst, solution_doc["path"], everything)):
        fails.append(f"{name}: certificate path differs from the solution path")
    prices = np.zeros_like(x)
    for t in range(1, inst.horizon + 1):
        prices[inst.level(t)] = by_node(inst, cert_doc["dual"][str(t)], inst.level(t))
    terminal = by_node(inst, cert_doc["dual"]["terminal"], inst.level(inst.horizon))
    fails += check_certificate(
        inst, x, prices, terminal, float(solution_doc["objective_value"]),
        rng, competitors,
    )

    if inst.name == "kelly":
        mid = x[inst.ids.index("mid")]
        fraction = mid[1] / mid.sum()
        if abs(fraction - KELLY_FRACTION) > CERT_TOL:
            fails.append(f"kelly: risky fraction {fraction!r}, closed form 5/12")

    rows = list(csv.DictReader(io.StringIO(compare_csv)))
    if not rows:
        fails.append(f"{name}: empty compare table")
    for row in rows:
        ratios = [float(row["max_conditional_growth"]), float(row["mean_growth"])]
        if row["strategy_id"] == "rapid":
            ok = all(abs(r - 1.0) <= CERT_TOL for r in ratios)
        else:
            ok = all(r <= 1.0 + CERT_TOL for r in ratios)
        if not ok:
            fails.append(f"{name}: compare row {row}")
    return fails
