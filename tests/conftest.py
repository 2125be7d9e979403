"""Shared fixtures: canonical small instances and a seeded instance generator."""

from __future__ import annotations

import numpy as np
import pytest

import vng


def chain_then_branch_tree(m: int) -> vng.ScenarioTree:
    raw = [
        ("root", None, 1.0),
        ("mid", "root", 1.0),
        ("up", "mid", 0.5),
        ("down", "mid", 0.5),
    ]
    return vng.build_tree(raw, m)


def kelly_problem() -> vng.PathProblem:
    """Two assets, frictionless: riskless R=1, risky up 1.4 / down 0.7.

    The date-1 rebalance (trivial returns) carries the one Kelly decision;
    margins are slack enough that (B2) holds (nu_1 = 1.4 / 0.7 = 2).
    """
    tree = chain_then_branch_tree(2)
    returns = np.full((tree.n_nodes, 2), np.nan)
    returns[tree.index("mid")] = [1.0, 1.0]
    returns[tree.index("up")] = [1.0, 1.4]
    returns[tree.index("down")] = [1.0, 0.7]
    market = vng.MarketData(
        tree=tree,
        m=2,
        returns=returns,
        lam_plus=np.zeros((tree.n_nodes, 2)),
        lam_minus=np.zeros((tree.n_nodes, 2)),
        margins=np.array([2.5, 2.5, 2.5]),
    )
    objective = vng.LiquidationObjective(tree, market)
    return vng.PathProblem(
        tree=tree, market=market, objective=objective, x0=np.array([0.5, 0.5])
    )


def single_asset_problem() -> vng.PathProblem:
    """One asset, frictionless, N=1, returns 1.2 / 0.9 on equiprobable leaves."""
    raw = [("root", None, 1.0), ("up", "root", 0.5), ("down", "root", 0.5)]
    tree = vng.build_tree(raw, 1)
    returns = np.full((tree.n_nodes, 1), np.nan)
    returns[tree.index("up")] = [1.2]
    returns[tree.index("down")] = [0.9]
    market = vng.MarketData(
        tree=tree,
        m=1,
        returns=returns,
        lam_plus=np.zeros((tree.n_nodes, 1)),
        lam_minus=np.zeros((tree.n_nodes, 1)),
        margins=np.array([1.5, 1.5]),
    )
    objective = vng.LiquidationObjective(tree, market)
    return vng.PathProblem(
        tree=tree, market=market, objective=objective, x0=np.array([1.0])
    )


def two_asset_margin_market() -> vng.MarketData:
    """N=2 binary tree, 2 assets, 2% costs, margin 1.6; shorts feasible."""
    raw = [
        ("r", None, 1.0),
        ("a", "r", 0.5), ("b", "r", 0.5),
        ("aa", "a", 0.6), ("ab", "a", 0.4),
        ("ba", "b", 0.5), ("bb", "b", 0.5),
    ]
    tree = vng.build_tree(raw, 2)
    rng = np.random.default_rng(7)
    returns = np.full((tree.n_nodes, 2), np.nan)
    for node in tree.nodes:
        if node.parent is not None:
            returns[node.index] = rng.uniform(0.9, 1.15, 2)
    lam = np.full((tree.n_nodes, 2), 0.02)
    return vng.MarketData(
        tree=tree, m=2, returns=returns, lam_plus=lam, lam_minus=lam,
        margins=np.array([1.6, 1.6, 1.6]),
    )


def make_instance(
    seed: int,
    max_depth: int = 4,
    max_branch: int = 3,
    max_m: int = 4,
    lam_max: float = 0.05,
) -> vng.PathProblem:
    """Seeded random (B1)/(B2)-valid instance with margins nu + 0.1 or looser."""
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, max_depth + 1))
    m = int(rng.integers(1, max_m + 1))

    raw = [("n0", None, 1.0)]
    level = ["n0"]
    count = 1
    for _ in range(N):
        new_level = []
        for parent in level:
            k = int(rng.integers(1, max_branch + 1))
            probs = rng.uniform(1.0, 2.0, k)
            probs /= probs.sum()
            for j in range(k):
                nid = f"n{count}"
                count += 1
                raw.append((nid, parent, float(probs[j])))
                new_level.append(nid)
        level = new_level
    tree = vng.build_tree(raw, m)

    returns = np.full((tree.n_nodes, m), np.nan)
    for node in tree.nodes:
        if node.parent is not None:
            returns[node.index] = rng.uniform(0.85, 1.2, m)
    lam_plus = rng.uniform(0.0, lam_max, (tree.n_nodes, m))
    lam_minus = rng.uniform(0.0, lam_max, (tree.n_nodes, m))

    probe = vng.MarketData(
        tree=tree, m=m, returns=returns, lam_plus=lam_plus, lam_minus=lam_minus,
        margins=np.full(N + 1, 1e6),
    )
    nu = vng.market_constants(probe).nu
    margins = nu + 0.1 + rng.uniform(0.0, 0.5, N + 1)
    market = vng.MarketData(
        tree=tree, m=m, returns=returns, lam_plus=lam_plus, lam_minus=lam_minus,
        margins=margins,
    )

    variant = seed % 4
    if variant == 0:
        objective = vng.LinearObjective(tree, market, q=rng.uniform(0.9, 1.1, m))
    elif variant == 1:
        objective = vng.LiquidationObjective(tree, market)
    else:
        norm = "l1" if variant == 2 else "l2"
        probe_obj = vng.NormPenalizedObjective(tree, market, theta=0.0, norm=norm)
        theta = 0.3 * float(probe_obj.theta_bound.min())
        objective = vng.NormPenalizedObjective(tree, market, theta=theta, norm=norm)

    x0 = rng.uniform(0.3, 1.5, m)
    return vng.PathProblem(tree=tree, market=market, objective=objective, x0=x0)


def regular_problem(
    branching: int, depth: int, m: int, seed: int, frictionless: int = 0
) -> vng.PathProblem:
    """Regular tree with liquidation value, drawn from a fixed seed.

    Random conditional probabilities, returns and cost rates up to 5%; the
    margins sit 0.1 to 0.6 above the market's (B2) floor.  The first
    ``frictionless`` coordinates trade without costs (their rates are drawn,
    then set to 0, so the other draws do not move).
    """
    rng = np.random.default_rng(seed)
    raw = [("r", None, 1.0)]
    level = ["r"]
    for _ in range(depth):
        new = []
        for parent in level:
            probs = rng.uniform(1.0, 2.0, branching)
            probs /= probs.sum()
            for j in range(branching):
                raw.append((f"{parent}{j}", parent, float(probs[j])))
                new.append(f"{parent}{j}")
        level = new
    tree = vng.build_tree(raw, m)
    returns = np.full((tree.n_nodes, m), np.nan)
    returns[1:] = rng.uniform(0.85, 1.2, (tree.n_nodes - 1, m))
    lam_plus = rng.uniform(0.0, 0.05, (tree.n_nodes, m))
    lam_minus = rng.uniform(0.0, 0.05, (tree.n_nodes, m))
    lam_plus[:, :frictionless] = lam_minus[:, :frictionless] = 0.0
    probe = vng.MarketData(
        tree=tree, m=m, returns=returns, lam_plus=lam_plus, lam_minus=lam_minus,
        margins=np.full(depth + 1, 1e6),
    )
    margins = vng.market_constants(probe).nu + 0.1 + rng.uniform(0.0, 0.5, depth + 1)
    market = vng.MarketData(
        tree=tree, m=m, returns=returns, lam_plus=lam_plus, lam_minus=lam_minus,
        margins=margins,
    )
    return vng.PathProblem(
        tree=tree, market=market, objective=vng.LiquidationObjective(tree, market),
        x0=rng.uniform(0.3, 1.5, m),
    )


@pytest.fixture
def kelly() -> vng.PathProblem:
    return kelly_problem()


@pytest.fixture
def single_asset() -> vng.PathProblem:
    return single_asset_problem()


@pytest.fixture
def margin_market() -> vng.MarketData:
    return two_asset_margin_market()
