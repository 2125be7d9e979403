"""Independent oracles: brute-force searches and finite differences.

These deliberately avoid the library's solution paths so the tests compare
two unrelated routes to the same number.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from vng.errors import (
    BadProbability,
    CycleOrForest,
    DepthMismatch,
    DimensionMismatch,
    ParseError,
    RaggedDepth,
)
from vng.market_model import ConeLift, dual_cone_violation, transition_bound
from vng.scenario_tree import PROB_TOL, AdaptedVector


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-12):
    """Maximize a unimodal function on [lo, hi]; returns (argmax, max)."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def kelly_oracle(u: float = 1.4, d: float = 0.7, p: float = 0.5):
    """Grid-refined 1-d search for the optimal risky fraction."""

    def growth(f: float) -> float:
        return p * np.log(1.0 + (u - 1.0) * f) + (1.0 - p) * np.log(
            1.0 + (d - 1.0) * f
        )

    grid = np.linspace(0.0, 1.0, 20001)
    coarse = grid[int(np.argmax([growth(f) for f in grid]))]
    lo, hi = max(0.0, coarse - 1e-3), min(1.0, coarse + 1e-3)
    return golden_section_max(growth, lo, hi)


def retained_fraction_oracle(returns: list[float], probs: list[float]):
    """Single-asset, single-period: search the retained fraction of x_1 <= R x_0.

    The only degree of freedom is the fraction of wealth kept at each leaf;
    log utility makes full retention optimal, but the oracle does not assume
    that.
    """

    def value(frac: float) -> float:
        return sum(
            p * np.log(frac * r) for p, r in zip(probs, returns)
        )

    return golden_section_max(value, 1e-6, 1.0)


def central_difference_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(x, dtype=float)
    for i in range(len(x)):
        e = np.zeros_like(x, dtype=float)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


# --- per-leaf objective references ------------------------------------------
# Each variant's value and supergradient at one leaf, written from its own
# definition; the library computes both through its ``LeafForm`` arrays.

def leaf_value(objective, pos: int, a: np.ndarray) -> float:
    """The objective's value at the leaf in level position ``pos``."""
    import vng

    if isinstance(objective, vng.LiquidationObjective):
        leaf = objective.tree.span(objective.tree.horizon).start + pos
        lp, lm = objective.market.Lp[leaf], objective.market.Lm[leaf]
        return float(lp @ np.maximum(a, 0.0) - lm @ np.maximum(-a, 0.0))
    if isinstance(objective, vng.NormPenalizedObjective):
        norm = np.abs(a).sum() if objective.norm == "l1" else np.linalg.norm(a)
        return float(objective.q[pos] @ a - objective.theta[pos] * norm)
    return float(objective.q[pos] @ a)


def leaf_grad(objective, pos: int, a: np.ndarray) -> np.ndarray:
    """Its supergradient; kinks resolve by the sign convention (0 -> +)."""
    import vng

    if isinstance(objective, vng.LiquidationObjective):
        leaf = objective.tree.span(objective.tree.horizon).start + pos
        return np.where(a >= 0.0, objective.market.Lp[leaf], objective.market.Lm[leaf])
    if isinstance(objective, vng.NormPenalizedObjective):
        if objective.norm == "l1":
            sign = np.where(a >= 0.0, 1.0, -1.0)
            return objective.q[pos] - objective.theta[pos] * sign
        return objective.q[pos] - objective.theta[pos] * a / np.linalg.norm(a)
    return objective.q[pos].copy()


def log_objective_loop(tree, objective, rows: np.ndarray) -> float:
    """E log value of terminal rows, one leaf at a time."""
    total = 0.0
    for pos, prob in enumerate(tree.prob[tree.span(tree.horizon)]):
        val = leaf_value(objective, pos, rows[pos])
        if val <= 0.0:
            return float("-inf")
        total += prob * np.log(val)
    return float(total)


def dense_neg_hess(prog, z: np.ndarray) -> np.ndarray:
    """-hess f(z) as a dense matrix, scattering the stacked blocks leaf by leaf."""
    xx, xw, ww = prog.neg_hess_f(z)
    W = np.zeros((prog.n_vars, prog.n_vars))
    lifted = list(prog.form.lifted)
    for leaf, cols in enumerate(prog.leaf_x):
        W[np.ix_(cols, cols)] += xx[leaf]
        if leaf in lifted:
            k = lifted.index(leaf)
            w = prog.leaf_w[k]
            W[np.ix_(cols, w)] += xw[k]
            W[np.ix_(w, cols)] += xw[k].T
            W[np.ix_(w, w)] += ww[k]
    return W


def dense_constraint_matrix(problem) -> np.ndarray:
    """The program's constraint matrix A, dense, written node by node.

    Layout: non-root node i owns columns x, v, s from (i - 1) 3m and rows
    from (i - 1)(4m + 2): v >= 0, u = x + v >= 0, the margin
    Lp x + (Lp - mu Lm) v >= 0, Lp (R x_par - x) - s >= 0,
    Lm (R x_par - x) - s >= 0 and sum(s) >= 0; the root's x0 is a constant.
    Lifted leaf k then owns m columns w and 2m rows c1 x - w >= 0,
    c2 x - w >= 0 after all node columns and rows.
    """
    tree, market = problem.tree, problem.market
    form = problem.objective.form
    m, n = market.m, tree.n_nodes
    n_lifted = len(form.lifted)
    node_vars, node_rows = (n - 1) * 3 * m, (n - 1) * (4 * m + 2)
    A = np.zeros((node_rows + n_lifted * 2 * m, node_vars + n_lifted * m))
    for i in range(1, n):
        x, v, s = ((i - 1) * 3 * m + k * m + np.arange(m) for k in range(3))
        r = (i - 1) * (4 * m + 2)
        Lp, Lm, R = market.Lp[i], market.Lm[i], market.returns[i]
        parent = tree.parents[i]
        for j in range(m):
            A[r + j, v[j]] = 1.0
            A[r + m + j, x[j]] = A[r + m + j, v[j]] = 1.0
            A[r + 2 * m, x[j]] = Lp[j]
            A[r + 2 * m, v[j]] = Lp[j] - market.margins[tree.depth[i]] * Lm[j]
            for row, L in ((r + 2 * m + 1 + j, Lp[j]), (r + 3 * m + 1 + j, Lm[j])):
                A[row, x[j]] = -L
                A[row, s[j]] = -1.0
                if parent != 0:
                    A[row, (parent - 1) * 3 * m + j] = L * R[j]
            A[r + 4 * m + 1, s[j]] = 1.0
    leaves = tree.indices(tree.horizon)
    for k, pos in enumerate(form.lifted):
        x = (leaves[pos] - 1) * 3 * m
        for j in range(m):
            w = node_vars + k * m + j
            for row, c in ((node_rows + k * 2 * m + j, form.c1[k, j]),
                           (node_rows + k * 2 * m + m + j, form.c2[k, j])):
                A[row, x + j] = c
                A[row, w] = -1.0
    return A


def level_by_level_entries(prog) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A's entries gathered one level of the program's blocks at a time.

    Each level's nonzeros, and below the first level those of its coupling
    to the parent level's x, then all of them sorted by row and column.
    """
    parts = []
    for t, lev in enumerate(prog.levels):
        _, nr, nc = lev.loc.shape
        k, r, c = np.nonzero(lev.loc)
        parts.append((lev.rows.start + k * nr + r, lev.cols.start + k * nc + c,
                      lev.loc[k, r, c]))
        if lev.par is not None:
            prev = prog.levels[t - 1]
            k, r, c = np.nonzero(lev.par)
            col = prev.cols.start + lev.up[k] * prev.loc.shape[2] + c
            parts.append((lev.rows.start + k * nr + r, col, lev.par[k, r, c]))
    rows, cols, vals = (np.concatenate([p[k] for p in parts]) for k in range(3))
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], vals[order]


def root_coupling(problem) -> np.ndarray:
    """b, node by node: L R x0 on the min-form rows of every depth-1 node."""
    tree, market, m = problem.tree, problem.market, problem.market.m
    b = np.zeros((tree.n_nodes - 1) * (4 * m + 2)
                 + len(problem.objective.form.lifted) * 2 * m)
    for i in range(1, tree.n_nodes):
        if tree.depth[i] == 1:
            r, R = (i - 1) * (4 * m + 2), market.returns[i]
            b[r + 2 * m + 1:r + 3 * m + 1] = market.Lp[i] * R * problem.x0
            b[r + 3 * m + 1:r + 4 * m + 1] = market.Lm[i] * R * problem.x0
    return b


def dense_newton_matrix(problem, z, lam, g) -> np.ndarray:
    """K = W + A^T diag(lam / g) A, dense, A from the node-by-node oracle."""
    A = dense_constraint_matrix(problem)
    return dense_neg_hess(problem.program, z) + A.T @ (A * (lam / g)[:, None])


def frontier_bisection(market, A, D, nodes):
    """Rowwise largest c >= 0 with psi(A_k, c D_k) >= 0, by 60 bisection steps.

    The bracket is [0, 2 K_t |a| / |d|]; a row whose psi is still >= 0 at the
    top returns the top, a row without a direction returns 0.
    """
    idx = np.asarray(nodes)
    A, D = np.asarray(A, dtype=float), np.asarray(D, dtype=float)
    R, Lp, Lm = market.returns[idx], market.Lp[idx], market.Lm[idx]

    def psi(c):
        diff = A * R - c[:, None] * D
        return np.minimum(Lp * diff, Lm * diff).sum(axis=1)

    norm_a, norm_d = np.abs(A).sum(axis=1), np.abs(D).sum(axis=1)
    active = (norm_a > 0.0) & (norm_d > 0.0)
    K = market.constants.K[market.tree.depth[idx]]
    hi = np.where(active, 2.0 * K * norm_a / np.where(active, norm_d, 1.0), 0.0)
    lo = np.zeros(len(hi))
    cap = psi(hi) >= 0.0
    lo[cap & active] = hi[cap & active]
    work = active & ~cap
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        ok = psi(mid) >= 0.0
        lo = np.where(work & ok, mid, lo)
        hi = np.where(work & ~ok, mid, hi)
    return lo


def batch_transition_members(market, node, rng, count):
    """Vectorized sampler of transition-cone members at one node.

    Re-derives the self-financing value as sum_j min(Lp_j d_j, Lm_j d_j)
    independently of the library's scalar routine, then bisects the scale of
    a random admissible direction for each draw.
    """
    tree = market.tree
    i = tree.index(node)
    ip = int(tree.parents[i])
    m = market.m
    R, Lp, Lm = market.returns[i], market.Lp[i], market.Lm[i]

    def cone_batch(idx, mu, n):
        longs = rng.random((n, m)) < (0.75 if m > 1 else 1.1)
        longs[~longs.any(axis=1), rng.integers(0, m)] = True
        shorts = ~longs & (rng.random((n, m)) < 0.7)
        u = rng.uniform(0.1, 1.0, (n, m)) * longs
        v = rng.uniform(0.1, 1.0, (n, m)) * shorts
        beta = rng.uniform(0.0, 0.9, (n, 1))
        den = mu * (v @ market.Lm[idx])
        num = u @ market.Lp[idx]
        scale = np.where(den > 0, beta[:, 0] * num / np.maximum(den, 1e-300), 0.0)
        return u - scale[:, None] * v

    a = cone_batch(ip, market.margins[tree.depth[ip]], count)
    d = cone_batch(i, market.margins[tree.depth[i]], count)

    def psi(A, B):
        diff = A * R - B
        return np.minimum(Lp * diff, Lm * diff).sum(axis=1)

    lo = np.zeros(count)
    hi = np.full(count, 4.0) * np.abs(a).sum(axis=1) / np.abs(d).sum(axis=1)
    grow = psi(a, hi[:, None] * d) >= 0
    for _ in range(30):  # frontier upper bracket
        if not grow.any():
            break
        hi[grow] *= 2.0
        grow = psi(a, hi[:, None] * d) >= 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        ok = psi(a, mid[:, None] * d) >= 0
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    fill = rng.uniform(0.0, 1.0, count)
    return a, (fill * lo)[:, None] * d


def section_grid_min(mu: float, m: int, weight_pos: float, weight_neg: float) -> float:
    """Grid sweep for the minimum of w+ |a+| - w- |a-| on {mu |a-| <= |a+|}.

    Axis directions plus, for every ordered coordinate pair, a dense sweep of
    one-long-one-short directions (1-norm one) up to the margin boundary; the
    library computes the same minimum exactly from the section vertices.
    """
    dirs = [np.eye(m)]
    if m >= 2:
        pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
        k = max(2, 100_000 // len(pairs))
        sweep = np.linspace(0.0, 1.0 / (1.0 + mu), k)
        for i, j in pairs:
            block = np.zeros((k, m))
            block[:, i] = 1.0 - sweep
            block[:, j] = -sweep
            dirs.append(block)
    dirs = np.vstack(dirs)
    vals = (
        weight_pos * np.maximum(dirs, 0.0).sum(axis=1)
        - weight_neg * np.maximum(-dirs, 0.0).sum(axis=1)
    )
    return float(vals.min())


# --- the node-by-node tree builder ---------------------------------------------

def build_tree_loop(raw_nodes, dimension) -> dict:
    """``build_tree`` with dicts and a breadth-first search, one node at a time.

    Makes the same checks in the same order, with the same messages, and
    returns the arrays a tree stores (``ids``, ``parents``, ``depth``,
    ``cond_prob``, ``prob``, ``offsets``, ``child_counts``) with ``horizon``
    and ``state_dim``.
    """
    if not raw_nodes:
        raise CycleOrForest("empty node list")

    ids = [nid for nid, _, _ in raw_nodes]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise CycleOrForest(f"duplicate node ids: {dupes}")
    id_index = {nid: k for k, (nid, _, _) in enumerate(raw_nodes)}
    parent_of = {nid: par for nid, par, _ in raw_nodes}

    roots = [nid for nid, par, _ in raw_nodes if par is None]
    if len(roots) != 1:
        raise CycleOrForest(f"expected exactly one root, found {len(roots)}")
    for nid, par, _ in raw_nodes:
        if par is not None and par not in id_index:
            raise CycleOrForest(f"node {nid!r} references unknown parent {par!r}")

    children_ids: dict = {nid: [] for nid in ids}
    for nid, par, _ in raw_nodes:
        if par is not None:
            children_ids[par].append(nid)
    depth = {roots[0]: 0}
    frontier = [roots[0]]
    while frontier:
        nxt = []
        for nid in frontier:
            for c in children_ids[nid]:
                depth[c] = depth[nid] + 1
                nxt.append(c)
        frontier = nxt
    if len(depth) != len(ids):
        missing = sorted(set(ids) - set(depth))
        raise CycleOrForest(f"nodes unreachable from root (cycle?): {missing}")

    horizon = max(depth.values())
    if horizon < 1:
        raise RaggedDepth("tree must have horizon N >= 1")
    for nid in ids:
        if not children_ids[nid] and depth[nid] != horizon:
            raise RaggedDepth(f"leaf {nid!r} at depth {depth[nid]}, expected {horizon}")

    cond = {nid: p for nid, _, p in raw_nodes}
    cond[roots[0]] = 1.0
    for nid, p in cond.items():
        if not (0.0 < p <= 1.0) or not np.isfinite(p):
            raise BadProbability(f"node {nid!r} has conditional probability {p}")
    for nid, kids in children_ids.items():
        if kids:
            s = sum(cond[c] for c in kids)
            if abs(s - 1.0) > PROB_TOL:
                raise BadProbability(
                    f"children of {nid!r} have probabilities summing to {s!r}"
                )

    if dimension < 1:
        raise DimensionMismatch("state dimension must be positive")

    order = sorted(ids, key=lambda nid: (depth[nid], id_index[nid]))
    new_index = {nid: k for k, nid in enumerate(order)}
    parents = np.array([-1 if nid == roots[0] else new_index[parent_of[nid]] for nid in order])
    depths = np.array([depth[nid] for nid in order])
    cond_prob = np.array([cond[nid] for nid in order])
    prob = cond_prob.copy()
    for k in range(1, len(order)):  # a parent precedes its children
        prob[k] = prob[parents[k]] * cond_prob[k]
    return {
        "horizon": horizon,
        "state_dim": int(dimension),
        "ids": tuple(order),
        "parents": parents,
        "depth": depths,
        "cond_prob": cond_prob,
        "prob": prob,
        "offsets": np.array([sum(d < t for d in depths) for t in range(horizon + 2)]),
        "child_counts": np.array([len(children_ids[nid]) for nid in order]),
    }


def node_probability(tree, ref) -> float:
    """Unconditional probability of a node's atom: the product along its root path."""
    chain = [tree.nodes[tree.index(ref)]]
    while chain[-1].parent is not None:
        chain.append(tree.nodes[chain[-1].parent])
    prob = 1.0
    for node in reversed(chain):  # root first, as the tree's own product runs
        prob *= node.cond_prob
    return prob


def lift_X(market, node) -> ConeLift:
    """Split-variable lift of the node's margin cone: a = u - v, u, v >= 0."""
    i = market.tree.index(node)
    node = market.tree.nodes[i]
    m = market.m
    mu = market.margins[node.depth]
    eye = np.eye(m)
    # -(Lp . u - mu Lm . v) <= 0
    A_ub = np.concatenate([-market.Lp[i], mu * market.Lm[i]])[None, :]
    return ConeLift(
        description=f"X at node {node.node_id}",
        n_vars=2 * m,
        A_ub=A_ub,
        b_ub=np.zeros(1),
        A_eq=None,
        b_eq=None,
        proj=np.hstack([eye, -eye]),
    )


def lift_contains(lift, vec) -> bool:
    """LP feasibility of a point in a ``ConeLift`` under its projection pin."""
    vec = np.asarray(vec, dtype=float)
    A_eq = lift.proj if lift.A_eq is None else np.vstack([lift.proj, lift.A_eq])
    b_eq = vec if lift.b_eq is None else np.concatenate([vec, lift.b_eq])
    res = linprog(
        c=np.zeros(lift.n_vars),
        A_ub=lift.A_ub, b_ub=lift.b_ub,
        A_eq=A_eq, b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    if res.status not in (0, 2):
        raise RuntimeError(f"membership LP ended with status {res.status}: {res.message}")
    return res.status == 0


_EXACT_BOUNDS: dict = {}


def _float_bytes(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def exact_transition_bound(market, node, p, bar_terms, kappa, gamma):
    """:func:`exact_bound_at_node`, memoized by market, node and the bytes of
    every float argument: the transition tests pose many rows more than once,
    and the value depends on nothing else, so tests may share it."""
    key = (
        market, market.tree.index(node), _float_bytes(p),
        tuple((_float_bytes(w), _float_bytes(v)) for w, v in bar_terms),
        _float_bytes(kappa), _float_bytes(gamma),
    )
    if key not in _EXACT_BOUNDS:
        _EXACT_BOUNDS[key] = exact_bound_at_node(
            market, node, p, bar_terms, kappa, gamma
        )
    return _EXACT_BOUNDS[key]


def exact_bound_at_node(market, node, p, bar_terms, kappa, gamma):
    """(bound, e, f): the transition bound at one node, in exact rational arithmetic.

    ``p`` is the node's price and ``bar_terms`` the ``(weight, price)`` pairs
    whose weighted sum is p_bar (the children with their conditional
    probabilities, or the terminal price with weight 1 at a leaf); every float
    is taken as the rational it stores and p_bar is summed exactly.
    ``kappa`` and ``gamma`` are the scales the library chose.  e and f are
    the exact sup-norm distances of
    sigma = p / R from kappa [Lp, Lm] and of sigma - p_bar from
    gamma [Lp, mu Lm], with mu Lm the exact product, and the bound is
    max(e R_max, e + f).  For any kappa, gamma >= 0 that bound is at least
    the LP value of :func:`vng.dual_cone_violation` over the exact cone.
    """
    from fractions import Fraction as F

    i = market.tree.index(node)
    node = market.tree.nodes[i]
    m = market.m
    R = [F(v) for v in market.returns[i]]
    lp = [F(v) for v in market.Lp[i]]
    lm = [F(v) for v in market.Lm[i]]
    mu_lm = [F(market.margins[node.depth]) * v for v in lm]
    sigma = [F(p[j]) / R[j] for j in range(m)]
    p_bar = [sum(F(w) * F(v[j]) for w, v in bar_terms) for j in range(m)]
    y = [sigma[j] - p_bar[j] for j in range(m)]

    def distance(v, k, lo, hi):
        return max([F(0)] + [max(k * lo[j] - v[j], v[j] - k * hi[j]) for j in range(m)])

    e = distance(sigma, F(kappa), lp, lm)
    f = distance(y, F(gamma), lp, mu_lm)
    return max(e * max(R), e + f), e, f


# --- per-date tree algebra ---------------------------------------------------
# The library keeps every adapted field as one array over the whole tree; these
# are the per-date references it is checked against.

def _layer_values(tree, av) -> np.ndarray:
    """av's rows, or DepthMismatch unless they fill the level of its depth."""
    if not 0 <= av.depth <= tree.horizon + 1:
        raise DepthMismatch(f"depth {av.depth} outside 0..{tree.horizon + 1}")
    values = np.asarray(av.values, dtype=float)
    rows = len(tree.nodes[tree.span(min(av.depth, tree.horizon))])
    if values.ndim != 2 or values.shape[0] != rows:
        raise DepthMismatch(f"expected {rows} rows at depth {av.depth}, got {values.shape}")
    return values


def expectation(tree, av) -> float:
    """E[X] of a scalar adapted field: probability-weighted sum over its depth."""
    values = _layer_values(tree, av)
    if values.shape[1] != 1:
        raise DimensionMismatch("expectation is defined for scalar fields")
    return float(tree.prob[tree.span(min(av.depth, tree.horizon))] @ values[:, 0])


def conditional_expectation(tree, av) -> AdaptedVector:
    """E[ . | F_{t-1}] of a depth-t field: child-probability-weighted averages.

    Input of logical depth N+1 is F_N-measurable already (F_{N+1} = F_N), so
    it is returned at depth N unchanged.  One ordered ``np.add.at`` adds each
    parent's children in child order.
    """
    values = _layer_values(tree, av)
    if av.depth == tree.horizon + 1:
        return AdaptedVector(tree.horizon, values.copy())
    if av.depth < 1:
        raise DepthMismatch("cannot condition a depth-0 field further")
    out = np.zeros((len(tree.nodes[tree.span(av.depth - 1)]), values.shape[1]))
    weights = tree.cond_prob[tree.span(av.depth), None]
    np.add.at(out, tree.up(av.depth), weights * values)  # in child order
    return AdaptedVector(av.depth - 1, out)


def dual_layer(dual, t: int) -> AdaptedVector:
    """p_t as a date view: ``prices[t]`` for t <= N, the terminal layer at N + 1."""
    return dual.terminal if t == dual.tree.horizon + 1 else dual.prices[t]


def dual_bar(tree, dual, t: int) -> AdaptedVector:
    """E_t p_{t+1} on the depth-t nodes, date by date."""
    return conditional_expectation(tree, dual_layer(dual, t + 1))


# --- per-node references for the whole-level tree algebra ----------------------
# The loops below walk one node at a time with the library's earlier per-node
# arithmetic (one ``x @ y`` per node, Python accumulation in child order); the
# array versions must reproduce them exactly.  A path is read by node index,
# a date-t price row of node i at row i - 1 of ``dual.p``.

def conditional_expectation_loop(tree, av):
    """E[av | F_{t-1}] as one child-weighted sum per parent node."""
    t = av.depth - 1
    start = tree.span(av.depth).start
    out = np.zeros((len(tree.nodes[tree.span(t)]), av.values.shape[1]))
    for pos, node in enumerate(tree.nodes[tree.span(t)]):
        for child in np.flatnonzero(tree.parents == node.index):
            out[pos] += tree.cond_prob[child] * av.values[child - start]
    return out


def supermartingale_loop(dual, y, tree):
    """(first form, second form, equality gap) node by node.

    A NaN residual counts as an unbounded violation, ``inf``.
    """
    N = tree.horizon
    y = np.asarray(y)
    worst1 = worst2 = gap = 0.0

    def violation(v):
        return float("inf") if v != v else v

    for t in range(1, N + 1):
        bar_next = dual_bar(tree, dual, t).values
        start = tree.span(t).start
        for node in tree.nodes[tree.span(t)]:
            lhs = float(bar_next[node.index - start] @ y[node.index])
            rhs = float(dual.p[node.index - 1] @ y[node.parent])
            worst1 = max(worst1, violation(lhs - rhs))
            gap = max(gap, violation(abs(lhs - rhs)))
        bar_t = dual_bar(tree, dual, t - 1).values
        for pos, q in enumerate(tree.nodes[tree.span(t - 1)]):
            lhs = sum(
                tree.cond_prob[child]
                * float(bar_next[child - start] @ y[child])
                for child in np.flatnonzero(tree.parents == q.index)
            )
            rhs = float(bar_t[pos] @ y[q.index])
            worst2 = max(worst2, violation(lhs - rhs))
    return worst1, worst2, gap


def growth_table_loop(dual, y, tree):
    """(t, node id, ratio) per node; nan where the denominator is not positive."""
    N = tree.horizon
    y = np.asarray(y)
    rows = []
    for t in range(1, N + 1):
        bar_next = dual_bar(tree, dual, t).values
        start = tree.span(t).start
        for node in tree.nodes[tree.span(t)]:
            den = float(dual.p[node.index - 1] @ y[node.parent])
            num = float(bar_next[node.index - start] @ y[node.index])
            rows.append((t, node.node_id, num / den if den > 0.0 else float("nan")))
    return rows


def sample_competitor_path(tree, market, rng, start):
    """One random feasible path from the library's competitor sampler."""
    import vng

    return vng.sample_competitor_paths(tree, market, rng, start, 1)[0]


def competitor_paths_loop(tree, market, rng, start, count):
    """The competitor sampler with one frontier call per node.

    The draws come as the library takes them: per level, the directions of
    every path and node in one call (rows path by path), then the fills in
    [0, 0.95).
    """
    from vng.market_model import sample_cone_batch, transition_frontier_batch

    levels = [np.tile(np.asarray(start, dtype=float), (count, 1, 1))]
    for t in range(1, tree.horizon + 1):
        nodes = tree.nodes[tree.span(t)]
        shape = (count, len(nodes))
        D = sample_cone_batch(market, np.tile(tree.indices(t), count), rng)
        D = D.reshape(*shape, market.m)
        fill = rng.uniform(0.0, 0.95, count * len(nodes)).reshape(shape)
        rows = np.zeros((count, len(nodes), market.m))
        for pos, node in enumerate(nodes):
            A = levels[t - 1][:, node.parent - tree.span(t - 1).start, :]
            c_max = transition_frontier_batch(
                market, A, D[:, pos], np.full(count, node.index)
            )
            rows[:, pos, :] = (fill[:, pos] * c_max)[:, None] * D[:, pos]
        levels.append(rows)
    return levels


def _node_margin(market, a, node):
    i, mu = node.index, market.margins[node.depth]
    return float(
        market.Lp[i] @ np.maximum(a, 0.0) - mu * (market.Lm[i] @ np.maximum(-a, 0.0))
    )


def _node_section_min(market, p, node):
    i, m = node.index, market.m
    alpha, beta = market.Lp[i], market.margins[node.depth] * market.Lm[i]
    verts = [np.eye(m)[k] for k in range(m)]
    for k in range(m):
        for j in range(m):
            if k != j:
                v = np.zeros(m)
                v[k] = beta[j] / (alpha[k] + beta[j])
                v[j] = -alpha[k] / (alpha[k] + beta[j])
                verts.append(v)
    return float((np.array(verts) @ p).min())


def verify_loops(path, dual, tree, market, tol, x0=None):
    """verify_rapid node by node: every field of its certificate.

    Returns a dict keyed by the :class:`vng.RapidityCertificate` field
    names.  Its tables name their entries as the certificate file does:
    normalization is a list by date, membership a dict keyed ``p_t@id``,
    transition and feasibility dicts keyed by node id.  Each node's transition value is a one-row ``transition_bound``
    on its p_bar and its conditional sum over |p_{t+1}|, both summed child by
    child, and the LP where that bound exceeds tol and the prices are
    finite.  A NaN residual counts as an unbounded violation, ``inf``.
    Given x0, the start is the 1-norm distance of the root row from x0 over
    |x0|_1, summed entry by entry, and its witness comes first.
    """
    N = tree.horizon
    feasibility, membership, transition = {}, {}, {}
    start = None
    normalization = [0.0] * (N + 1)
    lp_nodes = []
    witness = None

    def violation(*residuals):
        """max(0, -min residual), or ``inf`` if any residual is NaN."""
        if any(r != r for r in residuals):
            return float("inf")
        return max(0.0, -min(residuals))

    def note(kind, node_id, value, **extra):
        nonlocal witness
        if witness is None and value > tol:
            witness = {"kind": kind, "node": node_id, "value": value, **extra}

    path = np.asarray(path)
    if x0 is not None:
        dist = scale = 0.0
        for y, x in zip(path[0].tolist(), np.asarray(x0, dtype=float).tolist()):
            dist += abs(y - x)
            scale += abs(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            start = float(np.float64(dist) / scale)
        start = float("inf") if start != start else start
        note("start", tree.ids[0], start, layer=0)
    for t in range(1, N + 1):
        for node in tree.nodes[tree.span(t)]:
            parent = tree.nodes[node.parent]
            a = path[parent.index]
            b = path[node.index]
            d = market.returns[node.index] * a - b
            # the min-form, as the frontier and the solver's rows round psi
            lp, lm = market.Lp[node.index], market.Lm[node.index]
            psi = float(np.minimum(lp * d, lm * d).sum())
            viol = violation(
                _node_margin(market, a, parent), _node_margin(market, b, node), psi
            )
            feasibility[node.node_id] = viol
            note("path_feasibility", node.node_id, viol, layer=t)
    for t in range(1, N + 2):
        p_t = dual_layer(dual, t).values
        for pos, node in enumerate(tree.nodes[tree.span(min(t, N))]):
            p = p_t[pos]
            cone_node = node if t == N + 1 else tree.nodes[node.parent]
            viol = violation(_node_section_min(market, p, cone_node))
            membership[f"p_{t}@{node.node_id}"] = viol
            note("dual_cone_membership", node.node_id, viol, layer=t)
            x_prev = path[cone_node.index]
            resid = abs(float(p @ x_prev) - 1.0)
            resid = float("inf") if resid != resid else resid
            normalization[t - 1] = max(normalization[t - 1], resid)
            note("normalization", node.node_id, resid, layer=t)
    for t in range(1, N + 1):
        p_next = dual_layer(dual, t + 1)
        abs_next = AdaptedVector(p_next.depth, np.abs(p_next.values))
        if t == N:  # E_N is the identity on the terminal layer
            bars, abs_bars = p_next.values, abs_next.values
        else:
            bars = conditional_expectation_loop(tree, p_next)
            abs_bars = conditional_expectation_loop(tree, abs_next)
        for pos, node in enumerate(tree.nodes[tree.span(t)]):
            p = dual.p[node.index - 1]
            p_bar, bar_abs = bars[pos], abs_bars[pos]
            value = float(transition_bound(
                market, [node.index], p[None], p_bar[None], bar_abs[None]
            )[0])
            extra = {}
            if value > tol and np.isfinite(p).all() and np.isfinite(p_bar).all():
                check = dual_cone_violation(market, p, p_bar, node.index, tol=tol)
                value = check.value
                lp_nodes.append(node.node_id)
                if value > tol:
                    extra["pair"] = (check.witness_a.tolist(), check.witness_b.tolist())
            transition[node.node_id] = value
            note("transition", node.node_id, value, **extra)
    return {
        "certified": max(
            max(normalization), max(membership.values()),
            max(transition.values()), max(feasibility.values()), start or 0.0,
        ) <= tol,
        "normalization": normalization,
        "membership": membership,
        "transition": transition,
        "feasibility": feasibility,
        "witness": witness,
        "transition_lp_nodes": lp_nodes,
        "start": start,
    }



# --- node-by-node reader of a {node_id: vector} table -----------------------------

def _array_loop(value, where):
    """Finite floats, with the leaf types read off an object array."""
    try:
        arr = np.asarray(value, dtype=float)
        leaves = np.asarray(value, dtype=object).reshape(-1)  # as parsed
        if any(isinstance(v, (bool, str)) for v in leaves):
            raise TypeError("booleans and strings are not numbers")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: expected numbers: {exc}") from exc
    if not np.isfinite(arr).all():
        raise ParseError(f"{where}: expected finite numbers")
    return arr


def node_rows_loop(table, ids, m, where, scalars=False):
    """The rows of a node table, one ``_array_loop`` per node id in order.

    Every node needs an entry of m numbers; with ``scalars``, one number
    stands for m equal ones.  The first bad entry in node order is named.
    """
    if not isinstance(table, dict):
        raise ParseError(f"{where}: expected an object, got {type(table).__name__}")
    rows = np.empty((len(ids), m))
    for k, nid in enumerate(ids):
        if nid not in table:
            raise ParseError(f"{where}: node {nid!r}: missing entry")
        at = f"{where}[{nid}]"
        val = _array_loop(table[nid], at)
        if scalars and val.size == 1:
            rows[k] = val.item()
        elif val.shape != (m,):
            raise ParseError(f"{at}: expected {m} numbers, got shape {val.shape}")
        else:
            rows[k] = val
    return rows
