"""Independent oracles: brute-force searches and finite differences.

These deliberately avoid the library's solution paths so the tests compare
two unrelated routes to the same number.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from vng.market_model import ConeLift


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
        leaf = objective.tree.leaves()[pos].index
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
        leaf = objective.tree.leaves()[pos].index
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
    lifted = list(prog.problem.objective.form.lifted)
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
    Lifted leaf k then owns m columns w and 2m rows c1 x + d w >= 0,
    c2 x + d w >= 0 after all node columns and rows.
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
    leaves = [leaf.index for leaf in tree.leaves()]
    for k, pos in enumerate(form.lifted):
        x = (leaves[pos] - 1) * 3 * m
        for j in range(m):
            w = node_vars + k * m + j
            for row, c in ((node_rows + k * 2 * m + j, form.c1[k, j]),
                           (node_rows + k * 2 * m + m + j, form.c2[k, j])):
                A[row, x + j] = c
                A[row, w] = form.d
    return A


def dense_newton_matrix(prog, z, lam, g, ridge: float = 0.0) -> np.ndarray:
    """K = W + A^T diag(lam / g) A + ridge I, dense, A from the node-by-node oracle."""
    A = dense_constraint_matrix(prog.problem)
    return (dense_neg_hess(prog, z) + A.T @ (A * (lam / g)[:, None])
            + ridge * np.eye(prog.n_vars))


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
    K = market.constants().K[market.tree.depth[idx]]
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
    node = tree.node(node)
    parent = tree.parent(node)
    m = market.m
    i, ip = node.index, parent.index
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

    a = cone_batch(ip, market.margins[parent.depth], count)
    d = cone_batch(i, market.margins[node.depth], count)

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


def node_probability(tree, ref) -> float:
    """Unconditional probability of a node's atom: the product along its root path."""
    chain = [tree.node(ref)]
    while chain[-1].parent is not None:
        chain.append(tree.parent(chain[-1]))
    prob = 1.0
    for node in reversed(chain):  # root first, as the tree's own product runs
        prob *= node.cond_prob
    return prob


def lift_X(market, node) -> ConeLift:
    """Split-variable lift of the node's margin cone: a = u - v, u, v >= 0."""
    node = market.tree.node(node)
    m = market.m
    i = node.index
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


def exact_transition_proof(market, node, p, bar_terms) -> bool:
    """The closed-form transition proof at one node, in exact rational arithmetic.

    ``p`` is the node's price and ``bar_terms`` the ``(weight, price)`` pairs
    whose weighted sum is p_bar (the children with their conditional
    probabilities, or the terminal price with weight 1 at a leaf); every float
    is taken as the rational it stores and p_bar is summed exactly.  Proved
    when sigma = p / R lies in kappa [Lp, Lm] for some kappa >= 0 and
    sigma - p_bar has a nonnegative inner product with every section vertex
    of the node's margin cone (checked as e_i and beta_j e_i - alpha_i e_j).
    """
    from fractions import Fraction as F

    node = market.tree.node(node)
    i = node.index
    m = market.m
    R = [F(v) for v in market.returns[i]]
    alpha = [F(v) for v in market.Lp[i]]
    lm = [F(v) for v in market.Lm[i]]
    beta = [F(market.margins[node.depth]) * v for v in lm]
    sigma = [F(p[j]) / R[j] for j in range(m)]
    p_bar = [sum(F(w) * F(v[j]) for w, v in bar_terms) for j in range(m)]
    y = [sigma[j] - p_bar[j] for j in range(m)]
    kappa_lo = max([sigma[j] / lm[j] for j in range(m)] + [F(0)])
    kappa_hi = min(sigma[j] / alpha[j] for j in range(m))
    in_dual = all(v >= 0 for v in y) and all(
        beta[j] * y[k] - alpha[k] * y[j] >= 0
        for k in range(m) for j in range(m) if j != k
    )
    return kappa_lo <= kappa_hi and in_dual


# --- per-node references for the whole-level tree algebra ----------------------
# The loops below walk one node at a time with the library's earlier per-node
# arithmetic (one ``x @ y`` per node, Python accumulation in child order); the
# array versions must reproduce them exactly.

def conditional_expectation_loop(tree, av):
    """E[av | F_{t-1}] as one child-weighted sum per parent node."""
    t = av.depth - 1
    out = np.zeros((len(tree.level(t)), av.dim))
    for pos, node in enumerate(tree.level(t)):
        for child in tree.children(node):
            out[pos] += child.cond_prob * av.value_at(tree, child)
    return out


def supermartingale_loop(dual, y, tree):
    """(first form, second form, equality gap) node by node."""
    N = tree.horizon
    worst1 = worst2 = gap = 0.0
    for t in range(1, N + 1):
        p_t = dual.price(t, N)
        bar_next = dual.bar(tree, t)
        for node in tree.level(t):
            lhs = float(bar_next.value_at(tree, node) @ y[t].value_at(tree, node))
            rhs = float(
                p_t.value_at(tree, node) @ y[t - 1].value_at(tree, tree.parent(node))
            )
            worst1 = max(worst1, lhs - rhs)
            gap = max(gap, abs(lhs - rhs))
        bar_t = dual.bar(tree, t - 1)
        for q in tree.level(t - 1):
            lhs = sum(
                child.cond_prob
                * float(bar_next.value_at(tree, child) @ y[t].value_at(tree, child))
                for child in tree.children(q)
            )
            rhs = float(bar_t.value_at(tree, q) @ y[t - 1].value_at(tree, q))
            worst2 = max(worst2, lhs - rhs)
    return worst1, worst2, gap


def growth_table_loop(dual, y, tree):
    """(t, node id, ratio) per node; nan where the denominator is not positive."""
    N = tree.horizon
    rows = []
    for t in range(1, N + 1):
        p_t = dual.price(t, N)
        bar_next = dual.bar(tree, t)
        for node in tree.level(t):
            den = float(
                p_t.value_at(tree, node) @ y[t - 1].value_at(tree, tree.parent(node))
            )
            num = float(bar_next.value_at(tree, node) @ y[t].value_at(tree, node))
            rows.append((t, node.node_id, num / den if den > 0.0 else float("nan")))
    return rows


def competitor_paths_loop(tree, market, rng, start, count, max_fill=0.95):
    """The competitor sampler with one frontier call per node."""
    from vng.market_model import sample_cone_batch, transition_frontier_batch

    levels = [np.tile(np.asarray(start, dtype=float), (count, 1, 1))]
    for t in range(1, tree.horizon + 1):
        nodes = tree.level(t)
        rows = np.zeros((count, len(nodes), market.m))
        for pos, node in enumerate(nodes):
            A = levels[t - 1][:, tree.level_position(tree.parent(node)), :]
            D = sample_cone_batch(market, node, rng, count)
            c_max = transition_frontier_batch(
                market, A, D, np.full(count, node.index)
            )
            fill = rng.uniform(0.0, max_fill, count)
            rows[:, pos, :] = (fill * c_max)[:, None] * D
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


def verify_loops(path, dual, tree, market, tol):
    """verify_rapid's feasibility, membership and normalization, node by node.

    Returns the feasibility and membership tables, the normalization list and
    the first witness among those three criteria (None if all hold).
    """
    N = tree.horizon
    feasibility, membership = {}, {}
    normalization = [0.0] * (N + 1)
    witness = None

    def note(kind, node_id, value, **extra):
        nonlocal witness
        if witness is None and value > tol:
            witness = {"kind": kind, "node": node_id, "value": value, **extra}

    for t in range(1, N + 1):
        for node in tree.level(t):
            parent = tree.parent(node)
            a = path[t - 1].value_at(tree, parent)
            b = path[t].value_at(tree, node)
            d = market.returns[node.index] * a - b
            psi = float(
                market.Lp[node.index] @ np.maximum(d, 0.0)
                - market.Lm[node.index] @ np.maximum(-d, 0.0)
            )
            worst = min(_node_margin(market, a, parent), _node_margin(market, b, node), psi)
            viol = max(0.0, -worst)
            feasibility[node.node_id] = viol
            note("path_feasibility", node.node_id, viol, layer=t)
    for t in range(1, N + 2):
        p_t = dual.price(t, N)
        for node in tree.level(min(t, N)):
            p = p_t.value_at(tree, node)
            cone_node = node if t == N + 1 else tree.parent(node)
            viol = max(0.0, -_node_section_min(market, p, cone_node))
            membership[f"p_{t}@{node.node_id}"] = viol
            note("dual_cone_membership", node.node_id, viol, layer=t)
            x_prev = path[t - 1].value_at(tree, cone_node)
            resid = abs(float(p @ x_prev) - 1.0)
            normalization[t - 1] = max(normalization[t - 1], resid)
            note("normalization", node.node_id, resid, layer=t)
    return feasibility, membership, normalization, witness
