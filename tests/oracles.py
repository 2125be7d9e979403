"""Independent oracles: brute-force searches and finite differences.

These deliberately avoid the library's solution paths so the tests compare
two unrelated routes to the same number.
"""

from __future__ import annotations

import numpy as np


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
