"""Margin-constrained market with proportional transaction costs.

Portfolios live in per-node margin cones: the cost-adjusted value of the long
positions must cover ``mu_t`` times the cost-adjusted value of the shorts.
Rebalancing a parent portfolio ``a`` into a child portfolio ``b`` is
self-financing when the cash released, net of costs,

    psi_t(a, b) = sum_i (1 - lam_plus_i) (R_i a_i - b_i)_+
                - sum_i (1 + lam_minus_i) (R_i a_i - b_i)_-

is nonnegative.  The admissible transition pairs form the convex cone
``Z_t = {(a, b): a in X_{t-1}, b in X_t, psi_t(a, b) >= 0}``.

Both the margin function and ``psi`` are concave and piecewise linear, so the
cones admit exact polyhedral lifts via split variables: inflating both halves
of a split strictly decreases each defining expression (the coefficients pair
a smaller positive weight against a larger negative one), hence the
componentwise-minimal split attains the defining value.  The lifts pose the
dual transition inequality as a small linear program, and
``transition_bound`` bounds its value from above in closed form at every
node: a rigorous upper bound, 0 where both of its distances vanish.

Everything here is a pure function of immutable data.  The cone tests work on
rows: an ``(n, m)`` array of portfolios or prices together with the ``n``
node indices they sit at, so a whole tree level (or any mix of nodes) is one
call.  The LP sub-solver (scipy's HiGHS) is re-entrant, and it loads on the
first LP, not at import.  Verification needs one only at a node whose
rigorous bound exceeds the tolerance, where the transition inequality may
fail: the LP then decides the node and builds the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    LPFailure,
    MarginTooTight,
    NonpositivePrice,
    NotInCone,
    PreconditionViolated,
    UnknownNode,
)
from .scenario_tree import ScenarioTree, node_array

MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class MarketData:
    """Per-node returns and cost rates plus per-date margins, tied to a tree.

    Arrays are indexed by node index; the root row of ``returns`` is unused.
    Condition (B1) bounds are the observed per-date extremes.
    """

    tree: ScenarioTree
    m: int
    returns: np.ndarray      # (n_nodes, m); row of root is nan
    lam_plus: np.ndarray     # (n_nodes, m), in [0, 1)
    lam_minus: np.ndarray    # (n_nodes, m), finite and >= 0
    margins: np.ndarray      # (N + 1,), each finite and > 1

    def __post_init__(self) -> None:
        if self.m != self.tree.state_dim:
            raise DimensionMismatch(
                f"m = {self.m} is not the tree's state dimension {self.tree.state_dim}"
            )
        n = self.tree.n_nodes
        for name in ("returns", "lam_plus", "lam_minus"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n, self.m):
                raise DimensionMismatch(
                    f"{name} must have shape ({n}, {self.m}), got {arr.shape}"
                )
            object.__setattr__(self, name, arr)
        margins = np.asarray(self.margins, dtype=float)
        if margins.shape != (self.tree.horizon + 1,):
            raise DimensionMismatch(
                f"margins must have length {self.tree.horizon + 1}"
            )
        object.__setattr__(self, "margins", margins)

        # Written so that a nan fails every test.
        if not np.all((self.lam_plus >= 0) & (self.lam_plus < 1)):
            raise ValueError("selling cost rates must lie in [0, 1)")
        if not np.all((self.lam_minus >= 0) & (self.lam_minus < np.inf)):
            raise ValueError("buying cost rates must be finite and nonnegative")
        R = self.returns[self.tree.parents >= 0]
        if not np.all((R > 0) & (R < np.inf)):
            raise NonpositivePrice("gross returns must be finite and strictly positive")
        bad = [t for t, mu in enumerate(margins) if not 1.0 < mu < np.inf]
        if bad:
            raise MarginTooTight(
                f"margins must be finite and exceed 1, offending dates {bad}"
            )

    # Cost multipliers: Lp = 1 - lam_plus <= 1 <= Lm = 1 + lam_minus.
    @cached_property
    def Lp(self) -> np.ndarray:
        return 1.0 - self.lam_plus

    @cached_property
    def Lm(self) -> np.ndarray:
        return 1.0 + self.lam_minus

    @cached_property
    def bounds(self) -> dict[str, np.ndarray]:
        """Observed (B1) bounds per date: R_lo, R_hi (t>=1), L_lo, L_hi."""
        starts = self.tree.offsets[:-1]
        R_lo = np.minimum.reduceat(self.returns.min(axis=1), starts)
        R_hi = np.maximum.reduceat(self.returns.max(axis=1), starts)
        R_lo[0] = R_hi[0] = np.nan
        return {
            "R_lo": R_lo, "R_hi": R_hi,
            "L_lo": np.minimum.reduceat(self.Lp.min(axis=1), starts),
            "L_hi": np.maximum.reduceat(self.Lm.max(axis=1), starts),
        }

    @cached_property
    def constants(self) -> "MarketConstants":
        """The (B2) constants of :func:`market_constants`, computed once."""
        return market_constants(self)

    def _rows(self, nodes, *arrays) -> tuple[np.ndarray, ...]:
        """Node indices (integers, no booleans) and ``(n, m)`` rows, one per index."""
        try:
            idx = np.asarray(nodes)
        except ValueError:  # a ragged list, which is no vector: rejected below
            idx = np.zeros((1, 1))
        if not idx.size:
            idx = idx.astype(int)
        if idx.ndim != 1 or idx.dtype.kind not in "iu" or (
            idx.size and (idx.min() < 0 or idx.max() >= self.tree.n_nodes)
        ):
            raise UnknownNode(f"expected a vector of node indices, got {nodes!r}")
        out = [np.asarray(a, dtype=float) for a in arrays]
        for a in out:
            if a.shape != (len(idx), self.m):
                raise DimensionMismatch(
                    f"expected ({len(idx)}, {self.m}) rows, got shape {a.shape}"
                )
        return (idx, *out)

    def _non_root(self, idx: np.ndarray) -> None:
        if np.any(self.tree.parents[idx] < 0):
            raise DimensionMismatch("transition cones live on depth >= 1 nodes")


def returns_from_prices(tree: ScenarioTree, prices: np.ndarray) -> np.ndarray:
    """Componentwise gross returns child-price / parent-price.

    ``prices`` has one row per node index; the root row of the result is nan.
    """
    prices = np.asarray(prices, dtype=float)
    if np.any(prices <= 0):
        raise NonpositivePrice("all prices must be strictly positive")
    out = np.full_like(prices, np.nan)
    out[1:] = prices[1:] / prices[tree.parents[1:]]
    return out


# Row dots use np.vecdot: it rounds like one ``x @ y`` per row.

def margin_residual(market: MarketData, A: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Margin slack of each row of ``A`` at its node's cone; members read >= 0.

    ``A`` is ``(n, m)`` and ``nodes`` holds the ``n`` node indices.
    """
    idx, A = market._rows(nodes, A)
    mu = market.margins[market.tree.depth[idx]]
    longs, shorts = np.maximum(A, 0.0), np.maximum(-A, 0.0)
    return np.vecdot(market.Lp[idx], longs) - mu * np.vecdot(market.Lm[idx], shorts)


def _psi_rows(Lp: np.ndarray, Lm: np.ndarray, d: np.ndarray) -> np.ndarray:
    """psi per row of rebalances d = R a - b: sum_j min(Lp_j d_j, Lm_j d_j).

    Equal to Lp . d+ - Lm . d- since Lp <= Lm.  The min-form is how the
    frontier and the solver's lifted rows round psi, so a point the frontier
    returns as self-financing reads psi >= 0 everywhere.
    """
    return np.minimum(Lp * d, Lm * d).sum(axis=1)


def self_financing_value(
    market: MarketData, A: np.ndarray, B: np.ndarray, nodes: np.ndarray
) -> np.ndarray:
    """psi_t(a, b) per row: cash released by rebalancing row a into row b."""
    idx, A, B = market._rows(nodes, A, B)
    market._non_root(idx)
    return _psi_rows(market.Lp[idx], market.Lm[idx], market.returns[idx] * A - B)


@dataclass(frozen=True)
class ZMembership:
    """Per-row transition-cone membership and its raw residual triple."""

    member: np.ndarray
    parent_margin: np.ndarray
    child_margin: np.ndarray
    psi: np.ndarray


def in_Z(
    market: MarketData,
    A: np.ndarray,
    B: np.ndarray,
    nodes: np.ndarray,
    tol: float = MEMBERSHIP_TOL,
) -> ZMembership:
    """Rowwise membership of (A_k, B_k) in the transition cone into node k."""
    (idx,) = market._rows(nodes)
    psi = self_financing_value(market, A, B, idx)
    pm = margin_residual(market, A, market.tree.parents[idx])
    cm = margin_residual(market, B, idx)
    return ZMembership((pm >= -tol) & (cm >= -tol) & (psi >= -tol), pm, cm, psi)


# --- polyhedral lifts ---------------------------------------------------------

@dataclass(frozen=True)
class ConeLift:
    """Polyhedral lift of a cone: feasibility in z >= 0 plus a projection.

    The represented set is ``{proj @ z : z >= 0, A_ub z <= b_ub, A_eq z = b_eq}``.
    """

    description: str
    n_vars: int
    A_ub: np.ndarray
    b_ub: np.ndarray
    A_eq: np.ndarray | None
    b_eq: np.ndarray | None
    proj: np.ndarray


def lift_Z(market: MarketData, node: int | str) -> ConeLift:
    """Lift of the transition cone into the node, in (u_a, v_a, u_b, v_b, d+, d-)."""
    tree = market.tree
    i = tree.index(node)
    ip = tree.parents[i]
    if ip < 0:
        raise DimensionMismatch("transition cones live on depth >= 1 nodes")
    m = market.m
    mu_par = market.margins[tree.depth[ip]]
    mu = market.margins[tree.depth[i]]
    R = market.returns[i]
    eye = np.eye(m)
    Z = np.zeros((m, m))

    # d+ - d- = R (u_a - v_a) - (u_b - v_b)
    A_eq = np.hstack([R[:, None] * eye, -R[:, None] * eye, -eye, eye, -eye, eye])
    zrow = np.zeros(m)
    A_ub = np.vstack([
        np.concatenate([-market.Lp[ip], mu_par * market.Lm[ip], zrow, zrow, zrow, zrow]),
        np.concatenate([zrow, zrow, -market.Lp[i], mu * market.Lm[i], zrow, zrow]),
        np.concatenate([zrow, zrow, zrow, zrow, -market.Lp[i], market.Lm[i]]),
    ])
    proj = np.vstack([
        np.hstack([eye, -eye, Z, Z, Z, Z]),
        np.hstack([Z, Z, eye, -eye, Z, Z]),
    ])
    return ConeLift(
        description=f"Z into node {tree.ids[i]}",
        n_vars=6 * m,
        A_ub=A_ub,
        b_ub=np.zeros(3),
        A_eq=A_eq,
        b_eq=np.zeros(m),
        proj=proj,
    )


@dataclass(frozen=True)
class DualConeCheck:
    """Max of p_bar . b - p . a over the normalized transition cone."""

    value: float
    witness_a: np.ndarray | None
    witness_b: np.ndarray | None


def dual_cone_violation(
    market: MarketData,
    p_parent: np.ndarray,
    p_bar_child: np.ndarray,
    node: int | str,
    tol: float = MEMBERSHIP_TOL,
) -> DualConeCheck:
    """LP check of the dual transition inequality at one node.

    Maximizes ``p_bar . b - p . a`` over ``(a, b) in Z`` with ``|a| + |b| <= 1``.
    A value within ``tol`` of zero certifies the inequality at this node; a
    larger value comes with the violating pair as witness.  Verification runs
    it only where :func:`transition_bound` exceeds the tolerance.
    """
    from scipy.optimize import linprog  # loads HiGHS on the first LP only

    i = market.tree.index(node)
    lift = lift_Z(market, i)
    m = market.m
    _, (p,), (pb,) = market._rows([i], [p_parent], [p_bar_child])
    # The value is positively homogeneous in (p, pb): solve at the power of
    # two that brings the largest entry into [0.5, 1), and scale back.  Both
    # steps are exact short of underflow, and the feasible set is unchanged.
    _, e = np.frexp(max(np.abs(p).max(), np.abs(pb).max()))

    # maximize pb.(u_b - v_b) - p.(u_a - v_a)  ->  minimize the negation
    c = np.ldexp(np.concatenate([p, -p, -pb, pb, np.zeros(2 * m)]), -e)
    norm_row = np.concatenate([np.ones(4 * m), np.zeros(2 * m)])
    A_ub = np.vstack([lift.A_ub, norm_row])
    b_ub = np.concatenate([lift.b_ub, [1.0]])
    d_cap = 2.0 * (1.0 + float(market.returns[i].max()))
    upper = np.concatenate([np.full(4 * m, np.inf), np.full(2 * m, d_cap)])
    res = linprog(
        c=c,
        A_ub=A_ub, b_ub=b_ub,
        A_eq=lift.A_eq, b_eq=lift.b_eq,
        bounds=list(zip(np.zeros(6 * m), upper)),
        method="highs",
    )
    if res.status != 0:
        raise LPFailure(
            f"dual-cone LP at node {market.tree.ids[i]} failed "
            f"(status {res.status}): {res.message}"
        )
    value = float(np.ldexp(-res.fun, e)) + 0.0  # normalize -0.0
    if value <= tol:
        return DualConeCheck(value, None, None)
    z = res.x
    return DualConeCheck(value, z[:m] - z[m:2 * m], z[2 * m:3 * m] - z[3 * m:4 * m])


# Unit roundoff u, and the smallest normal float: the error bounds of the
# transition terms add it, which covers gradual underflow in any division.
_U = 0.5 * np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _up(x: np.ndarray) -> np.ndarray:
    """The next float up: at or above the exact value x was rounded from."""
    return np.nextafter(x, np.inf)


def _down(x: np.ndarray) -> np.ndarray:
    return np.nextafter(x, -np.inf)


def _ratio_cone_distance(
    v: np.ndarray, err: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per row, a scale k >= 0 and a bound on the exact row's distance from k [lo, HI].

    The distance is in the sup norm.  ``v`` approximates the exact row within
    ``err``, ``lo`` is exact, and ``hi`` is at most the exact HI.  k is the
    midpoint of max_j v_j / hi_j and min_j v_j / lo_j, clipped at 0; when the
    first is the smaller, every k between them puts the row in the cone.
    Each rounded operation is followed by a step of one float outward
    (:func:`_up`, :func:`_down`), so the result bounds the exact distance
    for this k.
    """
    k = np.maximum(0.5 * ((v / hi).max(axis=1) + (v / lo).min(axis=1)), 0.0)
    below = _up(_up(k[:, None] * lo) - _down(v - err))
    above = _up(_up(v + err) - _down(k[:, None] * hi))
    return np.maximum(np.maximum(below, above), 0.0).max(axis=1), k


def _transition_bound_terms(
    market: MarketData,
    nodes: np.ndarray,
    p: np.ndarray,
    p_bar: np.ndarray,
    bar_abs: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """e, f, R_max, kappa and gamma of :func:`transition_bound`, per row.

    e and f are distances of sigma^ and y^, which stand for the exact
    sigma = p / R and y = sigma - p_bar within the error bounds
    |sigma - sigma^| <= e_s and |y - y^| <= e_y, row by row, with p_bar the
    exact child sum sum_k w_k v_k (w_k the conditional probabilities, v_k the
    child prices; a leaf's p_bar is its terminal price itself).  Each bound
    follows the standard model fl(x op y) = (x op y)(1 + delta),
    |delta| <= u = 2^-53:

    - sigma^ = fl(p / R) gives |sigma - sigma^| <= u / (1 - u) |sigma^|,
      bounded by e_s = 2u |sigma^| (plus the smallest normal float for
      underflow);
    - p_bar^ is a dot product over the node's n children, so
      |p_bar - p_bar^| <= gamma_n S with S = sum_k w_k |v_k| and
      gamma_n = nu / (1 - nu) (Higham, Accuracy and Stability of Numerical
      Algorithms, eq. 3.5).  The same sum over |v_k| is computed as S^ >=
      (1 - gamma_n) S, so e_bar = 2nu S^ bounds the error for any nu <= 0.01;
      ``bar_abs`` is S^, which the rows alone cannot supply (|p_bar| is S^
      only where the child prices are nonnegative);
    - y^ = fl(sigma^ - p_bar^) gives |y - y^| <= e_s + e_bar + 2u |y^|.
    """
    idx, p, p_bar, bar_abs = market._rows(nodes, p, p_bar, bar_abs)
    tree = market.tree
    n_children = tree.child_counts[idx]
    sigma = p / market.returns[idx]
    y = sigma - p_bar
    err_sigma = 2.0 * _U * np.abs(sigma) + _TINY
    err_bar = (2.0 * _U * n_children)[:, None] * bar_abs
    err_y = err_sigma + err_bar + 2.0 * _U * np.abs(y)
    Lp, Lm = market.Lp[idx], market.Lm[idx]
    mu_Lm = _down(market.margins[tree.depth[idx]][:, None] * Lm)
    e, kappa = _ratio_cone_distance(sigma, err_sigma, Lp, Lm)
    f, gamma = _ratio_cone_distance(y, err_y, Lp, mu_Lm)
    return e, f, market.returns[idx].max(axis=1), kappa, gamma


def transition_bound(
    market: MarketData,
    nodes: np.ndarray,
    p: np.ndarray,
    p_bar: np.ndarray,
    bar_abs: np.ndarray,
) -> np.ndarray:
    """Rigorous upper bound on each node's :func:`dual_cone_violation` value.

    ``nodes`` are non-root node indices and ``p``, ``p_bar`` their ``(n, m)``
    prices and next-date conditional expectations; ``bar_abs`` is the same
    conditional sum over the absolute child prices (see
    :func:`_transition_bound_terms`).  With sigma = p / R and d = R a - b,

        p_bar . b - p . a = -sigma . d - (sigma - p_bar) . b.

    Take k >= 0 and g >= 0, and let e and f be the sup-norm distances of sigma
    from k [Lp, Lm] and of sigma - p_bar from g [Lp, mu Lm].  The nearest
    point of the first box has an inner product >= k psi(a, b) >= 0 with d,
    and that of the second one >= g times b's margin >= 0 with b.  So on the
    transition cone the objective is at most e |d|_1 + f |b|_1 <= e R_max
    |a|_1 + (e + f) |b|_1, and under |a|_1 + |b|_1 <= 1 the LP value is at
    most max(e R_max, e + f).  k and g act as an approximate dual, as in the
    safe LP bounds of A. Neumaier and O. Shcherbina (Math. Prog. 99, 2004)
    and C. Jansson (SIAM J. Optim. 14(3), 2004).

    e and f come from :func:`_ratio_cone_distance` on the rows and error
    bounds of :func:`_transition_bound_terms`, with mu Lm rounded down, and the
    final product and sum round outward.  So the bound holds in exact
    arithmetic over the stored floats, with mu Lm taken exactly or rounded
    as the lift rounds it.  A row whose e and f are both 0 reads 0.0, since
    both exact distances then vanish and nothing was rounded.  A row with a
    non-finite price reads inf.
    """
    e, f, r_max, _, _ = _transition_bound_terms(market, nodes, p, p_bar, bar_abs)
    value = np.maximum(_up(e * r_max), _up(e + f))
    value[(e == 0.0) & (f == 0.0)] = 0.0
    return np.where(np.isnan(value), np.inf, value)


# --- cone sections and the (B2) constants --------------------------------------

def section_vertices(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Stacked vertices of {a in X_k : |a|_1 = 1} for X_k = {alpha_k . a+ >= beta_k . a-}.

    ``alpha`` and ``beta`` are ``(n, m)``; the result is ``(n, m * m, m)``.
    Each row holds the coordinate directions e_i and, per ordered pair
    (i, j), the point with one long and one short leg sitting on the margin
    boundary.  Any function that is linear on each orthant attains its
    section minimum here.
    """
    n, m = alpha.shape
    i, j, k, eye = _vertex_layout(m)
    den = alpha[:, i] + beta[:, j]
    verts = np.zeros((n, m * m, m))
    verts[:, :m] = eye
    verts[:, k, i] = beta[:, j] / den
    verts[:, k, j] = -alpha[:, i] / den
    return verts


@cache
def _vertex_layout(m: int) -> tuple[np.ndarray, ...]:
    """Long legs i, short legs j and rows k of the pair vertices, and eye(m)."""
    i, j = np.nonzero(~np.eye(m, dtype=bool))
    return i, j, np.arange(m, m * m), np.eye(m)


def section_values(market: MarketData, P: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """``(n, m * m)`` values of each price row at its node's section vertices.

    Their minimum is the dual-cone residual, their maximum the price's upper
    value bound on the section.  The stacked matrix product rounds like one
    ``vertices @ p`` per node.
    """
    idx, P = market._rows(nodes, P)
    mu = market.margins[market.tree.depth[idx]]
    verts = section_vertices(market.Lp[idx], mu[:, None] * market.Lm[idx])
    return (verts @ P[:, :, None])[:, :, 0]


@dataclass(frozen=True)
class MarketConstants:
    """Per-date feasibility constants derived from the (B1) bounds.

    ``C2[t]`` and ``K[t]`` describe the transition into date t and are nan at
    t = 0.  ``H = 1/Q`` realizes the two-sided value bound with the all-ones
    price vector.
    """

    nu: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    K: np.ndarray
    H: np.ndarray
    Q: np.ndarray


def market_constants(market: MarketData) -> MarketConstants:
    """nu_t, C1_t, C2_t, K_t, H_t from the observed (B1) bounds.

    C1 and Q are the minima of |a+| - nu_t |a-| and |a+| - |a-| over the
    unit section of the ideal cone {mu_t |a-| <= |a+|}, in 1-norms.  Both
    are linear on each orthant, so each minimum sits at one of the
    :func:`section_vertices`.  Raises MarginTooTight when (B2) fails at some
    date.  At the final date the forward-looking term of nu is absent and
    only the cost-ratio term remains.
    """
    b = market.bounds
    mu = market.margins
    ratio_here = b["L_hi"] / b["L_lo"]
    ratio_next = (b["L_hi"] * b["R_hi"]) / (b["L_lo"] * b["R_lo"])  # nan at t = 0
    nu = np.maximum(np.concatenate([ratio_next[1:], [-np.inf]]), ratio_here)

    bad = np.flatnonzero(mu <= nu)
    if bad.size:
        detail = ", ".join(f"t={t}: mu={mu[t]:.6g} <= nu={nu[t]:.6g}" for t in bad)
        raise MarginTooTight(f"(B2) fails: {detail}")

    ones = np.ones((len(mu), market.m))
    verts = section_vertices(ones, mu[:, None] * ones)
    longs = np.maximum(verts, 0.0).sum(axis=2)
    shorts = np.maximum(-verts, 0.0).sum(axis=2)
    C1 = (longs - nu[:, None] * shorts).min(axis=1)
    Q = (longs - shorts).min(axis=1)
    if (C1 <= 0).any() or (Q <= 0).any():
        raise MarginTooTight("section minimum is not strictly positive")

    # R_lo and R_hi are nan at t = 0, and so are C2 and K.
    C1_before = np.concatenate([[np.nan], C1[:-1]])
    C2 = C1_before * b["L_lo"] * b["R_lo"] / (2.0 * b["L_hi"])
    K = 2.0 * b["L_hi"] * b["R_hi"] / (C1 * b["L_lo"])
    return MarketConstants(nu=nu, C1=C1, C2=C2, K=K, H=1.0 / Q, Q=Q)


def dual_cone_residual(
    market: MarketData, P: np.ndarray, nodes: np.ndarray
) -> np.ndarray:
    """Per row, min of p . a over its node cone's unit section; members read >= 0.

    Exact: the margin cone is generated by the axis rays and the one-long,
    one-short boundary rays, and a linear functional attains its section
    minimum at those vertices.
    """
    return section_values(market, P, nodes).min(axis=1)


# --- paths: completion, Slater, strategy and dominating paths ------------------

def feasible_completion(
    market: MarketData,
    A: np.ndarray,
    nodes: np.ndarray,
) -> np.ndarray:
    """Child portfolios B with each (A_k, B_k) in node k's transition cone.

    Default is the strictly interior scaled all-ones completion with
    |b| = (C2_t / 2) |a|; falls back to b = 0 (always admissible under (B2)).
    """
    idx, A = market._rows(nodes, A)
    market._non_root(idx)
    bad = np.flatnonzero(
        margin_residual(market, A, market.tree.parents[idx]) < -MEMBERSHIP_TOL
    )
    if bad.size:
        raise NotInCone(
            "vector fails the margin test at parent of "
            f"{market.tree.ids[idx[bad[0]]]!r}"
        )
    size = market.constants.C2[market.tree.depth[idx]] / 2.0 * np.abs(A).sum(axis=1)
    B = size[:, None] * np.ones(market.m) / market.m
    B[~in_Z(market, A, B, idx).member] = 0.0
    return B


@dataclass(frozen=True)
class SlaterPath:
    """Deterministic strictly interior path: scaled all-ones portfolios.

    ``values[t]`` is the date-t vector (a positive multiple of (1, ..., 1) for
    t >= 1); ``radii[t]`` is a 1-norm ball radius keeping it inside every
    depth-t margin cone; ``psi_slack[t]`` is the worst-node strict
    self-financing slack of the transition into date t.
    """

    values: list[np.ndarray]
    radii: list[float]
    psi_slack: list[float]


def _ones_radius(market: MarketData, t: int, scale: float) -> float:
    """1-norm interiority radius of scale * (1, ..., 1) at depth t."""
    lev = market.tree.span(t)
    Lp, Lm = market.Lp[lev], market.Lm[lev]
    lip = np.maximum(Lp.max(axis=1), market.margins[t] * Lm.max(axis=1))
    return float((scale * Lp.sum(axis=1) / lip).min())


def slater_path(tree: ScenarioTree, market: MarketData) -> SlaterPath:
    """Strictly interior path built by the lambda = delta / (2H) recursion.

    Starting from the all-ones portfolio, each step scales the interior
    transition witness (e, (C2_t / 2) e) so the previous state keeps half its
    interiority radius, then completes to a path; H = m bounds |(1, ..., 1)|.
    Raises MarginTooTight when (B2) fails.
    """
    C2 = market.constants.C2
    m = market.m
    N = tree.horizon

    y_scale = [1.0]
    delta = _ones_radius(market, 0, 1.0)
    for t in range(1, N + 1):
        lam = delta / (2.0 * m)
        v = lam * C2[t] / 2.0
        delta = _ones_radius(market, t, v)
        y_scale.append(v + (C2[t] / 2.0) * (y_scale[t - 1] - lam))

    values = [y * np.ones(m) for y in y_scale]
    radii = [_ones_radius(market, t, y) for t, y in enumerate(y_scale)]
    # Every transition in one call: node k moves values[t - 1] into values[t].
    nodes = np.arange(1, tree.n_nodes)
    stacked, depth = np.array(values), tree.depth[nodes]
    psi = self_financing_value(market, stacked[depth - 1], stacked[depth], nodes)
    slack = np.minimum.reduceat(psi, tree.offsets[1:-1] - 1)
    if np.any(slack <= 0):
        raise MarginTooTight(
            "interior path lost strict self-financing slack at date "
            f"{np.argmax(slack <= 0) + 1}"
        )
    return SlaterPath(values=values, radii=radii, psi_slack=[np.inf, *slack.tolist()])


def buy_and_hold_path(
    tree: ScenarioTree, market: MarketData, start: np.ndarray
) -> np.ndarray:
    """Hold the initial positions; values compound by the nodewise returns.

    The path is one row per node, (n_nodes, m), in node order.
    """
    path = np.empty((tree.n_nodes, market.m))
    path[0] = start
    for t in range(1, tree.horizon + 1):
        lev = tree.span(t)
        path[lev] = market.returns[lev] * path[tree.parents[lev]]
    return path


def fixed_fraction_path(
    tree: ScenarioTree,
    market: MarketData,
    start: np.ndarray,
    weights: np.ndarray,
    fill: float = 1.0,
) -> np.ndarray:
    """Rebalance to fixed weights each date, spending the whole frontier.

    Raises PreconditionViolated when the weights' 1-norm is not finite.
    """
    weights = np.asarray(weights, dtype=float)
    with np.errstate(over="ignore"):
        if not np.isfinite(np.abs(weights).sum()):
            raise PreconditionViolated(
                f"fixed-fraction weights {weights.tolist()} have no finite 1-norm"
            )
    path = np.empty((tree.n_nodes, market.m))
    path[0] = start
    for t in range(1, tree.horizon + 1):
        lev = tree.span(t)
        A = path[tree.parents[lev]]
        c = transition_frontier_batch(
            market, A, np.tile(weights, (len(A), 1)), tree.indices(t)
        )
        path[lev] = (fill * c)[:, None] * weights
    return path


def dominating_path(
    tree: ScenarioTree,
    market: MarketData,
    vs: np.ndarray,
    us: np.ndarray,
    u_terminal: np.ndarray,
) -> np.ndarray:
    """Turn a relaxed sequence (v_0, u_1, v_1, ..., u_{N+1}) into a path.

    ``vs`` holds the state proposals v_t, one row per node as a path does.
    ``us`` holds the inputs u_1..u_N, one row per non-root node (node i at
    row i - 1; F_t-measurable, valued in the date-(t-1) cone), and
    ``u_terminal`` u_{N+1}, one row per leaf.  Requires (u_t, v_t) in Z_t and
    v_{t-1} - u_t in X_{t-1} nodewise.  Builds y_0 = v_0, g = y_{t-1} - u_t,
    h by feasible completion, y_t = v_t + h, so y_t - v_t is a cone element
    at every date.
    """
    N, m = tree.horizon, market.m
    V = node_array(vs, (tree.n_nodes, m), "vs")
    U = node_array(us, (tree.n_nodes - 1, m), "us")
    U_N = node_array(u_terminal, (tree.n_leaves, m), "u_terminal")
    idx, parents, leaves = np.arange(1, tree.n_nodes), tree.parents[1:], tree.indices(N)

    def require(ok: np.ndarray, nodes: np.ndarray, what: str) -> None:
        if not ok.all():
            k = nodes[int(np.argmin(ok))]
            raise PreconditionViolated(f"{what} at node {tree.ids[k]!r}")

    in_cone = in_Z(market, U, V[1:], idx).member
    margin_ok = margin_residual(market, V[parents] - U, parents) >= -MEMBERSHIP_TOL
    for t in range(1, N + 1):  # the first failing date, the Z test first
        rows = slice(tree.offsets[t] - 1, tree.offsets[t + 1] - 1)
        require(in_cone[rows], idx[rows], f"(u_{t}, v_{t}) leaves the transition cone")
        require(margin_ok[rows], idx[rows], f"v_{t - 1} - u_{t} leaves the margin cone")
    require(margin_residual(market, V[leaves] - U_N, leaves) >= -MEMBERSHIP_TOL, leaves,
            f"v_{N} - u_{N + 1} leaves the margin cone")

    path = V.copy()
    for t in range(1, N + 1):
        lev = tree.span(t)
        g = path[tree.parents[lev]] - U[lev.start - 1:lev.stop - 1]
        path[lev] += feasible_completion(market, g, tree.indices(t))
    return path


# --- samplers (shared by tests, axiom checks and competitor paths) --------------

def sample_cone_batch(
    market: MarketData,
    nodes: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Random members of the nodes' margin cones, one row per entry of ``nodes``.

    Longs and shorts get disjoint supports; the shorts are scaled so they use
    a fraction beta, drawn uniformly from [0, 0.9] per row, of the
    cost-adjusted long value, which keeps the margin residual (1 - beta)
    times the long value.  A row that draws no long gets one in a random
    column.
    """
    (idx,) = market._rows(nodes)
    count, m = len(idx), market.m
    mu = market.margins[market.tree.depth[idx]]
    longs = rng.random((count, m)) < (0.75 if m > 1 else 1.1)
    none = np.flatnonzero(~longs.any(axis=1))
    longs[none, rng.integers(0, m, len(none))] = True
    shorts = ~longs & (rng.random((count, m)) < 0.7)
    u = rng.uniform(0.1, 1.0, (count, m)) * longs
    v = rng.uniform(0.1, 1.0, (count, m)) * shorts
    beta = rng.uniform(0.0, 0.9, count)
    den = mu * np.vecdot(v, market.Lm[idx])
    num = np.vecdot(u, market.Lp[idx])
    scale = np.where(den > 0.0, beta * num / np.where(den > 0.0, den, 1.0), 0.0)
    return u - scale[:, None] * v


def transition_frontier_batch(
    market: MarketData,
    A: np.ndarray,
    D: np.ndarray,
    nodes: np.ndarray,
) -> np.ndarray:
    """Rowwise largest c >= 0 with (A_k, c_k D_k) self-financing at node k.

    ``A`` and ``D`` are ``(n, m)`` and ``nodes`` holds one non-root node
    index per row; rows may come from any mix of nodes and each row's result
    depends on its own row only.  Finite under (B1)/(B2) because admissible
    transitions satisfy the |b| <= K_t |a| bound, and capped at twice it.

    psi(c) = sum_j min(Lp_j u_j, Lm_j u_j), u_j = R_j a_j - c d_j, is concave
    and piecewise linear in c with breakpoints R_j a_j / d_j.  Evaluated at
    0, the breakpoints and the cap, it is linear between the last knot where
    it is >= 0 and the next, which gives the root in closed form; the root
    then steps down by ulps until psi(c) >= 0 holds in floating point.
    """
    idx, A, D = market._rows(nodes, A, D)
    market._non_root(idx)
    R, Lp, Lm = market.returns[idx], market.Lp[idx], market.Lm[idx]
    AR = A * R

    def psi(c: np.ndarray) -> np.ndarray:
        return _psi_rows(Lp, Lm, AR - c[:, None] * D)

    norm_a = np.abs(A).sum(axis=1)
    norm_d = np.abs(D).sum(axis=1)
    active = (norm_a > 0.0) & (norm_d > 0.0)
    hi = np.where(
        active,
        2.0 * market.constants.K[market.tree.depth[idx]] * norm_a
        / np.where(active, norm_d, 1.0),
        0.0,
    )[:, None]
    brk = np.divide(AR, D, out=np.zeros_like(D), where=D != 0.0)
    knots = np.sort(np.concatenate(
        [np.zeros_like(hi), np.clip(brk, 0.0, hi), hi], axis=1
    ), axis=1)
    vals = np.column_stack([psi(col) for col in knots.T])
    ok = vals >= 0.0
    last = knots.shape[1] - 1
    k = np.where(ok.any(axis=1), last - np.argmax(ok[:, ::-1], axis=1), 0)
    rows, nxt = np.arange(len(k)), np.minimum(k + 1, last)
    base, top = knots[rows, k], knots[rows, nxt]
    v0, v1 = vals[rows, k], vals[rows, nxt]
    inside = ok[rows, k] & (k < last)
    c = base + np.divide(v0 * (top - base), v0 - v1, out=np.zeros_like(base),
                         where=inside)
    for i in range(64):  # psi(base) >= 0 was evaluated, so this ends there
        low = (psi(c) < 0.0) & (c > base)
        if not low.any():
            break
        c[low] = np.maximum(base[low], c[low] - 2.0 ** i * np.spacing(c[low]))
    return c


def sample_transition_pairs(
    market: MarketData,
    nodes: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One random (a, b) in each listed node's transition cone, as ``(n, m)`` rows.

    Draws the parent-cone points, then the cone directions, then the fills
    in [0, 1), one call each, and scales every direction to its
    frontier in one call.
    """
    (idx,) = market._rows(nodes)
    market._non_root(idx)
    A = sample_cone_batch(market, market.tree.parents[idx], rng)
    D = sample_cone_batch(market, idx, rng)
    fill = rng.uniform(0.0, 1.0, len(idx))
    c_max = transition_frontier_batch(market, A, D, idx)
    return A, (fill * c_max)[:, None] * D
