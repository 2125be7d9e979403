"""Dual price paths and machine-checkable rapidity certificates.

A dual path assigns to every date-t node a price vector for date-(t-1)
portfolios, lying in the dual of the previous date's cone, such that expected
discounted value cannot grow across any admissible transition.  A solved path
is *rapid* when a dual path supports it with unit inner products everywhere.
A :class:`DualPath` checks its shapes once, when it is built, and carries the
conditional sums E_t p_{t+1} that every criterion reads; a check against
another tree object raises ShapeMismatch.

The solver reads a dual path off its multipliers
(:func:`vng.solver.extract_dual`); this module imports no solver code, so
verification never trusts the solver: memberships use the exact section-vertex
test, normalizations are plain inner products, and each transition inequality
is settled from the dual path alone by a rigorous upper bound on its LP value
(0 where both of the bound's distances vanish).  Each criterion is one array
pass over every node of the tree.  Only a node whose bound exceeds the
tolerance goes to one small LP over the cone lift, which decides it and
supplies the refutation witness; the certificate lists those nodes.
A certificate keeps each criterion as one array in the dual's row order;
only the certificate file (:mod:`vng.cli_io`) names its rows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import DepthMismatch, ShapeMismatch, ZeroDenominator
from .market_model import (
    DualConeCheck,
    MarketData,
    dual_cone_residual,
    dual_cone_violation,
    in_Z,
    sample_cone_batch,
    sample_transition_pairs,
    transition_bound,
    transition_frontier_batch,
)
from .scenario_tree import AdaptedVector, NodeArray, ScenarioTree, node_array

log = logging.getLogger(__name__)

CERT_TOL_DEFAULT = 1e-6


@dataclass(frozen=True, eq=False)
class DualPath:
    """Price vectors p_1, ..., p_{N+1} as two arrays in node order.

    ``p`` holds p_t on each depth-t node (t = 1..N), one row per non-root
    node (node i at row i - 1); it prices the parent's date-(t-1) portfolio.
    ``p_terminal`` holds p_{N+1}, one row per leaf.  ``prices[t]`` and
    ``terminal`` are their date views.

    Construction checks both shapes against the tree (ShapeMismatch) but no
    values, and stores read-only float copies with their conditional sums:
    ``bar`` holds E_t p_{t+1} on every node (p_{N+1} itself on the leaves),
    ``bar_abs`` the same sums over |p|.
    """

    tree: ScenarioTree
    p: np.ndarray
    p_terminal: np.ndarray
    bar: np.ndarray = field(init=False, repr=False)
    bar_abs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        tree, m = self.tree, self.tree.state_dim
        p = node_array(self.p, (tree.n_nodes - 1, m), "dual prices")
        terminal = node_array(
            self.p_terminal, (tree.n_leaves, m), "terminal dual layer"
        )
        # the sums over p and |p| side by side: one ordered np.add.at adds
        # each parent's children in child order
        sums = np.zeros((tree.n_nodes, 2 * m))
        both = np.hstack([p, np.abs(p)])
        with np.errstate(invalid="ignore"):  # inf and -inf siblings: NaN, refuted later
            np.add.at(sums, tree.parents[1:], tree.cond_prob[1:, None] * both)
        sums[tree.span(tree.horizon)] = np.hstack([terminal, np.abs(terminal)])
        for name, value in zip(("p", "p_terminal", "bar", "bar_abs"),
                               (p.copy(), terminal.copy(), *np.hsplit(sums, 2))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def prices(self) -> NodeArray:
        return NodeArray(self.tree, self.p, first=1)

    @property
    def terminal(self) -> AdaptedVector:
        return AdaptedVector(self.tree.horizon + 1, self.p_terminal)


def _check_tree(tree: ScenarioTree, *parts: DualPath | MarketData) -> None:
    for part in parts:
        if part.tree is not tree:
            raise ShapeMismatch(f"{type(part).__name__} belongs to another tree")


@dataclass(frozen=True, eq=False)
class RapidityCertificate:
    """Residual report for the three defining properties of a supporting dual.

    ``certified`` means every residual is within ``tol``: unit normalization
    at all dates, dual-cone membership of every price vector, the per-node
    bound on expected growth across the transition cones, and, when ``start``
    is not None, a path that starts at x0.  Each criterion over the tree is a
    read-only float array in the dual's row order, positive = violation.  A
    node's transition value is a rigorous upper bound on its LP value (0
    where both of the bound's distances vanish) where that bound is within
    ``tol``, and the LP value itself elsewhere; ``transition_lp_nodes`` names
    the nodes the LP decided.
    """

    tol: float
    certified: bool
    normalization: np.ndarray  # date t = 0..N: max |p_{t+1} x_t - 1|
    membership: np.ndarray     # p_t on node i at row i - 1, then p_{N+1} per leaf
    transition: np.ndarray     # node i at row i - 1: its LP value, or a bound on it
    feasibility: np.ndarray    # node i at row i - 1: primal cone violation of the path
    witness: dict | None = None
    transition_lp_nodes: list[str] = field(default_factory=list)
    start: float | None = None  # |y_0 - x0|_1 / |x0|_1; None when x0 was not given

    def __post_init__(self) -> None:
        for name in ("normalization", "membership", "transition", "feasibility"):
            value = np.array(getattr(self, name), dtype=float)
            value.flags.writeable = False
            object.__setattr__(self, name, value)


def _transition_values(
    market: MarketData, dual: DualPath, nodes: np.ndarray, tol: float
) -> tuple[np.ndarray, dict[int, DualConeCheck]]:
    """Transition values of the non-root ``nodes``, and the LP checks by row.

    Each node reads its price p, its E_t p_{t+1} and the same conditional
    sum over |p_{t+1}| off the dual.  One :func:`transition_bound` call
    covers every row: a row reads that rigorous upper bound where it is
    within ``tol``, 0 where both of its distances vanish.  Only a row whose
    bound exceeds ``tol`` gets the LP, whose value is written in and whose
    check, with any witness, is returned.  A row with a non-finite price
    keeps the bound's ``inf`` and gets no LP, which could not take it.
    """
    p, p_bar = dual.p[nodes - 1], dual.bar[nodes]
    with np.errstate(divide="ignore", invalid="ignore"):  # a non-finite price
        values = transition_bound(market, nodes, p, p_bar, dual.bar_abs[nodes])
    finite = np.isfinite(p).all(axis=1) & np.isfinite(p_bar).all(axis=1)
    lp = {
        int(k): dual_cone_violation(market, p[k], p_bar[k], int(nodes[k]), tol=tol)
        for k in np.flatnonzero((values > tol) & finite)
    }
    for k, check in lp.items():
        values[k] = check.value
    return values, lp


def _violation(v: np.ndarray) -> np.ndarray:
    """A NaN residual (from a NaN entry) is an unbounded violation."""
    return np.where(np.isnan(v), np.inf, v)


def _price_residuals(
    market: MarketData, p: np.ndarray, nodes: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dual-cone residual and p . x - 1 per price row.

    Row k lies in the dual of node ``nodes[k]``'s cone and prices that
    node's state ``x[k]``: a p_t row on a depth-t node (t = 1..N) its
    parent's, a p_{N+1} row its own leaf's.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # a non-finite price
        return dual_cone_residual(market, p, nodes), np.vecdot(p, x) - 1.0


def verify_rapid(
    path: np.ndarray | NodeArray,
    dual: DualPath,
    tree: ScenarioTree,
    market: MarketData,
    tol: float = CERT_TOL_DEFAULT,
    x0: np.ndarray | None = None,
) -> RapidityCertificate:
    """Check that the dual path supports the path; refute with a witness.

    Each criterion is one array pass over the whole tree, with rows in node
    order, which is date order, and the certificate keeps those arrays.
    Given the problem's ``x0``, the path must also start there: the ``start``
    criterion is |y_0 - x0|_1 / |x0|_1, which is free of scale and exactly 0
    on a solved path, whose root row is x0 itself.  Without it, a path and a
    dual scaled by c and 1/c pass every other criterion.  The witness is the
    first violation above ``tol`` in the order: start, path feasibility,
    then membership and normalization (row by row, membership first), then
    transitions.  A transition witness carries its LP pair; a non-finite
    price gets no LP, but its own price row fails membership first.
    """
    N = tree.horizon
    X = node_array(path, (tree.n_nodes, market.m), "path")
    _check_tree(tree, dual, market)
    start = None
    if x0 is not None:
        x0 = node_array(x0, (market.m,), "x0")
        with np.errstate(divide="ignore", invalid="ignore"):  # x0 = 0: NaN, refuted
            start = float(_violation(np.abs(X[0] - x0).sum() / np.abs(x0).sum()))

    ids = tree.ids
    idx, parents, leaves = np.arange(1, tree.n_nodes), tree.parents[1:], tree.indices(N)

    def first_hit(rows: np.ndarray, columns: dict[str, np.ndarray], extra):
        """Witness at the first row above tol, first column first."""
        table = np.column_stack(list(columns.values()))
        hits = np.argwhere(table > tol)
        if not len(hits):
            return None
        k, c = hits[0]
        return {
            "kind": list(columns)[c], "node": ids[rows[k]],
            "value": float(table[k, c]), **extra(k),
        }

    # The supported object must itself be a path: transition-cone membership
    # of every consecutive pair (a supporting dual says nothing about primal
    # feasibility on its own).
    res = in_Z(market, X[parents], X[1:], idx, tol=tol)
    worst = np.minimum(np.minimum(res.parent_margin, res.child_margin), res.psi)
    feasibility = _violation(np.maximum(0.0, -worst))

    # (p-X) membership and the supporting normalization p_{t+1} x_t = 1, over
    # p_1..p_N on the non-root nodes, then p_{N+1} on the leaves.
    rows = np.concatenate([idx, leaves])
    layer = np.concatenate([tree.depth[1:], np.full(len(leaves), N + 1)])
    cone = np.concatenate([parents, leaves])
    prices = np.concatenate([dual.p, dual.p_terminal])
    member, norm = _price_residuals(market, prices, cone, X[cone])
    membership = _violation(np.maximum(0.0, -member))
    norm = _violation(np.abs(norm))
    date_starts = np.append(tree.offsets[1:-1] - 1, tree.n_nodes - 1)
    normalization = np.maximum(np.maximum.reduceat(norm, date_starts), 0.0)
    bad = np.flatnonzero(~np.isfinite(prices).all(axis=1))
    if len(bad):  # refuted by membership; its arithmetic raised no warning
        log.warning("non-finite price rows: %d, the first p_%d@%s",
                    len(bad), layer[bad[0]], ids[rows[bad[0]]])

    # (dual-path): certify sup { p_bar b - p a } <= 0 at every node, by the
    # rigorous bound where it is within tol and by LP elsewhere.  A value
    # above tol is an LP value, which comes with its witness pair.
    transition, lp = _transition_values(market, dual, idx, tol)

    witness = (
        ({"kind": "start", "node": ids[0], "value": start, "layer": 0}
         if start is not None and start > tol else None)
        or first_hit(idx, {"path_feasibility": feasibility},
                  lambda k: {"layer": int(layer[k])})
        or first_hit(rows, {"dual_cone_membership": membership, "normalization": norm},
                     lambda k: {"layer": int(layer[k])})
        or first_hit(idx, {"transition": transition}, lambda k: {
            "pair": (lp[k].witness_a.tolist(), lp[k].witness_b.tolist())
        } if k in lp else {})
    )
    return RapidityCertificate(
        tol=tol,
        certified=bool(max(
            normalization.max(), membership.max(), transition.max(), feasibility.max(),
            start or 0.0,
        ) <= tol),
        normalization=normalization,
        membership=membership,
        transition=transition,
        feasibility=feasibility,
        witness=witness,
        transition_lp_nodes=[ids[k + 1] for k in lp],
        start=start,
    )


@dataclass(frozen=True)
class SupermartingaleReport:
    """Nodewise supermartingale residuals of (p_{t+1} y_t) along a path.

    ``first_form`` is max of E_t[p_{t+1}] y_t - p_t y_{t-1} over the non-root
    nodes; ``second_form`` conditions one date earlier, over the non-leaf
    nodes.  ``equality_gap`` is the largest absolute deviation of the first
    form (meaningful for the solved path, where both sides agree and the
    sequence is a martingale).  Each is a maximum over the whole tree at once
    (see :func:`_supermartingale_checks`), at least 0, and a NaN residual (from
    a NaN entry) counts as an unbounded violation, ``inf``, as it does in
    :func:`verify_rapid`, so it cannot hide the rest of its date.
    """

    first_form: float
    second_form: float
    equality_gap: float


def supermartingale_check(
    dual: DualPath, y: np.ndarray | NodeArray, tree: ScenarioTree
) -> SupermartingaleReport:
    return _supermartingale_checks(dual, [y], tree)[0]


def _supermartingale_checks(
    dual: DualPath, paths: np.ndarray, tree: ScenarioTree
) -> list[SupermartingaleReport]:
    """:func:`supermartingale_check` of each path, in one pass over the tree.

    ``paths`` is (count, n_nodes, m), and every residual comes from
    whole-tree arrays: E_t[p_{t+1}] y_t is one ``np.vecdot`` over all nodes,
    p_t y_{t-1} one more over the non-root nodes and their parents, and the
    second form's E_{t-1} of the first is one ordered ``np.add.at`` over all
    children.  A form's maximum is taken over all its nodes at once, from 0,
    with NaN residuals read as ``inf``.
    """
    _check_tree(tree, dual)
    Y = node_array(paths, (len(paths), tree.n_nodes, tree.state_dim), "each path")
    lhs = np.vecdot(dual.bar, Y)  # E_t[p_{t+1}] y_t at every node
    diff = _violation(lhs[:, 1:] - np.vecdot(dual.p, Y[:, tree.parents[1:]]))
    # one date earlier: E_{t-1}[p_bar_{t+1} y_t] against p_bar_t y_{t-1}
    inner = int(tree.offsets[tree.horizon])
    lhs_prev = np.zeros((len(Y), inner))
    np.add.at(lhs_prev, (slice(None), tree.parents[1:]), tree.cond_prob[1:] * lhs[:, 1:])
    diff_prev = _violation(lhs_prev - lhs[:, :inner])
    worst1, worst2, gap = (
        np.maximum.reduce(v, axis=1, initial=0.0)
        for v in (diff, diff_prev, np.abs(diff))
    )
    return [
        SupermartingaleReport(float(a), float(b), float(c))
        for a, b, c in zip(worst1, worst2, gap)
    ]


def growth_dominance(
    dual: DualPath,
    y: np.ndarray | NodeArray,
    tree: ScenarioTree,
) -> np.ndarray:
    """Conditional growth rates E_t(p_{t+1} y_t / p_t y_{t-1}) of every node.

    Entry i - 1 holds the ratio of non-root node i, so a date's ratios are
    the contiguous entries of its level.  A node whose denominator is not
    strictly positive (a NaN denominator among them) reads nan.  For
    ``y = x`` every ratio is 1 up to the certificate residual.
    """
    _check_tree(tree, dual)
    Y = node_array(y, (tree.n_nodes, tree.state_dim), "path")
    den = np.vecdot(dual.p, Y[tree.parents[1:]])
    num = np.vecdot(dual.bar[1:], Y[1:])
    bad = ~(den > 0.0)
    return np.where(bad, np.nan, num / np.where(bad, 1.0, den))


@dataclass(frozen=True)
class EquivalenceReport:
    """Four-way growth-bound report at one date.

    ``value_*`` are signed statistics that must be <= tol for a supporting
    dual: (I) worst sampled E(ratio) - 1, (II) worst sampled E log ratio,
    (III) worst sampled E p_{t+1} y - E p_t x, (IV) worst per-node transition value.
    Preconditions record how far the supplied pair is from the unit
    normalization and the prices from dual-cone membership.
    """

    t: int
    value_I: float
    value_II: float
    value_III: float
    value_IV: float
    tol: float
    samples: int
    dropped_nodes: int
    precondition_normalization: float
    precondition_membership: float

    @property
    def passes(self) -> dict[str, bool]:
        return {
            "I": self.value_I <= self.tol,
            "II": self.value_II <= self.tol,
            "III": self.value_III <= self.tol,
            "IV": self.value_IV <= self.tol,
        }

    @property
    def all_pass(self) -> bool:
        return all(self.passes.values())

    @property
    def consistent(self) -> bool:
        """No silent disagreement: a failing sampled check needs (IV) to fail."""
        p = self.passes
        sampled_fail = not (p["I"] and p["II"] and p["III"])
        if p["IV"]:
            return not sampled_fail
        return sampled_fail


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Row sums added left to right from 0.0, as a Python loop over nodes adds."""
    return np.cumsum(np.pad(terms, ((0, 0), (1, 0))), axis=1)[:, -1]


def check_equivalences(
    tree: ScenarioTree,
    market: MarketData,
    path: np.ndarray | NodeArray,
    dual: DualPath,
    t: int,
    n_samples: int = 500,
    seed: int = 0,
    tol: float = 1e-8,
) -> EquivalenceReport:
    """Evaluate the four equivalent growth bounds at date t.

    Samples feasible per-node transition pairs (always including the supplied
    pair itself and, when the LP finds violations, the LP witnesses mixed with
    the supplied pair), then evaluates the ratio, log-ratio and expectation
    forms against the per-node check (IV), the same rigorous bound and LP
    fallback as :func:`verify_rapid`.  Nodes where no strictly positive
    denominator exists are dropped from the ratio forms only.  A NaN
    statistic reads ``inf``, an unbounded violation.
    """
    rng = np.random.default_rng(seed)
    N = tree.horizon
    if not 1 <= t <= N:
        raise DepthMismatch(f"date {t} outside 1..{N}")
    X = node_array(path, (tree.n_nodes, market.m), "path")
    _check_tree(tree, dual, market)
    idx = tree.indices(t)
    up, P = tree.parents[idx], dual.p[idx - 1]
    if t < N:  # p_{t+1} on the depth-(t+1) nodes prices their parents' states
        nxt = tree.indices(t + 1)
        p_next, cone_next = dual.p[nxt - 1], tree.parents[nxt]
    else:  # p_{N+1} on the leaves prices their own states
        p_next, cone_next = dual.p_terminal, idx

    members, norms = zip(
        _price_residuals(market, P, up, X[up]),
        _price_residuals(market, p_next, cone_next, X[cone_next]),
    )
    pre_norm = float(_violation(np.abs(np.concatenate(norms))).max())
    pre_member = max(0.0, float(_violation(-np.concatenate(members)).max()))

    # (IV): the per-node values, collecting LP witnesses for the sampled forms.
    bar = dual.bar[idx]  # p_next itself at the last date
    values, lp = _transition_values(market, dual, idx, tol)

    # Sampled transition pairs, one (n, m) row block per sample: the solved
    # pair, the LP witnesses added to it, then random pairs.
    eq_a, eq_b = X[up], X[idx]
    samples = [(eq_a, eq_b)]
    lp_hit = {k: check for k, check in lp.items() if check.witness_a is not None}
    if lp_hit:
        mix_a, mix_b = eq_a.copy(), eq_b.copy()
        for k, check in lp_hit.items():
            mix_a[k] = check.witness_a + eq_a[k]
            mix_b[k] = check.witness_b + eq_b[k]
        samples.append((mix_a, mix_b))
    for _ in range(max(1, n_samples - 2)):
        a, b = sample_transition_pairs(market, idx, rng)
        # keep the denominator positive where the dual allows it
        flip = np.vecdot(P, a) <= 0.0
        a[flip] += eq_a[flip]
        b[flip] += eq_b[flip]
        samples.append((a, b))

    pa = np.vecdot(P, np.stack([a for a, _ in samples]))
    pb = np.vecdot(bar, np.stack([b for _, b in samples]))
    prob = tree.prob[idx]
    kept = ~(pa <= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = pb / pa
        log_ratio = np.where(ratio <= 0, -np.inf, np.log(ratio))  # NaN stays
    e_ratio = _ordered_sum(np.where(kept, prob * ratio, 0.0))
    e_log = _ordered_sum(np.where(kept, prob * log_ratio, 0.0))
    e_diff = _ordered_sum(prob * (pb - pa))
    value_i, value_ii, value_iii, value_iv = (
        float(_violation(v).max()) for v in (e_ratio - 1.0, e_log, e_diff, values)
    )

    return EquivalenceReport(
        t=t,
        value_I=value_i,
        value_II=value_ii,
        value_III=value_iii,
        value_IV=value_iv,
        tol=tol,
        samples=len(samples),
        dropped_nodes=int((~kept.all(axis=0)).sum()),
        precondition_normalization=pre_norm,
        precondition_membership=pre_member,
    )


def prop4_reconstruct(
    l_seq: DualPath,
    path: np.ndarray | NodeArray,
    tree: ScenarioTree,
    market: MarketData,
    tol: float = CERT_TOL_DEFAULT,
) -> tuple[DualPath, RapidityCertificate]:
    """Normalize an unscaled price sequence into a dual path and verify it.

    Divides each price vector by its inner product with the path state it
    prices; positive scalings of the input therefore reconstruct the same
    dual path.  Raises ZeroDenominator when an inner product is not strictly
    positive (a NaN among them).
    """
    N = tree.horizon
    X = node_array(path, (tree.n_nodes, market.m), "path")
    _check_tree(tree, l_seq)

    def normalized(src: np.ndarray, nodes: np.ndarray, x: np.ndarray, leaf: bool):
        denom = np.vecdot(src, x)
        bad = np.flatnonzero(~(denom > 1e-300))
        if bad.size:
            i = nodes[bad[0]]
            t = N + 1 if leaf else tree.depth[i]
            raise ZeroDenominator(
                f"l_{t} . x_{t - 1} = {float(denom[bad[0]])!r} at "
                f"{'leaf' if leaf else 'node'} {tree.ids[i]!r}"
            )
        return src / denom[:, None]

    idx, leaves = np.arange(1, tree.n_nodes), tree.indices(N)
    dual = DualPath(
        tree,
        normalized(l_seq.p, idx, X[tree.parents[1:]], leaf=False),
        normalized(l_seq.p_terminal, leaves, X[leaves], leaf=True),
    )
    return dual, verify_rapid(X, dual, tree, market, tol)


# --- the competitor sampler ------------------------------------------------------

def sample_competitor_paths(
    tree: ScenarioTree,
    market: MarketData,
    rng: np.random.Generator,
    start: np.ndarray,
    count: int,
) -> np.ndarray:
    """``count`` random feasible paths from ``start``, as (count, n_nodes, m).

    At every node each path picks a random cone direction and scales it to
    a random fill in [0, 0.95) of the self-financing frontier of its own
    parent state.  Per level, the directions of every path and node come
    from one draw, the fills from one more, and the frontier from one call,
    with rows path by path.
    """
    _check_tree(tree, market)
    m = market.m
    Y = np.empty((count, tree.n_nodes, m))
    Y[:, 0] = start
    for t in range(1, tree.horizon + 1):
        lev, idx = tree.span(t), tree.indices(t)
        nodes = np.tile(idx, count)
        D = sample_cone_batch(market, nodes, rng)
        fill = rng.uniform(0.0, 0.95, len(nodes))
        c_max = transition_frontier_batch(
            market, Y[:, tree.parents[lev]].reshape(-1, m), D, nodes
        )
        Y[:, lev] = ((fill * c_max)[:, None] * D).reshape(count, len(idx), m)
    return Y
