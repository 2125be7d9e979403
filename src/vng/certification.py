"""Dual price paths and machine-checkable rapidity certificates.

A dual path assigns to every date-t node a price vector for date-(t-1)
portfolios, lying in the dual of the previous date's cone, such that expected
discounted value cannot grow across any admissible transition.  A solved path
is *rapid* when a dual path supports it with unit inner products everywhere.

Extraction reads the prices off the solver's multipliers: the block of
multipliers linking a node to its parent, pushed through the returns and
divided by the node probability, is exactly the per-atom price density; the
terminal layer comes from the objective's supergradient, whose degree-one
Euler identity makes the last normalization exact by construction.

Verification never trusts the solver: memberships use the exact section-vertex
test, normalizations are plain inner products, and each transition inequality
is proved in closed form from the dual path alone, a whole tree level at a
time.  Only the nodes that proof leaves open go to one small LP each over the
cone lift, which decides them and supplies the refutation witness; the
certificate lists those nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonpositiveDenominator,
    NotCertified,
    ShapeMismatch,
    ZeroDenominator,
)
from .market_model import (
    DualConeCheck,
    MarketData,
    dual_cone_residual,
    dual_cone_violation,
    in_Z,
    sample_cone_batch,
    sample_transition_pair,
    transition_frontier,
    transition_frontier_batch,
    transition_proved,
)
from .scenario_tree import (
    AdaptedVector,
    Node,
    ScenarioTree,
    conditional_expectation,
    node_probability,
)
from .solver import PathProblem, Solution, _kkt_report, assemble


@dataclass(frozen=True)
class DualPath:
    """Adapted price vectors p_1, ..., p_{N+1}.

    ``prices[t]`` (t = 1..N) sits on depth-t nodes and prices date-(t-1)
    portfolios; ``terminal`` is p_{N+1}, stored on the leaves.
    """

    prices: dict[int, AdaptedVector]
    terminal: AdaptedVector

    def price(self, t: int, horizon: int) -> AdaptedVector:
        if t == horizon + 1:
            return self.terminal
        if t not in self.prices:
            raise ShapeMismatch(f"dual path has no layer t={t}")
        return self.prices[t]

    def bar(self, tree: ScenarioTree, t: int) -> AdaptedVector:
        """E_t of the next layer: the prices entering date-t decisions."""
        return conditional_expectation(tree, self.price(t + 1, tree.horizon))

    def check_shapes(self, tree: ScenarioTree, m: int) -> None:
        for t in range(1, tree.horizon + 1):
            av = self.price(t, tree.horizon)
            av.check_against(tree)
            if av.depth != t or av.dim != m:
                raise ShapeMismatch(f"dual layer t={t} has wrong shape")
        self.terminal.check_against(tree)
        if self.terminal.depth != tree.horizon + 1 or self.terminal.dim != m:
            raise ShapeMismatch("terminal dual layer has wrong shape")


def extract_dual(
    solution: Solution, problem: PathProblem, strict: bool = True
) -> DualPath:
    """Dual path from the converged solution's multipliers.

    Refuses non-certified input (re-running the independent residual report)
    unless ``strict=False``, which extracts anyway so a later verification can
    refute tampered data with a concrete witness.  For each non-root node the
    price is the cost-weighted multiplier of its self-financing rows, pushed
    through the returns and divided by the node probability; the terminal
    layer is the objective's multiplier-selected supergradient over its
    value, whose degree-one Euler identity pins p_{N+1} . x_N = 1 exactly.
    """
    prog = assemble(problem)
    if strict:
        report = _kkt_report(solution, prog)
        if not solution.converged or not report.within(solution.options.tol):
            raise NotCertified(
                "solution is not converged to tolerance; no dual path extracted"
            )
    tree, market = problem.tree, problem.market
    m = market.m
    lam = np.asarray(solution.multipliers, dtype=float)

    def edge_price_density(node_index: int) -> np.ndarray:
        # Combined multiplier of the two min-form rows, weighted by the
        # selling/buying cost coefficients: the x_parent-direction gradient
        # of the edge block divided by the returns.
        kp = lam[prog.rows_min_plus(node_index)]
        km = lam[prog.rows_min_minus(node_index)]
        return kp * market.Lp[node_index] + km * market.Lm[node_index]

    prices: dict[int, AdaptedVector] = {}
    for t in range(1, tree.horizon + 1):
        rows = np.zeros((len(tree.level(t)), m))
        for pos, node in enumerate(tree.level(t)):
            i = node.index
            rows[pos] = (
                market.returns[i] * edge_price_density(i)
                / node_probability(tree, node)
            )
        prices[t] = AdaptedVector(t, rows)

    # Terminal layer: the objective's supergradient over its value.  At a
    # kink (a terminal coordinate parked exactly at zero) the stationarity
    # identity of the leaf block selects the supergradient consistent with
    # the multipliers, so read it off the same block identities as the
    # interior layers and pin the Euler normalization exactly per leaf.
    term = np.zeros((len(tree.leaves()), m))
    x_N = solution.path[tree.horizon]
    for pos, leaf in enumerate(tree.leaves()):
        i = leaf.index
        base = prog.row_base[i]
        beta = lam[base + m:base + 2 * m]
        gamma = lam[base + 2 * m]
        g = (edge_price_density(i) - beta - gamma * market.Lp[i]) / (
            node_probability(tree, leaf)
        )
        term[pos] = g / float(g @ x_N.values[pos])
    return DualPath(prices=prices, terminal=AdaptedVector(tree.horizon + 1, term))


@dataclass(frozen=True)
class RapidityCertificate:
    """Residual report for the three defining properties of a supporting dual.

    ``certified`` means every residual is within ``tol``: unit normalization
    at all dates, dual-cone membership of every price vector, and the per-node
    bound on expected growth across the transition cones.  That bound is 0 at
    nodes the closed-form proof settles; ``transition_lp_nodes`` names the
    nodes whose value the LP decided instead.
    """

    tol: float
    certified: bool
    normalization_by_t: list[float]          # index t: max |p_{t+1} x_t - 1|
    membership_by_node: dict[str, float]     # positive = violation
    transition_by_node: dict[str, float]     # dual-cone LP value; 0 where proved
    feasibility_by_node: dict[str, float]    # primal cone violations of the path
    witness: dict | None = None
    supermartingale: "SupermartingaleReport | None" = None
    transition_lp_nodes: list[str] = field(default_factory=list)

    @property
    def max_normalization(self) -> float:
        return max(self.normalization_by_t)

    @property
    def max_membership(self) -> float:
        return max(self.membership_by_node.values())

    @property
    def max_transition(self) -> float:
        return max(self.transition_by_node.values())

    @property
    def max_feasibility(self) -> float:
        return max(self.feasibility_by_node.values())


def _transition_level(
    market: MarketData,
    level: tuple[Node, ...],
    p: np.ndarray,
    p_bar: np.ndarray,
    tol: float,
) -> tuple[list[DualConeCheck], np.ndarray]:
    """Transition checks of one tree level and the mask of proved nodes.

    The closed-form proof runs on the whole level; each node it leaves open
    gets the LP, which yields its value and any witness.  Proved nodes read 0.
    """
    proved = transition_proved(market, [node.index for node in level], p, p_bar)
    checks = [
        DualConeCheck(0.0, None, None) if ok
        else dual_cone_violation(market, p[k], p_bar[k], node, tol=tol)
        for k, (node, ok) in enumerate(zip(level, proved))
    ]
    return checks, proved


def verify_rapid(
    path: list[AdaptedVector],
    dual: DualPath,
    tree: ScenarioTree,
    market: MarketData,
    tol: float = 1e-6,
) -> RapidityCertificate:
    """Check that the dual path supports the path; refute with a witness."""
    N = tree.horizon
    if len(path) != N + 1:
        raise ShapeMismatch(f"path must have {N + 1} layers, got {len(path)}")
    for t, av in enumerate(path):
        av.check_against(tree)
        if av.storage_depth(tree) != t:
            raise ShapeMismatch(f"path layer {t} stored at wrong depth")
    dual.check_shapes(tree, market.m)

    normalization = [0.0] * (N + 1)
    membership: dict[str, float] = {}
    transition: dict[str, float] = {}
    feasibility: dict[str, float] = {}
    witness: dict | None = None

    def note_witness(kind: str, node_id: str, value: float, **extra) -> None:
        nonlocal witness
        if witness is None and value > tol:
            witness = {"kind": kind, "node": node_id, "value": value, **extra}

    # The supported object must itself be a path: transition-cone membership
    # of every consecutive pair (a supporting dual says nothing about primal
    # feasibility on its own).
    for t in range(1, N + 1):
        for node in tree.level(t):
            res = in_Z(
                market,
                path[t - 1].value_at(tree, tree.parent(node)),
                path[t].value_at(tree, node),
                node,
                tol=tol,
            )
            viol = max(0.0, -min(res.parent_margin, res.child_margin, res.psi))
            feasibility[node.node_id] = viol
            note_witness("path_feasibility", node.node_id, viol, layer=t)

    # (p-X) membership and the supporting normalization p_{t+1} x_t = 1.
    for t in range(1, N + 2):
        p_t = dual.price(t, N)
        for node in tree.level(min(t, N)):
            p = p_t.value_at(tree, node)
            cone_node = node if t == N + 1 else tree.parent(node)
            viol = max(0.0, -dual_cone_residual(market, p, cone_node))
            key = f"p_{t}@{node.node_id}"
            membership[key] = viol
            note_witness("dual_cone_membership", node.node_id, viol, layer=t)

            x_prev = path[t - 1].value_at(tree, node if t == N + 1 else tree.parent(node))
            resid = abs(float(p @ x_prev) - 1.0)
            normalization[t - 1] = max(normalization[t - 1], resid)
            note_witness("normalization", node.node_id, resid, layer=t)

    # (dual-path): certify sup { p_bar b - p a } <= 0 at every node, in closed
    # form where the proof holds and by LP elsewhere.
    lp_nodes: list[str] = []
    for t in range(1, N + 1):
        level = tree.level(t)
        checks, proved = _transition_level(
            market, level, dual.price(t, N).values, dual.bar(tree, t).values, tol
        )
        for node, check, ok in zip(level, checks, proved):
            if not ok:
                lp_nodes.append(node.node_id)
            transition[node.node_id] = check.value
            note_witness(
                "transition", node.node_id, check.value,
                pair=None if check.witness_a is None else (
                    check.witness_a.tolist(), check.witness_b.tolist()
                ),
            )

    certified = (
        max(normalization) <= tol
        and max(membership.values()) <= tol
        and max(transition.values()) <= tol
        and max(feasibility.values()) <= tol
    )
    return RapidityCertificate(
        tol=tol,
        certified=certified,
        normalization_by_t=normalization,
        membership_by_node=membership,
        transition_by_node=transition,
        feasibility_by_node=feasibility,
        witness=witness,
        transition_lp_nodes=lp_nodes,
    )


@dataclass(frozen=True)
class SupermartingaleReport:
    """Nodewise supermartingale residuals of (p_{t+1} y_t) along a path.

    ``first_form`` is max of E_t[p_{t+1}] y_t - p_t y_{t-1} over nodes;
    ``second_form`` conditions one date earlier.  ``equality_gap`` is the
    largest absolute deviation of the first form (meaningful for the solved
    path, where both sides agree and the sequence is a martingale).
    """

    first_form: float
    second_form: float
    equality_gap: float


def supermartingale_check(
    dual: DualPath, y: list[AdaptedVector], tree: ScenarioTree
) -> SupermartingaleReport:
    N = tree.horizon
    if len(y) != N + 1:
        raise ShapeMismatch(f"path must have {N + 1} layers, got {len(y)}")
    worst1 = 0.0
    worst2 = 0.0
    gap = 0.0
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
        bar_t = dual.bar(tree, t - 1) if t >= 2 else None
        for q in tree.level(t - 1):
            lhs = sum(
                child.cond_prob
                * float(bar_next.value_at(tree, child) @ y[t].value_at(tree, child))
                for child in tree.children(q)
            )
            if t >= 2:
                rhs = float(bar_t.value_at(tree, q) @ y[t - 1].value_at(tree, q))
            else:
                # depth 0: conditioning is plain expectation against p_1-bar
                rhs = float(
                    dual.bar(tree, 0).value_at(tree, q) @ y[0].value_at(tree, q)
                )
            worst2 = max(worst2, lhs - rhs)
    return SupermartingaleReport(first_form=worst1, second_form=worst2, equality_gap=gap)


@dataclass(frozen=True)
class GrowthEntry:
    t: int
    node_id: str
    ratio: float


def growth_dominance(
    dual: DualPath,
    x: list[AdaptedVector],
    y: list[AdaptedVector],
    tree: ScenarioTree,
    on_nonpositive: str = "raise",
) -> list[GrowthEntry]:
    """Per-period conditional growth-rate table E_t(p_{t+1} y_t / p_t y_{t-1}).

    The denominator must be strictly positive; offending nodes either raise
    ``NonpositiveDenominator`` or, with ``on_nonpositive='mark'``, produce a
    nan entry.  For ``y = x`` every entry is 1 up to the certificate residual.
    """
    del x  # the rapid path fixes the benchmark; ratios only involve y
    N = tree.horizon
    entries: list[GrowthEntry] = []
    for t in range(1, N + 1):
        p_t = dual.price(t, N)
        bar_next = dual.bar(tree, t)
        for node in tree.level(t):
            den = float(
                p_t.value_at(tree, node) @ y[t - 1].value_at(tree, tree.parent(node))
            )
            num = float(bar_next.value_at(tree, node) @ y[t].value_at(tree, node))
            if den <= 0.0:
                if on_nonpositive == "raise":
                    raise NonpositiveDenominator(
                        f"p_{t} . y_{t - 1} = {den!r} at node {node.node_id!r}"
                    )
                entries.append(GrowthEntry(t, node.node_id, float("nan")))
            else:
                entries.append(GrowthEntry(t, node.node_id, num / den))
    return entries


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


def check_equivalences(
    tree: ScenarioTree,
    market: MarketData,
    x_prev: AdaptedVector,
    x_curr: AdaptedVector,
    p_t: AdaptedVector,
    p_next: AdaptedVector,
    t: int,
    n_samples: int = 500,
    seed: int = 0,
    tol: float = 1e-8,
) -> EquivalenceReport:
    """Evaluate the four equivalent growth bounds at date t.

    Samples feasible per-node transition pairs (always including the supplied
    pair itself and, when the LP finds violations, the LP witnesses mixed with
    the supplied pair), then evaluates the ratio, log-ratio and expectation
    forms against the per-node check (IV), the same closed-form proof and LP
    fallback as :func:`verify_rapid`.  Nodes where no strictly positive
    denominator exists are dropped from the ratio forms only.
    """
    rng = np.random.default_rng(seed)
    N = tree.horizon
    level = tree.level(t)
    if p_next.depth == N + 1:
        bar = AdaptedVector(N, p_next.values.copy())
    else:
        bar = conditional_expectation(tree, p_next)

    pre_norm = 0.0
    pre_member = 0.0
    for node in level:
        p = p_t.value_at(tree, node)
        parent = tree.parent(node)
        pre_norm = max(
            pre_norm, abs(float(p @ x_prev.value_at(tree, parent)) - 1.0)
        )
        pre_member = max(pre_member, -dual_cone_residual(market, p, parent))
    for node in level:
        q = p_next.value_at(tree, node) if p_next.depth == N + 1 else None
        if q is not None:
            pre_member = max(pre_member, -dual_cone_residual(market, q, node))
    if p_next.depth != N + 1:
        for node in tree.level(t + 1):
            pre_norm = max(
                pre_norm,
                abs(float(p_next.value_at(tree, node)
                          @ x_curr.value_at(tree, tree.parent(node))) - 1.0),
            )
            pre_member = max(
                pre_member,
                -dual_cone_residual(
                    market, p_next.value_at(tree, node), tree.parent(node)
                ),
            )

    # (IV): exact per-node value, collecting LP witnesses for the sampled forms.
    checks, _ = _transition_level(market, level, p_t.values, bar.values, tol)
    value_iv = max(check.value for check in checks)
    witnesses = {
        node.index: (check.witness_a, check.witness_b)
        for node, check in zip(level, checks)
        if check.witness_a is not None
    }

    equality_pairs = {
        node.index: (
            x_prev.value_at(tree, tree.parent(node)).copy(),
            x_curr.value_at(tree, node).copy(),
        )
        for node in level
    }

    def assignments():
        yield equality_pairs
        if witnesses:
            mixed = dict(equality_pairs)
            for idx, (wa, wb) in witnesses.items():
                ea, eb = equality_pairs[idx]
                mixed[idx] = (wa + ea, wb + eb)
            yield mixed
        n_rand = max(1, n_samples - 2)
        for _ in range(n_rand):
            sample = {}
            for node in level:
                a, b = sample_transition_pair(market, node, rng)
                ea, eb = equality_pairs[node.index]
                # keep the denominator positive where the dual allows it
                if float(p_t.value_at(tree, node) @ a) <= 0.0:
                    a, b = a + ea, b + eb
                sample[node.index] = (a, b)
            yield sample

    value_i = -np.inf
    value_ii = -np.inf
    value_iii = -np.inf
    dropped = set()
    count = 0
    for sample in assignments():
        count += 1
        e_ratio = 0.0
        e_log = 0.0
        e_diff = 0.0
        for node in level:
            a, b = sample[node.index]
            prob = node_probability(tree, node)
            pa = float(p_t.value_at(tree, node) @ a)
            pb = float(bar.value_at(tree, node) @ b)
            e_diff += prob * (pb - pa)
            if pa <= 0.0:
                dropped.add(node.index)
                continue
            ratio = pb / pa
            e_ratio += prob * ratio
            e_log += prob * (np.log(ratio) if ratio > 0 else -np.inf)
        value_i = max(value_i, e_ratio - 1.0)
        value_ii = max(value_ii, e_log)
        value_iii = max(value_iii, e_diff)

    return EquivalenceReport(
        t=t,
        value_I=float(value_i),
        value_II=float(value_ii),
        value_III=float(value_iii),
        value_IV=float(value_iv),
        tol=tol,
        samples=count,
        dropped_nodes=len(dropped),
        precondition_normalization=pre_norm,
        precondition_membership=max(0.0, pre_member),
    )


def prop4_reconstruct(
    l_seq: DualPath,
    path: list[AdaptedVector],
    tree: ScenarioTree,
    market: MarketData,
    tol: float = 1e-6,
) -> tuple[DualPath, RapidityCertificate]:
    """Normalize an unscaled price sequence into a dual path and verify it.

    Divides each price vector by its inner product with the path state it
    prices; positive scalings of the input therefore reconstruct the same
    dual path.  Raises ZeroDenominator when an inner product is not strictly
    positive.
    """
    N = tree.horizon
    prices: dict[int, AdaptedVector] = {}
    for t in range(1, N + 1):
        src = l_seq.price(t, N)
        rows = np.zeros_like(src.values)
        for pos, node in enumerate(tree.level(t)):
            denom = float(
                src.value_at(tree, node) @ path[t - 1].value_at(tree, tree.parent(node))
            )
            if denom <= 1e-300:
                raise ZeroDenominator(
                    f"l_{t} . x_{t - 1} = {denom!r} at node {node.node_id!r}"
                )
            rows[pos] = src.values[pos] / denom
        prices[t] = AdaptedVector(t, rows)
    term_rows = np.zeros_like(l_seq.terminal.values)
    for pos, leaf in enumerate(tree.leaves()):
        denom = float(l_seq.terminal.values[pos] @ path[N].values[pos])
        if denom <= 1e-300:
            raise ZeroDenominator(
                f"l_{N + 1} . x_{N} = {denom!r} at leaf {leaf.node_id!r}"
            )
        term_rows[pos] = l_seq.terminal.values[pos] / denom
    dual = DualPath(prices=prices, terminal=AdaptedVector(N + 1, term_rows))
    return dual, verify_rapid(path, dual, tree, market, tol)


# --- strategy paths and the competitor sampler ----------------------------------

def sample_competitor_paths(
    tree: ScenarioTree,
    market: MarketData,
    rng: np.random.Generator,
    start: np.ndarray,
    count: int,
    max_fill: float = 0.95,
) -> list[list[AdaptedVector]]:
    """``count`` random feasible paths from ``start``.

    At every node each path picks a random cone direction and scales it
    inside the self-financing frontier of its own parent state; the frontier
    bisections run vectorized across paths.
    """
    start = np.asarray(start, dtype=float)
    levels: list[np.ndarray] = [np.tile(start, (count, 1, 1))]
    constants = market.constants()
    for t in range(1, tree.horizon + 1):
        nodes = tree.level(t)
        rows = np.zeros((count, len(nodes), market.m))
        for pos, node in enumerate(nodes):
            parent_pos = tree.level_position(tree.parent(node))
            A = levels[t - 1][:, parent_pos, :]
            D = sample_cone_batch(market, node, rng, count)
            c_max = transition_frontier_batch(market, A, D, node, constants)
            fill = rng.uniform(0.0, max_fill, count)
            rows[:, pos, :] = (fill * c_max)[:, None] * D
        levels.append(rows)
    return [
        [AdaptedVector(t, levels[t][k]) for t in range(tree.horizon + 1)]
        for k in range(count)
    ]


def sample_competitor_path(
    tree: ScenarioTree,
    market: MarketData,
    rng: np.random.Generator,
    start: np.ndarray,
    max_fill: float = 0.95,
) -> list[AdaptedVector]:
    """One random feasible path; see :func:`sample_competitor_paths`."""
    return sample_competitor_paths(tree, market, rng, start, 1, max_fill)[0]


def buy_and_hold_path(
    tree: ScenarioTree, market: MarketData, start: np.ndarray
) -> list[AdaptedVector]:
    """Hold the initial positions; values compound by the nodewise returns."""
    path = [AdaptedVector(0, np.asarray(start, float)[None, :])]
    for t in range(1, tree.horizon + 1):
        rows = np.zeros((len(tree.level(t)), market.m))
        for pos, node in enumerate(tree.level(t)):
            a = path[t - 1].value_at(tree, tree.parent(node))
            rows[pos] = market.returns[node.index] * a
        path.append(AdaptedVector(t, rows))
    return path


def fixed_fraction_path(
    tree: ScenarioTree,
    market: MarketData,
    start: np.ndarray,
    weights: np.ndarray,
    fill: float = 1.0,
) -> list[AdaptedVector]:
    """Rebalance to fixed weights each date, spending the whole frontier."""
    weights = np.asarray(weights, dtype=float)
    path = [AdaptedVector(0, np.asarray(start, float)[None, :])]
    for t in range(1, tree.horizon + 1):
        rows = np.zeros((len(tree.level(t)), market.m))
        for pos, node in enumerate(tree.level(t)):
            a = path[t - 1].value_at(tree, tree.parent(node))
            c = transition_frontier(market, a, weights, node)
            rows[pos] = fill * c * weights
        path.append(AdaptedVector(t, rows))
    return path
