"""Admissible terminal objectives and machine checks of their axioms.

A terminal objective assigns to every leaf a nonnegative, superadditive,
degree-one homogeneous value function on the leaf's margin cone, bounded both
ways by a multiple of the 1-norm.  Three variants ship:

* ``linear``       -- value q . a with q strictly inside the leaf's dual cone;
* ``liquidation``  -- cost-adjusted cash value of unwinding the portfolio;
* ``norm_penalized`` -- q . a minus a small norm penalty (1-norm or Euclidean).

Degree-one homogeneity yields the Euler identity g . a = value(a) for the
supergradient g, which the dual extraction leans on.  Every variant carries
its leaf values as one :class:`LeafForm`, built at construction: the arrays
the solver reads for all leaves at once.  Its piecewise-linear part is a
sum of minima min(c1_j x_j, c2_j x_j): Lp and Lm for liquidation, and -theta
and theta for the 1-norm penalty, -theta |x_j| being such a minimum.
``form.values`` and ``form.supergradients`` take rows at given leaf positions
and are the one evaluation path, which the log functional and the axiom
checks read too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotInCone
from .market_model import MarketData, sample_cone_batch, section_values
from .scenario_tree import ScenarioTree, node_array


def _leaf_matrix(tree: ScenarioTree, m: int, data, name: str) -> np.ndarray:
    """Broadcast a vector or per-leaf table to shape (n_leaves, m)."""
    n_leaves = tree.n_leaves
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1 and arr.shape == (m,):
        return np.tile(arr, (n_leaves, 1))
    if arr.shape == (n_leaves, m):
        return arr.copy()
    raise DimensionMismatch(
        f"{name} must be a length-{m} vector or a ({n_leaves}, {m}) table"
    )


@dataclass(frozen=True)
class LeafForm:
    """Array form of the leaf values, one layout for every variant.

    The value at leaf l with terminal state x_l is
    ``cx[l] . x_l - l2[l] * |x_l|_2``, plus the sum over j of
    ``min(c1[k] * x_l, c2[k] * x_l)_j`` when l is the lifted leaf
    ``lifted[k]``.  The solver lifts that sum in min-form, as it lifts the
    cash: m scalars w_k sit below both forms, ``c1[k] * x_l - w_k >= 0`` and
    ``c2[k] * x_l - w_k >= 0``, and add up to it.
    """

    cx: np.ndarray      # (n_leaves, m) coefficients on x
    lifted: np.ndarray  # (n_lifted,) positions of the lifted leaves
    c1: np.ndarray      # (n_lifted, m)
    c2: np.ndarray      # (n_lifted, m)
    l2: np.ndarray      # (n_leaves,) Euclidean penalty weight
    lift_index: np.ndarray = field(init=False)  # per leaf: row in c1, or -1

    def __post_init__(self) -> None:
        index = np.full(len(self.cx), -1)
        index[self.lifted] = np.arange(len(self.lifted))
        object.__setattr__(self, "lift_index", index)

    @staticmethod
    def unlifted(cx: np.ndarray, l2: np.ndarray | None = None) -> "LeafForm":
        n_leaves, m = cx.shape
        none = np.zeros((0, m))
        if l2 is None:
            l2 = np.zeros(n_leaves)
        return LeafForm(cx, np.zeros(0, dtype=int), none, none, l2)

    # The two methods below take (n, m) rows X, row k at leaf position pos[k]
    # (default: every leaf in order).  On a lifted leaf w sits at its binding
    # row, w = min(c1 x, c2 x) coordinatewise.

    def values(self, X: np.ndarray, pos=slice(None)) -> np.ndarray:
        """Leaf value of each row."""
        val = np.vecdot(self.cx[pos], X) - self.l2[pos] * np.sqrt(np.vecdot(X, X))
        k = self.lift_index[pos]
        on = k >= 0
        k, Xl = k[on], X[on]
        val[on] += np.minimum(self.c1[k] * Xl, self.c2[k] * Xl).sum(axis=1)
        return val

    def supergradients(self, X: np.ndarray, pos=slice(None)) -> np.ndarray:
        """Supergradient of each row; a kink takes the c1 side (0 -> +)."""
        l2 = self.l2[pos]
        nrm = np.sqrt(np.vecdot(X, X))
        scale = np.divide(l2, nrm, out=np.zeros_like(nrm), where=l2 > 0.0)
        G = self.cx[pos] - scale[:, None] * X
        k = self.lift_index[pos]
        on = k >= 0
        k, Xl = k[on], X[on]
        c1, c2 = self.c1[k], self.c2[k]
        G[on] += np.where(c1 * Xl <= c2 * Xl, c1, c2)
        return G


class TerminalObjective:
    """Common machinery; construct one of the concrete variants below."""

    form: LeafForm

    def __init__(self, tree: ScenarioTree, market: MarketData):
        if market.tree is not tree:
            raise DimensionMismatch("objective market must belong to the tree")
        self.tree = tree
        self.market = market
        self.m = market.m


class LinearObjective(TerminalObjective):
    """value(a) = q . a with q strictly inside every leaf's dual cone."""

    def __init__(self, tree: ScenarioTree, market: MarketData, q=None):
        super().__init__(tree, market)
        if q is None:
            q = np.ones(self.m)
        self.q = _leaf_matrix(tree, self.m, q, "q")
        c_min, c_max = _dual_range(market, self.q)
        self._h_psi = np.maximum(np.maximum(c_max, 1.0 / c_min), 1.0)
        self.form = LeafForm.unlifted(self.q)


class LiquidationObjective(TerminalObjective):
    """Cost-adjusted cash value of unwinding: Lp . a+ - Lm . a-."""

    def __init__(self, tree: ScenarioTree, market: MarketData):
        super().__init__(tree, market)
        c1_N = market.constants.C1[tree.horizon]
        leaves = tree.span(tree.horizon)
        Lp, Lm = market.Lp[leaves], market.Lm[leaves]
        self._h_psi = np.maximum(
            np.maximum(Lm.max(axis=1), 1.0 / (c1_N * Lp.min(axis=1))), 1.0
        )
        # value = sum_j min(Lp_j x_j, Lm_j x_j)
        n_leaves = len(Lp)
        self.form = LeafForm(
            cx=np.zeros((n_leaves, self.m)),
            lifted=np.arange(n_leaves),
            c1=Lp,
            c2=Lm,
            l2=np.zeros(n_leaves),
        )


class NormPenalizedObjective(TerminalObjective):
    """value(a) = q . a - theta * norm(a), theta small enough for positivity.

    The admissible penalty weight per leaf is (1 - delta) / (H_q * H_hat)
    where H_q is the two-sided bound constant of q on the leaf cone and H_hat
    the norm-equivalence constant against the 1-norm; within that bound the
    value stays above delta / H_q times the 1-norm.  Set
    ``enforce_bound=False`` only to build deliberately broken objectives for
    diagnostics.
    """

    def __init__(
        self,
        tree: ScenarioTree,
        market: MarketData,
        q=None,
        theta=0.0,
        norm: str = "l1",
        delta: float = 0.5,
        enforce_bound: bool = True,
    ):
        super().__init__(tree, market)
        if norm not in ("l1", "l2"):
            raise ValueError("norm must be 'l1' or 'l2'")
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        self.norm = norm
        self.delta = delta
        if q is None:
            q = np.ones(self.m)
        self.q = _leaf_matrix(tree, self.m, q, "q")
        n_leaves = tree.n_leaves
        theta_arr = np.asarray(theta, dtype=float)
        if theta_arr.ndim == 0:
            theta_arr = np.full(n_leaves, float(theta_arr))
        if theta_arr.shape != (n_leaves,):
            raise DimensionMismatch(f"theta must be a scalar or length {n_leaves}")
        if not np.all((theta_arr >= 0) & (theta_arr < np.inf)):  # NaN fails both
            raise ValueError("penalty weights must be finite and nonnegative")
        self.theta = theta_arr
        self.h_hat = 1.0 if norm == "l1" else float(np.sqrt(self.m))

        c_min, c_max = _dual_range(market, self.q)
        h_q = np.maximum(1.0 / c_min, c_max)
        self.theta_bound = (1.0 - delta) / (h_q * self.h_hat)
        over = np.flatnonzero(self.theta > self.theta_bound + 1e-15)
        if enforce_bound and over.size:
            k = over[0]
            raise ValueError(
                f"penalty weight {float(self.theta[k])!r} at leaf "
                f"{tree.ids[tree.span(tree.horizon)][k]!r} exceeds the admissible bound "
                f"{float(self.theta_bound[k])!r}"
            )
        self._h_psi = np.maximum(np.maximum(c_max, 1.0 / (delta * c_min)), 1.0)
        if norm == "l2":
            self.form = LeafForm.unlifted(self.q, l2=self.theta)
        else:
            # value = q . x + sum_j min(-theta x_j, theta x_j); at x_j = 0
            # the c1 side gives the supergradient q_j - theta
            lifted = np.flatnonzero(self.theta)
            theta = np.repeat(self.theta[lifted, None], self.m, axis=1)
            self.form = LeafForm(
                cx=self.q,
                lifted=lifted,
                c1=-theta,
                c2=theta,
                l2=np.zeros(n_leaves),
            )


def _dual_range(market: MarketData, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per leaf, min and max of q . a over the leaf cone's unit section (exact).

    Raises NotInCone at the first leaf whose q is not strictly inside the
    dual cone.
    """
    tree = market.tree
    vals = section_values(market, q, tree.indices(tree.horizon))
    c_min, c_max = vals.min(axis=1), vals.max(axis=1)
    bad = np.flatnonzero(~(c_min > 0))
    if bad.size:
        raise NotInCone(
            f"price vector at leaf {tree.ids[tree.span(tree.horizon)][bad[0]]!r} is not "
            f"strictly inside the dual cone (section minimum {float(c_min[bad[0]])!r})"
        )
    return c_min, c_max


def log_objective(
    tree: ScenarioTree, objective: TerminalObjective, x_N: np.ndarray
) -> float:
    """E log value of the terminal layer x_N, one row per leaf in leaf order;
    -inf when any leaf value is <= 0."""
    x_N = node_array(x_N, (tree.n_leaves, tree.state_dim), "terminal layer")
    vals = objective.form.values(x_N)
    if np.any(vals <= 0.0):
        return float("-inf")
    return float(tree.prob[tree.span(tree.horizon)] @ np.log(vals))


@dataclass(frozen=True)
class AxiomResult:
    samples: int
    violations: int
    max_violation: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


@dataclass(frozen=True)
class PsiClassReport:
    """Sampled verification of the objective-class axioms.

    Continuity and joint measurability are automatic on a finite sample space
    and recorded as a note rather than tested.
    """

    psi1_note: str
    superadditive: AxiomResult
    homogeneous: AxiomResult
    two_sided_bound: AxiomResult
    monotone: AxiomResult
    concave: AxiomResult

    @property
    def passed(self) -> bool:
        return all(
            r.passed
            for r in (
                self.superadditive,
                self.homogeneous,
                self.two_sided_bound,
                self.monotone,
                self.concave,
            )
        )


def check_psi_class(
    objective: TerminalObjective,
    tree: ScenarioTree,
    market: MarketData,
    n_samples: int = 2000,
    seed: int = 0,
    tol: float = 1e-9,
) -> PsiClassReport:
    """Sampled axiom report; failures are reported, never raised."""
    rng = np.random.default_rng(seed)
    n_leaves = tree.n_leaves
    per_leaf = max(1, n_samples // n_leaves)
    # per sample: its leaf, a, a2, a bump of a, a scaling and a mixing weight
    pos = np.repeat(np.arange(n_leaves), per_leaf)
    nodes = tree.indices(tree.horizon)[pos]
    A, A2, bump = (sample_cone_batch(market, nodes, rng) for _ in range(3))
    bump *= rng.uniform(0.1, 1.0, (len(pos), 1))
    lam = rng.uniform(0.0, 3.0, (len(pos), 1))
    th = rng.uniform(0.0, 1.0, (len(pos), 1))
    h = objective._h_psi[pos]

    def value(X: np.ndarray) -> np.ndarray:
        return objective.form.values(X, pos)

    def result(violation: np.ndarray) -> AxiomResult:
        return AxiomResult(
            len(violation), int(np.count_nonzero(violation > 0.0)),
            max(float(violation.max()), 0.0),
        )

    va, va2 = value(A), value(A2)
    scale = tol * (1.0 + np.abs(va) + np.abs(va2))
    nrm = np.abs(A).sum(axis=1)
    mix = value(th * A + (1.0 - th) * A2)
    return PsiClassReport(
        psi1_note=(
            "continuity and joint measurability hold automatically on a "
            "finite sample space"
        ),
        superadditive=result(va + va2 - value(A + A2) - scale),
        homogeneous=result(np.abs(value(lam * A) - lam[:, 0] * va) - scale),
        two_sided_bound=result(np.maximum(nrm / h - va, va - h * nrm) - scale),
        monotone=result(va - value(A + bump) - scale),
        concave=result(th[:, 0] * va + (1.0 - th[:, 0]) * va2 - mix - scale),
    )
