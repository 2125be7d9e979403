"""Assembly and interior-point solve of the log-optimal path program.

The path problem "maximize expected log terminal value over all paths from
x_0" becomes a finite concave program on the tree: one portfolio vector per
node, the root pinned at x_0, every cone constraint written through an exact
polyhedral lift so the feasible set is an open polyhedron described by
inequalities only.

The self-financing function is a sum of coordinatewise minima of two linear
forms, so it is lifted in min-form: an auxiliary scalar per coordinate sits
below both forms and their sum is the released cash.  (A plus/minus split of
the rebalance would leave a cost-free inflation ray wherever a coordinate is
frictionless, which a log barrier chases to infinity; the min-form has no
such ray.)  Piecewise-linear terminal objectives are lifted the same way: a
lifted leaf's scalars w sit below both of its forms and add up to its value.
The objective reaches the program through its array form
(:class:`~vng.objectives.LeafForm`): its value and derivatives are
whole-array expressions over all leaves.

Newton acts on the perturbed KKT system with explicit multipliers, centered
on lambda_i g_i = mu P_i, P_i the probability of the node owning row i: a
probability-weighted central path (Jansen, Roos, Terlaky and Vial, Ann. Oper.
Res. 62, 1996).  The certificate layer divides each node's multipliers by
P(node), so every node's price then carries an error of order mu, and a final
mu of 1e-2 * tol serves every tree.  Centering and merit measure r_c / P.

One routine computes every direction in two elimination passes: the first
factors the blocks, the second refines against the full system.  Down to
20 times that final mu, each iteration is a Mehrotra predictor-corrector
step (S. Mehrotra, SIAM J. Optim. 2(4), 1992): the affine and centering
directions share the first pass, the step picks its own mu from how far the
affine direction can go, no lower than the relative dual residual allows
(see :func:`solve_log_optimal`), and the second-order corrector rides on
the refinement pass.  Two centered stages at a fixed mu follow, the first at
that handover mu and the last at the final mu, each centered before mu
moves: the certificate and the split along flat faces of the optimal set
(the homogeneity check scales x0 and compares that split) are read off the
central path, and a predictor-corrector run all the way down leaves the
iterate off center by more than they tolerate.

Each Newton system is solved on the scenario tree's block structure: the
rows of a node read only its own columns and its parent's state, so the
system is eliminated from the leaves to the root, one whole level of
stacked dense blocks at a time (Steinbach, Math. Methods OR 56, 2002;
Blomvall and Lindberg, EJOR 143, 2002).  A row whose barrier weight D has
grown past 1e4 times the leaves' Hessian scale stays in augmented form, which
keeps the blocks nonsingular in floating point down to the final mu; the
other rows are condensed, so mid-path most blocks are only their node's 3m
columns wide.  D scales like the probability of the row's node and the
Hessian scale like that of a leaf, which is what the threshold compares (see
:class:`_NewtonSystem`).  The augmented blocks are quasidefinite (Vanderbei,
SIAM J. Optim. 5(1), 1995), so no regularization is added: a block that is
singular anyway ends the solve unconverged, with the reason in its warning.

Extraction reads the prices off the multipliers (:func:`extract_dual`): the
block of multipliers linking a node to its parent, pushed through the returns
and divided by the node probability, is exactly the per-atom price density;
the terminal layer comes from the objective's supergradient, whose degree-one
Euler identity makes the last normalization exact by construction.  The
result is a :class:`~vng.certification.DualPath`, which
:mod:`vng.certification` checks without reading any solver code.

A solve owns its workspace; problems are immutable and may be solved
concurrently.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .certification import DualPath
from .errors import DimensionMismatch, InfeasibleStart, NotCertified
from .market_model import MarketData, fixed_fraction_path, margin_residual
from .objectives import LeafForm, TerminalObjective, log_objective
from .scenario_tree import NodeArray, ScenarioTree, node_array

log = logging.getLogger(__name__)

# Above HANDOVER times the final mu every iteration is a Mehrotra
# predictor-corrector step, whose centering weight is
# sigma = (mu_aff / mu_avg)^SIGMA_POWER; below it, two centered stages finish:
# one at the handover mu, then one at the final mu.  Newton iterations on
# perfbench's seeds50 and ladder, with the start's padding below: 610 and 91
# at 20; 617 and 90 at 10, which leaves acceptance 08's homogeneity error at
# 1.7e-7 against 7.2e-8; 645 and 93 at 100 with a stage between (mu <- 0.04
# mu per stage).
HANDOVER = 20.0
SIGMA_POWER = 3

# No predictor-corrector step takes mu below BETA * rel / rel0, rel the
# relative dual residual and rel0 its value at the start (see _mu_floor).
# Of 0.1 to 10, BETA = 1 took the fewest Newton iterations over 691 solves
# (acceptance seeds, regular, robustness and deep trees, fixtures); at 10,
# mu held up by a lagging residual ran three of them into max_iter.
BETA = 1.0

# The interior start spends FILL of each node's self-financing frontier (see
# _interior_start).  Over acceptance seeds 0-49, 0.5 took 773 Newton
# iterations, and 0.9, 0.95 and 0.99 took 690, 693 and 698; the ladder of
# perfbench took 116 at 0.5, and 99, 99 and 104.
FILL = 0.95

# The start pads v, s and w by PAD_SCALE times their node's state scale,
# capped at PAD_SLACK of the slack the pad eats into (see _interior_start).
# At HANDOVER 20, seeds50 and the ladder took 660 and 95 Newton iterations
# with (0.1, 0.4) and 610 and 91 with (0.3, 0.8).  With (0.3, 0.4) the
# predictor-corrector direction at the start of acceptance seed 31 has a
# backward error of 1.4e-15, above the 1e-15 its test allows.
PAD_SCALE = 0.3
PAD_SLACK = 0.8

# A Newton row stays augmented once its barrier weight exceeds AUGMENT times
# the leaves' Hessian scale (see _NewtonSystem).
AUGMENT = 1e4

# Leaf states X, their Euclidean norms, d sigma / d x and sigma per leaf.
LeafState = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class PathProblem:
    """A solvable instance: tree, market, terminal objective, pinned start.

    The initial portfolio must be strictly interior to the date-0 cone, with
    a finite interiority radius, which :meth:`epsilon0` reports; the problem
    holds a read-only copy of it.  The lifted program is :attr:`program`,
    assembled on first use and kept: the solve, :func:`kkt_report` and the
    dual extraction read that one read-only object, and a problem made by
    ``dataclasses.replace`` assembles its own.
    """

    tree: ScenarioTree
    market: MarketData
    objective: TerminalObjective
    x0: np.ndarray

    def __post_init__(self) -> None:
        if self.market.tree is not self.tree:
            raise DimensionMismatch("market does not belong to the tree")
        if self.objective.market is not self.market:
            raise DimensionMismatch("objective does not belong to the market")
        x0 = np.array(self.x0, dtype=float)  # a copy: the caller keeps theirs
        x0.flags.writeable = False
        if x0.shape != (self.market.m,):
            raise DimensionMismatch(
                f"x0 must have length {self.market.m}, got shape {x0.shape}"
            )
        object.__setattr__(self, "x0", x0)
        self.market.constants  # raises MarginTooTight when (B2) fails
        radius = self.epsilon0()
        if not 0.0 < radius < np.inf:
            raise InfeasibleStart(
                "x0 needs a positive, finite interior radius in the date-0 "
                f"margin cone: radius {radius!r}"
            )

    def epsilon0(self) -> float:
        """1-norm interiority radius of x0 at the root cone."""
        i = 0  # the root
        with np.errstate(over="ignore", invalid="ignore"):  # a huge x0: inf or nan
            resid = float(margin_residual(self.market, self.x0[None], [i])[0])
        lip = float(
            max(self.market.Lp[i].max(),
                self.market.margins[0] * self.market.Lm[i].max())
        )
        return resid / lip

    @cached_property
    def program(self) -> AssembledProgram:
        """The lifted program of :func:`assemble`, built once per problem."""
        return assemble(self)

    def __getstate__(self) -> dict:
        # a pickled or copied problem assembles its own read-only program
        return {k: v for k, v in vars(self).items() if k != "program"}


@dataclass(frozen=True)
class SolveOptions:
    """Solver settings.

    ``seed`` is reserved: it is part of a solution file's digest, but the
    solver is deterministic and never reads it.
    """

    tol: float = 1e-8
    max_iter: int = 2000
    seed: int = 0


@dataclass(frozen=True)
class KktResiduals:
    primal: float
    stationarity: float
    complementarity: float
    duality_gap: float

    @classmethod
    def of(cls, g: np.ndarray, r_d: np.ndarray, lam: np.ndarray) -> "KktResiduals":
        """Residuals of an iterate: constraint values g, dual residual r_d."""
        return cls(
            primal=float(np.maximum(-g, 0.0).max(initial=0.0)),
            stationarity=float(np.abs(r_d).max()),
            complementarity=max(0.0, float((lam * g).max())),
            duality_gap=float(lam @ g),
        )

    def within(self, tol: float) -> bool:
        return (
            self.primal <= tol
            and self.stationarity <= tol
            and self.complementarity <= tol
        )


@dataclass(frozen=True)
class Solution:
    """Converged (or best-effort) path with multipliers and residuals.

    ``path`` holds one state row per node, in node order; ``path[t]`` is its
    date-t view.
    """

    path: NodeArray
    objective_value: float
    z: np.ndarray
    multipliers: np.ndarray
    residuals: KktResiduals
    iterations: int
    outer_iterations: int
    wall_time: float
    converged: bool
    objective_trace: list[float]
    mu_final: float
    options: SolveOptions


# --- program assembly -----------------------------------------------------------

@dataclass(frozen=True)
class Level:
    """One level of the program's block tree, stacked over its blocks.

    Block k owns ``n_cols`` consecutive columns and ``n_rows`` consecutive
    rows; its rows read its own columns through ``loc[k]`` and, below the
    first level, the first ``m`` columns (the state x) of its parent block
    ``up[k]`` in the previous level through ``par[k]``.  The node levels hold
    one block per node of depth t; a lifted objective adds a last level, one
    block per lifted leaf, holding that leaf's w and its 2m rows.
    """

    rows: slice
    cols: slice
    loc: np.ndarray           # (n, n_rows, n_cols)
    par: np.ndarray | None    # (n, n_rows, m); None on the first level
    up: np.ndarray | None     # (n,) parent block within the previous level


def _row_kinds(m: int) -> dict[str, np.ndarray]:
    """Offsets of each kind of row in a node block, in block order: v >= 0,
    u = x + v >= 0, margin >= 0, plus: Lp (R x_par - x) - s >= 0, minus:
    Lm (R x_par - x) - s >= 0 and cash: sum(s) >= 0; m rows of each kind
    but margin and cash, which are one row each."""
    sizes = {"v": m, "u": m, "margin": 1, "plus": m, "minus": m, "cash": 1}
    ends = np.cumsum(list(sizes.values()))
    return {k: np.arange(end - n, end) for (k, n), end in zip(sizes.items(), ends)}


def _node_blocks(
    Lp: np.ndarray, Lm: np.ndarray, R: np.ndarray, mu: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient blocks of the node rows: (k, 4m + 2, 3m) and (k, 4m + 2, m).

    Rows by :func:`_row_kinds`; columns x, v, s of the node, then x of its
    parent.
    """
    k, m = Lp.shape
    rows = _row_kinds(m)
    n_rows = sum(map(len, rows.values()))
    x, v, s = np.arange(3 * m).reshape(3, m)  # x is also the parent's x in par
    loc = np.zeros((k, n_rows, 3 * m))
    par = np.zeros((k, n_rows, m))
    loc[:, rows["v"], v] = 1.0
    loc[:, rows["u"], x] = loc[:, rows["u"], v] = 1.0
    loc[:, rows["margin"], x] = Lp
    loc[:, rows["margin"], v] = Lp - mu[:, None] * Lm
    for kind, L in (("plus", Lp), ("minus", Lm)):
        loc[:, rows[kind], x] = -L
        loc[:, rows[kind], s] = -1.0
        par[:, rows[kind], x] = L * R
    loc[:, rows["cash"], s] = 1.0
    return loc, par


@dataclass(frozen=True, eq=False)
class AssembledProgram:
    """Lifted deterministic equivalent with index maps for the dual layer.

    Per non-root node the variables are the state x, the margin split v
    (u = x + v) and the min-form cash scalars s (:meth:`node_columns`); its
    rows are the kinds of :func:`_row_kinds` (:meth:`node_rows`).  Lifted
    objective leaves append auxiliary scalars w with two coordinatewise rows
    each (see :class:`~vng.objectives.LeafForm`).

    The constraints are g(z) = A z + b >= 0.  ``levels`` holds A as stacked
    dense blocks, for the Newton elimination; ``A_rows``, ``A_cols`` and
    ``A_vals`` hold its structural entries, sorted by row and then column, for
    the products :meth:`A_dot` and :meth:`A_T_dot`.

    Every array is read-only.  The program keeps the parts of its problem it
    reads (tree, objective form, x0), not the problem, which caches it
    (:attr:`PathProblem.program`): the two form no reference cycle.
    """

    tree: ScenarioTree
    form: LeafForm
    x0: np.ndarray
    m: int
    n_vars: int
    n_cons: int
    A_rows: np.ndarray        # entries of A, sorted by row, then column
    A_cols: np.ndarray
    A_vals: np.ndarray
    b: np.ndarray
    levels: tuple[Level, ...]
    leaf_x: np.ndarray        # (n_leaves, m) x columns of each leaf
    leaf_w: np.ndarray        # (n_lifted, m) w columns of each lifted leaf
    row_owner: np.ndarray     # node index owning each constraint row
    leaf_prob: np.ndarray

    def A_dot(self, z: np.ndarray) -> np.ndarray:
        """A z, for a (n_vars,) vector or a (n_vars, k) stack."""
        return _entry_product(self.A_rows, self.A_cols, self.A_vals, z, self.n_cons)

    def A_T_dot(self, y: np.ndarray) -> np.ndarray:
        """A^T y, for a (n_cons,) vector or a (n_cons, k) stack."""
        return _entry_product(self.A_cols, self.A_rows, self.A_vals, y, self.n_vars)

    def g(self, z: np.ndarray) -> np.ndarray:
        return self.A_dot(z) + self.b

    def node_columns(self, z: np.ndarray) -> np.ndarray:
        """Views of z's x, v and s columns, each (n_nodes - 1, m), node i at i - 1."""
        n = self.tree.n_nodes - 1
        return z[:n * 3 * self.m].reshape(n, 3, self.m).transpose(1, 0, 2)

    def node_rows(self, y: np.ndarray) -> dict[str, np.ndarray]:
        """Views of y's node rows by kind (:func:`_row_kinds`), node i at i - 1."""
        n, nr = self.tree.n_nodes - 1, self.levels[0].loc.shape[1]
        block = y[:n * nr].reshape(n, nr)
        return {k: block[:, r[0]:r[-1] + 1] for k, r in _row_kinds(self.m).items()}

    def path_values(self, z: np.ndarray) -> np.ndarray:
        """The path of z, (n_nodes, m): x0 on the root, then z's x columns."""
        return np.concatenate([self.x0[None, :], self.node_columns(z)[0]])

    # -- objective: f(z) = sum_l P_l ln sigma_l ---------------------------------
    # Leaf inner products use np.vecdot on the stacked (n_leaves, m) arrays: it
    # rounds like one dot product per leaf, which einsum, (C * X).sum(1) and a
    # sparse product do not, and the central path's end is sensitive to that.

    def _leaf_state(self, z: np.ndarray) -> LeafState:
        """Leaf states X, their Euclidean norms, d sigma / d x and sigma per leaf."""
        form = self.form
        X = z[self.leaf_x]
        nrm = np.sqrt(np.vecdot(X, X))
        sigma = np.vecdot(form.cx, X) - form.l2 * nrm
        sigma[form.lifted] += z[self.leaf_w].sum(axis=1)
        G = form.cx - form.l2[:, None] * X / nrm[:, None]
        return X, nrm, G, sigma

    def sigmas(self, z: np.ndarray) -> np.ndarray:
        return self._leaf_state(z)[3]

    # ``state``, when given, is the :meth:`_leaf_state` of z.

    def grad_f(self, z: np.ndarray, state: LeafState | None = None) -> np.ndarray:
        form = self.form
        _, _, G, sigma = state or self._leaf_state(z)
        P = self.leaf_prob[:, None]
        s = sigma[:, None]
        grad = np.zeros(self.n_vars)
        grad[self.leaf_x] = P * G / s
        grad[self.leaf_w] = P[form.lifted] / s[form.lifted]
        return grad

    def neg_hess_f(
        self, z: np.ndarray, state: LeafState | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """W = -hess f(z), positive semidefinite, as stacked leaf blocks.

        Each leaf contributes P (g g^T) / sigma^2 over its columns, g the
        gradient of sigma, plus P * curv / sigma on its x block, curv the
        curvature of the Euclidean penalty.  Returns the (n_leaves, m, m)
        x-x blocks and the (n_lifted, m, m) x-w and w-w blocks.
        """
        form = self.form
        X, nrm, G, sigma = state or self._leaf_state(z)
        P = self.leaf_prob[:, None, None]
        s = sigma[:, None, None]
        s2 = s * s  # exact under scaling by 2^k, which pow() is not
        xhat = X / nrm[:, None]
        curv = (form.l2 / nrm)[:, None, None] * (
            np.eye(self.m) - xhat[:, :, None] * xhat[:, None, :]
        )
        lw = form.lifted
        xx = P * (G[:, :, None] * G[:, None, :]) / s2 + P * (curv / s)
        # sigma's gradient is 1 on each w: the columns of xw and all of ww agree
        xw, ww = np.empty((2, len(lw), self.m, self.m))
        xw[:] = P[lw] * G[lw][:, :, None] / s2[lw]
        ww[:] = P[lw] / s2[lw]
        return xx, xw, ww


def _entry_product(
    out_idx: np.ndarray, in_idx: np.ndarray, vals: np.ndarray, x: np.ndarray, n: int
) -> np.ndarray:
    """y[out_idx[e]] += vals[e] x[in_idx[e]] over the entries e, in list order.

    On the row-sorted entry list each output of A z and of A^T y sums its
    products in ascending index order, as a CSR product does (the end of the
    central path is sensitive to rounding order).  A (len, k) stack is taken
    one column at a time.
    """
    if x.ndim == 2:
        return np.column_stack(
            [_entry_product(out_idx, in_idx, vals, c, n) for c in x.T]
        )
    return np.bincount(out_idx, vals * x[in_idx], n)


def assemble(problem: PathProblem) -> AssembledProgram:
    """Build the lifted deterministic-equivalent program, every node at once.

    Every array of the result is read-only.  :attr:`PathProblem.program`
    calls this once per problem and keeps the result.
    """
    tree = problem.tree
    market = problem.market
    form = problem.objective.form
    m = market.m
    N = tree.horizon
    leaves = tree.indices(N)
    n_lifted = len(form.lifted)

    idx = np.arange(1, tree.n_nodes)
    loc, par = _node_blocks(
        market.Lp[idx], market.Lm[idx], market.returns[idx],
        market.margins[tree.depth[idx]],
    )
    # node i >= 1 owns block i - 1 of the node columns and of the node rows
    _, block, width = loc.shape
    n_node_vars = (tree.n_nodes - 1) * width
    n_node_rows = (tree.n_nodes - 1) * block
    leaf_x = np.arange(n_node_vars).reshape(-1, 3, m)[leaves - 1, 0]
    leaf_w = n_node_vars + np.arange(n_lifted * m).reshape(n_lifted, m)
    n_vars = n_node_vars + n_lifted * m
    # per lifted leaf: m rows c1 * x - w >= 0, then m rows c2 * x - w >= 0
    n_cons = n_node_rows + n_lifted * 2 * m
    j = np.arange(m)
    w_loc = np.zeros((n_lifted, 2 * m, m))
    w_par = np.zeros((n_lifted, 2 * m, m))
    w_loc[:, j, j] = w_loc[:, m + j, j] = -1.0
    w_par[:, j, j] = form.c1
    w_par[:, m + j, j] = form.c2

    # the root's state is the constant x0: its children's coupling moves into b
    x0 = problem.x0
    n1 = tree.span(1).stop - 1  # the depth-1 nodes own the first n1 blocks
    b = np.zeros(n_cons)
    b[:n1 * block] = (par[:n1] @ x0).ravel()

    # A from the same blocks, all nodes in one pass.  Every coefficient of the
    # lift is nonzero (Lp > 0, R > 0, mu Lm > Lp; a w row's c1, c2 are Lp, Lm
    # or -+theta with theta > 0), so A's entries are the blocks' nonzeros.
    def entries(blocks: np.ndarray, row0: int, col0: np.ndarray) -> tuple:
        """Nonzeros of stacked blocks; block k starts at row0 + k * rows, col0[k]."""
        k, r, c = np.nonzero(blocks)
        return row0 + k * blocks.shape[1] + r, col0[k] + c, blocks[k, r, c]

    rows, cols, vals = (np.concatenate(part) for part in zip(
        entries(loc, 0, (idx - 1) * width),
        entries(par[n1:], n1 * block, (tree.parents[idx[n1:]] - 1) * width),
        entries(w_loc, n_node_rows, leaf_w[:, 0]),
        entries(w_par, n_node_rows, leaf_x[form.lifted, 0]),
    ))
    order = np.lexsort((cols, rows))

    levels = []
    for t in range(1, N + 1):
        lo, hi = tree.span(t).start - 1, tree.span(t).stop - 1
        levels.append(Level(
            rows=slice(lo * block, hi * block),
            cols=slice(lo * width, hi * width),
            loc=loc[lo:hi],
            par=None if t == 1 else par[lo:hi],
            up=None if t == 1 else tree.up(t),
        ))
    if n_lifted:
        levels.append(Level(
            rows=slice(n_node_rows, n_cons), cols=slice(n_node_vars, n_vars),
            loc=w_loc, par=w_par, up=form.lifted.view(),  # frozen below, not the form's
        ))

    row_owner = np.zeros(n_cons, dtype=int)
    row_owner[:n_node_rows] = np.repeat(idx, block)
    row_owner[n_node_rows:] = np.repeat(leaves[form.lifted], 2 * m)
    prog = AssembledProgram(
        tree=tree,
        form=form,
        x0=x0,
        m=m,
        n_vars=n_vars,
        n_cons=n_cons,
        A_rows=rows[order],
        A_cols=cols[order],
        A_vals=vals[order],
        b=b,
        levels=tuple(levels),
        leaf_x=leaf_x,
        leaf_w=leaf_w,
        row_owner=row_owner,
        leaf_prob=tree.prob[leaves],
    )
    # Read-only: neither a solve nor a caller can change the A and b that the
    # independent KKT check reads.
    arrays = [a for a in vars(prog).values() if isinstance(a, np.ndarray)]
    arrays += [a for lev in levels for a in (lev.loc, lev.par, lev.up) if a is not None]
    for a in (loc, par, w_loc, w_par, *arrays):
        a.flags.writeable = False
    return prog


# --- interior start --------------------------------------------------------------

def _interior_start(problem: PathProblem) -> np.ndarray:
    """Strictly feasible start along an all-ones interior path from x0.

    Follows the interior-witness recursion, the fixed-fraction path with
    all-ones weights and fill FILL: each child state is the all-ones
    direction scaled to FILL times the self-financing frontier of its parent
    state.  A fill below 1 keeps every margin and cash slack strictly
    positive.  At depth t the start holds about FILL^t of the wealth of a
    path that spends its whole frontier, so a fill near 1 keeps it of the
    order of a solution's: an infeasible-start method wants a start that is
    large against a solution (S. Wright, Primal-Dual Interior-Point Methods,
    SIAM 1997, ch. 6).
    The auxiliary scalars v, s and w get padding of PAD_SCALE times their
    node's state scale, capped at PAD_SLACK of the slack it eats into (for
    w, the leaf value), so every row stays strictly positive.  Every step is
    homogeneous in x0 and scaling by a power of two is exact, so the start
    at 2^k x0 is 2^k times the start at x0 bit for bit, short of overflow
    and underflow.
    Raises InfeasibleStart at a node with no strictly positive transition,
    at the first node whose frontier is not finite (a huge x0 overflows it),
    or when the start is not strictly interior anyway.
    """
    prog = problem.program
    tree, market = problem.tree, problem.market
    form = prog.form
    m = market.m

    with np.errstate(over="ignore", invalid="ignore"):  # a huge x0: refused below
        states = fixed_fraction_path(tree, market, problem.x0, np.ones(m), fill=FILL)
    lost = np.flatnonzero(~np.isfinite(states[1:]).all(axis=1))
    if lost.size:
        raise InfeasibleStart(
            f"the self-financing frontier at node {tree.ids[lost[0] + 1]!r} "
            "is not finite"
        )
    stuck = np.flatnonzero(states[1:, 0] <= 0.0)
    if stuck.size:
        raise InfeasibleStart(
            f"no strictly positive transition from node "
            f"{tree.ids[tree.parents[stuck[0] + 1]]!r}"
        )

    # Per non-root node: its state x, its parent's state a, and the slacks
    # of its margin and cash rows at that state.
    x, a = states[1:], states[tree.parents[1:]]
    idx = np.arange(1, tree.n_nodes)
    mu = market.margins[tree.depth[idx], None]
    Lp, Lm, R = market.Lp[idx], market.Lm[idx], market.returns[idx]
    x_scale = np.abs(x).sum(axis=1) / m
    margin_min = margin_residual(market, x, idx)
    den_v = (mu * Lm - Lp).sum(axis=1)
    mins = np.minimum(Lp * (R * a - x), Lm * (R * a - x))
    psi_min = mins.sum(axis=1)

    z = np.zeros(prog.n_vars)
    # den_v >= mu - 1 > 0
    pad_v = np.minimum(PAD_SCALE * x_scale, PAD_SLACK * margin_min / den_v)
    pad_s = np.minimum(PAD_SCALE * x_scale, PAD_SLACK * psi_min / m)
    prog.node_columns(z)[:] = (
        x, np.maximum(-x, 0.0) + pad_v[:, None], mins - pad_s[:, None]
    )

    X = z[prog.leaf_x[form.lifted]]
    scale = np.abs(X).sum(axis=1) / m
    pad_w = np.minimum(PAD_SCALE * scale, PAD_SLACK * form.values(X, form.lifted) / m)
    z[prog.leaf_w] = np.minimum(form.c1 * X, form.c2 * X) - pad_w[:, None]

    if not (prog.g(z).min() > 0.0 and np.all(prog.sigmas(z) > 0.0)):
        raise InfeasibleStart("the interior start is not strictly interior")
    return z


# --- the primal-dual barrier loop -------------------------------------------------

class _NewtonSystem:
    """The Newton matrix of one iterate as stacked level blocks, and its solves.

    The system is (W + A^T D A) dz = r_d - A^T (r_c / g), with D = lam / g.
    Near the end of the path the active rows' D grows like 1 / mu and swamps
    everything else in their block, which then turns singular in floating
    point.  Such a row keeps its multiplier step as an unknown y, in the
    augmented quasidefinite form (Vanderbei, SIAM J. Optim. 5(1), 1995),
    scaled by h = gscale^2 (``hscale``) so that every entry scales like the
    Hessian:

        [ H     h a^T    ] [ dz ]   [ r_d - sum_cond a r_c / g ]
        [ h a  -h^2 / D  ] [ y  ] = [ -h r_c / lam             ]

    with H = W + the other rows' a^T D a, and dlam = -h y.  Where H is
    positive definite the matrix is quasidefinite, so it factors stably in
    any symmetric order, and no regularization is added.

    A row is augmented when D > AUGMENT h / max P(leaf).  On the central path
    D = mu P(node) / g^2 scales like the probability of the row's node.  The
    objective's Hessian on a leaf is P(leaf) G G^T / sigma^2 and its gradient
    P(leaf) G / sigma, so h scales like P(leaf)^2 and h / max P(leaf) is the
    Hessian's own scale, at any depth.  Against h alone, a tree whose leaves
    carry 1e-3 of the mass has nearly every row augmented from the first
    iteration on, and its blocks are 3m + 4m + 2 wide where 3m would do.
    With AUGMENT = 1e4 the condensed rows raise a block's condition number
    by about 1e4 at most, 4 of its 16 digits.  The margin matters: from 1e6
    on, the largest trees take more Newton iterations, and at 1e8 blocks
    holding such rows turn singular in floating point and a 3,280-node tree
    takes 72 or more iterations against 52.  Scaling x0 by 2^k scales D, h
    and W by 4^-k exactly, so the flags, and the solve, repeat bit for bit.

    The rows of a node read only its own columns and its parent's x, so K is
    block-tree structured.  A level's blocks are stacked: each holds the
    node's columns, then one slot per augmented row (padded to the level's
    most augmented node with decoupled -h slots; a level with none has no
    slots).  Leaves to root, one batched LU solve per level gives
    K^-1 [B | r], and ``np.add.at`` folds the Schur complements
    C - B^T K^-1 B into the parents' x-x blocks; substitution runs root to
    leaves.  A singular block raises FloatingPointError, which ends the
    solve unconverged.
    """

    def __init__(
        self,
        prog: AssembledProgram,
        z: np.ndarray,
        lam: np.ndarray,
        g: np.ndarray,
        hscale: float,
        state: LeafState | None = None,
    ) -> None:
        self.prog, self.lam, self.g = prog, lam, g
        self.hscale = hscale
        m = prog.m
        levels = prog.levels
        D = lam / g
        self.big = big = D > AUGMENT * hscale / prog.leaf_prob.max()
        self.Dc = Dc = np.where(big, 0.0, D)
        self.slot_diag = -hscale * np.where(big, hscale / D, 1.0)
        self.bs = bs = hscale * big
        self.hess = xx, xw, ww = prog.neg_hess_f(z, state)
        self.lifted = lifted = len(prog.leaf_w) > 0
        leaf_level = len(levels) - 1 - lifted

        # Per level: the blocks K, their coupling B to the parent's x, the C
        # they add to the parent's x-x block, and the global row of each slot
        # (a level's blocks carry as many slots as its most augmented node).
        Ks, Bs, Cs, slots = [], [], [], []
        for t, lev in enumerate(levels):
            n, nr, nc = lev.loc.shape
            Dl = Dc[lev.rows].reshape(n, nr, 1)
            LtD = (lev.loc * Dl).transpose(0, 2, 1)
            K = LtD @ lev.loc
            B = C = None
            if lev.par is not None:
                B = LtD @ lev.par
                C = (lev.par * Dl).transpose(0, 2, 1) @ lev.par
            bl = big[lev.rows].reshape(n, nr)
            ns = int(bl.sum(axis=1).max())
            slot = np.empty((n, 0), dtype=int)
            if ns:
                node = np.arange(n)[:, None]
                order = np.argsort(~bl, axis=1, kind="stable")[:, :ns]
                slot = lev.rows.start + nr * node + order
                bsl = bs[slot][:, :, None]
                E = lev.loc[node, order] * bsl
                Kc, K = K, np.zeros((n, nc + ns, nc + ns))
                K[:, :nc, :nc] = Kc
                K[:, nc:, :nc] = E
                K[:, :nc, nc:] = E.transpose(0, 2, 1)
                j = nc + np.arange(ns)
                K[:, j, j] = self.slot_diag[slot]
                if B is not None:
                    B = np.concatenate([B, lev.par[node, order] * bsl], axis=1)
            if t == leaf_level:
                K[:, :m, :m] += xx
            if lifted and t == len(levels) - 1:
                K[:, :m, :m] += ww
                B[:, :m] += xw.transpose(0, 2, 1)
            Ks.append(K)
            Bs.append(B)
            Cs.append(C)
            slots.append(slot)
        self.Ks, self.Bs, self.Cs, self.slots = Ks, Bs, Cs, slots
        self.Ys = [None] * len(levels)  # K^-1 B per level, from the first pass

    def rhs(self, r_d: np.ndarray, r_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Right-hand side [rp; rq] of the system for the residuals (r_d, r_c)."""
        big = self.big
        rp = r_d - self.prog.A_T_dot(np.where(big, 0.0, r_c / self.g))
        rq = np.where(big, -self.hscale * r_c / self.lam, 0.0)
        return rp, rq

    @np.errstate(invalid="ignore", over="ignore")  # checked at the end
    def solve(self, rp: np.ndarray, rq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve K [dz; y] = [rp; rq] for k columns: leaves to root, then back.

        ``rp`` is (n_vars, k) and ``rq`` (n_cons, k).  The first call factors
        each level's (already reduced) blocks against [B | r] and folds
        C - B^T K^-1 B into the parents; later calls reuse K^-1 B.  A
        direction that is not finite raises FloatingPointError, and numpy
        warns of nothing on the way.
        """
        prog, levels, m = self.prog, self.prog.levels, self.prog.m
        k = rp.shape[1]
        rs = [np.concatenate([rp[lev.cols].reshape(len(slot), -1, k), rq[slot]], axis=1)
              for lev, slot in zip(levels, self.slots)]
        X = [None] * len(levels)
        try:
            for t in reversed(range(len(levels))):
                K, B, r = self.Ks[t], self.Bs[t], rs[t]
                first = B is not None and self.Ys[t] is None
                sol = np.linalg.solve(K, np.concatenate([B, r], axis=2) if first else r)
                X[t] = sol[:, :, -k:]
                if B is None:
                    continue
                BtS, up = B.transpose(0, 2, 1) @ sol, levels[t].up
                if first:
                    self.Ys[t] = sol[:, :, :m]
                    np.add.at(self.Ks[t - 1][:, :m, :m], up, self.Cs[t] - BtS[:, :, :m])
                np.add.at(rs[t - 1][:, :m], up, -BtS[:, :, -k:])
        except np.linalg.LinAlgError as exc:
            raise FloatingPointError(
                f"singular Newton block at level {t}: {exc}"
            ) from None
        dz = np.empty((prog.n_vars, k))
        y = np.zeros((prog.n_cons, k))
        for t, (lev, slot) in enumerate(zip(levels, self.slots)):
            if t:
                X[t] -= self.Ys[t] @ X[t - 1][lev.up, :m]
            nc = lev.loc.shape[2]
            dz[lev.cols] = X[t][:, :nc].reshape(-1, k)
            y[slot] = X[t][:, nc:]
        if not (np.all(np.isfinite(dz)) and np.all(np.isfinite(y))):
            raise FloatingPointError("newton direction is not finite")
        return dz, y

    def refine(
        self, dz: np.ndarray, y: np.ndarray, Adz: np.ndarray,
        rp: np.ndarray, rq: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One pass against the full system: add the solve of its residual."""
        prog = self.prog
        xx, xw, ww = self.hess
        Wdz = np.zeros(prog.n_vars)
        xl = dz[prog.leaf_x][:, :, None]
        Wdz[prog.leaf_x] = (xx @ xl)[:, :, 0]
        if self.lifted:
            form = prog.form
            wl = dz[prog.leaf_w][:, :, None]
            Wdz[prog.leaf_x[form.lifted]] += (xw @ wl)[:, :, 0]
            xt = xw.transpose(0, 2, 1)
            Wdz[prog.leaf_w] = (ww @ wl + xt @ xl[form.lifted])[:, :, 0]
        Kp = Wdz + prog.A_T_dot(self.Dc * Adz + self.bs * y)
        Kq = self.bs * Adz + self.slot_diag * y
        ddz, dy = self.solve((rp - Kp)[:, None], (rq - Kq)[:, None])
        return dz + ddz[:, 0], y + dy[:, 0]

    def dlam(self, r_c: np.ndarray, y: np.ndarray, Adz: np.ndarray) -> np.ndarray:
        """Multiplier step: -h y on augmented rows, condensed elsewhere."""
        return np.where(self.big, -self.hscale * y, -(r_c + self.lam * Adz) / self.g)


def _max_step(
    g: np.ndarray, Adz: np.ndarray, lam: np.ndarray, dlam: np.ndarray, tau: float
) -> float:
    """Largest alpha <= 1 within the fraction tau of the way to the boundary."""
    alpha = 1.0
    for v, dv in ((g, Adz), (lam, dlam)):
        neg = dv < 0
        if np.any(neg):
            alpha = min(alpha, tau * float((-v[neg] / dv[neg]).min()))
    return alpha


def _newton_direction(
    prog: AssembledProgram,
    z: np.ndarray,
    lam: np.ndarray,
    g: np.ndarray,
    r_d: np.ndarray,
    w: np.ndarray,
    mu: float,
    hscale: float,
    predict: bool,
    state: LeafState | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, np.ndarray]:
    """Newton direction (dz, dlam, A dz), its mu and its r_c.

    A centered step aims at the given mu: the pass that factors the blocks
    of :class:`_NewtonSystem` solves one column, r_c = lam g - mu w.  A
    Mehrotra step (``predict``) solves the affine (r_c = lam g) and the
    centering (r_c = -w, r_d = 0) column there, and takes mu = max(sigma
    mu_avg, the given mu) for mu_avg = lam^T g / sum(w), sigma =
    (mu_aff / mu_avg)^3, mu_aff that average after the largest feasible
    affine step.  One refinement pass against the full system follows; a
    Mehrotra step refines d_aff + mu d_cen against the corrector's
    r_c = lam g - mu w + dlam_aff dg_aff, so the corrector costs no third
    solve.
    """
    system = _NewtonSystem(prog, z, lam, g, hscale, state)
    lg = lam * g
    if predict:
        aff, cen = system.rhs(r_d, lg), system.rhs(np.zeros(prog.n_vars), -w)
        dz, y = system.solve(*(np.column_stack(pair) for pair in zip(aff, cen)))
        Adz = prog.A_dot(dz)
        dlam_aff = system.dlam(lg, y[:, 0], Adz[:, 0])
        alpha = _max_step(g, Adz[:, 0], lam, dlam_aff, 1.0)
        w_sum = float(w.sum())
        mu_avg = float(lam @ g) / w_sum
        mu_aff = float((lam + alpha * dlam_aff) @ (g + alpha * Adz[:, 0])) / w_sum
        mu = max((mu_aff / mu_avg) ** SIGMA_POWER * mu_avg, mu)
        r_c = lg - mu * w + dlam_aff * Adz[:, 0]
        rp, rq = system.rhs(r_d, r_c)
        dz, y = dz[:, 0] + mu * dz[:, 1], y[:, 0] + mu * y[:, 1]
    else:
        r_c = lg - mu * w
        rp, rq = system.rhs(r_d, r_c)
        dz, y = (v[:, 0] for v in system.solve(rp[:, None], rq[:, None]))
    dz, y = system.refine(dz, y, prog.A_dot(dz), rp, rq)
    Adz = prog.A_dot(dz)
    return dz, system.dlam(r_c, y, Adz), Adz, mu, r_c


def _mu_floor(handover: float, rel: float, rel0: float) -> float:
    """Lowest mu a predictor-corrector step may pick at relative dual residual rel.

    BETA mu0 rel / rel0 with mu0 = 1, the infeasible-IPM neighbourhood of
    :func:`solve_log_optimal` read for mu; never below the handover, and
    only the handover when the start is already stationary (rel0 = 0).
    """
    return max(handover, BETA * rel / rel0) if rel0 > 0.0 else handover


def solve_log_optimal(
    problem: PathProblem, options: SolveOptions | None = None
) -> Solution:
    """Interior-point solve; returns the best iterate flagged when not converged.

    From the interior start at mu = 1, every iteration is a Mehrotra
    predictor-corrector step that picks its own mu, down to HANDOVER times
    the final mu, min(1e-2 * tol, 1): a tol above 100 never raises mu above
    the start's.  From there two centered stages finish the path, one at
    the handover mu and one at exactly the final mu: each stage is centered
    by Newton steps at its mu before mu moves, and the final one to c =
    0.01, so the returned iterate sits on the central path (the
    certificate's prices, and the split along flat faces of the optimal
    set, are read off that center).  Both kinds of step
    come from one call to :func:`_newton_direction` and share the
    fraction-to-boundary safeguard and the Armijo (1e-4, 0.5) backtracking
    line search on the weighted KKT residual norm.  A singular Newton block,
    or a line search that finds no step, ends the solve unconverged, and the
    warning says which.  ``tol`` sets the convergence test, and the final mu
    up to its cap at 1, nothing else.  Only a centered final stage within
    tol counts as converged; ``outer_iterations`` and ``objective_trace``
    count the centered stages.

    A predictor-corrector step's mu is floored by the dual residual as well
    as by the handover.  Infeasible interior-point methods keep the residual
    r and mu in the neighbourhood ||r|| / ||r0|| <= beta mu / mu0 (Kojima,
    Megiddo and Mizuno, Math. Prog. 61, 1993; Wright, ch. 6).  With r
    measured as rel = ||r_d||_inf / gscale, rel0 its value at the interior
    start and mu0 = 1, that reads mu >= BETA rel / rel0 for BETA = 1 / beta
    (:func:`_mu_floor`): mu falls no faster than the relative dual residual.
    Without the floor, mu runs ahead of rel (on 2^9 at m = 2 the first step
    takes mu to 5.1e-4 while rel has not moved), and a deep tree then spends
    extra steps near its leaves recovering stationarity at a small mu: that
    tree takes 21 steps without the floor and 19 with it.  Both ratios are
    invariant when x0 is scaled, so the iteration stays covariant.
    """
    options = options or SolveOptions()
    t_start = time.perf_counter()
    prog = problem.program
    mu_target = min(1e-2 * options.tol, 1.0)
    handover = HANDOVER * mu_target
    w = problem.tree.prob[prog.row_owner]  # central-path weight of each row
    leaves = problem.tree.span(problem.tree.horizon)

    z = _interior_start(problem)
    g = prog.g(z)
    mu = 1.0
    lam = mu * w / g
    # the iterate's leaf state, gradient and dual residual carry over from
    # the line search that accepted it
    state = prog._leaf_state(z)
    gf = prog.grad_f(z, state)
    r_d = gf + prog.A_T_dot(lam)
    rel0 = float(np.abs(r_d).max()) / float(np.abs(gf).max())
    abs_A = np.abs(prog.A_vals)

    iters = 0
    outer = 0
    trace: list[float] = []
    stop = ""  # why the loop must end before its final stage centers

    # All thresholds are relative to the objective-gradient scale so the whole
    # iteration is covariant under rescaling the problem (cone homogeneity).
    def merit(r_d: np.ndarray, r_c: np.ndarray, gscale: float) -> float:
        rd = r_d / gscale
        rc = r_c / w
        return float(rd @ rd + rc @ rc)

    while True:
        gscale = float(np.abs(gf).max())
        rd_max = float(np.abs(r_d).max())
        predictor = mu > handover
        if not predictor:
            r_c = lam * g - mu * w
            final_stage = mu == mu_target
            c_center = 0.01 if final_stage else 0.1
            centered = (
                float(np.abs(r_c / w).max()) <= 2.0 * c_center * mu
                and (
                    rd_max <= c_center * mu * gscale
                    # cancellation noise floor of the stationarity residual
                    or rd_max <= 64.0 * np.finfo(float).eps * (gscale + float(
                        _entry_product(prog.A_cols, prog.A_rows, abs_A,
                                       lam, prog.n_vars).max()  # |A|^T lam
                    ))
                )
            )
            if centered:
                outer += 1
                trace.append(log_objective(problem.tree, problem.objective,
                                           prog.path_values(z)[leaves]))
                if final_stage:
                    break
                mu = mu_target
                continue
        if stop or iters >= options.max_iter:
            stop = stop or f"max_iter={options.max_iter} reached"
            break

        # A predictor-corrector step picks its mu, no lower than _mu_floor.
        iters += 1
        try:
            dz, dlam, Adz, mu_step, _ = _newton_direction(
                prog, z, lam, g, r_d, w,
                _mu_floor(handover, rd_max / gscale, rel0) if predictor else mu,
                gscale * gscale, predictor, state,
            )
        except FloatingPointError as exc:
            stop = str(exc)
            break

        step = None
        phi0 = merit(r_d, lam * g - mu_step * w, gscale)
        alpha = _max_step(g, Adz, lam, dlam, max(0.995, 1.0 - 1e4 * mu_step))
        for _ in range(40):
            z_try = z + alpha * dz
            lam_try = lam + alpha * dlam
            if np.all(np.isfinite(z_try)):
                state2 = prog._leaf_state(z_try)
                g2 = prog.g(z_try)
                if np.all(state2[3] > 0.0) and g2.min() > 0.0:
                    gf2 = prog.grad_f(z_try, state2)
                    r_d2 = gf2 + prog.A_T_dot(lam_try)
                    r_c2 = lam_try * g2 - mu_step * w
                    if merit(r_d2, r_c2, gscale) <= (1.0 - 1e-4 * alpha) * phi0:
                        step = (z_try, lam_try, g2, state2, gf2, r_d2, mu_step)
                        break
            alpha *= 0.5
        if step is None:
            log.debug("line search stalled at mu=%.3e iter=%d", mu, iters)
            stop = "line search stalled"
        else:
            z, lam, g, state, gf, r_d, mu = step

    residuals = KktResiduals.of(g, r_d, lam)
    path = prog.path_values(z)
    converged = not stop and residuals.within(options.tol)
    if not converged:
        log.warning(
            "solve did not converge (%s): iters=%d mu=%.3e residuals=%s",
            stop or "residuals above tol", iters, mu, residuals,
        )
    return Solution(
        path=NodeArray(problem.tree, path),
        objective_value=log_objective(problem.tree, problem.objective, path[leaves]),
        z=z,
        multipliers=lam,
        residuals=residuals,
        iterations=iters,
        outer_iterations=outer,
        wall_time=time.perf_counter() - t_start,
        converged=converged,
        objective_trace=trace,
        mu_final=mu,
        options=options,
    )


@dataclass(frozen=True)
class KktReport:
    """Independent recomputation of the optimality residuals."""

    residuals: KktResiduals
    path_consistent: bool

    def within(self, tol: float) -> bool:
        return self.residuals.within(tol) and self.path_consistent


def _stored_iterate(
    solution: Solution, prog: AssembledProgram
) -> tuple[np.ndarray, np.ndarray]:
    """The solution's z and multipliers, which must fit the program's shapes."""
    z = np.asarray(solution.z, dtype=float)
    lam = np.asarray(solution.multipliers, dtype=float)
    if z.shape != (prog.n_vars,) or lam.shape != (prog.n_cons,):
        raise DimensionMismatch("stored iterate does not match the problem")
    return z, lam


def kkt_report(solution: Solution, problem: PathProblem) -> KktReport:
    """Recompute all residuals from the stored iterate, solver state unused.

    g, the dual residual and the path are computed afresh from the stored z
    and multipliers against the problem's read-only program
    (:attr:`PathProblem.program`), which no solve can change.
    """
    prog = problem.program
    z, lam = _stored_iterate(solution, prog)
    g = prog.g(z)
    r_d = prog.grad_f(z) + prog.A_T_dot(lam)
    x = prog.path_values(z)
    path_ok = bool(np.allclose(
        x, node_array(solution.path, x.shape, "path"), rtol=0.0, atol=1e-12
    ))
    return KktReport(
        residuals=KktResiduals.of(g, r_d, lam),
        path_consistent=path_ok,
    )


def extract_dual(
    solution: Solution, problem: PathProblem, strict: bool = True
) -> DualPath:
    """Dual path from the converged solution's multipliers.

    Raises DimensionMismatch when z or the multipliers do not fit the
    problem.  Refuses non-certified input unless ``strict=False``, which
    extracts anyway so a later verification can refute tampered data with a
    concrete witness; the refusal rests on :func:`kkt_report`, which
    recomputes the residuals from the stored z and multipliers.  Both read
    the problem's one read-only program (:attr:`PathProblem.program`), so a
    solve, its report and its extraction assemble it once.
    For each non-root node the price is the cost-weighted multiplier of its
    self-financing rows, pushed through the returns and divided by the node
    probability; the terminal layer is the objective's multiplier-selected
    supergradient over its value, whose degree-one Euler identity pins
    p_{N+1} . x_N = 1 exactly.
    """
    prog = problem.program
    _, lam = _stored_iterate(solution, prog)
    if strict:
        report = kkt_report(solution, problem)
        if not solution.converged or not report.within(solution.options.tol):
            raise NotCertified(
                "solution is not converged to tolerance; no dual path extracted"
            )
    tree, market = problem.tree, problem.market
    X = node_array(solution.path, (tree.n_nodes, market.m), "path")
    mult = prog.node_rows(lam)  # node i's multipliers at i - 1, by kind

    def edge_price_density(idx: np.ndarray) -> np.ndarray:
        # Combined multiplier of the two min-form rows, weighted by the
        # selling/buying cost coefficients: the x_parent-direction gradient
        # of the edge block divided by the returns.
        return (mult["plus"][idx - 1] * market.Lp[idx]
                + mult["minus"][idx - 1] * market.Lm[idx])

    idx = np.arange(1, tree.n_nodes)
    p = market.returns[idx] * edge_price_density(idx) / tree.prob[idx, None]

    # Terminal layer: the objective's supergradient over its value.  At a
    # kink (a terminal coordinate parked exactly at zero) the stationarity
    # identity of the leaf block selects the supergradient consistent with
    # the multipliers, so read it off the same block identities as the
    # interior layers and pin the Euler normalization exactly per leaf.
    idx = tree.indices(tree.horizon)
    beta, gamma = mult["u"][idx - 1], mult["margin"][idx - 1]
    g = (edge_price_density(idx) - beta - gamma * market.Lp[idx]) / tree.prob[idx, None]
    # A leaf state of 0 makes its row non-finite, which verification refutes.
    with np.errstate(divide="ignore", invalid="ignore"):
        term = g / np.vecdot(g, X[idx])[:, None]
    return DualPath(tree, p, term)
