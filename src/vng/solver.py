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
such ray.)  Piecewise-linear terminal objectives are lifted the same way, so
maximizing drives each auxiliary scalar to the true value.  The objective
reaches the program through its array form (:class:`~vng.objectives.LeafForm`):
its value and derivatives are whole-array expressions over all leaves.

Newton acts on the perturbed KKT system with explicit multipliers, centered
on lambda_i g_i = mu P_i, P_i the probability of the node owning row i: a
probability-weighted central path (Jansen, Roos, Terlaky and Vial, Ann. Oper.
Res. 62, 1996).  The certificate layer divides each node's multipliers by
P(node), so every node's price then carries an error of order mu, and a final
mu of 1e-2 * tol serves every tree.  Centering and merit measure r_c / P.

A solve owns its workspace; problems are immutable and may be solved
concurrently.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import DimensionMismatch, InfeasibleStart
from .market_model import MarketData, margin_residual, transition_frontier_batch
from .objectives import TerminalObjective, log_objective
from .scenario_tree import AdaptedVector, ScenarioTree

log = logging.getLogger(__name__)

# Newton steps shorter than this are retried with more proximal damping
# (measured: 1e-10 to 1e-6 all serve; without the retry some m = 4 trees jam).
MIN_STEP = 1e-8


@dataclass(frozen=True)
class PathProblem:
    """A solvable instance: tree, market, terminal objective, pinned start.

    The initial portfolio must be strictly interior to the date-0 cone; its
    interiority radius is reported by :meth:`epsilon0`.
    """

    tree: ScenarioTree
    market: MarketData
    objective: TerminalObjective
    x0: np.ndarray

    def __post_init__(self) -> None:
        if self.market.tree is not self.tree:
            raise DimensionMismatch("market does not belong to the tree")
        if self.tree.state_dim != self.market.m:
            raise DimensionMismatch(
                f"tree state dimension {self.tree.state_dim} does not match "
                f"the market's {self.market.m} assets"
            )
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (self.market.m,):
            raise DimensionMismatch(
                f"x0 must have length {self.market.m}, got shape {x0.shape}"
            )
        object.__setattr__(self, "x0", x0)
        self.market.constants()  # raises MarginTooTight when (B2) fails
        if self.epsilon0() <= 0.0:
            raise InfeasibleStart(
                "x0 is not strictly interior to the date-0 margin cone"
            )

    def epsilon0(self) -> float:
        """1-norm interiority radius of x0 at the root cone."""
        i = self.tree.root.index
        resid = float(margin_residual(self.market, self.x0[None], [i])[0])
        lip = float(
            max(self.market.Lp[i].max(),
                self.market.margins[0] * self.market.Lm[i].max())
        )
        return resid / lip


@dataclass(frozen=True)
class SolveOptions:
    """Solver settings.

    ``seed`` is reserved: it is part of a solution file's digest, but the
    solver is deterministic and never reads it.
    """

    tol: float = 1e-8
    max_iter: int = 2000
    seed: int = 0
    mu_target: float | None = None  # final weighted-path mu; default 1e-2 * tol


@dataclass(frozen=True)
class KktResiduals:
    primal: float
    stationarity: float
    complementarity: float
    duality_gap: float

    def within(self, tol: float) -> bool:
        return (
            self.primal <= tol
            and self.stationarity <= tol
            and self.complementarity <= tol
        )


@dataclass(frozen=True)
class Solution:
    """Converged (or best-effort) path with multipliers and residuals."""

    path: list[AdaptedVector]
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

@dataclass
class AssembledProgram:
    """Lifted deterministic equivalent with index maps for the dual layer.

    Per non-root node the variables are the state x, the margin split v
    (u = x + v), and the min-form cash scalars s; the rows are v >= 0,
    u >= 0, margin >= 0, Lp(R x_par - x) - s >= 0, Lm(R x_par - x) - s >= 0,
    and sum(s) >= 0.  Lifted objective leaves append auxiliary scalars w with
    two coordinatewise rows each (see :class:`~vng.objectives.LeafForm`).
    """

    problem: PathProblem
    n_vars: int
    n_cons: int
    A: sp.csr_matrix          # constraints g(z) = A z + b >= 0
    b: np.ndarray
    # Per node index (the root's entries are unused): column offsets of the
    # x, v and s blocks, and the first row of the node's constraint block.
    x_off: np.ndarray
    v_off: np.ndarray
    s_off: np.ndarray
    row_base: np.ndarray
    leaf_x: np.ndarray        # (n_leaves, m) x columns of each leaf
    leaf_w: np.ndarray        # (n_lifted, m) w columns of each lifted leaf
    row_owner: np.ndarray     # node index owning each constraint row
    col_owner: np.ndarray     # node index owning each variable column
    leaf_prob: np.ndarray

    @property
    def m(self) -> int:
        return self.problem.market.m

    @property
    def n_state_vectors(self) -> int:
        return self.problem.tree.n_nodes

    @property
    def n_edge_blocks(self) -> int:
        return self.problem.tree.n_nodes - 1

    # row layout within a node block: v, u, margin, min-plus, min-minus, psi
    def rows_min_plus(self, idx: np.ndarray) -> np.ndarray:
        """``(n, m)`` rows Lp (R x_par - x) - s >= 0 of the given nodes."""
        return self.row_base[idx, None] + 2 * self.m + 1 + np.arange(self.m)

    def rows_min_minus(self, idx: np.ndarray) -> np.ndarray:
        """``(n, m)`` rows Lm (R x_par - x) - s >= 0 of the given nodes."""
        return self.rows_min_plus(idx) + self.m

    def g(self, z: np.ndarray) -> np.ndarray:
        return self.A @ z + self.b

    def path_values(self, z: np.ndarray) -> list[AdaptedVector]:
        tree = self.problem.tree
        out = [AdaptedVector(0, self.problem.x0[None, :].copy())]
        for t in range(1, tree.horizon + 1):
            cols = self.x_off[tree.span(t), None] + np.arange(self.m)
            out.append(AdaptedVector(t, z[cols]))
        return out

    # -- objective: f(z) = sum_l P_l ln sigma_l ---------------------------------
    # Leaf inner products use np.vecdot on the stacked (n_leaves, m) arrays: it
    # rounds like one dot product per leaf, which einsum, (C * X).sum(1) and a
    # sparse product do not, and the central path's end is sensitive to that.

    def _leaf_state(
        self, z: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Leaf states X, their Euclidean norms, d sigma / d x and sigma per leaf."""
        form = self.problem.objective.form
        X = z[self.leaf_x]
        nrm = np.sqrt(np.vecdot(X, X))
        sigma = np.vecdot(form.cx, X) - form.l2 * nrm
        sigma[form.lifted] += np.vecdot(form.cw, z[self.leaf_w])
        G = form.cx - form.l2[:, None] * X / nrm[:, None]
        return X, nrm, G, sigma

    def sigmas(self, z: np.ndarray) -> np.ndarray:
        return self._leaf_state(z)[3]

    def f(self, z: np.ndarray) -> float:
        s = self.sigmas(z)
        if np.any(s <= 0.0):
            return float("-inf")
        return float(self.leaf_prob @ np.log(s))

    def grad_f(self, z: np.ndarray) -> np.ndarray:
        form = self.problem.objective.form
        _, _, G, sigma = self._leaf_state(z)
        P = self.leaf_prob[:, None]
        s = sigma[:, None]
        grad = np.zeros(self.n_vars)
        grad[self.leaf_x] = P * G / s
        grad[self.leaf_w] = P[form.lifted] * form.cw / s[form.lifted]
        return grad

    def neg_hess_f(self, z: np.ndarray) -> sp.csr_matrix:
        """W = -hess f(z), positive semidefinite, supported on leaf blocks.

        Each leaf contributes P (g g^T) / sigma^2 over its columns, g the
        gradient of sigma, plus P * curv / sigma on its x block, curv the
        curvature of the Euclidean penalty.
        """
        form = self.problem.objective.form
        X, nrm, G, sigma = self._leaf_state(z)
        P = self.leaf_prob[:, None, None]
        s = sigma[:, None, None]
        s2 = np.float_power(s, 2)  # pow(), as a scalar s ** 2; array s ** 2 is s * s
        xhat = X / nrm[:, None]
        curv = (form.l2 / nrm)[:, None, None] * (
            np.eye(self.m) - xhat[:, :, None] * xhat[:, None, :]
        )
        lw = form.lifted
        xw = P[lw] * (G[lw][:, :, None] * form.cw[:, None, :]) / s2[lw]
        blocks = [
            (self.leaf_x, self.leaf_x,
             P * (G[:, :, None] * G[:, None, :]) / s2 + P * (curv / s)),
            (self.leaf_x[lw], self.leaf_w, xw),
            (self.leaf_w, self.leaf_x[lw], xw.transpose(0, 2, 1)),
            (self.leaf_w, self.leaf_w,
             P[lw] * (form.cw[:, :, None] * form.cw[:, None, :]) / s2[lw]),
        ]
        rows = [np.broadcast_to(r[:, :, None], v.shape).ravel() for r, _, v in blocks]
        cols = [np.broadcast_to(c[:, None, :], v.shape).ravel() for _, c, v in blocks]
        return sp.csr_matrix(
            (
                np.concatenate([v.ravel() for _, _, v in blocks]),
                (np.concatenate(rows), np.concatenate(cols)),
            ),
            shape=(self.n_vars, self.n_vars),
        )


def assemble(problem: PathProblem) -> AssembledProgram:
    """Build the lifted deterministic-equivalent program."""
    tree = problem.tree
    market = problem.market
    form = problem.objective.form
    m = market.m
    root = tree.root.index
    non_root = range(1, tree.n_nodes)  # the root is index 0
    leaves = tree.span(tree.horizon)
    n_lifted = len(form.lifted)

    # node i >= 1 owns columns x, v, s at (i - 1) * 3m and block rows at (i - 1) * block
    x_off = (np.arange(tree.n_nodes) - 1) * 3 * m
    v_off = x_off + m
    s_off = x_off + 2 * m
    n_vars = len(non_root) * 3 * m
    leaf_x = x_off[leaves, None] + np.arange(m)
    leaf_w = n_vars + np.arange(n_lifted * m).reshape(n_lifted, m)
    n_vars += n_lifted * m

    block = 4 * m + 2
    row_base = (np.arange(tree.n_nodes) - 1) * block
    n_cons = len(non_root) * block
    # per lifted leaf: m rows c1 * x + d * w >= 0, then m rows c2 * x + d * w >= 0
    leaf_rows = n_cons + np.arange(n_lifted * 2 * m).reshape(n_lifted, 2, m)
    n_cons += n_lifted * 2 * m

    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    b = np.zeros(n_cons)
    row_owner = np.zeros(n_cons, dtype=int)
    col_owner = np.zeros(n_vars, dtype=int)

    def put(r: int, c: int, val: float) -> None:
        rows.append(r)
        cols.append(c)
        data.append(val)

    for i in non_root:
        node = tree.nodes[i]
        parent = tree.nodes[node.parent]
        mu = market.margins[node.depth]
        Lp, Lm, R = market.Lp[i], market.Lm[i], market.returns[i]
        base = row_base[i]
        row_owner[base:base + block] = i
        col_owner[x_off[i]:x_off[i] + 3 * m] = i

        for j in range(m):
            put(base + j, v_off[i] + j, 1.0)                   # v >= 0
            put(base + m + j, x_off[i] + j, 1.0)               # u = x + v >= 0
            put(base + m + j, v_off[i] + j, 1.0)
        r_margin = base + 2 * m
        for j in range(m):
            put(r_margin, x_off[i] + j, Lp[j])
            put(r_margin, v_off[i] + j, Lp[j] - mu * Lm[j])

        # Lp (R x_par - x) - s >= 0, Lm (R x_par - x) - s >= 0, sum s >= 0
        r_plus = base + 2 * m + 1
        r_minus = base + 3 * m + 1
        r_psi = base + 4 * m + 1
        for j in range(m):
            put(r_plus + j, x_off[i] + j, -Lp[j])
            put(r_plus + j, s_off[i] + j, -1.0)
            put(r_minus + j, x_off[i] + j, -Lm[j])
            put(r_minus + j, s_off[i] + j, -1.0)
            put(r_psi, s_off[i] + j, 1.0)
        if parent.index == root:
            b[r_plus:r_plus + m] += Lp * R * problem.x0
            b[r_minus:r_minus + m] += Lm * R * problem.x0
        else:
            for j in range(m):
                put(r_plus + j, x_off[parent.index] + j, Lp[j] * R[j])
                put(r_minus + j, x_off[parent.index] + j, Lm[j] * R[j])

    lifted_index = np.arange(tree.n_nodes)[leaves][form.lifted]
    row_owner[leaf_rows] = lifted_index[:, None, None]
    col_owner[leaf_w] = lifted_index[:, None]
    x_lifted = leaf_x[form.lifted]
    d = np.full((n_lifted, m), form.d)
    r1, r2 = leaf_rows[:, 0], leaf_rows[:, 1]
    for r, c, v in ((r1, x_lifted, form.c1), (r1, leaf_w, d),
                    (r2, x_lifted, form.c2), (r2, leaf_w, d)):
        rows.extend(r.ravel())
        cols.extend(c.ravel())
        data.extend(v.ravel())

    A = sp.csr_matrix(
        (np.array(data), (np.array(rows), np.array(cols))), shape=(n_cons, n_vars)
    )
    return AssembledProgram(
        problem=problem,
        n_vars=n_vars,
        n_cons=n_cons,
        A=A,
        b=b,
        x_off=x_off,
        v_off=v_off,
        s_off=s_off,
        row_base=row_base,
        leaf_x=leaf_x,
        leaf_w=leaf_w,
        row_owner=row_owner,
        col_owner=col_owner,
        leaf_prob=tree.prob[leaves],
    )


# --- interior start --------------------------------------------------------------

def _interior_start(prog: AssembledProgram) -> np.ndarray:
    """Strictly feasible start along an all-ones interior path from x0.

    Follows the interior-witness recursion: each child state is the all-ones
    direction scaled to half the self-financing frontier of its parent state,
    which keeps every margin and cash slack strictly positive; auxiliary
    variables get padding sized against their block's slack.
    """
    problem = prog.problem
    tree, market = problem.tree, problem.market
    form = problem.objective.form
    m = market.m
    constants = market.constants()
    ones = np.ones(m)

    states = np.zeros((tree.n_nodes, m))  # one per node index
    states[0] = problem.x0
    for t in range(1, tree.horizon + 1):
        lev = tree.indices(t)
        c_star = transition_frontier_batch(
            market, states[tree.parents[lev]], np.tile(ones, (len(lev), 1)), lev,
            constants,
        )
        stuck = np.flatnonzero(c_star <= 0.0)
        if stuck.size:
            raise InfeasibleStart(
                f"no strictly positive transition from node "
                f"{tree.nodes[tree.parents[lev[stuck[0]]]].node_id!r}"
            )
        states[lev] = (0.5 * c_star)[:, None] * ones

    # Per non-root node: its state x, its parent's state a, and the slacks
    # of its margin and cash rows at that state.
    x, a = states[1:], states[tree.parents[1:]]
    idx = np.arange(1, tree.n_nodes)
    mu = market.margins[tree.depth[idx], None]
    Lp, Lm, R = market.Lp[idx], market.Lm[idx], market.returns[idx]
    x_scale = np.abs(x).sum(axis=1) / m
    margin_min = np.vecdot(Lp, np.maximum(x, 0.0)) - mu[:, 0] * np.vecdot(
        Lm, np.maximum(-x, 0.0)
    )
    den_v = (mu * Lm - Lp).sum(axis=1)
    mins = np.minimum(Lp * (R * a - x), Lm * (R * a - x))
    psi_min = mins.sum(axis=1)
    cols = np.arange(m)

    for shrink in range(60):
        pad_frac = 0.1 * 0.5 ** shrink
        z = np.zeros(prog.n_vars)
        pad_v = np.minimum(
            pad_frac * x_scale, 0.4 * margin_min / np.maximum(den_v, 1e-30)
        )
        z[prog.v_off[idx, None] + cols] = np.maximum(-x, 0.0) + pad_v[:, None]
        pad_s = np.minimum(pad_frac * x_scale, 0.4 * psi_min / m)
        z[prog.s_off[idx, None] + cols] = mins - pad_s[:, None]
        z[prog.x_off[idx, None] + cols] = x

        # w on the tighter of its two rows, then pad_w inside it (in direction d)
        X = z[prog.leaf_x[form.lifted]]
        scale = np.abs(X).sum(axis=1) / m
        target = -form.d * np.minimum(form.c1 * X, form.c2 * X)
        sigma_full = (np.vecdot(form.cx[form.lifted], X)
                      + np.vecdot(form.cw, target))
        pad_w = np.minimum(
            pad_frac * scale,
            0.4 * sigma_full / np.maximum(np.abs(form.cw).sum(axis=1), 1e-30),
        )
        z[prog.leaf_w] = target + form.d * pad_w[:, None]

        if prog.g(z).min() > 0.0 and np.all(prog.sigmas(z) > 0.0):
            return z
    raise InfeasibleStart("could not construct a strictly interior start")


# --- the primal-dual barrier loop -------------------------------------------------

def _newton_step(
    prog: AssembledProgram,
    z: np.ndarray,
    lam: np.ndarray,
    g: np.ndarray,
    r_d: np.ndarray,
    r_c: np.ndarray,
    ridge: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    W = prog.neg_hess_f(z)
    D = lam / g
    ADA = prog.A.T @ prog.A.multiply(D[:, None])
    K = (W + ADA).tocsc()
    rhs = r_d - prog.A.T @ (r_c / g)
    for _ in range(6):
        try:
            lu = splu(K if ridge == 0.0 else (K + ridge * sp.eye(prog.n_vars)).tocsc())
            dz = lu.solve(rhs)
            dz += lu.solve(rhs - K @ dz)  # one refinement pass
            if np.all(np.isfinite(dz)):
                break
        except RuntimeError:
            pass
        ridge = max(ridge * 100.0, 1e-12 * (abs(K.diagonal()).max() + 1.0))
    else:
        raise FloatingPointError("newton system could not be factorized")
    dlam = -(r_c + lam * (prog.A @ dz)) / g
    return dz, dlam


def solve_log_optimal(
    problem: PathProblem, options: SolveOptions | None = None
) -> Solution:
    """Interior-point solve; returns the best iterate flagged when not converged.

    The barrier parameter follows mu <- 0.2 mu down to 1e-2 * tol (or
    ``options.mu_target``); each stage is centered by damped Newton steps
    with fraction-to-boundary safeguards and an Armijo (1e-4, 0.5)
    backtracking line search on the weighted KKT residual norm.  Only a
    centered final stage within tol counts as converged.
    """
    options = options or SolveOptions()
    t_start = time.perf_counter()
    prog = assemble(problem)
    mu_target = options.mu_target
    if mu_target is None:
        mu_target = 1e-2 * options.tol
    w = problem.tree.prob[prog.row_owner]  # central-path weight of each row

    z = _interior_start(prog)
    g = prog.g(z)
    mu = 1.0
    lam = mu * w / g

    iters = 0
    outer = 0
    trace: list[float] = []
    stage_best_rd = np.inf
    stage_no_progress = 0
    stop = ""  # why the loop must end before its final stage centers

    abs_A_T = abs(prog.A).T.tocsr()

    # All thresholds are relative to the objective-gradient scale so the whole
    # iteration is covariant under rescaling the problem (cone homogeneity).
    def merit(r_d: np.ndarray, r_c: np.ndarray, gscale: float) -> float:
        rd = r_d / gscale
        rc = r_c / w
        return float(rd @ rd + rc @ rc)

    while True:
        gf = prog.grad_f(z)
        g = prog.g(z)
        r_d = gf + prog.A.T @ lam
        r_c = lam * g - mu * w
        gscale = float(np.abs(gf).max())
        # cancellation noise floor of the stationarity residual in float64
        noise_d = 64.0 * np.finfo(float).eps * (
            gscale + float((abs_A_T @ lam).max())
        )
        final_stage = mu <= mu_target * (1.0 + 1e-12)
        c_center = 0.01 if final_stage else 0.1
        rd_max = float(np.abs(r_d).max())
        rc_max = float(np.abs(r_c / w).max())
        centered = (
            rd_max <= max(c_center * mu * gscale, noise_d)
            and rc_max <= 2.0 * c_center * mu
        )
        if rd_max < 0.9 * stage_best_rd:
            stage_best_rd = rd_max
            stage_no_progress = 0
        else:
            stage_no_progress += 1
        if not centered and rc_max <= 0.5 * mu and (
            stop or stage_no_progress >= 8
        ):
            # The stationarity residual sits at its floating-point plateau for
            # this stage; its level only perturbs the certificates through a
            # division by node probabilities, orders below their tolerances.
            log.debug(
                "accepting stage at plateau: mu=%.3e rd=%.3e", mu, rd_max
            )
            centered = True
        if centered:
            stop = ""
            outer += 1
            trace.append(log_objective(problem.tree, problem.objective,
                                       prog.path_values(z)[-1]))
            if final_stage:
                break
            mu = max(0.2 * mu, mu_target)
            stage_best_rd = np.inf
            stage_no_progress = 0
            continue
        if stop or iters >= options.max_iter:
            stop = stop or f"max_iter={options.max_iter} reached"
            break

        # Plain Newton first.  A failed line search, or a step shorter than
        # MIN_STEP, retries with increasing proximal damping, which suppresses
        # motion along flat (degenerate) faces of the optimal set: there the
        # undamped direction is huge and the boundary cuts it to nothing.  A
        # short step is still taken when no damped one goes further.
        phi0 = merit(r_d, r_c, gscale)
        step = None
        for ridge_scale in (0.0, 1e-4, 1e-1):
            try:
                dz, dlam = _newton_step(
                    prog, z, lam, g, r_d, r_c, ridge_scale * gscale * gscale
                )
            except FloatingPointError:
                continue

            tau = max(0.995, 1.0 - 1e4 * mu)
            alpha = 1.0
            Adz = prog.A @ dz
            neg = Adz < 0
            if np.any(neg):
                alpha = min(alpha, tau * float((-g[neg] / Adz[neg]).min()))
            neg = dlam < 0
            if np.any(neg):
                alpha = min(alpha, tau * float((-lam[neg] / dlam[neg]).min()))

            for _ in range(40):
                z_try = z + alpha * dz
                lam_try = lam + alpha * dlam
                if np.all(np.isfinite(z_try)) and np.all(prog.sigmas(z_try) > 0.0):
                    g2 = prog.g(z_try)
                    if g2.min() > 0.0:
                        r_d2 = prog.grad_f(z_try) + prog.A.T @ lam_try
                        r_c2 = lam_try * g2 - mu * w
                        if merit(r_d2, r_c2, gscale) <= (1.0 - 1e-4 * alpha) * phi0:
                            break
                alpha *= 0.5
            else:
                continue
            if step is None or alpha >= MIN_STEP:
                step = (z_try, lam_try, g2)
            if alpha >= MIN_STEP:
                break
        iters += 1
        if step is None:
            log.debug("line search stalled at mu=%.3e iter=%d", mu, iters)
            stop = "line search stalled"
        else:
            z, lam, g = step

    gf = prog.grad_f(z)
    g = prog.g(z)
    r_d = gf + prog.A.T @ lam
    residuals = KktResiduals(
        primal=max(0.0, -float(g.min())),
        stationarity=float(np.abs(r_d).max()),
        complementarity=max(0.0, float((lam * g).max())),
        duality_gap=float(lam @ g),
    )
    path = prog.path_values(z)
    converged = not stop and residuals.within(options.tol)
    if not converged:
        log.warning(
            "solve did not converge (%s): iters=%d mu=%.3e residuals=%s",
            stop or "residuals above tol", iters, mu, residuals,
        )
    return Solution(
        path=path,
        objective_value=log_objective(problem.tree, problem.objective, path[-1]),
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
    worst_primal: tuple[str, float]
    worst_stationarity: tuple[str, float]
    worst_complementarity: tuple[str, float]
    path_consistent: bool

    def within(self, tol: float) -> bool:
        return self.residuals.within(tol) and self.path_consistent


def kkt_report(solution: Solution, problem: PathProblem) -> KktReport:
    """Recompute all residuals from the stored iterate, solver state unused."""
    return _kkt_report(solution, assemble(problem))


def _kkt_report(solution: Solution, prog: AssembledProgram) -> KktReport:
    """:func:`kkt_report` against an already assembled program."""
    z = np.asarray(solution.z, dtype=float)
    lam = np.asarray(solution.multipliers, dtype=float)
    if z.shape != (prog.n_vars,) or lam.shape != (prog.n_cons,):
        raise DimensionMismatch("stored iterate does not match the problem")

    g = prog.g(z)
    r_d = prog.grad_f(z) + prog.A.T @ lam
    comp = lam * g
    tree = prog.problem.tree

    def worst(values: np.ndarray, owner: np.ndarray) -> tuple[str, float]:
        k = int(np.argmax(values))
        return tree.nodes[owner[k]].node_id, float(values[k])

    primal_viol = np.maximum(-g, 0.0)
    path_ok = True
    stored = solution.path
    for t, av in enumerate(prog.path_values(z)):
        if not np.allclose(av.values, stored[t].values, rtol=0.0, atol=1e-12):
            path_ok = False
    residuals = KktResiduals(
        primal=float(primal_viol.max(initial=0.0)),
        stationarity=float(np.abs(r_d).max()),
        complementarity=max(0.0, float(comp.max())),
        duality_gap=float(lam @ g),
    )
    return KktReport(
        residuals=residuals,
        worst_primal=worst(primal_viol, prog.row_owner),
        worst_stationarity=worst(np.abs(r_d), prog.col_owner),
        worst_complementarity=worst(np.maximum(comp, 0.0), prog.row_owner),
        path_consistent=path_ok,
    )
