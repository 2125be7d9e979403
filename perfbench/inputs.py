"""Instance generators for the benchmark workloads.

Everything here uses numpy only and never imports the package under test:
margins come from the closed-form (B2) ratio bound nu below, penalty weights
from the closed-form section-vertex bound, so the inputs do not depend on the
code they exercise.  An instance is plain data (arrays keyed by node
position); ``to_problem_doc`` renders it as a problem file, and
``workloads.Pipeline.build`` hands it to the library.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# Acceptance's seeded family: depth, branching and asset count bounds.
SEEDS50_COUNT = 50
MAX_DEPTH, MAX_BRANCH, MAX_M, LAM_MAX = 4, 3, 4, 0.05

# Ladder rungs: (branching, depth, assets).  Regular trees, liquidation value.
LADDER_RUNGS = ((3, 3, 2), (3, 3, 4), (2, 5, 2), (2, 5, 4), (4, 3, 2), (2, 6, 2))

# Generated medium trees for the CLI round trip: (branching, depth, assets,
# objective variant).
CLI_TREES = (
    (2, 5, 2, "liquidation"), (3, 3, 2, "norm_penalized"), (3, 3, 3, "linear"),
)

# The ladder and CLI trees are drawn once from these fixed streams, like the
# acceptance seeds: solve cost swings several-fold between random markets of
# one shape (63 nodes, m = 4: 198 to 747 Newton iterations over three draws),
# which would drown any regression bound.  The benchmark seed varies what
# the checks and the certification layer sample instead.
LADDER_STREAM = (0, 1)
CLI_STREAM = (0, 2)


@dataclass
class Instance:
    """A problem as plain arrays.  Node k's parent is ``parent[k] < k``."""

    name: str
    ids: list[str]
    parent: np.ndarray       # (n,), -1 at the root
    cond_prob: np.ndarray    # (n,), 1 at the root
    m: int
    returns: np.ndarray      # (n, m), nan at the root
    lam_plus: np.ndarray     # (n, m)
    lam_minus: np.ndarray    # (n, m)
    margins: np.ndarray      # (N + 1,)
    objective: dict          # variant, q (per leaf or None), theta, norm
    x0: np.ndarray
    depth: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        depth = np.zeros(len(self.ids), dtype=int)
        for k in range(1, len(self.ids)):
            depth[k] = depth[self.parent[k]] + 1
        self.depth = depth

    @property
    def horizon(self) -> int:
        return int(self.depth.max())

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    def level(self, t: int) -> np.ndarray:
        """Node positions at depth t, in file order (the library's row order)."""
        return np.flatnonzero(self.depth == t)

    @property
    def prob(self) -> np.ndarray:
        """Unconditional node probabilities."""
        p = self.cond_prob.copy()
        for k in range(1, self.n_nodes):
            p[k] = p[self.parent[k]] * self.cond_prob[k]
        return p


# --- closed forms ---------------------------------------------------------------

def level_bounds(depth: np.ndarray, returns, lam_plus, lam_minus):
    """Per-date (B1) extremes: R_lo, R_hi (t >= 1), L_lo = min Lp, L_hi = max Lm."""
    horizon = int(depth.max())
    R_lo = np.full(horizon + 1, np.nan)
    R_hi = np.full(horizon + 1, np.nan)
    L_lo = np.zeros(horizon + 1)
    L_hi = np.zeros(horizon + 1)
    for t in range(horizon + 1):
        idx = depth == t
        L_lo[t] = (1.0 - lam_plus[idx]).min()
        L_hi[t] = (1.0 + lam_minus[idx]).max()
        if t >= 1:
            R_lo[t] = returns[idx].min()
            R_hi[t] = returns[idx].max()
    return R_lo, R_hi, L_lo, L_hi


def nu_bound(depth: np.ndarray, returns, lam_plus, lam_minus) -> np.ndarray:
    """(B2) margin floor: nu_t = max(L_hi/L_lo at t, cost-return ratio at t+1)."""
    R_lo, R_hi, L_lo, L_hi = level_bounds(depth, returns, lam_plus, lam_minus)
    horizon = len(L_lo) - 1
    nu = np.zeros(horizon + 1)
    for t in range(horizon + 1):
        here = L_hi[t] / L_lo[t]
        if t < horizon:
            ahead = (L_hi[t + 1] * R_hi[t + 1]) / (L_lo[t + 1] * R_lo[t + 1])
            nu[t] = max(ahead, here)
        else:
            nu[t] = here
    return nu


def section_vertices(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Extreme points of {a : alpha . a+ >= beta . a-, |a|_1 = 1}.

    The cone is generated by the axis rays and, for every ordered pair
    (i long, j short), the ray on the margin boundary alpha_i a_i = beta_j b_j.
    """
    m = len(alpha)
    rows = [np.eye(m)]
    for i in range(m):
        for j in range(m):
            if i != j:
                v = np.zeros(m)
                v[i] = beta[j] / (alpha[i] + beta[j])
                v[j] = -alpha[i] / (alpha[i] + beta[j])
                rows.append(v[None, :])
    return np.vstack(rows)


def penalty_bound(inst_margin: float, lp, lm, q, norm: str, delta: float = 0.5):
    """Largest penalty weight keeping q . a - theta |a| >= delta-share positive."""
    vals = section_vertices(lp, inst_margin * lm) @ q
    h_q = max(1.0 / float(vals.min()), float(vals.max()))
    h_hat = 1.0 if norm == "l1" else float(np.sqrt(len(q)))
    return (1.0 - delta) / (h_q * h_hat)


# --- generators -----------------------------------------------------------------

def seeds50_instance(seed: int) -> Instance:
    """Acceptance instance ``seed``: the same random draws in the same order."""
    rng = np.random.default_rng(seed)
    horizon = int(rng.integers(1, MAX_DEPTH + 1))
    m = int(rng.integers(1, MAX_M + 1))
    ids, parent, cond = ["n0"], [-1], [1.0]
    level = [0]
    for _ in range(horizon):
        new_level = []
        for par in level:
            k = int(rng.integers(1, MAX_BRANCH + 1))
            probs = rng.uniform(1.0, 2.0, k)
            probs /= probs.sum()
            for j in range(k):
                new_level.append(len(ids))
                ids.append(f"n{len(ids)}")
                parent.append(par)
                cond.append(float(probs[j]))
        level = new_level
    n = len(ids)
    returns = np.full((n, m), np.nan)
    for k in range(1, n):
        returns[k] = rng.uniform(0.85, 1.2, m)
    lam_plus = rng.uniform(0.0, LAM_MAX, (n, m))
    lam_minus = rng.uniform(0.0, LAM_MAX, (n, m))
    inst = Instance(
        f"seeds50-{seed}", ids, np.array(parent), np.array(cond), m,
        returns, lam_plus, lam_minus, np.zeros(horizon + 1), {}, np.zeros(m),
    )
    nu = nu_bound(inst.depth, returns, lam_plus, lam_minus)
    inst.margins = nu + 0.1 + rng.uniform(0.0, 0.5, horizon + 1)

    variant = seed % 4
    if variant == 0:
        inst.objective = {"variant": "linear", "q": rng.uniform(0.9, 1.1, m)}
    elif variant == 1:
        inst.objective = {"variant": "liquidation"}
    else:
        norm = "l1" if variant == 2 else "l2"
        leaves = inst.level(horizon)
        bound = min(
            penalty_bound(inst.margins[horizon], 1.0 - lam_plus[k],
                          1.0 + lam_minus[k], np.ones(m), norm)
            for k in leaves
        )
        inst.objective = {
            "variant": "norm_penalized", "norm": norm, "theta": 0.3 * bound,
        }
    inst.x0 = rng.uniform(0.3, 1.5, m)
    return inst


def regular_instance(
    name: str, rng: np.random.Generator, branching: int, depth: int, m: int,
    objective: str = "liquidation",
) -> Instance:
    """Regular b-ary tree with random probabilities, returns and cost rates."""
    ids, parent, cond = ["r"], [-1], [1.0]
    level = [0]
    for _ in range(depth):
        new_level = []
        for par in level:
            probs = rng.uniform(1.0, 2.0, branching)
            probs /= probs.sum()
            for j in range(branching):
                new_level.append(len(ids))
                ids.append(f"{ids[par]}{j}")
                parent.append(par)
                cond.append(float(probs[j]))
        level = new_level
    n = len(ids)
    returns = np.full((n, m), np.nan)
    returns[1:] = rng.uniform(0.85, 1.2, (n - 1, m))
    lam_plus = rng.uniform(0.0, LAM_MAX, (n, m))
    lam_minus = rng.uniform(0.0, LAM_MAX, (n, m))
    inst = Instance(
        name, ids, np.array(parent), np.array(cond), m, returns, lam_plus,
        lam_minus, np.zeros(depth + 1), {"variant": objective}, np.zeros(m),
    )
    nu = nu_bound(inst.depth, returns, lam_plus, lam_minus)
    inst.margins = nu + 0.1 + rng.uniform(0.0, 0.5, depth + 1)
    if objective == "norm_penalized":
        bound = min(
            penalty_bound(inst.margins[depth], 1.0 - lam_plus[k],
                          1.0 + lam_minus[k], np.ones(m), "l1")
            for k in inst.level(depth)
        )
        inst.objective = {"variant": objective, "norm": "l1", "theta": 0.3 * bound}
    inst.x0 = rng.uniform(0.3, 1.5, m)
    return inst


def ladder_instances() -> list[Instance]:
    rng = np.random.default_rng(LADDER_STREAM)
    return [
        regular_instance(f"ladder-{b}^{d}-m{m}", rng, b, d, m)
        for b, d, m in LADDER_RUNGS
    ]


def cli_instances() -> list[Instance]:
    rng = np.random.default_rng(CLI_STREAM)
    return [
        regular_instance(f"medium-{b}^{d}-m{m}-{obj}", rng, b, d, m, obj)
        for b, d, m, obj in CLI_TREES
    ]


# --- hand-off to the program ----------------------------------------------------

def to_problem_doc(inst: Instance) -> dict:
    """Problem-file document (schema version 1) for the CLI."""
    nodes = [{"id": inst.ids[0], "parent": None}]
    for k in range(1, inst.n_nodes):
        nodes.append({
            "id": inst.ids[k], "parent": inst.ids[inst.parent[k]],
            "prob": float(inst.cond_prob[k]),
        })
    objective = {
        key: (val.tolist() if isinstance(val, np.ndarray) else val)
        for key, val in inst.objective.items()
    }
    return {
        "schema_version": 1,
        "tree": {"nodes": nodes},
        "market": {
            "assets": inst.m,
            "margins": inst.margins.tolist(),
            "returns": dict(zip(inst.ids[1:], inst.returns[1:].tolist())),
            "lambda_plus": dict(zip(inst.ids, inst.lam_plus.tolist())),
            "lambda_minus": dict(zip(inst.ids, inst.lam_minus.tolist())),
        },
        "objective": objective,
        "initial_portfolio": inst.x0.tolist(),
        "solver": {"tol": 1e-08, "max_iter": 2000, "seed": 0},
    }


def problem_bytes(inst: Instance) -> bytes:
    return (json.dumps(to_problem_doc(inst), indent=1) + "\n").encode()


def instance_from_doc(name: str, doc: dict) -> Instance:
    """Read a problem document (shipped fixtures) into plain arrays.

    Handles the forms the fixtures use: nodes listed parents-first in depth
    order, per-node returns, scalar or per-asset cost rates, scalar or
    per-date margins.
    """
    entries = doc["tree"]["nodes"]
    ids = [str(e["id"]) for e in entries]
    pos = {nid: k for k, nid in enumerate(ids)}
    parent = np.array([-1 if e.get("parent") is None else pos[e["parent"]]
                       for e in entries])
    cond = np.array([1.0 if e.get("parent") is None else float(e["prob"])
                     for e in entries])
    market = doc["market"]
    m = int(market["assets"])
    n = len(ids)
    returns = np.full((n, m), np.nan)
    for nid, vec in market["returns"].items():
        returns[pos[nid]] = vec
    lam_plus = np.broadcast_to(np.asarray(market.get("lambda_plus", 0.0), float), (n, m)).copy()
    lam_minus = np.broadcast_to(np.asarray(market.get("lambda_minus", 0.0), float), (n, m)).copy()
    inst = Instance(
        name, ids, parent, cond, m, returns, lam_plus, lam_minus,
        np.zeros(1), dict(doc["objective"]), np.asarray(doc["initial_portfolio"], float),
    )
    inst.margins = np.broadcast_to(
        np.asarray(market["margins"], float), (inst.horizon + 1,)
    ).copy()
    return inst
