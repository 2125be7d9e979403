"""Problem/solution/certificate files, the command-line surface, and CSV reports.

Files are JSON with an explicit schema version; floats are serialized with
full round-trip precision.  Every per-node table maps node ids to vectors
and is read by ``_node_rows`` and written by ``_node_map``.  A table is
checked as a whole, and an error still names its first bad entry in node
order.  Only :func:`certificate_to_doc` names the rows of the certificate's
criterion arrays.  Numbers must be finite and fit a double (a boolean or a
string is no number), integer fields must be integral, the counts
(``max_iter``, ``--competitors``, certify's ``--seed``) at least 0, and
every ``tol`` positive; anything else is a parse error.  Writes are atomic
(write to a temporary file in the target directory, then rename) and honour
the umask, and an output that cannot be written is a parse error too.  The
command set is

    vng validate PROBLEM
    vng solve    PROBLEM [--tol --max-iter --seed --out]
    vng certify  PROBLEM SOLUTION [--tol --competitors --seed --out]
    vng compare  PROBLEM STRATEGIES [--certificate --out]

The problem file is the one source of the objective and of x0.  ``certify``
also checks that the solution's path starts at x0, and ``compare
--certificate`` verifies the stored path and dual again, against x0 and at
``CERT_TOL_DEFAULT`` whatever tolerance the file records; either refutation
exits 1.  A refuted ``certify`` line ends with ``witness=<kind>``, the kind
of the certificate file's witness.

Exit codes: 0 success/certified, 1 verification refuted, 2 parse error or
unwritable output, 3 margin too tight, 4 solver not converged, 5 digest
mismatch, 6 LP failure, 7 any other error: a ``VngError`` or a
``FloatingPointError`` prints its message, and any other exception its
traceback too, so no fault exits 1.
Verbosity follows the VNG_LOG environment variable (error|warn|info|debug),
read again by every ``main`` call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import logging
import os
import sys
import tempfile
import time
import traceback

import numpy as np

from . import __version__
from .certification import (
    CERT_TOL_DEFAULT,
    DualPath,
    RapidityCertificate,
    SupermartingaleReport,
    _supermartingale_checks,
    growth_dominance,
    sample_competitor_paths,
    supermartingale_check,
    verify_rapid,
)
from .errors import (
    DigestMismatch,
    DimensionMismatch,
    InfeasibleStart,
    LPFailure,
    MarginTooTight,
    NonConvergence,
    ParseError,
    PreconditionViolated,
    VngError,
)
from .market_model import (
    MarketData,
    buy_and_hold_path,
    fixed_fraction_path,
    returns_from_prices,
    slater_path,
)
from .objectives import (
    LinearObjective,
    LiquidationObjective,
    NormPenalizedObjective,
    TerminalObjective,
    log_objective,
)
from .scenario_tree import NodeArray, ScenarioTree, build_tree
from .solver import (
    KktResiduals,
    PathProblem,
    Solution,
    SolveOptions,
    extract_dual,
    solve_log_optimal,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_PARSE = 2
EXIT_MARGIN = 3
EXIT_NONCONVERGENCE = 4
EXIT_DIGEST = 5
EXIT_LP = 6
EXIT_LIBRARY = 7

ERROR_EXIT_CODES = (
    (ParseError, EXIT_PARSE),
    (MarginTooTight, EXIT_MARGIN),
    (NonConvergence, EXIT_NONCONVERGENCE),
    (DigestMismatch, EXIT_DIGEST),
    (LPFailure, EXIT_LP),
)


# --- parsing helpers -------------------------------------------------------------

def _need(section, key: str, where: str, kind: type | None = None):
    """``section[key]``, which must exist (and be a ``kind`` when given)."""
    if not isinstance(section, dict):
        raise ParseError(f"{where}: expected an object, got {type(section).__name__}")
    if key not in section:
        raise ParseError(f"{where}: missing field {key!r}")
    value = section[key]
    if kind is not None and not isinstance(value, kind):
        raise ParseError(
            f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _number(value, where: str, kind: type = float):
    """A finite number that fits a double; integral when ``kind`` is int."""
    try:
        if isinstance(value, (bool, str)):
            raise TypeError("booleans and strings are not numbers")
        out = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: expected a number: {exc}") from exc
    if not np.isfinite(out):
        raise ParseError(f"{where}: expected a finite number, got {value!r}")
    if kind is int:
        if not out.is_integer():
            raise ParseError(f"{where}: expected an integer, got {value!r}")
        return value if isinstance(value, int) else int(out)
    return out


def _positive(value, where: str) -> float:
    """A finite number above 0, such as a tolerance."""
    out = _number(value, where)
    if out <= 0:
        raise ParseError(f"{where}: must be positive, got {out!r}")
    return out


def _count(value, where: str) -> int:
    """An integer of at least 0, such as an iteration cap or a sample count."""
    out = _number(value, where, int)
    if out < 0:
        raise ParseError(f"{where}: must not be negative, got {out!r}")
    return out


def _array(value, where: str) -> np.ndarray:
    """Finite floats; nulls (which numpy reads as nan), booleans and strings
    anywhere are rejected."""
    try:
        arr = np.asarray(value, dtype=float)
        leaves = value if arr.ndim else (value,)  # as parsed, flattened below
        for _ in range(arr.ndim - 1):
            leaves = itertools.chain.from_iterable(leaves)
        if any(issubclass(kind, (bool, str)) for kind in set(map(type, leaves))):
            raise TypeError("booleans and strings are not numbers")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: expected numbers: {exc}") from exc
    if not np.isfinite(arr).all():
        raise ParseError(f"{where}: expected finite numbers")
    return arr


def _vector(value, m: int, where: str) -> np.ndarray:
    arr = _array(value, where)
    if arr.shape != (m,):
        raise ParseError(f"{where}: expected {m} numbers, got shape {arr.shape}")
    return arr


def _node_rows(table, ids, m: int, where: str, scalars: bool = False) -> np.ndarray:
    """The rows of a ``{node_id: vector}`` table for the node ``ids``, in order.

    Every node needs an entry of m numbers; with ``scalars``, one number
    stands for m equal ones.  The entries are converted as one array.  A
    table that does not convert to one row per node (a missing or bad entry,
    or scalars mixed with vectors) is scanned node by node, which accepts the
    mixed tables and names the first bad entry in node order.
    """
    if not isinstance(table, dict):
        raise ParseError(f"{where}: expected an object, got {type(table).__name__}")
    try:
        rows = _array([table[nid] for nid in ids], where)
        if rows.shape == (len(ids), m):
            return rows
        if scalars and rows.shape == (len(ids),):
            return np.repeat(rows[:, None], m, axis=1)
    except (KeyError, ParseError):
        pass  # the scan below names the first bad entry
    rows = np.empty((len(ids), m))
    for k, nid in enumerate(ids):
        if nid not in table:
            raise ParseError(f"{where}: node {nid!r}: missing entry")
        at = f"{where}[{nid}]"
        val = _array(table[nid], at)
        rows[k] = val.item() if scalars and val.size == 1 else _vector(val, m, at)
    return rows


def _node_map(ids, rows: np.ndarray) -> dict:
    """The ``{node_id: vector}`` table of ``rows``, one row per id in order."""
    return dict(zip(ids, rows.tolist(), strict=True))


def _read_json(path: str, what: str):
    """Raw bytes and parsed document of a JSON file; unreadable files are parse errors."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return raw, json.loads(raw.decode("utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers JSON and UTF-8 errors, RecursionError a nesting
        # deeper than the decoder follows
        raise ParseError(f"cannot read {what} {path}: {exc}") from exc


def _per_node_table(spec, tree: ScenarioTree, m: int, where: str) -> np.ndarray:
    """Scalar, per-asset vector, or {node_id: scalar|vector} to (n_nodes, m)."""
    if isinstance(spec, dict):
        return _node_rows(spec, tree.ids, m, where, scalars=True)
    val = _array(spec, where)
    if val.ndim != 0 and val.shape != (m,):
        raise ParseError(f"{where}: expected scalar, {m}-vector or per-node map")
    return np.broadcast_to(val, (tree.n_nodes, m)).copy()


def build_objective(
    tree: ScenarioTree, market: MarketData, section: dict
) -> TerminalObjective:
    variant = _need(section, "variant", "objective", str).lower()
    if variant == "liquidation":
        return LiquidationObjective(tree, market)
    q = None if section.get("q") is None else _array(section["q"], "objective.q")
    if variant == "linear":
        return LinearObjective(tree, market, q=q)
    if variant == "norm_penalized":
        return NormPenalizedObjective(
            tree,
            market,
            q=q,
            theta=_array(section.get("theta", 0.0), "objective.theta"),
            norm=section.get("norm", "l1"),
            delta=_number(section.get("delta", 0.5), "objective.delta"),
        )
    raise ParseError(f"objective: unknown variant {variant!r}")


def parse_problem_dict(doc: dict) -> PathProblem:
    """Validate a problem document; errors carry node id and field."""
    if not isinstance(doc, dict):
        raise ParseError("problem: expected a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(
            f"unsupported schema_version {doc.get('schema_version')!r}"
        )
    tree_sec = _need(doc, "tree", "problem", dict)
    raw_nodes = []
    for k, entry in enumerate(_need(tree_sec, "nodes", "tree", list)):
        nid = _need(entry, "id", f"tree.nodes[{k}]", str)
        parent = entry.get("parent")
        if parent is not None and not isinstance(parent, str):
            raise ParseError(f"tree.nodes[{nid}]: parent must be a node id")
        prob = _number(entry.get("prob", 1.0), f"tree.nodes[{nid}].prob")
        raw_nodes.append((nid, parent, prob))

    market_sec = _need(doc, "market", "problem", dict)
    m = _number(_need(market_sec, "assets", "market"), "market.assets", int)
    try:
        tree = build_tree(raw_nodes, m)
    except VngError as exc:
        raise ParseError(f"tree: {exc}") from exc

    margins = _array(_need(market_sec, "margins", "market"), "market.margins")
    if margins.ndim == 0:
        margins = np.full(tree.horizon + 1, float(margins))
    if margins.shape != (tree.horizon + 1,):
        raise ParseError(
            f"market.margins: need one value or {tree.horizon + 1} values"
        )

    try:
        if "returns" in market_sec:
            returns = np.full((tree.n_nodes, m), np.nan)
            returns[1:] = _node_rows(
                market_sec["returns"], tree.ids[1:], m, "market.returns"
            )
        elif "prices" in market_sec:
            returns = returns_from_prices(
                tree, _node_rows(market_sec["prices"], tree.ids, m, "market.prices")
            )
        else:
            raise ParseError("market: need either 'returns' or 'prices'")

        lam_plus = _per_node_table(
            market_sec.get("lambda_plus", 0.0), tree, m, "market.lambda_plus"
        )
        lam_minus = _per_node_table(
            market_sec.get("lambda_minus", 0.0), tree, m, "market.lambda_minus"
        )
        market = MarketData(
            tree=tree, m=m, returns=returns,
            lam_plus=lam_plus, lam_minus=lam_minus, margins=margins,
        )
        objective = build_objective(
            tree, market, _need(doc, "objective", "problem", dict)
        )
        x0 = _vector(
            _need(doc, "initial_portfolio", "problem"), m, "initial_portfolio"
        )
        return PathProblem(tree=tree, market=market, objective=objective, x0=x0)
    except (MarginTooTight, ParseError):
        raise
    except InfeasibleStart as exc:
        raise ParseError(f"initial_portfolio: {exc}") from exc
    except (VngError, ValueError, TypeError, OverflowError) as exc:  # objective options
        raise ParseError(str(exc)) from exc


def load_problem(path: str) -> tuple[PathProblem, bytes, dict]:
    raw, doc = _read_json(path, "problem")
    return parse_problem_dict(doc), raw, doc


def solve_options_from(section, args=None, where: str = "solver") -> SolveOptions:
    """Solver options from a file section; command-line flags override it.

    Without ``args`` the section is a solution file's record of the options,
    which must hold every field.
    """
    if not isinstance(section, dict):
        raise ParseError(f"{where}: expected an object")
    values = {}
    for field in dataclasses.fields(SolveOptions):
        value = getattr(args, field.name, None)
        if value is None:
            value = (_need(section, field.name, where) if args is None
                     else section.get(field.name, field.default))
        values[field.name] = _number(
            value, f"{where}.{field.name}", type(field.default)
        )
    _positive(values["tol"], f"{where}.tol")
    _count(values["max_iter"], f"{where}.max_iter")
    return SolveOptions(**values)


# --- serialization ----------------------------------------------------------------

def _atomic_write(path: str, payload: str) -> None:
    """Write ``payload`` to ``path``; an unwritable target is a parse error.

    The file gets the mode ``open(path, "w")`` gives: 0o666 less the umask.
    No temporary file is left behind, whether or not the write succeeds.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")  # mode 0o600
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        # strerror, not str(exc): the latter names the temporary file
        raise ParseError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def write_json(path: str, doc: dict) -> None:
    _atomic_write(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def digest_of(problem_bytes: bytes, options: SolveOptions) -> str:
    opt = json.dumps(dataclasses.asdict(options), sort_keys=True)
    return hashlib.sha256(problem_bytes + b"\x00" + opt.encode()).hexdigest()


def solution_to_doc(solution: Solution, tree: ScenarioTree, digest: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "digest": digest,
        "objective_value": solution.objective_value,
        "converged": solution.converged,
        "iterations": solution.iterations,
        "outer_iterations": solution.outer_iterations,
        "wall_time": solution.wall_time,
        "mu_final": solution.mu_final,
        "residuals": dataclasses.asdict(solution.residuals),
        "options": dataclasses.asdict(solution.options),
        "objective_trace": list(solution.objective_trace),
        "path": _node_map(tree.ids, np.asarray(solution.path)),
        "z": solution.z.tolist(),
        "multipliers": solution.multipliers.tolist(),
    }


def solution_from_doc(doc: dict, problem: PathProblem) -> Solution:
    def number(key: str, kind: type = float, section=doc, where="solution"):
        return _number(_need(section, key, where), f"{where}.{key}", kind)

    res = _need(doc, "residuals", "solution")
    return Solution(
        path=NodeArray(problem.tree, _node_rows(
            doc["path"], problem.tree.ids, problem.market.m, "path"
        )),
        objective_value=number("objective_value"),
        z=_array(doc["z"], "solution.z"),
        multipliers=_array(doc["multipliers"], "solution.multipliers"),
        residuals=KktResiduals(**{
            f.name: number(f.name, section=res, where="solution.residuals")
            for f in dataclasses.fields(KktResiduals)
        }),
        iterations=number("iterations", int),
        outer_iterations=number("outer_iterations", int),
        wall_time=number("wall_time"),
        converged=_need(doc, "converged", "solution", bool),
        objective_trace=list(_array(doc["objective_trace"],
                                    "solution.objective_trace")),
        mu_final=number("mu_final"),
        options=solve_options_from(doc["options"], where="solution.options"),
    )


def certificate_to_doc(
    cert: RapidityCertificate,
    tree: ScenarioTree,
    path: np.ndarray | NodeArray,
    dual: DualPath,
    digest: str,
    wall_time: float,
    supermartingale: SupermartingaleReport | None = None,
) -> dict:
    """The certificate file: each criterion keyed by date, node id or, for a
    price row, ``p_t@id``; ``tightest`` names each one's first worst entry."""
    N, non_root = tree.horizon, tree.ids[1:]
    price_keys = [f"p_{t}@{nid}" for t, nid in zip(tree.depth[1:].tolist(), non_root)]
    price_keys += [f"p_{N + 1}@{nid}" for nid in tree.ids[tree.span(N)]]
    tables = {
        "normalization": ("date", range(N + 1), cert.normalization),
        "membership": ("node", price_keys, cert.membership),
        "transition": ("node", non_root, cert.transition),
        "feasibility": ("node", non_root, cert.feasibility),
    }
    tightest = {}
    for name, (label, keys, values) in tables.items():
        k = int(np.argmax(values))
        value = float(values[k])
        tightest[name] = {label: keys[k], "value": value, "slack": cert.tol - value}
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "digest": digest,
        "wall_time": wall_time,
        "verdict": "certified" if cert.certified else "refuted",
        "tolerance": cert.tol,
        "normalization_by_t": cert.normalization.tolist(),
        "membership_by_node": _node_map(price_keys, cert.membership),
        "transition_by_node": _node_map(non_root, cert.transition),
        "feasibility_by_node": _node_map(non_root, cert.feasibility),
        "witness": cert.witness,
        "transition_lp_nodes": list(cert.transition_lp_nodes),
        "tightest": tightest,
        "path": _node_map(tree.ids, np.asarray(path)),
        "dual": {
            **{
                str(t): _node_map(
                    tree.ids[tree.span(t)],
                    dual.p[tree.offsets[t] - 1:tree.offsets[t + 1] - 1],
                )
                for t in range(1, tree.horizon + 1)
            },
            "terminal": _node_map(tree.ids[tree.span(tree.horizon)], dual.p_terminal),
        },
    }
    if supermartingale is not None:
        s = supermartingale
        doc["supermartingale"] = {
            "first_form": s.first_form,
            "second_form": s.second_form,
            "rapid_equality_gap": s.equality_gap,
        }
    return doc


def dual_from_doc(tree: ScenarioTree, doc: dict, m: int) -> DualPath:
    p = np.concatenate([
        _node_rows(doc[str(t)], tree.ids[tree.span(t)], m, f"dual[{t}]")
        for t in range(1, tree.horizon + 1)
    ])
    terminal = _node_rows(
        doc["terminal"], tree.ids[tree.span(tree.horizon)], m, "dual[terminal]"
    )
    return DualPath(tree, p, terminal)


# --- commands ---------------------------------------------------------------------

def cmd_validate(args: argparse.Namespace) -> int:
    problem, _, _ = load_problem(args.problem)
    tree, market = problem.tree, problem.market
    constants = market.constants
    witness = slater_path(tree, market)
    b = market.bounds

    print(
        f"validate: schema ok, horizon={tree.horizon} nodes={tree.n_nodes} "
        f"assets={market.m}"
    )
    print("t mu nu slack C1 C2 K H")
    for t in range(tree.horizon + 1):
        c2 = "-" if t == 0 else repr(float(constants.C2[t]))
        k = "-" if t == 0 else repr(float(constants.K[t]))
        print(
            f"{t} {float(market.margins[t])!r} {float(constants.nu[t])!r} "
            f"{float(market.margins[t] - constants.nu[t])!r} "
            f"{float(constants.C1[t])!r} {c2} {k} {float(constants.H[t])!r}"
        )
    print(
        "bounds: R_lo="
        + repr([float(v) for v in b["R_lo"][1:]])
        + " R_hi=" + repr([float(v) for v in b["R_hi"][1:]])
        + " L_lo=" + repr([float(v) for v in b["L_lo"]])
        + " L_hi=" + repr([float(v) for v in b["L_hi"]])
    )
    print(
        "interior path: radii="
        + repr([float(r) for r in witness.radii])
        + " min_psi_slack="
        + repr(float(min(witness.psi_slack[1:])))
    )
    print(f"initial portfolio: interior radius={problem.epsilon0()!r}")
    print("validate: OK")
    return EXIT_OK


def _default_out(problem_path: str, suffix: str) -> str:
    stem = problem_path[:-5] if problem_path.endswith(".json") else problem_path
    return stem + suffix


def cmd_solve(args: argparse.Namespace) -> int:
    problem, raw, doc = load_problem(args.problem)
    options = solve_options_from(doc.get("solver", {}), args)
    solution = solve_log_optimal(problem, options)
    digest = digest_of(raw, options)
    out = args.out or _default_out(args.problem, ".solution.json")
    write_json(out, solution_to_doc(solution, problem.tree, digest))
    print(
        f"solve: F={solution.objective_value!r} "
        f"iterations={solution.iterations} converged={solution.converged}"
    )
    return EXIT_OK if solution.converged else EXIT_NONCONVERGENCE


def _load_solution(args, problem: PathProblem, raw: bytes) -> tuple[Solution, str]:
    _, sdoc = _read_json(args.solution, "solution")
    options = solve_options_from(
        _need(sdoc, "options", "solution"), where="solution.options"
    )
    digest = digest_of(raw, options)
    if sdoc.get("digest") != digest:
        raise DigestMismatch(
            "solution file does not match this problem file and options"
        )
    try:
        return solution_from_doc(sdoc, problem), digest
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"solution file: bad or missing field: {exc!r}") from exc


def cmd_certify(args: argparse.Namespace) -> int:
    tol = _positive(args.tol, "--tol")
    competitors = _count(args.competitors, "--competitors")
    seed = _count(args.seed, "--seed")
    problem, raw, _ = load_problem(args.problem)
    solution, digest = _load_solution(args, problem, raw)
    if not solution.converged:
        raise NonConvergence("solution is flagged non-converged; nothing to certify")

    t0 = time.perf_counter()
    try:
        # Verification decides the verdict, so a tampered file with stale
        # residuals is still refuted with a witness.
        dual = extract_dual(solution, problem, strict=False)
    except DimensionMismatch as exc:  # z or multipliers of the wrong length
        raise ParseError(f"solution file: {exc}") from exc
    tree, market, x0 = problem.tree, problem.market, problem.x0
    del problem  # and with it the assembled program, which nothing below reads
    cert = verify_rapid(solution.path, dual, tree, market, tol=tol, x0=x0)
    worst = None
    if competitors > 0 and cert.certified:
        rng = np.random.default_rng(seed)
        paths = sample_competitor_paths(tree, market, rng, x0, competitors)
        rapid = supermartingale_check(dual, solution.path, tree)
        reports = _supermartingale_checks(dual, paths, tree)
        worst = SupermartingaleReport(
            max([0.0] + [r.first_form for r in reports]),
            max([0.0] + [r.second_form for r in reports]),
            rapid.equality_gap,
        )

    out = args.out or _default_out(args.problem, ".certificate.json")
    write_json(
        out,
        certificate_to_doc(
            cert, tree, solution.path, dual, digest,
            time.perf_counter() - t0, worst,
        ),
    )
    print(
        f"certify: {'certified' if cert.certified else 'refuted'} "
        f"normalization={float(cert.normalization.max())!r} "
        f"membership={float(cert.membership.max())!r} "
        f"transition={float(cert.transition.max())!r}"
        + (f" witness={cert.witness['kind']}" if cert.witness else "")
    )
    return EXIT_OK if cert.certified else EXIT_REFUTED


def _strategy_path(
    spec: dict, problem: PathProblem, rapid: np.ndarray | NodeArray
) -> np.ndarray | NodeArray:
    kind = _need(spec, "type", "strategy", str).lower()
    tree, market = problem.tree, problem.market
    if kind == "rapid":
        return rapid
    if kind == "buy_and_hold":
        return buy_and_hold_path(tree, market, problem.x0)
    if kind == "fixed_fraction":
        weights = _vector(
            _need(spec, "weights", "strategy"), market.m, "strategy.weights"
        )
        try:
            return fixed_fraction_path(tree, market, problem.x0, weights)
        except PreconditionViolated as exc:  # weights without a finite 1-norm
            raise ParseError(f"strategy.weights: {exc}") from None
    if kind == "path":
        values = _need(spec, "values", "strategy", dict)
        return _node_rows(values, tree.ids, market.m, "path")
    raise ParseError(f"strategy: unknown type {kind!r}")


def cmd_compare(args: argparse.Namespace) -> int:
    problem, raw, doc = load_problem(args.problem)
    _, strat_doc = _read_json(args.strategies, "strategies")
    if not isinstance(strat_doc, dict):
        raise ParseError(f"strategies {args.strategies}: expected a JSON object")
    strategies = strat_doc.get("strategies", [])
    if not isinstance(strategies, list):
        raise ParseError(f"strategies {args.strategies}: 'strategies' is not a list")

    options = solve_options_from(doc.get("solver", {}), args)
    if args.certificate:
        _, cdoc = _read_json(args.certificate, "certificate")
        if not isinstance(cdoc, dict):
            raise ParseError(f"certificate {args.certificate}: expected a JSON object")
        if cdoc.get("digest") != digest_of(raw, options):
            raise DigestMismatch("certificate does not match this problem file")
        verdict = cdoc.get("verdict")
        if verdict not in ("certified", "refuted"):
            raise ParseError(
                f"certificate {args.certificate}: field 'verdict' must be "
                f"'certified' or 'refuted', got {verdict!r}"
            )
        refuted = "compare: stored certificate is refuted"
        if verdict == "refuted":
            print(refuted)
            return EXIT_REFUTED
        try:
            rapid = _node_rows(cdoc["path"], problem.tree.ids, problem.market.m, "path")
            dual = dual_from_doc(problem.tree, cdoc["dual"], problem.market.m)
        except (KeyError, TypeError) as exc:
            raise ParseError(
                f"certificate {args.certificate}: bad or missing field: {exc!r}"
            ) from exc
    else:
        solution = solve_log_optimal(problem, options)
        if not solution.converged:
            raise NonConvergence("compare: solve did not converge")
        dual = extract_dual(solution, problem)
        rapid = solution.path
        refuted = "compare: rapidity certificate refuted; no benchmark available"
    # a stored path and dual are verified as a solved one is: the digest
    # covers the problem file, not their content
    if not verify_rapid(rapid, dual, problem.tree, problem.market,
                        tol=CERT_TOL_DEFAULT, x0=problem.x0).certified:
        print(refuted)
        return EXIT_REFUTED

    out = args.out or _default_out(args.problem, ".compare.csv")
    tree, rows = problem.tree, []
    leaves = tree.span(tree.horizon)
    for spec in strategies:
        sid = _need(spec, "id", "strategy", str)
        y = _strategy_path(spec, problem, rapid)
        table = growth_dominance(dual, y, tree)
        f_val = log_objective(tree, problem.objective, np.asarray(y)[leaves])
        for t in range(1, tree.horizon + 1):
            ratios = table[tree.offsets[t] - 1:tree.offsets[t + 1] - 1]
            probs = tree.prob[tree.span(t)]
            cond = probs / probs.sum()
            rows.append(
                (sid, t, len(ratios), float(ratios.max()), float(cond @ ratios), f_val)
            )

    payload_lines = ["strategy_id,t,node_count,max_conditional_growth,mean_growth,F_value"]
    for row in rows:
        payload_lines.append(",".join(str(v) for v in row))
    _atomic_write(out, "\n".join(payload_lines) + "\n")
    print(f"compare: strategies={len(strategies)} rows={len(rows)} out={out}")
    return EXIT_OK


# --- entry point ------------------------------------------------------------------

def _configure_logging() -> None:
    level = os.environ.get("VNG_LOG", "warn").lower()
    mapping = {
        "error": logging.ERROR,
        "warn": logging.WARNING,
        "warning": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }
    # basicConfig adds the handler once per process; the level follows each call
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(mapping.get(level, logging.WARNING))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Treat it as read-only: ``parse_args`` leaves it as it is, so every
    ``main`` call shares it.  It names the commands but holds none of the
    ``cmd_*`` functions; ``main`` looks those up when it runs.
    """
    parser = argparse.ArgumentParser(
        prog="vng",
        description=(
            "Solve for growth-optimal investment paths on scenario trees and "
            "certify them with dual price paths."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a problem file and print constants")
    p.add_argument("problem")

    p = sub.add_parser("solve", help="solve the log-optimal path problem")
    p.add_argument("problem")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("certify", help="verify a solution with a dual price path")
    p.add_argument("problem")
    p.add_argument("solution")
    p.add_argument("--tol", type=float, default=CERT_TOL_DEFAULT)
    p.add_argument("--competitors", type=int, default=50,
                   help="sampled competitor paths for the supermartingale report")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("compare", help="growth tables of strategies vs the benchmark")
    p.add_argument("problem")
    p.add_argument("strategies")
    p.add_argument("--certificate", default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    command = {
        "validate": cmd_validate,
        "solve": cmd_solve,
        "certify": cmd_certify,
        "compare": cmd_compare,
    }[args.command]
    try:
        return command(args)
    except Exception as exc:
        for kind, code in ERROR_EXIT_CODES:
            if isinstance(exc, kind):
                print(f"error: {exc}", file=sys.stderr)
                return code
        if not isinstance(exc, (VngError, FloatingPointError)):
            traceback.print_exc()  # a fault, never a refutation: show where
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_LIBRARY

if __name__ == "__main__":
    sys.exit(main())
