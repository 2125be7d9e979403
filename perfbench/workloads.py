"""The three workloads: each runs whole rounds of the same operations.

A round returns its phase times, its operation counts and the outputs to
check; checking happens after the timed pass and outside any tracing.  All
program calls go through ``vng`` module attributes at call time, so the
tracer's wrappers see them.  Phase times are read from a ``HostClock``,
in reference seconds (see ``speed.py``).
"""

from __future__ import annotations

import io
import json
import os
import shutil
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import checks
import inputs
from speed import HostClock

# Competitor paths per instance: the program's sampler feeds its own
# supermartingale check; the benchmark's sampler feeds the independent check.
SEEDS50_COMPETITORS = 20
LADDER_COMPETITORS = 10
CLI_COMPETITORS = 200
CHECK_COMPETITORS = 20

FIXTURES = (
    ("kelly", "strategies.json"),
    ("single_asset", "single_strategies.json"),
    ("two_asset_margin", "strategies.json"),
)


@dataclass
class Round:
    build_s: float = 0.0
    solve_s: float = 0.0
    certify_s: float = 0.0
    wall_s: float = 0.0
    measured_s: float = 0.0   # wall_s in measured seconds
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)


def _fail(rnd: Round, what: str) -> None:
    rnd.failed += 1
    print(f"operation failed: {what}\n{traceback.format_exc()}", flush=True)


# --- library pipeline: seeds50 and ladder ----------------------------------------

class Pipeline:
    """build -> solve_log_optimal -> extract_dual -> verify_rapid -> competitors."""

    competitors: int

    def __init__(self, vng, seed: int, root: str, workdir: str) -> None:
        self.vng = vng
        self.seed = seed

    def generate(self) -> None:
        self.instances = self.make_instances()
        self.raw = [
            [(inst.ids[0], None, 1.0)] + [
                (inst.ids[k], inst.ids[inst.parent[k]], float(inst.cond_prob[k]))
                for k in range(1, inst.n_nodes)
            ]
            for inst in self.instances
        ]

    @property
    def instances_per_round(self) -> int:
        return len(self.instances)

    def build(self, k: int):
        vng, inst = self.vng, self.instances[k]
        tree = vng.build_tree(self.raw[k], inst.m)
        market = vng.MarketData(
            tree=tree, m=inst.m, returns=inst.returns, lam_plus=inst.lam_plus,
            lam_minus=inst.lam_minus, margins=inst.margins,
        )
        obj = inst.objective
        if obj["variant"] == "linear":
            objective = vng.LinearObjective(tree, market, q=obj["q"])
        elif obj["variant"] == "liquidation":
            objective = vng.LiquidationObjective(tree, market)
        else:
            objective = vng.NormPenalizedObjective(
                tree, market, theta=obj["theta"], norm=obj["norm"]
            )
        return vng.PathProblem(tree=tree, market=market, objective=objective, x0=inst.x0)

    def run_round(self, index: int, clock: HostClock) -> Round:
        vng = self.vng
        rnd = Round()
        start, measured = clock.now(), time.perf_counter()
        for k, inst in enumerate(self.instances):
            rnd.attempted += 1
            rng = np.random.default_rng([self.seed, index, k])
            try:
                t0 = clock.now()
                problem = self.build(k)
                t1 = clock.now()
                solution = vng.solve_log_optimal(problem)
                t2 = clock.now()
                rnd.build_s += t1 - t0
                rnd.solve_s += t2 - t1
                if not solution.converged:
                    raise vng.errors.NonConvergence(f"{inst.name} did not converge")
                tree, market = problem.tree, problem.market
                dual = vng.extract_dual(solution, problem)
                cert = vng.verify_rapid(
                    solution.path, dual, tree, market, tol=checks.CERT_TOL
                )
                paths = vng.sample_competitor_paths(
                    tree, market, rng, problem.x0, self.competitors
                )
                reports = [vng.supermartingale_check(dual, y, tree) for y in paths]
                rapid = vng.supermartingale_check(dual, solution.path, tree)
                rnd.certify_s += clock.now() - t2
            except Exception:
                _fail(rnd, inst.name)
                continue
            rnd.outputs.append((k, tree, solution, dual, cert, reports, rapid))
        rnd.wall_s = clock.now() - start
        rnd.measured_s = time.perf_counter() - measured
        return rnd

    def check(self, rnd: Round) -> list[str]:
        fails: list[str] = []
        for k, tree, solution, dual, cert, reports, rapid in rnd.outputs:
            inst = self.instances[k]
            if [n.node_id for n in tree.nodes] != inst.ids:
                fails.append(f"{inst.name}: node order differs from the input")
                continue
            x = np.zeros((inst.n_nodes, inst.m))
            prices = np.zeros_like(x)
            for t in range(inst.horizon + 1):
                x[inst.level(t)] = solution.path[t].values
            for t in range(1, inst.horizon + 1):
                prices[inst.level(t)] = dual.prices[t].values
            fails += checks.check_certificate(
                inst, x, prices, dual.terminal.values, solution.objective_value,
                np.random.default_rng([self.seed, k, 1]), CHECK_COMPETITORS,
            )
            fails += checks.check_program_reports(inst.name, cert.certified, reports, rapid)
        return fails

    def cleanup(self) -> None:
        pass


class Seeds50(Pipeline):
    """The fixed acceptance instances; the seed draws the competitor paths."""

    competitors = SEEDS50_COMPETITORS

    def make_instances(self):
        return [inputs.seeds50_instance(s) for s in range(inputs.SEEDS50_COUNT)]


class Ladder(Pipeline):
    """Regular trees of growing size; the seed draws the competitor paths."""

    competitors = LADDER_COMPETITORS

    def make_instances(self):
        return inputs.ladder_instances()


# --- CLI round trip ---------------------------------------------------------------

class CliRoundtrip:
    """validate -> solve -> certify -> compare through ``vng.cli_io.main``."""

    def __init__(self, vng, seed: int, root: str, workdir: str) -> None:
        self.vng = vng
        self.seed = seed
        self.fixtures = os.path.join(root, "tests", "fixtures")
        self.workdir = workdir

    @property
    def instances_per_round(self) -> int:
        return len(self.files)

    def generate(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        rng = np.random.default_rng([self.seed, 3])
        self.files = []   # (instance, problem path, problem bytes, strategies path)
        for name, strategies in FIXTURES:
            with open(os.path.join(self.fixtures, f"{name}.json"), "rb") as fh:
                raw = fh.read()
            inst = inputs.instance_from_doc(name, json.loads(raw))
            self._add(inst, raw, os.path.join(self.fixtures, strategies))
        for inst in inputs.cli_instances():
            weights = rng.uniform(0.2, 1.0, inst.m)
            path = checks.sample_paths(inst, rng, 1)[0]
            doc = {"strategies": [
                {"id": "rapid", "type": "rapid"},
                {"id": "buy_and_hold", "type": "buy_and_hold"},
                {"id": "fixed", "type": "fixed_fraction",
                 "weights": (weights / weights.sum()).tolist()},
                {"id": "sampled", "type": "path",
                 "values": {inst.ids[k]: path[k].tolist() for k in range(inst.n_nodes)}},
            ]}
            strat = os.path.join(self.workdir, f"{inst.name}.strategies.json")
            with open(strat, "w") as fh:
                json.dump(doc, fh)
            self._add(inst, inputs.problem_bytes(inst), strat)

    def _add(self, inst, raw: bytes, strategies: str) -> None:
        path = os.path.join(self.workdir, f"{inst.name}.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        self.files.append((inst, path, raw, strategies))

    def _call(self, rnd: Round, clock: HostClock, label: str,
              argv: list[str]) -> tuple[float, str]:
        rnd.attempted += 1
        out = io.StringIO()
        t0 = clock.now()
        try:
            with redirect_stdout(out):
                code = self.vng.cli_io.main(argv)
        except Exception:
            _fail(rnd, f"{label} raised")
            return clock.now() - t0, ""
        elapsed = clock.now() - t0
        if code != 0:
            rnd.failed += 1
            print(f"operation failed: {label} exited {code}", flush=True)
        return elapsed, out.getvalue()

    def run_round(self, index: int, clock: HostClock) -> Round:
        rnd = Round()
        start, measured = clock.now(), time.perf_counter()
        for inst, problem, raw, strategies in self.files:
            stem = problem[:-5]
            failed_before = rnd.failed
            dt, said = self._call(rnd, clock, f"validate {inst.name}", ["validate", problem])
            rnd.build_s += dt
            dt, _ = self._call(rnd, clock, f"solve {inst.name}", ["solve", problem])
            rnd.solve_s += dt
            comp_seed = str(self.seed * 1000 + index)
            dt, _ = self._call(rnd, clock, f"certify {inst.name}", [
                "certify", problem, stem + ".solution.json",
                "--competitors", str(CLI_COMPETITORS), "--seed", comp_seed,
            ])
            rnd.certify_s += dt
            dt, _ = self._call(rnd, clock, f"compare {inst.name}", [
                "compare", problem, strategies,
                "--certificate", stem + ".certificate.json",
            ])
            rnd.certify_s += dt
            if rnd.failed == failed_before:
                rnd.outputs.append((inst, stem, raw, said))
        rnd.wall_s = clock.now() - start
        rnd.measured_s = time.perf_counter() - measured
        return rnd

    def check(self, rnd: Round) -> list[str]:
        fails: list[str] = []
        for k, (inst, stem, raw, said) in enumerate(rnd.outputs):
            if not said.rstrip().endswith("validate: OK"):
                fails.append(f"{inst.name}: validate did not report OK")
            with open(stem + ".solution.json") as fh:
                solution = json.load(fh)
            with open(stem + ".certificate.json") as fh:
                cert = json.load(fh)
            with open(stem + ".compare.csv") as fh:
                table = fh.read()
            rng = np.random.default_rng([self.seed, 4, k])
            fails += checks.check_cli_artifacts(
                inst, raw, solution, cert, table, rng, CHECK_COMPETITORS
            )
        return fails

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {"seeds50": Seeds50, "ladder": Ladder, "cli_roundtrip": CliRoundtrip}
