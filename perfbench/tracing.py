"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of the six ``vng`` modules
with wrappers, at every module attribute that names them, so the program's
own calls go through the wrappers while its source stays unchanged.  Timed
wrappers record a span (id, parent span, name, start, end); counting wrappers
only bump a counter, for functions called hundreds of thousands of times.
Spans and counts stay in memory; ``write`` dumps them once, at the end.
Span times come from the clock given to the tracer, the run's ``HostClock``,
so they are in the same reference seconds as the end-to-end metrics.
"""

from __future__ import annotations

import itertools
import json
import logging
import sys
from collections import Counter

# Timed targets: span name -> (module, attribute path).  Spans that share a
# group are summed outermost-only, so nested calls are not counted twice.
TIMED = {
    "scenario_tree.build_tree": ("vng.scenario_tree", "build_tree"),
    "scenario_tree.conditional_expectation": ("vng.scenario_tree", "conditional_expectation"),
    "market_model.market_constants": ("vng.market_model", "market_constants"),
    "market_model.dual_cone_violation": ("vng.market_model", "dual_cone_violation"),
    "market_model.transition_frontier_batch": ("vng.market_model", "transition_frontier_batch"),
    "objectives.log_objective": ("vng.objectives", "log_objective"),
    "solver.solve_log_optimal": ("vng.solver", "solve_log_optimal"),
    "solver.assemble": ("vng.solver", "assemble"),
    "solver.interior_start": ("vng.solver", "_interior_start"),
    "solver.sigmas": ("vng.solver", "AssembledProgram.sigmas"),
    "solver.grad_f": ("vng.solver", "AssembledProgram.grad_f"),
    "solver.neg_hess_f": ("vng.solver", "AssembledProgram.neg_hess_f"),
    "solver.splu": ("vng.solver", "splu"),
    "solver.kkt_report": ("vng.solver", "kkt_report"),
    "certification.extract_dual": ("vng.certification", "extract_dual"),
    "certification.verify_rapid": ("vng.certification", "verify_rapid"),
    "certification.supermartingale_check": ("vng.certification", "supermartingale_check"),
    "certification.sample_competitor_paths": ("vng.certification", "sample_competitor_paths"),
    "cli_io.load_problem": ("vng.cli_io", "load_problem"),
    "cli_io.write_json": ("vng.cli_io", "write_json"),
    "cli_io.atomic_write": ("vng.cli_io", "_atomic_write"),
}
GROUP = {
    "solver.sigmas": "solver.objective_eval",
    "solver.grad_f": "solver.objective_eval",
    "solver.neg_hess_f": "solver.objective_eval",
    "cli_io.atomic_write": "cli_io.write_json",
}

# Counted targets: the hottest small functions.  A name may cover several
# methods (every objective class that defines ``leaf_lift``).
COUNTED = {
    "scenario_tree.level": [("vng.scenario_tree", "ScenarioTree.level")],
    "scenario_tree.value_at": [("vng.scenario_tree", "AdaptedVector.value_at")],
    "objectives.leaf_lift": [
        ("vng.objectives", f"{cls}.leaf_lift")
        for cls in ("TerminalObjective", "LiquidationObjective", "NormPenalizedObjective")
    ],
}

MODULES = (
    "vng", "vng.scenario_tree", "vng.market_model", "vng.objectives",
    "vng.solver", "vng.certification", "vng.cli_io",
)

# Debug records of the solver that mark wasted work.
SOLVER_RECORDS = {
    "accepting stage at plateau": "solver.plateau_acceptances",
    "line search stalled": "solver.line_search_stalls",
}

# name -> (unit, how it is derived); every one is reported per round.
LAYER_METRICS = {
    "scenario_tree.level_calls": ("count", "scenario_tree.level"),
    "scenario_tree.value_at_calls": ("count", "scenario_tree.value_at"),
    "scenario_tree.conditional_expectation_s": ("s", "scenario_tree.conditional_expectation"),
    "scenario_tree.build_tree_s": ("s", "scenario_tree.build_tree"),
    "market_model.constants_calls": ("count", "market_model.market_constants"),
    "market_model.constants_s": ("s", "market_model.market_constants"),
    "market_model.lp_calls": ("count", "market_model.dual_cone_violation"),
    "market_model.lp_s": ("s", "market_model.dual_cone_violation"),
    "market_model.frontier_s": ("s", "market_model.transition_frontier_batch"),
    "objectives.leaf_lift_calls": ("count", "objectives.leaf_lift"),
    "objectives.log_objective_s": ("s", "objectives.log_objective"),
    "solver.assemble_calls": ("count", "solver.assemble"),
    "solver.assemble_s": ("s", "solver.assemble"),
    "solver.assembles_per_instance": ("ratio", None),
    "solver.interior_start_s": ("s", "solver.interior_start"),
    "solver.newton_iterations": ("count", "solver.newton_iterations"),
    "solver.outer_iterations": ("count", "solver.outer_iterations"),
    "solver.objective_eval_s": ("s", "solver.objective_eval"),
    "solver.factorizations": ("count", "solver.splu"),
    "solver.factorize_s": ("s", "solver.splu"),
    "solver.factorizations_per_iteration": ("ratio", None),
    "solver.plateau_acceptances": ("count", "solver.plateau_acceptances"),
    "solver.line_search_stalls": ("count", "solver.line_search_stalls"),
    "solver.kkt_report_s": ("s", "solver.kkt_report"),
    "certification.extract_s": ("s", "certification.extract_dual"),
    "certification.verify_s": ("s", "certification.verify_rapid"),
    "certification.supermartingale_s": ("s", "certification.supermartingale_check"),
    "certification.competitor_sample_s": ("s", "certification.sample_competitor_paths"),
    "cli_io.load_problem_s": ("s", "cli_io.load_problem"),
    "cli_io.write_json_s": ("s", "cli_io.write_json"),
    "cli_io.artifact_bytes": ("bytes", "cli_io.artifact_bytes"),
}


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class _RecordCounter(logging.Handler):
    def __init__(self, counts: Counter):
        super().__init__(logging.DEBUG)
        self.counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        msg = str(record.msg)
        for prefix, name in SOLVER_RECORDS.items():
            if msg.startswith(prefix):
                self.counts[name] += 1


class Tracer:
    """Install with ``with Tracer(clock.now) as tr:``; read ``tr.layer_metrics(...)``."""

    def __init__(self, now) -> None:
        self.now = now
        self.spans: list[tuple] = []   # (id, parent, name, start, end, outermost)
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._open_groups: Counter = Counter()
        self._patches: list[tuple] = []
        self._handler = _RecordCounter(self.counts)
        self.missing: set[str] = set()

    # -- wrappers ----------------------------------------------------------------

    def _timed(self, name: str, fn):
        group = GROUP.get(name, name)
        spans, stack, open_groups, ids = self.spans, self._stack, self._open_groups, self._ids
        counts, now = self.counts, self.now
        is_solve = name == "solver.solve_log_optimal"
        is_write = name == "cli_io.atomic_write"

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            outermost = open_groups[group] == 0
            open_groups[group] += 1
            stack.append(sid)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                open_groups[group] -= 1
                spans.append((sid, parent, name, start, end, outermost))
            if is_solve:
                counts["solver.newton_iterations"] += result.iterations
                counts["solver.outer_iterations"] += result.outer_iterations
            if is_write:
                counts["cli_io.artifact_bytes"] += len(args[1].encode())
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / remove --------------------------------------------------------

    def _patch(self, name: str, module: str, path: str, make) -> None:
        try:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
        except AttributeError:
            # The program no longer has this function: its metric reads 0.
            self.missing.add(f"{module}.{path}")
            return
        wrapper = make(name, original)
        if isinstance(owner, type):
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
            return
        # Module-level function: rebind every module attribute naming it.
        for mod_name in MODULES:
            mod = sys.modules[mod_name]
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, key, val))
                    setattr(mod, key, wrapper)

    def __enter__(self) -> "Tracer":
        for name, (module, path) in TIMED.items():
            self._patch(name, module, path, self._timed)
        for name, targets in COUNTED.items():
            for module, path in targets:
                self._patch(name, module, path, self._counted)
        log = logging.getLogger("vng.solver")
        self._log_state = (log.level, log.propagate)
        log.setLevel(logging.DEBUG)
        log.propagate = False
        log.addHandler(self._handler)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        log = logging.getLogger("vng.solver")
        log.removeHandler(self._handler)
        log.setLevel(self._log_state[0])
        log.propagate = self._log_state[1]

    # -- results -----------------------------------------------------------------

    def seconds(self, group: str) -> float:
        return sum(
            end - start for _, _, name, start, end, outer in self.spans
            if outer and GROUP.get(name, name) == group
        )

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[2] == name)

    def layer_metrics(self, rounds: int, instances: int) -> dict[str, dict]:
        """Every per-layer metric, per round."""
        values: dict[str, float] = {}
        for metric, (unit, source) in LAYER_METRICS.items():
            if source is None:
                continue
            if unit == "s":
                values[metric] = self.seconds(source)
            elif source in TIMED:
                values[metric] = self.calls(source)
            else:
                values[metric] = self.counts[source]
        values = {k: v / rounds for k, v in values.items()}
        values["solver.assembles_per_instance"] = (
            values["solver.assemble_calls"] / instances
        )
        values["solver.factorizations_per_iteration"] = (
            values["solver.factorizations"] / max(values["solver.newton_iterations"], 1)
        )
        return {
            metric: {"value": values[metric], "unit": unit}
            for metric, (unit, _) in LAYER_METRICS.items()
        }

    def write(self, path: str, extra: dict) -> None:
        doc = {
            **extra,
            "missing_targets": sorted(self.missing),
            "counts": dict(self.counts),
            "span_fields": ["id", "parent", "name", "start", "end", "outermost"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
