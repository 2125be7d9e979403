"""Show that the seeds50 generator reproduces the 50 acceptance instances.

Compares every array of ``inputs.seeds50_instance(s)`` bit for bit with the
problem that ``tests/conftest.make_instance(s)`` builds, for s = 0..49.  Run
from the root of a checkout (needs numpy, scipy and pytest):

    python3 perfbench/check_inputs.py

Exits 0 when all fifty match, or exits 1 naming the first instance and
fields that differ.
"""

from __future__ import annotations

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import inputs  # noqa: E402
from conftest import make_instance  # noqa: E402


def differences(seed: int) -> list[str]:
    mine = inputs.seeds50_instance(seed)
    theirs = make_instance(seed)
    tree, market, obj = theirs.tree, theirs.market, theirs.objective
    out = []
    if [n.node_id for n in tree.nodes] != mine.ids:
        out.append("node ids")
    parents = [-1 if n.parent is None else n.parent for n in tree.nodes]
    if parents != mine.parent.tolist():
        out.append("parents")
    if [n.cond_prob for n in tree.nodes] != mine.cond_prob.tolist():
        out.append("probabilities")
    pairs = {
        "returns": (market.returns, mine.returns),
        "lambda_plus": (market.lam_plus, mine.lam_plus),
        "lambda_minus": (market.lam_minus, mine.lam_minus),
        "margins": (market.margins, mine.margins),
        "x0": (theirs.x0, mine.x0),
    }
    variant = mine.objective["variant"]
    if variant == "linear":
        pairs["q"] = (obj.q, np.tile(mine.objective["q"], (len(obj.q), 1)))
    if variant == "norm_penalized":
        pairs["theta"] = (obj.theta, np.full(len(obj.theta), mine.objective["theta"]))
        if obj.norm != mine.objective["norm"]:
            out.append("norm")
    expected = {"LinearObjective": "linear", "LiquidationObjective": "liquidation",
                "NormPenalizedObjective": "norm_penalized"}[type(obj).__name__]
    if expected != variant:
        out.append("objective variant")
    for field, (a, b) in pairs.items():
        if not np.array_equal(a, b, equal_nan=True):
            out.append(field)
    return out


def main() -> int:
    for seed in range(inputs.SEEDS50_COUNT):
        diff = differences(seed)
        if diff:
            print(f"instance {seed}: differs in {', '.join(diff)}")
            return 1
    print(f"all {inputs.SEEDS50_COUNT} acceptance instances reproduced bit for bit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
