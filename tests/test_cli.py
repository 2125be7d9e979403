"""Command-line surface: parsing, exit codes, file round-trips, referees."""

import argparse
import copy
import json
import logging
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import vng
import vng.cli_io as cli
from oracles import dual_bar, node_rows_loop
from vng.errors import InfeasibleStart, LPFailure, NotCertified, ParseError

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name in os.listdir(FIXTURES):
        shutil.copy(os.path.join(FIXTURES, name), tmp_path / name)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv) -> int:
    return cli.main(list(argv))


def tilt_kelly_solution(workdir) -> None:
    """Solve kelly, then tilt p_1 at "mid" by (0.005, -0.005) in its multipliers.

    x_0 = (0.5, 0.5) does not price the tilt, so normalization and
    membership still hold; but at the frictionless node the tilted price
    breaks the transition inequality, which only the LP can decide.
    """
    assert run("solve", "kelly.json") == cli.EXIT_OK
    problem = cli.load_problem("kelly.json")[0]
    prog = vng.assemble(problem)
    # the multipliers of mid's plus min-form rows, asset 0 then asset 1
    plus = prog.node_rows(np.arange(prog.n_cons))["plus"]
    row = plus[problem.tree.index("mid") - 1]
    doc = json.loads((workdir / "kelly.solution.json").read_text())
    doc["multipliers"][row[0]] += 0.005
    doc["multipliers"][row[1]] -= 0.005
    (workdir / "kelly.solution.json").write_text(json.dumps(doc))


class TestValidate:
    def test_kelly_ok(self, workdir, capsys):
        assert run("validate", "kelly.json") == 0
        out = capsys.readouterr().out
        assert "validate: OK" in out
        assert "nu" in out

    def test_malformed_json_is_parse_error(self, workdir):
        (workdir / "broken.json").write_text("{ not json")
        assert run("validate", "broken.json") == cli.EXIT_PARSE

    def test_missing_field_is_parse_error(self, workdir):
        doc = json.loads((workdir / "kelly.json").read_text())
        del doc["market"]["returns"]
        (workdir / "bad.json").write_text(json.dumps(doc))
        assert run("validate", "bad.json") == cli.EXIT_PARSE

    def test_unit_margin_rejected(self, workdir):
        doc = json.loads((workdir / "kelly.json").read_text())
        doc["market"]["margins"] = 1.0
        (workdir / "bad.json").write_text(json.dumps(doc))
        assert run("validate", "bad.json") == cli.EXIT_MARGIN

    def test_margin_below_nu_rejected(self, workdir):
        # nu_1 = 1.4 / 0.7 = 2 in the kelly tree, so 1.5 is too tight
        doc = json.loads((workdir / "kelly.json").read_text())
        doc["market"]["margins"] = 1.5
        (workdir / "bad.json").write_text(json.dumps(doc))
        assert run("validate", "bad.json") == cli.EXIT_MARGIN

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_start_whose_radius_overflows_is_parse_error(self, workdir, capsys, command):
        doc = json.loads((workdir / "kelly.json").read_text())
        doc["initial_portfolio"] = [1e308, 1e308]
        (workdir / "big.json").write_text(json.dumps(doc))
        assert run(command, "big.json") == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert "initial_portfolio" in err and "radius inf" in err
        assert "Warning" not in err

    def test_start_whose_frontier_overflows_names_the_node(self, workdir, capsys):
        doc = json.loads((workdir / "kelly.json").read_text())
        x0 = doc["initial_portfolio"]
        for scale, code in ((1e100, cli.EXIT_OK), (1e160, cli.EXIT_LIBRARY)):
            doc["initial_portfolio"] = [scale * x for x in x0]
            (workdir / "big.json").write_text(json.dumps(doc))
            assert run("solve", "big.json") == code
        err = capsys.readouterr().err
        assert "InfeasibleStart: the self-financing frontier at node 'up' is not finite" in err
        assert "Warning" not in err


class TestSolveCertify:
    def test_pipeline_exit_codes(self, workdir):
        assert run("solve", "kelly.json") == 0
        assert run("certify", "kelly.json", "kelly.solution.json") == 0
        cert = json.loads((workdir / "kelly.certificate.json").read_text())
        assert cert["verdict"] == "certified"
        assert "supermartingale" in cert
        # the proof leaves the frictionless nodes open; their bounds settle them
        assert cert["transition_lp_nodes"] == []

    @pytest.mark.parametrize("tilt", [False, True], ids=["certified", "refuted"])
    def test_certificate_names_the_tightest_entries(self, workdir, tilt):
        if tilt:
            tilt_kelly_solution(workdir)
        else:
            assert run("solve", "kelly.json") == cli.EXIT_OK
        code = run("certify", "kelly.json", "kelly.solution.json")
        assert code == (cli.EXIT_REFUTED if tilt else cli.EXIT_OK)
        cert = json.loads((workdir / "kelly.certificate.json").read_text())
        tol = cert["tolerance"]
        tables = {
            "normalization": ("date", dict(enumerate(cert["normalization_by_t"]))),
            "membership": ("node", cert["membership_by_node"]),
            "transition": ("node", cert["transition_by_node"]),
            "feasibility": ("node", cert["feasibility_by_node"]),
        }
        assert set(cert["tightest"]) == set(tables)
        for name, (label, table) in tables.items():
            entry = cert["tightest"][name]
            worst = max(table.values())
            assert table[entry[label]] == entry["value"] == worst
            assert entry["slack"] == tol - worst
        transition = cert["tightest"]["transition"]
        if tilt:
            assert transition["node"] == "mid" and transition["slack"] < 0.0
        else:
            assert 0.0 < transition["value"] <= 1e-14 and transition["slack"] > 0.0

    @pytest.mark.parametrize("stem", ["kelly", "two_asset_margin"])
    def test_supermartingale_report_is_worst_library_check(self, workdir, stem):
        """certify's report folds supermartingale_check over its competitors."""
        assert run("solve", f"{stem}.json") == 0
        assert run("certify", f"{stem}.json", f"{stem}.solution.json",
                   "--competitors", "20", "--seed", "3") == 0
        problem = cli.load_problem(f"{stem}.json")[0]
        sdoc = json.loads((workdir / f"{stem}.solution.json").read_text())
        path = cli.solution_from_doc(sdoc, problem).path
        cert = json.loads((workdir / f"{stem}.certificate.json").read_text())
        dual = cli.dual_from_doc(problem.tree, cert["dual"], problem.market.m)
        rng = np.random.default_rng(3)
        reports = [
            vng.supermartingale_check(dual, y, problem.tree)
            for y in vng.sample_competitor_paths(
                problem.tree, problem.market, rng, problem.x0, 20
            )
        ]
        assert cert["supermartingale"] == {
            "first_form": max([0.0] + [r.first_form for r in reports]),
            "second_form": max([0.0] + [r.second_form for r in reports]),
            "rapid_equality_gap":
                vng.supermartingale_check(dual, path, problem.tree).equality_gap,
        }

    def test_solution_roundtrip_lossless(self, workdir):
        run("solve", "single_asset.json")
        doc = json.loads((workdir / "single_asset.solution.json").read_text())
        rewritten = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        assert rewritten == (workdir / "single_asset.solution.json").read_text()
        for v in doc["z"]:
            assert float(repr(float(v))) == float(v)

    @pytest.mark.parametrize("tol", ["1e20", "1e300"])
    @pytest.mark.parametrize("stem", ["kelly", "single_asset", "two_asset_margin"])
    def test_huge_tol_stops_at_the_start_mu(self, workdir, stem, tol):
        """The final mu is 1e-2 tol but never above the interior start's
        mu = 1, so a huge tol centers once at mu = 1 and converges."""
        assert run("solve", f"{stem}.json", "--tol", tol) == cli.EXIT_OK
        doc = json.loads((workdir / f"{stem}.solution.json").read_text())
        assert doc["converged"] is True
        assert doc["mu_final"] == 1.0

    def test_nonconvergence_exit(self, workdir):
        assert run("solve", "kelly.json", "--max-iter", "3") == cli.EXIT_NONCONVERGENCE
        # the flagged best-effort file is written but certify refuses it
        assert (
            run("certify", "kelly.json", "kelly.solution.json")
            == cli.EXIT_NONCONVERGENCE
        )

    def test_iteration_cap_below_need_exits_nonconvergence(self, workdir):
        assert run("solve", "kelly.json") == 0
        needed = json.loads((workdir / "kelly.solution.json").read_text())["iterations"]
        assert (
            run("solve", "kelly.json", "--max-iter", str(needed - 1))
            == cli.EXIT_NONCONVERGENCE
        )
        doc = json.loads((workdir / "kelly.solution.json").read_text())
        assert doc["converged"] is False

    def test_digest_mismatch(self, workdir):
        run("solve", "kelly.json")
        assert (
            run("certify", "single_asset.json", "kelly.solution.json")
            == cli.EXIT_DIGEST
        )

    def test_options_change_invalidates_digest(self, workdir):
        run("solve", "kelly.json", "--tol", "1e-09")
        doc = json.loads((workdir / "kelly.solution.json").read_text())
        doc["options"]["tol"] = 1e-8
        (workdir / "kelly.solution.json").write_text(json.dumps(doc))
        assert (
            run("certify", "kelly.json", "kelly.solution.json") == cli.EXIT_DIGEST
        )

    def test_tampered_path_refuted_with_witness(self, workdir, capsys):
        run("solve", "kelly.json")
        doc = json.loads((workdir / "kelly.solution.json").read_text())
        doc["path"]["up"] = [v * 1.05 for v in doc["path"]["up"]]
        (workdir / "kelly.solution.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert (
            run("certify", "kelly.json", "kelly.solution.json") == cli.EXIT_REFUTED
        )
        cert = json.loads((workdir / "kelly.certificate.json").read_text())
        assert cert["verdict"] == "refuted"
        assert cert["witness"] is not None
        # the refuted line names the file's witness kind
        assert capsys.readouterr().out.endswith(f" witness={cert['witness']['kind']}\n")

    @pytest.mark.filterwarnings("error")
    def test_zero_leaf_state_refuted_without_traceback(self, workdir, capsys, caplog):
        """A leaf state of 0 makes that leaf's terminal price p / (p . 0)
        non-finite; it is refuted by membership, and no LP is posed on it.
        No numpy warning is raised: one log line names the row."""
        run("solve", "kelly.json")
        doc = json.loads((workdir / "kelly.solution.json").read_text())
        doc["path"]["up"] = [0.0, 0.0]
        (workdir / "kelly.solution.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert (
            run("certify", "kelly.json", "kelly.solution.json") == cli.EXIT_REFUTED
        )
        printed = capsys.readouterr()
        assert "Traceback" not in printed.err
        assert printed.out.endswith(" witness=dual_cone_membership\n")
        logged = [r.getMessage() for r in caplog.records if r.name == "vng.certification"]
        assert logged == ["non-finite price rows: 1, the first p_3@up"]
        cert = json.loads((workdir / "kelly.certificate.json").read_text())
        assert cert["witness"]["kind"] == "dual_cone_membership"
        assert cert["witness"]["node"] == "up"
        assert cert["transition_by_node"]["up"] == float("inf")
        assert "up" not in cert["transition_lp_nodes"]

    @pytest.mark.parametrize(
        "damage", ["no_residuals", "short_z", "short_multipliers", "null_multiplier"]
    )
    def test_malformed_solution_is_parse_error(self, workdir, damage):
        run("solve", "kelly.json")
        doc = json.loads((workdir / "kelly.solution.json").read_text())
        if damage == "no_residuals":
            del doc["residuals"]
        elif damage == "short_z":
            doc["z"] = doc["z"][:-1]
        elif damage == "short_multipliers":
            doc["multipliers"] = doc["multipliers"][:-1]
        else:
            doc["multipliers"][5] = None
        (workdir / "kelly.solution.json").write_text(json.dumps(doc))
        assert (
            run("certify", "kelly.json", "kelly.solution.json") == cli.EXIT_PARSE
        )

    def test_certificate_reverification_reproduces_residuals(self, workdir):
        import vng
        run("solve", "two_asset_margin.json")
        run("certify", "two_asset_margin.json", "two_asset_margin.solution.json")
        first = json.loads((workdir / "two_asset_margin.certificate.json").read_text())
        run("certify", "two_asset_margin.json", "two_asset_margin.solution.json")
        second = json.loads((workdir / "two_asset_margin.certificate.json").read_text())
        assert first["normalization_by_t"] == second["normalization_by_t"]
        assert first["transition_by_node"] == second["transition_by_node"]
        # re-running verification on the stored path + dual reproduces the
        # stored residuals
        problem, _, _ = cli.load_problem("two_asset_margin.json")
        path = cli._node_rows(first["path"], problem.tree.ids, problem.market.m, "path")
        dual = cli.dual_from_doc(problem.tree, first["dual"], problem.market.m)
        cert = vng.verify_rapid(path, dual, problem.tree, problem.market,
                                tol=first["tolerance"])
        for t, value in enumerate(first["normalization_by_t"]):
            assert abs(cert.normalization[t] - value) <= 1e-12
        for node_id, value in first["transition_by_node"].items():
            assert abs(cert.transition[problem.tree.index(node_id) - 1] - value) <= 1e-12

    def test_tol_flag_plumbs_into_report(self, workdir):
        run("solve", "kelly.json", "--tol", "1e-10", "--out", "tight.json")
        doc = json.loads((workdir / "tight.json").read_text())
        assert doc["options"]["tol"] == 1e-10
        assert doc["residuals"]["complementarity"] <= 1e-10

    def test_prices_input_equivalent_to_returns(self, workdir):
        doc = json.loads((workdir / "single_asset.json").read_text())
        del doc["market"]["returns"]
        doc["market"]["prices"] = {"root": [100.0], "up": [120.0], "down": [90.0]}
        (workdir / "priced.json").write_text(json.dumps(doc))
        assert run("solve", "priced.json") == 0
        run("solve", "single_asset.json")
        a = json.loads((workdir / "priced.solution.json").read_text())
        b = json.loads((workdir / "single_asset.solution.json").read_text())
        assert a["objective_value"] == b["objective_value"]


class TestBoundToProblem:
    """What certify and compare accept belongs to the problem file: its
    objective and its x0, checked on every read."""

    def test_solve_has_no_objective_option(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            run("solve", "two_asset_margin.json", "--objective", "linear")
        assert exc.value.code == cli.EXIT_PARSE
        assert "--objective" in capsys.readouterr().err
        assert not (workdir / "two_asset_margin.solution.json").exists()

    def test_rescaled_solution_refuted_at_the_start(self, workdir, capsys):
        """Path doubled and multipliers halved: the dual halves with them,
        so only the start at x0 = [0.5, 0.5] refutes the [1, 1] root."""
        run("solve", "kelly.json")
        doc = json.loads((workdir / "kelly.solution.json").read_text())
        doc["path"] = {nid: [2.0 * v for v in row] for nid, row in doc["path"].items()}
        doc["multipliers"] = [0.5 * v for v in doc["multipliers"]]
        (workdir / "kelly.solution.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("certify", "kelly.json", "kelly.solution.json") == cli.EXIT_REFUTED
        out = capsys.readouterr().out
        assert out.startswith("certify: refuted ") and out.endswith(" witness=start\n")
        cert = json.loads((workdir / "kelly.certificate.json").read_text())
        assert cert["verdict"] == "refuted"
        assert cert["witness"] == {"kind": "start", "node": "root", "value": 1.0,
                                   "layer": 0}

    @pytest.mark.parametrize("field, factor, witness", [
        ("multipliers", 1e300, "normalization"),
        ("path", 1e-200, "start"),
    ])
    def test_extreme_rescaling_refuted_not_lp_failure(self, workdir, capsys, field,
                                                      factor, witness):
        """Multipliers times 1e300, or a path times 1e-200, put prices near
        1e300 into the transition LP, which runs at a power-of-two scale of
        its prices: it decides, and the run is refuted, not an LP failure."""
        run("solve", "kelly.json")
        doc = json.loads((workdir / "kelly.solution.json").read_text())
        if field == "path":
            doc["path"] = {nid: [factor * v for v in row]
                           for nid, row in doc["path"].items()}
        else:
            doc["multipliers"] = [factor * v for v in doc["multipliers"]]
        (workdir / "kelly.solution.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("certify", "kelly.json", "kelly.solution.json") == cli.EXIT_REFUTED
        out = capsys.readouterr().out
        assert out.startswith("certify: refuted ")
        assert out.endswith(f" witness={witness}\n")

    def tampered_certificate(self, workdir, edit) -> None:
        run("solve", "kelly.json")
        assert run("certify", "kelly.json", "kelly.solution.json") == cli.EXIT_OK
        doc = json.loads((workdir / "kelly.certificate.json").read_text())
        assert doc["verdict"] == "certified"
        edit(doc)
        (workdir / "kelly.certificate.json").write_text(json.dumps(doc))

    def compare(self, capsys) -> tuple[int, str]:
        capsys.readouterr()
        code = run("compare", "kelly.json", "strategies.json",
                   "--certificate", "kelly.certificate.json")
        return code, capsys.readouterr().out

    @staticmethod
    def scale_dual(doc, c) -> None:
        doc["dual"] = {
            layer: {nid: [c * v for v in row] for nid, row in table.items()}
            for layer, table in doc["dual"].items()
        }

    @pytest.mark.parametrize("dual_factor, path_factor", [(3.0, 0.5), (0.5, 2.0)],
                             ids=["off_normalization", "off_start"])
    def test_tampered_certificate_refuted(self, workdir, capsys, dual_factor,
                                          path_factor):
        """Under a stored "certified", the content is verified again and
        refuted, and no table is written: dual tripled and path halved fail
        normalization; dual halved and path doubled fail only the start."""
        def edit(doc):
            self.scale_dual(doc, dual_factor)
            doc["path"] = {nid: [path_factor * v for v in row]
                           for nid, row in doc["path"].items()}

        self.tampered_certificate(workdir, edit)
        assert self.compare(capsys) == (
            cli.EXIT_REFUTED, "compare: stored certificate is refuted\n"
        )
        assert not (workdir / "kelly.compare.csv").exists()

    @pytest.mark.parametrize("tolerance", [1.0, 1e300])
    def test_stored_tolerance_does_not_loosen_the_check(self, workdir, capsys, tolerance):
        """A dual scaled by 1.5 is off in normalization by 0.5: within the
        stored tolerance, but not within CERT_TOL_DEFAULT."""
        def edit(doc):
            self.scale_dual(doc, 1.5)
            doc["tolerance"] = tolerance

        self.tampered_certificate(workdir, edit)
        assert self.compare(capsys) == (
            cli.EXIT_REFUTED, "compare: stored certificate is refuted\n"
        )


class TestCompare:
    def test_compare_writes_expected_columns(self, workdir):
        run("solve", "kelly.json")
        run("certify", "kelly.json", "kelly.solution.json")
        assert run(
            "compare", "kelly.json", "strategies.json",
            "--certificate", "kelly.certificate.json",
        ) == 0
        lines = (workdir / "kelly.compare.csv").read_text().strip().splitlines()
        assert lines[0] == (
            "strategy_id,t,node_count,max_conditional_growth,mean_growth,F_value"
        )
        assert len(lines) == 1 + 3 * 2  # three strategies, two periods
        for line in lines[1:]:
            parts = line.split(",")
            assert float(parts[3]) <= 1.0 + 1e-8

    def test_rapid_vs_itself_all_ones(self, workdir):
        run("solve", "kelly.json")
        run("certify", "kelly.json", "kelly.solution.json")
        (workdir / "only_rapid.json").write_text(
            json.dumps({"strategies": [{"id": "rapid", "type": "rapid"}]})
        )
        run("compare", "kelly.json", "only_rapid.json",
            "--certificate", "kelly.certificate.json")
        lines = (workdir / "kelly.compare.csv").read_text().strip().splitlines()
        for line in lines[1:]:
            parts = line.split(",")
            assert float(parts[3]) == pytest.approx(1.0, abs=1e-8)
            assert float(parts[4]) == pytest.approx(1.0, abs=1e-8)

    def test_empty_strategy_list_header_only(self, workdir):
        (workdir / "none.json").write_text(json.dumps({"strategies": []}))
        assert run("compare", "kelly.json", "none.json") == 0
        lines = (workdir / "kelly.compare.csv").read_text().splitlines()
        assert len(lines) == 1

    def test_certificate_without_path_is_parse_error(self, workdir):
        run("solve", "kelly.json")
        run("certify", "kelly.json", "kelly.solution.json")
        doc = json.loads((workdir / "kelly.certificate.json").read_text())
        del doc["path"]
        (workdir / "kelly.certificate.json").write_text(json.dumps(doc))
        assert run(
            "compare", "kelly.json", "strategies.json",
            "--certificate", "kelly.certificate.json",
        ) == cli.EXIT_PARSE

    def test_non_numeric_weights_are_parse_error(self, workdir):
        (workdir / "bad_weights.json").write_text(json.dumps({"strategies": [
            {"id": "ff", "type": "fixed_fraction", "weights": "abc"},
        ]}))
        assert run("compare", "kelly.json", "bad_weights.json") == cli.EXIT_PARSE

    def test_weights_whose_norm_overflows_are_parse_error(self, workdir, capsys):
        def rows(weights):
            (workdir / "ff.json").write_text(json.dumps({"strategies": [
                {"id": "ff", "type": "fixed_fraction", "weights": weights},
            ]}))
            code = run("compare", "kelly.json", "ff.json")
            return code, (workdir / "kelly.compare.csv").read_text()

        code, unit = rows([1.0, 1.0])
        assert code == cli.EXIT_OK
        # homogeneity: a huge but summable weight vector gives the same rows
        assert rows([1e300, 1e300]) == (cli.EXIT_OK, unit)
        capsys.readouterr()
        assert rows([1e308, 1e308])[0] == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert "strategy.weights" in err and "Warning" not in err

    @pytest.mark.parametrize("doc", [
        [{"id": "rapid", "type": "rapid"}],
        {"strategies": [{"id": "rapid", "type": 3}]},
        {"strategies": ["rapid"]},
        {"strategies": [{"id": None, "type": "rapid"}]},
        {"strategies": [{"id": True, "type": "rapid"}]},
        {"strategies": [{"id": 3, "type": "rapid"}]},
    ], ids=["document_is_list", "type_is_int", "entry_is_string", "id_is_null",
            "id_is_bool", "id_is_int"])
    def test_malformed_strategies_are_parse_errors(self, workdir, doc):
        (workdir / "bad.json").write_text(json.dumps(doc))
        assert run("compare", "kelly.json", "bad.json") == cli.EXIT_PARSE

    def test_lp_failure_exit_code(self, workdir, monkeypatch):
        def boom(*args, **kwargs):
            raise LPFailure("synthetic breakdown")

        tilt_kelly_solution(workdir)  # a node whose bound exceeds tol
        monkeypatch.setattr("vng.certification.dual_cone_violation", boom)
        assert run("certify", "kelly.json", "kelly.solution.json") == cli.EXIT_LP

    @pytest.mark.parametrize("error", [
        InfeasibleStart("no interior start"),
        NotCertified("refused"),
        FloatingPointError("newton system could not be factorized"),
    ], ids=lambda e: type(e).__name__)
    def test_other_library_errors_exit_library(self, workdir, monkeypatch, capsys, error):
        def boom(*args, **kwargs):
            raise error

        monkeypatch.setattr("vng.cli_io.solve_log_optimal", boom)
        assert run("solve", "kelly.json") == cli.EXIT_LIBRARY
        assert run("compare", "kelly.json", "strategies.json") == cli.EXIT_LIBRARY
        assert type(error).__name__ in capsys.readouterr().err


    def test_unexpected_exception_exits_library_with_traceback(self, workdir, capsys):
        """An exception outside the library's errors is a fault, never a
        refutation: numpy refuses 2^62 competitor paths before allocating,
        and the run exits 7 with the traceback and one error line."""
        run("solve", "kelly.json")
        capsys.readouterr()
        code = run("certify", "kelly.json", "kelly.solution.json",
                   "--competitors", str(2**62))
        assert code == cli.EXIT_LIBRARY
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert err.splitlines()[-1].startswith("error: ValueError: array is too big")


class TestStoredVerdict:
    def test_missing_verdict_is_parse_error(self, workdir, capsys):
        # the solution file carries the same digest, so only its verdict fails
        run("solve", "kelly.json")
        capsys.readouterr()
        assert run(
            "compare", "kelly.json", "strategies.json",
            "--certificate", "kelly.solution.json",
        ) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert "'verdict'" in captured.err and "refuted" not in captured.out

    @pytest.mark.parametrize("verdict", ["Certified", "", 1])
    def test_unknown_verdict_is_parse_error(self, workdir, verdict):
        run("solve", "kelly.json")
        run("certify", "kelly.json", "kelly.solution.json")
        doc = json.loads((workdir / "kelly.certificate.json").read_text())
        doc["verdict"] = verdict
        (workdir / "kelly.certificate.json").write_text(json.dumps(doc))
        assert run(
            "compare", "kelly.json", "strategies.json",
            "--certificate", "kelly.certificate.json",
        ) == cli.EXIT_PARSE

    def test_refuted_verdict_exits_refuted(self, workdir, capsys):
        tilt_kelly_solution(workdir)
        assert run("certify", "kelly.json", "kelly.solution.json") == cli.EXIT_REFUTED
        capsys.readouterr()
        assert run(
            "compare", "kelly.json", "strategies.json",
            "--certificate", "kelly.certificate.json",
        ) == cli.EXIT_REFUTED
        assert capsys.readouterr().out == "compare: stored certificate is refuted\n"


class TestUnwritableOutput:
    """An output file that cannot be written exits 2 and leaves no temporary file."""

    COMMANDS = {
        "solve": ["solve", "kelly.json"],
        "certify": ["certify", "kelly.json", "kelly.solution.json"],
        "compare": ["compare", "kelly.json", "strategies.json"],
    }

    @pytest.mark.parametrize("target", ["missing_dir", "directory", "dot"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_exits_parse_without_traceback(self, workdir, capsys, command, target):
        assert run("solve", "kelly.json") == cli.EXIT_OK
        (workdir / "sub").mkdir()
        out = {"missing_dir": str(workdir / "missing" / "x.out"),
               "directory": "sub", "dot": "."}[target]
        before = sorted(p.name for p in workdir.rglob("*"))
        capsys.readouterr()
        assert run(*self.COMMANDS[command], "--out", out) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert sorted(p.name for p in workdir.rglob("*")) == before

    def test_process_exits_parse_with_one_error_line(self, workdir):
        # only a real process shows an uncaught exception's exit status 1
        path = os.pathsep.join(filter(None, [TestStartup.SRC, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "vng.cli_io", "solve", "kelly.json",
             "--out", str(workdir / "missing" / "x.json")],
            cwd=workdir, env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == cli.EXIT_PARSE
        assert done.stdout == ""
        assert done.stderr.splitlines() == [
            f"error: cannot write {workdir / 'missing' / 'x.json'}: "
            "No such file or directory"
        ]


class TestParserReuse:
    """``main`` may run many times in one process on one shared parser."""

    def test_parser_is_built_once(self, workdir, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        assert run("validate", "kelly.json") == cli.EXIT_OK
        assert built  # the root parser and one per command
        first = list(built)
        assert run("solve", "kelly.json") == cli.EXIT_OK
        assert run("certify", "kelly.json", "kelly.solution.json") == cli.EXIT_OK
        assert run("validate", "kelly.json") == cli.EXIT_OK
        assert built == first
        assert cli.build_parser() is cli.build_parser()

    def test_options_do_not_leak_between_calls(self, workdir):
        cli.build_parser.cache_clear()
        assert run("solve", "kelly.json", "--out", "first.json") == cli.EXIT_OK
        assert run("solve", "kelly.json", "--tol", "1e-10", "--max-iter", "500",
                   "--out", "tight.json") == cli.EXIT_OK
        assert run("solve", "kelly.json") == cli.EXIT_OK
        first, tight, plain = (json.loads((workdir / name).read_text()) for name in
                               ("first.json", "tight.json", "kelly.solution.json"))
        assert tight["options"]["tol"] == 1e-10 and tight["digest"] != first["digest"]
        assert plain["options"] == first["options"]
        assert plain["digest"] == first["digest"]

    @pytest.mark.parametrize("argv, code", [
        (["solve", "--tol", "x", "kelly.json"], 2),
        (["frobnicate"], 2),
        ([], 2),
        (["--help"], 0),
        (["certify", "--help"], 0),
    ], ids=["bad_float", "unknown_command", "no_command", "help", "command_help"])
    def test_calls_after_an_exit_still_work(self, workdir, capsys, argv, code):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == code
        capsys.readouterr()
        assert run("validate", "kelly.json") == cli.EXIT_OK
        assert capsys.readouterr().out.rstrip().endswith("validate: OK")

    def test_patched_command_is_the_one_that_runs(self, workdir, monkeypatch):
        cli.build_parser()  # cached before the patch
        seen = []
        monkeypatch.setattr(cli, "cmd_validate", lambda args: seen.append(args) or 42)
        assert run("validate", "kelly.json") == 42
        assert [(a.command, a.problem) for a in seen] == [("validate", "kelly.json")]


# Runs ``main(["validate", ...])`` in one fresh interpreter once per VNG_LOG
# value given on argv, and prints the root logger's level and handler count
# after each call.
LOG_PROBE = """
import json, logging, os, sys
import vng.cli_io

seen = []
for level in sys.argv[1:]:
    os.environ["VNG_LOG"] = level
    assert vng.cli_io.main(["validate", "kelly.json"]) == 0
    root = logging.getLogger()
    seen.append([root.level, len(root.handlers)])
print(json.dumps(seen))
"""


class TestLogLevelPerCall:
    def test_every_main_call_reads_vng_log(self, workdir):
        path = os.pathsep.join(filter(None, [TestStartup.SRC, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", LOG_PROBE, "error", "debug", "warn"],
            cwd=workdir, env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=300, check=True,
        )
        seen = json.loads(out.stdout.strip().splitlines()[-1])
        assert seen == [[logging.ERROR, 1], [logging.DEBUG, 1], [logging.WARNING, 1]]


class TestOutputMode:
    """Every output gets the mode ``open(path, "w")`` would: 0o666 less the umask."""

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_outputs_honour_the_umask(self, workdir, umask):
        old = os.umask(umask)
        try:
            (workdir / "touched").touch()
            assert run("solve", "kelly.json") == cli.EXIT_OK
            assert run("certify", "kelly.json", "kelly.solution.json") == cli.EXIT_OK
            assert run("compare", "kelly.json", "strategies.json") == cli.EXIT_OK
            # an existing file takes the new mode too
            os.chmod(workdir / "kelly.solution.json", 0o600)
            assert run("solve", "kelly.json") == cli.EXIT_OK
        finally:
            os.umask(old)
        expected = 0o666 & ~umask
        assert (workdir / "touched").stat().st_mode & 0o777 == expected
        for name in ("kelly.solution.json", "kelly.certificate.json", "kelly.compare.csv"):
            assert (workdir / name).stat().st_mode & 0o777 == expected, name


class TestGolden:
    """Byte-identical summaries, certificates and CSV under a fixed seed."""

    def _golden(self, name):
        return os.path.join(os.path.dirname(__file__), "golden", name)

    @staticmethod
    def _masked(raw: bytes) -> bytes:
        """The certificate with its one run-dependent value, wall_time, set to 0.0."""
        out, count = re.subn(rb'"wall_time": [^,\n]+', b'"wall_time": 0.0', raw)
        assert count == 1
        return out

    @pytest.mark.parametrize(
        "fixture", ["kelly", "single_asset", "two_asset_margin"]
    )
    def test_pipeline_golden(self, workdir, capsys, fixture):
        assert run("validate", f"{fixture}.json") == 0
        assert run("solve", f"{fixture}.json") == 0
        assert run("certify", f"{fixture}.json", f"{fixture}.solution.json") == 0
        assert run(
            "compare", f"{fixture}.json", "strategies.json"
            if fixture != "single_asset" else "single_strategies.json",
            "--certificate", f"{fixture}.certificate.json",
        ) == 0
        out = capsys.readouterr().out
        with open(self._golden(f"{fixture}.summary.txt")) as fh:
            assert out == fh.read()
        with open(self._golden(f"{fixture}.compare.csv"), "rb") as fh:
            assert (workdir / f"{fixture}.compare.csv").read_bytes() == fh.read()
        with open(self._golden(f"{fixture}.certificate.json"), "rb") as fh:
            written = (workdir / f"{fixture}.certificate.json").read_bytes()
            assert self._masked(written) == fh.read()


# --- start-up: no scipy at import; HiGHS (scipy.optimize) loads only for an LP -------

# Imports vng, runs the CLI commands given on argv (a JSON list of argument
# lists) and prints the scipy modules loaded after the import and at the
# end.  Each test needs a fresh interpreter: this session has long since
# imported everything.
STARTUP_PROBE = """
import json, sys

def scipy_modules():
    return sorted(k for k in sys.modules if k.split(".")[0] == "scipy")

import vng, vng.cli_io
loaded_at_import = scipy_modules()
codes = [vng.cli_io.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"import": loaded_at_import, "codes": codes,
                  "after": scipy_modules()}))
"""


class TestStartup:
    SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

    def probe(self, cwd, commands: list[list[str]]) -> dict:
        path = os.pathsep.join(filter(None, [self.SRC, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE, json.dumps(commands)],
            cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=300, check=True,
        )
        return json.loads(out.stdout.strip().splitlines()[-1])

    @staticmethod
    def pipeline(stem: str, strategies: str) -> list[list[str]]:
        return [
            ["validate", f"{stem}.json"],
            ["solve", f"{stem}.json"],
            ["certify", f"{stem}.json", f"{stem}.solution.json"],
            ["compare", f"{stem}.json", strategies,
             "--certificate", f"{stem}.certificate.json"],
        ]

    def test_import_loads_no_scipy(self, workdir):
        assert self.probe(workdir, []) == {"import": [], "codes": [], "after": []}

    def test_pipelines_without_lp_load_no_scipy(self, workdir):
        commands = (self.pipeline("kelly", "strategies.json")
                    + self.pipeline("two_asset_margin", "strategies.json")
                    + self.pipeline("single_asset", "single_strategies.json"))
        result = self.probe(workdir, commands)
        assert result["codes"] == [0] * len(commands)
        assert result["import"] == [] and result["after"] == []
        for stem in ("kelly", "two_asset_margin", "single_asset"):
            cert = json.loads((workdir / f"{stem}.certificate.json").read_text())
            assert cert["verdict"] == "certified"
            assert cert["transition_lp_nodes"] == []

    def test_refuted_certify_loads_highs_for_its_witness(self, workdir):
        tilt_kelly_solution(workdir)
        result = self.probe(workdir, [["certify", "kelly.json", "kelly.solution.json"]])
        assert result["codes"] == [cli.EXIT_REFUTED]
        assert result["import"] == [] and "scipy.optimize" in result["after"]
        cert = json.loads((workdir / "kelly.certificate.json").read_text())
        assert cert["transition_lp_nodes"] == ["mid"]
        # the witness is the LP's, as it was before the bound
        problem = cli.load_problem("kelly.json")[0]
        dual = cli.dual_from_doc(problem.tree, cert["dual"], problem.market.m)
        lp = vng.dual_cone_violation(
            problem.market, dual.prices[1].values[0],
            dual_bar(problem.tree, dual, 1).values[0], "mid", tol=cert["tolerance"],
        )
        assert cert["witness"] == {
            "kind": "transition", "node": "mid", "value": lp.value,
            "pair": [lp.witness_a.tolist(), lp.witness_b.tolist()],
        }


# --- exit-code fuzz -----------------------------------------------------------------

EXIT_CODES = {
    cli.EXIT_OK, cli.EXIT_REFUTED, cli.EXIT_PARSE, cli.EXIT_MARGIN,
    cli.EXIT_NONCONVERGENCE, cli.EXIT_DIGEST, cli.EXIT_LP,
}
# wrong container types, non-string scalars, an integer no double can hold,
# and a boolean or a numeric string inside a vector
BIG = 10**400
WRONG_VALUES = [None, 7, "x", [], {}, [0.5], {"k": [0.5]}, True, BIG, [True], ["0.5"]]


def json_paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from json_paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from json_paths(value, prefix + (k,))


@st.composite
def mutations(draw, doc):
    """``doc`` with one field replaced by a wrong value, deleted, or truncated."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(json_paths(doc))))
    if not path:
        return draw(st.sampled_from(WRONG_VALUES))
    *outer, key = path
    owner = doc
    for step in outer:
        owner = owner[step]
    ops = ["replace", "delete"] + (["truncate"] if isinstance(owner[key], list) else [])
    op = draw(st.sampled_from(ops))
    if op == "replace":
        owner[key] = copy.deepcopy(draw(st.sampled_from(WRONG_VALUES)))
    elif op == "truncate":
        owner[key] = owner[key][:draw(st.integers(0, max(0, len(owner[key]) - 1)))]
    else:
        del owner[key]
    return doc


def fixture_doc(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return json.load(fh)


FUZZ = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def kelly_outputs(tmp_path_factory):
    """The kelly fixture's solution and certificate documents, made once."""
    out = tmp_path_factory.mktemp("kelly_outputs")
    shutil.copy(os.path.join(FIXTURES, "kelly.json"), out / "kelly.json")
    assert run("solve", str(out / "kelly.json")) == cli.EXIT_OK
    assert run("certify", str(out / "kelly.json"),
               str(out / "kelly.solution.json")) == cli.EXIT_OK
    return (json.loads((out / "kelly.solution.json").read_text()),
            json.loads((out / "kelly.certificate.json").read_text()))


class TestNumbers:
    """Numbers out of a field's range, booleans and strings are parse errors,
    never a traceback."""

    @pytest.mark.parametrize("file, path, value", [
        pytest.param("problem", ("market", "assets"), BIG, id="assets=10**400"),
        pytest.param("problem", ("market", "margins"), BIG, id="margins=10**400"),
        pytest.param("problem", ("solver", "max_iter"), BIG, id="max_iter=10**400"),
        pytest.param("problem", ("solver", "seed"), BIG, id="seed=10**400"),
        pytest.param("problem", ("objective",), {"variant": "linear", "q": [BIG, 1.0]},
                     id="objective.q=10**400"),
        pytest.param("problem", ("objective",),
                     {"variant": "linear", "q": [True, "1.1"]},
                     id="objective.q=[true,'1.1']"),
        pytest.param("problem", ("objective",),
                     {"variant": "norm_penalized", "theta": "0.001"},
                     id="objective.theta='0.001'"),
        pytest.param("problem", ("objective",),
                     {"variant": "norm_penalized", "theta": float("nan")},
                     id="objective.theta=NaN"),
        pytest.param("problem", ("objective",),
                     {"variant": "norm_penalized", "delta": "0.5"},
                     id="objective.delta='0.5'"),
        pytest.param("problem", ("market", "assets"), 2.5, id="assets=2.5"),
        pytest.param("problem", ("solver", "max_iter"), 2.5, id="max_iter=2.5"),
        pytest.param("problem", ("solver", "seed"), True, id="seed=true"),
        pytest.param("problem", ("tree", "nodes", 1, "prob"), True, id="prob=true"),
        pytest.param("problem", ("tree", "nodes", 1, "prob"), "1.0", id="prob='1.0'"),
        pytest.param("problem", ("initial_portfolio",), [True, True],
                     id="initial_portfolio=[true,true]"),
        pytest.param("problem", ("market", "returns", "mid"), ["1.0", "1.0"],
                     id="returns.mid=['1.0','1.0']"),
        pytest.param("problem", ("market", "lambda_minus"), True,
                     id="lambda_minus=true"),
        pytest.param("problem", ("solver", "tol"), 0, id="tol=0"),
        pytest.param("problem", ("solver", "tol"), -1e-8, id="tol=-1e-8"),
        pytest.param("flag", ("--tol",), "0", id="--tol=0"),
        pytest.param("problem", ("solver", "max_iter"), -1, id="max_iter=-1"),
        pytest.param("flag", ("--max-iter",), "-2", id="--max-iter=-2"),
        pytest.param("solution", ("options", "max_iter"), -1,
                     id="solution.options.max_iter=-1"),
        pytest.param("certify flag", ("--tol",), "0", id="certify--tol=0"),
        pytest.param("certify flag", ("--tol",), "-1", id="certify--tol=-1"),
        pytest.param("certify flag", ("--tol",), "nan", id="certify--tol=nan"),
        pytest.param("certify flag", ("--tol",), "inf", id="certify--tol=inf"),
        pytest.param("certify flag", ("--competitors",), "-3", id="--competitors=-3"),
        pytest.param("certify flag", ("--seed",), "-1", id="certify--seed=-1"),
        pytest.param("solution", ("z", 0), BIG, id="solution.z=10**400"),
        pytest.param("solution", ("z", 0), True, id="solution.z=true"),
        pytest.param("solution", ("path", "up", 0), BIG, id="solution.path=10**400"),
        pytest.param("solution", ("objective_value",), BIG,
                     id="solution.objective_value=10**400"),
        pytest.param("solution", ("options", "tol"), BIG,
                     id="solution.options.tol=10**400"),
        pytest.param("solution", ("converged",), "false",
                     id="solution.converged='false'"),
        pytest.param("solution", ("objective_trace",), "12",
                     id="solution.objective_trace='12'"),
        pytest.param("solution", ("iterations",), 2.5, id="solution.iterations=2.5"),
        pytest.param("solution", ("mu_final",), "1e-10",
                     id="solution.mu_final='1e-10'"),
        pytest.param("certificate", ("dual", "1", "mid", 0), BIG,
                     id="certificate.dual=10**400"),
    ])
    def test_out_of_range_number_exits_parse(
        self, workdir, kelly_outputs, capsys, file, path, value
    ):
        argv = {
            "problem": ["solve", "bad.problem.json"],
            "flag": ["solve", "kelly.json", *path, value],
            "certify flag": ["certify", "kelly.json", "kelly.solution.json", *path, value],
            "solution": ["certify", "kelly.json", "bad.solution.json"],
            "certificate": ["compare", "kelly.json", "strategies.json",
                            "--certificate", "bad.certificate.json"],
        }[file]
        if file == "certify flag":  # a solution that certifies with valid flags
            (workdir / "kelly.solution.json").write_text(json.dumps(kelly_outputs[0]))
        elif file != "flag":
            doc = copy.deepcopy({
                "problem": fixture_doc("kelly.json"),
                "solution": kelly_outputs[0],
                "certificate": kelly_outputs[1],
            }[file])
            *outer, key = path
            owner = doc
            for step in outer:
                owner = owner[step]
            owner[key] = value
            (workdir / f"bad.{file}.json").write_text(json.dumps(doc))
        assert run(*argv) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if path == ("objective",):  # the message names the one bad field
            (key,) = value.keys() - {"variant"}
            assert f"objective.{key}:" in err

    @pytest.mark.parametrize("value", [None, True, 3, 2.5, ["up"], {"id": "up"}],
                             ids=["null", "true", "3", "2.5", "list", "object"])
    def test_node_id_must_be_a_string(self, workdir, capsys, value):
        # the leaf's tables are keyed by the id's str() form, which a
        # conversion of the id would accept
        doc = fixture_doc("kelly.json")
        doc["tree"]["nodes"][2]["id"] = value
        doc["market"]["returns"][str(value)] = doc["market"]["returns"].pop("up")
        (workdir / "bad.problem.json").write_text(json.dumps(doc))
        assert run("validate", "bad.problem.json") == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert f"tree.nodes[2].id: expected str, got {type(value).__name__}" in err

    def test_tol_rule_is_the_same_for_solve_and_certify(self, workdir, capsys):
        assert run("solve", "kelly.json", "--tol", "0") == cli.EXIT_PARSE
        assert "solver.tol: must be positive, got 0.0" in capsys.readouterr().err
        assert run("solve", "kelly.json") == cli.EXIT_OK
        capsys.readouterr()
        for value in ("0", "inf"):
            assert run("certify", "kelly.json", "kelly.solution.json",
                       "--tol", value) == cli.EXIT_PARSE
        assert capsys.readouterr().err == (
            "error: --tol: must be positive, got 0.0\n"
            "error: --tol: expected a finite number, got inf\n"
        )

    def test_zero_counts_stay_valid(self, workdir):
        assert run("solve", "kelly.json", "--max-iter", "0",
                   "--out", "zero.json") == cli.EXIT_NONCONVERGENCE
        assert json.loads((workdir / "zero.json").read_text())["iterations"] == 0
        assert run("solve", "kelly.json") == cli.EXIT_OK
        assert run("certify", "kelly.json", "kelly.solution.json",
                   "--competitors", "0", "--seed", "0") == cli.EXIT_OK
        doc = json.loads((workdir / "kelly.certificate.json").read_text())
        assert doc["verdict"] == "certified" and "supermartingale" not in doc

    @pytest.mark.parametrize("depth", [500, 100_000])
    def test_deeply_nested_value_exits_parse(self, workdir, capsys, depth):
        doc = fixture_doc("kelly.json")
        doc["initial_portfolio"] = "NESTED"
        nested = "[" * depth + "0.5" + "]" * depth
        (workdir / "bad.problem.json").write_text(
            json.dumps(doc).replace('"NESTED"', nested)
        )
        assert run("solve", "bad.problem.json") == cli.EXIT_PARSE
        assert "Traceback" not in capsys.readouterr().err


class TestExitCodeFuzz:
    """Mutated inputs may only produce documented exit codes, never a traceback."""

    @FUZZ
    @given(doc=mutations(fixture_doc("strategies.json")))
    def test_mutated_strategies(self, workdir, doc):
        (workdir / "fuzz.json").write_text(json.dumps(doc))
        assert run("compare", "kelly.json", "fuzz.json") in EXIT_CODES

    @FUZZ
    @given(doc=mutations(fixture_doc("kelly.json")))
    def test_mutated_problem(self, workdir, doc):
        (workdir / "fuzz.json").write_text(json.dumps(doc))
        assert run("validate", "fuzz.json") in EXIT_CODES
        assert run("compare", "fuzz.json", "strategies.json") in EXIT_CODES

    @FUZZ
    @given(data=st.data())
    def test_mutated_solution(self, workdir, kelly_outputs, capsys, data):
        doc = data.draw(mutations(kelly_outputs[0]))
        (workdir / "fuzz.solution.json").write_text(json.dumps(doc))
        assert run("certify", "kelly.json", "fuzz.solution.json") in EXIT_CODES
        assert "Traceback" not in capsys.readouterr().err

    @FUZZ
    @given(data=st.data())
    def test_mutated_certificate(self, workdir, kelly_outputs, capsys, data):
        doc = data.draw(mutations(kelly_outputs[1]))
        (workdir / "fuzz.certificate.json").write_text(json.dumps(doc))
        code = run("compare", "kelly.json", "strategies.json",
                   "--certificate", "fuzz.certificate.json")
        assert code in EXIT_CODES
        assert "Traceback" not in capsys.readouterr().err


# --- node tables read as one array --------------------------------------------------

NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**300, 10**300),
)
BAD_KINDS = ["missing", "true", "string", "null", "big", "dict",
             "long", "short", "nested", "bad leaf"]


@st.composite
def node_tables(draw, bad: bool):
    """(table, ids, m, scalars): a ``{node_id: vector}`` table for node ``ids``.

    With ``scalars``, entries mix vectors, bare numbers and one-number
    vectors, as cost maps may.  With ``bad``, some entries at random
    positions are broken.
    """
    ids = draw(st.lists(st.text("abc", min_size=1, max_size=3),
                        min_size=1, max_size=6, unique=True))
    m = draw(st.integers(1, 4))
    scalars = draw(st.booleans())
    table = {}
    for nid in ids:
        vec = draw(st.lists(NUMBERS, min_size=m, max_size=m))
        table[nid] = draw(st.sampled_from([vec, vec[0], vec[:1]])) if scalars else vec
    if draw(st.booleans()):
        table["not a node"] = True  # entries of other ids are never read
    broken = st.lists(st.sampled_from(ids), min_size=1, max_size=len(ids), unique=True)
    for nid in draw(broken) if bad else []:
        kind, entry = draw(st.sampled_from(BAD_KINDS)), table[nid]
        vec = entry if isinstance(entry, list) else [entry]
        if kind == "missing":
            del table[nid]
        elif kind == "bad leaf":
            vec[draw(st.integers(0, len(vec) - 1))] = draw(
                st.sampled_from([True, "1.0", None, BIG]))
            table[nid] = vec
        else:
            table[nid] = {
                "true": True, "string": "1.0", "null": None, "big": BIG,
                "dict": {"k": vec}, "long": vec + [1.0], "short": vec[:-1],
                "nested": [vec],
            }[kind]
    return table, ids, m, scalars


class TestNodeTables:
    """``_node_rows`` reads a whole table at once and agrees with the
    node-by-node reader: the same bytes, or the same first bad entry."""

    @settings(max_examples=300, deadline=None)
    @given(case=node_tables(bad=False))
    def test_good_tables_match_the_node_loop(self, case):
        table, ids, m, scalars = case
        got = cli._node_rows(table, ids, m, "t", scalars)
        want = node_rows_loop(table, ids, m, "t", scalars)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(case=node_tables(bad=True))
    def test_bad_tables_name_the_first_bad_entry(self, case):
        table, ids, m, scalars = case
        try:
            want = node_rows_loop(table, ids, m, "t", scalars)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                cli._node_rows(table, ids, m, "t", scalars)
            assert str(got.value) == str(exc)
        else:  # a one-number vector or a [[x]] still stands for m numbers
            got = cli._node_rows(table, ids, m, "t", scalars)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("stem", ["kelly", "single_asset", "two_asset_margin"])
    def test_files_give_back_the_solver_arrays(self, tmp_path, stem):
        problem, _, doc = cli.load_problem(os.path.join(FIXTURES, f"{stem}.json"))
        tree, m = problem.tree, problem.market.m
        options = cli.solve_options_from(doc.get("solver", {}), argparse.Namespace())
        solution = vng.solve_log_optimal(problem, options)
        dual = vng.extract_dual(solution, problem)
        cert = vng.verify_rapid(solution.path, dual, tree, problem.market)

        def through_file(name, written):
            cli.write_json(str(tmp_path / name), written)
            return cli._read_json(str(tmp_path / name), name)[1]

        read = cli.solution_from_doc(
            through_file("s.json", cli.solution_to_doc(solution, tree, "d")), problem
        )
        assert read.z.tobytes() == solution.z.tobytes()
        assert read.multipliers.tobytes() == solution.multipliers.tobytes()
        assert np.asarray(read.path).tobytes() == np.asarray(solution.path).tobytes()
        cdoc = through_file("c.json", cli.certificate_to_doc(
            cert, tree, solution.path, dual, "d", 0.0
        ))
        back = cli.dual_from_doc(tree, cdoc["dual"], m)
        assert back.p.tobytes() == dual.p.tobytes()
        assert back.p_terminal.tobytes() == dual.p_terminal.tobytes()
