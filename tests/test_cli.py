"""Tests for the command line interface.

Runs go through cli.main(argv) in-process except for subprocess checks
of the module entry point and of the numpy version a report records.
Heavy verification paths use tiny budgets; the full-budget runs are
covered by the acceptance suite.
"""

from __future__ import annotations

import inspect
import json
import math
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from sievebound import buchstab, cli, losses, quadrature, regions, sieve_harness
from sievebound.interval import Enclosure


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_single_target_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(
            ["verify", "--targets", "a3", "--budget", "4000", "--tol", "5e-4",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "[PASS] loss a3" in stdout
        report = json.loads(out.read_text())
        assert report["version"]
        assert report["results"]["losses"]["a3"]["pass"] is True
        assert report["results"]["losses"]["a3"]["upper"] <= 0.000829
        assert report["results"]["losses"]["a3"]["exhausted"] is False
        assert report["config"]["targets"] == ["a3"]
        est, _ = losses.verified_loss("a3", budget=4000, tol=5e-4)
        entry = report["results"]["losses"]["a3"]
        assert entry["leaves"] == dict(zip(quadrature.LEAF_CLASSES, est.leaves))
        assert sum(entry["leaves"].values()) == (entry["boxes_used"] + 1) // 2
        assert all(entry["gaps"][k] >= g for k, g in zip(quadrature.LEAF_CLASSES, est.gaps))

    def test_exhausted_budget_reported(self, tmp_path, capsys):
        """A run that hits its (escalated) box budget before the tol says so."""
        out = tmp_path / "exhausted.json"
        code, _, _ = run_cli(
            ["verify", "--targets", "c", "--budget", "2", "--tol", "1e-5", "--out", str(out)],
            capsys,
        )
        assert code == 1
        entry = json.loads(out.read_text())["results"]["losses"]["c"]
        assert entry["exhausted"] is True
        assert entry["escalations"] == 2
        assert entry["boxes_used"] <= 200

    def test_deterministic_reports(self, tmp_path, capsys):
        paths = []
        for tag in ("one", "two"):
            out = tmp_path / f"{tag}.json"
            code, _, _ = run_cli(
                ["verify", "--targets", "a3", "--budget", "3000", "--tol", "5e-4",
                 "--out", str(out)],
                capsys,
            )
            assert code == 0
            paths.append(out)
        a = json.loads(paths[0].read_text())
        b = json.loads(paths[1].read_text())
        assert a == b

    def test_certified_endpoints_round_outward(self, tmp_path, capsys):
        """Each JSON endpoint brackets its certified float: lower ends round down, upper ends up.

        The report keeps 12 significant digits; loss c's upper bound
        0.23513327157322939 rounded to nearest would print below itself.
        """
        assert cli._high(0.23513327157322939) == 0.235133271574
        assert cli._low(0.23513327157322939) == 0.235133271573
        out = tmp_path / "total.json"
        run_cli(["verify", "--targets", "total", "--tol", "2e-4", "--out", str(out)], capsys)
        results = json.loads(out.read_text())["results"]
        ests = {name: losses.verified_loss(name, tol=2e-4)[0] for name in losses.LOSS_NAMES}
        for name, est in ests.items():
            entry = results["losses"][name]
            assert entry["lower"] <= est.lower and est.upper <= entry["upper"]
        ledger = losses.assemble_ledger(*ests.values())
        total = results["total"]
        assert ledger.total_upper <= total["total_upper"] and total["retained_lower"] <= ledger.retained_lower
        assert all(total["margins"][key] <= margin for key, margin in ledger.margins().items())

    def test_printed_endpoints_round_outward(self, tmp_path, capsys, verified_c, table):
        """The stdout lines of verify and omega bracket the certified floats at their printed digits.

        Loss c's upper bound 0.23513326691027386 printed to nearest at
        ten digits reads 2.351332669e-01, below itself.
        """
        assert cli.high_text(0.23513326691027386, ".9e") == "2.351332670e-01"
        assert cli.low_text(0.23513326691027386, ".9e") == "2.351332669e-01"
        _, stdout, _ = run_cli(["verify", "--targets", "c", "--out", str(tmp_path / "c.json")], capsys)
        lower, upper = map(float, re.search(r"certified \[(\S+), (\S+)\]", stdout).groups())
        est = verified_c[0]
        assert lower <= est.lower and est.upper <= upper
        _, stdout, _ = run_cli(["omega", "--at", "3.5", "--out", str(tmp_path / "omega.json")], capsys)
        match = re.search(r"omega\(3\.5\) in \[(\S+), (\S+)\] .* piecewise bounds \[(\S+), (\S+)\]", stdout)
        lo, hi, bound_low, bound_high = map(float, match.groups())
        enc = buchstab.omega_enclosure(table, 3.5)
        assert lo <= enc.lo and enc.hi <= hi
        assert bound_low <= buchstab.omega_bound(buchstab.OMEGA_LOWER, 3.5).lo
        assert buchstab.omega_bound(buchstab.OMEGA_UPPER, 3.5).hi <= bound_high

    def test_monte_carlo_mode(self, tmp_path, capsys):
        """A Monte Carlo run reads neither budget nor tol, so its config records both as null."""
        out = tmp_path / "mc.json"
        code, stdout, _ = run_cli(
            ["verify", "--seed", "7", "--mode", "monte_carlo", "--samples", "50000",
             "--targets", "a3", "--budget", "7", "--tol", "0.5", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "[INFO] loss a3" in stdout
        report = json.loads(out.read_text())
        assert report["config"] == {"command": "verify", "seed": 7, "mode": "monte_carlo", "targets": ["a3"],
                                    "budget": None, "tol": None, "samples": 50000}
        assert report["results"]["losses"]["a3"]["samples"] == 50000
        expected = losses.loss_mc("a3", samples=50000, seed=7).midpoint
        assert report["results"]["losses"]["a3"]["estimate"] == cli._round_floats(expected)

    def test_rigorous_run_records_no_monte_carlo_settings(self, tmp_path, capsys):
        """A rigorous run reads neither seed nor samples, so its config records both as null."""
        out = tmp_path / "rigorous.json"
        code, _, _ = run_cli(
            ["verify", "--targets", "a3", "--budget", "4000", "--tol", "5e-4", "--seed", "-1", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert json.loads(out.read_text())["config"] == {"command": "verify", "seed": None, "mode": "rigorous",
                                                         "targets": ["a3"], "budget": 4000, "tol": 5e-4,
                                                         "samples": None}

    def test_monte_carlo_seed_defaults_to_library_seed(self):
        """verify --seed and loss_mc share one default, losses.MC_SEED."""
        assert cli._build_parser().parse_args(["verify"]).seed == losses.MC_SEED
        assert inspect.signature(losses.loss_mc).parameters["seed"].default == losses.MC_SEED

    def test_workers_is_not_an_option(self, capsys):
        """The Monte Carlo stream count is a library parameter only; verify --workers is a usage error."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--mode", "monte_carlo", "--workers", "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_repeated_target_runs_once(self, tmp_path, capsys):
        out = tmp_path / "repeat.json"
        code, stdout, _ = run_cli(
            ["verify", "--targets", "a3,a3", "--budget", "4000", "--tol", "5e-4", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert stdout.count("loss a3") == 1
        report = json.loads(out.read_text())
        assert report["config"]["targets"] == ["a3"]
        assert list(report["results"]["losses"]) == ["a3"]

    @pytest.mark.parametrize("targets, expected", [
        ("all,c", ["a3", "b3", "c", "total"]),
        ("c,all", ["c", "a3", "b3", "total"]),
    ])
    def test_all_expands_in_place(self, tmp_path, capsys, targets, expected):
        """all in a target list stands for a3,b3,c,total where it stands; repeats run once."""
        out = tmp_path / "all.json"
        code, stdout, _ = run_cli(
            ["verify", "--mode", "monte_carlo", "--samples", "10000", "--targets", targets, "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert stdout.count("loss c:") == 1
        report = json.loads(out.read_text())
        assert report["config"]["targets"] == expected
        assert list(report["results"]["losses"]) == ["a3", "b3", "c"]
        assert "estimate" in report["results"]["total"]

    def test_unknown_target_is_usage_error(self, capsys):
        code, _, stderr = run_cli(["verify", "--targets", "bogus"], capsys)
        assert code == 2
        assert "unknown verification targets" in stderr

    def test_empty_targets_is_usage_error(self, capsys):
        """A target list with no names would certify nothing, so it exits 2, not 0."""
        for argv in (["verify", "--targets", ","], ["verify", "--targets", " "]):
            code, stdout, stderr = run_cli(argv, capsys)
            assert code == 2 and stdout == ""
            assert "no verification targets" in stderr

    def test_argument_error_is_usage_error(self, capsys):
        code, _, stderr = run_cli(["verify", "--targets", "c", "--budget", "0"], capsys)
        assert code == 2
        assert "budget must be at least 1" in stderr
        assert "soundness" not in stderr

    @pytest.mark.parametrize("failure", ["range", "intersect", "factor"])
    def test_soundness_failure_exits_one(self, failure, capsys, monkeypatch):
        """Internal soundness failures are verdict failures, not usage errors."""
        if failure == "range":
            # The argument of loss c reaches 13/3 over the base pair region.
            edge = (float(Fraction(3, 19)), float(Fraction(8, 19)))
            monkeypatch.setitem(losses._REGIONS, "c", regions.PAIR_BASE)
            monkeypatch.setitem(losses._BOXES, "c", (edge, edge))
            expected = "argument 0 <= 2 not certified"
        elif failure == "intersect":
            disjoint = lambda *args, **kwargs: Enclosure(0.0, 1.0).intersect(Enclosure(2.0, 3.0))
            monkeypatch.setattr(losses, "integrate_rigorous", disjoint)
            expected = "disjoint enclosures"
        else:
            # Past t1 + t2 = 1 the factor 1 - t1 - t2 of the loss c kernel vanishes.
            monkeypatch.setitem(losses._BOXES, "c", ((0.29, 0.8), (0.24, 0.43)))
            expected = "affine factor not positive"
        code, _, stderr = run_cli(["verify", "--targets", "c", "--budget", "10"], capsys)
        assert code == 1
        assert "error: soundness failure:" in stderr
        assert expected in stderr

    def test_overflowed_remainder_exits_one(self, capsys, monkeypatch):
        """An infinite remainder in a mean-value form is a soundness failure: exit 1, one error line, no verdict."""
        walk = losses.ReciprocalProduct._walk

        def overflowed(self, *args):
            *head, h = walk(self, *args)
            return (*head, h[:4] + (math.inf,))

        monkeypatch.setattr(losses.ReciprocalProduct, "_walk", overflowed)
        code, stdout, stderr = run_cli(["verify", "--targets", "c", "--budget", "50", "--tol", "1e-3"], capsys)
        assert code == 1
        assert stderr.startswith("error: soundness failure: mean-value bounds [") and stderr.count("\n") == 1
        assert "[PASS]" not in stdout and "[FAIL]" not in stdout

    def test_missing_out_dir_fails_before_any_work(self, tmp_path, capsys):
        """A missing --out directory exits 2 before the loss is certified, so no verdict line is printed."""
        out = tmp_path / "missing" / "v.json"
        code, stdout, stderr = run_cli(["verify", "--targets", "c", "--out", str(out)], capsys)
        assert code == 2 and stdout == ""
        assert stderr.startswith("error: cannot write report") and stderr.count("\n") == 1

    def test_directory_out_path_fails_before_any_work(self, tmp_path, capsys):
        """An --out or --csv path that is a directory exits 2 before any work, so no verdict line is printed."""
        for argv, what in (
            (["verify", "--targets", "c", "--out", str(tmp_path)], "report"),
            (["regions", "--out", str(tmp_path)], "report"),
            (["omega", "--u-max", "3", "--step", "1e-3", "--csv", str(tmp_path)], "table"),
        ):
            code, stdout, stderr = run_cli(argv, capsys)
            assert code == 2 and stdout == ""
            assert stderr == f"error: cannot write {what} {tmp_path}: it is a directory\n"

    def test_monte_carlo_total(self, tmp_path, capsys):
        """A Monte Carlo total runs the three losses and reports the sum of their estimates, certifying nothing."""
        out = tmp_path / "total.json"
        code, stdout, _ = run_cli(
            ["verify", "--mode", "monte_carlo", "--samples", "10000", "--targets", "total", "--out", str(out)],
            capsys,
        )
        assert code == 0
        estimates = [losses.loss_mc(name, samples=10000, seed=losses.MC_SEED).midpoint for name in losses.LOSS_NAMES]
        total = sum(estimates)
        assert f"[INFO] total loss estimate {total:.9f} (not a certificate)\n" in stdout
        assert "[PASS]" not in stdout and "[FAIL]" not in stdout
        results = json.loads(out.read_text())["results"]
        assert list(results["losses"]) == list(losses.LOSS_NAMES)
        assert [results["losses"][name]["estimate"] for name in losses.LOSS_NAMES] == cli._round_floats(estimates)
        assert results["total"] == {"estimate": cli._round_floats(total)}


class TestHarness:
    def test_harness_subcommand(self, tmp_path, capsys):
        out = tmp_path / "harness.json"
        code, stdout, _ = run_cli(["harness", "--x", "10000", "--out", str(out)], capsys)
        assert code == 0
        assert "[PASS] harness identities" in stdout
        report = json.loads(out.read_text())
        assert report["results"]["clean"] is True
        assert report["results"]["violations"]["identity"] == 0
        assert report["results"]["totals"]["rho"] == 875

    def test_report_config_holds_only_what_was_read(self, tmp_path, capsys):
        """The seed reaches the report only from verify, which reads it."""
        out = tmp_path / "harness.json"
        code, _, _ = run_cli(["harness", "--x", "10000", "--out", str(out)], capsys)
        assert code == 0
        assert json.loads(out.read_text())["config"] == {"command": "harness", "x": 10000}
        out = tmp_path / "omega.json"
        code, _, _ = run_cli(["omega", "--u-max", "3", "--step", "0.001", "--tol", "1e-5", "--out", str(out)], capsys)
        assert code == 0
        assert json.loads(out.read_text())["config"] == {"command": "omega", "u_max": 3.0, "step": 0.001, "tol": 1e-5}

    def test_term_limit_breach_is_soundness_failure(self, capsys, monkeypatch):
        """A window term outside [-TERM_LIMIT, TERM_LIMIT] is an internal fault: exit 1, not a usage error."""
        monkeypatch.setattr(sieve_harness, "TERM_LIMIT", 0)
        code, stdout, stderr = run_cli(["harness", "--x", "10000"], capsys)
        assert code == 1 and stdout == ""
        assert "error: soundness failure: window term" in stderr

    def test_missing_out_dir_fails_before_the_scan(self, tmp_path, capsys):
        out = tmp_path / "missing" / "h.json"
        code, stdout, stderr = run_cli(["harness", "--x", "10000", "--out", str(out)], capsys)
        assert code == 2 and stdout == ""
        assert stderr.startswith("error: cannot write report")

    def test_bad_x(self, capsys):
        code, _, stderr = run_cli(["harness", "--x", "12"], capsys)
        assert code == 2
        assert "x must lie" in stderr

    def test_x_above_max(self, capsys):
        code, _, stderr = run_cli(["harness", "--x", "1000001"], capsys)
        assert code == 2
        assert "x must lie" in stderr


class TestOmega:
    def test_omega_subcommand(self, tmp_path, capsys):
        out = tmp_path / "omega.json"
        csv_path = tmp_path / "table.csv"
        code, stdout, _ = run_cli(
            ["omega", "--u-max", "3.0", "--step", "0.001", "--tol", "1e-5",
             "--at", "2.0", "--at", "2.5", "--csv", str(csv_path), "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "[PASS] table enclosure width" in stdout
        report = json.loads(out.read_text())
        evals = report["results"]["evaluations"]
        assert len(evals) == 2
        at2 = evals[0]
        assert at2["lower"] <= 0.5 <= at2["upper"]
        assert csv_path.exists()
        # Every endpoint brackets its float enclosure.
        table = buchstab.build_table(u_max=3.0, step=0.001)
        for entry in evals:
            enc = buchstab.omega_enclosure(table, entry["u"])
            low = buchstab.omega_bound(buchstab.OMEGA_LOWER, entry["u"])
            high = buchstab.omega_bound(buchstab.OMEGA_UPPER, entry["u"])
            assert entry["lower"] <= enc.lo and enc.hi <= entry["upper"]
            assert entry["bound_low"] <= low.lo and high.hi <= entry["bound_high"]

    def test_bad_step(self, capsys):
        code, _, stderr = run_cli(["omega", "--step", "0.5"], capsys)
        assert code == 2

    @pytest.mark.parametrize("step", ["1e-12", "1e-300", "1e-308", "5e-324"])
    def test_tiny_step_is_usage_error(self, step, capsys):
        """A step below 1e-5 exits 2 with one error line before any table is allocated."""
        code, stdout, stderr = run_cli(["omega", "--step", step], capsys)
        assert code == 2 and stdout == ""
        assert stderr == "error: step must lie in [1e-5, 1e-3]\n"

    def test_non_finite_branch_value_is_soundness_failure(self, capsys, monkeypatch):
        """A non-finite value inside the [3, 4] branch kernel is an internal fault: exit 1, not a usage error."""
        monkeypatch.setattr(buchstab, "LI2_TAIL", math.inf)
        code, _, stderr = run_cli(["omega", "--u-max", "4", "--at", "3.5"], capsys)
        assert code == 1
        assert stderr == "error: soundness failure: enclosure endpoints must be finite\n"

    @pytest.mark.parametrize("at", ["--at=nan", "--at=inf", "--at=-inf", "--at=0.5", "--at=5"])
    def test_at_outside_table_fails_before_the_table(self, at, tmp_path, capsys):
        """An --at outside [1, u_max] exits 2 before the table is built and judged: no verdict line, no report."""
        out = tmp_path / "omega.json"
        code, stdout, stderr = run_cli(["omega", "--u-max", "4", at, "--out", str(out)], capsys)
        assert code == 2 and stdout == ""
        assert stderr == f"error: u = {float(at[5:])} outside table domain [1, 4.0]\n"
        assert not out.exists()

    def test_inverted_table_entry_is_soundness_failure(self, capsys, monkeypatch):
        """A table entry with lo > hi is an internal fault: exit 1, not the usage error an Enclosure's ValueError gave."""
        kernel = buchstab._grid_bounds

        def inverted(num, den):
            lo, hi = kernel(num, den)
            return hi * 1.001, lo

        monkeypatch.setattr(buchstab, "_grid_bounds", inverted)
        code, stdout, stderr = run_cli(["omega", "--u-max", "3", "--step", "1e-3"], capsys)
        assert code == 1 and stdout == ""
        assert stderr.startswith("error: soundness failure: table entry [") and stderr.count("\n") == 1

    def test_unwritable_csv_is_usage_error(self, tmp_path, capsys):
        """A --csv path in a missing directory exits 2 with one error line, not a traceback and exit 1."""
        csv_path = tmp_path / "missing" / "table.csv"
        code, _, stderr = run_cli(["omega", "--u-max", "3", "--step", "1e-3", "--csv", str(csv_path)], capsys)
        assert code == 2
        assert stderr.startswith("error: cannot write table") and stderr.count("\n") == 1

    def test_missing_csv_dir_fails_before_the_table(self, tmp_path, capsys):
        """The --csv directory is checked before the table is built and judged."""
        csv_path = tmp_path / "missing" / "t.csv"
        code, stdout, _ = run_cli(
            ["omega", "--u-max", "3", "--step", "1e-3", "--tol", "2e-7", "--csv", str(csv_path)], capsys
        )
        assert code == 2
        assert "[PASS] table enclosure width" not in stdout and stdout == ""

    def test_too_wide_table_fails_verdict(self, tmp_path, capsys):
        out = tmp_path / "omega.json"
        code, stdout, stderr = run_cli(
            ["omega", "--tol", "1e-12", "--u-max", "3", "--out", str(out)], capsys
        )
        assert code == 1
        assert "[FAIL] table enclosure width" in stdout
        assert "error" not in stderr
        results = json.loads(out.read_text())["results"]
        assert results["max_width"] > results["tol"] == 1e-12

    def test_nan_tol_is_usage_error(self, tmp_path, capsys):
        """A NaN tol exits 2 before any table is built or report written."""
        out = tmp_path / "never.json"
        code, stdout, stderr = run_cli(["omega", "--tol", "nan", "--u-max", "3", "--out", str(out)], capsys)
        assert code == 2 and stdout == ""
        assert "tol must be positive" in stderr
        assert not out.exists()


class TestRegions:
    def test_point_membership(self, tmp_path, capsys):
        out = tmp_path / "regions.json"
        code, stdout, _ = run_cli(
            ["regions", "--point", "0.21,0.205,0.195,0.185", "--out", str(out)],
            capsys,
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["results"]["membership"]["u_a3"] is True
        assert report["results"]["membership"]["u_b3"] is False

    def test_exact_fraction_point(self, tmp_path, capsys):
        out = tmp_path / "regions2.json"
        code, _, _ = run_cli(
            ["regions", "--point", "7/19,9/38", "--out", str(out)], capsys
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert "pair_base" in report["results"]["membership"]

    def test_catalog_dump(self, tmp_path, capsys):
        out = tmp_path / "catalog.json"
        code, _, _ = run_cli(["regions", "--catalog", "--out", str(out)], capsys)
        assert code == 0
        report = json.loads(out.read_text())
        names = {entry["name"] for entry in report["results"]["catalog"]["regions"]}
        assert "u_b3" in names

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        """An --out path in a missing directory exits 2 with one error line, not a traceback and exit 1."""
        out = tmp_path / "missing" / "regions.json"
        code, stdout, stderr = run_cli(["regions", "--out", str(out)], capsys)
        assert code == 2 and stdout == ""
        assert stderr.startswith("error: cannot write report") and stderr.count("\n") == 1

    def test_arity_mismatch_point(self, capsys):
        code, _, stderr = run_cli(["regions", "--point", "0.2,0.2,0.2"], capsys)
        assert code == 2
        assert "no region with that arity" in stderr


class TestEntryPoint:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--config", "run.cfg", "verify"],
            ["--seed", "7", "verify"],
            ["--workers", "2", "verify"],
            ["harness", "--x", "10000", "--workers", "3"],
            ["omega", "--seed", "7"],
            ["regions", "--workers", "2"],
        ],
        ids=["config", "root-seed", "root-workers", "harness-workers", "omega-seed", "regions-workers"],
    )
    def test_flag_off_its_subcommand_is_usage_error(self, argv, capsys):
        """Each flag is read on the one subcommand it belongs to; argparse exits 2 on any other placement."""
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sievebound", "regions", "--point", "0.35,0.25"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "region_c: inside" in proc.stdout

    @pytest.mark.parametrize(
        "argv, loads_numpy",
        [
            (["--targets", "a3", "--budget", "4000", "--tol", "5e-4"], False),
            (["--mode", "monte_carlo", "--samples", "10000", "--targets", "a3"], True),
        ],
        ids=["rigorous", "monte-carlo"],
    )
    def test_environment_records_numpy_only_when_loaded(self, argv, loads_numpy, tmp_path):
        """A report's environment.numpy is the version when the process loaded numpy, null when it did not."""
        import numpy

        out = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-m", "sievebound", "verify", *argv, "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        recorded = json.loads(out.read_text())["environment"]["numpy"]
        assert recorded == (numpy.__version__ if loads_numpy else None)
