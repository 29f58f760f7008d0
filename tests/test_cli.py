"""Tests for the command line interface.

Runs go through cli.main(argv) in-process except for one subprocess
check of the module entry point.  Heavy verification paths use tiny
budgets; the full-budget runs are covered by the acceptance suite.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from sievebound import cli, losses, regions
from sievebound.buchstab import Enclosure


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

    def test_monte_carlo_mode(self, tmp_path, capsys):
        out = tmp_path / "mc.json"
        code, stdout, _ = run_cli(
            ["--seed", "7", "--workers", "2", "verify", "--mode", "monte_carlo",
             "--samples", "50000", "--targets", "a3", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "[INFO] loss a3" in stdout
        report = json.loads(out.read_text())
        assert report["config"]["seed"] == 7
        assert report["results"]["losses"]["a3"]["samples"] == 50000

    def test_unknown_target_is_usage_error(self, capsys):
        code, _, stderr = run_cli(["verify", "--targets", "bogus"], capsys)
        assert code == 2
        assert "unknown verification targets" in stderr

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

    def test_config_file_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("budget = 4000\ntol = 5e-4\ntargets = a3\n")
        out = tmp_path / "cfg.json"
        code, _, _ = run_cli(
            ["--config", str(cfg), "verify", "--out", str(out)], capsys
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["budget"] == 4000
        # A flag must override the file.
        out2 = tmp_path / "cfg2.json"
        code, _, _ = run_cli(
            ["--config", str(cfg), "verify", "--budget", "5000", "--out", str(out2)],
            capsys,
        )
        assert code == 0
        assert json.loads(out2.read_text())["config"]["budget"] == 5000

    def test_workers_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SIEVEBOUND_WORKERS", "4")
        out = tmp_path / "env.json"
        code, _, _ = run_cli(
            ["verify", "--mode", "monte_carlo", "--samples", "30000",
             "--targets", "a3", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert json.loads(out.read_text())["config"]["workers"] == 4

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("this line has no equals\n")
        code, _, stderr = run_cli(["--config", str(cfg), "verify"], capsys)
        assert code == 2
        assert "expected 'key = value'" in stderr

    def test_unknown_config_key(self, tmp_path, capsys):
        """A key no command reads is rejected by name, not run at the defaults."""
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("tolerance = 1e-3\n")
        code, _, stderr = run_cli(["--config", str(cfg), "verify"], capsys)
        assert code == 2
        assert "unknown config key 'tolerance'" in stderr

    def test_missing_config_file(self, capsys):
        code, _, stderr = run_cli(
            ["--config", "/nonexistent/path.cfg", "verify"], capsys
        )
        assert code == 2
        assert "cannot read config file" in stderr


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
        """Seed and workers reach the report only from verify, which reads them."""
        out = tmp_path / "harness.json"
        code, _, _ = run_cli(["--seed", "7", "--workers", "3", "harness", "--x", "10000", "--out", str(out)], capsys)
        assert code == 0
        assert json.loads(out.read_text())["config"] == {"command": "harness", "x": 10000}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\nu_max = 3\nstep = 0.001\ntol = 1e-5\n")
        out = tmp_path / "omega.json"
        code, _, _ = run_cli(["--config", str(cfg), "omega", "--out", str(out)], capsys)
        assert code == 0
        assert json.loads(out.read_text())["config"] == {"command": "omega", "u_max": 3.0, "step": 0.001, "tol": 1e-5}

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

    def test_bad_step(self, capsys):
        code, _, stderr = run_cli(["omega", "--step", "0.5"], capsys)
        assert code == 2

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

    def test_arity_mismatch_point(self, capsys):
        code, _, stderr = run_cli(["regions", "--point", "0.2,0.2,0.2"], capsys)
        assert code == 2
        assert "no region with that arity" in stderr


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sievebound", "regions", "--point", "0.35,0.25"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "region_c: inside" in proc.stdout
