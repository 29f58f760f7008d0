"""The demos report a failed verdict through their exit status."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from sievebound import sieve_harness as sh

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def load_demo(name: str):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sieve_check_exit_status(monkeypatch, capsys):
    demo = load_demo("demo_sieve_check")
    assert demo.main(["--show", "1"]) == 0
    assert "[FAIL]" not in capsys.readouterr().out

    real = sh.window_term

    def faulty(ctx, name):
        # dropped_B3 = -1 at the prime 10007 gives rho = 2 > 1_p.
        term = real(ctx, name)
        if name == "dropped_b3":
            term[10007 - ctx.x - 1] -= 1
        return term

    monkeypatch.setattr(sh, "window_term", faulty)
    assert demo.main(["--show", "1"]) == 1
    assert "[FAIL] rho never exceeds the prime indicator" in capsys.readouterr().out


def test_buchstab_exit_status(capsys):
    """A table wider than --tol is a [FAIL] verdict and exit status 1."""
    demo = load_demo("demo_buchstab")
    assert demo.main(["--step", "1e-3", "--u-max", "3", "--tol", "1e-6"]) == 0
    assert "[FAIL]" not in capsys.readouterr().out
    assert demo.main(["--step", "1e-3", "--u-max", "3", "--tol", "1e-12"]) == 1
    assert "[FAIL] widest enclosure in the table" in capsys.readouterr().out
