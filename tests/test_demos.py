"""The demos report a failed verdict (1) and a usage error (2) through their exit status."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from sievebound import losses
from sievebound import sieve_harness as sh
from sievebound.interval import SoundnessError

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


def test_usage_errors_exit_two(capsys):
    """An out-of-range option prints one error line and exits 2, not a traceback with 1."""
    for name, argv, message in (
        ("demo_buchstab", ["--u-max", "1.5"], "u_max must lie in [2, 64]"),
        ("demo_sieve_check", ["--x", "5"], "x must lie in"),
    ):
        assert load_demo(name).main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


def test_losses_exit_status(monkeypatch, capsys):
    """demo_losses maps a usage error to 2 and a soundness failure to 1."""
    demo = load_demo("demo_losses")
    for exc, code in ((ValueError("budget must be at least 1"), 2), (SoundnessError("disjoint enclosures"), 1)):

        def failing(*args, exc=exc, **kwargs):
            raise exc

        monkeypatch.setattr(losses, "verified_loss", failing)
        assert demo.main(["--quick"]) == code
        assert str(exc) in capsys.readouterr().err
