"""Shared fixtures.

The expensive artifacts (Buchstab table, certified loss runs, window
scans, Monte Carlo estimates) are computed once per session and shared
between the unit tests and the acceptance suite.  Acceptance tests
register one verdict per criterion through the `acceptance` fixture;
the terminal summary hook prints them as [PASS]/[FAIL] lines after the
run so the certification outcome is visible in plain text.
"""

from __future__ import annotations

import time

import pytest

from sievebound import buchstab, losses, sieve_harness

_ACCEPTANCE_RECORDS: list[tuple[str, bool, str]] = []

# Wall-clock seconds for the heavy session computations, used by the
# acceptance suite to check the runtime envelopes.
FIXTURE_SECONDS: dict[str, float] = {}


def _timed(key: str, work):
    start = time.perf_counter()
    result = work()
    FIXTURE_SECONDS[key] = time.perf_counter() - start
    return result


class AcceptanceLog:
    def record(self, criterion: str, ok: bool, detail: str) -> bool:
        _ACCEPTANCE_RECORDS.append((criterion, ok, detail))
        return ok


@pytest.fixture(scope="session")
def acceptance() -> AcceptanceLog:
    return AcceptanceLog()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RECORDS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, ok, detail in _ACCEPTANCE_RECORDS:
        terminalreporter.write_line(
            f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
        )


@pytest.fixture(scope="session")
def table() -> buchstab.BuchstabTable:
    return buchstab.build_table()


@pytest.fixture(scope="session")
def verified_a3():
    return _timed("loss_a3", lambda: losses.verified_loss("a3"))


@pytest.fixture(scope="session")
def verified_b3():
    return _timed("loss_b3", lambda: losses.verified_loss("b3"))


@pytest.fixture(scope="session")
def verified_c():
    return _timed("loss_c", lambda: losses.verified_loss("c"))


@pytest.fixture(scope="session")
def ledger(verified_a3, verified_b3, verified_c) -> losses.LossLedger:
    return losses.assemble_ledger(verified_a3[0], verified_b3[0], verified_c[0])


@pytest.fixture(scope="session")
def mc_estimates():
    return {
        name: losses.loss_mc(name, samples=10**7, seed=losses.MC_SEED, workers=1)
        for name in losses.LOSS_NAMES
    }


def _window_report(key: str, x: int) -> dict:
    return _timed(key, lambda: sieve_harness.harness_report(sieve_harness.build_context(x)))


@pytest.fixture(scope="session")
def harness_1e5() -> dict:
    return _window_report("harness_1e5", 10**5)


@pytest.fixture(scope="session")
def harness_2e5() -> dict:
    return _window_report("harness_2e5", 2 * 10**5)


@pytest.fixture(scope="session")
def harness_1e6() -> dict:
    return _window_report("harness_1e6", 10**6)


@pytest.fixture(scope="session")
def harness_1e4() -> sieve_harness.SieveContext:
    return sieve_harness.build_context(10**4)
