import sys

import numpy as np
import pytest

from conforminv import kernel, make_ellipse


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # the acceptance module collects one PASS/FAIL line per check; output
    # capture would swallow them mid-run, so echo them here at the end
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance summary")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def cold_solve_memo():
    # each test starts with no memoized solves, so its results and time
    # gates do not depend on which tests ran before; repeats within one
    # test still hit
    kernel._memo.clear()


@pytest.fixture
def assemblies(monkeypatch):
    """Calls of kernel._assemble so far, i.e. solves that missed the memo."""
    calls = []
    assemble = kernel._assemble
    monkeypatch.setattr(kernel, "_assemble",
                        lambda ctx: calls.append(1) or assemble(ctx))
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture
def circle():
    """Factory for circle curves: circle(n, radius=1, kind='interior')."""

    def build(n, radius=1.0, kind="interior"):
        return make_ellipse(radius, radius, n, kind)

    return build
