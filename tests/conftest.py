"""Echo the acceptance-criteria verdicts after the run, one line each, and
fail any test that leaves a child process behind."""

import os

import pytest
from _support import ACCEPTANCE_RESULTS


@pytest.fixture(autouse=True)
def no_child_process_left():
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind ({'running' if pid == 0 else pid})")


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, status, detail in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"[{status}] criterion {number}: {detail}")
