"""Suite-wide checks that apply to every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped, so a
    leaked helper process cannot reach the tests after it."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    if pid:
        pytest.fail(f"the test left child process {pid} unreaped")
    pytest.fail("the test left a child process running")
