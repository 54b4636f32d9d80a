"""Checks shared by every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_unreaped_child():
    """Fail a test that leaves a child process unreaped, e.g. a CSV writer."""
    yield
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process unreaped")
