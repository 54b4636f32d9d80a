"""Checks shared by every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_leftovers(request):
    """Fail a test that leaves a child process unreaped, e.g. a CSV writer,
    or a temporary ``.*.part`` output file anywhere under its ``tmp_path``."""
    tmp = request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    yield
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        pytest.fail("the test left a child process unreaped")
    if tmp is not None and (parts := sorted(map(str, tmp.rglob(".*.part")))):
        pytest.fail(f"the test left temporary output files: {parts}")
