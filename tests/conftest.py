"""Tier-1 harness: a deadline on every test, so a hang fails the run instead of stalling it.

A test still running after ``DEADLINE_S`` seconds makes the process print every
thread's traceback and exit, as a ``step`` that re-entered the table store's
lock would otherwise block forever.  The limit sits above the 60 s deadline of
the thread tests' helper.  The traceback goes to a copy of stderr taken while
pytest configures its plugins, before output capture starts, so it is shown.
"""

import faulthandler
import os

import pytest

DEADLINE_S = 120

_stderr_fd = 2


def pytest_configure(config):
    global _stderr_fd
    _stderr_fd = os.dup(2)


def pytest_unconfigure(config):
    os.close(_stderr_fd)


@pytest.fixture(autouse=True)
def _deadline():
    faulthandler.dump_traceback_later(DEADLINE_S, exit=True, file=_stderr_fd)
    yield
    faulthandler.cancel_dump_traceback_later()
