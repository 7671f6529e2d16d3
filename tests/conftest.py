"""Fixtures shared by the tests of the threaded normal draw."""

import pytest

from qcsim import quadrature


@pytest.fixture
def open_jobs(monkeypatch):
    """The shared draws made while the test runs that are still open: no
    draw has taken or cancelled them, or one returned, or raised, before
    their helper task was done and every row claimed.  In the order they
    were made."""
    jobs = []

    class Recorded(quadrature._Job):
        def __init__(self, *args):
            super().__init__(*args)
            jobs.append(self)

        def finish(self, fill=True):
            try:
                super().finish(fill)
            finally:
                if self.task.done() and self._next == len(self.ids) and self in jobs:
                    jobs.remove(self)

    monkeypatch.setattr(quadrature, "_Job", Recorded)
    return jobs
