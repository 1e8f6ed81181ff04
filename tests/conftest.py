"""Fixtures shared by the test modules."""

import pytest

from tsnsim import harness

#: engine events (sequence numbers taken) allowed per scenario run: about
#: twenty times the 14,000 of the largest run in the guarded modules
EVENT_CAP = 300_000


class RunawayRunError(Exception):
    pass


@pytest.fixture
def event_cap(monkeypatch):
    """Make every engine run_scenario builds raise RunawayRunError past
    EVENT_CAP events, so a port that reschedules its kick forever (a queued
    frame whose gate never opens) fails the test within seconds instead of
    hanging the suite."""

    class CappedEngine(harness.Engine):
        def schedule(self, fire_time, action, *args):
            self._check_cap()
            return super().schedule(fire_time, action, *args)

        def reserve(self):
            self._check_cap()
            return super().reserve()

        def _check_cap(self):
            if self._seq >= EVENT_CAP:
                raise RunawayRunError(f"more than {EVENT_CAP} engine events at t={self.now}")

    monkeypatch.setattr(harness, "Engine", CappedEngine)
