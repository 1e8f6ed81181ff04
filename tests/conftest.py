"""Fixtures shared by the test modules."""

import pytest

from tsnsim import harness

#: engine events (schedule calls) allowed per scenario run: about
#: twenty times the 14,000 of the largest run in the guarded modules
EVENT_CAP = 300_000


class RunawayRunError(Exception):
    pass


class CappedEngine(harness.Engine):
    """An Engine that raises RunawayRunError past EVENT_CAP events."""

    def schedule(self, fire_time, action, *args):
        if self._seq >= EVENT_CAP:
            raise RunawayRunError(f"more than {EVENT_CAP} engine events at t={self.now}")
        return super().schedule(fire_time, action, *args)


@pytest.fixture
def event_cap(monkeypatch):
    """Make every engine run_scenario builds a CappedEngine, so a port that
    reschedules its kick forever (a queued frame whose gate never opens)
    fails the test within seconds instead of hanging the suite."""
    monkeypatch.setattr(harness, "Engine", CappedEngine)
