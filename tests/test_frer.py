"""Replication and duplicate elimination: exactly-once delivery properties."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsnsim.frer import (ACCEPT, DISCARD_DUPLICATE, DISCARD_STALE, SEQ_HALF,
                         SEQ_SPACE, MissingSeqError, RecoveryState, Replicator)
from tsnsim.traffic import Frame


def frame(seq=None, fid=1):
    return Frame(id=fid, size_bytes=64, priority=0, seq=seq)


class FakePort:
    """Records what a Replicator submits to it."""

    def __init__(self):
        self.submitted = []

    def submit(self, frame):
        self.submitted.append(frame)


def replicator(labels=("a",)):
    ports = {label: FakePort() for label in labels}
    return Replicator(ports), ports


class TestReplicator:
    def test_consecutive_numbers(self):
        rep, ports = replicator()
        for i in range(3):
            rep.submit(frame(fid=i))
        assert [f.seq for f in ports["a"].submitted] == [0, 1, 2]

    def test_wraps_at_65536(self):
        rep, ports = replicator()
        rep.next_seq = 65_535
        rep.submit(frame())
        rep.submit(frame())
        assert [f.seq for f in ports["a"].submitted] == [65_535, 0]

    def test_one_copy_per_member_path_port(self):
        rep, ports = replicator(("a", "b", "c"))
        original = frame(fid=7)
        rep.submit(original)
        assert original.seq == 0
        for label, port in ports.items():
            [copy] = port.submitted
            assert (copy.id, copy.seq, copy.route) == (7, 0, label)
            assert copy is not original


class TestReplicate:
    """The copies Replicator.submit hands to its member paths' ports."""

    def test_one_copy_per_path(self):
        rep, ports = replicator(("a", "b"))
        rep.next_seq = 7
        rep.submit(frame())
        copies = [f for port in ports.values() for f in port.submitted]
        assert [c.route for c in copies] == ["a", "b"]
        assert all(c.seq == 7 and c.size_bytes == 64 for c in copies)

    def test_copies_have_independent_traces(self):
        rep, ports = replicator(("a", "b"))
        rep.submit(frame())
        [a], [b] = ports["a"].submitted, ports["b"].submitted
        a.hw_tx = 123
        assert b.hw_tx is None

    def test_no_paths_rejected(self):
        with pytest.raises(ValueError, match="at least one member path"):
            Replicator({})


class TestRecovery:
    def test_duplicate_discarded(self):
        st = RecoveryState()
        assert st.recover(frame(seq=0)) == ACCEPT
        assert st.recover(frame(seq=0)) == DISCARD_DUPLICATE

    def test_out_of_order_within_window_accepted(self):
        st = RecoveryState()
        assert st.recover(frame(seq=0)) == ACCEPT
        assert st.recover(frame(seq=2)) == ACCEPT
        assert st.recover(frame(seq=1)) == ACCEPT
        assert st.recover(frame(seq=1)) == DISCARD_DUPLICATE

    def test_stale_beyond_window_discarded(self):
        st = RecoveryState(window_size=64)
        st.recover(frame(seq=100))
        assert st.recover(frame(seq=37)) == ACCEPT      # distance 63
        assert st.recover(frame(seq=36)) == DISCARD_STALE

    def test_serial_arithmetic_across_wraparound(self):
        st = RecoveryState()
        assert st.recover(frame(seq=65_535)) == ACCEPT
        assert st.recover(frame(seq=0)) == ACCEPT        # newer, wrapped
        assert st.recover(frame(seq=65_535)) == DISCARD_DUPLICATE
        assert st.recover(frame(seq=65_534)) == ACCEPT   # in window
        assert st.highest_seq == 0

    def test_window_slides_forgetting_old_state(self):
        st = RecoveryState(window_size=4)
        for s in (0, 1, 2, 3):
            st.recover(frame(seq=s))
        st.recover(frame(seq=10))
        # 0..6 are now outside the window
        assert st.recover(frame(seq=2)) == DISCARD_STALE

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            RecoveryState(window_size=0)

    def test_missing_seq_rejected(self):
        with pytest.raises(MissingSeqError):
            RecoveryState().recover(frame())

    def test_counters_tally(self):
        st = RecoveryState()
        assert [st.recover(frame(seq=s)) for s in (0, 0, 1)] == [
            ACCEPT, DISCARD_DUPLICATE, ACCEPT]


class TestExactlyOnce:
    def test_two_path_loss_and_reorder_fuzz(self):
        """10_000 frames over two lossy, mildly reordering paths: every
        frame that survives on at least one path is accepted exactly once."""
        rng = random.Random(2718)
        n = 10_000
        rep, ports = replicator(("a", "b"))
        arrivals = []
        survivors = set()
        for i in range(n):
            rep.submit(frame(fid=i))
            for port in ports.values():
                copy = port.submitted.pop()
                if rng.random() < 0.3:
                    continue
                survivors.add(copy.seq)
                # mild reordering: jitter each arrival by < half the window
                arrivals.append((i * 10 + rng.randrange(0, 320), copy))
        arrivals.sort(key=lambda p: p[0])
        st = RecoveryState(window_size=64)
        accepted = []
        for _, copy in arrivals:
            if st.recover(copy) == ACCEPT:
                accepted.append(copy.seq)
        assert sorted(accepted) == sorted(survivors)
        assert len(accepted) == len(set(accepted))

    def test_uninterrupted_stream_all_accepted(self):
        st = RecoveryState()
        rep, ports = replicator()
        rep.next_seq = 65_000
        for i in range(3000):
            rep.submit(frame(fid=i))
        outcomes = [st.recover(f) for f in ports["a"].submitted]
        assert outcomes == [ACCEPT] * 3000


class RebuildingRecovery:
    """Reference recovery that rebuilds the whole window set on every advance."""

    def __init__(self, window_size):
        self.window_size = window_size
        self.highest_seq = None
        self.seen = set()

    def recover(self, seq):
        if self.highest_seq is None:
            self.highest_seq, self.seen = seq, {seq}
            return ACCEPT
        if 0 < (seq - self.highest_seq) % SEQ_SPACE < SEQ_HALF:
            self.highest_seq = seq
            self.seen = {s for s in self.seen | {seq}
                         if (seq - s) % SEQ_SPACE < self.window_size}
            return ACCEPT
        if (self.highest_seq - seq) % SEQ_SPACE >= self.window_size:
            return DISCARD_STALE
        if seq in self.seen:
            return DISCARD_DUPLICATE
        self.seen.add(seq)
        return ACCEPT


class TestIncrementalWindow:
    # steps mix a steady stream, small moves both ways, jumps past the
    # window and arbitrary numbers; starts near 65535 make the window wrap
    steps = st.lists(st.one_of(st.integers(0, 3),
                               st.integers(-140, 140),
                               st.integers(100, 300),
                               st.integers(0, SEQ_SPACE - 1)), max_size=150)

    @settings(max_examples=300)
    @example(window=3, start=SEQ_SPACE - 4, steps=[1] * 8 + [2, -1, 5, -6, 2])
    @example(window=SEQ_HALF + 1, start=0, steps=[SEQ_HALF - 1] * 3 + [1] * 4)
    @given(st.one_of(st.integers(1, 128),
                     st.sampled_from([SEQ_HALF - 1, SEQ_HALF, SEQ_HALF + 1,
                                      SEQ_SPACE - 1, SEQ_SPACE, SEQ_SPACE + 5])),
           st.one_of(st.integers(SEQ_SPACE - 200, SEQ_SPACE - 1),
                     st.integers(0, SEQ_SPACE - 1)),
           steps)
    def test_matches_rebuilding_reference(self, window, start, steps):
        state = RecoveryState(window_size=window)
        ref = RebuildingRecovery(window)
        seq = start
        for step in [0] + steps:
            seq = (seq + step) % SEQ_SPACE
            assert state.recover(frame(seq=seq)) == ref.recover(seq)
            assert state.seen == ref.seen
            assert state.highest_seq == ref.highest_seq
