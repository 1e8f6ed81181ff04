"""Frame replication and duplicate elimination with a sliding recovery window."""

from __future__ import annotations

from typing import Optional

from .traffic import Frame

SEQ_SPACE = 65536
SEQ_HALF = SEQ_SPACE // 2

ACCEPT = "accept"
DISCARD_DUPLICATE = "discard_duplicate"
DISCARD_STALE = "discard_stale"


class MissingSeqError(Exception):
    pass


class Replicator:
    """The talker end of a replicated stream: submit(frame) stamps the next
    mod-65536 sequence number and hands one identical copy, tagged with the
    member path's label, at that instant to each member path's port,
    anything with submit(frame), as ports maps the paths' labels to them."""

    def __init__(self, ports: dict):
        if not ports:
            raise ValueError("replication needs at least one member path")
        #: (submit, label) of each member path, bound once
        self.members = [(port.submit, label) for label, port in ports.items()]
        self.next_seq = 0

    def submit(self, frame: Frame) -> None:
        frame.seq = self.next_seq
        self.next_seq = (self.next_seq + 1) % SEQ_SPACE
        for submit, label in self.members:
            submit(frame.clone(label))


class RecoveryState:
    """Sliding-window duplicate elimination for one stream.

    Each sequence number is accepted at most once while it stays within
    window_size of the highest accepted sequence; older arrivals are
    discarded as stale. seen holds exactly the accepted sequences within
    the window. The window slides by forgetting only the numbers that leave
    it, so an advance by d costs O(min(d, window_size)), not O(window_size).
    """

    def __init__(self, window_size: int = 64):
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        self.window_size = window_size
        self.highest_seq: Optional[int] = None
        self.seen: set[int] = set()

    def recover(self, frame: Frame) -> str:
        if frame.seq is None:
            raise MissingSeqError(f"frame {frame.id} has no sequence number")
        seq = frame.seq % SEQ_SPACE
        if self.highest_seq is None:
            self.highest_seq = seq
            self.seen = {seq}
            return ACCEPT
        window = self.window_size
        advance = (seq - self.highest_seq) % SEQ_SPACE
        if not 0 < advance < SEQ_HALF:
            # not newer in mod-65536 serial arithmetic
            if (self.highest_seq - seq) % SEQ_SPACE >= window:
                return DISCARD_STALE
            if seq in self.seen:
                return DISCARD_DUPLICATE
            self.seen.add(seq)
            return ACCEPT
        # newer sequence: accept and slide the window forward
        self.highest_seq = seq
        if advance >= window:
            self.seen = {seq}
        else:
            # entries lie less than window behind the old highest, so those
            # that leave are the `advance` numbers ending at seq - window; a
            # window above SEQ_SPACE - advance loses only SEQ_SPACE - window
            # of them, as older entries wrap round into the window again
            seen = self.seen
            for s in range(seq - window - min(advance, SEQ_SPACE - window) + 1,
                           seq - window + 1):
                seen.discard(s % SEQ_SPACE)
            seen.add(seq)
        return ACCEPT
