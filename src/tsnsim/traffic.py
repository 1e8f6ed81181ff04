"""Frames, stream identification, and wire-time arithmetic."""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from .core import Record, SimTime

MIN_FRAME_BYTES = 64
MAX_FRAME_BYTES = 9000

NS_PER_SEC = 10 ** 9


class ZeroRateError(Exception):
    pass


class DuplicateExactRuleError(Exception):
    pass


class StreamKey(tuple):
    """Identifies a stream by (destination MAC, VLAN id, PCP): a tuple, so
    that identify's memo hashes it in C, with a tuple's equality and order."""

    __slots__ = ()
    dest_mac, vlan_id, pcp = (property(itemgetter(i)) for i in range(3))

    def __new__(cls, dest_mac: int, vlan_id: int, pcp: int):
        return tuple.__new__(cls, (dest_mac, vlan_id, pcp))

    def __getnewargs__(self):  # copy and pickle call __new__ with the fields
        return tuple(self)

    def __repr__(self):
        return "StreamKey(dest_mac=%r, vlan_id=%r, pcp=%r)" % self


class PacketRecord(Record):
    """One delivered frame's intended time and four timestamps: a row of Records."""

    __slots__ = _fields = ("seq", "intended_tx", "sw_tx", "hw_tx", "hw_rx", "sw_rx")

    def __init__(self, seq: int = 0, intended_tx: SimTime = 0, sw_tx: Optional[SimTime] = None,
                 hw_tx: Optional[SimTime] = None, hw_rx: Optional[SimTime] = None,
                 sw_rx: Optional[SimTime] = None):
        self.seq, self.intended_tx, self.sw_tx = seq, intended_tx, sw_tx
        self.hw_tx, self.hw_rx, self.sw_rx = hw_tx, hw_rx, sw_rx


class Frame(Record):
    """A frame in flight: its size, priority (its traffic class) and stream,
    the metadata set on the way (FRER seq, IPV, launch time, member path) and
    its tx stamps. The IPV never alters frame bytes; route is the member
    path's label."""

    __slots__ = _fields = ("id", "size_bytes", "priority", "stream", "seq", "ipv", "txtime",
                           "route", "intended_tx", "sw_tx", "hw_tx")

    def __init__(self, id: int, size_bytes: int, priority: int,
                 stream: Optional[StreamKey] = None, seq: Optional[int] = None,
                 ipv: Optional[int] = None, txtime: Optional[SimTime] = None,
                 route: Optional[str] = None, intended_tx: SimTime = 0,
                 sw_tx: Optional[SimTime] = None, hw_tx: Optional[SimTime] = None):
        self.id, self.size_bytes, self.priority = id, size_bytes, priority
        self.stream, self.seq, self.ipv = stream, seq, ipv
        self.txtime, self.route, self.intended_tx = txtime, route, intended_tx
        self.sw_tx, self.hw_tx = sw_tx, hw_tx

    @property
    def egress_class(self) -> int:
        """Traffic class used by egress queuing: IPV metadata wins."""
        return self.ipv if self.ipv is not None else self.priority

    def clone(self, route: Optional[str] = None) -> "Frame":
        """A copy on route if given, else on this frame's.

        Every field goes to one positional constructor call, since this runs
        once per replicated copy: a new field must be passed here as well.
        """
        return Frame(self.id, self.size_bytes, self.priority, self.stream, self.seq, self.ipv,
                     self.txtime, self.route if route is None else route,
                     self.intended_tx, self.sw_tx, self.hw_tx)


def transmission_time(size_bytes: int, link_rate_bps: int,
                      overhead_bytes: int = 0) -> int:
    """Wire time in ns for a frame, rounded to the nearest nanosecond."""
    if link_rate_bps <= 0:
        raise ZeroRateError(f"link_rate_bps={link_rate_bps}")
    bits = (size_bytes + overhead_bytes) * 8
    q, r = divmod(bits * NS_PER_SEC, link_rate_bps)
    return q + (1 if 2 * r >= link_rate_bps else 0)


class StreamRule(Record, frozen=True):
    """Wildcard pattern over StreamKey fields; None matches anything."""

    dest_mac: Optional[int] = None
    vlan_id: Optional[int] = None
    pcp: Optional[int] = None
    handle: str

    def matches(self, key: StreamKey) -> bool:
        return ((self.dest_mac is None or self.dest_mac == key.dest_mac)
                and (self.vlan_id is None or self.vlan_id == key.vlan_id)
                and (self.pcp is None or self.pcp == key.pcp))


class StreamRuleSet:
    """Ordered first-match-wins rule list mapping StreamKeys to handles."""

    def __init__(self, rules):
        seen = set()
        for r in rules:
            pattern = (r.dest_mac, r.vlan_id, r.pcp)
            if pattern in seen:
                raise DuplicateExactRuleError(f"duplicate pattern {pattern}")
            seen.add(pattern)
        self.rules = tuple(rules)
        #: the handle identify found for each key it was asked
        self._memo: dict = {None: None}

    def identify(self, key: Optional[StreamKey]) -> Optional[str]:
        try:
            return self._memo[key]
        except KeyError:
            handle = self._memo[key] = next((r.handle for r in self.rules
                                             if r.matches(key)), None)
            return handle
