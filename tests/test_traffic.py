
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsnsim.traffic import (DuplicateExactRuleError, Frame, PacketRecord, StreamKey,
                            StreamRule, ZeroRateError, transmission_time)

from helpers import make_stream_rules


class TestTransmissionTime:
    def test_mtu_at_100mbps(self):
        assert transmission_time(9000, 100_000_000) == 720_000

    def test_64b_at_100mbps(self):
        assert transmission_time(64, 100_000_000) == 5_120

    def test_64b_at_1gbps(self):
        assert transmission_time(64, 10 ** 9) == 512

    def test_overhead_added(self):
        assert transmission_time(64, 10 ** 9, overhead_bytes=20) == \
            transmission_time(84, 10 ** 9)

    def test_zero_rate_rejected(self):
        with pytest.raises(ZeroRateError):
            transmission_time(64, 0)

    @given(st.integers(min_value=64, max_value=4500),
           st.integers(min_value=64, max_value=4500),
           st.sampled_from([10 ** 8, 10 ** 9, 2_500_000_000]))
    def test_linear_in_size(self, a, b, rate):
        lhs = transmission_time(a + b, rate)
        rhs = transmission_time(a, rate) + transmission_time(b, rate)
        assert abs(lhs - rhs) <= 1


class TestFrame:
    def test_egress_class_defaults_to_priority(self):
        assert Frame(id=1, size_bytes=64, priority=5).egress_class == 5

    def test_egress_class_prefers_ipv(self):
        f = Frame(id=1, size_bytes=64, priority=0)
        assert f.egress_class == 0
        f.ipv = 3
        assert f.egress_class == 3

    def test_clone_isolates_trace(self):
        f = Frame(id=1, size_bytes=64, priority=0)
        g = f.clone(route="a")
        g.sw_tx = 5
        assert f.sw_tx is None

    def test_clone_copies_fields_and_applies_changes(self):
        key = StreamKey(dest_mac=1, vlan_id=2, pcp=3)
        f = Frame(id=4, size_bytes=128, priority=1, stream=key,
                  seq=6, ipv=7, txtime=8_000, route="a")
        f.intended_tx, f.sw_tx = 10, 11
        g = f.clone(route="b")
        assert (g.id, g.size_bytes, g.priority, g.stream, g.seq,
                g.ipv, g.txtime, g.route, g.intended_tx, g.sw_tx, g.hw_tx) == (
                    4, 128, 1, key, 6, 7, 8_000, "b", 10, 11, None)
        assert f.route == "a"
        assert f.clone().route == "a"

    def test_clone_rejects_unknown_field(self):
        with pytest.raises(TypeError):
            Frame(id=1, size_bytes=64, priority=0).clone(colour="red")

    def test_clone_copies_every_field(self):
        # clone names each field itself, so a field added later must be added there
        values = {name: object() for name in Frame._fields}
        g = Frame(**values).clone()
        for name, value in values.items():
            assert getattr(g, name) is value, name

    def test_frames_and_records_are_slotted(self):
        assert not hasattr(Frame(id=1, size_bytes=64, priority=0), "__dict__")
        assert not hasattr(PacketRecord(), "__dict__")


class TestStreamRules:
    KEY = StreamKey(dest_mac=0xAABBCCDDEEFF, vlan_id=10, pcp=3)

    def test_exact_match(self):
        rules = make_stream_rules([
            {"dest_mac": self.KEY.dest_mac, "vlan_id": 10, "pcp": 3,
             "handle": "s0"}])
        assert rules.identify(self.KEY) == "s0"

    def test_no_match_is_none(self):
        rules = make_stream_rules([
            {"dest_mac": 1, "vlan_id": 1, "pcp": 1, "handle": "s0"}])
        assert rules.identify(self.KEY) is None

    def test_first_match_wins(self):
        rules = make_stream_rules([
            {"vlan_id": 10, "handle": "first"},
            {"pcp": 3, "handle": "second"}])
        assert rules.identify(self.KEY) == "first"

    def test_wildcards(self):
        rules = make_stream_rules([{"handle": "any"}])
        assert rules.identify(self.KEY) == "any"

    def test_duplicate_exact_rule_rejected(self):
        with pytest.raises(DuplicateExactRuleError):
            make_stream_rules([{"vlan_id": 10, "handle": "a"},
                               {"vlan_id": 10, "handle": "b"}])

    def test_none_key_is_none(self):
        rules = make_stream_rules([{"handle": "any"}])
        assert rules.identify(None) is None

    @given(st.integers(0, 2 ** 48 - 1), st.integers(0, 4095), st.integers(0, 7))
    def test_identification_pure(self, mac, vlan, pcp):
        rules = make_stream_rules([{"vlan_id": 7, "handle": "v7"},
                                   {"pcp": 2, "handle": "p2"},
                                   {"handle": "rest"}])
        key = StreamKey(mac, vlan, pcp)
        assert rules.identify(key) == rules.identify(key)

    @given(st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 3)),
                              st.one_of(st.none(), st.integers(0, 3)),
                              st.one_of(st.none(), st.integers(0, 3))),
                    unique=True, max_size=8),
           st.lists(st.one_of(st.none(), st.builds(StreamKey, st.integers(0, 3),
                                                   st.integers(0, 3), st.integers(0, 3))),
                    min_size=1, max_size=12))
    def test_memoised_identify_matches_first_match_scan(self, patterns, keys):
        rules = make_stream_rules([{"dest_mac": m, "vlan_id": v, "pcp": p, "handle": f"h{i}"}
                                   for i, (m, v, p) in enumerate(patterns)])

        def scan(key):
            if key is None:
                return None
            fields = (key.dest_mac, key.vlan_id, key.pcp)
            return next((f"h{i}" for i, pattern in enumerate(patterns)
                         if all(want in (None, got) for want, got in zip(pattern, fields))),
                        None)

        # the second pass asks every key again, so each answer comes from the memo
        for key in keys + keys:
            assert rules.identify(key) == scan(key)

    def test_identify_scans_the_rules_once_per_key(self, monkeypatch):
        scanned = []
        matches = StreamRule.matches
        monkeypatch.setattr(StreamRule, "matches",
                            lambda r, key: scanned.append(r.handle) or matches(r, key))
        rules = make_stream_rules([{"vlan_id": 7, "handle": "v7"}, {"handle": "rest"}])
        for _ in range(3):
            assert rules.identify(self.KEY) == "rest"
        assert scanned == ["v7", "rest"]

    def test_stream_key_total_order(self):
        a = StreamKey(1, 2, 3)
        b = StreamKey(1, 2, 4)
        c = StreamKey(2, 0, 0)
        assert sorted([c, b, a]) == [a, b, c]

    def test_stream_key_fields_memo_and_immutability(self):
        key = StreamKey(dest_mac=5, vlan_id=100, pcp=2)
        assert key == StreamKey(5, 100, 2) == (5, 100, 2)
        assert (key.dest_mac, key.vlan_id, key.pcp) == (5, 100, 2)
        # equal keys built separately share one memo entry
        rules = make_stream_rules([{"vlan_id": 100, "handle": "v100"}])
        assert rules.identify(key) == rules.identify(StreamKey(5, 100, 2)) == "v100"
        assert len(rules._memo) == 2  # None and the one key
        for name in ("dest_mac", "vlan_id", "pcp"):
            with pytest.raises(AttributeError):
                setattr(key, name, 0)
