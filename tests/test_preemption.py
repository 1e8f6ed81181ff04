"""Frame preemption timing, checked against a byte-step oracle."""

import random

import pytest

from tsnsim.core import Engine
from tsnsim.egress import (EgressPort, NotPreemptableError, PreemptionConfig,
                           TaprioPort, plan_preemption)
from tsnsim.traffic import Frame, transmission_time

RATE_100M = 100_000_000
PCFG = PreemptionConfig(enabled=True, express_classes=frozenset({7}))


def byte_step_oracle(pframe_size, express_size, arrival, rate, frag=64):
    """Walk the wire byte by byte applying the stated fragment rule."""
    ns_per_byte = 8 * 10 ** 9 // rate
    sent = 0
    t = 0
    # bytes fully on the wire when the express frame arrives
    while (sent + 1) * ns_per_byte <= arrival:
        sent += 1
    point = max(frag, frag * (sent // frag + 1))
    if point > pframe_size - frag:
        express_start = pframe_size * ns_per_byte
        return {"preempts": False, "express_start": express_start,
                "express_end": express_start + express_size * ns_per_byte,
                "pframe_complete": pframe_size * ns_per_byte}
    express_start = point * ns_per_byte
    express_end = express_start + express_size * ns_per_byte
    pframe_complete = express_end + (pframe_size - point) * ns_per_byte
    return {"preempts": True, "express_start": express_start,
            "express_end": express_end, "pframe_complete": pframe_complete}


class TestPlanPreemption:
    def test_paper_trace_1500b_express_at_10us(self):
        plan = plan_preemption(PCFG, 1500, 0, 64, 10_000, RATE_100M)
        assert plan.preempts
        assert plan.preempt_at_byte == 128
        assert plan.express_start == 10_240
        assert plan.express_end == 15_360
        assert plan.pframe_complete == 125_120

    def test_express_before_first_fragment_waits_for_boundary(self):
        # 32 B sent: wait until the 64 B boundary at 5.12 us
        plan = plan_preemption(PCFG, 1500, 0, 64, 2_560, RATE_100M)
        assert plan.preempts and plan.preempt_at_byte == 64
        assert plan.express_start == 5_120

    def test_too_little_remaining_waits_for_frame_end(self):
        # 128 B frame: any split leaves < 64 B on one side
        plan = plan_preemption(PCFG, 128, 0, 64, 5_120, RATE_100M)
        assert not plan.preempts
        assert plan.express_start == transmission_time(128, RATE_100M)

    def test_disabled_raises(self):
        with pytest.raises(NotPreemptableError):
            plan_preemption(PreemptionConfig(enabled=False), 1500, 0, 64,
                            10_000, RATE_100M)

    def test_matches_byte_step_oracle_exactly(self):
        rng = random.Random(99)
        for _ in range(500):
            psize = rng.randint(64, 9000)
            esize = rng.randint(64, 200)
            pframe_time = transmission_time(psize, RATE_100M)
            arrival = rng.randrange(0, pframe_time)
            plan = plan_preemption(PCFG, psize, 0, esize, arrival, RATE_100M)
            want = byte_step_oracle(psize, esize, arrival, RATE_100M)
            assert plan.preempts == want["preempts"]
            assert plan.express_start == want["express_start"]
            assert plan.express_end == want["express_end"]
            if plan.preempts:
                assert plan.pframe_complete == want["pframe_complete"]

    def test_express_bound_when_two_fragments_remain(self):
        # remaining >= 128 B: access delay <= time of 127 B
        bound = transmission_time(127, RATE_100M)
        rng = random.Random(5)
        for _ in range(2000):
            psize = rng.randint(256, 9000)
            arrival = rng.randrange(0, transmission_time(psize, RATE_100M))
            sent = (arrival * RATE_100M) // (8 * 10 ** 9)
            if psize - sent < 128:
                continue
            plan = plan_preemption(PCFG, psize, 0, 64, arrival, RATE_100M)
            assert plan.express_start - arrival <= bound

    def test_byte_conservation_fuzz(self):
        # total pMAC wire time = original transmission time (no retransmit)
        rng = random.Random(31)
        for _ in range(10_000):
            psize = rng.randint(192, 9000)
            esize = rng.randint(64, 1500)
            arrival = rng.randrange(0, transmission_time(psize, RATE_100M))
            plan = plan_preemption(PCFG, psize, 0, esize, arrival, RATE_100M)
            if plan.preempts:
                express_time = plan.express_end - plan.express_start
                wire_time = plan.pframe_complete - express_time
                assert wire_time == transmission_time(psize, RATE_100M)


class TestPortIntegration:
    @staticmethod
    def run_port(pframe, express_arrivals, rate=RATE_100M):
        eng = Engine()
        out = []
        port = EgressPort(eng, rate, queue=TaprioPort(link_rate_bps=rate),
                          preemption=PCFG,
                          deliver=lambda f, s, e: out.append((f.id, s, e)))
        port.submit(pframe, 0)
        for t, f in express_arrivals:
            eng.schedule(t, lambda f=f: port.submit(f, eng.now))
        eng.run_all()
        return dict((fid, (s, e)) for fid, s, e in out)

    def test_trace_through_engine(self):
        p = Frame(id=1, size_bytes=1500, priority=0)
        ex = Frame(id=2, size_bytes=64, priority=7)
        out = self.run_port(p, [(10_000, ex)])
        assert out[2] == (10_240, 15_360)
        assert out[1][1] == 125_120

    def test_preemption_disabled_express_waits_for_mtu(self):
        eng = Engine()
        out = []
        port = EgressPort(eng, RATE_100M, queue=TaprioPort(link_rate_bps=RATE_100M),
                          preemption=PreemptionConfig(enabled=False),
                          deliver=lambda f, s, e: out.append((f.id, s, e)))
        port.submit(Frame(id=1, size_bytes=9000, priority=0), 0)
        eng.schedule(100, lambda: port.submit(
            Frame(id=2, size_bytes=64, priority=7), eng.now))
        eng.run_all()
        assert dict((f, (s, e)) for f, s, e in out)[2][0] == 720_000

    def test_two_express_frames_back_to_back(self):
        p = Frame(id=1, size_bytes=1500, priority=0)
        e1 = Frame(id=2, size_bytes=64, priority=7)
        e2 = Frame(id=3, size_bytes=64, priority=7)
        out = self.run_port(p, [(10_000, e1), (10_100, e2)])
        assert out[2] == (10_240, 15_360)
        assert out[3] == (15_360, 20_480)     # express before pMAC resumes
        assert out[1][1] == 130_240           # 120_000 + 2 * 5_120

    def test_repeated_preemption_conserves_bytes(self):
        rng = random.Random(17)
        for trial in range(50):
            psize = rng.randint(512, 3000)
            arrivals = sorted(rng.sample(
                range(0, transmission_time(psize, RATE_100M)), 2))
            p = Frame(id=1, size_bytes=psize, priority=0)
            exs = [(t, Frame(id=10 + i, size_bytes=64, priority=7))
                   for i, t in enumerate(arrivals)]
            out = self.run_port(p, exs)
            p_start, p_end = out[1]
            # only express time spent inside the pframe's wall interval
            # stretches it; late arrivals go out after the frame completes
            total_express = sum(
                max(0, min(e, p_end) - max(s, p_start))
                for s, e in (out[10 + i] for i in range(len(exs))))
            assert p_end - p_start - total_express == \
                transmission_time(psize, RATE_100M)
