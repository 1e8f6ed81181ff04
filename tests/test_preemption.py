"""Frame preemption timing on the engine-driven EgressPort, checked against
a byte-step oracle."""

import random

import pytest

from tsnsim.core import ClockModel, Engine
from tsnsim.egress import EgressPort, PreemptionConfig, TaprioPort
from tsnsim.traffic import Frame, transmission_time

RATE_100M = 100_000_000
NS_PER_BYTE_100M = 80
PCFG = PreemptionConfig(enabled=True, express_classes=frozenset({7}))


def run_port(pframe, express_arrivals, rate=RATE_100M):
    """{frame id: (wire start, completion)} of pframe, submitted at t=0, and
    of each (arrival, express frame) submitted at its arrival."""
    eng = Engine()
    out = []
    port = EgressPort(eng, rate, queue=TaprioPort(link_rate_bps=rate),
                      preemption=PCFG,
                      deliver=lambda f, e: out.append((f.id, f.hw_tx, e)))
    port.submit(pframe)
    for t, f in express_arrivals:
        eng.schedule(t, port.submit, f)
    eng.run_all()
    return dict((fid, (s, e)) for fid, s, e in out)


def preempt_on_port(psize, esize, arrival, rate=RATE_100M):
    """(express start, express end, pframe completion) of a preemptable
    psize-byte frame sent at t=0 and an esize-byte express frame arriving
    at arrival. The express frame preempts iff it starts before the
    completion."""
    out = run_port(Frame(id=1, size_bytes=psize, priority=0),
                   [(arrival, Frame(id=2, size_bytes=esize, priority=7))], rate)
    return (*out[2], out[1][1])


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
        start, end, complete = preempt_on_port(1500, 64, 10_000)
        assert start < complete
        assert start == 128 * NS_PER_BYTE_100M    # preempt_at_byte 128
        assert start == 10_240
        assert end == 15_360
        assert complete == 125_120

    def test_express_before_first_fragment_waits_for_boundary(self):
        # 32 B sent: wait until the 64 B boundary at 5.12 us
        start, _, complete = preempt_on_port(1500, 64, 2_560)
        assert start < complete and start == 64 * NS_PER_BYTE_100M
        assert start == 5_120

    def test_too_little_remaining_waits_for_frame_end(self):
        # 128 B frame: any split leaves < 64 B on one side
        start, _, complete = preempt_on_port(128, 64, 5_120)
        assert start == complete
        assert start == transmission_time(128, RATE_100M)

    def test_matches_byte_step_oracle_exactly(self):
        rng = random.Random(99)
        for _ in range(500):
            psize = rng.randint(64, 9000)
            esize = rng.randint(64, 200)
            pframe_time = transmission_time(psize, RATE_100M)
            arrival = rng.randrange(0, pframe_time)
            start, end, complete = preempt_on_port(psize, esize, arrival)
            want = byte_step_oracle(psize, esize, arrival, RATE_100M)
            assert (start < complete) == want["preempts"]
            assert start == want["express_start"]
            assert end == want["express_end"]
            assert complete == want["pframe_complete"]

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
            start, _, _ = preempt_on_port(psize, 64, arrival)
            assert start - arrival <= bound

    def test_byte_conservation_fuzz(self):
        # total pMAC wire time = original transmission time (no retransmit)
        rng = random.Random(31)
        for _ in range(10_000):
            psize = rng.randint(192, 9000)
            esize = rng.randint(64, 1500)
            arrival = rng.randrange(0, transmission_time(psize, RATE_100M))
            start, end, complete = preempt_on_port(psize, esize, arrival)
            if start < complete:
                assert complete - (end - start) == transmission_time(psize, RATE_100M)


class TestPortIntegration:
    def test_trace_through_engine(self):
        p = Frame(id=1, size_bytes=1500, priority=0)
        ex = Frame(id=2, size_bytes=64, priority=7)
        out = run_port(p, [(10_000, ex)])
        assert out[2] == (10_240, 15_360)
        assert out[1][1] == 125_120

    def test_preemption_disabled_express_waits_for_mtu(self):
        eng = Engine()
        out = []
        port = EgressPort(eng, RATE_100M, queue=TaprioPort(link_rate_bps=RATE_100M),
                          preemption=PreemptionConfig(enabled=False),
                          deliver=lambda f, e: out.append((f.id, f.hw_tx, e)))
        port.submit(Frame(id=1, size_bytes=9000, priority=0))
        eng.schedule(100, port.submit, Frame(id=2, size_bytes=64, priority=7))
        eng.run_all()
        assert dict((f, (s, e)) for f, s, e in out)[2][0] == 720_000

    def test_a_requeued_express_frame_is_dropped_by_a_full_queue(self):
        # a 100 B frame cannot be split, so each express frame goes back to
        # the one-slot queue, and the second finds it full
        taprio = TaprioPort(link_rate_bps=RATE_100M, capacity=1)
        port = EgressPort(Engine(), RATE_100M, queue=taprio, preemption=PCFG,
                          deliver=lambda f, e: None)
        port.submit(Frame(id=1, size_bytes=100, priority=0))
        port.submit(Frame(id=2, size_bytes=64, priority=7))
        assert not port.queue.drops and taprio.count == 1
        port.submit(Frame(id=3, size_bytes=64, priority=7))
        assert port.queue.drops == {"taprio_full": 1}

    def test_preempted_frame_resumes_when_express_leaves_queue_empty(self):
        # the express frame's completion finds nothing queued, only the
        # suspended frame, which it must still resume
        eng = Engine()
        taprio = TaprioPort(link_rate_bps=RATE_100M)
        out = []
        port = EgressPort(eng, RATE_100M, queue=taprio, preemption=PCFG,
                          deliver=lambda f, e: out.append(
                              (f.id, f.hw_tx, e, taprio.count, port._suspended is not None)))
        port.submit(Frame(id=1, size_bytes=1500, priority=0))
        eng.schedule(10_000, port.submit, Frame(id=2, size_bytes=64, priority=7))
        eng.run_all()
        assert out == [(2, 10_240, 15_360, 0, True), (1, 0, 125_120, 0, False)]

    def test_deliver_gets_arrival_after_propagation_and_first_wire_start(self):
        # express frame 2 cannot be cut and is handed over when it commits;
        # frame 1, cut by it and resumed, at its finish with its first start
        eng = Engine()
        out = []
        port = EgressPort(eng, RATE_100M, queue=TaprioPort(link_rate_bps=RATE_100M),
                          propagation_ns=333, preemption=PCFG,
                          deliver=lambda f, arrival: out.append(
                              (f.id, arrival, f.hw_tx, eng.now)))
        port.submit(Frame(id=1, size_bytes=1500, priority=0))
        eng.schedule(10_000, port.submit, Frame(id=2, size_bytes=64, priority=7))
        eng.run_all()
        assert out == [(2, 15_360 + 333, 10_240, 10_240), (1, 125_120 + 333, 0, 125_120)]

    @pytest.mark.parametrize("phc", [ClockModel(offset_ns=777, drift_ppm=50), None],
                             ids=["phc", "identity"])
    def test_a_resumed_frame_keeps_the_hw_tx_of_its_first_wire_start(self, phc):
        # frame 1 starts at 0, is cut at 10_240 by express frame 2 and resumes
        # at 15_360; a port without a PHC stamps on the identity clock
        eng = Engine()
        out = []
        port = EgressPort(eng, RATE_100M, queue=TaprioPort(link_rate_bps=RATE_100M), phc=phc,
                          preemption=PCFG, deliver=lambda f, e: out.append((f.id, e)))
        cut = Frame(id=1, size_bytes=1500, priority=0)
        express = Frame(id=2, size_bytes=64, priority=7)
        port.submit(cut)
        eng.schedule(10_000, port.submit, express)
        eng.run_all()
        assert out == [(2, 15_360), (1, 125_120)]
        read = (phc or ClockModel()).read
        assert (cut.hw_tx, express.hw_tx) == (read(0), read(10_240))
        if phc is None:
            assert (cut.hw_tx, express.hw_tx) == (0, 10_240)

    def test_two_express_frames_back_to_back(self):
        p = Frame(id=1, size_bytes=1500, priority=0)
        e1 = Frame(id=2, size_bytes=64, priority=7)
        e2 = Frame(id=3, size_bytes=64, priority=7)
        out = run_port(p, [(10_000, e1), (10_100, e2)])
        assert out[2] == (10_240, 15_360)
        assert out[3] == (15_360, 20_480)     # express before pMAC resumes
        assert out[1][1] == 130_240           # 120_000 + 2 * 5_120

    def test_a_hand_over_at_the_boundary_before_the_switch_queues(self):
        # frame 3, scheduled first, is handed over at the 10_240 boundary
        # before the switch to express frame 2 has run: the wire is held,
        # so frame 3 queues, and starts only once frame 1 has resumed and ended
        eng = Engine()
        out = []
        port = EgressPort(eng, RATE_100M, queue=TaprioPort(link_rate_bps=RATE_100M),
                          preemption=PCFG, deliver=lambda f, e: out.append((f.id, f.hw_tx, e)))
        eng.schedule(10_240, port.submit, Frame(id=3, size_bytes=64, priority=0))
        port.submit(Frame(id=1, size_bytes=1500, priority=0))
        eng.schedule(10_000, port.submit, Frame(id=2, size_bytes=64, priority=7))
        eng.run_all()
        assert out == [(2, 10_240, 15_360), (1, 0, 125_120), (3, 125_120, 130_240)]

    def test_an_express_end_at_the_first_end_of_the_cut_frame_delivers_it_once(self):
        # express frame 2 (1,372 B) runs from the 10_240 boundary to 120_000,
        # frame 1's first end: frame 1's finish there is stale and delivers
        # nothing, and frame 1 resumes with its 1,372 B left
        eng = Engine()
        out = []
        port = EgressPort(eng, RATE_100M, queue=TaprioPort(link_rate_bps=RATE_100M),
                          preemption=PCFG, deliver=lambda f, e: out.append((f.id, f.hw_tx, e)))
        port.submit(Frame(id=1, size_bytes=1500, priority=0))
        eng.schedule(10_000, port.submit, Frame(id=2, size_bytes=1372, priority=7))
        eng.run_all()
        assert out == [(2, 10_240, 120_000), (1, 0, 229_760)]

    def test_repeated_preemption_conserves_bytes(self):
        rng = random.Random(17)
        for trial in range(50):
            psize = rng.randint(512, 3000)
            arrivals = sorted(rng.sample(
                range(0, transmission_time(psize, RATE_100M)), 2))
            p = Frame(id=1, size_bytes=psize, priority=0)
            exs = [(t, Frame(id=10 + i, size_bytes=64, priority=7))
                   for i, t in enumerate(arrivals)]
            out = run_port(p, exs)
            p_start, p_end = out[1]
            # only express time spent inside the pframe's wall interval
            # stretches it; late arrivals go out after the frame completes
            total_express = sum(
                max(0, min(e, p_end) - max(s, p_start))
                for s, e in (out[10 + i] for i in range(len(exs))))
            assert p_end - p_start - total_express == \
                transmission_time(psize, RATE_100M)
