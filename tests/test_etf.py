import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsnsim.core import ClockModel, Engine, JitterDist
from tsnsim.egress import EgressPort, EtfQueue, MissingTxtimeError
from tsnsim.traffic import Frame, transmission_time


def frame(fid, txtime=None, size=64):
    return Frame(id=fid, size_bytes=size, priority=0, txtime=txtime)


class TestEtfQueue:
    def test_future_txtime_queued(self):
        q = EtfQueue(delta_ns=0)
        assert q.enqueue(frame(1, txtime=10 ** 6), now=0) is None

    def test_past_txtime_dropped(self):
        q = EtfQueue(delta_ns=0)
        assert q.enqueue(frame(1, txtime=99), now=100) == "etf_past_txtime"
        assert q.drops["etf_past_txtime"] == 1

    def test_delta_moves_deadline(self):
        q = EtfQueue(delta_ns=50_000)
        assert q.enqueue(frame(1, txtime=49_999), now=0) == "etf_past_txtime"
        assert q.enqueue(frame(2, txtime=50_000), now=0) is None

    def test_missing_txtime_raises(self):
        q = EtfQueue()
        with pytest.raises(MissingTxtimeError):
            q.enqueue(frame(1), now=0)

    def test_dequeue_order_by_txtime(self):
        q = EtfQueue()
        q.enqueue(frame(1, txtime=2_000_000), now=0)
        q.enqueue(frame(2, txtime=1_000_000), now=0)
        assert q.pop().txtime == 1_000_000
        assert q.pop().txtime == 2_000_000

    def test_ties_broken_by_frame_id(self):
        q = EtfQueue()
        q.enqueue(frame(5, txtime=100), now=0)
        q.enqueue(frame(3, txtime=100), now=0)
        assert q.pop().id == 3

    @given(st.lists(st.tuples(st.integers(0, 10 ** 9), st.integers(0, 10 ** 6)),
                    min_size=1, max_size=200, unique_by=lambda p: p[1]))
    def test_dequeue_sorted_property(self, items):
        q = EtfQueue()
        for txtime, fid in items:
            q.enqueue(frame(fid, txtime=txtime), now=0)
        out = [q.pop().txtime for _ in range(q.count)]
        assert out == sorted(out)


class TestEtfRelease:
    @staticmethod
    def run_port(frames, *, phc=None, offload=True, delta=0, rate=10 ** 9,
                 precision=JitterDist.constant(0), rng=None, busy_frame=None):
        eng = Engine()
        out = []

        def deliver(f, end):
            # the true wire start, whatever the PHC reads; nothing is preempted
            out.append((f.id, end - transmission_time(f.size_bytes, rate), end))

        port = EgressPort(eng, rate, phc=phc,
                          queue=EtfQueue(delta_ns=delta, offload=offload, clock=phc),
                          hw_precision=precision, rng=rng, deliver=deliver)
        if busy_frame is not None:
            port.submit(busy_frame)
        for f in frames:
            port.submit(f)
        eng.run_all()
        return out

    def test_offload_identity_clock_wire_out_at_txtime(self):
        out = self.run_port([frame(1, txtime=10 ** 6)])
        assert out == [(1, 10 ** 6, 10 ** 6 + 512)]

    def test_offload_phc_offset_shifts_true_wire_out(self):
        # PHC runs 100 ns ahead: the NIC fires when its PHC shows txtime,
        # which is 100 ns early in true time
        out = self.run_port([frame(1, txtime=10 ** 6)],
                            phc=ClockModel(offset_ns=100))
        assert out[0][1] == 10 ** 6 - 100

    def test_software_mode_busy_link_delays_wire_out(self):
        # a 9000 B frame occupies the wire until past the txtime
        busy = frame(0, txtime=50, size=9000)
        out = self.run_port([frame(1, txtime=500_000)], offload=False,
                            rate=10 ** 8, busy_frame=busy)
        busy_end = 50 + 720_000
        assert out[0] == (0, 50, busy_end)
        assert out[1] == (1, busy_end, busy_end + 5_120)

    def test_offload_precision_jitter_added(self):
        import random
        out = self.run_port([frame(1, txtime=10 ** 6)],
                            precision=JitterDist.constant(7),
                            rng=random.Random(0))
        assert out[0][1] == 10 ** 6 + 7

    def test_hw_tx_records_phc_reading(self):
        eng = Engine()
        phc = ClockModel(offset_ns=100)
        port = EgressPort(eng, 10 ** 9, phc=phc, queue=EtfQueue(clock=phc),
                          deliver=lambda f, e: None)
        f = frame(1, txtime=10 ** 6)
        port.submit(f)
        eng.run_all()
        assert f.hw_tx == 10 ** 6
