import math
import random
import time
from fractions import Fraction
from functools import partial
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsnsim
from tsnsim.core import (ClockModel, Engine, JitterDist, PastTimeError,
                         rng_fork)
from tsnsim.network import FORWARDING_PRESETS
from tsnsim.scenario import load_scenario

from helpers import run_until

SCENARIOS = Path(tsnsim.__file__).parent / "scenarios"


def fraction_read(start: int, offset: int, drift: Fraction, t: int) -> int:
    """Reference reading on the line of a segment that starts at start with
    offset, in Fraction arithmetic."""
    return t + offset + int(drift * (t - start) / 10 ** 6)


def first_reaching(read, reading: int, lo: int) -> int:
    """Smallest t >= lo with read(t) >= reading, for a monotone read."""
    if read(lo) >= reading:
        return lo
    step = 1
    while read(lo + step) < reading:
        step *= 2
    below, above = lo + step // 2, lo + step
    while above - below > 1:
        mid = (below + above) // 2
        if read(mid) >= reading:
            above = mid
        else:
            below = mid
    return above


def walking_when_reading(start: int, offset: int, drift: Fraction, reading: int) -> int:
    """The former inverse on a segment's line: a first estimate truncated
    toward zero, then a walk up while the reading is short and a walk
    down, not below the segment start, while the reading 1 ns earlier
    still reaches it. Each 1 ns walk ends where the monotone line crosses
    reading, so it is found by doubling and bisection.
    """
    line = partial(fraction_read, start, offset, drift)
    den = drift.denominator * 10 ** 6
    t = start + int(Fraction((reading - offset - start) * den, den + drift.numerator))
    t = first_reaching(line, reading, t)
    if t > start:
        t = first_reaching(line, reading, start)
    return t


def fraction_when_reading(start: int, offset: int, drift: Fraction, reading: int) -> int:
    """Reference inverse: Fraction first estimate, then the same fix-up."""
    t = start + int((reading - offset - start) * 10 ** 6 / (10 ** 6 + drift))
    while fraction_read(start, offset, drift, t) < reading:
        t += 1
    while t > start and fraction_read(start, offset, drift, t - 1) >= reading:
        t -= 1
    return t


class StatefulClock:
    """Reference for ClockModel: a clock changed by resync events.

    Resync k runs at k * interval for 1 <= k <= max(1, horizon // interval)
    and sets the offset to the k-th residual draw from rng; drift counts
    from the last resync that ran. Readings use Fraction arithmetic.
    """

    def __init__(self, offset: int, drift: Fraction, interval, residual: JitterDist,
                 rng: random.Random, horizon: int):
        self.offset, self.drift = offset, drift
        self.interval, self.residual, self.rng = interval, residual, rng
        self.syncs = max(1, horizon // interval) if interval else 0
        self.done = 0
        self.last_sync = 0

    def run_until(self, now: int) -> None:
        """Run every resync event at or before now."""
        while self.done < self.syncs and (self.done + 1) * self.interval <= now:
            self.done += 1
            self.last_sync = self.done * self.interval
            self.offset = self.residual.sample(self.rng)

    def read(self, t: int) -> int:
        return fraction_read(self.last_sync, self.offset, self.drift, t)

    def when_reading(self, reading: int) -> int:
        return fraction_when_reading(self.last_sync, self.offset, self.drift, reading)


def one_resync(offset: int, drift, at: int) -> ClockModel:
    """A clock whose only resync, at true time at > 0, keeps offset; with
    at == 0 it never resyncs."""
    return ClockModel(offset_ns=offset, drift_ppm=drift, sync_interval_ns=at or None,
                      sync_residual=JitterDist.constant(offset)).resynced(
        rng_fork(0, "sync"), horizon=at)


# drifts as JSON gives them (decimal-string floats such as -12.345), plus
# integers and a few large ones; the fix-up loops walk about
# 1 / (1 + drift / 10**6) ns, so the most negative drift is kept moderate
drifts = st.one_of(
    st.integers(min_value=-500, max_value=500),
    st.decimals(min_value=-500, max_value=500, places=3).map(float),
    st.floats(min_value=-900_000, max_value=10 ** 6, allow_nan=False),
)


class TestEngine:
    def test_schedule_at_now_executes(self):
        eng = Engine()
        fired = []
        eng.schedule(0, lambda: fired.append(1))
        run_until(eng, 0)
        assert fired == [1]

    def test_equal_times_fifo(self):
        eng = Engine()
        order = []
        eng.schedule(100, lambda: order.append("A"))
        eng.schedule(100, lambda: order.append("B"))
        run_until(eng, 100)
        assert order == ["A", "B"]

    def test_past_time_rejected(self):
        eng = Engine()
        run_until(eng, 10)
        with pytest.raises(PastTimeError):
            eng.schedule(5, lambda: None)

    def test_run_until_empty(self):
        eng = Engine()
        assert run_until(eng, 10 ** 9) == 0
        assert eng.now == 10 ** 9

    def test_run_until_partial(self):
        eng = Engine()
        for t in (1, 2, 3):
            eng.schedule(t, lambda: None)
        assert run_until(eng, 2) == 2

    def test_reentrant_scheduling(self):
        eng = Engine()
        fired = []
        eng.schedule(1, lambda: (fired.append(1),
                                 eng.schedule(2, lambda: fired.append(2))))
        run_until(eng, 10)
        assert fired == [1, 2]

    @given(st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=50))
    def test_execution_order_nondecreasing(self, times):
        eng = Engine()
        fired = []
        for t in times:
            eng.schedule(t, lambda t=t: fired.append(t))
        run_until(eng, 10 ** 6)
        assert fired == sorted(fired)

    def test_schedule_passes_arguments(self):
        eng = Engine()
        fired = []
        eng.schedule(5, fired.append, "a")
        eng.schedule(5, lambda *args: fired.append(args), 1, None, (2, 3))
        eng.schedule(7, lambda: fired.append("no args"))
        eng.run_all()
        assert fired == ["a", (1, None, (2, 3)), "no args"]
        assert eng.now == 7

    @pytest.mark.parametrize("run", ["run_all", "run_until"])
    def test_equal_times_run_in_insertion_order(self, run):
        eng = Engine()
        order = []
        for i in range(20):
            # args and zero-argument actions interleaved at one instant
            if i % 2:
                eng.schedule(100, order.append, i)
            else:
                eng.schedule(100, lambda i=i: order.append(i))
        eng.schedule(50, order.append, "first")
        assert (eng.run_all() if run == "run_all" else run_until(eng, 100)) == 21
        assert order == ["first", *range(20)]
        assert eng.executed == 21


class TestClockModel:
    def test_identity(self):
        clock = ClockModel()
        assert clock.read(12345) == 12345

    def test_pure_offset(self):
        clock = ClockModel(offset_ns=50)
        assert clock.read(10 ** 6) == 1_000_050

    def test_drift_100ppm_one_second(self):
        clock = ClockModel(drift_ppm=100)
        assert clock.read(10 ** 9) == 10 ** 9 + 100_000

    def test_resync_sets_offset_to_constant_residual(self):
        rng = random.Random(0)
        clock = ClockModel(offset_ns=999, drift_ppm=100, sync_interval_ns=1000,
                           sync_residual=JitterDist.constant(0)).resynced(rng, 1999)
        assert clock.read(999) == 999 + 999
        assert clock.read(1000) == 1000
        # the one resync is at 1000, so drift counts from there
        assert clock.read(1000 + 10 ** 7) == 1000 + 10 ** 7 + 1000
        clock = ClockModel(offset_ns=999, sync_interval_ns=1000,
                           sync_residual=JitterDist.constant(30)).resynced(rng, 2000)
        assert [clock.read(t) - t for t in (999, 1000, 1999, 2000, 10 ** 6)] == [
            999, 30, 30, 30, 30]

    def test_unresynced_clock_ignores_sync_interval(self):
        clock = ClockModel(offset_ns=7, sync_interval_ns=10,
                           sync_residual=JitterDist.constant(0))
        assert clock.read(10 ** 6) == 10 ** 6 + 7

    def test_drift_bounded_between_syncs(self):
        # 10 ppm, resync every 125 ms with zero residual: offset <= 1.25 us
        clock = ClockModel(drift_ppm=10, sync_interval_ns=125_000_000,
                           sync_residual=JitterDist.constant(0)).resynced(
            random.Random(0), 4 * 125_000_000)
        for cycle in range(4):
            t0 = cycle * 125_000_000
            for dt in (0, 1, 10 ** 6, 124_999_999, 125_000_000):
                err = clock.read(t0 + dt) - (t0 + dt)
                assert abs(err) <= 1250

    @settings(max_examples=150)
    @given(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
           drifts,
           st.one_of(st.none(), st.integers(min_value=1, max_value=10 ** 9)),
           st.one_of(st.integers(-10 ** 4, 10 ** 4).map(JitterDist.constant),
                     st.tuples(st.integers(-10 ** 4, 0), st.integers(0, 10 ** 4)).map(
                         lambda b: JitterDist.uniform(*b)),
                     st.tuples(st.integers(-500, 500), st.integers(0, 300)).map(
                         lambda m: JitterDist.normal(*m))),
           st.integers(min_value=0, max_value=40),
           st.integers(min_value=0, max_value=10 ** 9),
           st.lists(st.tuples(st.integers(min_value=0, max_value=45),
                              st.one_of(st.just(0), st.integers(0, 10 ** 9))),
                    min_size=1, max_size=20),
           st.integers(min_value=-3, max_value=3),
           st.integers(min_value=-10 ** 7, max_value=10 ** 7))
    def test_matches_stateful_reference(self, offset, drift, interval, residual, syncs,
                                        extra, probes, delta, far):
        """read(t) and when_reading(reading, t) equal the clock changed by
        resync events, at engine times t that never go back, on resyncs
        and past the last one; read(t) in any order is the same."""
        step = interval or 10 ** 9
        horizon = syncs * step + extra % step
        template = ClockModel(offset_ns=offset, drift_ppm=drift, sync_interval_ns=interval,
                              sync_residual=residual)
        clock = template.resynced(rng_fork(1, "sync"), horizon)
        model = StatefulClock(offset, Fraction(str(drift)), interval, residual,
                              rng_fork(1, "sync"), horizon)
        times = sorted(k * step + phase % step for k, phase in probes)
        readings = []
        for t in times:
            model.run_until(t)
            readings.append(model.read(t))
            assert clock.read(t) == readings[-1]
            for r in (readings[-1] + delta, readings[-1] + far):
                assert clock.when_reading(r, t) == model.when_reading(r)
        assert [clock.read(t) for t in reversed(times)] == readings[::-1]
        # a fresh copy read backwards still draws the residuals in order of k
        fresh = template.resynced(rng_fork(1, "sync"), horizon)
        assert [fresh.read(t) for t in reversed(times)] == readings[::-1]

    @given(st.integers(min_value=0, max_value=2 ** 48))
    def test_identity_on_random_times(self, t):
        assert ClockModel().read(t) == t

    @given(st.integers(min_value=-500, max_value=500),
           st.integers(min_value=0, max_value=10 ** 10),
           st.integers(min_value=0, max_value=10 ** 10))
    def test_drift_linearity(self, drift, t1, t2):
        clock = ClockModel(drift_ppm=drift)
        lhs = clock.read(t2) - clock.read(t1)
        rhs = Fraction(t2 - t1) * (1 + Fraction(drift, 10 ** 6))
        assert abs(lhs - rhs) <= 1

    @given(st.integers(min_value=-500, max_value=500),
           st.integers(min_value=-10 ** 6, max_value=10 ** 6),
           st.integers(min_value=0, max_value=10 ** 10))
    def test_when_reading_inverts_read(self, drift, offset, reading):
        clock = ClockModel(offset_ns=offset, drift_ppm=drift)
        t = clock.when_reading(reading, 0)
        assert clock.read(t) >= reading
        if t > 0:
            assert clock.read(t - 1) < reading

    @given(drifts,
           st.integers(min_value=-10 ** 6, max_value=10 ** 6),
           st.integers(min_value=0, max_value=10 ** 12),
           st.integers(min_value=-10 ** 10, max_value=10 ** 10))
    def test_integer_arithmetic_matches_fraction(self, drift, offset, last_sync, dt):
        # dt < 0 reads a time before the last resync, on the segment before
        # it, and inverts a reading from before it on the segment after it
        clock = one_resync(offset, drift, last_sync)
        exact = Fraction(str(drift))
        assert clock.drift_ppm == exact
        t = last_sync + dt
        reading = fraction_read(0 if dt < 0 else last_sync, offset, exact, t)
        assert clock.read(t) == reading
        for r in (reading - 1, reading, reading + 1):
            assert clock.when_reading(r, last_sync) == fraction_when_reading(
                last_sync, offset, exact, r)

    @settings(max_examples=300)
    @given(st.one_of(drifts,
                     st.integers(min_value=-999_999, max_value=-990_000),
                     st.floats(min_value=-999_999.999, max_value=-999_000),
                     st.sampled_from([-999_999, Fraction(-9_999_999, 10), 1, 10 ** 6])),
           st.integers(min_value=-10 ** 6, max_value=10 ** 6),
           st.integers(min_value=0, max_value=10 ** 12),
           st.integers(min_value=-10 ** 10, max_value=10 ** 10),
           st.integers(min_value=-3, max_value=3))
    def test_closed_form_inverse_matches_walk(self, drift, offset, last_sync, dt, delta):
        # dt < 0 inverts a reading from before the last resync
        clock = one_resync(offset, drift, last_sync)
        reading = fraction_read(last_sync, offset, clock.drift_ppm, last_sync + dt) + delta
        assert clock.when_reading(reading, last_sync) == walking_when_reading(
            last_sync, offset, clock.drift_ppm, reading)

    def test_steepest_drift_inverts_in_closed_form(self):
        # the 1 ns walks took about 0.5 s here: read(t) rises 1 ns per 10**6 ns
        clock = ClockModel(drift_ppm=-999_999)
        start = time.perf_counter()
        t = clock.when_reading(10 ** 6 + 1, 0)
        elapsed = time.perf_counter() - start
        assert t == 1_000_000_000_001
        assert elapsed < 0.01

    @pytest.mark.parametrize("drift", [-10 ** 6, -2 * 10 ** 6, Fraction(-10 ** 7, 3)])
    def test_drift_at_or_below_minus_one_million_rejected(self, drift):
        with pytest.raises(ValueError):
            ClockModel(drift_ppm=drift)


class TestRngFork:
    def test_same_seed_label_identical(self):
        a = rng_fork(42, "wake")
        b = rng_fork(42, "wake")
        assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]

    def test_different_labels_differ(self):
        a = rng_fork(42, "wake")
        b = rng_fork(42, "stack")
        assert [a.random() for _ in range(100)] != [b.random() for _ in range(100)]

    def test_different_seeds_differ(self):
        a = rng_fork(1, "wake")
        b = rng_fork(2, "wake")
        assert [a.random() for _ in range(100)] != [b.random() for _ in range(100)]


class TestJitterDist:
    def test_constant_zero_always_zero(self):
        rng = random.Random(7)
        dist = JitterDist.constant(0)
        assert all(dist.sample(rng) == 0 for _ in range(100))

    def test_uniform_within_bounds(self):
        rng = random.Random(7)
        dist = JitterDist.uniform(5, 9)
        samples = {dist.sample(rng) for _ in range(500)}
        assert samples <= {5, 6, 7, 8, 9}
        assert len(samples) == 5

    def test_normal_truncated_four_sigma_and_floor(self):
        rng = random.Random(7)
        dist = JitterDist.normal(0, 100, min_ns=0)
        for _ in range(2000):
            v = dist.sample(rng)
            assert 0 <= v <= 400

    def test_empirical_support(self):
        rng = random.Random(7)
        dist = JitterDist.empirical([(10, 1), (20, 3)])
        samples = {dist.sample(rng) for _ in range(200)}
        assert samples == {10, 20}

    def test_sampling_pure_function_of_rng_state(self):
        dist = JitterDist.normal(100, 30)
        a = [dist.sample(random.Random(3)) for _ in range(5)]
        b = [dist.sample(random.Random(3)) for _ in range(5)]
        assert a == b

    def test_empirical_draws_match_weighted_choices(self):
        shipped_rx = {load_scenario(path).listener.rx_latency
                      for path in SCENARIOS.glob("*.json")}
        dists = [d for d in (*FORWARDING_PRESETS.values(), *shipped_rx)
                 if d.kind == "empirical"]
        assert len(dists) == 4  # xdp, af_xdp, linux_bridge, rx_latency
        for dist in dists:
            values = [v for v, _ in dist.points]
            weights = [w for _, w in dist.points]
            for seed in range(5):
                rng, ref = random.Random(seed), random.Random(seed)
                got = [dist.sample(rng) for _ in range(500)]
                assert got == [ref.choices(values, weights=weights)[0]
                               for _ in range(500)]
                assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("bounds", [
        (7, 7), (-3, -3),  # span 1
        (0, 6), (10, 10 + 2 ** 12 - 2),  # spans of 2**k - 1
        (0, 7), (5, 5 + 2 ** 16 - 1),  # spans of 2**k
        (0, 8), (1, 1 + 2 ** 20),  # spans of 2**k + 1
        (-250, 40), (-2 ** 33, -2 ** 31),  # negative min_ns
        "hw_precision",
    ], ids=["span_1", "negative_span_1", "span_7", "span_4095", "span_8", "span_65536",
            "span_9", "span_1048577", "negative_min", "negative_wide", "hw_precision"])
    def test_uniform_draws_match_randint(self, bounds):
        if bounds == "hw_precision":
            dist = load_scenario(SCENARIOS / "paper_fig2.json").traffic.hw_precision
            assert (dist.kind, dist.min_ns, dist.max_ns) == ("uniform", 2, 6)
        else:
            dist = JitterDist.uniform(*bounds)
        for seed in range(5):
            rng, ref = random.Random(seed), random.Random(seed)
            got = [dist.sample(rng) for _ in range(1000)]
            assert got == [ref.randint(dist.min_ns, dist.max_ns) for _ in range(1000)]
            assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("dist", [
        JitterDist.constant(250),
        JitterDist.uniform(-20, 40),
        JitterDist.empirical([(7, 1)]),
        JitterDist.empirical([(10, 0.3), (20, 1.7), (35, 2.25), (90, 0.05)]),
        JitterDist.normal(250.0, 0.0),
        JitterDist.normal(100.0, 10.0, min_ns=500),
        JitterDist.normal(400, 600, min_ns=0),
        JitterDist.normal(-3.5, 2.25),
    ], ids=["constant", "uniform", "one_point", "fractional_weights", "zero_std",
            "floor_above_four_sigma", "int_mean", "negative_mean"])
    def test_draws_match_former_expressions(self, dist):
        def former(rng):
            if dist.kind == "constant":
                return dist.value_ns
            if dist.kind == "uniform":
                return rng.randint(dist.min_ns, dist.max_ns)
            if dist.kind == "normal":
                v = rng.gauss(dist.mean_ns, dist.std_ns)
                lo = dist.mean_ns - 4 * dist.std_ns
                hi = dist.mean_ns + 4 * dist.std_ns
                v = round(min(max(v, lo), hi))
                if dist.min_ns is not None and v < dist.min_ns:
                    v = dist.min_ns
                return int(v)
            return rng.choices([v for v, _ in dist.points],
                               cum_weights=list(accumulate(w for _, w in dist.points)))[0]

        # 250 draws per seed take a normal draw past 4 sigma a few times
        for seed in range(200):
            rng, ref = random.Random(seed), random.Random(seed)
            got = [dist.sample(rng) for _ in range(250)]
            want = [former(ref) for _ in range(250)]
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]
            assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("make", [
        lambda: JitterDist.empirical([(1, math.inf)]),
        lambda: JitterDist.empirical([(1, math.nan), (2, 1)]),
        lambda: JitterDist.empirical([(1, 1e308), (2, 1e308)]),
        lambda: JitterDist.normal(math.nan, 1),
        lambda: JitterDist.normal(0, math.inf),
        lambda: JitterDist.normal(math.inf, 0),
        lambda: JitterDist.normal(0, 1e308),
    ], ids=["inf_weight", "nan_weight", "inf_total", "nan_mean", "inf_std",
            "inf_mean", "inf_bound"])
    def test_non_finite_parameters_rejected(self, make):
        # sample skips rng.choices' checks, so construction makes them
        with pytest.raises(ValueError, match="finite"):
            make()
