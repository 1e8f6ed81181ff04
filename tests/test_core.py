import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsnsim
from tsnsim.core import (ClockModel, Engine, JitterDist, PastTimeError,
                         rng_fork)
from tsnsim.network import FORWARDING_PRESETS
from tsnsim.scenario import load_scenario

SCENARIOS = Path(tsnsim.__file__).parent / "scenarios"


def fraction_read(clock: ClockModel, drift: Fraction, t: int) -> int:
    """Reference reading computed with Fraction arithmetic."""
    return t + clock.offset_ns + int(drift * (t - clock.last_sync_true_time) / 10 ** 6)


def fraction_when_reading(clock: ClockModel, drift: Fraction, reading: int) -> int:
    """Reference inverse: Fraction first estimate, then the same fix-up."""
    ls = clock.last_sync_true_time
    t = ls + int((reading - clock.offset_ns - ls) * 10 ** 6 / (10 ** 6 + drift))
    while fraction_read(clock, drift, t) < reading:
        t += 1
    while t > ls and fraction_read(clock, drift, t - 1) >= reading:
        t -= 1
    return t


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
        eng.run_until(0)
        assert fired == [1]

    def test_equal_times_fifo(self):
        eng = Engine()
        order = []
        eng.schedule(100, lambda: order.append("A"))
        eng.schedule(100, lambda: order.append("B"))
        eng.run_until(100)
        assert order == ["A", "B"]

    def test_past_time_rejected(self):
        eng = Engine()
        eng.run_until(10)
        with pytest.raises(PastTimeError):
            eng.schedule(5, lambda: None)

    def test_run_until_empty(self):
        eng = Engine()
        assert eng.run_until(10 ** 9) == 0
        assert eng.now == 10 ** 9

    def test_run_until_partial(self):
        eng = Engine()
        for t in (1, 2, 3):
            eng.schedule(t, lambda: None)
        assert eng.run_until(2) == 2

    def test_reentrant_scheduling(self):
        eng = Engine()
        fired = []
        eng.schedule(1, lambda: (fired.append(1),
                                 eng.schedule(2, lambda: fired.append(2))))
        eng.run_until(10)
        assert fired == [1, 2]

    @given(st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=50))
    def test_execution_order_nondecreasing(self, times):
        eng = Engine()
        fired = []
        for t in times:
            eng.schedule(t, lambda t=t: fired.append(t))
        eng.run_until(10 ** 6)
        assert fired == sorted(fired)


class TestClockModel:
    def test_identity(self):
        clock = ClockModel.identity()
        assert clock.read(12345) == 12345

    def test_pure_offset(self):
        clock = ClockModel(offset_ns=50)
        assert clock.read(10 ** 6) == 1_000_050

    def test_drift_100ppm_one_second(self):
        clock = ClockModel(drift_ppm=100)
        assert clock.read(10 ** 9) == 10 ** 9 + 100_000

    def test_apply_sync_constant_residual(self):
        rng = random.Random(0)
        clock = ClockModel(offset_ns=999, sync_residual=JitterDist.constant(0))
        clock.apply_sync(1000, rng)
        assert clock.offset_ns == 0 and clock.last_sync_true_time == 1000
        clock.sync_residual = JitterDist.constant(30)
        clock.apply_sync(2000, rng)
        assert clock.offset_ns == 30

    def test_drift_bounded_between_syncs(self):
        # 10 ppm, resync every 125 ms with zero residual: offset <= 1.25 us
        rng = random.Random(0)
        clock = ClockModel(drift_ppm=10, sync_interval_ns=125_000_000,
                           sync_residual=JitterDist.constant(0))
        for cycle in range(4):
            t0 = cycle * 125_000_000
            clock.apply_sync(t0, rng)
            for dt in (0, 1, 10 ** 6, 124_999_999, 125_000_000):
                err = clock.read(t0 + dt) - (t0 + dt)
                assert abs(err) <= 1250

    @given(st.integers(min_value=0, max_value=2 ** 48))
    def test_identity_on_random_times(self, t):
        assert ClockModel.identity().read(t) == t

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
        t = clock.when_reading(reading)
        assert clock.read(t) >= reading
        if t > 0:
            assert clock.read(t - 1) < reading

    @given(drifts,
           st.integers(min_value=-10 ** 6, max_value=10 ** 6),
           st.integers(min_value=0, max_value=10 ** 12),
           st.integers(min_value=-10 ** 10, max_value=10 ** 10))
    def test_integer_arithmetic_matches_fraction(self, drift, offset, last_sync, dt):
        # dt < 0 reads or inverts a time before the last resync
        clock = ClockModel(offset_ns=offset, drift_ppm=drift,
                           last_sync_true_time=last_sync)
        exact = Fraction(str(drift))
        assert clock.drift_ppm == exact
        t = last_sync + dt
        reading = fraction_read(clock, exact, t)
        assert clock.read(t) == reading
        for r in (reading - 1, reading, reading + 1):
            assert clock.when_reading(r) == fraction_when_reading(clock, exact, r)

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

    def test_config_round_trip(self):
        for dist in (JitterDist.constant(5), JitterDist.uniform(1, 2),
                     JitterDist.normal(3.0, 1.5, min_ns=0),
                     JitterDist.empirical([(1, 2.0), (3, 4.0)])):
            assert JitterDist.from_config(dist.to_config()) == dist
