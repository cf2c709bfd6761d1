"""Event loop ordering, cancellation, trace hashing, and the seeded streams."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antwsn.kernel import (RandomStream, RandomStreams, SchedulingError,
                           Simulator, weighted_pick)


def collect(sim, kind, out):
    sim.on(kind, lambda ev: out.append((ev.time, ev.payload)))


class TestSimulator:
    def test_time_order(self):
        sim = Simulator()
        out = []
        collect(sim, "x", out)
        sim.schedule(3.0, "x", "c")
        sim.schedule(1.0, "x", "a")
        sim.schedule(2.0, "x", "b")
        sim.run_until(10.0)
        assert [p for _, p in out] == ["a", "b", "c"]

    def test_fifo_on_ties(self):
        sim = Simulator()
        out = []
        collect(sim, "x", out)
        for tag in "abcde":
            sim.schedule(1.0, "x", tag)
        sim.run_until(1.0)
        assert [p for _, p in out] == list("abcde")

    def test_run_until_is_inclusive(self):
        sim = Simulator()
        out = []
        collect(sim, "x", out)
        sim.schedule(5.0, "x", "edge")
        sim.run_until(5.0)
        assert out == [(5.0, "edge")]
        assert sim.now() == 5.0

    def test_clock_advances_to_t_end(self):
        sim = Simulator()
        sim.run_until(7.5)
        assert sim.now() == 7.5

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.run_until(2.0)
        with pytest.raises(SchedulingError):
            sim.schedule(1.0, "x")
        with pytest.raises(SchedulingError):
            sim.run_until(1.0)

    def test_cancel_skips_dispatch(self):
        sim = Simulator()
        out = []
        collect(sim, "x", out)
        keep = sim.schedule(1.0, "x", "keep")
        drop = sim.schedule(1.0, "x", "drop")
        sim.cancel(drop)
        sim.run_until(2.0)
        assert [p for _, p in out] == ["keep"]
        assert sim.dispatched == 1
        assert keep.cancelled is False

    def test_handler_can_schedule_more(self):
        sim = Simulator()
        out = []

        def chain(ev):
            out.append(ev.time)
            if ev.time < 3.0:
                sim.schedule(ev.time + 1.0, "tick")

        sim.on("tick", chain)
        sim.schedule(1.0, "tick")
        sim.run_until(10.0)
        assert out == [1.0, 2.0, 3.0]

    def test_unhandled_kind_is_ignored(self):
        sim = Simulator()
        sim.schedule(1.0, "nobody-listens")
        sim.run_until(2.0)
        assert sim.dispatched == 1

    def test_trace_reflects_dispatch_sequence(self):
        def run(times):
            sim = Simulator()
            sim.trace = hashlib.sha256()
            sim.on("x", lambda ev: None)
            for t in times:
                sim.schedule(t, "x")
            sim.run_until(10.0)
            return sim.trace.hexdigest()

        assert run([1.0, 2.0]) == run([1.0, 2.0])
        assert run([1.0, 2.0]) != run([2.0, 1.0])  # sequence numbers differ


class TestRandomStream:
    def test_reproducible(self):
        a = RandomStream(42, "radio")
        b = RandomStream(42, "radio")
        assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]

    def test_stream_names_are_independent(self):
        a = RandomStream(42, "radio")
        b = RandomStream(42, "mac")
        assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]

    def test_zero_sigma_is_exactly_zero(self):
        st = RandomStream(1, "s")
        assert st.normal(0.0) == 0.0
        assert np.array_equal(st.normals(0.0, 4), np.zeros(4))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32), rows=st.integers(1, 40), n=st.integers(1, 120),
           sigma=st.floats(1e-6, 10.0))
    def test_block_draw_equals_successive_calls(self, seed, rows, n, sigma):
        # The radio draws a block of unit normals and scales it; that must
        # give, bit for bit, the draws of one normals(sigma, n) call per row.
        block = sigma * RandomStream(seed, "radio").normals(1.0, (rows, 2, n))
        twin = RandomStream(seed, "radio")
        calls = np.array([twin.normals(sigma, n) for _ in range(rows * 2)])
        assert block.reshape(rows * 2, n).tobytes() == calls.tobytes()

    def test_negative_sigma_rejected(self):
        st = RandomStream(1, "s")
        with pytest.raises(ValueError):
            st.normal(-1.0)
        with pytest.raises(ValueError):
            st.normals(-1.0, 3)

    def test_randint_bounds_inclusive(self):
        st = RandomStream(3, "s")
        draws = {st.randint(1, 4) for _ in range(200)}
        assert draws == {1, 2, 3, 4}

    def test_exponential_positive(self):
        st = RandomStream(5, "s")
        assert all(st.exponential(2.0) > 0 for _ in range(50))


class TestRandomStreams:
    def test_stream_is_cached(self):
        factory = RandomStreams(9)
        assert factory.stream("traffic") is factory.stream("traffic")

    def test_override_pins_one_stream(self):
        plain = RandomStreams(9)
        pinned = RandomStreams(9, {"traffic": 123})
        assert pinned.stream("traffic").uniform() != plain.stream("traffic").uniform()
        # untouched streams keep the base seed
        assert pinned.stream("radio").uniform() == RandomStreams(9).stream("radio").uniform()


class TestWeightedPick:
    def test_buckets(self):
        weights = [1.0, 3.0]
        assert weighted_pick(weights, 0.0) == 0
        assert weighted_pick(weights, 0.24) == 0
        assert weighted_pick(weights, 0.26) == 1
        assert weighted_pick(weights, 0.99) == 1

    def test_zero_weights_skipped(self):
        assert weighted_pick([0.0, 1.0, 0.0], 0.5) == 1
        assert weighted_pick([0.0, 0.5, 0.5], 0.0) == 1

    def test_last_positive_absorbs_shortfall(self):
        # u close enough to 1 that accumulation may fall short of the target
        assert weighted_pick([0.1, 0.2, 0.0], 1.0 - 1e-16) == 1

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            weighted_pick([0.0, 0.0], 0.3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            weighted_pick([0.5, -0.1], 0.3)

    def test_matches_proportions(self):
        rng = np.random.default_rng(0)
        weights = [0.2, 0.5, 0.3]
        counts = [0, 0, 0]
        n = 20000
        for u in rng.random(n):
            counts[weighted_pick(weights, float(u))] += 1
        for w, c in zip(weights, counts):
            assert abs(c / n - w) < 0.02
