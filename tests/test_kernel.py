"""Event loop ordering, cancellation, trace hashing, and the seeded streams."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antwsn.kernel import RandomStream, SchedulingError, Simulator


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
            sim.on("x", lambda ev: None)
            for t in times:
                sim.schedule(t, "x")
            sim.run_until(10.0)
            return sim.trace.hexdigest()

        assert run([1.0, 2.0]) == run([1.0, 2.0])
        assert run([1.0, 2.0]) != run([2.0, 1.0])  # sequence numbers differ
        # A new simulator hashes its trace lines with SHA-256.
        assert run([1.0, 2.0]) == hashlib.sha256(b"1.0 0 x\n2.0 1 x\n").hexdigest()

    def test_trace_lines_match_a_per_event_repr(self):
        # Equal times print alike only when they are nonzero and of one
        # type: -0.0 == 0.0 == 0 and 2 == 2.0 == np.float64(2.0), yet each
        # pair's reprs differ.
        assert_trace_matches_reference(
            [-0.0, 0.0, 0.0, 0, 0.0, 1.5, 1.5, 1.5, 2, 2.0, np.float64(2.0), 2.0, 3.0])

    @settings(max_examples=100, deadline=None)
    @given(times=st.lists(st.sampled_from(
               [-0.0, 0.0, 0, 0.5, 0.5, 1, 1.0, np.float64(1.0), 2.5]), max_size=25),
           cancel=st.sets(st.integers(0, 24)),
           cuts=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), max_size=3))
    def test_trace_lines_match_a_per_event_repr_in_slices(self, times, cancel, cuts):
        assert_trace_matches_reference(times, cancel, sorted(cuts) + [3.0])

    def test_dispatched_is_right_after_each_slice(self):
        sim = Simulator()
        sim.on("x", lambda ev: None)
        times = [0.05 * k for k in range(100)]
        events = [sim.schedule(t, "x") for t in times]
        for ev in events[::7]:
            sim.cancel(ev)
        live = [ev.time for k, ev in enumerate(events) if k % 7]
        for k in range(1, 7):
            bound = min(k * 1.0, 5.5)
            sim.run_until(bound)
            assert sim.dispatched == sum(t <= bound for t in live)

    def test_dispatched_counts_the_event_whose_handler_raised(self):
        sim = Simulator()
        seen = []

        def handler(ev):
            seen.append(ev.payload)
            if ev.payload == 3:
                raise RuntimeError("handler failed")
        sim.on("x", handler)
        for k in range(1, 6):
            sim.schedule(float(k), "x", k)
        with pytest.raises(RuntimeError, match="handler failed"):
            sim.run_until(10.0)
        assert seen == [1, 2, 3]
        assert sim.dispatched == 3
        assert sim.now() == 3.0
        sim.run_until(10.0)
        assert seen == [1, 2, 3, 4, 5]
        assert sim.dispatched == 5


class _Lines:
    """Trace sink that keeps every line it is given."""

    def __init__(self):
        self.lines = []

    def update(self, data):
        self.lines.append(data)


def assert_trace_matches_reference(times, cancel=(), bounds=(10.0,)):
    """Run `times` (events of kinds a and b, alternating, plus one follow-up
    event at the same time from each b handler) through `run_until` at each
    of `bounds`, and check the trace against a line built from each
    dispatched event's own fields."""
    sim = Simulator()
    sim.trace = _Lines()
    dispatched = []

    def follow_up(ev):
        dispatched.append(ev)
        sim.schedule(ev.time, "c")
    sim.on("a", dispatched.append)
    sim.on("b", follow_up)
    sim.on("c", dispatched.append)
    events = [sim.schedule(t, "ab"[k % 2]) for k, t in enumerate(times)]
    for k in cancel:
        if k < len(events):
            sim.cancel(events[k])
    for bound in bounds:
        sim.run_until(bound)
    reference = [f"{ev.time!r} {ev.sequence} {ev.kind}\n".encode() for ev in dispatched]
    assert sim.trace.lines == reference
    assert sim.dispatched == len(dispatched)


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

