"""Discrete-event core: virtual clock, ordered event queue, named random streams."""

import hashlib
import heapq

import numpy as np

# Event kinds dispatched through the simulator.
TX_START = "tx-start"
TX_END = "tx-end"
MAC_RETRY = "mac-retry"
ANT_LAUNCH = "ant-launch"
DATA_GENERATION = "data-generation"
SINK_MOVE = "sink-move"
PROTO_TIMER = "proto-timer"


class SchedulingError(Exception):
    """An event was scheduled in the past. This is a logic bug, never a runtime state."""


class SimEvent:
    """A timestamped event. Dispatch order is (time, sequence); sequence is the
    enqueue counter, so simultaneous events run in FIFO order."""

    __slots__ = ("time", "sequence", "kind", "payload", "cancelled")

    def __init__(self, time, sequence, kind, payload):
        self.time = time
        self.sequence = sequence
        self.kind = kind
        self.payload = payload
        self.cancelled = False

    def __repr__(self):
        return f"SimEvent(t={self.time!r}, seq={self.sequence}, kind={self.kind!r})"


class Simulator:
    """Single-threaded event loop with a never-decreasing virtual clock.

    Handlers are registered per event kind with ``on``. ``trace`` receives
    one line per dispatched event, which makes run-to-run determinism
    checkable. It is a SHA-256 hash unless a test swaps in another object
    with an ``update(bytes)`` method.
    """

    def __init__(self):
        self._now = 0.0
        self._seq = 0
        self._heap = []
        self._handlers = {}
        self.trace = hashlib.sha256()
        self.dispatched = 0

    def now(self):
        return self._now

    def on(self, kind, handler):
        self._handlers[kind] = handler

    def schedule(self, time, kind, payload=None):
        if time < self._now:
            raise SchedulingError(f"event at t={time} is before now={self._now}")
        ev = SimEvent(time, self._seq, kind, payload)
        self._seq += 1
        heapq.heappush(self._heap, (ev.time, ev.sequence, ev))
        return ev

    def cancel(self, event):
        event.cancelled = True

    def run_until(self, t_end):
        """Dispatch every event with time <= t_end (inclusive), then set the clock to t_end.

        The trace line of an event is `f"{time!r} {sequence} {kind}\\n"`. The
        text of the time is reused from the event before when both times are
        equal, nonzero and of one type, which is exactly when their reprs
        match (0.0 and -0.0 are equal but print differently)."""
        if t_end < self._now:
            raise SchedulingError(f"cannot run to t={t_end}, clock already at {self._now}")
        heap = self._heap
        handler_for = self._handlers.get
        pop = heapq.heappop
        update = self.trace.update
        dispatched = self.dispatched
        last_time = last_text = None
        try:
            while heap and heap[0][0] <= t_end:
                time, seq, ev = pop(heap)
                self._now = time
                if ev.cancelled:
                    continue
                if time != last_time or not time or type(time) is not type(last_time):
                    last_time, last_text = time, repr(time)
                update(f"{last_text} {seq} {ev.kind}\n".encode())
                dispatched += 1
                handler = handler_for(ev.kind)
                if handler is not None:
                    handler(ev)
        finally:
            self.dispatched = dispatched
        self._now = t_end


_SEED_MASK = (1 << 64) - 1


def _stream_entropy(stream_id: str) -> int:
    # Stable across platforms and Python processes (no PYTHONHASHSEED dependence).
    return int.from_bytes(hashlib.sha256(stream_id.encode()).digest()[:8], "big")


class RandomStream:
    """One named, independently seeded draw sequence.

    Identical (seed, stream_id) pairs yield identical sequences on every
    platform; separate names never share state, so e.g. protocol choices can
    never perturb radio noise.
    """

    def __init__(self, seed: int, stream_id: str):
        ss = np.random.SeedSequence([seed & _SEED_MASK, _stream_entropy(stream_id)])
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def uniform(self) -> float:
        """A draw in [0, 1)."""
        return float(self._gen.random())

    def normal(self, sigma: float) -> float:
        """A zero-mean normal draw with standard deviation sigma (sigma=0 gives exactly 0)."""
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        if sigma == 0:
            return 0.0
        return float(self._gen.normal(0.0, sigma))

    def normals(self, sigma: float, n: int | tuple[int, ...]) -> np.ndarray:
        """Vector of n zero-mean normal draws, or an array of shape n filled
        in C order with the draws that successive calls would give."""
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        if sigma == 0:
            return np.zeros(n)
        return self._gen.normal(0.0, sigma, size=n)

    def uniforms(self, n: int) -> np.ndarray:
        return self._gen.random(size=n)

    def randint(self, low: int, high: int) -> int:
        """Integer in [low, high] inclusive."""
        return int(self._gen.integers(low, high + 1))

    def exponential(self, mean: float) -> float:
        return float(self._gen.exponential(mean))


def weighted_pick(weights, u: float) -> int:
    """Index drawn from non-negative weights using a single uniform u in [0,1).

    The last strictly positive weight absorbs any floating-point shortfall.
    Raises ValueError when every weight is zero.
    """
    total = 0.0
    for w in weights:
        if w < 0:
            raise ValueError("negative weight")
        total += w
    if total <= 0.0:
        raise ValueError("all weights are zero")
    target = u * total
    acc = 0.0
    last_positive = -1
    for i, w in enumerate(weights):
        if w > 0:
            acc += w
            last_positive = i
            if target < acc:
                return i
    return last_positive
