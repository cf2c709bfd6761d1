"""Discrete-event core: virtual clock, ordered event queue, named random streams."""

import hashlib
import heapq
from collections import deque

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
    enqueue counter, so simultaneous events run in FIFO order.

    Only `Simulator.schedule` makes events, and it sets every field. The
    class has no `__init__`, so making one runs no Python frame; one frame
    per event was about a tenth of the kernel's own cost."""

    __slots__ = ("time", "sequence", "kind", "payload", "cancelled")

    def __repr__(self):
        return f"SimEvent(t={self.time!r}, seq={self.sequence}, kind={self.kind!r})"


class Simulator:
    """Single-threaded event loop with a never-decreasing virtual clock.

    `now` is the clock, a plain attribute that `run_until` writes: the time
    of the event being dispatched, and `t_end` once a call returns. Read it,
    never write it. Handlers are registered per event kind with `on`.

    Pending events wait in one of two queues. An event scheduled at exactly
    `now` (every TX_START is one) goes on the same-instant lane, a FIFO
    deque; every later one goes on the heap. The clock moves on only once
    the lane is empty, so the lane's events all have the clock's time, and
    the heap's are never earlier. A heap event at the clock's time was
    scheduled before the clock reached that time, so before every lane
    event, and has the smaller sequence. `run_until` therefore takes the
    lane's head unless the heap's head has the same time, and dispatch order
    is (time, sequence), exactly as with one heap. A lane pop writes its
    event's time to the clock as a heap pop does, so a clock of 0.0 that
    dispatches an event at -0.0 or at int 0 reads -0.0 or 0 during it.
    `schedule` is the one way in to both queues.

    `trace` receives one line per dispatched event, which makes run-to-run
    determinism checkable. It is a SHA-256 hash unless a test swaps in
    another object; that object needs `update(bytes)`, which the loop
    calls, and `hexdigest()`, which `Simulation.run` calls for the result's
    `trace_sha256`.
    """

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._heap = []
        self._lane = deque()
        self._handlers = {}
        self.trace = hashlib.sha256()
        self.dispatched = 0

    def on(self, kind, handler):
        self._handlers[kind] = handler

    def schedule(self, time, kind, payload=None):
        now = self.now
        if time < now:
            raise SchedulingError(f"event at t={time} is before now={now}")
        ev = SimEvent()
        ev.time = time
        ev.sequence = seq = self._seq
        ev.kind = kind
        ev.payload = payload
        ev.cancelled = False
        self._seq = seq + 1
        if time == now:
            self._lane.append(ev)
        else:
            heapq.heappush(self._heap, (time, seq, ev))
        return ev

    def cancel(self, event):
        event.cancelled = True

    def run_until(self, t_end):
        """Dispatch every event with time <= t_end (inclusive), then set the clock to t_end.

        The trace line of an event is `f"{time!r} {sequence} {kind}\\n"`. The
        text of the time is reused from the event before when both times are
        equal, nonzero and of one type, which is exactly when their reprs
        match (0.0 and -0.0 are equal but print differently)."""
        if t_end < self.now:
            raise SchedulingError(f"cannot run to t={t_end}, clock already at {self.now}")
        heap = self._heap
        lane = self._lane
        popleft = lane.popleft
        handler_for = self._handlers.get
        pop = heapq.heappop
        update = self.trace.update
        dispatched = self.dispatched
        last_time = last_text = None
        try:
            while True:
                if lane:
                    # The lane's events are at the clock's time, so they are
                    # due; a heap event of that time goes first.
                    ev = lane[0]
                    time = ev.time
                    if heap and heap[0][0] == time:
                        time, seq, ev = pop(heap)
                    else:
                        popleft()
                        seq = ev.sequence
                elif heap and heap[0][0] <= t_end:
                    time, seq, ev = pop(heap)
                else:
                    break
                self.now = time
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
        self.now = t_end


_SEED_MASK = (1 << 64) - 1


def _stream_entropy(stream_id: str) -> int:
    # Stable across platforms and Python processes (no PYTHONHASHSEED dependence).
    return int.from_bytes(hashlib.sha256(stream_id.encode()).digest()[:8], "big")


class RandomStream:
    """One named, independently seeded draw sequence.

    Identical (seed, stream_id) pairs yield identical sequences on every
    platform; separate names never share state, so e.g. protocol choices can
    never perturb radio noise.

    A stream built with a `block` size serves `uniform` draws only. It
    fetches them `block` at a time with one `Generator.random(block)` call,
    which yields the doubles that `block` scalar calls would, and hands them
    out in order; its other draw methods raise, since a draw of another kind
    could not take its place in the buffered sequence.
    """

    def __init__(self, seed: int, stream_id: str, block: int = 0):
        ss = np.random.SeedSequence([seed & _SEED_MASK, _stream_entropy(stream_id)])
        self._gen = np.random.Generator(np.random.PCG64(ss))
        self._stream_id = stream_id
        self._block = block
        self._buffer = []   # the block's undrawn uniforms, the next one last

    def uniform(self) -> float:
        """A draw in [0, 1)."""
        buffer = self._buffer
        if buffer:
            return buffer.pop()
        if self._block:
            self._buffer = buffer = self._gen.random(self._block).tolist()
            buffer.reverse()
            return buffer.pop()
        return float(self._gen.random())

    def _blocked(self, draw: str) -> RuntimeError:
        return RuntimeError(f"stream {self._stream_id!r} draws uniforms in blocks of "
                            f"{self._block}; it serves no {draw} draws")

    def normal(self, sigma: float) -> float:
        """A zero-mean normal draw with standard deviation sigma (sigma=0 gives exactly 0)."""
        if self._block:
            raise self._blocked("normal")
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        if sigma == 0:
            return 0.0
        return float(self._gen.normal(0.0, sigma))

    def normals(self, sigma: float, n: int | tuple[int, ...]) -> np.ndarray:
        """Vector of n zero-mean normal draws, or an array of shape n filled
        in C order with the draws that successive calls would give."""
        if self._block:
            raise self._blocked("normals")
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        if sigma == 0:
            return np.zeros(n)
        return self._gen.normal(0.0, sigma, size=n)

    def uniforms(self, n: int) -> np.ndarray:
        if self._block:
            raise self._blocked("uniforms")
        return self._gen.random(size=n)

    def randint(self, low: int, high: int) -> int:
        """Integer in [low, high] inclusive."""
        if self._block:
            raise self._blocked("randint")
        return int(self._gen.integers(low, high + 1))

    def exponential(self, mean: float) -> float:
        if self._block:
            raise self._blocked("exponential")
        return float(self._gen.exponential(mean))

