"""Per-cell timing and correctness checks, applied from outside the simulator.

While a `Recorder` is installed, every `Simulation` built in the process is
timed (the CPU time of its construction, the wall time inside `run`) and
gets a `CellProbe`: a handful of instance-level wrappers that count,
independently of the simulator's own counters, what the checks need:

- bits put on air, counted where a TX_END event is scheduled, and bits
  received, counted at the medium's delivery callback (energy identity);
- data generated (the protocol's `on_data_generated` hook) and data delivered
  with each latency (`Simulation.record_delivered`);
- live forward ants under ieeabr's quota (`quota.admit` / `quota.release`).

With a `Speedometer`, the probe also runs the kernel one slice of virtual
time at a time and rescales each slice's wall time to the reference host
speed (see `Speedometer`).
"""

import gc
import heapq
import math
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter, process_time

from antwsn import Simulation
from antwsn.kernel import TX_END
from antwsn.routing import PROBABILITY

ENERGY_REL_TOL = 1e-9
NORM_TOL = 1e-9
POISSON_SIGMAS = 5.0

SLICE_S = 0.25           # virtual seconds per timed slice of a cell's run
CALIBRATE_EVERY_S = 0.03
CALIBRATION_REF_S = 0.0025   # one calibration pass at the reference host's median speed


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def f(self, x):
        return self.a + x * self.b


def calibration_pass(n: int = 3000) -> int:
    """Fixed interpreter-bound work of the simulator's kind (objects, method
    calls, a heap, a dict). It must never change: it is the yardstick."""
    heap, table, acc = [], {}, 0
    for i in range(n):
        item = _Item(i, i & 7)
        heapq.heappush(heap, (item.f(i) % 977, i, item))
        table[i & 255] = item
        if len(heap) > 64:
            acc += heapq.heappop(heap)[2].f(1) + len(table)
    return acc


class Speedometer:
    """Host speed, sampled by a calibration pass at most every
    CALIBRATE_EVERY_S of wall time, between slices of the timed work.

    Speed on a shared host drifts by tens of percent within seconds, and
    the drift slows this pass and the simulator alike; `scale` converts a
    wall time measured now into seconds at the reference speed.
    """

    def __init__(self):
        self.scale = 1.0
        self.passes_s = []      # wall time of every pass, in order
        self._last = -math.inf
        self.refresh()

    def refresh(self):
        t0 = perf_counter()
        if t0 - self._last < CALIBRATE_EVERY_S:
            return
        calibration_pass()
        self._last = perf_counter()
        self.passes_s.append(self._last - t0)
        self.scale = CALIBRATION_REF_S / self.passes_s[-1]

    def at_reference(self, seconds: float) -> float:
        """`seconds` of this run's work rescaled by its median pass."""
        return seconds * CALIBRATION_REF_S / statistics.median(self.passes_s)


@dataclass
class CellRecord:
    label: str
    setup_cpu_s: float = 0.0     # CPU time of constructing the Simulation
    run_wall_s: float = 0.0      # wall time inside run, calibration excluded
    run_s: float = 0.0           # the same, at the reference host speed
    events: int = 0
    trace_sha256: str = ""
    figures: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    frames_aired: int = 0
    receptions: int = 0
    failures: list = field(default_factory=list)


def cell_label(cfg) -> str:
    return f"{cfg.protocol}-{cfg.nodes}-{cfg.scenario}-seed{cfg.seed}"


class CellProbe:
    """Independent counters for one simulation, installed on its instances."""

    def __init__(self, sim, setup_cpu_s: float, speed: Speedometer | None):
        self.sim = sim
        self.speed = speed
        self.sliced_s = 0.0
        self.record = CellRecord(cell_label(sim.cfg), setup_cpu_s=setup_cpu_s)
        self.aired_bits = 0
        self.received_bits = 0
        self.generated = 0
        self.delivered = 0
        self.latency_sum = 0.0
        self.bad_latencies = 0
        self.live_ants = set()
        self.peak_live = 0

        kernel, medium, protocol = sim.kernel, sim.medium, sim.protocol
        kernel.schedule = self._count_aired(kernel.schedule)
        medium.deliver = self._count_received(medium.deliver)
        protocol.on_data_generated = self._count_generated(protocol.on_data_generated)
        sim.record_delivered = self._count_delivered(sim.record_delivered)
        quota = getattr(protocol, "quota", None)
        if quota is not None:
            quota.admit = self._track_admit(quota.admit)
            quota.release = self._track_release(quota.release)
        if speed is not None:
            kernel.run_until = self._sliced(kernel.run_until)

    # -- wrappers ------------------------------------------------------------

    def _count_aired(self, schedule):
        def counted(time, kind, payload=None):
            if kind == TX_END:
                self.aired_bits += payload.frame.size_bits
                self.record.frames_aired += 1
            return schedule(time, kind, payload)
        return counted

    def _count_received(self, deliver):
        def counted(node, frame):
            self.received_bits += frame.size_bits
            self.record.receptions += 1
            deliver(node, frame)
        return counted

    def _count_generated(self, hook):
        def counted(node):
            self.generated += 1
            hook(node)
        return counted

    def _count_delivered(self, record_delivered):
        duration = self.sim.cfg.duration

        def counted(created_at, now):
            latency = now - created_at
            self.delivered += 1
            self.latency_sum += latency
            if not 0.0 <= latency <= duration:
                self.bad_latencies += 1
            record_delivered(created_at, now)
        return counted

    def _track_admit(self, admit):
        def tracked(uid):
            admitted = admit(uid)
            if admitted:
                self.live_ants.add(uid)
                self.peak_live = max(self.peak_live, len(self.live_ants))
            return admitted
        return tracked

    def _track_release(self, release):
        def tracked(uid):
            self.live_ants.discard(uid)
            release(uid)
        return tracked

    def _sliced(self, run_until):
        """Dispatch up to t_end one slice at a time. `run_until` dispatches
        every event at or before its bound and nothing the simulator sees
        runs between two calls, so the event order and trace are unchanged."""
        speed, rec = self.speed, self.record

        def sliced(t_end):
            k = 1
            while True:
                bound = min(k * SLICE_S, t_end)
                speed.refresh()
                t0 = perf_counter()
                run_until(bound)
                dt = perf_counter() - t0
                self.sliced_s += dt
                rec.run_s += dt * speed.scale
                if bound >= t_end:
                    return
                k += 1
        return sliced

    # -- checks ----------------------------------------------------------------

    def finish(self, result, run_wall_s: float) -> CellRecord:
        rec = self.record
        rec.run_wall_s = run_wall_s
        if self.speed is None:
            rec.run_s = run_wall_s
        else:   # start hook, final idle settlement, result assembly
            rec.run_s += (run_wall_s - self.sliced_s) * self.speed.scale
        rec.events = result.dispatched_events
        rec.trace_sha256 = result.trace_sha256
        rec.counters = dict(result.counters)
        rec.figures = {"latency_s": result.latency_s,
                       "success_rate_pct": result.success_rate_pct,
                       "energy_J": result.energy_j,
                       "efficiency_kbit_per_J": result.efficiency_kbit_per_j}
        rec.failures = self.check(result)
        return rec

    def check(self, result) -> list:
        cfg = self.sim.cfg
        fails = []
        if cfg.e_idle_per_s == 0.0 and min(result.residuals) > 0.0:
            expected = (cfg.e_tx_per_bit * self.aired_bits
                        + cfg.e_rx_per_bit * self.received_bits)
            gap = abs(result.energy_j - expected) / max(expected, 1e-30)
            if gap > ENERGY_REL_TOL:
                fails.append(f"energy {result.energy_j!r} J != tx+rx bits "
                             f"{expected!r} J (relative gap {gap:.2e})")
        mean = cfg.traffic_rate * cfg.duration * (result.nodes - 1)
        if abs(self.generated - mean) > POISSON_SIGMAS * math.sqrt(mean):
            fails.append(f"generated {self.generated} is beyond 5 sigma of the "
                         f"Poisson mean {mean:g}")
        if self.generated != result.generated:
            fails.append(f"result says {result.generated} generated, "
                         f"hook saw {self.generated}")
        if not 0 <= self.delivered <= self.generated:
            fails.append(f"delivered {self.delivered} outside [0, {self.generated}]")
        if self.delivered != result.delivered:
            fails.append(f"result says {result.delivered} delivered, "
                         f"hook saw {self.delivered}")
        if self.bad_latencies:
            fails.append(f"{self.bad_latencies} latencies outside [0, {cfg.duration}]")
        if self.delivered and not 0.0 <= self.latency_sum / self.delivered <= cfg.duration:
            fails.append("mean latency outside [0, duration]")
        fails.extend(self._check_tables())
        quota = getattr(self.sim.protocol, "quota", None)
        if quota is not None:
            cap = cfg.ant_cap_multiplier * result.nodes
            if self.peak_live > cap:
                fails.append(f"peak live forward ants {self.peak_live} > cap {cap}")
            if self.peak_live != result.max_live_forward_ants:
                fails.append(f"result says peak live {result.max_live_forward_ants}, "
                             f"hooks saw {self.peak_live}")
        return fails

    def _check_tables(self) -> list:
        fails = []
        for node, table in self.sim.protocol.tables.items():
            columns = {}
            for _, dest, value in table.rows():
                columns.setdefault(dest, []).append(value)
            for dest, values in columns.items():
                if min(values) < 0.0:
                    fails.append(f"node {node} column {dest!r} has a negative entry")
                if table.mode == PROBABILITY:
                    total = math.fsum(values)
                    if abs(total - 1.0) > NORM_TOL:
                        fails.append(f"node {node} column {dest!r} sums to {total!r}")
        return fails


class Recorder:
    """Times and checks every Simulation built while installed.

    Records are appended in the order the runs finish, which within one round
    of a workload is the same every round. A `timed` recorder slices and
    rescales each run (see `Speedometer`) and collects cyclic garbage after
    each run. A finished Simulation sits in reference cycles, so without a
    collection its memory lingers until the collector's next full pass, and
    the process peak would depend on when that pass falls.
    """

    def __init__(self, timed: bool):
        self.speed = Speedometer() if timed else None
        self.records = []
        self._probes = {}

    @contextmanager
    def installed(self):
        init, run = Simulation.__init__, Simulation.run
        recorder = self

        def timed_init(sim, cfg, topology=None):
            t0 = process_time()
            init(sim, cfg, topology)
            setup_cpu_s = process_time() - t0
            recorder._probes[sim] = CellProbe(sim, setup_cpu_s, recorder.speed)

        def timed_run(sim):
            probe = recorder._probes.pop(sim)
            speed = recorder.speed
            passes_before = len(speed.passes_s) if speed else 0
            t0 = perf_counter()
            result = run(sim)
            wall = perf_counter() - t0
            if speed:
                wall -= sum(speed.passes_s[passes_before:])
            recorder.records.append(probe.finish(result, wall))
            if speed:
                gc.collect()
            return result

        Simulation.__init__, Simulation.run = timed_init, timed_run
        try:
            yield self
        finally:
            Simulation.__init__, Simulation.run = init, run
            self._probes.clear()
