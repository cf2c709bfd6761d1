"""One complete simulation run: wires the event kernel, radio medium,
topology, traffic, sink placement (fixed or orbiting), and the selected
protocol together, then reports metrics and diagnostics.
"""

import itertools
from collections import Counter
from dataclasses import dataclass, field

from . import kernel
from .config import ConfigError, SimConfig
from .kernel import RandomStream, Simulator
from .metrics import RunMetrics
from .protocols import make_protocol
from .radio import BACKWARD_ANT, DATA, DATA_ANT, FORWARD_ANT, EnergyLedger, Frame, Medium
from .scenario import (Topology, make_grid, make_random_square, make_trajectory,
                       traffic_schedule)


class _Streams:
    """The named draw sequences of one run. Each is seeded from the run's
    seed and its own name, so neither the order they are built in nor
    another stream's draws can change its sequence."""

    def __init__(self, seed: int):
        self.topology = RandomStream(seed, "topology")
        self.traffic = RandomStream(seed, "traffic")
        self.mobility = RandomStream(seed, "mobility")
        self.radio = RandomStream(seed, "radio")
        self.mac = RandomStream(seed, "mac")
        self.protocol = RandomStream(seed, "protocol")


@dataclass
class RunResult:
    protocol: str
    nodes: int
    scenario: str
    seed: int
    duration: float
    generated: int
    delivered: int
    latency_s: float | None
    latency_p50_s: float | None
    latency_p95_s: float | None
    latency_max_s: float | None
    success_rate_pct: float
    energy_j: float
    efficiency_kbit_per_j: float
    conservation_rel_gap: float
    max_live_forward_ants: int | None
    counters: dict = field(default_factory=dict)
    residuals: list = field(default_factory=list)
    trace_sha256: str = ""
    dispatched_events: int = 0


class Simulation:
    """Deterministic single run; construct, then call run() exactly once.

    A finished run keeps its tables, quota, MAC queues, ledger and clock
    readable, but holds no reference cycle, so it is freed by refcount as
    soon as its caller drops it.
    """

    def __init__(self, cfg: SimConfig, topology: Topology | None = None):
        self.cfg = cfg
        self.kernel = Simulator()
        self.rng = _Streams(cfg.seed)
        self.counters = Counter()
        self.metrics = RunMetrics()
        self._ant_uids = itertools.count(1)
        ant, data = cfg.ant_bits, cfg.data_bits
        # A flooded data ant hauls the payload plus the visited-node list.
        self._frame_bits = {FORWARD_ANT: ant, BACKWARD_ANT: ant,
                            DATA: data, DATA_ANT: data + ant}

        if topology is None:
            topology = self._build_topology()
        elif topology.tx_radius != cfg.tx_radius:
            # Routing and carrier sense use the topology's neighbor lists,
            # while the default rx_threshold uses the config's radius.
            raise ConfigError(f"topology tx_radius {topology.tx_radius!r} differs from "
                              f"config tx_radius {cfg.tx_radius!r}")
        elif topology.n != cfg.nodes:
            # The config's hop budget was validated for cfg.nodes.
            raise ConfigError(f"topology has {topology.n} nodes, config nodes is {cfg.nodes}")
        self.topology = topology
        self._bind_sink()

        self.protocol = make_protocol(cfg.protocol, self)
        self.ledger = EnergyLedger(self.topology.n, cfg.energy_budget)
        self.medium = Medium(
            self.kernel, self.topology, cfg, self.ledger,
            self.rng.radio, self.rng.mac,
            deliver=self.protocol.on_frame_received,
            on_undelivered=self._undelivered,
            on_mac_drop=self._mac_drop,
        )

        self.kernel.on(kernel.ANT_LAUNCH, self._handle_ant_launch)
        self.kernel.on(kernel.DATA_GENERATION, self._handle_data_generation)
        self.kernel.on(kernel.SINK_MOVE, self._handle_sink_move)

        self._schedule_traffic()
        self._schedule_ant_launches()
        if self.trajectory is not None:
            self.kernel.schedule(cfg.sink_update_period, kernel.SINK_MOVE)

    # -- construction helpers ------------------------------------------------

    def _build_topology(self) -> Topology:
        cfg = self.cfg
        if cfg.layout == "grid":
            return make_grid(cfg.nodes, cfg.grid_spacing, cfg.tx_radius)
        return make_random_square(cfg.nodes, self.rng.topology, cfg.tx_radius,
                                  cfg.max_topology_retries)

    def _bind_sink(self):
        cfg = self.cfg
        side = self.topology.side
        if cfg.scenario == "dynamic":
            self.trajectory = make_trajectory(side, cfg.duration, self.rng.mobility,
                                              cfg.sink_radius_frac)
            start = self.trajectory.position(0.0)
        else:
            self.trajectory = None
            # The collection point is placed at random; the nearest node hosts it.
            start = (self.rng.mobility.uniform() * side,
                     self.rng.mobility.uniform() * side)
        self.sink_node = self.topology.nearest_node(start)

    def _schedule_traffic(self):
        cfg = self.cfg
        for t, node in traffic_schedule(self.topology.n, self.sink_node,
                                        cfg.traffic_rate, cfg.duration,
                                        self.rng.traffic):
            self.kernel.schedule(t, kernel.DATA_GENERATION, node)

    def _schedule_ant_launches(self):
        if not self.protocol.launches_ants:
            return
        interval = self.cfg.ant_interval
        for node in range(self.topology.n):
            offset = self.rng.protocol.uniform() * interval
            self.kernel.schedule(offset, kernel.ANT_LAUNCH, node)

    # -- event handlers ----------------------------------------------------

    def _handle_ant_launch(self, ev):
        node = ev.payload
        if self.ledger.alive(node):
            # The sink never launches ants. Its tick keeps recurring, since
            # the sink can move away from this node.
            if node != self.sink_node:
                self.protocol.launch_ant(node)
            self.kernel.schedule(ev.time + self.cfg.ant_interval,
                                 kernel.ANT_LAUNCH, node)

    def _handle_data_generation(self, ev):
        node = ev.payload
        if not self.ledger.alive(node):
            self.count("data_source_dead")
            return
        self.metrics.record_generated()
        self.protocol.on_data_generated(node)

    def _handle_sink_move(self, ev):
        alive = self.ledger.alive_mask()
        if alive.any():
            pos = self.trajectory.position(ev.time)
            new = self.topology.nearest_node(pos, alive)
            if new != self.sink_node:
                self.sink_node = new
                self.count("sink_rebinds")
                self.protocol.on_sink_changed(new)
        self.kernel.schedule(ev.time + self.cfg.sink_update_period, kernel.SINK_MOVE)

    # -- medium callbacks ---------------------------------------------------

    def _undelivered(self, frame: Frame, dst_dead: bool):
        self.count("frames_undelivered")
        self.protocol.on_frame_lost(frame, dst_dead)

    def _mac_drop(self, frame: Frame, reason: str):
        self.count(f"mac_drop_{reason}")
        self.protocol.on_frame_lost(frame, False)

    # -- surface used by protocols --------------------------------------------

    @property
    def now(self) -> float:
        return self.kernel.now()

    def send_frame(self, src: int, dst: int, kind: str, payload):
        """Air a frame of `kind`; its size is the kind's, set once per run."""
        self.medium.send(Frame(src=src, dst=dst, kind=kind,
                               size_bits=self._frame_bits[kind], payload=payload))

    def new_ant_uid(self) -> int:
        return next(self._ant_uids)

    def count(self, name: str):
        self.counters[name] += 1

    def record_delivered(self, created_at: float, now: float):
        self.metrics.record_delivered(created_at, now)

    # -- running ---------------------------------------------------------------

    def run(self) -> RunResult:
        cfg = self.cfg
        self.kernel.run_until(cfg.duration)
        self.medium.settle_all_idle()

        energy = self.ledger.total_consumed()
        rel_gap = self.ledger.conservation_gap()
        quota = getattr(self.protocol, "quota", None)
        p50, p95, worst = self.metrics.latency_percentiles()

        self.counters["frames_sent"] = self.medium.frames_sent
        self.counters["frames_delivered"] = self.medium.frames_delivered
        self.counters["collisions"] = self.medium.collisions

        result = RunResult(
            protocol=cfg.protocol,
            nodes=self.topology.n,
            scenario=cfg.scenario,
            seed=cfg.seed,
            duration=cfg.duration,
            generated=self.metrics.generated,
            delivered=self.metrics.delivered,
            latency_s=self.metrics.latency_mean,
            latency_p50_s=p50,
            latency_p95_s=p95,
            latency_max_s=worst,
            success_rate_pct=self.metrics.success_rate_pct,
            energy_j=energy,
            efficiency_kbit_per_j=self.metrics.efficiency_kbit_per_j(energy, cfg.data_bits),
            conservation_rel_gap=rel_gap,
            max_live_forward_ants=quota.max_live if quota is not None else None,
            counters=dict(self.counters),
            residuals=list(self.ledger.residual),
            trace_sha256=self.kernel.trace.hexdigest(),
            dispatched_events=self.kernel.dispatched,
        )
        self._release()
        return result

    def _release(self):
        """Cut the references that tie the finished run into cycles (the
        kernel's bound handlers, the medium's callbacks into this simulation
        and its protocol, and the protocol's link back here) and drop the
        events left pending, which nothing will dispatch. The medium's
        callbacks are the three that every medium takes."""
        self.kernel._handlers.clear()
        self.kernel._heap.clear()
        medium = self.medium
        medium.deliver = medium.on_undelivered = medium.on_mac_drop = None
        self.protocol.sim = None


def run_single(cfg: SimConfig, topology: Topology | None = None) -> RunResult:
    return Simulation(cfg, topology).run()
