"""Protocol behavior on hand-built topologies: single-ant traces, flood
discipline, loop kills, table priming, and the data pipeline."""

import dataclasses
import math

import pytest
from conftest import build_sim

from antwsn import kernel
from antwsn.config import PROTOCOL_NAMES, ConfigError, SimConfig
from antwsn.protocols import eeabr
from antwsn.protocols.base import DataPacket
from antwsn.protocols.eeabr import selection_weights
from antwsn.radio import (BACKWARD_ANT, BROADCAST, DATA, DATA_ANT,
                          FORWARD_ANT, Frame)
from antwsn.routing import PHEROMONE, PROBABILITY, Ant, Flood, RoutingError
from antwsn.scenario import from_points
from antwsn.simulation import Simulation

LINE3 = [(0, 0), (20, 0), (40, 0)]
LINE5 = [(0, 0), (20, 0), (40, 0), (60, 0), (80, 0)]
STAR4 = [(0, 0), (30, 0), (-30, 0), (0, 30)]   # node 0 sees everyone


def log_sends(sim):
    """Wrap the medium so every frame handed to the MAC is recorded."""
    sent = []
    orig = sim.medium.send

    def tap(frame):
        sent.append(frame)
        orig(frame)

    sim.medium.send = tap
    return sent


class TestBasicAntTrace:
    def test_single_ant_round_trip(self):
        sim = build_sim("babr", LINE3, sink=2)
        sim.protocol.launch_ant(0)
        sim.kernel.run_until(5.0)
        c = sim.counters
        assert c["fwd_ants_launched"] == 1
        assert c["fwd_ants_arrived"] == 1
        assert c["bwd_ants_completed"] == 1
        # first-ever observation: r = c1 = 0.7, applied at the middle hop
        mid = sim.protocol.tables[1]
        assert mid.get(2) == pytest.approx(0.85)
        assert mid.get(0) == pytest.approx(0.15)
        mid.normalize_check()
        # the source's only neighbor keeps probability one
        assert sim.protocol.tables[0].get(1) == pytest.approx(1.0)

    def test_dead_end_destroys_ant(self):
        sim = build_sim("babr", LINE3, sink=2)
        ant = Ant(uid=sim.new_ant_uid())
        ant.visit(2, 0.0)
        ant.visit(0, 0.0)
        ant.visit(1, 0.0)
        # every neighbor of node 1 already visited: nowhere left to go
        sim.protocol._forward_step(1, ant)
        assert sim.counters["fwd_ants_dead_end"] == 1

    def test_column_without_weight_is_not_a_dead_end(self):
        # A column with no weight is a bug, raised rather than booked as an
        # ant that ran out of unvisited neighbors.
        sim = build_sim("babr", LINE3, sink=2)
        for n in (0, 2):
            sim.protocol.tables[1].set(n, 0.0)
        ant = Ant(uid=sim.new_ant_uid())
        ant.visit(0, 0.0)
        ant.visit(1, 0.0)
        with pytest.raises(RoutingError, match="no positive weight"):
            sim.protocol._forward_step(1, ant)
        assert sim.counters["fwd_ants_dead_end"] == 0


class TestSensorGradient:
    def test_startup_bias_toward_the_sink(self):
        import math
        sim = build_sim("sc", LINE3, sink=2)
        mid = sim.protocol.tables[1]
        q0, q2 = 40 / 35, 0.0
        best = 1.0 + min(q0, q2)
        w0, w2 = math.exp(best - q0), math.exp(best - q2)
        assert mid.get(2) == pytest.approx(w2 / (w0 + w2))
        assert mid.get(2) > mid.get(0)
        mid.normalize_check()
        # nodes with one neighbor stay deterministic
        assert sim.protocol.tables[0].get(1) == pytest.approx(1.0)


class TestFloodDiscipline:
    def test_each_node_broadcasts_an_ant_at_most_once(self):
        sim = build_sim("ff", LINE5, sink=4)
        sent = log_sends(sim)
        sim.protocol.launch_ant(0)
        sim.kernel.run_until(5.0)
        uid = next(f.payload.uid for f in sent if f.kind == FORWARD_ANT)
        per_node = {}
        for f in sent:
            if f.kind == FORWARD_ANT and f.dst == BROADCAST \
                    and f.payload.uid == uid:
                per_node[f.src] = per_node.get(f.src, 0) + 1
        assert all(count == 1 for count in per_node.values())
        assert len(per_node) <= 5
        assert sim.counters["fwd_ants_arrived"] >= 1
        assert sim.protocol._pending == {}

    def test_node_dead_at_its_rebroadcast_timer_airs_nothing(self):
        sim = build_sim("ff", LINE3, sink=2)
        sent = log_sends(sim)
        ant = Ant(uid=sim.new_ant_uid(), flood=Flood())
        ant.visit(0, 0.0)
        frame = Frame(src=0, dst=BROADCAST, kind=FORWARD_ANT,
                      size_bits=sim.cfg.ant_bits, payload=ant)
        sim.protocol._on_flood_frame(1, frame)   # node 1 schedules its rebroadcast
        [(key, timer)] = sim.protocol._pending.items()
        assert key == (1, ant.uid) and timer.time < 1.0
        sim.ledger.charge(1, "idle", sim.ledger.residual[1])   # node 1 dies
        sim.kernel.run_until(1.0)
        assert sim.kernel.dispatched == 1      # the timer fired
        assert sent == [] and sim.medium.frames_sent == 0
        assert sim.counters["mac_drop_dead"] == 0
        assert sim.protocol._pending == {}     # popped though nothing aired

    def test_first_sight_overrides_suppression(self):
        sim = build_sim("ff", LINE3, sink=2)
        proto = sim.protocol
        assert proto._want_rebroadcast(1, 0) is True      # no opinion yet
        proto._reinforced.add(1)
        assert proto._want_rebroadcast(1, 0) is False     # uniform: 0.5 == 1/2
        assert proto._want_rebroadcast(1, 99) is True     # unknown sender, p = 0


def frames_of_a_small_run(protocol):
    """Every frame a 9-node grid hands to the MAC in 10 s of ant traffic."""
    cfg = SimConfig(protocol=protocol, nodes=9, layout="grid", duration=10.0,
                    ant_interval=0.5, seed=3)
    sim = Simulation(cfg)
    sent = log_sends(sim)
    sim.run()
    return sent


class TestFrameSizes:
    # 20-byte ants, 50-byte data, and a flooded data ant hauling both.
    BITS = {FORWARD_ANT: 160, BACKWARD_ANT: 160, DATA: 400, DATA_ANT: 560}
    KINDS = {"fp": {DATA_ANT, BACKWARD_ANT}}

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_every_frame_has_its_kinds_size(self, protocol):
        sent = frames_of_a_small_run(protocol)
        assert {f.kind for f in sent} == self.KINDS.get(
            protocol, {FORWARD_ANT, BACKWARD_ANT, DATA})
        assert all(f.size_bits == self.BITS[f.kind] for f in sent)


class TestFramePayloads:
    # A frame carries the object it transports, never a dict of them.
    @staticmethod
    def carries_its_object(kind, payload, protocol):
        if kind == DATA:
            return type(payload) is DataPacket
        if kind == FORWARD_ANT:
            return type(payload) is Ant and (payload.flood is None
                                             or payload.flood.packet is None)
        if kind == DATA_ANT:
            return type(payload) is Ant and type(payload.flood.packet) is DataPacket
        if protocol in ("eeabr", "ieeabr"):   # backward-ant: (uid, dtau, bd)
            uid, dtau, bd = payload
            return type(uid) is int and type(dtau) is float and type(bd) is int
        ant, pos = payload                     # backward-ant: (ant, pos)
        return type(ant) is Ant and type(pos) is int and 0 <= pos < len(ant.path) - 1

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_every_frame_carries_its_kinds_object(self, protocol):
        sent = frames_of_a_small_run(protocol)
        assert sent
        wrong = [(f.kind, f.payload) for f in sent
                 if not self.carries_its_object(f.kind, f.payload, protocol)]
        assert wrong == []


class TestFloodedData:
    def test_chain_delivery_reinforces_the_path(self):
        sim = build_sim("fp", LINE3, sink=2)
        sent = log_sends(sim)
        sim.kernel.schedule(0.5, kernel.DATA_GENERATION, 0)
        sim.kernel.run_until(5.0)
        assert sim.metrics.generated == 1
        assert sim.metrics.delivered == 1
        assert sim.metrics.latency_mean > 0
        assert sim.counters["bwd_ants_completed"] >= 1
        # middle hop learned the sink direction from the backward ant
        mid = sim.protocol.tables[1]
        assert mid.get(2) > 0.5
        # the flooded copies carry the packet plus the visited list
        data_ants = [f for f in sent if f.kind == DATA_ANT]
        assert data_ants
        assert all(f.size_bits == sim.cfg.data_bits + sim.cfg.ant_bits
                   for f in data_ants)

    def test_delivery_counted_once_per_packet(self):
        sim = build_sim("fp", LINE3, sink=2)
        packet = DataPacket(created_at=0.0, ttl=12)
        ant = Ant(uid=sim.new_ant_uid(), flood=Flood(packet))
        ant.visit(0, 0.0)
        for src in (1, 1):
            # Each copy carries its own fork of the packet's one flood ant.
            frame = Frame(src=src, dst=BROADCAST, kind=DATA_ANT, size_bits=560,
                          payload=ant.fork())
            sim.protocol._flood_at_sink(2, frame)
        assert sim.metrics.delivered == 1
        assert sim.counters["fwd_ants_arrived"] == 2  # both copies answered

    def test_no_periodic_ants(self):
        sim = build_sim("fp", LINE3, sink=2)
        assert sim.protocol.launches_ants is False


class TestPheromoneSelection:
    def test_memory_is_hard_excluded(self):
        sim = build_sim("eeabr", STAR4, sink=3)
        sent = log_sends(sim)
        for _ in range(100):
            ant = Ant(uid=sim.new_ant_uid())
            ant.visit(2, 0.0)
            ant.visit(1, 0.0)
            sim.protocol._advance(0, ant, previous=1)
        # the memory holds the last two nodes (1 and 0); node 2 is older
        assert {f.dst for f in sent if f.kind == FORWARD_ANT} == {2, 3}

    def test_exhausted_memory_is_a_dead_end(self):
        sim = build_sim("eeabr", LINE3, sink=2)
        sent = log_sends(sim)
        ant = Ant(uid=1)
        ant.visit(1, 0.0)
        # node 0's only neighbor is node 1, which the ant still remembers
        sim.protocol._advance(0, ant, previous=1)
        assert sim.counters["fwd_ants_dead_end"] == 1
        assert sent == []

    def test_bound_sink_is_scored_at_full_headroom(self, monkeypatch):
        sim = build_sim("eeabr", STAR4, sink=3)
        sim.ledger.residual[3] = 0.5
        assert sim.ledger.residual[3] == 0.5
        picked = []

        def first(weights, u):
            picked.append(list(weights))
            return 0
        monkeypatch.setattr(eeabr, "weighted_pick", first)
        assert sim.protocol._pick_next(0, (1,)) == 2
        cfg, table = sim.cfg, sim.protocol.tables[0]
        assert picked == [selection_weights(
            [table.get(2), table.get(3)], [sim.ledger.residual[2], cfg.energy_budget],
            cfg.alpha, cfg.beta, cfg.energy_budget)]

    def test_loop_is_killed_on_second_visit(self):
        sim = build_sim("eeabr", LINE3, sink=2)
        ant = Ant(uid=77)
        ant.visit(0, 0.0)
        frame = Frame(src=0, dst=1, kind=FORWARD_ANT, size_bits=160, payload=ant)
        sim.protocol._on_forward_ant(1, frame)
        again = Ant(uid=77)
        again.visit(0, 0.0)
        frame2 = Frame(src=0, dst=1, kind=FORWARD_ANT, size_bits=160, payload=again)
        sim.protocol._on_forward_ant(1, frame2)
        assert sim.counters["fwd_ants_looped"] == 1

    def test_backward_ant_updates_trail_and_retraces(self):
        sim = build_sim("eeabr", LINE3, sink=2)
        proto = sim.protocol
        proto.caches[1].remember(5, previous=-1, now=0.0)
        frame = Frame(src=2, dst=1, kind=BACKWARD_ANT, size_bits=160,
                      payload=(5, 0.2, 1))
        proto._on_backward_ant(1, frame)
        # fresh trail 1/3 decays by rho then takes the full deposit
        assert proto.tables[1].get(2) == pytest.approx(0.9 / 3 + 0.2)
        assert sim.counters["bwd_ants_completed"] == 1
        assert proto.caches[1].lookup(5, 0.0) is None

    def test_stale_backward_ant_is_dropped(self):
        sim = build_sim("eeabr", LINE3, sink=2)
        frame = Frame(src=2, dst=1, kind=BACKWARD_ANT, size_bits=160,
                      payload=(999, 0.2, 1))
        sim.protocol._on_backward_ant(1, frame)
        assert sim.counters["bwd_ants_stale"] == 1

    def test_data_avoids_the_node_it_came_from(self):
        sim = build_sim("eeabr", LINE3, sink=2)
        for _ in range(50):
            assert sim.protocol.data_next_hop(1, arrived_from=0) == 2


class TestPrimingAtConstruction:
    # Node 1's column toward neighbours (0, 2) on LINE3 with the sink on 2:
    # case -> (protocol, config overrides, column).
    MID_COLUMNS = {
        "babr": ("babr", {}, [1 / 2, 1 / 2]),       # uniform probabilities
        "ff": ("ff", {}, [1 / 2, 1 / 2]),
        "fp": ("fp", {}, [1 / 2, 1 / 2]),
        "eeabr": ("eeabr", {}, [1 / 3, 1 / 3]),     # fresh mass 1/n each
        "eeabr-tau0": ("eeabr", {"tau0": 0.05}, [0.05, 0.05]),
        "sc": ("sc", {}, [1 / (1 + math.exp(40 / 35)), 1 / (1 + math.exp(-40 / 35))]),
        "ieeabr": ("ieeabr", {}, [2 / 3 * 3 / 16, 2 / 3 * 13 / 16]),
    }

    @pytest.mark.parametrize("case", MID_COLUMNS)
    def test_built_simulation_holds_its_start_up_columns(self, case):
        # sc's distance gradient and ieeabr's sink-adjacent split are set up
        # when the protocol is built, before any event runs. The eeabr family
        # keeps pheromone tables, the rest probability tables.
        protocol, overrides, column = self.MID_COLUMNS[case]
        sim = build_sim(protocol, LINE3, sink=2, **overrides)
        assert sim.kernel.dispatched == 0 and sim.now == 0.0
        assert sim.protocol.tables[1].neighbors == [0, 2]
        assert sim.protocol.tables[1].column == pytest.approx(column)
        mode = PHEROMONE if protocol in ("eeabr", "ieeabr") else PROBABILITY
        assert {t.mode for t in sim.protocol.tables.values()} == {mode}


class TestSmartPriming:
    def test_sink_neighbors_concentrate_mass(self):
        sim = build_sim("ieeabr", LINE3, sink=2)
        mid = sim.protocol.tables[1]
        col_sum = mid.get(0) + mid.get(2)
        # the split fixes the odds; the scale matches an unprimed column
        assert mid.get(2) / mid.get(0) == pytest.approx(13 / 3)
        assert col_sum == pytest.approx(2 * (1 / 3))
        # node 0 is not sink-adjacent and keeps the fresh uniform start
        assert sim.protocol.tables[0].column == [pytest.approx(1 / 3)]

    def test_repriming_follows_the_sink(self):
        sim = build_sim("ieeabr", LINE3, sink=2)
        sim.protocol.on_sink_changed(0)
        mid = sim.protocol.tables[1]
        assert mid.get(0) / mid.get(2) == pytest.approx(13 / 3)

    def test_quota_cap_scales_with_network_size(self):
        sim = build_sim("ieeabr", LINE3, sink=2)
        assert sim.protocol.quota.cap == 5 * 3

    def test_dead_next_hop_redistributes_mass(self):
        sim = build_sim("ieeabr", LINE3, sink=2)
        mid = sim.protocol.tables[1]
        before = sum(mid.column)
        frame = Frame(src=1, dst=2, kind=DATA, size_bits=400, payload=None)
        sim.ledger.charge(2, "tx", sim.ledger.residual[2])   # the addressee dies
        sim.protocol.on_frame_lost(frame, "undelivered")
        assert mid.get(2) == 0.0
        assert mid.get(0) == pytest.approx(before)
        assert sim.counters["link_failures_rerouted"] == 1

    def test_live_loss_does_not_redistribute(self):
        sim = build_sim("ieeabr", LINE3, sink=2)
        mid = sim.protocol.tables[1]
        col = list(mid.column)
        frame = Frame(src=1, dst=2, kind=DATA, size_bits=400, payload=None)
        sim.protocol.on_frame_lost(frame, "undelivered")
        assert mid.column == col

    @pytest.mark.parametrize("reason", ["busy", "energy", "dead"])
    def test_mac_drop_to_a_dead_addressee_does_not_redistribute(self, reason):
        # Only an aired unicast that its addressee missed tells of a dead link.
        sim = build_sim("ieeabr", LINE3, sink=2)
        mid = sim.protocol.tables[1]
        col = list(mid.column)
        frame = Frame(src=1, dst=2, kind=DATA, size_bits=400, payload=None)
        sim.ledger.charge(2, "tx", sim.ledger.residual[2])
        sim.protocol.on_frame_lost(frame, reason)
        assert mid.column == col
        assert sim.counters["link_failures_rerouted"] == 0


class TestDataPipeline:
    def test_sink_generation_is_instant_delivery(self):
        sim = build_sim("babr", LINE3, sink=2)
        sim.kernel.schedule(1.0, kernel.DATA_GENERATION, 2)
        sim.kernel.run_until(2.0)
        assert sim.metrics.generated == 1
        assert sim.metrics.delivered == 1
        assert sim.metrics.latency_mean == 0.0

    def test_expired_hop_budget_drops_packet(self):
        sim = build_sim("babr", LINE3, sink=2)
        packet = DataPacket(created_at=0.0, ttl=0)
        sim.protocol.forward_data(0, packet, arrived_from=None)
        assert sim.counters["data_ttl_expired"] == 1

    def test_column_without_weight_raises(self):
        # Every write to a column keeps it normalized; one with no weight is
        # a bug, reported as such rather than counted as a dropped packet.
        sim = build_sim("babr", LINE3, sink=2)
        sim.protocol.tables[0].set(1, 0.0)
        with pytest.raises(RoutingError, match="no positive weight"):
            sim.protocol.on_data_generated(0)

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_isolated_node_fails_at_construction(self, protocol):
        points = LINE3 + [(500, 500)]
        cfg = SimConfig(protocol=protocol, nodes=len(points), duration=1.0)
        with pytest.raises(RoutingError, match="no neighbors"):
            Simulation(cfg, from_points(points, require_connected=False))

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_topology_radius_must_match_config(self, protocol):
        # At 20 m node 0 routes to and senses [1] only; the config's 35 m
        # would set a threshold at which it also decodes node 2.
        points = [(15.0 * i, 0.0) for i in range(5)]
        cfg = SimConfig(protocol=protocol, nodes=len(points), duration=1.0)
        with pytest.raises(ConfigError, match=r"topology tx_radius 20\.0 .* config tx_radius 35\.0"):
            Simulation(cfg, from_points(points, tx_radius=20.0))
        Simulation(dataclasses.replace(cfg, tx_radius=20.0), from_points(points, tx_radius=20.0))

    def test_topology_node_count_must_match_config(self):
        # The hop budget is validated for cfg.nodes: 0.1 * 10 gives 1 hop, but
        # on this 5-node line every packet would get int(0.1 * 5) = 0.
        points = [(20.0 * i, 0.0) for i in range(5)]
        cfg = SimConfig(protocol="babr", nodes=10, data_ttl_factor=0.1, duration=20.0)
        with pytest.raises(ConfigError, match=r"topology has 5 nodes, config nodes is 10"):
            Simulation(cfg, from_points(points))

    def test_overheard_unicast_is_ignored(self):
        sim = build_sim("babr", LINE3, sink=2)
        packet = DataPacket(created_at=0.0, ttl=5)
        frame = Frame(src=0, dst=2, kind=DATA, size_bits=400, payload=packet)
        sim.protocol.on_frame_received(1, frame)
        assert sim.metrics.delivered == 0
        assert packet.ttl == 5  # untouched: the frame was not for this node

    def test_overheard_backward_ant_is_ignored_by_a_flood_protocol(self):
        sim = build_sim("ff", LINE3, sink=2)
        sent = log_sends(sim)
        proto = sim.protocol
        ant = Ant(uid=sim.new_ant_uid())
        for node, t in ((0, 0.0), (1, 0.1), (2, 0.2)):
            ant.visit(node, t)
        # node 1's last retrace hop to the source, overheard by the sink
        frame = Frame(src=1, dst=0, kind=BACKWARD_ANT, size_bits=160, payload=(ant, 0))
        column = list(proto.tables[2].column)
        proto.on_frame_received(2, frame)
        assert proto.tables[2].column == column
        assert 2 not in proto._reinforced
        assert sim.counters["bwd_ants_completed"] == 0
        assert sent == []
        # the addressee acts on the same frame
        proto.on_frame_received(0, frame)
        assert sim.counters["bwd_ants_completed"] == 1

    @pytest.mark.parametrize("protocol", ["babr", "sc", "eeabr", "ieeabr"])
    def test_broadcast_to_a_unicast_protocol_raises(self, protocol):
        # Only ff and fp air broadcasts; any other protocol receiving one is
        # a bug, reported as such rather than dropped.
        sim = build_sim(protocol, LINE3, sink=2)
        ant = Ant(uid=sim.new_ant_uid())
        ant.visit(0, 0.0)
        frame = Frame(src=0, dst=BROADCAST, kind=FORWARD_ANT, size_bits=160, payload=ant)
        with pytest.raises(NotImplementedError, match=protocol):
            sim.protocol.on_frame_received(1, frame)

    def test_end_to_end_unicast_delivery(self):
        sim = build_sim("babr", LINE3, sink=2)
        sim.kernel.schedule(0.5, kernel.DATA_GENERATION, 1)
        sim.kernel.run_until(5.0)
        # node 1 relays stochastically but the line admits only 0 or 2;
        # with ttl 12 the walk reaches the sink with near certainty
        assert sim.metrics.generated == 1
        assert sim.metrics.delivered in (0, 1)
