"""Per-run state: the flood-dedup record of ff and fp checked against a model
of per-node uid sets, and a finished run freed by refcount alone."""

import gc
import math
import weakref

import pytest

from antwsn.config import PROTOCOL_NAMES, SCENARIOS, SimConfig
from antwsn.radio import DATA_ANT, FORWARD_ANT
from antwsn.routing import PROBABILITY
from antwsn.simulation import Simulation

FLOOD_KINDS = (FORWARD_ANT, DATA_ANT)


class DedupModel:
    """Wraps a flood protocol's frame handler and keeps, per node, the set of
    flood uids that node has seen. A non-sink node's first sight of a uid is
    the only time it asks whether to rebroadcast, so a call of
    `_want_rebroadcast` inside the handler is the protocol's first-sight
    decision; the model's own decision must agree with every one."""

    def __init__(self, sim):
        self.seen = [set() for _ in range(sim.topology.n)]
        self.flooded = set()
        self.first_sights = self.duplicates = 0
        proto = sim.protocol
        handle, want = proto._on_flood_frame, proto._want_rebroadcast
        send = sim.send_frame
        asked = []

        def want_rebroadcast(node, sender):
            asked.append(node)
            return want(node, sender)

        def on_flood_frame(node, frame):
            uid = frame.payload["ant"].uid
            at_sink = node == sim.sink_node
            asked.clear()
            handle(node, frame)
            if at_sink:   # the sink answers every copy and keeps no record
                assert not asked
                return
            first = uid not in self.seen[node]
            assert asked == ([node] if first else []), (node, uid, first)
            self.seen[node].add(uid)
            if first:
                self.first_sights += 1
            else:
                self.duplicates += 1

        def send_frame(src, dst, kind, payload):
            if kind in FLOOD_KINDS:   # a launch, or a rebroadcast of a seen uid
                uid = payload["ant"].uid
                self.flooded.add(uid)
                self.seen[src].add(uid)
            send(src, dst, kind, payload)

        proto._on_flood_frame = on_flood_frame
        proto._want_rebroadcast = want_rebroadcast
        sim.send_frame = send_frame


FLOOD_CELLS = [("ff", {"ant_interval": 2.0}),
               ("fp", {"ant_interval": 20.0, "phi": 0.2, "alpha": 2.0})]


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("protocol,overrides", FLOOD_CELLS)
def test_flood_dedup_matches_a_per_node_uid_model(protocol, overrides, scenario):
    cfg = SimConfig(protocol=protocol, nodes=36, seed=5, scenario=scenario,
                    duration=15.0, traffic_rate=0.2, **overrides)
    sim = Simulation(cfg)
    model = DedupModel(sim)
    sim.run()
    assert model.first_sights > 0 and model.duplicates > 0
    # One dedup entry per flooded uid, however many nodes saw it.
    assert sorted(sim.protocol._seen) == sorted(model.flooded)


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_finished_run_is_freed_by_refcount(protocol, scenario):
    enabled = gc.isenabled()
    gc.disable()
    try:
        cfg = SimConfig(protocol=protocol, nodes=16, seed=7, scenario=scenario,
                        duration=5.0, ant_interval=0.2)
        sim = Simulation(cfg)
        result = sim.run()

        # Everything a caller reads after the run is still there.
        assert sim.kernel.now() == cfg.duration
        for table in sim.protocol.tables.values():
            assert min(table.column) >= 0.0
            if table.mode == PROBABILITY:
                assert abs(math.fsum(table.column) - 1.0) <= 1e-9
        quota = getattr(sim.protocol, "quota", None)
        if quota is not None:
            assert quota.live == sum(frame.kind == FORWARD_ANT
                                     for queue in sim.medium._queues for frame in queue)
        # A finished run has nothing left to dispatch.
        sim.kernel.run_until(cfg.duration + 100.0)
        assert sim.kernel.dispatched == result.dispatched_events

        refs = {name: weakref.ref(obj) for name, obj in (
            ("simulation", sim), ("kernel", sim.kernel), ("medium", sim.medium),
            ("protocol", sim.protocol), ("ledger", sim.ledger))}
        medium = sim.medium
        del sim
        # Holding the medium, for its queues, keeps no protocol state alive.
        assert refs["simulation"]() is None and refs["protocol"]() is None
        del medium
        assert [name for name, ref in refs.items() if ref() is not None] == []
    finally:
        if enabled:
            gc.enable()
