"""Per-run state: the flood-dedup records of ff and fp checked against a model
of per-node uid sets, each record living exactly as long as some copy of its
flood, and a finished run freed by refcount alone."""

import gc
import math
import weakref

import pytest

from antwsn.config import PROTOCOL_NAMES, SCENARIOS, SimConfig
from antwsn.protocols import ff
from antwsn.radio import DATA_ANT, FORWARD_ANT
from antwsn.routing import PROBABILITY, Ant, Flood
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
        self.first_sights = self.duplicates = 0
        proto = sim.protocol
        handle, want = proto._on_flood_frame, proto._want_rebroadcast
        send = sim.send_frame
        asked = []

        def want_rebroadcast(node, sender):
            asked.append(node)
            return want(node, sender)

        def on_flood_frame(node, frame):
            uid = frame.payload.uid
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
                self.seen[src].add(payload.uid)
            send(src, dst, kind, payload)

        proto._on_flood_frame = on_flood_frame
        proto._want_rebroadcast = want_rebroadcast
        sim.send_frame = send_frame


FLOOD_CELLS = [("ff", {"ant_interval": 2.0}),
               ("fp", {"ant_interval": 20.0, "phi": 0.2, "alpha": 2.0})]


def ants_held(payload):
    """The ants a queued frame's payload or a heap event's payload holds: a
    TX_END's transmission, a rebroadcast timer's `(node, kind, ant)`, a
    backward ant's `(ant, pos)` or a flooded ant itself."""
    frame = getattr(payload, "frame", None)
    if frame is not None:
        payload = frame.payload
    if isinstance(payload, Ant):
        return [payload]
    if isinstance(payload, tuple):
        return [x for x in payload if isinstance(x, Ant)]
    return []


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("protocol,overrides", FLOOD_CELLS)
def test_flood_dedup_matches_a_per_node_uid_model(protocol, overrides, scenario,
                                                  monkeypatch):
    records = []

    class Tracked(Flood):
        __slots__ = ("__weakref__",)

        def __init__(self, packet=None):
            super().__init__(packet)
            records.append(weakref.ref(self))   # not keyed by id: ids get reused

    monkeypatch.setattr(ff, "Flood", Tracked)
    enabled = gc.isenabled()
    gc.disable()
    try:
        cfg = SimConfig(protocol=protocol, nodes=36, seed=5, scenario=scenario,
                        duration=15.0, traffic_rate=0.2, **overrides)
        sim = Simulation(cfg)
        model = DedupModel(sim)
        sim.kernel.run_until(cfg.duration)   # not run(), which clears the heap
        assert model.first_sights > 0 and model.duplicates > 0
        # A flood's record lives exactly as long as a copy of its flood: a
        # frame queued or on air, a rebroadcast timer (cancelled ones too) or
        # a backward ant.
        payloads = [frame.payload for queue in sim.medium._queues for frame in queue]
        payloads += [ev.payload for _, _, ev in sim.kernel._heap]
        held = {ant.uid for p in payloads for ant in ants_held(p)}
        live = sum(ref() is not None for ref in records)
        assert live == len(held)
        assert 0 < live < len(records)
    finally:
        if enabled:
            gc.enable()


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
        assert sim.kernel.now == cfg.duration
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
