"""The one loss path: every frame the radio loses reaches the protocol's
`on_frame_lost(frame, reason)` exactly once, and the run books it once, as
`mac_drop_<reason>` or `frames_undelivered`.

A probe on the run's instances records every frame handed to the medium,
every copy delivered to its addressee and every loss call. Each sent
unicast must then end in exactly one way: lost once, delivered to its
addressee, or still queued at the horizon. A loss booked twice, or reported
twice, fails here even where the event schedule does not move.
"""

import hashlib
import json
from collections import Counter

import pytest

from antwsn.config import PROTOCOL_NAMES, SimConfig
from antwsn.radio import BROADCAST
from antwsn.simulation import Simulation
from test_golden import COUNTERS, SEED, VARIANTS

REASONS = ("busy", "energy", "dead", "undelivered")

CELLS = {
    # The golden drained cell: most nodes die, so dead and energy drops, and
    # unicasts to dead addressees (ieeabr's dead-next-hop redistributions).
    "drained": VARIANTS["drained"],
    # No retries under an ant storm: a busy channel drops the frame at once.
    "busy": dict(nodes=25, duration=10.0, ant_interval=0.08, traffic_rate=0.1,
                 max_retries=0),
}


class LossProbe:
    def __init__(self, sim):
        self.sent = []
        self.to_addressee = []
        self.lost = []
        medium, protocol = sim.medium, sim.protocol
        send, deliver, lost = medium.send, medium.deliver, protocol.on_frame_lost

        def sent(frame):
            self.sent.append(frame)
            send(frame)

        def delivered(node, frame):
            if node == frame.dst:
                self.to_addressee.append(frame)
            deliver(node, frame)

        def frame_lost(frame, reason):
            self.lost.append((frame, reason))
            lost(frame, reason)

        medium.send = sent
        medium.deliver = delivered
        protocol.on_frame_lost = frame_lost


def run_probed(protocol, cell):
    sim = Simulation(SimConfig(protocol=protocol, seed=SEED, **CELLS[cell]))
    probe = LossProbe(sim)
    result = sim.run()
    queued = [frame for queue in sim.medium._queues for frame in queue]
    return result, probe, queued


@pytest.mark.parametrize("cell", sorted(CELLS))
@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_each_loss_reaches_the_protocol_once_and_is_booked_once(protocol, cell):
    result, probe, queued = run_probed(protocol, cell)
    calls = Counter(reason for _, reason in probe.lost)
    assert set(calls) <= set(REASONS)
    booked = {reason: result.counters.get(f"mac_drop_{reason}", 0)
              for reason in ("busy", "energy", "dead")}
    booked["undelivered"] = result.counters.get("frames_undelivered", 0)
    assert {r: calls[r] for r in REASONS} == booked

    # A lost frame was sent, and is lost once; a broadcast is never undelivered.
    lost_ids = Counter(id(frame) for frame, _ in probe.lost)
    assert max(lost_ids.values(), default=1) == 1
    assert set(lost_ids) <= {id(frame) for frame in probe.sent}
    assert all(frame.dst != BROADCAST for frame, r in probe.lost if r == "undelivered")

    # Each sent unicast is lost, reached its addressee, or is still queued.
    ends = lost_ids + Counter(id(f) for f in probe.to_addressee) + Counter(map(id, queued))
    unicasts = [frame for frame in probe.sent if frame.dst != BROADCAST]
    assert [ends[id(frame)] for frame in unicasts] == [1] * len(unicasts)

    # Under the probe, a golden cell books the counters pinned there, among
    # them ieeabr's link_failures_rerouted.
    golden = COUNTERS.get((protocol, "static", cell))
    if golden is not None:
        counters = sorted(result.counters.items())
        assert hashlib.sha256(json.dumps(counters).encode()).hexdigest()[:16] == golden


def test_the_cells_reach_every_reason():
    reasons = {cell: Counter(r for _, r in run_probed("sc", cell)[1].lost)
               for cell in CELLS}
    assert all(reasons["drained"][r] > 0 for r in ("energy", "dead", "undelivered"))
    assert reasons["busy"]["busy"] > 0
