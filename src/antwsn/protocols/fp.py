"""Flooded-data variant: there are no separate forward ants. Each data
packet rides a flooded data ant that accumulates the visited-node list; the
flood obeys the same two suppression rules, and every copy reaching the sink
spawns a path-retracing backward ant. Delivery is counted once per packet.
"""

from ..radio import BROADCAST, DATA_ANT
from ..routing import Ant
from .ff import FF


class FP(FF):
    name = "fp"
    launches_ants = False

    def __init__(self, sim):
        super().__init__(sim)
        self._delivered = set()     # packet uids already counted at the sink

    def on_data_generated(self, node: int):
        packet = self._new_packet(node)
        if packet is None:
            return
        sim = self.sim
        ant = Ant(uid=sim.new_ant_uid())
        ant.visit(node, sim.now)
        self._first_sight(node, ant.uid)
        sim.send_frame(node, BROADCAST, DATA_ANT, self._flood_bits(DATA_ANT),
                       {"packet": packet, "ant": ant})

    def _flood_at_sink(self, node: int, frame):
        sim = self.sim
        packet = frame.payload["packet"]
        if packet.uid not in self._delivered:
            self._delivered.add(packet.uid)
            sim.record_delivered(packet.created_at, sim.now)
        super()._flood_at_sink(node, frame)
