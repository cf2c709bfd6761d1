"""Flooded-data variant: there are no separate forward ants. Each data
packet rides a flooded data ant that accumulates the visited-node list; the
flood obeys the same two suppression rules, and every copy reaching the sink
spawns a path-retracing backward ant. Delivery is counted once per packet:
each packet rides exactly one flood, so the flood ant's uid, which every
fork keeps, names the packet at the sink.
"""

from ..radio import DATA_ANT
from .ff import FF


class FP(FF):
    name = "fp"
    launches_ants = False

    def __init__(self, sim):
        super().__init__(sim)
        self._delivered = set()     # flood ant uids whose packet the sink counted

    def on_data_generated(self, node: int):
        packet = self._new_packet(node)
        if packet is not None:
            self._flood(node, DATA_ANT, {"packet": packet})

    def _flood_at_sink(self, node: int, frame):
        sim = self.sim
        uid = frame.payload["ant"].uid
        if uid not in self._delivered:
            self._delivered.add(uid)
            sim.record_delivered(frame.payload["packet"].created_at, sim.now)
        super()._flood_at_sink(node, frame)
