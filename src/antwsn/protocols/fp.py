"""Flooded-data variant: there are no separate forward ants. Each data
packet rides a flooded data ant that accumulates the visited-node list; the
flood obeys the same two suppression rules, and every copy reaching the sink
spawns a path-retracing backward ant. Every fork of a flood's ant shares
its `Flood` and so one `DataPacket`: the sink counts the first copy only.
"""

from ..radio import DATA_ANT
from .ff import FF


class FP(FF):
    name = "fp"
    launches_ants = False

    def on_data_generated(self, node: int):
        packet = self._new_packet(node)
        if packet is not None:
            self._flood(node, DATA_ANT, packet)

    def _flood_at_sink(self, node: int, frame):
        packet = frame.payload.flood.packet
        if not packet.delivered:
            packet.delivered = True
            self.sim.record_delivered(packet.created_at, self.sim.now)
        super()._flood_at_sink(node, frame)
