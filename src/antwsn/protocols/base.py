"""Shared protocol scaffolding.

A protocol instance owns the routing state of every node in one run. It is
built once the topology and the first sink node are known, and sets its
tables up in `__init__`; there is no separate start-up hook. It then reacts
to the simulation's hooks: `on_data_generated`, `on_frame_received`,
`on_frame_lost`, `on_sink_changed`, and `launch_ant`, the periodic
ant-launch tick, which only protocols with `launches_ants` define. Concrete
subclasses define table semantics and the ant lifecycle; data-packet
plumbing lives here. A protocol airs a frame through `sim.send_frame` with a
kind and a payload; the run sizes the frame from its kind. Timers are not a
hook: the flood protocols (FF and its subclass FP) are the only ones that
set any, and FF registers its own PROTO_TIMER handler with the kernel.

The radio hands every node that heard a frame to `on_frame_received`,
including the nodes that overheard a unicast addressed to another node.
`on_frame_received` dispatches by destination: a broadcast goes to
`_on_flood_frame`, a unicast addressed to the node goes by kind to
`on_data_frame`, `_on_forward_ant` or `_on_backward_ant`, and an overheard
unicast stops there. It is the one place that drops those copies, so the
frame handlers below it only ever see broadcasts and frames addressed to
them. Only the flood protocols air broadcasts, so only they define
`_on_flood_frame`; here it raises.
"""

from dataclasses import dataclass

from ..radio import BROADCAST, DATA, FORWARD_ANT, Frame
from ..routing import PHEROMONE, PROBABILITY, RoutingTable


@dataclass
class DataPacket:
    created_at: float
    ttl: int        # remaining hop budget


class Protocol:
    name = ""
    table_mode = PROBABILITY
    launches_ants = True

    def __init__(self, sim):
        self.sim = sim
        self.cfg = sim.cfg
        topo = sim.topology
        # Pheromone tables start each entry at the configured prior mass
        # (1/n unless overridden) so early deposits actually shift the odds;
        # probability tables fix their own uniform start.
        fresh = None
        if self.table_mode == PHEROMONE:
            fresh = self.cfg.tau0 if self.cfg.tau0 is not None else 1.0 / topo.n
        # Every node has a neighbor on a connected field; a node without one
        # makes RoutingTable raise.
        self.tables = {node: RoutingTable(topo.neighbors[node], self.table_mode,
                                          fresh_mass=fresh)
                       for node in range(topo.n)}

    # -- lifecycle hooks (simulation calls these) -------------------------

    def on_sink_changed(self, new_node: int):
        """The sink moved to `new_node`."""

    def on_frame_lost(self, frame: Frame, dst_dead: bool):
        """A frame died in the MAC or was never received by its addressee;
        `dst_dead` is True when the addressee was dead."""

    # -- frame dispatch ----------------------------------------------------

    def on_frame_received(self, node: int, frame: Frame):
        """A frame survived at `node`. Overheard unicasts, whose rx energy
        is already paid, stop here."""
        dst = frame.dst
        if dst == BROADCAST:
            self._on_flood_frame(node, frame)
        elif dst == node:
            kind = frame.kind
            if kind == DATA:
                self.on_data_frame(node, frame)
            elif kind == FORWARD_ANT:
                self._on_forward_ant(node, frame)
            else:
                self._on_backward_ant(node, frame)

    def _on_flood_frame(self, node: int, frame: Frame):
        raise NotImplementedError(f"{self.name} airs no broadcast frames, "
                                  f"but node {node} received a {frame.kind!r} broadcast")

    # -- data pipeline -------------------------------------------------------

    def _new_packet(self, node: int):
        """The packet for a reading sensed at `node`, or None at the sink:
        the sink sensing an event needs no transport, so it is delivered at
        once."""
        sim = self.sim
        if node == sim.sink_node:
            sim.record_delivered(sim.now, sim.now)
            return None
        return DataPacket(created_at=sim.now,
                          ttl=int(self.cfg.data_ttl_factor * sim.topology.n))

    def on_data_generated(self, node: int):
        packet = self._new_packet(node)
        if packet is not None:
            self.forward_data(node, packet, arrived_from=None)

    def on_data_frame(self, node: int, frame: Frame):
        packet = frame.payload["packet"]
        if node == self.sim.sink_node:
            self.sim.record_delivered(packet.created_at, self.sim.now)
            return
        self.forward_data(node, packet, arrived_from=frame.src)

    def forward_data(self, node: int, packet: DataPacket, arrived_from):
        sim = self.sim
        if packet.ttl <= 0:
            sim.count("data_ttl_expired")
            return
        packet.ttl -= 1
        sim.send_frame(node, self.data_next_hop(node, arrived_from), DATA,
                       {"packet": packet})

    def data_next_hop(self, node: int, arrived_from):
        """Pick the next relay toward the sink. One always exists: every
        column write passes `normalize_check`, and a lax `sample` falls back
        to the whole column."""
        exclude = () if arrived_from is None else (arrived_from,)
        return self.tables[node].sample(self.sim.rng.protocol.uniform(),
                                        exclude=exclude)
