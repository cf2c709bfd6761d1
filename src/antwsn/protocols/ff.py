"""Flooded forward ants: instead of walking, forward ants are broadcast and
every copy records its own path. Nodes with established routing opinions
suppress the flood; backward ants retrace each arriving copy exactly as in
the basic protocol.
"""

from ..kernel import PROTO_TIMER
from ..radio import BROADCAST, FORWARD_ANT
from ..routing import Ant, Flood
from .babr import PathReinforceProtocol


def should_broadcast(p_sender: float, n_neighbors: int) -> bool:
    """Flood-control rule: rebroadcast only while the sender looks like a
    poor route (its selection probability is strictly below uniform)."""
    if n_neighbors < 1:
        raise ValueError("need at least one neighbor")
    return p_sender < 1.0 / n_neighbors


class FF(PathReinforceProtocol):
    name = "ff"

    def __init__(self, sim):
        super().__init__(sim)
        # (node, ant uid) -> scheduled rebroadcast, so bounded by live timers.
        self._pending = {}
        self._reinforced = set()    # nodes whose sink column has real opinions
        sim.kernel.on(PROTO_TIMER, self.on_timer)

    def launch_ant(self, node: int):
        self.sim.count("fwd_ants_launched")
        self._flood(node, FORWARD_ANT)

    # -- flood machinery (shared with the data-ant protocol) ----------------

    def _flood(self, node: int, kind: str, packet=None):
        """Start a flood at `node`: a new ant whose flood record carries
        `packet`, seen there first, broadcast as a `kind` frame."""
        sim = self.sim
        ant = Ant(uid=sim.new_ant_uid(), flood=Flood(packet))
        ant.visit(node, sim.now)
        self._first_sight(node, ant)
        sim.send_frame(node, BROADCAST, kind, ant)

    def _on_flood_frame(self, node: int, frame):
        sim = self.sim
        ant = frame.payload
        if node == sim.sink_node:
            self._flood_at_sink(node, frame)
            return
        if not self._first_sight(node, ant):
            pending = self._pending.pop((node, ant.uid), None)
            if pending is not None:
                sim.kernel.cancel(pending)  # someone beat us to it
            return
        if not self._want_rebroadcast(node, frame.src):
            return
        mine = ant.fork()
        mine.visit(node, sim.now)
        delay = sim.rng.protocol.uniform() * self.cfg.ff_delay_max
        ev = sim.kernel.schedule(sim.now + delay, PROTO_TIMER, (node, frame.kind, mine))
        self._pending[(node, mine.uid)] = ev

    def _first_sight(self, node: int, ant: Ant) -> bool:
        """Mark `ant`'s flood as seen at `node`; True if it had not been."""
        flood = ant.flood
        bit = 1 << node
        if flood.seen & bit:
            return False
        flood.seen |= bit
        return True

    def _flood_at_sink(self, node: int, frame):
        # Every copy reaching the sink earns its own backward ant.
        self.sim.count("fwd_ants_arrived")
        arrived = frame.payload.fork()
        arrived.visit(node, self.sim.now)
        self._start_backward(node, arrived)

    def _want_rebroadcast(self, node: int, sender: int) -> bool:
        if node not in self._reinforced:
            return True  # no routing opinion yet: flood once regardless
        table = self.tables[node]
        p = table.get(sender) if sender in table.index else 0.0
        return should_broadcast(p, len(table.neighbors))

    def on_timer(self, ev):
        """PROTO_TIMER handler. The only timer a flood protocol sets is a
        scheduled rebroadcast; its `_pending` entry goes either way, and a
        node that died since scheduling airs nothing."""
        node, kind, ant = ev.payload
        sim = self.sim
        self._pending.pop((node, ant.uid), None)
        if sim.ledger.alive(node):
            sim.send_frame(node, BROADCAST, kind, ant)

    def _apply_reinforcement(self, node: int, came_from: int, trip: float):
        super()._apply_reinforcement(node, came_from, trip)
        self._reinforced.add(node)
