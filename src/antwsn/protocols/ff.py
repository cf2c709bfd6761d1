"""Flooded forward ants: instead of walking, forward ants are broadcast and
every copy records its own path. Nodes with established routing opinions
suppress the flood; backward ants retrace each arriving copy exactly as in
the basic protocol.
"""

from ..kernel import PROTO_TIMER
from ..radio import BROADCAST, FORWARD_ANT
from ..routing import Ant
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
        # Flood ant uid -> the nodes that have seen it, as an int bitset (bit
        # i = node i), kept for the whole run. A node forks and rebroadcasts a
        # uid only on its first sight of it, and the sink never rebroadcasts,
        # so every copy's path holds distinct nodes. No time window can
        # replace this: under MAC queueing a duplicate copy reaches a node
        # tens of seconds after its first one.
        self._seen = {}
        self._pending = {}          # (node, ant uid) -> scheduled rebroadcast
        self._reinforced = set()    # nodes whose sink column has real opinions
        sim.kernel.on(PROTO_TIMER, self.on_timer)

    def launch_ant(self, node: int):
        self.sim.count("fwd_ants_launched")
        self._flood(node, FORWARD_ANT, {})

    # -- flood machinery (shared with the data-ant protocol) ----------------

    def _flood(self, node: int, kind: str, payload: dict):
        """Start a flood at `node`: a new ant, seen there first, broadcast
        with `payload`."""
        sim = self.sim
        ant = Ant(uid=sim.new_ant_uid())
        ant.visit(node, sim.now)
        self._first_sight(node, ant.uid)
        sim.send_frame(node, BROADCAST, kind, {**payload, "ant": ant})

    def _on_flood_frame(self, node: int, frame):
        sim = self.sim
        ant = frame.payload["ant"]
        if node == sim.sink_node:
            self._flood_at_sink(node, frame)
            return
        if not self._first_sight(node, ant.uid):
            pending = self._pending.pop((node, ant.uid), None)
            if pending is not None:
                sim.kernel.cancel(pending)  # someone beat us to it
            return
        if not self._want_rebroadcast(node, frame.src):
            return
        mine = ant.fork()
        mine.visit(node, sim.now)
        delay = sim.rng.protocol.uniform() * self.cfg.ff_delay_max
        ev = sim.kernel.schedule(sim.now + delay, PROTO_TIMER,
                                 (node, frame.kind, {**frame.payload, "ant": mine}))
        self._pending[(node, mine.uid)] = ev

    def _first_sight(self, node: int, uid: int) -> bool:
        """Mark flood `uid` as seen at `node`; True if it had not been."""
        seen = self._seen.get(uid, 0)
        bit = 1 << node
        if seen & bit:
            return False
        self._seen[uid] = seen | bit
        return True

    def _flood_at_sink(self, node: int, frame):
        # Every copy reaching the sink earns its own backward ant.
        self.sim.count("fwd_ants_arrived")
        arrived = frame.payload["ant"].fork()
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
        node, kind, payload = ev.payload
        sim = self.sim
        self._pending.pop((node, payload["ant"].uid), None)
        if sim.ledger.alive(node):
            sim.send_frame(node, BROADCAST, kind, payload)

    def _apply_reinforcement(self, node: int, came_from: int, trip: float):
        super()._apply_reinforcement(node, came_from, trip)
        self._reinforced.add(node)
