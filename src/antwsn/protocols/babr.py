"""Basic ant routing: unicast forward ants explore toward the sink, backward
ants retrace the recorded path and shift selection probabilities by a
reinforcement factor computed from a per-node trip-time model.
"""

from ..radio import BACKWARD_ANT, FORWARD_ANT
from ..routing import Ant, RoutingError, TripModel
from .base import Protocol


def reinforce(table, chosen, r: float):
    """Shift a probability column toward `chosen` by factor r.

    P_chosen rises by r(1 - P_chosen); every other entry decays by r of
    itself, so the column stays normalized by construction. The new column
    goes through `table.set_column`, which checks it.
    """
    if not (0.0 <= r <= 1.0):
        raise RoutingError(f"reinforcement factor {r!r} outside [0, 1]")
    idx = table.index[chosen]
    table.set_column([c + r * (1.0 - c) if i == idx else c - r * c
                      for i, c in enumerate(table.column)])


def reinforcement_factor(model: TripModel, trip: float, c1: float, c2: float) -> float:
    """Goodness of an observed trip against the node's recent history.

    First term rewards trips close to the best in the window; second term
    rewards trips inside the confidence interval. Degenerate intervals
    contribute nothing. Result clamped to [0, 1].
    """
    if trip <= 0:
        raise RoutingError("trip time must be > 0")
    lo, hi = model.confidence_bounds()
    r = c1 * (model.w_best / trip)
    spread = hi - lo
    denom = spread + (trip - lo)
    if denom > 0:
        r += c2 * (spread / denom)
    return min(1.0, max(0.0, r))


class PathReinforceProtocol(Protocol):
    """Common machinery for the probability-table family: full-path forward
    ants, backward retracing, trip-model reinforcement."""

    def __init__(self, sim):
        super().__init__(sim)
        cfg = self.cfg
        self.trip_models = {node: TripModel(cfg.eta, cfg.trip_window, cfg.conf_gamma)
                            for node in self.tables}

    # -- forward ants ------------------------------------------------------

    def launch_ant(self, node: int):
        sim = self.sim
        ant = Ant(uid=sim.new_ant_uid())
        ant.visit(node, sim.now)
        sim.count("fwd_ants_launched")
        self._forward_step(node, ant)

    def _forward_step(self, node: int, ant: Ant):
        """Pick the next unicast hop; visited nodes are hard-excluded."""
        sim = self.sim
        nxt = self.tables[node].sample(sim.rng.protocol.uniform(), exclude=ant.path_nodes())
        if nxt is None:
            sim.count("fwd_ants_dead_end")
            return
        sim.send_frame(node, nxt, FORWARD_ANT, ant)

    def _on_forward_ant(self, node: int, frame):
        sim = self.sim
        ant = frame.payload
        ant.visit(node, sim.now)
        if node == sim.sink_node:
            sim.count("fwd_ants_arrived")
            self._start_backward(node, ant)
        else:
            self._forward_step(node, ant)

    # -- backward ants -------------------------------------------------------

    def _start_backward(self, sink_node: int, ant: Ant):
        """Answer an ant at the sink. It came over at least one hop, so its
        path holds the node it came from."""
        self._send_backward(sink_node, ant, len(ant.path) - 2)

    def _send_backward(self, node: int, ant: Ant, pos: int):
        """Send the backward ant from `node` to the node at `ant.path[pos]`."""
        self.sim.send_frame(node, ant.path[pos][0], BACKWARD_ANT, (ant, pos))

    def _on_backward_ant(self, node: int, frame):
        ant, pos = frame.payload
        self._apply_reinforcement(node, came_from=frame.src,
                                  trip=ant.path[-1][1] - ant.path[pos][1])
        if pos > 0:
            self._send_backward(node, ant, pos - 1)
        else:
            self.sim.count("bwd_ants_completed")

    def _apply_reinforcement(self, node: int, came_from: int, trip: float):
        if trip <= 0:
            return
        table = self.tables[node]
        if came_from not in table.index:
            return  # heard across a noise-extended link; no table row for it
        model = self.trip_models[node]
        model.observe(trip)
        r = reinforcement_factor(model, trip, self.cfg.c1, self.cfg.c2)
        reinforce(table, came_from, r)


class BABR(PathReinforceProtocol):
    name = "babr"
