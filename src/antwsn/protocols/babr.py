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
    itself, so the column stays normalized by construction.
    """
    if not (0.0 <= r <= 1.0):
        raise RoutingError(f"reinforcement factor {r!r} outside [0, 1]")
    col = table.column
    idx = table.index[chosen]
    for i in range(len(col)):
        if i == idx:
            col[i] += r * (1.0 - col[i])
        else:
            col[i] -= r * col[i]


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
        try:
            nxt = self.tables[node].sample(sim.rng.protocol.uniform(),
                                           exclude=ant.path_nodes(), strict=True)
        except RoutingError:
            sim.count("fwd_ants_dead_end")
            return
        sim.send_frame(node, nxt, FORWARD_ANT, {"ant": ant})

    def _on_forward_ant(self, node: int, frame):
        sim = self.sim
        ant = frame.payload["ant"]
        ant.visit(node, sim.now)
        if node == sim.sink_node:
            sim.count("fwd_ants_arrived")
            self._start_backward(node, ant)
        else:
            self._forward_step(node, ant)

    # -- backward ants -------------------------------------------------------

    def _start_backward(self, sink_node: int, ant: Ant):
        pos = len(ant.path) - 2
        if pos < 0:
            return
        self.sim.send_frame(sink_node, ant.path[pos][0], BACKWARD_ANT,
                            {"ant": ant, "pos": pos})

    def _on_backward_ant(self, node: int, frame):
        sim = self.sim
        ant = frame.payload["ant"]
        pos = frame.payload["pos"]
        self._apply_reinforcement(node, came_from=frame.src,
                                  trip=ant.path[-1][1] - ant.path[pos][1])
        if pos > 0:
            sim.send_frame(node, ant.path[pos - 1][0], BACKWARD_ANT,
                           {"ant": ant, "pos": pos - 1})
        else:
            sim.count("bwd_ants_completed")

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
        table.normalize_check()


class BABR(PathReinforceProtocol):
    name = "babr"
