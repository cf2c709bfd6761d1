"""Energy-aware pheromone routing. Forward ants remember only their last two
visited nodes; per-node caches catch loops and let backward ants retrace the
path without carrying it. Trail deposits blend path length with the minimum
and average residual energy the ant saw.
"""

from ..config import VISIBILITY_FLOOR
from ..radio import BACKWARD_ANT, FORWARD_ANT
from ..routing import Ant, AntCache, weighted_pick
from .base import Protocol

DENOM_TINY = 1e-9


def visibility(residual: float, budget: float) -> float:
    """Energy desirability of a node: scarce remaining capacity headroom
    (node nearly full) scores high; the denominator is floored so a
    completely fresh node stays finite."""
    return 1.0 / max(budget - residual, VISIBILITY_FLOOR * budget)


def selection_weights(taus, residuals, alpha: float, beta: float, budget: float) -> list:
    """tau^alpha * visibility^beta per candidate: the specification that
    `EEABR._pick_next` computes, float for float, in its one pass."""
    return [(t ** alpha) * (visibility(e, budget) ** beta)
            for t, e in zip(taus, residuals)]


def trail_deposit(budget: float, e_min: float, e_avg: float, hops: int,
                  dtau_max: float) -> float:
    """Pheromone amount computed at the sink from forward-ant statistics.

    Shorter paths and better energy profiles yield more pheromone; degenerate
    denominators clamp to dtau_max.
    """
    if hops < 1:
        raise ValueError("hops must be >= 1")
    inner = e_avg - hops
    if inner <= DENOM_TINY:
        return dtau_max
    denom = budget - (e_min - hops) / inner
    if denom <= DENOM_TINY:
        return dtau_max
    return min(1.0 / denom, dtau_max)


def evaporate_deposit(tau: float, dtau: float, bd: int, rho: float, phi: float) -> float:
    """Trail update applied as a backward ant passes: decay plus a deposit
    shrinking with the distance already traveled back from the sink."""
    if bd < 1:
        raise ValueError("backward travel distance must be >= 1")
    return (1.0 - rho) * tau + dtau / (phi * bd)


class EEABR(Protocol):
    name = "eeabr"

    def __init__(self, sim):
        # Each entry starts at the prior mass (tau0, or 1/n) so that early
        # deposits actually shift the odds.
        tau0 = sim.cfg.tau0
        self.fresh_mass = tau0 if tau0 is not None else 1.0 / sim.topology.n
        super().__init__(sim, self.fresh_mass)
        self.caches = {node: AntCache(self.cfg.cache_timeout) for node in self.tables}

    # -- forward ants ------------------------------------------------------

    def launch_ant(self, node: int):
        sim = self.sim
        ant = Ant(uid=sim.new_ant_uid())
        if not self._admit(ant):
            sim.count("fwd_ants_deferred")
            return
        sim.count("fwd_ants_launched")
        self._advance(node, ant, previous=-1)

    def _pick_next(self, node: int, exclude):
        """Stochastic choice over the neighbors of `node` outside `exclude`,
        weighted by trail strength and the candidate's energy visibility.
        None, without a draw, when every neighbor is excluded; uniform, with
        the same draw, when every weight is zero.

        One pass computes `selection_weights` bit for bit. The node currently
        acting as sink is scored at the full budget: visibility exists to
        spare depleted relays, and the destination is collecting, not
        relaying. Its ledger still drains normally."""
        sim = self.sim
        table = self.tables[node]
        cfg = self.cfg
        alpha, beta, budget = cfg.alpha, cfg.beta, cfg.energy_budget
        floor = VISIBILITY_FLOOR * budget
        residual = sim.ledger.residual
        sink = sim.sink_node
        candidates = []
        weights = []
        for n, tau in zip(table.neighbors, table.column):
            if n in exclude:
                continue
            e = budget if n == sink else residual[n]
            headroom = budget - e
            if headroom < floor:   # max(budget - e, floor), without the call
                headroom = floor
            candidates.append(n)
            weights.append((tau ** alpha) * ((1.0 / headroom) ** beta))
        if not candidates:
            return None
        u = sim.rng.protocol.uniform()
        i = weighted_pick(weights, u)
        if i is None:
            i = weighted_pick([1.0] * len(candidates), u)
        return candidates[i]

    def _on_forward_ant(self, node: int, frame):
        sim = self.sim
        ant = frame.payload
        cache = self.caches[node]
        cache.expire(sim.now)
        if cache.seen(ant.uid, sim.now):
            self._ant_died(ant, "fwd_ants_looped")
            return
        self._advance(node, ant, previous=frame.src)

    def _advance(self, node: int, ant: Ant, previous: int):
        """The ant is at `node`, having come from `previous` (-1 at its
        source): record the visit, then answer it at the sink or send it on
        to a neighbor outside its two-node memory (a source always has one)."""
        sim = self.sim
        ant.visit(node, sim.now)
        ant.record_energy(sim.ledger.residual[node])
        if node == sim.sink_node:
            self._ant_died(ant, "fwd_ants_arrived")
            dtau = trail_deposit(self.cfg.energy_budget, ant.e_min, ant.e_avg,
                                 len(ant.path), self.cfg.dtau_max)
            sim.send_frame(node, previous, BACKWARD_ANT, (ant.uid, dtau, 1))
            return
        nxt = self._pick_next(node, [n for n, _ in ant.path[-2:]])
        if nxt is None:
            self._ant_died(ant, "fwd_ants_dead_end")
            return
        self.caches[node].remember(ant.uid, previous, sim.now)
        sim.send_frame(node, nxt, FORWARD_ANT, ant)

    # -- backward ants -------------------------------------------------------

    def _on_backward_ant(self, node: int, frame):
        sim = self.sim
        uid, dtau, bd = frame.payload
        cache = self.caches[node]
        previous = cache.lookup(uid, sim.now)
        if previous is None:
            sim.count("bwd_ants_stale")
            return
        table = self.tables[node]
        if frame.src in table.index:
            tau = table.get(frame.src)
            table.set(frame.src, evaporate_deposit(tau, dtau, bd, self.cfg.rho, self.cfg.phi))
        cache.forget(uid)
        if previous < 0:
            sim.count("bwd_ants_completed")
            return
        sim.send_frame(node, previous, BACKWARD_ANT, (uid, dtau, bd + 1))

    # -- data --------------------------------------------------------------

    def data_next_hop(self, node: int, arrived_from):
        nxt = self._pick_next(node, (arrived_from,))
        if nxt is None:   # the sender is the only neighbor: bounce back
            nxt = self._pick_next(node, ())
        return nxt

    # -- loss bookkeeping ----------------------------------------------------

    def on_frame_lost(self, frame, reason: str):
        if frame.kind == FORWARD_ANT:
            self._ant_died(frame.payload, "fwd_ants_lost")

    # -- hooks ----------------------------------------------------------------

    def _admit(self, ant: Ant) -> bool:
        return True

    def _ant_died(self, ant: Ant, counter: str):
        """Count a forward ant that looped, arrived, hit a dead end or was lost."""
        self.sim.count(counter)
