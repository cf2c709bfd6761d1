"""Improved energy-aware pheromone routing: smarter initial probabilities
around the sink, a network-wide cap on live forward ants, and probability
redistribution when a next-hop neighbor turns out to be dead.
"""

from fractions import Fraction

from ..routing import Ant
from .eeabr import EEABR


def sink_adjacent_split(n_neighbors: int):
    """Initial mass for a node that can see the destination directly:
    (share for the destination neighbor, share for each other neighbor).
    The two shares always add up to a normalized column."""
    if n_neighbors < 1:
        raise ValueError("need at least one neighbor")
    if n_neighbors == 1:
        return 1.0, 0.0
    n = n_neighbors
    return (9 * n - 5) / (4 * n * n), (4 * n - 5) / (4 * n * n)


def sink_adjacent_split_exact(n_neighbors: int):
    """Rational-arithmetic twin of sink_adjacent_split for identity checks."""
    if n_neighbors == 1:
        return Fraction(1), Fraction(0)
    n = Fraction(n_neighbors)
    return (9 * n - 5) / (4 * n * n), (4 * n - 5) / (4 * n * n)


def redistribute_column(values, dead_index: int):
    """Zero one entry and scale the survivors so total mass is unchanged.

    Works on plain numbers or Fractions. Returns None when the dead entry
    held everything (no surviving alternative).
    """
    dead_mass = values[dead_index]
    # Left to right, not `sum`, which compensates rounding from Python 3.12 on.
    rest = 0
    for v in values:
        rest += v
    rest -= dead_mass
    if rest <= 0:
        return None
    z = dead_mass / rest
    return [0 * v if i == dead_index else v * (1 + z)
            for i, v in enumerate(values)]


class AntQuota:
    """Network-wide budget of concurrently live forward ants. The live set
    is bounded by the cap: `admit` refuses an ant once it is full."""

    def __init__(self, cap: int):
        self.cap = cap
        self._live = set()
        self.max_live = 0

    @property
    def live(self) -> int:
        return len(self._live)

    def admit(self, uid: int) -> bool:
        if len(self._live) >= self.cap:
            return False
        self._live.add(uid)
        if len(self._live) > self.max_live:
            self.max_live = len(self._live)
        return True

    def release(self, uid: int):
        self._live.discard(uid)


class IEEABR(EEABR):
    name = "ieeabr"

    def __init__(self, sim):
        super().__init__(sim)
        self.quota = AntQuota(self.cfg.ant_cap_multiplier * sim.topology.n)
        self._prime_sink_columns(sim.sink_node)

    def on_sink_changed(self, new_node: int):
        self._prime_sink_columns(new_node)

    def _prime_sink_columns(self, sink_node: int):
        """Nodes that can reach the sink directly concentrate initial mass on
        it; everyone else keeps the uniform start.

        The split fixes the selection odds, not the scale, so the column is
        sized to the same total mass a fresh column would hold; later trail
        deposits then shift a primed column exactly as fast as an unprimed one.
        """
        for node in self.sim.topology.neighbors[sink_node]:
            table = self.tables[node]
            n_nb = len(table.neighbors)
            to_sink, to_other = sink_adjacent_split(n_nb)
            scale = self.fresh_mass * n_nb
            table.set_column([scale * (to_sink if n == sink_node else to_other)
                              for n in table.neighbors])

    # -- congestion control ----------------------------------------------------

    def _admit(self, ant: Ant) -> bool:
        return self.quota.admit(ant.uid)

    def _ant_died(self, ant: Ant, counter: str):
        super()._ant_died(ant, counter)
        self.quota.release(ant.uid)

    # -- dead-neighbor handling ---------------------------------------------

    def on_frame_lost(self, frame, reason: str):
        # A unicast that a dead addressee missed moves mass off that link.
        # Nothing is charged between the radio's delivery loop and this hook.
        super().on_frame_lost(frame, reason)
        if reason != "undelivered" or self.sim.ledger.alive(frame.dst):
            return
        table = self.tables[frame.src]
        idx = table.index.get(frame.dst)
        if idx is None or table.column[idx] <= 0:
            return
        redistributed = redistribute_column(table.column, idx)
        if redistributed is not None:   # None: the sole neighbor died
            table.set_column(redistributed)
            self.sim.count("link_failures_rerouted")
