"""Sensor-driven variant of basic ant routing: nodes are assumed to know
their geometric distance to the sink, so selection probabilities start from
a distance gradient instead of uniform. Computed once at startup; a sink
that later moves leaves the gradient stale on purpose.
"""

import math

from .babr import PathReinforceProtocol


def initial_distribution(q_costs, local_costs, sc_beta: float) -> list:
    """Softmax over neighbor cost-to-go estimates.

    C is the cheapest neighbor option (hop cost + remaining estimate); each
    neighbor's weight is e^((C - Q_n) * beta), so cheaper detours get
    exponentially more of the initial probability mass.
    """
    if not q_costs or len(q_costs) != len(local_costs):
        raise ValueError("need one (cost, estimate) pair per neighbor")
    best = min(c + q for c, q in zip(local_costs, q_costs))
    weights = [math.exp((best - q) * sc_beta) for q in q_costs]
    total = sum(weights)
    return [w / total for w in weights]


class SC(PathReinforceProtocol):
    name = "sc"

    def start(self):
        sim = self.sim
        sink_pos = sim.topology.positions[sim.sink_node]
        radius = sim.topology.tx_radius
        for node, table in self.tables.items():
            if node == sim.sink_node:
                continue
            q = [float(math.hypot(*(sim.topology.positions[n] - sink_pos))) / radius
                 for n in table.neighbors]
            col = initial_distribution(q, [1.0] * len(q), self.cfg.sc_beta)
            table.set_column(col)
