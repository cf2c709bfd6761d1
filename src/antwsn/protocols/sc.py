"""Sensor-driven variant of basic ant routing: nodes are assumed to know
their geometric distance to the sink, so selection probabilities start from
a distance gradient instead of uniform. Computed once, when the protocol is
built around the first sink node; a sink that later moves leaves the
gradient stale on purpose.
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
    # Left to right, not `sum`, which compensates rounding from Python 3.12 on.
    total = 0
    for w in weights:
        total += w
    return [w / total for w in weights]


class SC(PathReinforceProtocol):
    name = "sc"

    def __init__(self, sim):
        super().__init__(sim)
        to_sink = sim.topology.dist[sim.sink_node]
        radius = sim.topology.tx_radius
        for node, table in self.tables.items():
            if node == sim.sink_node:
                continue
            q = [float(to_sink[n]) / radius for n in table.neighbors]
            col = initial_distribution(q, [1.0] * len(q), self.cfg.sc_beta)
            table.set_column(col)
