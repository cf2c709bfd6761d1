"""Invariants the protocol comparison rests on, checked on random connected
fields rather than on fixed seeds: the energy books balance, probability
columns stay normalized and nonnegative, ieeabr's live forward ants stay
under the cap and each rides a queued or in-flight frame, every ant path
that reaches the sink is loop-free, and one seed gives one run.

Each cell runs one of the oracle's radio variants. Node failures are
injected from outside the simulator: a test event kind, registered on the
kernel, drains a node's whole residual at a drawn time.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from antwsn.config import PROTOCOL_NAMES, SCENARIOS, SimConfig
from antwsn.radio import FORWARD_ANT
from antwsn.routing import PROBABILITY
from antwsn.scenario import from_points
from antwsn.simulation import Simulation
from test_radio_oracle import VARIANTS, connected_points

NODE_FAILURE = "test-node-failure"
DURATION = 5.0
TOL = 1e-9


def run_cell(points, protocol, seed, scenario, variant, pressure, failures):
    ant_interval, cap_multiplier = pressure
    cfg = SimConfig(protocol=protocol, nodes=len(points), seed=seed,
                    scenario=scenario, duration=DURATION, ant_interval=ant_interval,
                    ant_cap_multiplier=cap_multiplier, **VARIANTS[variant])
    sim = Simulation(cfg, from_points(points, tx_radius=cfg.tx_radius))

    def drain(ev):
        node = ev.payload
        sim.ledger.charge(node, "idle", sim.ledger.residual[node])

    sim.kernel.on(NODE_FAILURE, drain)
    for t, node in failures:
        sim.kernel.schedule(t, NODE_FAILURE, node % len(points))

    # The path-carrying protocols answer each arriving ant here, with its
    # full path; the pheromone pair keeps no path.
    arrived = []
    start_backward = getattr(sim.protocol, "_start_backward", None)
    if start_backward is not None:
        def record(sink_node, ant):
            arrived.append([node for node, _ in ant.path])
            start_backward(sink_node, ant)
        sim.protocol._start_backward = record
    return sim, sim.run(), arrived


def outcome(result):
    return (result.trace_sha256, result.dispatched_events, result.counters,
            result.residuals, result.latency_s, result.energy_j)


# (ant_interval, ant_cap_multiplier): the default cap with moderate ant
# traffic, and an ant storm against the tightest cap, which it reaches.
PRESSURES = [(0.5, 5), (0.05, 1)]


@settings(max_examples=150, deadline=None)
@given(points=connected_points(), protocol=st.sampled_from(PROTOCOL_NAMES),
       seed=st.integers(1, 10_000), scenario=st.sampled_from(SCENARIOS),
       variant=st.sampled_from(sorted(VARIANTS)), pressure=st.sampled_from(PRESSURES),
       failures=st.lists(st.tuples(st.floats(0.0, DURATION), st.integers(0, 29)),
                         max_size=3))
def test_invariants_hold_on_random_fields(points, protocol, seed, scenario,
                                          variant, pressure, failures):
    cell = (points, protocol, seed, scenario, variant, pressure, failures)
    sim, result, arrived = run_cell(*cell)

    assert result.conservation_rel_gap <= TOL
    for node, table in sim.protocol.tables.items():
        assert min(table.column) >= 0.0, node
        if table.mode == PROBABILITY:
            assert abs(math.fsum(table.column) - 1.0) <= TOL, node

    quota = getattr(sim.protocol, "quota", None)
    if quota is not None:
        assert quota.max_live <= sim.cfg.ant_cap_multiplier * len(points)
        # A frame on air is still its sender's queue head.
        queued_ants = sum(frame.kind == FORWARD_ANT
                          for queue in sim.medium._queues for frame in queue)
        assert quota.live == queued_ants

    # Only the last entry, the node that answered, may repeat: a moving sink
    # can settle on a node the ant has already visited.
    for path in arrived:
        assert len(set(path[:-1])) == len(path) - 1, path

    _, twin, _ = run_cell(*cell)
    assert outcome(twin) == outcome(result)
