"""Property tests over the configuration space: a drawn `SimConfig` is
either rejected with a clear error, or it runs and keeps the invariants of
`tests/test_invariants.py`.

Each draw of the first test takes 2-16 nodes, at most 4 s of virtual time and
1-8 knobs, each set to one of its extreme values: the bounds that
`SimConfig.validate` accepts, plus a few just past them. A rejected config
raises `ConfigError`, or `TopologyError` when no connected field exists for
its radio range and retry budget; both are input errors with their own exit
code in the CLI. A crash that needs two knobs together is rarely drawn that
way, so the second test sets every knob of the pheromone weight
tau^alpha * visibility^beta at once, on eeabr and ieeabr.
"""

import math

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from antwsn.config import PROTOCOL_NAMES, SC_BETA_MAX, SCENARIOS, ConfigError, SimConfig
from antwsn.routing import PROBABILITY
from antwsn.scenario import TopologyError
from antwsn.simulation import Simulation

TOL = 1e-9
EPS = 1e-6

# knob -> extreme values. Values past a bound must raise ConfigError.
KNOBS = {
    "layout": ["grid"],
    "initial_energy": [1e-6, 0.01, 1e3, 0.0],
    "traffic_rate": [1e-3, 20.0, 0.0],
    "data_ttl_factor": [0.1, 50.0],
    "grid_spacing": [1.0, 35.0],
    "max_topology_retries": [1, 0],
    "sink_radius_frac": [0.0, 1.0, -EPS],
    "sink_update_period": [0.01, 4.0],
    "p_transmit": [1e-3, 1e3],
    "gamma": [2.0, 4.0, 4.0 + EPS],
    "sigma_alpha": [0.0, 1.0],
    "sigma_beta": [0.0, 1e-2, -EPS],
    "tx_radius": [20.0, 100.0],
    "rx_threshold": [1e-6, 1.0],
    "bitrate": [1e3, 1e7],
    "cw_init": [1, 1024, 0],
    "max_retries": [0, 20],
    "ant_frame_bytes": [1, 500],
    "data_frame_bytes": [1, 500, 0],
    "e_tx_per_bit": [0.0, 1e-3],
    "e_rx_per_bit": [0.0, 1e-3],
    "e_idle_per_s": [0.0, 1.0],
    "ant_interval": [0.05, 4.0],
    "cache_timeout": [1e-3, 100.0],
    "ant_cap_multiplier": [1, 100, 0],
    "ff_delay_max": [0.0, 1.0],
    "eta": [EPS, 1 - EPS, 1.0],
    "trip_window": [1, 100],
    "conf_gamma": [EPS, 1 - EPS],
    "c1": [0.0, 1.0],   # c2 is set to 1 - c1
    "alpha": [0.0, 10.0, 100.0, -EPS],
    "beta": [0.0, 10.0, 100.0, -EPS],
    "rho": [EPS, 1 - EPS, 0.0],
    "phi": [EPS, 100.0],
    "dtau_max": [0.0, 100.0, -EPS],
    "tau0": [1e-9, 1e3],
    "sc_beta": [-SC_BETA_MAX, SC_BETA_MAX, SC_BETA_MAX + EPS],
}


@st.composite
def configs(draw):
    knobs = draw(st.lists(st.sampled_from(sorted(KNOBS)), min_size=1, max_size=8,
                          unique=True))
    values = {knob: draw(st.sampled_from(KNOBS[knob])) for knob in knobs}
    if "c1" in values:
        values["c2"] = 1.0 - values["c1"]
    return dict(protocol=draw(st.sampled_from(PROTOCOL_NAMES)),
                nodes=draw(st.integers(2, 16)),
                scenario=draw(st.sampled_from(SCENARIOS)),
                duration=draw(st.sampled_from([0.5, 2.0, 4.0])),
                seed=draw(st.integers(1, 10_000)), **values)


@settings(max_examples=1500, deadline=None)
@given(kwargs=configs())
# visibility^100 overflows on a 0.01 J budget.
@example(kwargs=dict(protocol="ieeabr", nodes=9, scenario="static", duration=4.0, seed=1,
                     beta=100.0, initial_energy=0.01))
# ieeabr zeroes a dead neighbor's trail entry, and 0.0 ** -EPS divides by zero.
@example(kwargs=dict(protocol="ieeabr", nodes=9, scenario="static", duration=4.0, seed=1,
                     alpha=-EPS, initial_energy=0.01, ant_interval=0.05))
def test_a_config_is_rejected_or_keeps_the_invariants(kwargs):
    assert_rejected_or_sound(kwargs)


# Every knob that sizes a trail entry or a visibility, or how often ants
# deposit. None is the default of initial_energy and tau0.
PHEROMONE_KNOBS = {
    "alpha": [0.0, 1.0, 10.0, 100.0, -EPS],
    "beta": [0.0, 1.0, 10.0, 100.0, -EPS],
    "initial_energy": [None, *KNOBS["initial_energy"]],
    "tau0": [None, *KNOBS["tau0"]],
    **{knob: KNOBS[knob] for knob in ("phi", "rho", "dtau_max", "ant_interval")},
}


@settings(max_examples=200, deadline=None)
@given(protocol=st.sampled_from(["eeabr", "ieeabr"]), nodes=st.integers(2, 16),
       scenario=st.sampled_from(SCENARIOS), seed=st.integers(1, 10_000),
       values=st.fixed_dictionaries({knob: st.sampled_from(extremes)
                                     for knob, extremes in PHEROMONE_KNOBS.items()}))
def test_pheromone_knobs_together_are_rejected_or_keep_the_invariants(
        protocol, nodes, scenario, seed, values):
    assert_rejected_or_sound(dict(protocol=protocol, nodes=nodes, scenario=scenario,
                                  duration=2.0, seed=seed, **values))


def assert_rejected_or_sound(kwargs):
    try:
        sim = Simulation(SimConfig(**kwargs))
    except (ConfigError, TopologyError) as exc:
        event(f"rejected: {type(exc).__name__}")
        return
    ledger = sim.ledger
    charge = ledger.charge
    charges = 0

    def counted(*args):
        nonlocal charges
        charges += 1
        return charge(*args)
    ledger.charge = counted
    result = sim.run()
    event("ran")

    # The books balance to 1e-9, or to the precision the residuals carry if
    # that is coarser. A debit rounds the residual and the spent book to
    # within an ulp of the budget, and the totals add n + 1 roundings at the
    # scale of the whole field's budget (see EnergyLedger). When the budget
    # dwarfs the spend, that floor alone passes 1e-9 of the spend: 1e3 J per
    # node, 2 nodes and 0.5 s give a relative gap of 2.5e-9.
    n, budget = result.nodes, ledger.initial
    debits = charges + result.counters["frames_delivered"]
    floor = debits * math.ulp(budget) + (n + 1) * math.ulp(n * budget)
    consumed = ledger.total_consumed()
    assert abs(consumed - ledger.total_spent()) <= max(TOL * consumed, floor)
    for node, table in sim.protocol.tables.items():
        assert min(table.column) >= 0.0, node
        if table.mode == PROBABILITY:
            assert abs(math.fsum(table.column) - 1.0) <= TOL, node
    quota = getattr(sim.protocol, "quota", None)
    if quota is not None:
        assert quota.max_live <= quota.cap
