"""Acceptance gate. One test per numbered criterion; each prints a single
PASS/FAIL verdict line. The lines are also collected in VERDICTS, which the
conftest terminal-summary hook replays after the run so they survive output
capture in a plain `pytest` invocation.

The comparative-behavior criteria (6, 7) run four experiment plans that
criterion 9 also reuses. Each plan runs through the harness pool, one worker
per CPU, which gives the same table as a serial run; the time budgets of 6
and 7 apply to the plans' summed CPU time, so they do not loosen with the
worker count. Everything is seeded; a verdict here is reproducible
bit-for-bit on any machine. The tests that need the plans (6, 7, 9) carry
the `slow` marker, so `pytest -m "not slow"` leaves them out.
"""

import os
import resource
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from antwsn.config import SimConfig
from antwsn.harness import ExperimentPlan, run_experiment
from antwsn.protocols.babr import reinforce
from antwsn.protocols.eeabr import selection_weights, trail_deposit
from antwsn.protocols.ieeabr import (redistribute_column, sink_adjacent_split,
                                     sink_adjacent_split_exact)
from antwsn.protocols.sc import initial_distribution
from antwsn.radio import FORWARD_ANT, Frame
from antwsn.routing import Ant, RoutingTable
from antwsn.scenario import from_points
from antwsn.simulation import Simulation, run_single

RING4 = [(0, 0), (30, 0), (30, 30), (0, 30)]

VERDICTS: list = []


def emit(tag, ok, detail):
    line = f"[acceptance {tag}] {'PASS' if ok else 'FAIL'} {detail}"
    VERDICTS.append(line)
    print(line)
    print(line, file=sys.__stderr__, flush=True)
    assert ok, line


def _note(text):
    print(text, file=sys.__stderr__, flush=True)


# -- shared experiment fixtures (criteria 6, 7, and reused by 9) -------------

def _cpu_s():
    """CPU seconds of this process plus its reaped children (pool workers)."""
    return sum(ru.ru_utime + ru.ru_stime
               for ru in (resource.getrusage(resource.RUSAGE_SELF),
                          resource.getrusage(resource.RUSAGE_CHILDREN)))


def _timed(plan):
    """(table, CPU seconds, wall seconds) of one pooled plan run."""
    cpu0, t0 = _cpu_s(), time.perf_counter()
    table = run_experiment(plan, parallel=os.cpu_count() or 1)
    return table, _cpu_s() - cpu0, time.perf_counter() - t0


@pytest.fixture(scope="module")
def static_pressure():
    """High ant-emission static runs: the congestion regime where admission
    control separates the pheromone protocols."""
    _note("[acceptance] static-pressure plan (4 protocols x 10 replicates) ...")
    return _timed(ExperimentPlan(
        protocols=("babr", "sc", "eeabr", "ieeabr"), node_counts=(49,),
        scenarios=("static",), replicates=10, base_seed=1,
        overrides={"traffic_rate": 0.1, "ant_interval": 0.08}))


@pytest.fixture(scope="module")
def static_delivery():
    """Relaxed ant rate, all six protocols: the delivery-rate comparison."""
    _note("[acceptance] static-delivery plan (6 protocols x 10 replicates) ...")
    return _timed(ExperimentPlan(
        protocols=("babr", "sc", "ff", "fp", "eeabr", "ieeabr"),
        node_counts=(49,), scenarios=("static",), replicates=10, base_seed=1,
        overrides={"traffic_rate": 0.1, "ant_interval": 2.0}))


@pytest.fixture(scope="module")
def static_scale():
    """100-node field: flooding cost against converged unicast trails."""
    _note("[acceptance] static-scale plan (2 protocols x 10 replicates) ...")
    return _timed(ExperimentPlan(
        protocols=("fp", "ieeabr"), node_counts=(100,), scenarios=("static",),
        replicates=10, base_seed=1,
        overrides={"traffic_rate": 0.1, "ant_interval": 20.0,
                   "phi": 0.2, "alpha": 2.0}))


@pytest.fixture(scope="module")
def dynamic_pressure():
    """Orbiting sink under ant pressure: the mobile-collector comparison."""
    _note("[acceptance] dynamic-pressure plan (2 protocols x 10 replicates) ...")
    return _timed(ExperimentPlan(
        protocols=("eeabr", "ieeabr"), node_counts=(49,),
        scenarios=("dynamic",), replicates=10, base_seed=1,
        overrides={"traffic_rate": 0.1, "ant_interval": 0.08}))


# -- criterion 1: normalization property suite --------------------------------

def test_c1_probability_columns_stay_normalized():
    rng = np.random.default_rng(20260819)
    worst = 0.0
    t0 = time.perf_counter()

    # path reinforcement: evolving tables, one update per sequence step
    table = None
    for i in range(10_000):
        if i % 50 == 0:
            k = int(rng.integers(2, 7))
            table = RoutingTable(list(range(k)), "probability")
            col = rng.random(k) + 1e-3
            table.set_column(list(col / col.sum()))
        chosen = int(rng.integers(0, len(table.neighbors)))
        reinforce(table, chosen, float(rng.random()))
        worst = max(worst, abs(sum(table.column) - 1.0))

    # distance-gradient startup columns
    for _ in range(10_000):
        k = int(rng.integers(1, 9))
        q = list(rng.random(k) * 3.0)
        dist = initial_distribution(q, [1.0] * k, float(rng.uniform(0.5, 2.0)))
        worst = max(worst, abs(sum(dist) - 1.0))

    # sink-adjacent startup split
    for _ in range(10_000):
        n = int(rng.integers(1, 51))
        to_sink, to_other = sink_adjacent_split(n)
        worst = max(worst, abs(to_sink + (n - 1) * to_other - 1.0))

    # dead-neighbor redistribution
    for _ in range(10_000):
        k = int(rng.integers(2, 9))
        col = rng.random(k) + 1e-3
        col = list(col / col.sum())
        out = redistribute_column(col, int(rng.integers(0, k)))
        worst = max(worst, abs(sum(out) - 1.0))

    elapsed = time.perf_counter() - t0
    emit(1, worst <= 1e-9 and elapsed < 10.0,
         f"normalization: 4x10000 sequences, worst column error {worst:.2e}, "
         f"{elapsed:.1f} s (budget 10 s)")


# -- criterion 2: closed-form identities --------------------------------------

def test_c2_exact_identities():
    ok_split = True
    for n in range(1, 51):
        to_sink, to_other = sink_adjacent_split_exact(n)
        ok_split &= to_sink + (n - 1) * to_other == 1
        ok_split &= (9 * n - 5) + (n - 1) * (4 * n - 5) == 4 * n * n

    rng = np.random.default_rng(7)
    ok_redist = True
    for _ in range(1_000):
        k = int(rng.integers(2, 9))
        raw = [int(v) for v in rng.integers(1, 100, size=k)]
        total = sum(raw)
        col = [Fraction(v, total) for v in raw]
        out = redistribute_column(col, int(rng.integers(0, k)))
        ok_redist &= sum(out) == 1

    emit(2, ok_split and ok_redist,
         "exact identities: startup split N=1..50 and 1000 rational "
         "redistributions all sum to exactly 1")


# -- criterion 3: selection oracle on a hand-checkable topology ---------------

def test_c3_selection_distribution_and_deposit_monotonicity():
    star = [(0, 0), (30, 0), (0, 30), (-30, 0)]   # node 0 hears 1, 2, 3
    cfg = SimConfig(protocol="eeabr", nodes=4, duration=10.0, seed=3,
                    traffic_rate=1e-9, ant_interval=1e8,
                    sigma_alpha=0.0, sigma_beta=0.0)
    sim = Simulation(cfg, from_points(star))
    proto = sim.protocol
    table = proto.tables[0]
    for neighbor, tau in ((1, 0.5), (2, 0.3), (3, 0.2)):
        table.set(neighbor, tau)
    sim.ledger.charge(1, "tx", 12.0)   # distinct residuals: 18, 24, 30 J
    sim.ledger.charge(2, "tx", 6.0)

    cands = [1, 2, 3]
    taus = [table.get(n) for n in cands]
    # The node hosting the sink is scored at the full budget.
    residuals = [cfg.energy_budget if n == sim.sink_node else sim.ledger.residual[n]
                 for n in cands]
    weights = selection_weights(taus, residuals, cfg.alpha, cfg.beta,
                                cfg.energy_budget)
    expected = [w / sum(weights) for w in weights]

    draws = 100_000
    hits = {1: 0, 2: 0, 3: 0}
    for _ in range(draws):
        hits[proto._pick_next(0, ())] += 1
    tv = 0.5 * sum(abs(hits[n] / draws - p) for n, p in zip(cands, expected))

    grid = [trail_deposit(30.0, 20.0, 25.0, h, 1.0) for h in range(1, 21)]
    monotone = all(a > b for a, b in zip(grid, grid[1:]))

    emit(3, tv <= 0.01 and monotone,
         f"selection oracle: TV distance {tv:.4f} over {draws} draws "
         f"(limit 0.01); sink deposit strictly decreasing over 20 hop counts")


# -- criterion 4: live forward-ant cap ----------------------------------------

def test_c4_forward_ant_cap_holds_under_pressure():
    t0 = time.perf_counter()
    cfg = SimConfig(protocol="ieeabr", nodes=49, scenario="static",
                    duration=100.0, traffic_rate=0.1, ant_interval=0.08, seed=1)
    res = run_single(cfg)
    elapsed = time.perf_counter() - t0
    cap = 5 * 49
    deferred = res.counters.get("fwd_ants_deferred", 0)
    emit(4, res.max_live_forward_ants <= cap and deferred > 0 and elapsed < 60.0,
         f"ant cap: max live {res.max_live_forward_ants} <= {cap}, "
         f"{deferred} launches deferred, {elapsed:.1f} s (budget 60 s)")


# -- criterion 5: loop destruction --------------------------------------------

def test_c5_cyclic_ants_die_within_one_lap():
    survived = []
    for seed in range(1, 101):
        cfg = SimConfig(protocol="eeabr", nodes=4, duration=10.0, seed=seed,
                        traffic_rate=1e-9, ant_interval=1e8, tx_radius=31.0,
                        sigma_alpha=0.0, sigma_beta=0.0)
        sim = Simulation(cfg, from_points(RING4, tx_radius=31.0))
        s = sim.sink_node
        walk = [(s + 1) % 4, (s + 2) % 4, (s + 3) % 4]
        ant = Ant(uid=sim.new_ant_uid())
        prev = s
        # drive the ant one full lap; the revisit must kill it
        for node in walk + [walk[0]]:
            if sim.counters["fwd_ants_looped"]:
                break
            frame = Frame(src=prev, dst=node, kind=FORWARD_ANT,
                          size_bits=160, payload={"ant": ant})
            sim.protocol._on_forward_ant(node, frame)
            prev = node
        if sim.counters["fwd_ants_looped"] != 1:
            survived.append(seed)
    emit(5, not survived,
         f"loop destruction: 100/100 injected ring cycles killed at the "
         f"first revisited node{'' if not survived else f'; survived: {survived}'}")


# -- criterion 6: static comparison -------------------------------------------

@pytest.mark.slow
def test_c6_static_orderings(static_pressure, static_delivery, static_scale):
    pressure, cpu1, wall1 = static_pressure
    delivery, cpu2, wall2 = static_delivery
    scale, cpu3, wall3 = static_scale
    cpu_s, wall_s = cpu1 + cpu2 + cpu3, wall1 + wall2 + wall3

    e_eeabr = pressure.cell_mean("eeabr", 49, "static", "energy_J")
    e_ieeabr = pressure.cell_mean("ieeabr", 49, "static", "energy_J")
    ratio_a = e_eeabr / e_ieeabr
    ok_a = ratio_a >= 1.10
    emit("6a", ok_a, f"energy under ant pressure: eeabr/ieeabr mean ratio "
                     f"{ratio_a:.3f} (gate 1.10)")

    fp_succ = delivery.cell_mean("fp", 49, "static", "success_rate_pct")
    others = {p: delivery.cell_mean(p, 49, "static", "success_rate_pct")
              for p in ("babr", "sc", "ff", "eeabr", "ieeabr")}
    ok_b = all(fp_succ >= v for v in others.values())
    emit("6b", ok_b, f"success rate: flooded-data mean {fp_succ:.1f}% >= "
                     f"best alternative {max(others.values()):.1f}%")

    fp_e = scale.cell_mean("fp", 100, "static", "energy_J")
    ie_e = scale.cell_mean("ieeabr", 100, "static", "energy_J")
    ratio_c = fp_e / ie_e
    ok_c = ratio_c >= 5.0
    emit("6c", ok_c, f"energy at 100 nodes: flooding/unicast mean ratio "
                     f"{ratio_c:.2f} (gate 5.0)")

    l_babr = pressure.cell_mean("babr", 49, "static", "latency_s")
    l_ieeabr = pressure.cell_mean("ieeabr", 49, "static", "latency_s")
    ok_d = l_babr >= l_ieeabr
    emit("6d", ok_d, f"latency: babr mean {l_babr:.4f} s >= ieeabr mean "
                     f"{l_ieeabr:.4f} s")

    emit(6, ok_a and ok_b and ok_c and ok_d and cpu_s < 900.0,
         f"static orderings reproduced; plans took {cpu_s:.0f} s CPU "
         f"(budget 900 s), {wall_s:.0f} s wall")


# -- criterion 7: dynamic comparison ------------------------------------------

@pytest.mark.slow
def test_c7_dynamic_orderings(dynamic_pressure):
    table, cpu_s, wall_s = dynamic_pressure
    e_eeabr = table.cell_mean("eeabr", 49, "dynamic", "energy_J")
    e_ieeabr = table.cell_mean("ieeabr", 49, "dynamic", "energy_J")
    gap_pct = 100.0 * (e_eeabr - e_ieeabr) / e_eeabr
    f_eeabr = table.cell_mean("eeabr", 49, "dynamic", "efficiency_kbit_per_J")
    f_ieeabr = table.cell_mean("ieeabr", 49, "dynamic", "efficiency_kbit_per_J")
    ok = gap_pct >= 5.0 and f_ieeabr > f_eeabr and cpu_s < 900.0
    emit(7, ok,
         f"mobile sink: ieeabr saves {gap_pct:.1f}% energy (gate 5%), "
         f"efficiency {f_ieeabr:.3f} vs {f_eeabr:.3f} kbit/J, "
         f"{cpu_s:.0f} s CPU (budget 900 s), {wall_s:.0f} s wall")


# -- criterion 8: determinism --------------------------------------------------

def test_c8_byte_identical_outputs():
    plan_args = dict(protocols=("babr", "ieeabr"), node_counts=(9,),
                     scenarios=("static",), replicates=2, base_seed=5,
                     overrides={"duration": 8.0, "layout": "grid"})
    first = run_experiment(ExperimentPlan(**plan_args)).to_csv()
    second = run_experiment(ExperimentPlan(**plan_args)).to_csv()
    pooled = run_experiment(ExperimentPlan(**plan_args), parallel=2).to_csv()
    emit(8, first == second == pooled,
         "determinism: serial rerun and 2-process pool produce "
         "byte-identical CSV")


# -- criterion 9: energy conservation ------------------------------------------

@pytest.mark.slow
def test_c9_energy_books_balance_in_all_runs(static_pressure, static_delivery,
                                             static_scale, dynamic_pressure):
    worst = 0.0
    runs = 0
    for table, *_ in (static_pressure, static_delivery, static_scale,
                      dynamic_pressure):
        for res in table.results.values():
            worst = max(worst, res.conservation_rel_gap)
            runs += 1
    emit(9, worst <= 1e-9,
         f"energy conservation: worst relative gap {worst:.2e} over "
         f"{runs} runs (limit 1e-9)")
