"""Whole-network runs: every protocol finishes on a small grid, the summary
figures obey their identities, and equal seeds reproduce byte-equal traces."""

import numpy as np
import pytest

from antwsn.config import SimConfig
from antwsn.metrics import RunMetrics
from antwsn.simulation import Simulation, run_single

PROTOCOLS = ("babr", "sc", "ff", "fp", "eeabr", "ieeabr")


def small_cfg(protocol, scenario, seed=7, **overrides):
    base = dict(protocol=protocol, nodes=9, layout="grid", scenario=scenario,
                duration=25.0, traffic_rate=0.5, ant_interval=2.0, seed=seed)
    base.update(overrides)
    return SimConfig(**base)


@pytest.fixture(scope="module")
def grid_runs():
    out = {}
    for scenario in ("static", "dynamic"):
        for protocol in PROTOCOLS:
            out[(protocol, scenario)] = run_single(small_cfg(protocol, scenario))
    return out


class TestEveryProtocolRuns:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("scenario", ("static", "dynamic"))
    def test_run_completes_and_reports(self, grid_runs, protocol, scenario):
        r = grid_runs[(protocol, scenario)]
        assert r.protocol == protocol
        assert r.scenario == scenario
        assert r.nodes == 9
        assert r.dispatched_events > 0
        assert len(r.trace_sha256) == 64
        assert r.generated > 0
        assert 0 <= r.delivered <= r.generated
        assert r.energy_j > 0

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("scenario", ("static", "dynamic"))
    def test_summary_identities(self, grid_runs, protocol, scenario):
        r = grid_runs[(protocol, scenario)]
        assert r.success_rate_pct == pytest.approx(100.0 * r.delivered / r.generated)
        want = (r.delivered * 400 / 1000.0) / r.energy_j if r.delivered else 0.0
        assert r.efficiency_kbit_per_j == pytest.approx(want, abs=1e-9)
        if r.delivered:
            assert r.latency_s > 0
            assert 0 < r.latency_p50_s <= r.latency_p95_s <= r.latency_max_s
            assert r.latency_s <= r.latency_max_s
        else:
            assert r.latency_s is None
            assert r.latency_p50_s is r.latency_p95_s is r.latency_max_s is None

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("scenario", ("static", "dynamic"))
    def test_energy_books_balance(self, grid_runs, protocol, scenario):
        r = grid_runs[(protocol, scenario)]
        assert r.conservation_rel_gap <= 1e-9
        assert all(0 <= res <= 60.0 for res in r.residuals)

    def test_energy_books_balance_when_the_budget_dwarfs_the_spend(self):
        # Each debit rounds a residual at the scale of the 1e3 J budget, and
        # the run spends 2.4e-4 J: a gap taken against the spend read 2.5e-9.
        r = run_single(SimConfig(protocol="babr", nodes=2, duration=0.5, initial_energy=1000,
                                 ant_frame_bytes=1, ant_interval=0.05, alpha=0, seed=1))
        assert r.energy_j > 0
        assert r.conservation_rel_gap <= 1e-9

    def test_generated_count_is_protocol_independent(self, grid_runs):
        # Traffic comes from its own stream: switching protocol must not
        # change what the sensors observe.
        for scenario in ("static", "dynamic"):
            counts = {grid_runs[(p, scenario)].generated for p in PROTOCOLS}
            assert len(counts) == 1

    def test_ant_cap_reported_only_for_quota_protocols(self, grid_runs):
        for scenario in ("static", "dynamic"):
            for p in PROTOCOLS:
                cap = grid_runs[(p, scenario)].max_live_forward_ants
                if p == "ieeabr":
                    assert cap is not None and 0 <= cap <= 5 * 9
                else:
                    assert cap is None


class TestReproducibility:
    @pytest.mark.parametrize("protocol", ("babr", "ieeabr", "fp"))
    def test_twin_runs_have_identical_traces(self, protocol):
        a = run_single(small_cfg(protocol, "static", duration=10.0))
        b = run_single(small_cfg(protocol, "static", duration=10.0))
        assert a.trace_sha256 == b.trace_sha256
        assert a.dispatched_events == b.dispatched_events
        assert a.energy_j == b.energy_j
        assert a.residuals == b.residuals
        assert a.counters == b.counters

    def test_seed_changes_the_trace(self):
        a = run_single(small_cfg("eeabr", "static", seed=7, duration=10.0))
        b = run_single(small_cfg("eeabr", "static", seed=8, duration=10.0))
        assert a.trace_sha256 != b.trace_sha256

    def test_clock_stops_at_the_horizon(self):
        sim = Simulation(small_cfg("babr", "static", duration=5.0))
        r = sim.run()
        assert sim.kernel.now() == 5.0
        assert r.duration == 5.0


class TestDynamicSink:
    def test_sink_rebinds_during_orbit(self):
        r = run_single(small_cfg("ieeabr", "dynamic", duration=50.0))
        assert r.counters.get("sink_rebinds", 0) > 0

    def test_static_sink_never_rebinds(self, grid_runs):
        for p in PROTOCOLS:
            assert grid_runs[(p, "static")].counters.get("sink_rebinds", 0) == 0


class TestRunMetrics:
    def test_empty_run_has_absent_latency(self):
        m = RunMetrics()
        assert m.latency_mean is None
        assert m.latency_percentiles() == (None, None, None)
        assert m.success_rate_pct == 0.0
        assert m.efficiency_kbit_per_j(5.0, 400) == 0.0

    def test_delivery_accounting(self):
        m = RunMetrics()
        m.record_generated()
        m.record_generated()
        m.record_delivered(1.0, 3.0)
        assert m.latency_mean == pytest.approx(2.0)
        assert m.success_rate_pct == pytest.approx(50.0)
        assert m.efficiency_kbit_per_j(2.0, 400) == pytest.approx(0.2)

    @pytest.mark.parametrize("count", [1, 2, 7, 20, 101])
    def test_latency_percentiles_match_numpy(self, count):
        latencies = np.random.default_rng(count).exponential(0.1, count)
        m = RunMetrics()
        for latency in latencies:
            m.record_delivered(0.0, float(latency))
        p50, p95, worst = m.latency_percentiles()
        assert [p50, p95] == pytest.approx(np.percentile(latencies, [50, 95]), rel=1e-12)
        assert worst == latencies.max()

    def test_time_travel_rejected(self):
        m = RunMetrics()
        with pytest.raises(ValueError):
            m.record_delivered(5.0, 4.0)

    def test_zero_energy_guard(self):
        m = RunMetrics()
        m.record_generated()
        m.record_delivered(0.0, 1.0)
        assert m.efficiency_kbit_per_j(0.0, 400) == 0.0
