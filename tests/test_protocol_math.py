"""Hand-checked values for every table-update rule, frozen as oracles."""

import math
from fractions import Fraction
from functools import reduce
from operator import add
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antwsn.config import SimConfig
from antwsn.protocols import eeabr
from antwsn.protocols import (reinforce, reinforcement_factor,
                              initial_distribution, should_broadcast,
                              visibility, selection_weights, trail_deposit,
                              evaporate_deposit, sink_adjacent_split,
                              sink_adjacent_split_exact, redistribute_column,
                              AntQuota)
from antwsn.protocols.eeabr import VISIBILITY_FLOOR
from antwsn.routing import RoutingError, RoutingTable, weighted_pick
from antwsn.scenario import from_points
from antwsn.simulation import Simulation


class TestReinforce:
    def test_even_split_and_small_factor(self):
        t = RoutingTable([1, 2])
        reinforce(t, 1, 0.2)
        assert t.get(1) == pytest.approx(0.6)
        assert t.get(2) == pytest.approx(0.4)
        t.normalize_check()

    def test_zero_factor_is_identity(self):
        t = RoutingTable([1, 2, 3])
        t.set_column([0.5, 0.3, 0.2])
        reinforce(t, 2, 0.0)
        assert t.column == [0.5, 0.3, 0.2]

    def test_full_factor_absorbs(self):
        t = RoutingTable([1, 2, 3])
        reinforce(t, 3, 1.0)
        assert t.column == [0.0, 0.0, 1.0]

    def test_factor_outside_unit_interval_rejected(self):
        t = RoutingTable([1, 2])
        with pytest.raises(RoutingError):
            reinforce(t, 1, 1.1)
        with pytest.raises(RoutingError):
            reinforce(t, 1, -0.1)

    def test_stays_normalized_under_random_sequences(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(2, 8))
            t = RoutingTable(list(range(k)))
            for _ in range(int(rng.integers(1, 6))):
                reinforce(t, int(rng.integers(0, k)), float(rng.random()))
            t.normalize_check()


class _StubModel:
    """Fixed window statistics, so the factor formula is hand-checkable."""

    def __init__(self, w_best, lo, hi):
        self.w_best = w_best
        self._bounds = (lo, hi)

    def confidence_bounds(self):
        return self._bounds


class TestReinforcementFactor:
    def test_balanced_terms(self):
        # best trip observed again, interval width equal to the overshoot
        m = _StubModel(w_best=2.0, lo=1.0, hi=2.0)
        assert reinforcement_factor(m, 2.0, 0.7, 0.3) == pytest.approx(0.85)

    def test_degenerate_window_drops_second_term(self):
        m = _StubModel(w_best=2.0, lo=2.0, hi=2.0)
        assert reinforcement_factor(m, 2.0, 0.7, 0.3) == pytest.approx(0.7)

    def test_terrible_trip_vanishes(self):
        m = _StubModel(w_best=2.0, lo=1.0, hi=2.0)
        assert reinforcement_factor(m, 1e9, 0.7, 0.3) < 1e-6

    def test_clamped_to_unit_interval(self):
        # trip far better than anything in the window would overshoot 1
        m = _StubModel(w_best=10.0, lo=1.0, hi=2.0)
        assert reinforcement_factor(m, 0.5, 0.7, 0.3) == 1.0

    def test_nonpositive_trip_rejected(self):
        m = _StubModel(w_best=2.0, lo=1.0, hi=2.0)
        with pytest.raises(RoutingError):
            reinforcement_factor(m, 0.0, 0.7, 0.3)


class TestInitialDistribution:
    def test_two_neighbor_example(self):
        p = initial_distribution([2.0, 4.0], [1.0, 1.0], 1.0)
        expected = math.e / (math.e + math.exp(-1.0))
        assert p[0] == pytest.approx(expected)
        assert p[0] == pytest.approx(0.8808, abs=1e-4)
        assert math.fsum(p) == pytest.approx(1.0, abs=1e-12)

    def test_equal_estimates_give_uniform(self):
        p = initial_distribution([3.0, 3.0, 3.0], [1.0, 1.0, 1.0], 2.0)
        assert p == [pytest.approx(1 / 3)] * 3

    def test_zero_sharpness_gives_uniform(self):
        p = initial_distribution([1.0, 5.0, 9.0], [1.0, 1.0, 1.0], 0.0)
        assert p == [pytest.approx(1 / 3)] * 3

    def test_cheaper_option_gets_more_mass(self):
        p = initial_distribution([1.0, 4.0], [1.0, 1.0], 1.0)
        assert p[0] > p[1]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            initial_distribution([1.0], [1.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            initial_distribution([], [], 1.0)


class TestVisibility:
    def test_depleted_node_scores_low(self):
        assert visibility(0.0, 30.0) == pytest.approx(1 / 30)
        assert visibility(20.0, 30.0) == pytest.approx(0.1)

    def test_full_node_hits_the_floor(self):
        assert visibility(30.0, 30.0) == pytest.approx(1 / (VISIBILITY_FLOOR * 30.0))
        # within the floor zone the clamp value holds
        assert visibility(29.99, 30.0) == visibility(30.0, 30.0)

    def test_monotone_in_residual(self):
        vals = [visibility(e, 30.0) for e in np.linspace(0, 29.9, 25)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestSelectionWeights:
    def test_hand_example(self):
        # residuals chosen so the visibility factors are exactly 2 and 4
        w = selection_weights([0.4, 0.1], [29.5, 29.75], 1.0, 1.0, 30.0)
        assert w == [pytest.approx(0.8), pytest.approx(0.4)]
        total = sum(w)
        assert w[0] / total == pytest.approx(2 / 3)
        assert w[1] / total == pytest.approx(1 / 3)

    def test_exponents_apply(self):
        w = selection_weights([2.0], [29.5], 3.0, 2.0, 30.0)
        assert w[0] == pytest.approx((2.0 ** 3) * (2.0 ** 2))

    def test_zero_trail_zero_weight(self):
        w = selection_weights([0.0, 1.0], [15.0, 15.0], 1.0, 1.0, 30.0)
        assert w[0] == 0.0 and w[1] > 0


# Node 0 at the centre of a hexagon of six neighbors, ids 1..6.
HEX = [(0.0, 0.0)] + [(20 * math.cos(k * math.pi / 3), 20 * math.sin(k * math.pi / 3))
                      for k in range(6)]
# Residuals as fractions of the budget; near 1 the visibility floor holds.
SHARES = (st.floats(0.0, 1.0)
          | st.floats(1 - VISIBILITY_FLOOR, 1.0)
          | st.sampled_from([0.0, 1 - VISIBILITY_FLOOR, 1.0]))
TAUS = st.sampled_from([0.0, 0.0, 1e-3, 1.0]) | st.floats(0.0, 5.0)


class _Draws:
    """Stand-in for the protocol stream: hands out `u` and counts draws."""

    def __init__(self, u):
        self.u = u
        self.calls = 0

    def uniform(self):
        self.calls += 1
        return self.u


class TestPickNext:
    """`EEABR._pick_next` scores the candidates in one pass; it must hand
    `weighted_pick` exactly the weights `selection_weights` gives (the sink
    scored at the full budget), then uniform weights with the same draw when
    every weight is zero, and pick the same neighbor."""

    @settings(max_examples=150, deadline=None)
    @given(taus=st.lists(TAUS, min_size=6, max_size=6),
           shares=st.lists(SHARES, min_size=6, max_size=6),
           budget=st.sampled_from([30.0, 7.5]),
           exclude=st.lists(st.integers(0, 8), max_size=4) | st.just([1, 2, 3, 4, 5, 6]),
           sink=st.integers(0, 6),
           alpha=st.sampled_from([1.0, 2.0, 0.5]),
           beta=st.sampled_from([1.0, 2.0, 0.0]),
           u=st.floats(0.0, 1.0, exclude_max=True))
    @example(taus=[0.0] * 6, shares=[1.0] * 6, budget=30.0, exclude=[2], sink=3,
             alpha=1.0, beta=1.0, u=0.7)
    @example(taus=[1.0] * 6, shares=[0.5] * 6, budget=30.0, exclude=[1, 2, 3, 4, 5, 6],
             sink=1, alpha=1.0, beta=1.0, u=0.3)
    def test_matches_selection_weights(self, taus, shares, budget, exclude, sink,
                                       alpha, beta, u):
        cfg = SimConfig(protocol="eeabr", nodes=len(HEX), duration=1.0,
                        traffic_rate=1e-9, ant_interval=1e8,
                        initial_energy=budget, alpha=alpha, beta=beta)
        sim = Simulation(cfg, from_points(HEX))
        sim.sink_node = sink
        sim.rng.protocol = draws = _Draws(u)
        table = sim.protocol.tables[0]
        assert table.neighbors == [1, 2, 3, 4, 5, 6]
        table.set_column(taus)
        for n, share in zip(table.neighbors, shares):
            sim.ledger.residual[n] = share * budget

        picks = []

        def recording(weights, u):
            picks.append(list(weights))
            return weighted_pick(weights, u)
        with mock.patch.object(eeabr, "weighted_pick", recording):
            got = sim.protocol._pick_next(0, exclude)

        candidates = [n for n in table.neighbors if n not in exclude]
        if not candidates:
            assert got is None
            assert draws.calls == 0 and picks == []
            return
        weights = selection_weights(
            [table.get(n) for n in candidates],
            [budget if n == sink else sim.ledger.residual[n] for n in candidates],
            alpha, beta, budget)
        if any(w > 0 for w in weights):
            assert picks == [weights]     # bit for bit
        else:
            uniform = [1.0] * len(candidates)
            assert picks == [weights, uniform]
            weights = uniform
        assert draws.calls == 1
        assert got == candidates[weighted_pick(weights, u)]


class TestTrailDeposit:
    def test_hand_example(self):
        d = trail_deposit(30.0, 20.0, 25.0, 5, dtau_max=1.0)
        assert d == pytest.approx(1 / 29.25)
        assert d == pytest.approx(0.03419, abs=1e-5)

    def test_equal_min_and_average(self):
        assert trail_deposit(30.0, 25.0, 25.0, 5, 1.0) == pytest.approx(1 / 29.0)

    def test_shorter_paths_deposit_more(self):
        vals = [trail_deposit(30.0, 20.0, 25.0, h, 1.0) for h in range(1, 21)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_degenerate_denominators_clamp(self):
        assert trail_deposit(30.0, 20.0, 5.0, 5, 0.7) == 0.7     # e_avg == hops
        assert trail_deposit(0.5, 20.0, 25.0, 5, 0.7) == 0.7     # budget too small

    def test_deposit_never_exceeds_cap(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            d = trail_deposit(float(rng.uniform(0.1, 60)),
                              float(rng.uniform(0, 30)),
                              float(rng.uniform(0, 30)),
                              int(rng.integers(1, 30)), dtau_max=1.0)
            assert 0.0 < d <= 1.0

    def test_zero_hops_rejected(self):
        with pytest.raises(ValueError):
            trail_deposit(30.0, 20.0, 25.0, 0, 1.0)


class TestEvaporateDeposit:
    def test_hand_example(self):
        assert evaporate_deposit(0.5, 0.2, 2, rho=0.1, phi=1.0) == pytest.approx(0.55)

    def test_no_deposit_is_pure_decay(self):
        assert evaporate_deposit(0.5, 0.0, 1, 0.1, 1.0) == pytest.approx(0.45)

    def test_farther_from_sink_gets_less(self):
        near = evaporate_deposit(0.5, 0.2, 1, 0.1, 1.0)
        far = evaporate_deposit(0.5, 0.2, 8, 0.1, 1.0)
        assert near > far

    def test_bad_distance_rejected(self):
        with pytest.raises(ValueError):
            evaporate_deposit(0.5, 0.2, 0, 0.1, 1.0)

    def test_equilibrium_level(self):
        # repeated updates converge to deposit/(rho*phi*bd)
        tau = 0.0
        for _ in range(400):
            tau = evaporate_deposit(tau, 0.2, 2, 0.1, 1.0)
        assert tau == pytest.approx(0.2 / (0.1 * 1.0 * 2), rel=1e-6)


class TestSinkAdjacentSplit:
    def test_two_neighbors(self):
        to_sink, to_other = sink_adjacent_split(2)
        assert to_sink == pytest.approx(13 / 16)
        assert to_other == pytest.approx(3 / 16)

    def test_three_neighbors(self):
        to_sink, to_other = sink_adjacent_split(3)
        assert to_sink == pytest.approx(22 / 36)
        assert to_other == pytest.approx(7 / 36)

    def test_single_neighbor_boundary(self):
        assert sink_adjacent_split(1) == (1.0, 0.0)

    def test_column_sums_to_one_exactly(self):
        for n in range(1, 51):
            to_sink, to_other = sink_adjacent_split_exact(n)
            assert to_sink + (n - 1) * to_other == Fraction(1)

    def test_float_twin_matches_exact(self):
        for n in range(1, 51):
            fs, fo = sink_adjacent_split(n)
            es, eo = sink_adjacent_split_exact(n)
            assert fs == pytest.approx(float(es), rel=1e-12)
            assert fo == pytest.approx(float(eo), rel=1e-12)

    def test_zero_neighbors_rejected(self):
        with pytest.raises(ValueError):
            sink_adjacent_split(0)


class TestRedistributeColumn:
    def test_hand_example(self):
        out = redistribute_column([0.5, 0.25, 0.25], dead_index=2)
        assert out[0] == pytest.approx(2 / 3)
        assert out[1] == pytest.approx(1 / 3)
        assert out[2] == 0.0
        assert math.fsum(out) == pytest.approx(1.0)

    def test_dead_entry_with_no_mass_is_noop(self):
        out = redistribute_column([0.6, 0.4, 0.0], dead_index=2)
        assert out == [pytest.approx(0.6), pytest.approx(0.4), 0.0]

    def test_single_survivor_takes_everything(self):
        out = redistribute_column([0.5, 0.5], dead_index=0)
        assert out == [0.0, pytest.approx(1.0)]

    def test_no_survivor_returns_none(self):
        assert redistribute_column([1.0, 0.0], dead_index=0) is None

    def test_exact_in_rational_arithmetic(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            raw = [int(x) for x in rng.integers(0, 50, size=k)]
            if sum(raw) == 0:
                raw[0] = 1
            total = sum(raw)
            col = [Fraction(v, total) for v in raw]
            dead = int(rng.integers(0, k))
            out = redistribute_column(col, dead)
            if out is not None:
                assert sum(out) == Fraction(1)
                assert out[dead] == 0


def left_to_right(values):
    """Plain left-to-right addition from int 0: what `sum` computed before
    Python 3.12 made it compensate float rounding."""
    return reduce(add, values, 0)


class TestLeftToRightSums:
    """sc's start-up softmax and ieeabr's redistribution add left to right on
    every Python, so a run computes the same bits on 3.10 as on 3.12+. Each
    fixed case is one where compensated and naive summation differ."""

    @staticmethod
    def expected_distribution(q_costs, sc_beta):
        best = min(1.0 + q for q in q_costs)
        weights = [math.exp((best - q) * sc_beta) for q in q_costs]
        total = left_to_right(weights)
        return [w / total for w in weights]

    @example(q_costs=[1.21, 1.82, 0.94], sc_beta=1.0)
    @given(q_costs=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=12),
           sc_beta=st.floats(-20.0, 20.0))
    def test_initial_distribution_adds_left_to_right(self, q_costs, sc_beta):
        p = initial_distribution(q_costs, [1.0] * len(q_costs), sc_beta)
        assert p == self.expected_distribution(q_costs, sc_beta)

    def test_initial_distribution_case_where_compensation_differs(self):
        q_costs = [1.21, 1.82, 0.94]
        best = min(1.0 + q for q in q_costs)
        weights = [math.exp(best - q) for q in q_costs]
        assert left_to_right(weights) != math.fsum(weights)
        p = initial_distribution(q_costs, [1.0] * 3, 1.0)
        assert p == self.expected_distribution(q_costs, 1.0)
        assert p != [w / math.fsum(weights) for w in weights]

    @example(values=[0.3, 0.3, 0.5, 0.3], dead_index=2)
    @given(values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
           dead_index=st.integers(0, 11))
    def test_redistribute_column_adds_left_to_right(self, values, dead_index):
        dead_index %= len(values)
        dead_mass = values[dead_index]
        rest = left_to_right(values) - dead_mass
        expected = None if rest <= 0 else [
            0 * v if i == dead_index else v * (1 + dead_mass / rest)
            for i, v in enumerate(values)]
        assert redistribute_column(values, dead_index) == expected

    def test_redistribute_column_case_where_compensation_differs(self):
        values = [0.3, 0.3, 0.5, 0.3]
        assert left_to_right(values) != math.fsum(values)
        out = redistribute_column(values, 2)
        for total, want in ((left_to_right(values), True), (math.fsum(values), False)):
            z = 0.5 / (total - 0.5)
            assert (out == [0.3 * (1 + z), 0.3 * (1 + z), 0.0, 0.3 * (1 + z)]) is want


class TestAntQuota:
    def test_boundary(self):
        q = AntQuota(cap=45)
        for uid in range(44):
            assert q.admit(uid)
        assert q.live == 44
        assert q.admit(44)          # 44 live, one more fits
        assert not q.admit(45)      # at the cap: defer
        assert q.max_live == 45

    def test_release_frees_a_slot(self):
        q = AntQuota(cap=2)
        assert q.admit(1) and q.admit(2)
        assert not q.admit(3)
        q.release(1)
        assert q.admit(3)
        assert q.max_live == 2

    def test_release_unknown_uid_harmless(self):
        q = AntQuota(cap=2)
        q.release(99)
        assert q.live == 0


class TestShouldBroadcast:
    def test_uniform_probability_suppresses(self):
        assert should_broadcast(0.5, 2) is False
        assert should_broadcast(0.25, 4) is False

    def test_poor_route_floods(self):
        assert should_broadcast(0.1, 5) is True

    def test_unknown_sender_floods(self):
        assert should_broadcast(0.0, 3) is True

    def test_neighborless_rejected(self):
        with pytest.raises(ValueError):
            should_broadcast(0.5, 0)
