"""Routing tables of both kinds, the weighted draw, ant bookkeeping, and the
trip-time model."""

import math

import numpy as np
import pytest
from unittest import mock

from hypothesis import example, given
from hypothesis import strategies as st

from antwsn import routing
from antwsn.routing import (Ant, AntCache, Flood, PHEROMONE, PROBABILITY,
                            RoutingError, RoutingTable, TripModel, weighted_pick)


class TestRoutingTable:
    def test_fresh_probability_column_is_uniform(self):
        t = RoutingTable([3, 7, 9])
        assert t.column == [pytest.approx(1 / 3)] * 3
        t.normalize_check()

    @pytest.mark.parametrize("fresh_mass, mode, fresh", [
        (None, PROBABILITY, [0.25] * 4),   # no mass: 1/k each, kept normalized
        (0.02, PHEROMONE, [0.02] * 4),     # a mass: that mass each, unnormalized
    ], ids=[PROBABILITY, PHEROMONE])
    def test_kind_follows_the_fresh_mass(self, fresh_mass, mode, fresh):
        t = RoutingTable([1, 2, 3, 4], fresh_mass)
        assert t.mode == mode
        assert t.column == fresh
        unnormalized = [0.5, 0.5, 0.5, 0.0]
        if mode == PROBABILITY:
            with pytest.raises(RoutingError, match="sums to"):
                t.set_column(unnormalized)
            assert t.column == fresh
        else:
            t.set_column(unnormalized)
            assert t.column == unnormalized

    def test_fresh_mass_pins_pheromone_scale(self):
        t = RoutingTable([1, 2, 3], fresh_mass=0.02)
        assert t.column == [0.02, 0.02, 0.02]

    def test_fresh_mass_must_be_positive(self):
        with pytest.raises(RoutingError):
            RoutingTable([1, 2], fresh_mass=0.0)

    def test_get_set(self):
        t = RoutingTable([4, 5], fresh_mass=0.5)
        t.set(5, 2.5)
        assert t.get(5) == 2.5
        assert t.get(4) == 0.5
        with pytest.raises(RoutingError):
            t.set(4, -1.0)

    def test_probability_table_takes_no_single_entry(self):
        # One entry alone would take the column off its sum of 1.
        t = RoutingTable([4, 5])
        with pytest.raises(RoutingError, match="whole column"):
            t.set(5, 0.5)
        assert t.column == [0.5, 0.5]

    def test_set_column_validation(self):
        t = RoutingTable([1, 2])
        with pytest.raises(RoutingError):
            t.set_column([0.5])            # wrong length
        with pytest.raises(RoutingError):
            t.set_column([-0.1, 1.1])      # negative entry
        with pytest.raises(RoutingError):
            t.set_column([0.6, 0.6])       # does not sum to 1

    def test_pheromone_columns_need_not_normalize(self):
        t = RoutingTable([1, 2], fresh_mass=0.5)
        t.set_column([3.0, 9.0])
        assert t.column == [3.0, 9.0]

    def test_no_neighbors_rejected(self):
        with pytest.raises(RoutingError):
            RoutingTable([])

    def test_sample_proportional(self):
        t = RoutingTable([10, 20], fresh_mass=0.5)
        t.set_column([1.0, 3.0])
        rng = np.random.default_rng(0)
        picks = [t.sample(float(u)) for u in rng.random(8000)]
        assert abs(picks.count(20) / 8000 - 0.75) < 0.02

    def test_sample_exclusion(self):
        t = RoutingTable([10, 20])
        assert t.sample(0.99, exclude=(20,)) == 10

    def test_sample_returns_none_when_everything_excluded(self):
        t = RoutingTable([10, 20])
        assert t.sample(0.5, exclude=(10, 20)) is None

    def test_total_exclusion_leaves_the_bounce_back_to_the_caller(self):
        # A data packet's caller resamples the whole column with the same u.
        t = RoutingTable([10, 20])
        assert t.sample(0.0, exclude=(10, 20)) is None
        assert t.sample(0.0) == 10

    def test_sample_needs_positive_mass(self):
        t = RoutingTable([10, 20], fresh_mass=0.5)
        t.set_column([0.0, 0.0])
        with pytest.raises(RoutingError):
            t.sample(0.5)

    @given(column=st.lists(st.sampled_from([0.0, 0.0, 1e-300, 0.25, 1.0, 3.0])
                           | st.floats(0.0, 10.0), min_size=1, max_size=8),
           exclude=st.lists(st.integers(0, 9), max_size=10),
           exclude_all=st.booleans(),
           u=st.floats(0.0, 1.0, exclude_max=True))
    @example(column=[0.0, 0.0], exclude=[], exclude_all=False, u=0.5)
    @example(column=[0.0, 0.0], exclude=[], exclude_all=True, u=0.5)
    @example(column=[1.0, 2.0], exclude=[], exclude_all=True, u=0.5)
    @example(column=[0.0, 2.0], exclude=[1], exclude_all=False, u=0.9)
    def test_sample_matches_the_reference(self, column, exclude, exclude_all, u):
        # Neighbors are the even ids, so odd exclusions are not neighbors.
        t = RoutingTable([2 * i for i in range(len(column))], fresh_mass=1.0)
        t.set_column(column)
        if exclude_all:
            exclude = exclude + t.neighbors
        picks = []

        def recording(weights, u):
            picks.append(list(weights))
            return weighted_pick(weights, u)
        with mock.patch.object(routing, "weighted_pick", recording):
            got = _outcome(t.sample, u, exclude)
        want_picks = []
        want = _outcome(reference_sample, t, u, exclude, want_picks)
        assert got == want
        assert picks == want_picks

    def test_rows_dump(self):
        t = RoutingTable([1, 2])
        rows = list(t.rows())
        assert rows == [(1, "sink", 0.5), (2, "sink", 0.5)]


class TestWeightedPick:
    def test_buckets(self):
        weights = [1.0, 3.0]
        assert weighted_pick(weights, 0.0) == 0
        assert weighted_pick(weights, 0.24) == 0
        assert weighted_pick(weights, 0.26) == 1
        assert weighted_pick(weights, 0.99) == 1

    def test_zero_weights_skipped(self):
        assert weighted_pick([0.0, 1.0, 0.0], 0.5) == 1
        assert weighted_pick([0.0, 0.5, 0.5], 0.0) == 1

    def test_last_positive_absorbs_shortfall(self):
        # u close enough to 1 that accumulation may fall short of the target
        assert weighted_pick([0.1, 0.2, 0.0], 1.0 - 1e-16) == 1

    def test_all_zero_gives_none(self):
        assert weighted_pick([0.0, 0.0], 0.3) is None

    def test_nan_weights_are_never_picked(self):
        nan = float("nan")
        assert weighted_pick([nan, nan], 0.3) is None
        assert weighted_pick([0.5, nan, 0.5], 0.0) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            weighted_pick([0.5, -0.1], 0.3)

    def test_matches_proportions(self):
        rng = np.random.default_rng(0)
        weights = [0.2, 0.5, 0.3]
        counts = [0, 0, 0]
        n = 20000
        for u in rng.random(n):
            counts[weighted_pick(weights, float(u))] += 1
        for w, c in zip(weights, counts):
            assert abs(c / n - w) < 0.02


class TestAnt:
    def test_visit_tracks_path_and_memory(self):
        ant = Ant(uid=1)
        for node, t in ((0, 0.0), (3, 0.1), (5, 0.2)):
            ant.visit(node, t)
        assert ant.path_nodes() == [0, 3, 5]
        assert ant.path == [(0, 0.0), (3, 0.1), (5, 0.2)]

    def test_energy_statistics(self):
        ant = Ant(uid=1)
        ant.record_energy(10.0)
        ant.record_energy(4.0)
        ant.record_energy(7.0)
        assert ant.e_min == 4.0
        assert ant.e_avg == pytest.approx(7.0)

    def test_e_avg_defined_before_any_sample(self):
        ant = Ant(uid=1)
        assert ant.e_avg == 0.0

    def test_fork_is_independent(self):
        ant = Ant(uid=1, flood=Flood())
        ant.visit(0, 0.0)
        twin = ant.fork()
        twin.visit(9, 1.0)
        assert ant.path_nodes() == [0]
        assert twin.path_nodes() == [0, 9]
        assert twin.uid == ant.uid
        # Every copy of a flood shares its one record.
        assert twin.flood is ant.flood
        twin.flood.seen |= 1 << 9
        assert ant.flood.seen == 1 << 9
        # A walking ant has no flood, and neither have its forks.
        assert Ant(uid=2).fork().flood is None


class TestAntCache:
    def test_remember_seen_lookup(self):
        cache = AntCache(timeout=3.0)
        cache.remember(42, previous=1, now=0.0)
        assert cache.seen(42, 1.0)
        assert cache.lookup(42, 1.0) == 1

    def test_timeout_expires_records(self):
        cache = AntCache(timeout=3.0)
        cache.remember(42, previous=1, now=0.0)
        assert not cache.seen(42, 3.0)
        assert cache.lookup(42, 3.5) is None
        cache.expire(3.0)
        assert len(cache) == 0

    def test_forget(self):
        cache = AntCache(timeout=3.0)
        cache.remember(7, previous=-1, now=0.0)
        cache.forget(7)
        assert not cache.seen(7, 0.1)

    def test_bad_timeout(self):
        with pytest.raises(RoutingError):
            AntCache(timeout=0.0)

    @given(timeout=st.sampled_from([0.5, 1.0, 2.0]),
           ops=st.lists(st.tuples(
               st.sampled_from(["remember", "remember", "forget", "expire",
                                "expire", "seen", "lookup"]),
               st.integers(0, 3), st.integers(-1, 3),
               st.sampled_from([0.0, 0.0, 0.25, 0.5])),
               max_size=40))
    def test_front_expiry_matches_a_full_scan(self, timeout, ops):
        cache, ref = AntCache(timeout), ScanCache(timeout)
        now = 0.0
        for op, uid, previous, dt in ops:
            now += dt
            if op == "remember":
                cache.remember(uid, previous, now)
                ref.remember(uid, previous, now)
            elif op == "forget":
                cache.forget(uid)
                ref.forget(uid)
            elif op == "expire":
                cache.expire(now)
                ref.expire(now)
            else:
                assert getattr(cache, op)(uid, now) == getattr(ref, op)(uid, now)
            assert len(cache) == len(ref.records)


def reference_sample(table, u, exclude=(), picks=None):
    """`RoutingTable.sample` written with `any` scans: None when exclusion
    leaves no positive weight, an error when the column has none. `picks`
    collects the weight list handed to `weighted_pick`, one per call."""
    weights = list(table.column)
    for n in exclude:
        i = table.index.get(n)
        if i is not None:
            weights[i] = 0.0
    if picks is not None:
        picks.append(weights)
    if any(w > 0 for w in weights):
        return table.neighbors[weighted_pick(weights, u)]
    if any(w > 0 for w in table.column):
        return None
    raise RoutingError("no positive weight toward the sink")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except RoutingError as err:
        return f"RoutingError: {err}"


class ScanCache:
    """Reference ant cache: `expire` scans every record."""

    def __init__(self, timeout):
        self.timeout = timeout
        self.records = {}

    def expire(self, now):
        for uid in [u for u, (_, t) in self.records.items() if t <= now]:
            del self.records[uid]

    def seen(self, uid, now):
        rec = self.records.get(uid)
        return rec is not None and rec[1] > now

    def remember(self, uid, previous, now):
        self.records[uid] = (previous, now + self.timeout)

    def lookup(self, uid, now):
        rec = self.records.get(uid)
        return None if rec is None or rec[1] <= now else rec[0]

    def forget(self, uid):
        self.records.pop(uid, None)


class TestTripModel:
    def test_first_sample_seeds_mean(self):
        m = TripModel(eta=0.2, window=5, conf_gamma=0.75)
        m.observe(2.0)
        assert m.mu == 2.0 and m.var == 0.0
        assert m.w_best == 2.0

    def test_adaptive_mean(self):
        m = TripModel(eta=0.5, window=5, conf_gamma=0.75)
        m.observe(2.0)
        m.observe(4.0)
        assert m.mu == pytest.approx(3.0)
        assert m.var == pytest.approx(2.0)  # 0.5 * (4-2)^2

    def test_window_bounds_best(self):
        m = TripModel(eta=0.2, window=2, conf_gamma=0.75)
        for t in (1.0, 5.0, 6.0):
            m.observe(t)
        assert m.w_best == 5.0  # the 1.0 sample rolled out

    def test_confidence_bounds(self):
        m = TripModel(eta=0.2, window=4, conf_gamma=0.75)
        for t in (2.0, 3.0, 4.0):
            m.observe(t)
        lo, hi = m.confidence_bounds()
        assert lo == 2.0
        assert hi >= m.mu
        expected = m.mu + (1 / math.sqrt(0.25)) * math.sqrt(m.var) / math.sqrt(3)
        assert hi == pytest.approx(expected)

    def test_empty_model_raises(self):
        m = TripModel(eta=0.2, window=4, conf_gamma=0.75)
        with pytest.raises(RoutingError):
            m.w_best
        with pytest.raises(RoutingError):
            m.confidence_bounds()

    def test_parameter_validation(self):
        with pytest.raises(RoutingError):
            TripModel(eta=1.0, window=4, conf_gamma=0.75)
        with pytest.raises(RoutingError):
            TripModel(eta=0.2, window=0, conf_gamma=0.75)
        with pytest.raises(RoutingError):
            TripModel(eta=0.2, window=4, conf_gamma=1.0)

    def test_negative_trip_rejected(self):
        m = TripModel(eta=0.2, window=4, conf_gamma=0.75)
        with pytest.raises(RoutingError):
            m.observe(-1.0)
