"""Configuration defaults, validation rules, and the key = value format."""

import dataclasses
import math
import re
import sys

import pytest

from antwsn.config import (SC_BETA_MAX, ConfigError, SimConfig,
                           config_from_mapping, load_config, parse_kv_text)
from antwsn.simulation import run_single


class TestDefaults:
    def test_reference_setup(self):
        cfg = SimConfig()
        assert cfg.protocol == "ieeabr"
        assert cfg.nodes == 49
        assert cfg.layout == "random-square"
        assert cfg.scenario == "static"
        assert cfg.duration == 100.0
        assert cfg.traffic_rate == 0.5
        assert cfg.ant_interval == 2.0
        assert cfg.cache_timeout == 3.0
        assert cfg.bitrate == 40_000.0

    def test_frame_sizes_in_bits(self):
        cfg = SimConfig()
        assert cfg.ant_bits == 160
        assert cfg.data_bits == 400

    def test_energy_budget_tracks_scenario(self):
        assert SimConfig(scenario="static").energy_budget == 30.0
        assert SimConfig(scenario="dynamic").energy_budget == 60.0
        assert SimConfig(initial_energy=7.5).energy_budget == 7.5
        assert SimConfig(scenario="dynamic", initial_energy=7.5).energy_budget == 7.5

    def test_protocol_name_is_case_insensitive(self):
        assert SimConfig(protocol="IEEABR").protocol == "ieeabr"

    @pytest.mark.parametrize("key, given, stored", [
        ("scenario", "STATIC", "static"),
        ("scenario", "Dynamic", "dynamic"),
        ("layout", "Grid", "grid"),
        ("layout", "RANDOM-Square", "random-square"),
    ])
    def test_layout_and_scenario_names_are_case_insensitive(self, key, given, stored):
        assert getattr(SimConfig(**{key: given}, nodes=9), key) == stored

    def test_replace_returns_validated_copy(self):
        cfg = SimConfig()
        other = dataclasses.replace(cfg, nodes=16, layout="grid")
        assert other.nodes == 16
        assert cfg.nodes == 49
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, nodes=15, layout="grid")


class TestValidation:
    @pytest.mark.parametrize("bad", [
        dict(protocol="dsr"),
        dict(layout="ring"),
        dict(scenario="hybrid"),
        dict(nodes=1),
        dict(nodes=12, layout="grid"),     # not a perfect square
        dict(duration=0.0),
        dict(traffic_rate=0.0),
        dict(traffic_rate=-1.0),
        dict(initial_energy=0.0),
        dict(gamma=1.5),
        dict(gamma=4.5),
        dict(sigma_alpha=-0.1),
        dict(sigma_beta=-1e-6),
        dict(c1=0.7, c2=0.2),              # weights must sum to one
        dict(eta=0.0),
        dict(eta=1.0),
        dict(rho=0.0),
        dict(rho=1.0),
        dict(phi=0.0),
        dict(tau0=0.0),
        dict(tau0=-0.5),
        dict(ant_cap_multiplier=0),
        dict(conf_gamma=0.0),
        dict(conf_gamma=1.0),
        dict(ant_interval=0.0),
        dict(cache_timeout=0.0),
        dict(trip_window=0),
        dict(sc_beta=700.5),
        dict(sc_beta=-701.0),
        dict(sc_beta=1e6),
    ])
    def test_rejected(self, bad):
        with pytest.raises(ConfigError):
            SimConfig(**bad)

    @pytest.mark.parametrize("ok", [
        dict(gamma=2.0),
        dict(gamma=4.0),
        dict(nodes=2),
        dict(nodes=16, layout="grid"),
        dict(sigma_alpha=0.0, sigma_beta=0.0),
        dict(c1=0.0, c2=1.0),
        dict(tau0=0.02),
        dict(trip_window=1),
        dict(sc_beta=SC_BETA_MAX),
        dict(sc_beta=-SC_BETA_MAX),
        dict(cw_init=1, max_retries=0, ff_delay_max=0.0, ant_frame_bytes=1,
             data_frame_bytes=1, max_topology_retries=1, e_tx_per_bit=0.0),
    ])
    def test_boundaries_accepted(self, ok):
        SimConfig(**ok)

    @pytest.mark.parametrize("bad, message", [
        (dict(nodes=9.0, layout="grid"), "nodes must be an integer, got 9.0"),
        (dict(duration="5"), "duration must be a number, got '5'"),
        (dict(traffic_rate=None), "traffic_rate must be a number, got None"),
        (dict(protocol=5), "protocol must be a string, got 5"),
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(protocol="babr", trip_window=2.5), "trip_window must be an integer"),
        (dict(cw_init=1.5), "cw_init must be an integer"),
        (dict(cw_init=True), "cw_init must be an integer, got True"),
        (dict(sigma_alpha=True), "sigma_alpha must be a number, got True"),
        (dict(ant_cap_multiplier=1.5), "ant_cap_multiplier must be an integer"),
        (dict(layout=None), "layout must be a string"),
        (dict(initial_energy="7"), "initial_energy must be a number"),
    ])
    def test_wrongly_typed_value_rejected(self, bad, message):
        # Files and flags convert strings; a Python caller can pass anything.
        with pytest.raises(ConfigError, match=message):
            SimConfig(**bad)

    def test_values_are_kept_as_given(self):
        # An int in a float field is checked, not converted: converting it
        # would change its repr.
        cfg = SimConfig(duration=5, sink_update_period=2, tau0=1, rx_threshold=None)
        assert repr(cfg.duration) == "5" and repr(cfg.sink_update_period) == "2"
        assert cfg.tau0 == 1 and type(cfg.tau0) is int and cfg.rx_threshold is None

    def test_sc_beta_bound_keeps_the_initial_softmax_finite(self):
        # The cheapest neighbor's exponent is sc_beta itself; at the bound
        # every start-up column is still finite and normalized.
        assert SC_BETA_MAX < math.log(sys.float_info.max)
        for sc_beta in (SC_BETA_MAX, -SC_BETA_MAX):
            result = run_single(SimConfig(protocol="sc", nodes=9, duration=1.0,
                                          sc_beta=sc_beta))
            assert result.generated > 0
        with pytest.raises(ConfigError, match="sc_beta"):
            SimConfig(protocol="sc", nodes=9, sc_beta=710.0)


# (key, side, bound): every single-knob bound, written out here rather than
# read from the fields, so that a bound dropped from or mistyped on its field
# fails. An int bound marks an int knob.
BOUNDS = [
    ("nodes", ">=", 2),
    ("duration", ">", 0.0),
    ("initial_energy", ">", 0.0),
    ("traffic_rate", ">", 0.0),
    ("grid_spacing", ">", 0.0),
    ("max_topology_retries", ">=", 1),
    ("sink_radius_frac", ">=", 0.0),
    ("sink_update_period", ">", 0.0),
    ("p_transmit", ">", 0.0),
    ("gamma", ">=", 2.0),
    ("gamma", "<=", 4.0),
    ("sigma_alpha", ">=", 0.0),
    ("sigma_beta", ">=", 0.0),
    ("tx_radius", ">", 0.0),
    ("rx_threshold", ">", 0.0),
    ("bitrate", ">", 0.0),
    ("cw_init", ">=", 1),
    ("max_retries", ">=", 0),
    ("ant_frame_bytes", ">=", 1),
    ("data_frame_bytes", ">=", 1),
    ("e_tx_per_bit", ">=", 0.0),
    ("e_rx_per_bit", ">=", 0.0),
    ("e_idle_per_s", ">=", 0.0),
    ("ant_interval", ">", 0.0),
    ("cache_timeout", ">", 0.0),
    ("ant_cap_multiplier", ">=", 1),
    ("ff_delay_max", ">=", 0.0),
    ("eta", ">", 0.0),
    ("eta", "<", 1.0),
    ("trip_window", ">=", 1),
    ("conf_gamma", ">", 0.0),
    ("conf_gamma", "<", 1.0),
    ("alpha", ">=", 0.0),
    ("beta", ">=", 0.0),
    ("rho", ">", 0.0),
    ("rho", "<", 1.0),
    ("phi", ">", 0.0),
    ("dtau_max", ">=", 0.0),
    ("tau0", ">", 0.0),
    ("sc_beta", ">=", -700.0),
    ("sc_beta", "<=", 700.0),
]


class TestBounds:
    @pytest.mark.parametrize("key, side, bound", BOUNDS)
    def test_boundary_value_follows_the_side(self, key, side, bound):
        if side in (">=", "<="):
            assert getattr(SimConfig(**{key: bound}), key) == bound
        else:
            with pytest.raises(ConfigError, match=re.escape(
                    f"{key} must be {side} {bound:g}, got {bound!r}")):
                SimConfig(**{key: bound})

    @pytest.mark.parametrize("key, side, bound", BOUNDS)
    def test_value_past_the_bound_is_rejected_with_key_and_value(self, key, side, bound):
        outward = -1 if side in (">", ">=") else 1
        past = bound + outward if isinstance(bound, int) else math.nextafter(bound, outward * math.inf)
        with pytest.raises(ConfigError, match=re.escape(
                f"{key} must be {side} {bound:g}, got {past!r}")):
            SimConfig(**{key: past})


class TestKvFormat:
    def test_parse_with_comments_and_blanks(self):
        text = """
        # reference run
        protocol = babr
        nodes = 49   # a 7x7-ish field
        traffic_rate = 0.25
        """
        assert parse_kv_text(text) == {
            "protocol": "babr", "nodes": "49", "traffic_rate": "0.25"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_kv_text("protocol babr")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_kv_text("protocol =")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_kv_text("nodes = 9\nnodes = 16")

    def test_mapping_types_are_converted(self):
        cfg = config_from_mapping({
            "protocol": "eeabr", "nodes": "25", "traffic_rate": "0.1",
            "tau0": "0.05"})
        assert cfg.nodes == 25
        assert cfg.traffic_rate == 0.1
        assert cfg.tau0 == 0.05

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_mapping({"nodess": "49"})

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError, match="expects an integer"):
            config_from_mapping({"nodes": "many"})

    def test_bad_float_rejected(self):
        with pytest.raises(ConfigError, match="expects a number"):
            config_from_mapping({"traffic_rate": "fast"})

    def test_non_string_values_pass_through(self):
        cfg = config_from_mapping({"nodes": 25, "traffic_rate": 0.1})
        assert cfg.nodes == 25

    def test_load_config_round_trip(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_text("protocol = fp\nnodes = 9\nlayout = grid\nseed = 3\n")
        cfg = load_config(str(p))
        assert (cfg.protocol, cfg.nodes, cfg.layout, cfg.seed) == ("fp", 9, "grid", 3)

    def test_names_in_a_config_file_are_case_insensitive(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_text("protocol = FP\nnodes = 9\nlayout = Grid\nscenario = DYNAMIC\n")
        cfg = load_config(str(p))
        assert (cfg.protocol, cfg.layout, cfg.scenario) == ("fp", "grid", "dynamic")
