"""Run configuration: every knob of a single simulation, plus the flat
key = value file format that surfaces all of them.

Unknown keys are rejected so a typo can never silently fall back to a default.
"""

import math
import numbers
from dataclasses import dataclass, fields

PROTOCOL_NAMES = ("babr", "sc", "ff", "fp", "eeabr", "ieeabr")
LAYOUTS = ("grid", "random-square")
SCENARIOS = ("static", "dynamic")

# sc's initial softmax takes exp((C - Q_n) * sc_beta). Every neighbor lies
# within one radius of the node, so each exponent lies in
# [-|sc_beta|, |sc_beta|], and the cheapest neighbor's is sc_beta itself.
# Keeping |sc_beta| at or below 700, safely under ln(DBL_MAX) ~ 709.78, keeps
# every weight finite and nonzero.
SC_BETA_MAX = 700.0

# eeabr and ieeabr score a neighbor tau^alpha * visibility^beta. Visibility
# is 1/max(C - e, VISIBILITY_FLOOR * C) for a budget C, so it never exceeds
# V = 1/(VISIBILITY_FLOOR * C), and no trail entry exceeds the T of
# `SimConfig.trail_log_bound`. Keeping alpha ln T + beta ln V at or below
# PHEROMONE_EXPONENT_MAX, under ln(DBL_MAX) like SC_BETA_MAX, keeps every
# weight finite. Negative exponents are refused: alpha < 0 divides by zero at
# the zero entry ieeabr writes for a dead neighbor, and beta < 0 overflows on
# a large budget.
VISIBILITY_FLOOR = 1e-3   # fraction of the budget the 1/(C - e) denominator keeps
PHEROMONE_EXPONENT_MAX = 700.0


class ConfigError(Exception):
    pass


_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
          str: (str, "a string")}


def check_type(name: str, value, kind: type, optional: bool = False):
    """Raise ConfigError unless `value` is of `kind`: an int is any Integral,
    a float any Real, a bool neither; None passes when `optional`. The value
    is kept as given, so an int duration stays an int."""
    if value is None and optional:
        return
    cls, noun = _KINDS[kind]
    if not isinstance(value, cls) or isinstance(value, bool):
        raise ConfigError(f"{name} must be {noun}, got {value!r}")


@dataclass
class SimConfig:
    # scenario
    protocol: str = "ieeabr"
    nodes: int = 49
    layout: str = "random-square"
    scenario: str = "static"
    duration: float = 100.0
    seed: int = 1
    initial_energy: float | None = None   # None: 30 J static, 60 J dynamic
    traffic_rate: float = 0.5              # data events per second per source
    data_ttl_factor: float = 4.0            # data packet hop budget = factor * nodes
    grid_spacing: float = 20.0
    max_topology_retries: int = 1000
    # sink mobility (dynamic scenario)
    sink_radius_frac: float = 0.25
    sink_update_period: float = 1.0
    # radio
    p_transmit: float = 1.0
    gamma: float = 2.0
    sigma_alpha: float = 0.05
    sigma_beta: float = 2e-4
    tx_radius: float = 35.0
    rx_threshold: float | None = None       # None: derived from tx_radius
    # MAC / link
    bitrate: float = 40_000.0               # bit/s
    cw_init: int = 32                       # first backoff window, in frame airtimes
    max_retries: int = 5
    ant_frame_bytes: int = 20
    data_frame_bytes: int = 50
    # energy model
    e_tx_per_bit: float = 1e-6              # J/bit
    e_rx_per_bit: float = 5e-7              # J/bit
    e_idle_per_s: float = 0.0               # J/s
    # ant machinery
    ant_interval: float = 2.0
    cache_timeout: float = 3.0
    ant_cap_multiplier: int = 5
    ff_delay_max: float = 0.05
    # trip-time model (BABR family)
    eta: float = 0.2
    trip_window: int = 10
    conf_gamma: float = 0.75
    c1: float = 0.7
    c2: float = 0.3
    # pheromone family
    alpha: float = 1.0
    beta: float = 1.0
    rho: float = 0.1
    phi: float = 1.0
    dtau_max: float = 1.0
    tau0: float | None = None  # fresh pheromone per entry; None: 1/n
    # SC
    sc_beta: float = 1.0

    def __post_init__(self):
        for name, kind, optional in _FIELD_KINDS:
            check_type(name, getattr(self, name), kind, optional)
        self.protocol = self.protocol.lower()
        self.validate()

    def validate(self):
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            # nan passes every range check below, since each comparison is false.
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.protocol not in PROTOCOL_NAMES:
            raise ConfigError(f"unknown protocol {self.protocol!r}, expected one of {PROTOCOL_NAMES}")
        if self.layout not in LAYOUTS:
            raise ConfigError(f"unknown layout {self.layout!r}")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.nodes < 2:
            raise ConfigError("nodes must be >= 2")
        if self.layout == "grid" and math.isqrt(self.nodes) ** 2 != self.nodes:
            raise ConfigError(f"grid layout needs a perfect-square node count, got {self.nodes}")
        if self.duration <= 0:
            raise ConfigError("duration must be > 0")
        if self.traffic_rate <= 0:
            raise ConfigError("traffic_rate must be > 0")
        if self.initial_energy is not None and self.initial_energy <= 0:
            raise ConfigError("initial_energy must be > 0")
        if int(self.data_ttl_factor * self.nodes) < 1:
            raise ConfigError("data_ttl_factor * nodes must give a hop budget >= 1")
        if self.grid_spacing <= 0:
            raise ConfigError("grid_spacing must be > 0")
        if self.sink_radius_frac < 0:
            raise ConfigError("sink_radius_frac must be >= 0")
        if self.max_topology_retries < 1:
            raise ConfigError("max_topology_retries must be >= 1")
        if self.sink_update_period <= 0:
            raise ConfigError("sink_update_period must be > 0")
        if self.p_transmit <= 0:
            raise ConfigError("p_transmit must be > 0")
        if not (2.0 <= self.gamma <= 4.0):
            raise ConfigError("gamma must lie in [2, 4]")
        if self.sigma_alpha < 0 or self.sigma_beta < 0:
            raise ConfigError("disturbance sigmas must be >= 0")
        if self.tx_radius <= 0:
            raise ConfigError("tx_radius must be > 0")
        if self.rx_threshold is not None and self.rx_threshold <= 0:
            raise ConfigError("rx_threshold must be > 0")
        if self.bitrate <= 0:
            raise ConfigError("bitrate must be > 0")
        if self.cw_init < 1 or self.max_retries < 0:
            raise ConfigError("cw_init must be >= 1 and max_retries >= 0")
        if self.ant_frame_bytes < 1 or self.data_frame_bytes < 1:
            raise ConfigError("ant_frame_bytes and data_frame_bytes must be >= 1")
        if min(self.e_tx_per_bit, self.e_rx_per_bit, self.e_idle_per_s) < 0:
            raise ConfigError("energy rates must be >= 0")
        if self.ff_delay_max < 0:
            raise ConfigError("ff_delay_max must be >= 0")
        if abs(self.c1 + self.c2 - 1.0) > 1e-9:
            raise ConfigError("reinforcement weights c1 + c2 must equal 1")
        if not (0 < self.eta < 1):
            raise ConfigError("eta must lie in (0, 1)")
        if not (0 < self.rho < 1):
            raise ConfigError("rho must lie in (0, 1)")
        if self.phi <= 0:
            raise ConfigError("phi must be > 0")
        if self.dtau_max < 0:
            raise ConfigError("dtau_max must be >= 0")
        if self.tau0 is not None and self.tau0 <= 0:
            raise ConfigError("tau0 must be > 0")
        if self.ant_cap_multiplier < 1:
            raise ConfigError("ant_cap_multiplier must be >= 1")
        if not (0 < self.conf_gamma < 1):
            raise ConfigError("conf_gamma must lie in (0, 1)")
        if self.ant_interval <= 0 or self.cache_timeout <= 0:
            raise ConfigError("ant_interval and cache_timeout must be > 0")
        if self.trip_window < 1:
            raise ConfigError("trip_window must be >= 1")
        if abs(self.sc_beta) > SC_BETA_MAX:
            raise ConfigError(f"sc_beta must lie in [-{SC_BETA_MAX:g}, {SC_BETA_MAX:g}], "
                              f"got {self.sc_beta!r}")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("alpha and beta must be >= 0")
        visibility_log = -math.log(VISIBILITY_FLOOR * self.energy_budget)
        exponent = (self.alpha * max(0.0, self.trail_log_bound())
                    + self.beta * max(0.0, visibility_log))
        if exponent > PHEROMONE_EXPONENT_MAX:
            raise ConfigError(f"alpha ln(max trail) + beta ln(max visibility) must be "
                              f"<= {PHEROMONE_EXPONENT_MAX:g}, got {exponent:.4g}")

    def trail_log_bound(self) -> float:
        """ln T for a bound T on any pheromone trail entry, in log space so
        that a tiny phi * rho cannot underflow.

        A node has k <= n - 1 neighbors. Its column starts at total mass
        M <= f k, with f the fresh entry (tau0, or 1/n): uniform, or primed
        by ieeabr to that total. A deposit sets tau to
        (1 - rho) tau + dtau / (phi bd) <= (1 - rho) tau + rho D, with
        D = dtau_max / (phi rho), so it never lifts max(tau, D).
        P = sum(max(tau, D)) is thus never raised by a deposit. ieeabr's
        redistribution keeps M and zeroes a dead neighbor's entry, which no
        deposit refills, so a column is redistributed at most k - 1 times
        before it is primed afresh; each raises P by at most k D, since
        P <= M + k D. Any entry is at most M <= P <= f k + k^2 D
        <= (1 + (n - 1)^2) max(f n, D) <= n^2 max(f n, D) = T.
        """
        fresh_log = math.log(self.tau0) + math.log(self.nodes) if self.tau0 is not None else 0.0
        deposit_log = (math.log(self.dtau_max) - math.log(self.phi) - math.log(self.rho)
                       if self.dtau_max > 0 else -math.inf)
        return 2 * math.log(self.nodes) + max(fresh_log, deposit_log)

    @property
    def energy_budget(self) -> float:
        if self.initial_energy is not None:
            return self.initial_energy
        return 60.0 if self.scenario == "dynamic" else 30.0

    @property
    def ant_bits(self) -> int:
        return self.ant_frame_bytes * 8

    @property
    def data_bits(self) -> int:
        return self.data_frame_bytes * 8


_FIELD_NAMES = {f.name for f in fields(SimConfig)}
_INT_FIELDS = {f.name for f in fields(SimConfig) if f.type is int}
_FLOAT_FIELDS = tuple(f.name for f in fields(SimConfig) if f.type in (float, float | None))
# (name, kind, None allowed) per field; every field is an int, a float, an
# optional float or a str.
_FIELD_KINDS = tuple((f.name, float if f.name in _FLOAT_FIELDS else f.type,
                      f.type == float | None) for f in fields(SimConfig))


def _convert(key: str, raw: str):
    if key in _INT_FIELDS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"key {key!r} expects an integer, got {raw!r}") from None
    if key in _FLOAT_FIELDS:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"key {key!r} expects a number, got {raw!r}") from None
    return raw


def parse_kv_text(text: str) -> dict:
    """Parse `key = value` lines; '#' starts a comment, blank lines are ignored."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def config_from_mapping(mapping: dict) -> SimConfig:
    values = {}
    for key, raw in mapping.items():
        if key not in _FIELD_NAMES:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _convert(key, raw) if isinstance(raw, str) else raw
    return SimConfig(**values)


def read_text(path) -> str:
    """A config or plan file's UTF-8 text, or a ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def load_config(path: str) -> SimConfig:
    return config_from_mapping(parse_kv_text(read_text(path)))
