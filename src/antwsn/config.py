"""Run configuration: every knob of a single simulation, plus the flat
key = value file format that surfaces all of them.

Each knob declares its type, default and accepted range once, on its
`SimConfig` field, and `SimConfig.__post_init__` checks every field in one
loop: its type, that a float is finite, that a name is one of its choices, and
its bounds. A value out of range fails with a message that names the key, the
bound and the given value, such as `gamma must be <= 4, got 4.5`. `validate`
keeps the checks that involve more than one knob. Names (`protocol`, `layout`,
`scenario`) are case-insensitive in configs, flags and plans alike, and are
stored lower-cased.

Unknown keys are rejected so a typo can never silently fall back to a default.
"""

import math
import numbers
import operator
from dataclasses import dataclass, field, fields

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


_BOUND_TESTS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def knob(default, *, gt=None, ge=None, lt=None, le=None, choices=()):
    """A `SimConfig` field with its default and its accepted values: bounds,
    each open (gt, lt) or closed (ge, le), or the names a str knob may take."""
    bounds = tuple((sign, bound) for sign, bound in ((">", gt), (">=", ge), ("<", lt), ("<=", le))
                   if bound is not None)
    return field(default=default, metadata={"bounds": bounds, "choices": choices})


@dataclass
class SimConfig:
    # scenario
    protocol: str = knob("ieeabr", choices=PROTOCOL_NAMES)
    nodes: int = knob(49, ge=2)
    layout: str = knob("random-square", choices=LAYOUTS)
    scenario: str = knob("static", choices=SCENARIOS)
    duration: float = knob(100.0, gt=0)
    seed: int = 1
    initial_energy: float | None = knob(None, gt=0)   # None: 30 J static, 60 J dynamic
    traffic_rate: float = knob(0.5, gt=0)             # data events per second per source
    data_ttl_factor: float = 4.0            # data packet hop budget = factor * nodes
    grid_spacing: float = knob(20.0, gt=0)
    max_topology_retries: int = knob(1000, ge=1)
    # sink mobility (dynamic scenario)
    sink_radius_frac: float = knob(0.25, ge=0)
    sink_update_period: float = knob(1.0, gt=0)
    # radio
    p_transmit: float = knob(1.0, gt=0)
    gamma: float = knob(2.0, ge=2, le=4)
    sigma_alpha: float = knob(0.05, ge=0)
    sigma_beta: float = knob(2e-4, ge=0)
    tx_radius: float = knob(35.0, gt=0)
    rx_threshold: float | None = knob(None, gt=0)   # None: derived from tx_radius
    # MAC / link
    bitrate: float = knob(40_000.0, gt=0)           # bit/s
    cw_init: int = knob(32, ge=1)                   # first backoff window, in frame airtimes
    max_retries: int = knob(5, ge=0)
    ant_frame_bytes: int = knob(20, ge=1)
    data_frame_bytes: int = knob(50, ge=1)
    # energy model
    e_tx_per_bit: float = knob(1e-6, ge=0)          # J/bit
    e_rx_per_bit: float = knob(5e-7, ge=0)          # J/bit
    e_idle_per_s: float = knob(0.0, ge=0)           # J/s
    # ant machinery
    ant_interval: float = knob(2.0, gt=0)
    cache_timeout: float = knob(3.0, gt=0)
    ant_cap_multiplier: int = knob(5, ge=1)
    ff_delay_max: float = knob(0.05, ge=0)
    # trip-time model (BABR family)
    eta: float = knob(0.2, gt=0, lt=1)
    trip_window: int = knob(10, ge=1)
    conf_gamma: float = knob(0.75, gt=0, lt=1)
    c1: float = 0.7
    c2: float = 0.3
    # pheromone family
    alpha: float = knob(1.0, ge=0)
    beta: float = knob(1.0, ge=0)
    rho: float = knob(0.1, gt=0, lt=1)
    phi: float = knob(1.0, gt=0)
    dtau_max: float = knob(1.0, ge=0)
    tau0: float | None = knob(None, gt=0)  # fresh pheromone per entry; None: 1/n
    # SC
    sc_beta: float = knob(1.0, ge=-SC_BETA_MAX, le=SC_BETA_MAX)

    def __post_init__(self):
        for name, (kind, optional, bounds, choices) in _FIELDS.items():
            value = getattr(self, name)
            check_type(name, value, kind, optional)
            if value is None:
                continue
            # nan passes every bound, since each comparison is false.
            if kind is float and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
            if choices:
                if value.lower() not in choices:
                    raise ConfigError(f"{name} must be one of {choices}, got {value!r}")
                setattr(self, name, value.lower())
            for sign, bound in bounds:
                if not _BOUND_TESTS[sign](value, bound):
                    raise ConfigError(f"{name} must be {sign} {bound:g}, got {value!r}")
        self.validate()

    def validate(self):
        """The checks that involve more than one knob; `__post_init__` has
        checked each knob on its own."""
        if self.layout == "grid" and math.isqrt(self.nodes) ** 2 != self.nodes:
            raise ConfigError(f"grid layout needs a perfect-square node count, got {self.nodes}")
        if int(self.data_ttl_factor * self.nodes) < 1:
            raise ConfigError("data_ttl_factor * nodes must give a hop budget >= 1")
        if abs(self.c1 + self.c2 - 1.0) > 1e-9:
            raise ConfigError("reinforcement weights c1 + c2 must equal 1")
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


# name -> (kind, None allowed, bounds, choices) for every field, in order.
# Every field is an int, a float, an optional float or a str.
_FIELDS = {f.name: (float if f.type == float | None else f.type, f.type == float | None,
                    f.metadata.get("bounds", ()), f.metadata.get("choices", ()))
           for f in fields(SimConfig)}


def _convert(key: str, raw: str):
    kind = _FIELDS[key][0] if key in _FIELDS else str
    if kind is str:
        return raw
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"key {key!r} expects {_KINDS[kind][1]}, got {raw!r}") from None


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
        if key not in _FIELDS:
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
