"""Traced mode: spans around the public entry points of each simulator layer.

`Spans.installed()` patches, for the duration of a `with` block, the entry
points listed in `_entry_points` at class or module level. Each patched call
becomes a span: its wall time, minus the time of the spans it encloses, is
that layer's self time. Spans are aggregated as they close (per layer self
time, per name inclusive time and call count), so a traced run keeps no
per-call records.

Self time is split by phase: "setup" while a `Simulation` is being built,
"run" inside `Simulation.run`, and "harness" otherwise (plan execution and
export). Layer self times are reported for the run phase; set-up is
reported as the inclusive time of its steps.
"""

from collections import Counter
from contextlib import ExitStack, contextmanager
from time import perf_counter

import antwsn.harness
import antwsn.simulation
from antwsn import (AntCache, EnergyLedger, Medium, RandomStream, ResultTable,
                    RoutingTable, Simulation, Simulator, TripModel)
from antwsn.kernel import MAC_RETRY, TX_START
from antwsn.protocols import PROTOCOLS, PathReinforceProtocol, Protocol

PROTOCOL_HOOKS = ("start", "launch_ant", "on_sink_changed", "on_timer",
                  "on_frame_lost", "on_frame_received", "on_data_generated")
RNG_DRAWS = ("uniform", "normal", "normals", "uniforms", "randint", "exponential")
RUN_LAYERS = ("kernel", "radio", "energy", "routing", "protocols")


class Spans:
    def __init__(self):
        self.self_s = Counter()     # (phase, layer) -> seconds
        self.total_s = Counter()    # span name -> inclusive seconds
        self.calls = Counter()      # span or counter name -> count
        self.phase = "harness"
        self.horizon = 0.0
        self._child = [0.0]         # child-time accumulator per open span

    def wrap(self, layer: str, fn, name: str):
        spans = self
        stack = self._child

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack[-2] += dt
                spans.self_s[spans.phase, layer] += dt - stack.pop()
                spans.total_s[name] += dt
                spans.calls[name] += 1
        return span

    def in_phase(self, phase: str, fn):
        spans = self

        def phased(sim, *args, **kwargs):
            outer = spans.phase
            spans.phase = phase
            if phase == "run":
                spans.horizon = sim.cfg.duration
            try:
                return fn(sim, *args, **kwargs)
            finally:
                spans.phase = outer
        return phased

    @contextmanager
    def installed(self):
        with ExitStack() as stack:
            for owner, attr, wrapper in self._entry_points():
                original = owner.__dict__[attr]
                setattr(owner, attr, wrapper(original))
                stack.callback(setattr, owner, attr, original)
            yield self

    def _entry_points(self):
        """(owner, attribute, wrapper factory) for every traced entry point."""
        wrap = self.wrap
        points = [
            (Simulation, "__init__",
             lambda f: self.in_phase("setup", wrap("harness", f, "simulation.init"))),
            (Simulation, "run",
             lambda f: self.in_phase("run", wrap("harness", f, "simulation.run"))),
            (Simulator, "run_until", lambda f: wrap("kernel", f, "kernel.run_until")),
            (Simulator, "schedule",
             lambda f: wrap("kernel", self._count_kinds(f), "kernel.schedule")),
            (Simulator, "cancel", self._count_cancel),
            (Simulator, "on", self._wrap_handler),
            (EnergyLedger, "charge", lambda f: wrap("energy", f, "energy.charge_calls")),
            (Medium, "settle_idle", lambda f: wrap("energy", f, "energy.settle_calls")),
            (Medium, "send", lambda f: wrap("radio", f, "radio.send")),
            (Medium, "__init__", lambda f: wrap("radio", f, "radio.setup")),
            (RoutingTable, "sample", lambda f: wrap("routing", f, "routing.table_samples")),
            (RoutingTable, "get", lambda f: wrap("routing", f, "routing.table_get")),
            (RoutingTable, "set", lambda f: wrap("routing", f, "routing.table_set")),
            (AntCache, "expire",
             lambda f: wrap("routing", self._count_scanned(f), "routing.cache_expire_calls")),
            (AntCache, "seen", lambda f: wrap("routing", f, "routing.cache_seen")),
            (AntCache, "remember", lambda f: wrap("routing", f, "routing.cache_remember")),
            (AntCache, "lookup", lambda f: wrap("routing", f, "routing.cache_lookup")),
            (TripModel, "observe", lambda f: wrap("routing", f, "routing.trip_observe")),
            (antwsn.simulation, "make_random_square",
             lambda f: wrap("scenario", f, "scenario.topology")),
            (antwsn.simulation, "make_grid",
             lambda f: wrap("scenario", f, "scenario.topology")),
            (antwsn.simulation, "traffic_schedule",
             lambda f: wrap("scenario", f, "scenario.traffic")),
            (antwsn.simulation, "make_protocol",
             lambda f: wrap("protocols", f, "protocols.setup")),
            (antwsn.harness, "run_experiment",
             lambda f: wrap("harness", f, "harness.run_experiment")),
            (ResultTable, "write", lambda f: wrap("harness", f, "harness.export")),
        ]
        points += [(RandomStream, draw, lambda f: wrap("kernel", f, "kernel.rng_draws"))
                   for draw in RNG_DRAWS]
        for cls in (Protocol, PathReinforceProtocol, *PROTOCOLS.values()):
            points += [(cls, hook, lambda f, h=hook: wrap("protocols", f, f"protocols.{h}"))
                       for hook in PROTOCOL_HOOKS if hook in cls.__dict__]
        return points

    # -- counting wrappers (run inside the enclosing span) -------------------

    def _count_kinds(self, schedule):
        calls = self.calls

        def counted(sim, time, kind, payload=None):
            calls[f"schedule.{kind}"] += 1
            return schedule(sim, time, kind, payload)
        return counted

    def _count_cancel(self, cancel):
        spans = self

        def counted(sim, event):
            # A cancelled event inside the horizon is still popped, unused.
            if event.time <= spans.horizon:
                spans.calls["kernel.cancelled"] += 1
            return cancel(sim, event)
        return counted

    def _count_scanned(self, expire):
        calls = self.calls

        def counted(cache, now):
            calls["routing.cache_records_scanned"] += len(cache)
            return expire(cache, now)
        return counted

    def _wrap_handler(self, on):
        spans = self

        def registering(sim, kind, handler):
            if isinstance(getattr(handler, "__self__", None), Medium):
                handler = spans.wrap("radio", handler, f"radio.{kind}")
            return on(sim, kind, handler)
        return registering


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Spans, records: list) -> dict:
    """Per-layer metrics of one traced round: span aggregates plus the
    simulator's own counters and the probes' counts from `records`."""
    calls, total = spans.calls, spans.total_s
    counters = Counter()
    for rec in records:
        counters.update(rec.counters)
    events = sum(rec.events for rec in records)
    aired = sum(rec.frames_aired for rec in records)
    receptions = sum(rec.receptions for rec in records)
    retries = calls[f"schedule.{MAC_RETRY}"]
    attempts = calls[f"schedule.{TX_START}"] + retries + counters["mac_drop_busy"]
    launched = counters["fwd_ants_launched"]
    completed = counters["bwd_ants_completed"]
    m = {f"{layer}.self_s": (spans.self_s["run", layer], "s") for layer in RUN_LAYERS}
    m.update({
        "kernel.events": (events, "count"),
        "kernel.cancelled": (calls["kernel.cancelled"], "count"),
        "kernel.useful_ratio": (_ratio(events, events + calls["kernel.cancelled"]), "ratio"),
        "kernel.rng_draws": (calls["kernel.rng_draws"], "count"),
        "radio.frames_aired": (aired, "count"),
        "radio.receptions": (receptions, "count"),
        "radio.receptions_per_frame": (_ratio(receptions, aired), "ratio"),
        "radio.collisions": (counters["collisions"], "count"),
        "radio.mac_retries": (retries, "count"),
        "radio.aired_per_attempt": (_ratio(aired, attempts), "ratio"),
        "energy.charge_calls": (calls["energy.charge_calls"], "count"),
        "energy.settle_calls": (calls["energy.settle_calls"], "count"),
        "routing.table_samples": (calls["routing.table_samples"], "count"),
        "routing.cache_expire_calls": (calls["routing.cache_expire_calls"], "count"),
        "routing.cache_records_scanned": (calls["routing.cache_records_scanned"], "count"),
        "protocols.frames_handled": (calls["protocols.on_frame_received"], "count"),
        "ant.launched": (launched, "count"),
        "ant.deferred": (counters["fwd_ants_deferred"], "count"),
        "ant.completed": (completed, "count"),
        "ant.completion_ratio": (_ratio(completed, launched), "ratio"),
        "scenario.topology_s": (total["scenario.topology"], "s"),
        "scenario.traffic_s": (total["scenario.traffic"], "s"),
        "radio.setup_s": (total["radio.setup"], "s"),
        "protocols.setup_s": (total["protocols.setup"], "s"),
        "harness.self_s": (sum(v for (_, layer), v in spans.self_s.items()
                               if layer == "harness"), "s"),
        "harness.export_s": (total["harness.export"], "s"),
    })
    return m
