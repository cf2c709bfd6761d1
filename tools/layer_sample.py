"""Sampling layer profile: each simulator layer's share of one cell's CPU time.

    PYTHONPATH=src python tools/layer_sample.py [key=value ...]

Each `key=value` sets a config key, as in a config file; for example the
babr pressure cell:

    PYTHONPATH=src python tools/layer_sample.py protocol=babr nodes=49 \\
        ant_interval=0.08 duration=20

A run builds the cell and runs it while `signal.setitimer(ITIMER_PROF)`, a
timer on this process's own CPU time, raises SIGPROF every INTERVAL_S (the
kernel delivers it at most once per scheduler tick). Each sample takes
the innermost stack frame that runs antwsn code and maps it to a layer by its
file, and in radio.py by the function it runs:

    kernel     kernel.py
    energy     radio.py: EnergyLedger.* (every tx, rx and idle debit,
               including `receive`'s loop over a frame's receivers) and
               Medium.settle_idle, which hands the clock to the ledger
    radio      the rest of radio.py (MAC, channel, collisions, delivery)
    routing    routing.py
    protocols  protocols/
    harness    every other antwsn module (the run's wiring in simulation.py,
               scenario, config, metrics, harness, cli)

kernel.py also holds the seeded streams, so the radio's noise draws
(`RandomStream.normals`) count as kernel time. The weighted next-hop draw,
`weighted_pick`, sits in routing.py beside the tables, so it counts as
routing time for every protocol that calls it.

Methods that `dataclass` generates have no antwsn file: the `__init__` of
`Frame`, `Ant`, `Flood` and `DataPacket` has the `co_filename` `<string>`.
A sample inside one lands on the antwsn frame that called it. For example
`Simulation.send_frame`, which builds every `Frame`, takes about 5% of the
babr pressure cell's samples, all of them under harness.

A sample with no antwsn frame on its stack is counted as outside and left
out of the shares. A cell too small to take MIN_SAMPLES samples in one
build and run is built and run again, afresh, until it has (at most
MAX_REPEATS times). The report gives each layer's mean share over RUNS runs
with its min and max, and the TOP functions that took the most samples, each
named `file:line(function)` as in cProfile's reports.

Where a sample lands: CPython 3.11 runs a Python signal handler at the next
eval-breaker check of its interpreter loop, not when the signal arrives. So
time spent in C (numpy, `int.from_bytes`, `heapq`) is charged to the next
Python function entered, not to the caller that spent it. On the flood and
pressure cells `radio._bits` showed 9-10% self time that is really
`Medium._audible`'s numpy work. Both sit in the radio layer, so that layer
share holds. C time spent just before a call into another layer is charged
to that layer: the kernel's heap and trace-hash work before a dispatch can
land on the handler it dispatches to.
"""

import argparse
import os
import signal
import statistics
import sys
import types
from collections import Counter
from contextlib import contextmanager

import antwsn
from antwsn.config import ConfigError, config_from_mapping, parse_kv_text
from antwsn.radio import EnergyLedger, Medium
from antwsn.simulation import Simulation

LAYERS = ("kernel", "radio", "energy", "routing", "protocols", "harness")
RUNS = 3
INTERVAL_S = 0.0005
MIN_SAMPLES = 200
MAX_REPEATS = 1000
TOP = 12

_PACKAGE = os.path.dirname(os.path.abspath(antwsn.__file__))
_MODULE_LAYERS = {"kernel.py": "kernel", "radio.py": "radio", "routing.py": "routing"}


def _codes(functions):
    """The code objects of `functions` and of everything defined inside them."""
    stack = [f.__code__ for f in functions]
    while stack:
        code = stack.pop()
        yield code
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))


_ENERGY_CODES = frozenset(_codes(
    [f for f in vars(EnergyLedger).values() if isinstance(f, types.FunctionType)]
    + [Medium.settle_idle]))
_where_cache = {}   # code -> (layer, function name), or None outside antwsn


def _where(code):
    try:
        return _where_cache[code]
    except KeyError:
        pass
    rel = os.path.relpath(os.path.abspath(code.co_filename), _PACKAGE)
    if rel.startswith(".."):
        where = None
    else:
        if code in _ENERGY_CODES:
            layer = "energy"
        elif rel.startswith("protocols" + os.sep):
            layer = "protocols"
        else:
            layer = _MODULE_LAYERS.get(rel, "harness")
        where = layer, f"{rel}:{code.co_firstlineno}({code.co_name})"
    _where_cache[code] = where
    return where


def layer_of(code) -> str | None:
    """The layer a code object belongs to, or None outside antwsn."""
    where = _where(code)
    return where and where[0]


class LayerSampler:
    """Counts SIGPROF samples by layer and by innermost antwsn function."""

    def __init__(self):
        self.layers = Counter()
        self.functions = Counter()   # (layer, function name) -> samples
        self.outside = 0

    @property
    def samples(self) -> int:
        return sum(self.layers.values())

    def shares(self) -> dict:
        """Each layer's share of the antwsn samples; they sum to 1."""
        total = self.samples
        return {layer: self.layers[layer] / total for layer in LAYERS}

    def _on_signal(self, signum, frame):
        while frame is not None:
            where = _where(frame.f_code)
            if where is not None:
                self.layers[where[0]] += 1
                self.functions[where] += 1
                return
            frame = frame.f_back
        self.outside += 1

    @contextmanager
    def sampling(self, interval_s: float):
        """Sample this process for the `with` block; only its own timer and
        its own SIGPROF handler are touched, and both are restored."""
        previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, interval_s, interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)


def sample_run(cfg) -> LayerSampler:
    """One run: build and run the cell, again while it has fewer than
    MIN_SAMPLES samples, at most MAX_REPEATS times in all."""
    sampler = LayerSampler()
    with sampler.sampling(INTERVAL_S):
        for _ in range(MAX_REPEATS):
            Simulation(cfg).run()
            if sampler.samples >= MIN_SAMPLES:
                break
    if not sampler.samples:
        raise RuntimeError(f"no sample in {MAX_REPEATS} runs of the cell")
    return sampler


def profile(cfg) -> dict:
    """Layer shares of RUNS sampled runs, their mean, min and max."""
    samplers = [sample_run(cfg) for _ in range(RUNS)]
    shares = [s.shares() for s in samplers]
    functions = sum((s.functions for s in samplers), Counter())
    total = sum(functions.values())
    return {
        "runs": [{"samples": s.samples, "outside": s.outside, "shares": sh}
                 for s, sh in zip(samplers, shares)],
        "mean": {layer: statistics.fmean(sh[layer] for sh in shares) for layer in LAYERS},
        "min": {layer: min(sh[layer] for sh in shares) for layer in LAYERS},
        "max": {layer: max(sh[layer] for sh in shares) for layer in LAYERS},
        "functions": [(layer, name, n / total)
                      for (layer, name), n in functions.most_common()],
    }


def _report(settings: str, report: dict) -> str:
    samples = ", ".join(str(r["samples"]) for r in report["runs"])
    outside = ", ".join(str(r["outside"]) for r in report["runs"])
    lines = [settings,
             f"samples per run: {samples} (outside antwsn: {outside})",
             f"{'layer':<10} {'mean':>7} {'min':>7} {'max':>7}"]
    lines += [f"{layer:<10} {report['mean'][layer]:>7.1%} {report['min'][layer]:>7.1%} "
              f"{report['max'][layer]:>7.1%}" for layer in LAYERS]
    lines.append("top functions, all runs (innermost antwsn frame):")
    lines += [f"  {share:>6.1%}  {layer:<9}  {name}"
              for layer, name, share in report["functions"][:TOP]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("settings", nargs="*", metavar="key=value", help="a config key")
    args = parser.parse_args(argv)
    try:
        mapping = parse_kv_text("\n".join(args.settings))
        cfg = config_from_mapping(mapping)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    report = profile(cfg)
    print(_report(" ".join(f"{k}={v}" for k, v in mapping.items()) or "default config",
                  report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
