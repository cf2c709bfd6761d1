"""The traced benchmark mode patches named entry points of the simulator
(`bench/layers.py`). A patched name that no longer exists makes
`Spans.installed()` raise KeyError, and a wrapper that changes behaviour
changes the trace; both would otherwise surface only in `--trace 1` runs."""

import sys
from pathlib import Path

import pytest

from antwsn import SimConfig, Simulation

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import layers  # noqa: E402

SPANS = ("simulation.init", "simulation.run", "kernel.run_until",
         "kernel.schedule", "kernel.rng_draws", "radio.setup", "radio.send",
         "energy.charge_calls", "energy.settle_calls", "scenario.topology",
         "scenario.traffic", "protocols.setup", "protocols.on_frame_received")


@pytest.mark.parametrize("protocol", ["babr", "ff", "fp", "ieeabr"])
def test_traced_run_keeps_the_trace_and_counts_every_layer(protocol):
    cfg = SimConfig(protocol=protocol, nodes=9, layout="grid", duration=5.0,
                    seed=3)
    plain = Simulation(cfg).run()
    spans = layers.Spans()
    with spans.installed():
        traced = Simulation(cfg).run()
    assert traced.trace_sha256 == plain.trace_sha256
    assert {name: spans.calls[name] for name in SPANS if not spans.calls[name]} == {}
    assert all(spans.self_s["run", layer] > 0 for layer in layers.RUN_LAYERS)
