"""The benchmark reaches into the simulator from outside, and a change to
what it reads would otherwise surface only when the benchmark runs.

The traced mode patches named entry points (`bench/layers.py`). A patched
name that no longer exists makes `Spans.installed()` raise KeyError, and a
wrapper that changes behaviour changes the trace. The cell checks
(`bench/cells.py`) read routing tables, the ieeabr quota and the medium's
callbacks; a broken read fails a cell the way a wrong result would.

The seed-1 reference cells in `bench/README.md` record each workload cell's
event count and trace hash; a refactor must reproduce all of them."""

import re
import sys
from pathlib import Path

import pytest

from antwsn import SimConfig, Simulation
from antwsn.config import PROTOCOL_NAMES

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import cells  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

BENCH_README = Path(__file__).resolve().parent.parent / "bench" / "README.md"
REFERENCE_ROW = re.compile(r"^\| (\w+) \| ([\w-]+) \| (\d+) \| `([0-9a-f]{16})` \|", re.M)

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


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_bench_cell_checks_pass(protocol):
    cfg = SimConfig(protocol=protocol, nodes=9, layout="grid", duration=10.0,
                    seed=3)
    with cells.Recorder(timed=False).installed() as recorder:
        Simulation(cfg).run()
    assert [record.failures for record in recorder.records] == [[]]


def _seed1_configs(name):
    workload = workloads.build(name, 1)
    if isinstance(workload, workloads.SweepWorkload):
        plan = workload.plan
        return [plan.cell_config(*cell) for cell in plan.cells()]
    return workload.configs


def test_seed1_reference_cells_keep_their_trace():
    reference = {(w, cell): (int(events), sha)
                 for w, cell, events, sha in REFERENCE_ROW.findall(
                     BENCH_README.read_text(encoding="utf-8"))}
    assert len(reference) == 28
    measured = {}
    for name in ("pressure", "flood", "sweep"):
        for cfg in _seed1_configs(name):
            result = Simulation(cfg).run()
            measured[name, f"{cfg.protocol}-{cfg.nodes}-{cfg.scenario}"] = (
                result.dispatched_events, result.trace_sha256[:16])
    assert measured == reference
