"""Smoke test of the sampling layer profiler in `tools/layer_sample.py`: its
file-and-function map puts each layer's code where the profiler says, and a
sampled small cell gives shares of known layers only, summing to 1."""

import math
import sys
from pathlib import Path

from antwsn.config import SimConfig
from antwsn.kernel import RandomStream, Simulator
from antwsn.protocols.eeabr import EEABR
from antwsn.radio import EnergyLedger, Medium
from antwsn.routing import RoutingTable, weighted_pick
from antwsn.simulation import Simulation

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import layer_sample  # noqa: E402

SMALL_CELL = SimConfig(nodes=9, duration=2.0)


def test_code_maps_to_its_layer():
    expected = {
        Simulator.schedule: "kernel",
        RandomStream.normals: "kernel",
        Medium._handle_tx_end: "radio",
        Medium._audible: "radio",
        Medium.settle_idle: "energy",
        EnergyLedger.charge: "energy",
        EnergyLedger.receive: "energy",
        EnergyLedger.settle_idle: "energy",
        RoutingTable.sample: "routing",
        weighted_pick: "routing",
        EEABR._pick_next: "protocols",
        Simulation.run: "harness",
    }
    assert {f: layer_sample.layer_of(f.__code__) for f in expected} == expected
    assert layer_sample.layer_of(test_code_maps_to_its_layer.__code__) is None


def check_shares(shares):
    assert set(shares) == set(layer_sample.LAYERS)
    assert all(0.0 <= v <= 1.0 for v in shares.values())
    assert math.isclose(sum(shares.values()), 1.0)


def test_a_small_cell_gives_shares_of_known_layers(monkeypatch):
    monkeypatch.setattr(layer_sample, "MIN_SAMPLES", 20)
    report = layer_sample.profile(SMALL_CELL)
    assert len(report["runs"]) == layer_sample.RUNS
    for run in report["runs"]:
        assert run["samples"] >= 20
        check_shares(run["shares"])
    check_shares(report["mean"])
    assert {layer for layer, _, _ in report["functions"]} <= set(layer_sample.LAYERS)


def test_the_command_line_reports_every_layer(capsys, monkeypatch):
    monkeypatch.setattr(layer_sample, "MIN_SAMPLES", 10)
    assert layer_sample.main(["nodes=9", "duration=2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("nodes=9 duration=2\n")
    assert all(f"\n{layer:<10} " in out for layer in layer_sample.LAYERS)


def test_a_bad_setting_exits_1(capsys):
    assert layer_sample.main(["nodes=nine"]) == 1
    assert "config error" in capsys.readouterr().err
