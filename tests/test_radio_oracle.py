"""Differential oracle for the radio layer: every drawn cell must run exactly
as it runs on the numpy-vector medium kept in `tests/radio_reference.py`.

The golden corpus pins 18 fixed cells; this draws small connected fields of
4-30 nodes, each protocol, seeds and radio variants (idle draw, nodes that
die, busy drops with no retries, decode range beyond the carrier-sense disk,
noise on one of the two disturbance terms only, a noiseless channel), and
requires the same event schedule, event count, counters and residual
energies from both media. A fixed 49-node cell airs enough frames to cross
many of the production medium's noise blocks under every sigma combination.
"""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radio_reference
from antwsn.config import PROTOCOL_NAMES, SimConfig
from antwsn.radio import NOISE_BLOCK
from antwsn.scenario import from_points
from antwsn.simulation import run_single

VARIANTS = {
    "default": {},
    "idle draw": dict(e_idle_per_s=0.05),
    "drained": dict(initial_energy=0.01),
    "no retries": dict(max_retries=0),
    "low threshold": dict(rx_threshold=3e-4),
    "alpha only": dict(sigma_beta=0.0),
    "beta only": dict(sigma_alpha=0.0),
    "zero sigmas": dict(sigma_alpha=0.0, sigma_beta=0.0),
}
SIGMA_VARIANTS = ("default", "alpha only", "beta only", "zero sigmas")


@st.composite
def connected_points(draw):
    """Each node 5-34 m from an earlier one, inside the 35 m radio range with
    room for rounding, so the field is connected; shifted so that every
    coordinate is >= 0."""
    n = draw(st.integers(4, 30))
    points = [(0.0, 0.0)]
    for i in range(1, n):
        x, y = points[draw(st.integers(0, i - 1))]
        angle = math.radians(draw(st.integers(0, 359)))
        dist = draw(st.integers(5, 34))
        points.append((x + dist * math.cos(angle), y + dist * math.sin(angle)))
    x0 = min(x for x, _ in points)
    y0 = min(y for _, y in points)
    return [(x - x0, y - y0) for x, y in points]


def both_media(cfg, topology=None):
    """The cell's result on the production medium, then on the reference."""
    production = run_single(cfg, topology)
    with mock.patch("antwsn.simulation.Medium", radio_reference.Medium):
        return production, run_single(cfg, topology)


def outcome(result):
    return (result.trace_sha256, result.dispatched_events, result.counters,
            result.residuals)


@settings(max_examples=100, deadline=None)
@given(points=connected_points(), protocol=st.sampled_from(PROTOCOL_NAMES),
       seed=st.integers(1, 10_000), variant=st.sampled_from(sorted(VARIANTS)))
def test_medium_matches_the_numpy_reference(points, protocol, seed, variant):
    cfg = SimConfig(protocol=protocol, nodes=len(points), seed=seed,
                    duration=5.0, ant_interval=0.5, **VARIANTS[variant])
    production, reference = both_media(cfg, from_points(points, tx_radius=cfg.tx_radius))
    assert outcome(production) == outcome(reference)


@pytest.mark.parametrize("variant", SIGMA_VARIANTS)
def test_many_noise_blocks_match_the_numpy_reference(variant):
    cfg = SimConfig(nodes=49, duration=20.0, seed=1, **VARIANTS[variant])
    production, reference = both_media(cfg)
    assert production.counters["frames_sent"] > 100 * NOISE_BLOCK
    assert outcome(production) == outcome(reference)
