"""Propagation math, the energy ledger, and MAC behavior on tiny hand-built
networks with the disturbance turned off (deterministic radio)."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antwsn.config import PROTOCOL_NAMES, SimConfig
from antwsn.kernel import MAC_RETRY, TX_END, TX_START, RandomStream, Simulator
from antwsn.radio import (BROADCAST, NOISE_BLOCK, EnergyLedger, Frame, Medium,
                          ideal_reception, perturbed_reception)
from antwsn.scenario import from_points
from antwsn.simulation import Simulation
from test_radio_oracle import VARIANTS, connected_points


class TestPropagation:
    def test_ideal_decay(self):
        assert ideal_reception(1.0, 0.0, 2.0) == 1.0
        assert ideal_reception(1.0, 1.0, 2.0) == 0.5
        assert ideal_reception(2.0, 3.0, 2.0) == 2.0 / 10.0

    def test_ideal_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ideal_reception(1.0, -1.0, 2.0)
        with pytest.raises(ValueError):
            ideal_reception(0.0, 1.0, 2.0)

    def test_perturbation(self):
        assert perturbed_reception(0.5, 0.1, 0.01) == pytest.approx(0.56)
        assert perturbed_reception(0.5, 0.0, 0.0) == 0.5

    def test_perturbation_clamps_at_zero(self):
        assert perturbed_reception(0.1, -2.0, 0.0) == 0.0

    def test_threshold_derived_from_radius(self):
        _, medium, _, _ = build_medium([(0, 0), (20, 0)])
        assert medium.rx_threshold == ideal_reception(1.0, 35.0, 2.0)
        _, medium, _, _ = build_medium([(0, 0), (20, 0)], rx_threshold=0.01)
        assert medium.rx_threshold == 0.01


class TestEnergyLedger:
    def test_charge_and_totals(self):
        led = EnergyLedger(2, 10.0)
        assert led.charge(0, "tx", 3.0) == 3.0
        assert led.charge(1, "rx", 1.5) == 1.5
        assert led.residual[0] == 7.0
        assert led.total_spent() == 4.5
        assert led.total_consumed() == 4.5
        assert led.conservation_gap() == 0.0

    def test_overdraw_clamps_to_residual(self):
        led = EnergyLedger(1, 2.0)
        assert led.charge(0, "tx", 5.0) == 2.0
        assert led.residual[0] == 0.0
        assert not led.alive(0)
        # dead node pays nothing more
        assert led.charge(0, "rx", 1.0) == 0.0
        assert led.conservation_gap() == 0.0

    @settings(max_examples=200, deadline=None)
    @given(initial=st.sampled_from([0.0, 1.0, 2.5, 0.1]),
           ops=st.lists(st.tuples(
               st.integers(0, 4), st.sampled_from(EnergyLedger.CATEGORIES),
               st.one_of(st.sampled_from(["exact", "over", "zero"]),
                         st.floats(0.0, 1.5))), max_size=40))
    def test_alive_bits_track_residuals(self, initial, ops):
        # `amount` is a float, or the node's exact residual, twice it plus
        # one (overdraw), or zero (also on dead nodes). The ledger must keep
        # the bits of the clamped debit rule modelled here, so its totals and
        # conservation_gap() are those the rule gives.
        led = EnergyLedger(5, initial)
        residual = [initial] * 5
        spent = {k: [0.0] * 5 for k in EnergyLedger.CATEGORIES}
        for node, kind, amount in ops:
            left = residual[node]
            amount = {"exact": left, "over": 2 * left + 1.0, "zero": 0.0}.get(amount, amount)
            debit = amount if amount <= left else left
            residual[node] = left - debit
            spent[kind][node] += debit
            assert led.charge(node, kind, amount) == debit
            assert led.alive_bits == sum(1 << i for i, r in enumerate(residual) if r > 0)
        assert (led.residual, led.spent) == (residual, spent)
        assert all(led.alive(i) == bool(led.alive_bits >> i & 1) for i in range(5))

    def test_charge_below_residual_precision_opens_the_gap(self):
        # The books balance only up to the residual's rounding: a charge
        # under half an ulp of it is booked in `spent` and moves nothing.
        led = EnergyLedger(5, 1.0)
        assert led.charge(0, "tx", 1e-30) == 1e-30
        assert led.spent["tx"][0] == 1e-30
        assert led.residual[0] == 1.0
        assert led.total_consumed() == 0.0
        assert led.conservation_gap() == 1.0

    def test_negative_charge_rejected(self):
        led = EnergyLedger(1, 2.0)
        with pytest.raises(ValueError):
            led.charge(0, "tx", -1.0)

    def test_alive_mask(self):
        led = EnergyLedger(3, 1.0)
        led.charge(1, "tx", 1.0)
        assert list(led.alive_mask()) == [True, False, True]


class TestFrame:
    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Frame(src=0, dst=1, kind="data", size_bits=0)


class EventKinds:
    """Trace sink that keeps the kind of every dispatched event."""

    def __init__(self):
        self.kinds = []

    def update(self, line: bytes):
        self.kinds.append(line.decode().split()[2])

    def count(self, kind: str) -> int:
        return self.kinds.count(kind)


def build_medium(positions, initial=30.0, seed=1, **settings):
    """Quiet-channel fixture: zero disturbance, logging callbacks; `settings`
    are further SimConfig fields. An undelivered frame is logged with
    whether its addressee is dead, read from the ledger as ieeabr reads it;
    a MAC drop with its reason."""
    sim = Simulator()
    ledger = EnergyLedger(len(positions), initial)
    log = {"delivered": [], "undelivered": [], "dropped": []}
    cfg = SimConfig(sigma_alpha=0.0, sigma_beta=0.0, **settings)

    def lost(frame, reason):
        if reason == "undelivered":
            log["undelivered"].append((frame, not ledger.alive(frame.dst)))
        else:
            log["dropped"].append((frame, reason))
    medium = Medium(
        sim, from_points(positions, tx_radius=cfg.tx_radius, require_connected=False),
        cfg, ledger, RandomStream(seed, "radio"), RandomStream(seed, "mac"),
        deliver=lambda node, frame: log["delivered"].append((node, frame)),
        on_frame_lost=lost,
    )
    return sim, medium, ledger, log


class TestMedium:
    def test_airtime(self):
        sim, medium, _, _ = build_medium([(0, 0), (20, 0)])
        f = Frame(src=0, dst=1, kind="data", size_bits=400)
        assert medium.airtime(f) == pytest.approx(0.01)

    def test_unicast_delivery_and_energy(self):
        sim, medium, ledger, log = build_medium([(0, 0), (20, 0)])
        f = Frame(src=0, dst=1, kind="data", size_bits=1000)
        medium.send(f)
        sim.run_until(1.0)
        [(node, fr)] = log["delivered"]
        assert node == 1 and fr is f
        assert ledger.spent["tx"][0] == pytest.approx(1e-3)
        assert ledger.spent["rx"][1] == pytest.approx(5e-4)
        # idle drain between events rounds in the last bits; the books must
        # still balance far inside the advertised 1e-9 envelope
        assert ledger.conservation_gap() <= 1e-12
        assert medium.frames_sent == 1 and medium.frames_delivered == 1

    def test_out_of_range_unicast_reported(self):
        sim, medium, _, log = build_medium([(0, 0), (50, 0)])
        f = Frame(src=0, dst=1, kind="data", size_bits=400)
        medium.send(f)
        sim.run_until(1.0)
        assert log["delivered"] == []
        assert log["undelivered"] == [(f, False)]

    def test_broadcast_reaches_all_audible(self):
        sim, medium, ledger, log = build_medium([(0, 0), (20, 0), (0, 20)])
        medium.send(Frame(src=0, dst=BROADCAST, kind="data", size_bits=400))
        sim.run_until(1.0)
        assert sorted(n for n, _ in log["delivered"]) == [1, 2]
        # every audible node pays reception, the sender pays transmission
        assert ledger.spent["rx"][1] > 0 and ledger.spent["rx"][2] > 0
        assert ledger.spent["rx"][0] == 0.0

    def test_broadcast_delivered_in_ascending_node_id(self):
        # Ids are in no geometric order; the handlers run lowest id first.
        positions = [(0, 0), (30, 0), (0, 10), (-20, 0), (0, -25), (10, 10)]
        sim, medium, _, log = build_medium(positions)
        medium.send(Frame(src=0, dst=BROADCAST, kind="data", size_bits=400))
        sim.run_until(1.0)
        assert [n for n, _ in log["delivered"]] == [1, 2, 3, 4, 5]

    def test_hidden_terminals_collide(self):
        # 0 and 2 cannot hear each other; both reach 1 at the same instant.
        sim, medium, ledger, log = build_medium([(0, 0), (20, 0), (40, 0)])
        fa = Frame(src=0, dst=1, kind="data", size_bits=400)
        fc = Frame(src=2, dst=1, kind="data", size_bits=400)
        medium.send(fa)
        medium.send(fc)
        sim.run_until(1.0)
        assert log["delivered"] == []
        assert {id(f) for f, _ in log["undelivered"]} == {id(fa), id(fc)}
        assert medium.collisions == 1
        # the collided receiver decoded nothing and is not charged for it
        assert ledger.spent["rx"][1] == 0.0

    def test_carrier_sense_defers(self):
        sim, medium, _, log = build_medium([(0, 0), (20, 0)])
        long = Frame(src=0, dst=1, kind="data", size_bits=4000)   # 0.1 s on air
        short = Frame(src=1, dst=0, kind="data", size_bits=400)
        medium.send(long)
        sim.on("poke", lambda ev: medium.send(short))
        sim.schedule(0.05, "poke")
        sim.run_until(2.0)
        delivered = {id(fr) for _, fr in log["delivered"]}
        assert delivered == {id(long), id(short)}
        assert log["dropped"] == []

    @pytest.mark.parametrize("max_retries", [0, 2])
    def test_busy_drop_when_retries_exhausted(self, max_retries):
        # Each queued frame gets its own max_retries backoffs before its drop.
        sim, medium, _, log = build_medium([(0, 0), (20, 0)], cw_init=1,
                                           max_retries=max_retries)
        kinds = EventKinds()
        sim.trace = kinds
        long = Frame(src=0, dst=1, kind="data", size_bits=40000)  # 1 s on air
        shorts = [Frame(src=1, dst=0, kind="data", size_bits=400) for _ in range(2)]
        medium.send(long)
        sim.on("poke", lambda ev: [medium.send(f) for f in shorts])
        sim.schedule(0.5, "poke")
        sim.run_until(3.0)
        assert log["dropped"] == [(f, "busy") for f in shorts]
        assert kinds.count(MAC_RETRY) == 2 * max_retries

    def test_frame_sent_from_busy_drop_callback_queues_once(self):
        # The callback's frame must join the running MAC cycle, not start a
        # second one that would air it twice.
        # cw_init=1: every first backoff is one 0.01 s slot.
        sim, medium, _, log = build_medium([(0, 0), (20, 0)], cw_init=1,
                                           max_retries=1)
        kinds = EventKinds()
        sim.trace = kinds
        long = Frame(src=0, dst=1, kind="data", size_bits=2600)   # on air until 0.065
        short = Frame(src=1, dst=0, kind="data", size_bits=400)   # dropped at 0.06
        again = Frame(src=1, dst=0, kind="data", size_bits=400)   # backs off, airs at 0.07

        def drop(frame, reason):
            log["dropped"].append((frame, reason))
            if frame is short:
                medium.send(again)
        medium.on_frame_lost = drop
        medium.send(long)
        sim.on("poke", lambda ev: medium.send(short))
        sim.schedule(0.05, "poke")
        sim.run_until(1.0)
        assert log["dropped"] == [(short, "busy")]
        assert [fr for _, fr in log["delivered"]] == [long, again]
        assert medium.frames_sent == 2 and kinds.count(MAC_RETRY) == 2

    def test_half_duplex_sender_hears_nothing(self):
        # 40 m apart: outside the 35 m carrier-sense disk, inside decode range.
        sim, medium, _, log = build_medium([(0, 0), (40, 0)], rx_threshold=5e-4)
        long = Frame(src=0, dst=1, kind="data", size_bits=4000)   # 0.1 s on air
        short = Frame(src=1, dst=0, kind="data", size_bits=400)
        medium.send(long)
        sim.on("poke", lambda ev: medium.send(short))
        sim.schedule(0.05, "poke")
        sim.run_until(1.0)
        assert log["delivered"] == []
        assert [f for f, _ in log["undelivered"]] == [short, long]
        assert medium.frames_sent == 2 and medium.collisions == 0

    def test_dead_source_sends_nothing(self):
        sim, medium, ledger, log = build_medium([(0, 0), (20, 0)])
        ledger.charge(0, "tx", 30.0)
        f = Frame(src=0, dst=1, kind="data", size_bits=400)
        medium.send(f)
        sim.run_until(1.0)
        assert log["delivered"] == []
        assert (f, "dead") in log["dropped"]

    def test_death_mid_charge_kills_frame(self):
        sim, medium, ledger, log = build_medium([(0, 0), (20, 0)])
        cost = 1e-6 * 1000
        ledger.charge(0, "idle", 30.0 - cost / 2)  # leaves half the tx cost
        medium.send(Frame(src=0, dst=1, kind="data", size_bits=1000))
        sim.run_until(1.0)
        assert log["delivered"] == []
        assert [reason for _, reason in log["dropped"]] == ["energy"]
        assert ledger.residual[0] == 0.0
        assert ledger.conservation_gap() == 0.0

    def test_queue_keeps_order(self):
        sim, medium, _, log = build_medium([(0, 0), (20, 0)])
        f1 = Frame(src=0, dst=1, kind="data", size_bits=400)
        f2 = Frame(src=0, dst=1, kind="data", size_bits=400)
        medium.send(f1)
        medium.send(f2)
        sim.run_until(1.0)
        [(_, first), (_, second)] = log["delivered"]
        assert first is f1 and second is f2

    def test_idle_draw_settles(self):
        sim, medium, ledger, _ = build_medium([(0, 0), (20, 0)], e_idle_per_s=0.1)
        sim.run_until(10.0)
        medium.settle_all_idle()
        assert ledger.spent["idle"][0] == pytest.approx(1.0)
        assert ledger.spent["idle"][1] == pytest.approx(1.0)


class TestChannelState:
    """The medium's channel bitsets against their definitions."""

    @settings(max_examples=30, deadline=None)
    @given(points=connected_points(), protocol=st.sampled_from(PROTOCOL_NAMES),
           seed=st.integers(1, 10_000), variant=st.sampled_from(sorted(VARIANTS)))
    def test_bitsets_match_the_frames_on_air(self, points, protocol, seed, variant):
        # After every medium handler: `_inflight` is keyed by each frame's
        # sender, `_air_bits` is the set of those senders, and a node senses
        # the channel busy exactly when another node within tx_radius has a
        # frame on the channel with t1 > now.
        cfg = SimConfig(protocol=protocol, nodes=len(points), seed=seed,
                        duration=3.0, ant_interval=0.5, **VARIANTS[variant])
        sim = Simulation(cfg, from_points(points, tx_radius=cfg.tx_radius))
        medium = sim.medium
        pos = np.asarray(sim.topology.positions, dtype=float)
        dist = np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2))
        near = (dist <= cfg.tx_radius).tolist()
        checked = Counter()

        def checking(kind, handler):
            def check(ev):
                handler(ev)
                now = sim.kernel.now()
                inflight = medium._inflight
                assert all(src == tr.frame.src for src, tr in inflight.items())
                air = 0
                for src in inflight:
                    air |= 1 << src
                assert medium._air_bits == air
                for node in range(len(points)):
                    busy = any(tr.t1 > now and src != node and near[src][node]
                               for src, tr in inflight.items())
                    assert medium._channel_busy(node) == busy, (node, now)
                checked[kind] += 1
            sim.kernel.on(kind, check)

        checking(TX_START, medium._handle_tx_start)
        checking(TX_END, medium._handle_tx_end)
        checking(MAC_RETRY, medium._handle_retry)
        sim.run()
        assert checked[TX_START] > 0

    @pytest.mark.parametrize("n", [9, 49, 100])
    def test_audible_packs_like_little_bit_order(self, n):
        # Each n leaves the last byte partial: 9 and 49 use one bit of it, 100 four.
        sim = Simulation(SimConfig(nodes=n, seed=3, sigma_alpha=0.5))
        medium = sim.medium
        heard = 0
        for k in range(2 * NOISE_BLOCK + 1):   # crosses a noise block
            src = k % n
            bits = medium._audible(src)
            j = medium._noise_row - 1
            power = medium._ideal_rows[src] * medium._gain[j] + medium._offset[j]
            packed = np.packbits(power >= medium.rx_threshold, bitorder="little")
            want = int.from_bytes(packed.tobytes(), "little")
            assert bits == want & ~(1 << src)
            heard |= bits
        assert heard >> (n - 1) & 1   # the last node, in the last byte, was heard
