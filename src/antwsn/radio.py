"""Radio propagation, CSMA medium access, collisions, and per-node energy accounting.

The reception model is the classic probabilistic-simulator one: an ideal
received power p_tx / (1 + d^gamma), perturbed per link by a multiplicative
(1 + alpha) factor and an additive beta term, both zero-mean normal draws.
A frame is audible at a node when its perturbed power reaches the reception
threshold; two audible frames that overlap in time at one receiver destroy
each other there.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .kernel import MAC_RETRY, TX_END, TX_START
from .config import SimConfig

BROADCAST = -1

# Frames of link noise drawn per call to the radio stream. Each frame's noise
# is one row of the block, so the block size changes no draw, only how many
# calls fetch them; 32 rows keep a 100-node block near 50 kB.
NOISE_BLOCK = 32

# Byte i with its bit order reversed: maps `np.packbits`'s default big-endian
# bytes to the little-endian ones, which put element k at bit k of the int.
_REVERSED_BITS = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))

# Frame payload kinds.
FORWARD_ANT = "forward-ant"
BACKWARD_ANT = "backward-ant"
DATA_ANT = "data-ant"
DATA = "data"


def ideal_reception(p_tx: float, d: float, gamma: float) -> float:
    """Received power at distance d under the 1/(1+d^gamma) decay law."""
    if d < 0:
        raise ValueError("distance must be >= 0")
    if p_tx <= 0:
        raise ValueError("transmit power must be > 0")
    return p_tx / (1.0 + d**gamma)


def perturbed_reception(ideal: float, alpha_draw: float, beta_draw: float) -> float:
    """Apply the multiplicative then additive disturbance, clamped at zero."""
    if ideal < 0:
        raise ValueError("ideal power must be >= 0")
    return max(0.0, ideal * (1.0 + alpha_draw) + beta_draw)


class EnergyLedger:
    """Per-node residual energy plus cumulative tx/rx/idle spend.

    Residual never goes below zero; a charge that would overdraw debits only
    what is left. Each debit is booked in `spent` as is, but the residual is
    a float subtraction, rounded to the residual's precision, so
    sum(initial - residual) == sum(spent_*) holds only up to that rounding:
    a charge below half an ulp of the residual is booked in `spent` and
    leaves the residual unchanged. Each debit's rounding is at the scale of
    the node's budget, so `conservation_gap()` measures the gap against the
    network's budget, `initial * n`, not against the spend, which a large
    budget can dwarf. For `EnergyLedger(5, 1.0).charge(0, "tx", 1e-30)`
    alone it is 1e-30 / 5. A node with residual 0 is dead and stays
    dead. `alive_bits` is the set of live nodes as an int bitset (bit i =
    node i); `charge` clears a node's bit when it takes the node's last joule.
    """

    CATEGORIES = ("tx", "rx", "idle")

    def __init__(self, n: int, initial: float):
        self.n = n
        self.initial = float(initial)
        self.residual = [self.initial] * n
        self.spent = {k: [0.0] * n for k in self.CATEGORIES}
        self.alive_bits = (1 << n) - 1 if self.initial > 0.0 else 0

    def charge(self, node: int, kind: str, amount: float) -> float:
        """Debit up to `amount` from `node`; returns the amount actually debited."""
        if amount < 0:
            raise ValueError("charge amount must be >= 0")
        left = self.residual[node]
        if amount < left:
            debit = amount
        else:
            debit = left
            self.alive_bits &= ~(1 << node)
        self.residual[node] = left - debit
        self.spent[kind][node] += debit
        return debit

    def alive(self, node: int) -> bool:
        return self.residual[node] > 0.0

    def alive_mask(self) -> np.ndarray:
        return np.array(self.residual) > 0.0

    # The totals use numpy's pairwise summation, not `sum`, which compensates
    # for rounding on newer Pythons and would move the reported energy's bits.
    def total_spent(self) -> float:
        return float(sum(np.sum(values) for values in self.spent.values()))

    def total_consumed(self) -> float:
        return float(self.initial * self.n - np.sum(self.residual))

    def conservation_gap(self) -> float:
        """Difference between consumed energy and the category sums, relative
        to the network's budget."""
        scale = max(self.initial * self.n, 1e-30)
        return abs(self.total_consumed() - self.total_spent()) / scale


@dataclass(eq=False, slots=True)   # two transmissions with equal fields are still two frames
class Frame:
    src: int
    dst: int  # BROADCAST or a node id
    kind: str
    size_bits: int
    payload: object = None

    def __post_init__(self):
        if self.size_bits <= 0:
            raise ValueError("frame size must be > 0 bits")


def _bits(flags) -> int:
    """A 1-D bool array as an int bitset: bit i set where flags[i] is True.
    `np.packbits` in its default bit order, then each byte reversed, is what
    `bitorder="little"` gives, without that keyword's per-call cost."""
    return int.from_bytes(np.packbits(flags).tobytes().translate(_REVERSED_BITS),
                          "little")


class _Transmission:
    """One frame on the channel. `candidates` and `lost` are node sets kept as
    int bitsets, bit i standing for node i: `candidates` holds the nodes that
    could hear the frame at its start (audible, alive, not on air), `lost` the
    ones among them that a collision or their own transmission spoiled."""

    __slots__ = ("frame", "t1", "candidates", "lost")

    def __init__(self, frame, t1, candidates):
        self.frame = frame
        self.t1 = t1
        self.candidates = candidates
        self.lost = 0


class Medium:
    """Shared radio channel: one instance per simulation run.

    Responsibilities: carrier-sense MAC with bounded exponential backoff,
    energy debits for transmitters and every audible receiver, collision
    resolution, and delivery of surviving frames to the network layer.
    Radio, MAC and energy settings are read from `cfg`, already validated.
    The geometry is the `topology`'s: the medium takes its distance matrix
    and neighbor lists and computes no distance itself.

    MAC state is each node's frame queue plus the frames on the channel. A
    node is in a MAC cycle exactly when its queue is non-empty: the head
    frame is then backing off (one pending MAC_RETRY, whose payload carries
    the head's busy-sense count), about to start (one pending TX_START), or
    on the channel, and it leaves the queue only in that cycle's handlers.

    Node sets are int bitsets (bit i = node i). The channel state is
    `_inflight`, a dict from sender to its frame's `_Transmission` (a node
    airs only its queue head, so it has at most one frame on the channel),
    and `_air_bits`, the set of those senders: TX_START adds the sender and
    its TX_END removes it. `_in_range_bits[node]` is `node`'s carrier-sense
    disk, which is its routing neighbor set `topology.neighbors[node]`. A
    node senses the channel busy when a sender in its disk has a frame with
    `t1 > now`, so a frame whose TX_END is due at `now` but not yet
    dispatched reads idle.

    Every live node that hears a frame without a collision is charged the
    rx cost, and every one that survives the charge, addressee or not, is
    handed to `deliver`, in ascending node id; the protocol drops overheard
    unicasts. Link noise comes in blocks from the medium's own radio stream
    (`_draw_noise`).

    Callbacks:
      deliver(node, frame)          -- frame survived at `node`
      on_frame_lost(frame, reason)  -- frame lost, once: unaired ('busy',
          'energy', 'dead') or an aired unicast's addressee got nothing
          ('undelivered')
    """

    def __init__(self, kernel, topology, cfg: SimConfig, ledger: EnergyLedger,
                 rng_radio, rng_mac, deliver, on_frame_lost):
        self.kernel = kernel
        self.cfg = cfg
        self.ledger = ledger
        self.rng_radio = rng_radio
        self.rng_mac = rng_mac
        self.deliver = deliver
        self.on_frame_lost = on_frame_lost
        # None: the zero-noise audible set is exactly the tx_radius disk.
        self.rx_threshold = (cfg.rx_threshold if cfg.rx_threshold is not None else
                             ideal_reception(cfg.p_transmit, cfg.tx_radius, cfg.gamma))

        self.n = topology.n
        # Row src: the ideal power of src's frames at every node.
        self._ideal_rows = list(cfg.p_transmit / (1.0 + topology.dist**cfg.gamma))
        # Carrier-sense disks (deterministic by design): the routing neighbors.
        self._in_range_bits = [sum(1 << j for j in nbrs) for nbrs in topology.neighbors]

        self._queues = [deque() for _ in range(self.n)]
        self._inflight = {}
        self._air_bits = 0
        self._last_idle = [0.0] * self.n
        # Per-frame noise rows, drawn when the first frame airs.
        self._gain = self._offset = None
        self._noise_row = NOISE_BLOCK
        self.collisions = 0
        self.frames_sent = 0
        self.frames_delivered = 0

        kernel.on(TX_START, self._handle_tx_start)
        kernel.on(TX_END, self._handle_tx_end)
        kernel.on(MAC_RETRY, self._handle_retry)

    # -- energy ---------------------------------------------------------

    def settle_idle(self, node: int):
        """Debit idle draw accrued since the last settlement for `node`."""
        rate = self.cfg.e_idle_per_s
        if rate == 0.0:
            return
        now = self.kernel.now()
        if self.ledger.alive(node):
            dt = now - self._last_idle[node]
            if dt > 0:
                self.ledger.charge(node, "idle", rate * dt)
        self._last_idle[node] = now

    def settle_all_idle(self):
        for node in range(self.n):
            self.settle_idle(node)

    def airtime(self, frame: Frame) -> float:
        return frame.size_bits / self.cfg.bitrate

    # -- MAC ------------------------------------------------------------

    def send(self, frame: Frame):
        """Queue a frame at its source; the MAC airs queued frames in order."""
        if not self.ledger.alive_bits >> frame.src & 1:
            self.on_frame_lost(frame, "dead")
            return
        queue = self._queues[frame.src]
        queue.append(frame)
        if len(queue) == 1:
            self._attempt(frame.src)

    def _flush_dead(self, node):
        queue = self._queues[node]
        for frame in queue:
            self.on_frame_lost(frame, "dead")
        queue.clear()

    def _channel_busy(self, node) -> bool:
        # The sensing node's own frame is never on air here: a node senses
        # from an empty queue (send) or from its own cycle, never mid-frame.
        senders = self._in_range_bits[node] & self._air_bits
        if not senders:
            return False
        now = self.kernel.now()
        inflight = self._inflight
        while senders:
            low = senders & -senders
            senders ^= low
            if inflight[low.bit_length() - 1].t1 > now:
                return True
        return False

    def _attempt(self, node, attempts=0):
        """Sense the channel for the head of `node`'s queue; `attempts` counts
        the busy senses this head frame has already had."""
        if not self.ledger.alive_bits >> node & 1:
            self._flush_dead(node)
            return
        queue = self._queues[node]
        if not queue:
            return
        frame = queue[0]
        if self._channel_busy(node):
            attempts += 1
            if attempts > self.cfg.max_retries:
                # Report before dequeuing: a frame the callback sends from
                # this node queues behind the dropped one and starts no cycle.
                self.on_frame_lost(frame, "busy")
                queue.popleft()
                self._attempt(node)
                return
            window = self.cfg.cw_init * (2 ** (attempts - 1))
            slots = self.rng_mac.randint(1, window)
            delay = slots * self.airtime(frame)
            self.kernel.schedule(self.kernel.now() + delay, MAC_RETRY, (node, attempts))
            return
        self.kernel.schedule(self.kernel.now(), TX_START, node)

    def _handle_retry(self, ev):
        self._attempt(*ev.payload)

    def _handle_tx_start(self, ev):
        # The queue is not empty: only this node's cycle dequeues, and the
        # pending TX_START is that cycle.
        node = ev.payload
        queue = self._queues[node]
        frame = queue[0]
        if self.cfg.e_idle_per_s:
            self.settle_idle(node)
        cost = self.cfg.e_tx_per_bit * frame.size_bits
        debited = self.ledger.charge(node, "tx", cost)
        if debited < cost:
            # Ran out of juice mid-charge: node is now dead, frame never airs.
            queue.popleft()
            self.on_frame_lost(frame, "energy")
            self._flush_dead(node)
            return
        t1 = self.kernel.now() + self.airtime(frame)
        # Every in-flight frame is on air here (t1 > now): a TX_END due by now
        # was scheduled before this TX_START, so it ran first and left _inflight.
        tr = _Transmission(frame, t1, self._audible(node))
        self._mark_collisions(tr)
        self._inflight[node] = tr
        self._air_bits |= 1 << node
        self.frames_sent += 1
        self.kernel.schedule(t1, TX_END, tr)

    def _draw_noise(self):
        """Draw the next NOISE_BLOCK frames' noise with one call. Row j of
        `_gain` is 1 + alpha and row j of `_offset` is beta for the j-th frame,
        both kept as lists of row views; a sigma of zero draws nothing and
        leaves gain 1 or offset 0. The stream yields the unit draws in the
        order successive per-frame `normals(sigma, n)` calls would, alpha
        before beta, and sigma * z is the same float either way."""
        cfg = self.cfg
        alpha, beta = cfg.sigma_alpha > 0.0, cfg.sigma_beta > 0.0
        z = self.rng_radio.normals(1.0, (NOISE_BLOCK, alpha + beta, self.n))
        shape = (NOISE_BLOCK, self.n)
        self._gain = list(1.0 + cfg.sigma_alpha * z[:, 0] if alpha else np.ones(shape))
        self._offset = list(cfg.sigma_beta * z[:, -1] if beta else np.zeros(shape))
        self._noise_row = 0

    def _audible(self, src) -> int:
        """Who can hear this transmission, as a bitset: perturbed power over
        threshold, alive, not the sender, and not currently transmitting
        themselves. The threshold is > 0, so power needs no clamp at zero."""
        if self._noise_row == NOISE_BLOCK:
            self._draw_noise()
        j = self._noise_row
        self._noise_row = j + 1
        # ideal * gain + offset: the same two IEEE operations, the second in place.
        power = self._ideal_rows[src] * self._gain[j]
        power += self._offset[j]
        return (_bits(power >= self.rx_threshold) & self.ledger.alive_bits
                & ~(self._air_bits | 1 << src))

    def _mark_collisions(self, new: _Transmission):
        # A frame on air that shares no candidate with the new one and whose
        # candidates miss the new sender is untouched. The loop only ORs sets
        # and sums counts, so the dict's order changes nothing.
        cand = new.candidates
        src_bit = 1 << new.frame.src
        probe = cand | src_bit
        collisions = 0
        for tr in self._inflight.values():
            other = tr.candidates
            if not other & probe:
                continue
            both = cand & other
            if both:
                collisions += both.bit_count()
                tr.lost |= both
                new.lost |= both
            # The new sender cannot keep listening to an ongoing frame.
            tr.lost |= other & src_bit
        self.collisions += collisions

    def _handle_tx_end(self, ev):
        tr = ev.payload
        frame = tr.frame
        src = frame.src
        del self._inflight[src]
        self._air_bits ^= 1 << src
        ledger = self.ledger
        # A receiver's own charges are the only ones that can kill it, and
        # they come after its turn, so the live set can be taken up front.
        receivers = tr.candidates & ~tr.lost & ledger.alive_bits
        delivered = []
        rx_cost = self.cfg.e_rx_per_bit * frame.size_bits
        idle = self.cfg.e_idle_per_s
        residual = ledger.residual
        spent_rx = ledger.spent["rx"]
        while receivers:   # lowest bit first: ascending node id
            low = receivers & -receivers
            receivers ^= low
            node = low.bit_length() - 1
            if idle:
                self.settle_idle(node)
            left = residual[node]
            if rx_cost < left:
                # EnergyLedger.charge's own arithmetic for a debit that
                # leaves the node alive.
                residual[node] = left - rx_cost
                spent_rx[node] += rx_cost
            elif ledger.charge(node, "rx", rx_cost) < rx_cost:
                continue  # died mid-reception
            delivered.append(node)
        # Unicast bookkeeping before the handlers run, so the network sees
        # failures in channel order.
        if frame.dst != BROADCAST and frame.dst not in delivered:
            self.on_frame_lost(frame, "undelivered")
        self.frames_delivered += len(delivered)
        deliver = self.deliver
        for node in delivered:
            deliver(node, frame)
        # The aired frame is still its sender's queue head (only this cycle
        # dequeues); the sender moves on to its next queued frame.
        self._queues[src].popleft()
        self._attempt(src)
