"""The numpy-vector radio medium as it was before receiver sets became int
bitsets: the reference that `tests/test_radio_oracle.py` compares the
production `antwsn.radio.Medium` against. Kept verbatim; do not optimise it.

Each transmission's receiver sets are numpy bool vectors here, and
`_handle_tx_end` walks them with `np.flatnonzero`.
"""

import numpy as np

from antwsn import kernel
from antwsn.config import SimConfig
from antwsn.radio import BROADCAST, EnergyLedger, Frame, ideal_reception


class _Transmission:
    __slots__ = ("frame", "t1", "candidates", "lost")

    def __init__(self, frame, t1, candidates):
        self.frame = frame
        self.t1 = t1
        self.candidates = candidates  # bool vector: audible, alive, not on air at start
        self.lost = np.zeros(len(candidates), dtype=bool)


class Medium:
    """Shared radio channel: one instance per simulation run.

    Responsibilities: carrier-sense MAC with bounded exponential backoff,
    energy debits for transmitters and every audible receiver, collision
    resolution, and delivery of surviving frames to the network layer.
    Radio, MAC and energy settings are read from `cfg`, already validated.

    MAC state is each node's frame queue plus the list of frames on the
    channel. A node is in a MAC cycle exactly when its queue is non-empty:
    the head frame is then backing off (one pending MAC_RETRY, whose payload
    carries the head's busy-sense count), about to start (one pending
    TX_START), or in `_inflight`, and it leaves the queue only in that cycle's
    handlers. A node is on air while its `_inflight` entry has `t1 > now`.

    Callbacks:
      deliver(node, frame)            -- frame survived at `node`
      on_undelivered(frame, dst_dead) -- unicast frame whose addressee got nothing
      on_mac_drop(frame, reason)      -- frame never aired ('busy', 'energy', 'dead')
    """

    def __init__(self, sim, positions, cfg: SimConfig, ledger: EnergyLedger,
                 rng_radio, rng_mac, deliver, on_undelivered, on_mac_drop):
        self.sim = sim
        self.cfg = cfg
        self.ledger = ledger
        self.rng_radio = rng_radio
        self.rng_mac = rng_mac
        self.deliver = deliver
        self.on_undelivered = on_undelivered
        self.on_mac_drop = on_mac_drop
        # None: the zero-noise audible set is exactly the tx_radius disk.
        self.rx_threshold = (cfg.rx_threshold if cfg.rx_threshold is not None else
                             ideal_reception(cfg.p_transmit, cfg.tx_radius, cfg.gamma))

        pos = np.asarray(positions, dtype=float)
        self.n = len(pos)
        diff = pos[:, None, :] - pos[None, :, :]
        self.dist = np.sqrt((diff**2).sum(axis=2))
        self.ideal = cfg.p_transmit / (1.0 + self.dist**cfg.gamma)
        # Geometric disk used for carrier sensing (deterministic by design).
        self.in_range = self.dist <= cfg.tx_radius
        np.fill_diagonal(self.in_range, False)

        self._queues = [[] for _ in range(self.n)]
        self._inflight = []
        self._last_idle = np.zeros(self.n)
        self.collisions = 0
        self.frames_sent = 0
        self.frames_delivered = 0

        sim.on(kernel.TX_START, self._handle_tx_start)
        sim.on(kernel.TX_END, self._handle_tx_end)
        sim.on(kernel.MAC_RETRY, self._handle_retry)

    # -- energy ---------------------------------------------------------

    def settle_idle(self, node: int):
        """Debit idle draw accrued since the last settlement for `node`."""
        rate = self.cfg.e_idle_per_s
        if rate == 0.0:
            return
        now = self.sim.now
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
        if not self.ledger.alive(frame.src):
            self.on_mac_drop(frame, "dead")
            return
        queue = self._queues[frame.src]
        queue.append(frame)
        if len(queue) == 1:
            self._attempt(frame.src)

    def _flush_dead(self, node):
        queue = self._queues[node]
        for frame in queue:
            self.on_mac_drop(frame, "dead")
        queue.clear()

    def _channel_busy(self, node) -> bool:
        # The sensing node's own frame is never on air here: a node senses
        # from an empty queue (send) or from its own cycle, never mid-frame.
        now = self.sim.now
        for tr in self._inflight:
            if tr.t1 > now and self.in_range[tr.frame.src, node]:
                return True
        return False

    def _attempt(self, node, attempts=0):
        """Sense the channel for the head of `node`'s queue; `attempts` counts
        the busy senses this head frame has already had."""
        if not self.ledger.alive(node):
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
                self.on_mac_drop(frame, "busy")
                queue.pop(0)
                self._attempt(node)
                return
            window = self.cfg.cw_init * (2 ** (attempts - 1))
            slots = self.rng_mac.randint(1, window)
            delay = slots * self.airtime(frame)
            self.sim.schedule(self.sim.now + delay, kernel.MAC_RETRY, (node, attempts))
            return
        self.sim.schedule(self.sim.now, kernel.TX_START, node)

    def _handle_retry(self, ev):
        self._attempt(*ev.payload)

    def _handle_tx_start(self, ev):
        # The queue is not empty: only this node's cycle dequeues, and the
        # pending TX_START is that cycle.
        node = ev.payload
        queue = self._queues[node]
        frame = queue[0]
        self.settle_idle(node)
        cost = self.cfg.e_tx_per_bit * frame.size_bits
        debited = self.ledger.charge(node, "tx", cost)
        if debited < cost:
            # Ran out of juice mid-charge: node is now dead, frame never airs.
            queue.pop(0)
            self.on_mac_drop(frame, "energy")
            self._flush_dead(node)
            return
        t1 = self.sim.now + self.airtime(frame)
        tr = _Transmission(frame, t1, self._audible(node))
        self._mark_collisions(tr)
        self._inflight.append(tr)
        self.frames_sent += 1
        self.sim.schedule(t1, kernel.TX_END, tr)

    def _audible(self, src) -> np.ndarray:
        """Who can hear this transmission: perturbed power over threshold, alive,
        not the sender, and not currently transmitting themselves."""
        cfg = self.cfg
        ideal = self.ideal[src]
        if cfg.sigma_alpha > 0.0:
            power = ideal * (1.0 + self.rng_radio.normals(cfg.sigma_alpha, self.n))
        else:
            power = ideal.copy()
        if cfg.sigma_beta > 0.0:
            power += self.rng_radio.normals(cfg.sigma_beta, self.n)
        np.maximum(power, 0.0, out=power)
        cand = (power >= self.rx_threshold) & self.ledger.alive_mask()
        cand[src] = False
        now = self.sim.now
        for tr in self._inflight:
            if tr.t1 > now:
                cand[tr.frame.src] = False
        return cand

    def _mark_collisions(self, new: _Transmission):
        now = self.sim.now
        src = new.frame.src
        for tr in self._inflight:
            if tr.t1 <= now:
                continue
            both = new.candidates & tr.candidates
            if both.any():
                self.collisions += int(both.sum())
                tr.lost |= both
                new.lost |= both
            # The new sender cannot keep listening to an ongoing frame.
            if tr.candidates[src]:
                tr.lost[src] = True

    def _handle_tx_end(self, ev):
        tr = ev.payload
        self._inflight.remove(tr)
        receivers = tr.candidates & ~tr.lost
        delivered = []
        rx_cost = self.cfg.e_rx_per_bit * tr.frame.size_bits
        for node in np.flatnonzero(receivers):
            node = int(node)
            if not self.ledger.alive(node):
                continue
            self.settle_idle(node)
            debited = self.ledger.charge(node, "rx", rx_cost)
            if debited < rx_cost:
                continue  # died mid-reception
            delivered.append(node)
        # Unicast bookkeeping before the handlers run, so the network sees
        # failures in channel order.
        frame = tr.frame
        if frame.dst != BROADCAST and frame.dst not in delivered:
            self.on_undelivered(frame, not self.ledger.alive(frame.dst))
        for node in delivered:
            self.frames_delivered += 1
            self.deliver(node, frame)
        # The aired frame is still its sender's queue head (only this cycle
        # dequeues); the sender moves on to its next queued frame.
        self._queues[frame.src].pop(0)
        self._attempt(frame.src)
