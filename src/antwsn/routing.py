"""Per-node routing state shared by every protocol: the next-hop table
toward the sink, the weighted next-hop draw, ant bookkeeping, and the
adaptive trip-time model.

Every node reports to one sink, so a table is a single column: one weight
per neighbor as the next hop toward whichever node hosts the sink. A table
without a fresh mass is a probability table: its column is kept normalized
to 1 (checked to 1e-9). A fresh mass makes a pheromone table, which only
requires nonnegative entries and is normalized on the fly when sampling.
"""

import math
from collections import deque
from dataclasses import dataclass, field

PROBABILITY = "probability"
PHEROMONE = "pheromone"

SINK = "sink"   # destination label in dumped rows: whichever node hosts the sink

NORM_TOL = 1e-9


def weighted_pick(weights, u: float) -> int | None:
    """Index drawn from non-negative weights using a single uniform u in [0,1).

    The last strictly positive weight absorbs any floating-point shortfall.
    None when no weight is positive: nothing is eligible.
    """
    total = 0.0
    for w in weights:
        if w < 0:
            raise ValueError("negative weight")
        total += w
    target = u * total
    acc = 0.0
    last_positive = None
    for i, w in enumerate(weights):
        if w > 0:
            acc += w
            last_positive = i
            if target < acc:
                return i
    return last_positive


class RoutingError(Exception):
    pass


class RoutingTable:
    """One weight per neighbor, in `column`, for that neighbor as the next
    hop toward the sink. The table owns its column: every write goes
    through `set`, which checks the entry, or `set_column`, which checks the
    whole column before it lands.

    The fresh column has equal entries, so it samples uniformly. Without a
    `fresh_mass` the table is a probability table, 1/n each and kept
    normalized. A `fresh_mass` makes it a pheromone table of that mass
    each, which pins the per-entry scale so deposits register against the
    prior. `mode` names the kind.
    """

    def __init__(self, neighbors, fresh_mass=None):
        if fresh_mass is not None and fresh_mass <= 0:
            raise RoutingError("fresh_mass must be > 0")
        self.neighbors = list(neighbors)
        if not self.neighbors:
            raise RoutingError("node has no neighbors")
        self.mode = PROBABILITY if fresh_mass is None else PHEROMONE
        self.index = {n: i for i, n in enumerate(self.neighbors)}  # neighbor -> column slot
        fresh = 1.0 / len(self.neighbors) if fresh_mass is None else fresh_mass
        self.column = [float(fresh)] * len(self.neighbors)

    def get(self, neighbor) -> float:
        return self.column[self.index[neighbor]]

    def set(self, neighbor, value: float):
        if value < 0:
            raise RoutingError("table entries must be >= 0")
        self.column[self.index[neighbor]] = value

    def set_column(self, values):
        """Replace the column with `values`, once they pass the checks; a
        rejected column leaves the table as it was."""
        column = [float(v) for v in values]
        if len(column) != len(self.neighbors):
            raise RoutingError("column length does not match neighbor count")
        if any(v < 0 for v in column):
            raise RoutingError("table entries must be >= 0")
        self.normalize_check(column)
        self.column = column

    def normalize_check(self, column=None):
        """A probability table's column, or `column` in its place, must sum
        to 1 within NORM_TOL."""
        if self.mode != PROBABILITY:
            return
        s = math.fsum(self.column if column is None else column)
        if abs(s - 1.0) > NORM_TOL:
            raise RoutingError(f"column sums to {s!r}, expected 1")

    def sample(self, u: float, exclude=()) -> int | None:
        """Draw a neighbor proportionally to the column weights.

        `u` is a uniform [0,1) variate supplied by the caller so table logic
        stays deterministic and RNG-free. Excluded neighbors get weight zero.
        None when exclusion leaves no positive weight: a dead end, which the
        caller resolves. A column with no positive weight at all is broken,
        and raises.
        """
        weights = self.column
        if exclude:
            weights = list(weights)
            index = self.index
            for n in exclude:
                i = index.get(n)
                if i is not None:
                    weights[i] = 0.0
        i = weighted_pick(weights, u)
        if i is not None:
            return self.neighbors[i]
        if exclude and any(w > 0 for w in self.column):
            return None
        raise RoutingError("no positive weight toward the sink")

    def rows(self):
        """Yield (neighbor, SINK, value) for dumping, in neighbor order."""
        for n, v in zip(self.neighbors, self.column):
            yield n, SINK, v


@dataclass(slots=True)
class Flood:
    """One flood's state, shared by every copy of its ant: `seen`, the int
    bitset of nodes that have seen it (bit i = node i), and `packet`, the
    `DataPacket` a data flood hauls (None on a forward-ant flood).

    A node forks and rebroadcasts a flood only on its first sight of it, and
    the sink never rebroadcasts, so every copy's path holds distinct nodes.
    No time window can replace this: under MAC queueing a duplicate copy
    reaches a node tens of seconds after its first one. Only the flood's
    copies hold the record (frames queued or on air, pending rebroadcasts,
    backward ants), so it is freed with the last of them.
    """
    packet: object = None
    seen: int = 0


@dataclass
class Ant:
    """A forward agent riding inside frames.

    `path` records the (node, time) hops so far, the current node last; its
    length is the hop count. Full-path protocols exclude every visited node,
    the pheromone family only the last two. `flood` is the `Flood` that every
    copy of a flooded ant shares, None on a walking ant.
    """
    uid: int
    path: list = field(default_factory=list)
    e_min: float = math.inf
    e_sum: float = 0.0
    e_count: int = 0
    flood: Flood | None = None

    def visit(self, node: int, time: float):
        self.path.append((node, time))

    def fork(self) -> "Ant":
        """Copy for one receiver of a flood: its own path, the same flood."""
        return Ant(self.uid, list(self.path), self.e_min, self.e_sum, self.e_count, self.flood)

    def record_energy(self, residual: float):
        if residual < self.e_min:
            self.e_min = residual
        self.e_sum += residual
        self.e_count += 1

    @property
    def e_avg(self) -> float:
        if self.e_count == 0:
            return 0.0
        return self.e_sum / self.e_count

    def path_nodes(self) -> list:
        return [n for n, _ in self.path]


class AntCache:
    """Per-node memory of forward ants that passed through.

    Serves two duties: an ant seen twice before its record expires is looping
    and must die, and a backward ant consults the record to retrace the
    forward path one hop upstream.

    A record is (previous node, expiry time). The timeout is fixed and the
    clock never goes back, so keeping records in insertion order keeps them
    in expiry order, and `expire` only looks at the front. Expiry, not the
    horizon, bounds the size: eeabr calls `expire` at each forward-ant
    arrival, after which a node holds only the last `timeout` seconds' ants.
    """

    def __init__(self, timeout: float):
        if timeout <= 0:
            raise RoutingError("cache timeout must be > 0")
        self.timeout = timeout
        self._records: dict = {}

    def expire(self, now: float):
        records = self._records
        while records:
            uid = next(iter(records))
            if records[uid][1] > now:
                return
            del records[uid]

    def seen(self, ant_uid: int, now: float) -> bool:
        return self.lookup(ant_uid, now) is not None

    def remember(self, ant_uid: int, previous: int, now: float):
        """Record the node the ant arrived from (-1 at its source)."""
        self._records.pop(ant_uid, None)   # a re-remembered uid moves to the back
        self._records[ant_uid] = (previous, now + self.timeout)

    def lookup(self, ant_uid: int, now: float):
        """The node the ant arrived from, or None once its record expired."""
        rec = self._records.get(ant_uid)
        if rec is None or rec[1] <= now:
            return None
        return rec[0]

    def forget(self, ant_uid: int):
        self._records.pop(ant_uid, None)

    def __len__(self):
        return len(self._records)


class TripModel:
    """Running estimate of trip time to the sink through recent samples.

    Keeps an exponentially adapted mean/variance pair plus a sliding window
    of the last few raw observations; the window minimum is the best trip
    seen recently and anchors the lower confidence bound.
    """

    def __init__(self, eta: float, window: int, conf_gamma: float):
        if not (0 < eta < 1):
            raise RoutingError("eta must lie in (0, 1)")
        if window < 1:
            raise RoutingError("window must be >= 1")
        if not (0 < conf_gamma < 1):
            raise RoutingError("conf_gamma must lie in (0, 1)")
        self.eta = eta
        self.z = 1.0 / math.sqrt(1.0 - conf_gamma)
        self.window: deque = deque(maxlen=window)
        self.mu = None
        self.var = 0.0

    def observe(self, trip: float):
        if trip < 0:
            raise RoutingError("trip time must be >= 0")
        if self.mu is None:
            # first sample seeds the estimate directly
            self.mu = trip
            self.var = 0.0
        else:
            old_mu = self.mu
            self.mu += self.eta * (trip - self.mu)
            self.var += self.eta * ((trip - old_mu) ** 2 - self.var)
        self.window.append(trip)

    @property
    def w_best(self) -> float:
        if not self.window:
            raise RoutingError("no observations yet")
        return min(self.window)

    def confidence_bounds(self) -> tuple:
        """(lower, upper) trip-time interval from the current window."""
        if self.mu is None:
            raise RoutingError("no observations yet")
        lo = self.w_best
        hi = self.mu + self.z * math.sqrt(max(self.var, 0.0)) / math.sqrt(len(self.window))
        return lo, hi
