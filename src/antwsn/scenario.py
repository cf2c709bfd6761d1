"""Topology generation, sink trajectory, and traffic schedules.

Random layouts keep the reference density of 49 nodes on a 140 m square:
the side scales with sqrt(n/49) so nodes-per-square-meter stays constant.
"""

import math
from dataclasses import dataclass, field

import numpy as np

REFERENCE_NODES = 49
REFERENCE_SIDE = 140.0


class TopologyError(Exception):
    pass


@dataclass
class Topology:
    """Node positions plus the geometry derived from them once: `dist`, the
    n x n distance matrix, and `neighbors`, each node's sorted list of the
    other nodes within `tx_radius`. Routing tables and the medium's
    carrier-sense disks both read these."""

    positions: np.ndarray          # shape (n, 2), meters
    side: float
    tx_radius: float
    dist: np.ndarray = field(init=False, repr=False)
    neighbors: list = field(init=False)

    def __post_init__(self):
        pos = self.positions
        diff = pos[:, None, :] - pos[None, :, :]
        self.dist = np.sqrt((diff**2).sum(axis=2))
        within = self.dist <= self.tx_radius
        np.fill_diagonal(within, False)
        self.neighbors = [sorted(int(j) for j in np.flatnonzero(within[i]))
                          for i in range(len(pos))]

    @property
    def n(self) -> int:
        return len(self.positions)

    def nearest_node(self, point, alive_mask=None) -> int:
        """Closest node to a point; ties break toward the lowest id."""
        d = np.hypot(self.positions[:, 0] - point[0], self.positions[:, 1] - point[1])
        if alive_mask is not None:
            d = np.where(alive_mask, d, np.inf)
        return int(np.argmin(d))


def _connected(neighbors: list) -> bool:
    n = len(neighbors)
    if n == 0:
        return False
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in neighbors[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == n


def from_points(points, tx_radius: float = 35.0,
                require_connected: bool = True) -> Topology:
    """Topology from explicit coordinates; handy for hand-built fixtures.
    Its side is the largest coordinate."""
    pos = np.asarray(points, dtype=float)
    side = float(pos.max()) if pos.size else 0.0
    top = Topology(positions=pos, side=side, tx_radius=tx_radius)
    if require_connected and not _connected(top.neighbors):
        raise TopologyError("point set is not connected at this radio range")
    return top


def make_grid(n: int, spacing: float = 20.0, tx_radius: float = 35.0) -> Topology:
    """A sqrt(n) x sqrt(n) grid; spacing must keep adjacent nodes within radio reach."""
    k = math.isqrt(n)
    if k * k != n:
        raise TopologyError(f"grid layout needs a perfect square node count, got {n}")
    if spacing > tx_radius:
        raise TopologyError("grid spacing exceeds the transmission radius")
    xs, ys = np.meshgrid(np.arange(k) * spacing, np.arange(k) * spacing)
    positions = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    top = Topology(positions, side=(k - 1) * spacing, tx_radius=tx_radius)
    if not _connected(top.neighbors):
        raise TopologyError("grid is not connected at this spacing/radius")
    return top


def make_random_square(n: int, rng, tx_radius: float = 35.0,
                       max_retries: int = 1000) -> Topology:
    """Uniform i.i.d. placement on a density-preserving square, redrawn until connected."""
    if n < 2:
        raise TopologyError(f"need at least 2 nodes, got {n}")
    side = REFERENCE_SIDE * math.sqrt(n / REFERENCE_NODES)
    for _ in range(max_retries):
        positions = np.column_stack([rng.uniforms(n) * side, rng.uniforms(n) * side])
        top = Topology(positions, side=side, tx_radius=tx_radius)
        if _connected(top.neighbors):
            return top
    raise TopologyError(f"no connected placement of {n} nodes in {max_retries} draws")


@dataclass
class SinkTrajectory:
    """Circular sink path, clipped into the deployment square."""

    center: tuple
    radius: float
    angular_speed: float  # rad/s
    side: float

    def position(self, t: float) -> tuple:
        if t < 0:
            raise ValueError("time must be >= 0")
        theta = self.angular_speed * t
        x = self.center[0] + self.radius * math.cos(theta)
        y = self.center[1] + self.radius * math.sin(theta)
        x = min(max(x, 0.0), self.side)
        y = min(max(y, 0.0), self.side)
        return (x, y)


def make_trajectory(side: float, duration: float, rng,
                    radius_frac: float = 0.25) -> SinkTrajectory:
    """Random circle center, radius side*radius_frac, one revolution per run."""
    center = (rng.uniform() * side, rng.uniform() * side)
    return SinkTrajectory(center=center, radius=side * radius_frac,
                          angular_speed=2.0 * math.pi / duration, side=side)


def data_times(rate: float, duration: float, rng) -> list:
    """Poisson arrival times for one source over [0, duration)."""
    if rate <= 0:
        raise ValueError(f"traffic rate must be > 0, got {rate}")
    times = []
    t = rng.exponential(1.0 / rate)
    while t < duration:
        times.append(t)
        t += rng.exponential(1.0 / rate)
    return times


def traffic_schedule(n: int, sink_id: int | None, rate: float, duration: float, rng) -> list:
    """(time, source) pairs for every non-sink node, in node-id draw order."""
    events = []
    for node in range(n):
        if node == sink_id:
            continue
        for t in data_times(rate, duration, rng):
            events.append((t, node))
    return events
