"""Show the two node layouts and how the sink gets bound to a node.

The random layout scales its square so node density stays constant: 49 nodes
on a 140 m side, 100 nodes on a 200 m side, and so on.
"""

import math

from antwsn.kernel import RandomStream
from antwsn.scenario import make_grid, make_random_square, make_trajectory


def describe(name, topo):
    degrees = [len(nb) for nb in topo.neighbors]
    print(f"{name}: {topo.n} nodes, side {topo.side:.1f} m")
    print(f"  neighbor count: min {min(degrees)}, "
          f"max {max(degrees)}, mean {sum(degrees) / len(degrees):.2f}")


def grid_layout():
    topo = make_grid(49, spacing=20.0, tx_radius=35.0)
    describe("7x7 grid, 20 m spacing", topo)
    corner, center = topo.neighbors[0], topo.neighbors[24]
    print(f"  corner node sees {len(corner)} neighbors, "
          f"center node sees {len(center)} (radius covers diagonals)\n")


def random_layouts():
    for n in (49, 100):
        topo = make_random_square(n, RandomStream(11, f"topo{n}"), 35.0, 1000)
        describe(f"random square, {n} nodes", topo)
        print(f"  density {n / topo.side ** 2 * 1e4:.2f} nodes per 100x100 m\n")


def sink_binding():
    topo = make_grid(49, spacing=20.0, tx_radius=35.0)
    mob = RandomStream(11, "mobility")
    point = (mob.uniform() * topo.side, mob.uniform() * topo.side)
    host = topo.nearest_node(point)
    print("static scenario: collection point drawn uniformly, nearest node hosts")
    print(f"  point ({point[0]:.1f}, {point[1]:.1f}) -> node {host} at "
          f"{tuple(round(float(c), 1) for c in topo.positions[host])}\n")


def orbit():
    topo = make_grid(49, spacing=20.0, tx_radius=35.0)
    traj = make_trajectory(topo.side, duration=100.0,
                           rng=RandomStream(11, "mobility"),
                           radius_frac=0.25)
    print("dynamic scenario: the sink orbits the field center, one revolution")
    samples = []
    for t in (0.0, 25.0, 50.0, 75.0, 100.0):
        x, y = traj.position(t)
        samples.append(f"t={t:>5.0f}s ({x:6.1f},{y:6.1f})")
    print("  " + "  ".join(samples))
    a, b = traj.position(0.0), traj.position(100.0)
    print(f"  closes the loop within {math.hypot(a[0] - b[0], a[1] - b[1]):.2e} m")


if __name__ == "__main__":
    grid_layout()
    random_layouts()
    sink_binding()
    orbit()
