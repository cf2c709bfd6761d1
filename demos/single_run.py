"""One full simulation, inspected: summary metrics, event counters, and a
look inside a routing table after the ants have converged."""

from antwsn.config import SimConfig
from antwsn.simulation import Simulation

cfg = SimConfig(protocol="ieeabr", nodes=49, layout="grid", scenario="static",
                duration=100.0, traffic_rate=0.5, ant_interval=2.0, seed=42)

sim = Simulation(cfg)
print(f"ieeabr on a 7x7 grid, sink bound to node {sim.sink_node}, 100 s")
result = sim.run()

print(f"\ngenerated {result.generated} events, delivered {result.delivered} "
      f"({result.success_rate_pct:.1f}%)")
print(f"mean latency   {result.latency_s:.4f} s")
print(f"energy         {result.energy_j:.3f} J over the whole network")
print(f"efficiency     {result.efficiency_kbit_per_j:.3f} kbit/J")
print(f"events         {result.dispatched_events} dispatched, "
      f"trace {result.trace_sha256[:16]}...")

print("\nselected counters:")
for key in ("fwd_ants_launched", "fwd_ants_arrived", "fwd_ants_deferred",
            "bwd_ants_completed", "frames_sent", "collisions"):
    print(f"  {key:<22} {result.counters.get(key, 0)}")

# the sink's neighbors should hold most of their column mass on it
neighbor = sim.topology.neighbors[sim.sink_node][0]
table = sim.protocol.tables[neighbor]
print(f"\nrouting table of node {neighbor} (a sink neighbor), toward the sink:")
for nb in table.neighbors:
    tau = table.get(nb)
    tag = "  <- the sink" if nb == sim.sink_node else ""
    print(f"  toward {nb:>2}: {tau:.4f}{tag}")

lowest = min(result.residuals)
print(f"\nresiduals: min {lowest:.3f} J of {cfg.energy_budget:.0f} J budget; "
      f"books balance to {result.conservation_rel_gap:.1e} relative")
