"""Deterministic discrete-event simulator for ant-colony routing in
wireless sensor networks.

Six protocols (basic ant routing, its sensor-gradient and flooding variants,
flooded-data routing, and two energy-aware pheromone schemes) run over one
radio/MAC/energy model so their latency, delivery, energy, and efficiency
can be compared under identical seeds.
"""

from .config import ConfigError, SimConfig, load_config
from .harness import (ExperimentPlan, ResultTable, cell_seed, load_plan,
                      run_experiment)
from .kernel import RandomStream, SchedulingError, Simulator
from .metrics import RunMetrics
from .protocols import PROTOCOLS, make_protocol
from .radio import (EnergyLedger, Frame, Medium, ideal_reception,
                    perturbed_reception)
from .routing import Ant, AntCache, RoutingError, RoutingTable, TripModel
from .scenario import (SinkTrajectory, Topology, TopologyError, from_points,
                       make_grid, make_random_square, make_trajectory)
from .simulation import RunResult, Simulation, run_single

__version__ = "0.1.0"

__all__ = [
    "Ant", "AntCache", "ConfigError", "EnergyLedger", "ExperimentPlan",
    "Frame", "Medium", "PROTOCOLS", "RandomStream", "ResultTable",
    "RoutingError", "RoutingTable", "RunMetrics", "RunResult",
    "SchedulingError", "SimConfig", "Simulation", "Simulator",
    "SinkTrajectory", "Topology", "TopologyError", "TripModel", "cell_seed",
    "from_points", "ideal_reception", "load_config", "load_plan", "make_grid",
    "make_protocol", "make_random_square", "make_trajectory",
    "perturbed_reception", "run_experiment", "run_single",
]
