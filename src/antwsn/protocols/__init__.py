"""Protocol registry: six ant-routing strategies behind one interface."""

from .babr import BABR, PathReinforceProtocol, reinforce, reinforcement_factor
from .base import DataPacket, Protocol
from .eeabr import (EEABR, evaporate_deposit, selection_weights, trail_deposit,
                    visibility)
from .ff import FF, should_broadcast
from .fp import FP
from .ieeabr import (IEEABR, AntQuota, redistribute_column, sink_adjacent_split,
                     sink_adjacent_split_exact)
from .sc import SC, initial_distribution

PROTOCOLS = {cls.name: cls for cls in (BABR, SC, FF, FP, EEABR, IEEABR)}


def make_protocol(name: str, sim) -> Protocol:
    try:
        cls = PROTOCOLS[name]
    except KeyError:
        raise ValueError(f"unknown protocol {name!r}; choices: {sorted(PROTOCOLS)}") from None
    return cls(sim)
