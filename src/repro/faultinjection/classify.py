"""Functional-failure criteria.

The paper classifies a fault-injection run as a functional failure when "the
final received packages contained payload corruption or the circuit stopped
sending or receiving data".  :class:`PacketInterfaceCriterion` expresses
exactly this over the packet receive interface:

* any deviation of the valid strobe pattern (missing, extra or shifted
  beats — covers "stopped sending or receiving data"), or
* a data/SOP/EOP mismatch on a cycle where a beat is presented ("payload
  corruption").

Criteria are *bound* to a simulator once (resolving net names to indices)
and then evaluated per cycle over all bit-parallel fault lanes at once.
Binding and evaluation only need the
:class:`~repro.sim.backend.SimBackend` surface: evaluation uses ``& | ^``
on lane vectors (Python ints on the compiled backend).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..netlist.core import Netlist
from ..sim.backend import SimBackend

__all__ = [
    "FailureCriterion",
    "PacketInterfaceCriterion",
    "AnyOutputCriterion",
    "BoundCriterion",
]


class BoundCriterion:
    """A criterion resolved against a specific simulator's net indices."""

    def __init__(
        self,
        valid_pairs: Sequence[Tuple[int, int]],
        data_pairs: Sequence[Tuple[int, int]],
    ) -> None:
        # Each pair is (simulator value index, golden output bit position).
        self._valid = list(valid_pairs)
        self._data = list(data_pairs)

    @property
    def valid_pairs(self) -> List[Tuple[int, int]]:
        """Strobe (value-index, golden-bit) pairs; any deviation fails."""
        return list(self._valid)

    @property
    def data_pairs(self) -> List[Tuple[int, int]]:
        """Payload (value-index, golden-bit) pairs; checked on beat cycles."""
        return list(self._data)

    def evaluate(self, values, golden_outputs: int, mask):
        """Per-lane failure mask for one cycle.

        ``values`` is the simulator's net-value array after combinational
        settle (lane vectors in the backend's native representation);
        ``golden_outputs`` the packed golden output vector for the same
        cycle.  Returns a lane vector of failing lanes.
        """
        fail = 0
        beat_any = 0
        for sim_idx, gold_bit in self._valid:
            golden = mask if (golden_outputs >> gold_bit) & 1 else 0
            faulty = values[sim_idx]
            fail |= faulty ^ golden
            beat_any |= golden | faulty
        for sim_idx, gold_bit in self._data:
            golden = mask if (golden_outputs >> gold_bit) & 1 else 0
            fail |= (values[sim_idx] ^ golden) & beat_any
        return fail & mask


class FailureCriterion:
    """Base class: defines which output deviations count as failures."""

    def observable_nets(self) -> List[str]:
        """Outputs whose deviation can constitute a failure."""
        raise NotImplementedError

    def bind(self, netlist: Netlist, sim: SimBackend) -> BoundCriterion:
        raise NotImplementedError


@dataclass
class PacketInterfaceCriterion(FailureCriterion):
    """The paper's criterion over a packet (stream) interface.

    Parameters
    ----------
    valid_nets:
        Strobe outputs; any mismatch against golden is a failure.
    data_nets:
        Payload/flag outputs; mismatches count only on cycles where either
        the golden or the faulty run presents a beat.
    """

    valid_nets: List[str]
    data_nets: List[str]

    def observable_nets(self) -> List[str]:
        return list(self.valid_nets) + list(self.data_nets)

    def bind(self, netlist: Netlist, sim: SimBackend) -> BoundCriterion:
        out_bit = {name: i for i, name in enumerate(netlist.outputs)}
        valid_pairs = [(sim.net_index[n], out_bit[n]) for n in self.valid_nets]
        data_pairs = [(sim.net_index[n], out_bit[n]) for n in self.data_nets]
        return BoundCriterion(valid_pairs, data_pairs)


@dataclass
class AnyOutputCriterion(FailureCriterion):
    """Strictest criterion: any primary-output deviation is a failure.

    Useful for small circuits without a packet interface (the circuit zoo)
    and as an upper bound in ablation studies.
    """

    nets: List[str]

    @classmethod
    def all_outputs(cls, netlist: Netlist) -> "AnyOutputCriterion":
        return cls(nets=list(netlist.outputs))

    def observable_nets(self) -> List[str]:
        return list(self.nets)

    def bind(self, netlist: Netlist, sim: SimBackend) -> BoundCriterion:
        out_bit = {name: i for i, name in enumerate(netlist.outputs)}
        valid_pairs = [(sim.net_index[n], out_bit[n]) for n in self.nets]
        return BoundCriterion(valid_pairs, [])
