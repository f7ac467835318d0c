"""Logic-value algebra for the simulators.

Two representations are used across the code base:

* **Three-valued scalars** (:data:`ZERO`, :data:`ONE`, :data:`X`) for the
  event-driven simulator, where unknown start-up state must propagate.
* **Bit-parallel integers** for the compiled cycle simulator, where every bit
  lane of a Python integer is an independent two-valued simulation run (the
  trick that makes the paper's 170-injections-per-flip-flop campaign
  tractable in pure Python).
"""

from __future__ import annotations

from itertools import product
from operator import itemgetter
from typing import Dict, Sequence, Tuple

from ..netlist.cells import CellType

__all__ = [
    "ZERO",
    "ONE",
    "X",
    "LogicValue",
    "resolve3",
    "eval3",
    "lane_mask",
    "broadcast",
    "extract_lane",
    "gather_bits",
    "popcount",
]

ZERO = 0
ONE = 1
#: The unknown value of three-valued simulation.
X = 2

LogicValue = int

_VALID = (ZERO, ONE, X)


def lane_mask(n_lanes: int) -> int:
    """All-ones mask covering *n_lanes* bit lanes."""
    if n_lanes < 1:
        raise ValueError("need at least one lane")
    return (1 << n_lanes) - 1


def broadcast(bit: int, mask: int) -> int:
    """Replicate a scalar 0/1 across every lane of *mask*."""
    return mask if bit else 0


def extract_lane(value: int, lane: int) -> int:
    """Read one lane out of a bit-parallel value."""
    return (value >> lane) & 1


def gather_bits(value: int, lanes: Sequence[int], width: int) -> int:
    """Bit *j* of the result is lane ``lanes[j]`` of *value* (``value >= 0``).

    The lane-compaction primitive, done with C-level string slicing instead
    of a per-lane shift loop: *value* is rendered once as a binary string
    (zero-padded to at least *width* — the vector's lane count — digits and
    reversed so index = lane), one :func:`operator.itemgetter` call picks
    the lanes' digits, and ``int(…, 2)`` packs them back.  Lanes at or
    above *width* still read correctly (as *value*'s bits, or 0).
    """
    if not lanes:
        return 0
    digits = format(value, f"0{width}b")[::-1]
    try:
        picked = itemgetter(*lanes)(digits)
    except IndexError:  # a lane above both *width* and value's top bit: reads 0
        return gather_bits(value, lanes, max(lanes) + 1)
    return int("".join(picked)[::-1], 2)


def popcount(value: int) -> int:
    """Number of set bits (lanes) in *value*."""
    return bin(value).count("1")


def resolve3(values: Sequence[LogicValue]) -> LogicValue:
    """Resolve multiple three-valued contributions (wired, for buses).

    Agreeing drivers keep their value; disagreement or any X yields X.
    """
    result = None
    for value in values:
        if value == X:
            return X
        if result is None:
            result = value
        elif result != value:
            return X
    return X if result is None else result


_EVAL3_CACHE: Dict[Tuple[str, Tuple[LogicValue, ...]], LogicValue] = {}


def eval3(ctype: CellType, inputs: Sequence[LogicValue]) -> LogicValue:
    """Evaluate a combinational cell under three-valued inputs.

    Exact X-propagation: the unknown inputs are enumerated over both binary
    assignments; if every assignment produces the same output the gate masks
    the unknowns (e.g. ``AND2(0, X) == 0``), otherwise the output is X.
    """
    inputs = tuple(inputs)
    for value in inputs:
        if value not in _VALID:
            raise ValueError(f"invalid logic value {value!r}")
    key = (ctype.name, inputs)
    cached = _EVAL3_CACHE.get(key)
    if cached is not None:
        return cached
    x_positions = [i for i, v in enumerate(inputs) if v == X]
    if not x_positions:
        result = ctype.evaluate(list(inputs), mask=1)
    else:
        outcomes = set()
        scratch = list(inputs)
        for assignment in product((ZERO, ONE), repeat=len(x_positions)):
            for pos, bit in zip(x_positions, assignment):
                scratch[pos] = bit
            outcomes.add(ctype.evaluate(scratch, mask=1))
            if len(outcomes) > 1:
                break
        result = outcomes.pop() if len(outcomes) == 1 else X
    _EVAL3_CACHE[key] = result
    return result
