"""NanGate FreePDK45-like standard-cell library.

The paper synthesizes the 10GE MAC core onto the NanGate FreePDK45 Open Cell
Library.  This module provides the equivalent in-repo substrate: a small but
realistic standard-cell library with combinational gates, sequential elements
and tie cells, each available in several drive strengths.

Logic functions are expressed as *bit-parallel* operations on Python integers:
every bit lane of the integer is an independent simulation run.  ``mask``
selects the active lanes (``mask = (1 << n_lanes) - 1``) and is required to
keep Python's infinite-precision complement (``~``) bounded.

Example
-------
>>> lib = default_library()
>>> nand2 = lib["NAND2"]
>>> nand2.evaluate([0b1100, 0b1010], mask=0b1111)
7
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Sequence, Tuple

__all__ = [
    "CellKind",
    "CellType",
    "CellLibrary",
    "default_library",
    "DRIVE_STRENGTHS",
]

#: Drive strengths available for every cell, mirroring NanGate's X1/X2/X4.
DRIVE_STRENGTHS: Tuple[int, ...] = (1, 2, 4)


class CellKind:
    """Enumeration of cell categories used by netlist tooling."""

    COMBINATIONAL = "combinational"
    SEQUENTIAL = "sequential"
    TIE = "tie"


LogicFunction = Callable[[Sequence[int], int], int]


def _fn_inv(inputs: Sequence[int], mask: int) -> int:
    return ~inputs[0] & mask


def _fn_buf(inputs: Sequence[int], mask: int) -> int:
    return inputs[0] & mask


def _fn_and(inputs: Sequence[int], mask: int) -> int:
    value = mask
    for term in inputs:
        value = value & term
    return value


def _fn_nand(inputs: Sequence[int], mask: int) -> int:
    return ~_fn_and(inputs, mask) & mask


def _fn_or(inputs: Sequence[int], mask: int) -> int:
    value = 0
    for term in inputs:
        value |= term
    return value & mask


def _fn_nor(inputs: Sequence[int], mask: int) -> int:
    return ~_fn_or(inputs, mask) & mask


def _fn_xor(inputs: Sequence[int], mask: int) -> int:
    value = 0
    for term in inputs:
        value ^= term
    return value & mask


def _fn_xnor(inputs: Sequence[int], mask: int) -> int:
    return ~_fn_xor(inputs, mask) & mask


def _fn_mux2(inputs: Sequence[int], mask: int) -> int:
    # MUX2(A, B, S) = S ? B : A
    a, b, s = inputs
    return ((a & ~s) | (b & s)) & mask


def _fn_aoi21(inputs: Sequence[int], mask: int) -> int:
    # AOI21(A, B, C) = !((A & B) | C)
    a, b, c = inputs
    return ~((a & b) | c) & mask


def _fn_aoi22(inputs: Sequence[int], mask: int) -> int:
    a, b, c, d = inputs
    return ~((a & b) | (c & d)) & mask


def _fn_oai21(inputs: Sequence[int], mask: int) -> int:
    # OAI21(A, B, C) = !((A | B) & C)
    a, b, c = inputs
    return ~((a | b) & c) & mask


def _fn_oai22(inputs: Sequence[int], mask: int) -> int:
    a, b, c, d = inputs
    return ~((a | b) & (c | d)) & mask


def _fn_tie0(inputs: Sequence[int], mask: int) -> int:
    return 0


def _fn_tie1(inputs: Sequence[int], mask: int) -> int:
    return mask


@dataclass(frozen=True)
class CellType:
    """A standard-cell archetype (e.g. ``NAND2``), drive-strength agnostic.

    Attributes
    ----------
    name:
        Library name of the cell, such as ``"NAND2"``.
    inputs:
        Ordered input pin names.
    outputs:
        Ordered output pin names (all library cells are single-output).
    kind:
        One of :class:`CellKind`.
    function:
        Bit-parallel logic function for combinational and tie cells; ``None``
        for sequential cells whose behaviour lives in the simulator.
    area:
        Relative cell area at drive strength X1, loosely based on NanGate.
    """

    name: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    kind: str = CellKind.COMBINATIONAL
    function: LogicFunction | None = None
    area: float = 1.0

    def evaluate(self, input_values: Sequence[int], mask: int) -> int:
        """Evaluate the cell's logic function over bit-parallel lanes."""
        if self.function is None:
            raise ValueError(f"cell type {self.name!r} has no combinational function")
        if len(input_values) != len(self.inputs):
            raise ValueError(
                f"cell type {self.name!r} expects {len(self.inputs)} inputs, "
                f"got {len(input_values)}"
            )
        return self.function(input_values, mask)

    @property
    def output(self) -> str:
        """Name of the single output pin."""
        return self.outputs[0]

    @property
    def is_sequential(self) -> bool:
        return self.kind == CellKind.SEQUENTIAL

    @property
    def is_tie(self) -> bool:
        return self.kind == CellKind.TIE


@dataclass
class CellLibrary:
    """A named collection of :class:`CellType` entries.

    The library behaves like a read-only mapping from type name to
    :class:`CellType` and additionally knows which drive strengths are legal.
    """

    name: str
    cell_types: Dict[str, CellType] = field(default_factory=dict)
    drive_strengths: Tuple[int, ...] = DRIVE_STRENGTHS

    def add(self, cell_type: CellType) -> None:
        if cell_type.name in self.cell_types:
            raise ValueError(f"duplicate cell type {cell_type.name!r}")
        self.cell_types[cell_type.name] = cell_type

    def __getitem__(self, name: str) -> CellType:
        return self.cell_types[name]

    def __contains__(self, name: str) -> bool:
        return name in self.cell_types

    def __iter__(self):
        return iter(self.cell_types.values())

    def __len__(self) -> int:
        return len(self.cell_types)

    def get(self, name: str, default: CellType | None = None) -> CellType | None:
        return self.cell_types.get(name, default)

    def sequential_types(self) -> Tuple[CellType, ...]:
        return tuple(ct for ct in self if ct.is_sequential)

    def combinational_types(self) -> Tuple[CellType, ...]:
        return tuple(ct for ct in self if ct.kind == CellKind.COMBINATIONAL)

    def full_name(self, type_name: str, drive: int) -> str:
        """Return the NanGate-style instance type name, e.g. ``NAND2_X2``."""
        if drive not in self.drive_strengths:
            raise ValueError(f"unsupported drive strength X{drive}")
        return f"{type_name}_X{drive}"

    def parse_full_name(self, full_name: str) -> Tuple[str, int]:
        """Split ``NAND2_X2`` into ``("NAND2", 2)``.

        Names without a drive suffix default to drive strength 1.
        """
        base, sep, suffix = full_name.rpartition("_X")
        if sep and suffix.isdigit() and base in self.cell_types:
            return base, int(suffix)
        if full_name in self.cell_types:
            return full_name, 1
        raise KeyError(f"unknown cell type {full_name!r}")


def _combinational(name: str, pins: Sequence[str], fn: LogicFunction, area: float) -> CellType:
    return CellType(
        name=name,
        inputs=tuple(pins),
        outputs=("Z",),
        kind=CellKind.COMBINATIONAL,
        function=fn,
        area=area,
    )


def default_library() -> CellLibrary:
    """Build the default NanGate FreePDK45-like library.

    Sequential cells:

    ``DFF``
        Positive-edge D flip-flop; pins ``D``, ``CK`` -> ``Q``.
    ``DFFR``
        D flip-flop with synchronous active-low reset; pins ``D``, ``RN``,
        ``CK`` -> ``Q``.  (NanGate's reset is asynchronous; under the
        cycle-based simulators used here the distinction is unobservable
        because reset is only toggled on clock boundaries.)
    """
    lib = CellLibrary(name="freepdk45ish")

    lib.add(_combinational("INV", ("A",), _fn_inv, area=0.53))
    lib.add(_combinational("BUF", ("A",), _fn_buf, area=0.80))
    for width in (2, 3, 4):
        pins = tuple("ABCD"[:width])
        scale = 0.4 * width
        lib.add(_combinational(f"AND{width}", pins, _fn_and, area=0.8 + scale))
        lib.add(_combinational(f"NAND{width}", pins, _fn_nand, area=0.5 + scale))
        lib.add(_combinational(f"OR{width}", pins, _fn_or, area=0.8 + scale))
        lib.add(_combinational(f"NOR{width}", pins, _fn_nor, area=0.5 + scale))
    lib.add(_combinational("XOR2", ("A", "B"), _fn_xor, area=1.6))
    lib.add(_combinational("XNOR2", ("A", "B"), _fn_xnor, area=1.6))
    lib.add(_combinational("MUX2", ("A", "B", "S"), _fn_mux2, area=1.9))
    lib.add(_combinational("AOI21", ("A", "B", "C"), _fn_aoi21, area=1.1))
    lib.add(_combinational("AOI22", ("A", "B", "C", "D"), _fn_aoi22, area=1.3))
    lib.add(_combinational("OAI21", ("A", "B", "C"), _fn_oai21, area=1.1))
    lib.add(_combinational("OAI22", ("A", "B", "C", "D"), _fn_oai22, area=1.3))

    lib.add(
        CellType(
            name="TIE0",
            inputs=(),
            outputs=("Z",),
            kind=CellKind.TIE,
            function=_fn_tie0,
            area=0.3,
        )
    )
    lib.add(
        CellType(
            name="TIE1",
            inputs=(),
            outputs=("Z",),
            kind=CellKind.TIE,
            function=_fn_tie1,
            area=0.3,
        )
    )

    lib.add(
        CellType(
            name="DFF",
            inputs=("D", "CK"),
            outputs=("Q",),
            kind=CellKind.SEQUENTIAL,
            function=None,
            area=4.5,
        )
    )
    lib.add(
        CellType(
            name="DFFR",
            inputs=("D", "RN", "CK"),
            outputs=("Q",),
            kind=CellKind.SEQUENTIAL,
            function=None,
            area=5.2,
        )
    )
    return lib


#: Module-level singleton used by most of the code base.
DEFAULT_LIBRARY = default_library()
