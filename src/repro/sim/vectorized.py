"""NumPy wide-batch cycle backend: thousands of lanes per gate evaluation.

The compiled backend packs lanes into one Python integer, so every generated
statement pays CPython big-int overhead proportional to the lane count and
the practical batch width tops out around a few hundred lanes.  This backend
keeps the *same generated statements* (see
:func:`repro.sim.compiled.build_eval_source`) but stores net values as rows
of a ``(n_nets, n_words)`` ``uint64`` array: lane *j* lives in bit
``j % 64`` of word ``j // 64``.  One gate statement then evaluates
``64 × n_words`` lanes in a single vectorized NumPy operation, amortizing
the per-gate interpreter dispatch across the whole lane block — lifting the
efficient lane count from "one Python int" to thousands of lanes per pass.

The backend implements the full :class:`~repro.sim.backend.SimBackend`
protocol, including the packed-int views (``get`` / ``ff_state_packed`` /
``flip_ff`` take and return plain Python lane masks), so testbenches, the
fault injector and the differential harness drive it exactly like the
compiled engine.  Results are bit-identical — enforced per fuzz seed by
:mod:`repro.verify.diff`.

Trade-off: per-operation NumPy dispatch costs ~half a microsecond, so at
small lane counts (the 1-lane golden run, few-lane differential checks) the
compiled backend is faster.  This engine wins when campaigns push hundreds
to thousands of concurrent scenarios per forward run; see
``docs/simulators.md`` and ``benchmarks/bench_substrate.py`` for measured
crossover points.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..netlist.core import Cell, Netlist
from .backend import PackedLaneMixin
from .compiled import _TEMPLATES, build_eval_source, cached_codegen, cached_eval_fn
from .logic import gather_bits, lane_mask

__all__ = ["NumPyWideSimulator", "int_to_words", "words_to_int"]

_WORD_BITS = 64

#: NumPy-specific overrides of the shared gate templates.  ``m`` is all-ones
#: on every active lane, so ``x ^ m`` equals ``~x & m`` there at one NumPy
#: operation instead of two; bits beyond ``n_lanes`` may carry garbage, which
#: every packed-int readout masks away.  MUX2 uses the xor-select identity
#: ``a ^ ((a ^ b) & s)`` (three ops, no mask needed).
_NUMPY_TEMPLATES: Dict[str, str] = dict(
    _TEMPLATES,
    INV="v[{o}] = v[{i0}] ^ m",
    NAND2="v[{o}] = (v[{i0}] & v[{i1}]) ^ m",
    NAND3="v[{o}] = (v[{i0}] & v[{i1}] & v[{i2}]) ^ m",
    NAND4="v[{o}] = (v[{i0}] & v[{i1}] & v[{i2}] & v[{i3}]) ^ m",
    NOR2="v[{o}] = (v[{i0}] | v[{i1}]) ^ m",
    NOR3="v[{o}] = (v[{i0}] | v[{i1}] | v[{i2}]) ^ m",
    NOR4="v[{o}] = (v[{i0}] | v[{i1}] | v[{i2}] | v[{i3}]) ^ m",
    XNOR2="v[{o}] = (v[{i0}] ^ v[{i1}]) ^ m",
    MUX2="v[{o}] = v[{i0}] ^ ((v[{i0}] ^ v[{i1}]) & v[{i2}])",
    AOI21="v[{o}] = ((v[{i0}] & v[{i1}]) | v[{i2}]) ^ m",
    AOI22="v[{o}] = ((v[{i0}] & v[{i1}]) | (v[{i2}] & v[{i3}])) ^ m",
    OAI21="v[{o}] = ((v[{i0}] | v[{i1}]) & v[{i2}]) ^ m",
    OAI22="v[{o}] = ((v[{i0}] | v[{i1}]) & (v[{i2}] | v[{i3}])) ^ m",
)


def int_to_words(value: int, n_words: int) -> np.ndarray:
    """Split a packed lane mask into little-endian 64-bit words."""
    return np.frombuffer(
        value.to_bytes(n_words * 8, "little"), dtype="<u8"
    ).astype(np.uint64)


def words_to_int(words: np.ndarray) -> int:
    """Join little-endian 64-bit words back into a packed lane mask."""
    return int.from_bytes(np.ascontiguousarray(words, dtype="<u8").tobytes(), "little")


class NumPyWideSimulator(PackedLaneMixin):
    """Cycle-based wide-batch simulator for a mapped :class:`Netlist`.

    Parameters
    ----------
    netlist:
        The design to simulate.  Must validate (no combinational cycles).
    n_lanes:
        Number of parallel simulation lanes.  Internally rounded up to a
        whole number of 64-bit words; only the first *n_lanes* bits are ever
        reported through the packed-int API.

    Notes
    -----
    The evaluation/tick contract is identical to
    :class:`~repro.sim.compiled.CompiledSimulator`: drive inputs,
    :meth:`eval_comb`, observe, :meth:`tick` per cycle; clock nets are
    forced to 0 (cycle-based clocking).
    """

    name = "numpy"

    def __init__(self, netlist: Netlist, n_lanes: int = 1) -> None:
        netlist.validate()
        self.netlist = netlist

        self.net_index: Dict[str, int] = {}
        for i, net_name in enumerate(netlist.nets):
            self.net_index[net_name] = i

        self.flip_flops: List[Cell] = netlist.flip_flops()
        self.ff_index: Dict[str, int] = {ff.name: i for i, ff in enumerate(self.flip_flops)}
        self._ff_q: List[int] = [self.net_index[ff.output_net()] for ff in self.flip_flops]
        self._ff_d: List[int] = [
            self.net_index[ff.connections["D"]] for ff in self.flip_flops
        ]
        self._ff_rn: List[Optional[int]] = [
            self.net_index[ff.connections["RN"]] if "RN" in ff.connections else None
            for ff in self.flip_flops
        ]
        self._clock_nets = [self.net_index[c] for c in netlist.clocks if c in self.net_index]

        self._fallback_cells: List[Tuple[Callable, int, Tuple[int, ...]]] = []
        self._eval_fn = self._compile_eval()
        self._tick_fn = self._compile_tick()

        self.n_lanes = 0
        self.n_words = 0
        self.mask = np.zeros(0, dtype=np.uint64)
        self.values = np.zeros((0, 0), dtype=np.uint64)
        self.resize_lanes(n_lanes)

    # ------------------------------------------------------------ compiling

    def _compile_eval(self):
        # Same generated statements as the compiled backend (modulo the
        # `^ m` overrides above); `v` rows are uint64 word blocks here, and
        # every `& | ^` maps to a vectorized NumPy operation over the block.
        return cached_eval_fn(
            self.netlist,
            self.net_index,
            self._fallback_cells,
            templates=_NUMPY_TEMPLATES,
            flavor="numpy",
        )

    def _build_tick_source(self) -> str:
        # Unlike the compiled backend, reading `v[d]` yields a *view*, so
        # the read phase must copy: in `t = v[d]; ...; v[q1] = t0` a view of
        # a Q row that another flip-flop's D reads (shift registers) would
        # observe the new value.  `v[d] & v[rn]` already allocates.
        lines = ["def _tick(v, m):"]
        assigns = []
        for i, (q, d, rn) in enumerate(zip(self._ff_q, self._ff_d, self._ff_rn)):
            if rn is None:
                lines.append(f"    t{i} = v[{d}].copy()")
            else:
                lines.append(f"    t{i} = v[{d}] & v[{rn}]")
            assigns.append(f"    v[{q}] = t{i}")
        lines.extend(assigns)
        if not self._ff_q:
            lines.append("    pass")
        return "\n".join(lines)

    def _compile_tick(self):
        key = ("tick", "numpy", len(self.netlist.cells))
        return cached_codegen(self.netlist, key, "_tick", self._build_tick_source)

    # ------------------------------------------------- partitioned evaluation

    def compile_partition_evals(self, partitions):
        """Compile one ``_eval``-style callable per cell partition.

        Same contract as
        :meth:`repro.sim.compiled.CompiledSimulator.compile_partition_evals`,
        generated with this backend's ``^ m`` template overrides.
        """
        fns = []
        for cells in partitions:
            source = build_eval_source(
                self.netlist,
                self.net_index,
                self._fallback_cells,
                templates=_NUMPY_TEMPLATES,
                cells=cells,
            )
            namespace: Dict[str, object] = {}
            exec(source, namespace)  # noqa: S102 - generated from our own netlist
            fns.append(namespace["_eval"])
        return fns

    def compile_gated_tick(self):
        """Compile a clock edge gated per flip-flop by a golden-write mask.

        Same contract as
        :meth:`repro.sim.compiled.CompiledSimulator.compile_gated_tick`; the
        read phase copies D rows (views would observe shifted Q writes) and
        golden bits broadcast to whole ``uint64`` lane blocks.
        """
        key = ("tick", "numpy-gated", len(self.netlist.cells))
        return cached_codegen(
            self.netlist, key, "_tick_gated", self._build_gated_tick_source
        )

    def _build_gated_tick_source(self) -> str:
        lines = ["def _tick_gated(v, m, gw, gs):", "    z = m ^ m"]
        assigns = []
        for i, (q, d, rn) in enumerate(zip(self._ff_q, self._ff_d, self._ff_rn)):
            lines.append(f"    if (gw >> {i}) & 1:")
            lines.append(f"        t{i} = m if (gs >> {i}) & 1 else z")
            lines.append("    else:")
            if rn is None:
                lines.append(f"        t{i} = v[{d}].copy()")
            else:
                lines.append(f"        t{i} = v[{d}] & v[{rn}]")
            assigns.append(f"    v[{q}] = t{i}")
        lines.extend(assigns)
        if not self._ff_q:
            lines.append("    pass")
        return "\n".join(lines)

    # -------------------------------------------------------------- control

    def resize_lanes(self, n_lanes: int) -> None:
        """Change the lane count; clears all net values (reload state after)."""
        if n_lanes < 1:
            raise ValueError("need at least one lane")
        self.n_lanes = n_lanes
        self.n_words = (n_lanes + _WORD_BITS - 1) // _WORD_BITS
        self.mask = int_to_words(lane_mask(n_lanes), self.n_words)
        self.values = np.zeros((len(self.net_index), self.n_words), dtype=np.uint64)

    def reset(self, ff_value: int = 0) -> None:
        """Zero all nets and force every flip-flop output to *ff_value*."""
        self.values[:] = 0
        if ff_value:
            for q in self._ff_q:
                self.values[q] = self.mask
        self.eval_comb()

    def set_input(self, name: str, bit: int) -> None:
        """Drive primary input *name* with a scalar 0/1 on every lane."""
        idx = self.net_index[name]
        if bit:
            self.values[idx] = self.mask
        else:
            self.values[idx] = 0

    def set_input_lanes(self, name: str, value: int) -> None:
        """Drive primary input *name* with a per-lane packed-int value."""
        self.values[self.net_index[name]] = (
            int_to_words(value & lane_mask(self.n_lanes), self.n_words)
        )

    def eval_comb(self) -> None:
        """Propagate values through the combinational logic (one full pass)."""
        for clk in self._clock_nets:
            self.values[clk] = 0
        self._eval_fn(self.values, self.mask, self._fallback_cells)

    def tick(self) -> None:
        """Rising clock edge: latch D (gated by sync RN) into every Q."""
        self._tick_fn(self.values, self.mask)

    # apply_inputs / step / get_word / set_word / output_vector come from
    # PackedLaneMixin.

    # ------------------------------------------------------------ observing

    def get(self, net_name: str) -> int:
        """Packed per-lane value of a net (after :meth:`eval_comb`)."""
        return words_to_int(self.values[self.net_index[net_name]] & self.mask)

    def get_bit(self, net_name: str, lane: int = 0) -> int:
        """Value of a net on one lane."""
        word = int(self.values[self.net_index[net_name]][lane // _WORD_BITS])
        return (word >> (lane % _WORD_BITS)) & 1

    # ------------------------------------------------------- flip-flop state

    def ff_state_packed(self, lane: int = 0) -> int:
        """State of every flip-flop in one lane, packed one bit per FF."""
        word_idx = lane // _WORD_BITS
        shift = lane % _WORD_BITS
        packed = 0
        values = self.values
        for i, q in enumerate(self._ff_q):
            packed |= ((int(values[q][word_idx]) >> shift) & 1) << i
        return packed

    def load_ff_state_packed(self, packed: int) -> None:
        """Broadcast a packed single-lane FF state onto every lane."""
        values = self.values
        mask = self.mask
        for i, q in enumerate(self._ff_q):
            if (packed >> i) & 1:
                values[q] = mask
            else:
                values[q] = 0

    def flip_ff(self, ff: str | int, lanes: int) -> None:
        """XOR the Q output of a flip-flop on the selected *lanes* (SEU)."""
        index = self.ff_index[ff] if isinstance(ff, str) else ff
        q = self._ff_q[index]
        self.values[q] ^= int_to_words(lanes & lane_mask(self.n_lanes), self.n_words)

    def ff_divergence(self, golden_packed: int) -> int:
        """Per-lane mask of lanes whose FF state differs from *golden_packed*."""
        diff = np.zeros(self.n_words, dtype=np.uint64)
        values = self.values
        mask = self.mask
        for i, q in enumerate(self._ff_q):
            golden = mask if (golden_packed >> i) & 1 else 0
            diff |= values[q] ^ golden
        return words_to_int(diff & mask)

    # --------------------------------------------------------- lane algebra

    def broadcast(self, bit: int) -> np.ndarray:
        """Fresh lane-block vector with every lane equal to *bit*."""
        if bit:
            return self.mask.copy()
        return np.zeros(self.n_words, dtype=np.uint64)

    def lane_vec(self, lane: int) -> np.ndarray:
        """Lane-block vector with only *lane* set."""
        vec = np.zeros(self.n_words, dtype=np.uint64)
        vec[lane // _WORD_BITS] = np.uint64(1) << np.uint64(lane % _WORD_BITS)
        return vec

    def read_vec(self, value_idx: int) -> np.ndarray:
        """Copy of a net row (rows are views into the value array)."""
        return self.values[value_idx].copy()

    def vec_to_int(self, vec: np.ndarray) -> int:
        """Collapse a lane-block vector to a packed Python-int lane mask."""
        return words_to_int(vec & self.mask)

    def vec_any(self, vec: np.ndarray) -> bool:
        """True if any active lane of *vec* is set."""
        return bool((vec & self.mask).any())

    def vec_is_full(self, vec: np.ndarray) -> bool:
        """True if every active lane of *vec* is set."""
        return bool(((vec & self.mask) == self.mask).all())

    def gather_lanes(self, vec: np.ndarray, lanes) -> int:
        """Pack the selected lanes of *vec* into a dense Python-int mask."""
        return gather_bits(words_to_int(vec), lanes, self.n_lanes)

    def scatter_lanes(self, vec: np.ndarray, lanes, bits: int) -> np.ndarray:
        """Copy of *vec* with lane ``lanes[j]`` set to bit *j* of *bits*."""
        packed = words_to_int(vec)
        for j, lane in enumerate(lanes):
            bit = 1 << lane
            if (bits >> j) & 1:
                packed |= bit
            else:
                packed &= ~bit
        return int_to_words(packed & lane_mask(self.n_lanes), self.n_words)

    def diverging_rows(self, row_golden, active: np.ndarray):
        """Active-lane divergence of value rows against broadcast golden bits.

        Same contract as
        :meth:`repro.sim.compiled.CompiledSimulator.diverging_rows`, computed
        as one vectorized pass over a ``(rows, n_words)`` block instead of a
        per-row Python loop.
        """
        if not row_golden:
            return self.broadcast(0), 0
        idxs = [idx for idx, _bit in row_golden]
        golden = np.zeros((len(row_golden), self.n_words), dtype=np.uint64)
        ones = np.fromiter(
            (bool(bit) for _idx, bit in row_golden), dtype=bool, count=len(row_golden)
        )
        golden[ones] = self.mask
        diff_block = (self.values[idxs] ^ golden) & active
        per_row = diff_block.any(axis=1)
        diff = np.bitwise_or.reduce(diff_block, axis=0)
        rows = int.from_bytes(np.packbits(per_row, bitorder="little").tobytes(), "little")
        return diff, rows

    # ----------------------------------------------------------------- misc

    @property
    def n_flip_flops(self) -> int:
        """Number of flip-flops in the design (lane-state width)."""
        return len(self.flip_flops)
