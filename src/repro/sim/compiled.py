"""Compiled, levelized, bit-parallel cycle simulator.

This is the reference production backend of the simulation substrate (see
:mod:`repro.sim.backend` for the :class:`SimBackend` protocol and the
registry).  The netlist's combinational logic is levelized (topologically
ordered) once and translated into a single generated Python function — one
statement per gate, operating on Python integers whose bit lanes are
independent simulation runs.  A clock ``tick`` latches every flip-flop
simultaneously (two-phase: all next states are computed before any Q is
updated).

With *n* lanes, one pass of the generated code simulates *n* circuit
instances at once.  Because every gate evaluation is a CPython big-int
operation, cost grows with the integer width: the sweet spot is a few
hundred lanes (the campaign default is 256), which is what makes the paper's
full flat campaign (≈1054 flip-flops × 170 injections) feasible in pure
Python.  For whole injection sweeps use the fused kernel
(:mod:`repro.sim.fused`), which inlines the same gate templates.

Clock handling is cycle-based: clock nets are forced to 0 and every call to
:meth:`CompiledSimulator.tick` represents one rising edge.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..netlist.core import Cell, Netlist, NetlistError
from .backend import PackedLaneMixin
from .logic import broadcast, gather_bits, lane_mask

__all__ = [
    "CompiledSimulator",
    "build_eval_source",
    "cached_codegen",
    "cached_eval_fn",
]

# Expression templates per library cell type; {o} output index, {i0}.. inputs.
_TEMPLATES: Dict[str, str] = {
    "INV": "v[{o}] = ~v[{i0}] & m",
    "BUF": "v[{o}] = v[{i0}]",
    "AND2": "v[{o}] = v[{i0}] & v[{i1}]",
    "AND3": "v[{o}] = v[{i0}] & v[{i1}] & v[{i2}]",
    "AND4": "v[{o}] = v[{i0}] & v[{i1}] & v[{i2}] & v[{i3}]",
    "NAND2": "v[{o}] = ~(v[{i0}] & v[{i1}]) & m",
    "NAND3": "v[{o}] = ~(v[{i0}] & v[{i1}] & v[{i2}]) & m",
    "NAND4": "v[{o}] = ~(v[{i0}] & v[{i1}] & v[{i2}] & v[{i3}]) & m",
    "OR2": "v[{o}] = v[{i0}] | v[{i1}]",
    "OR3": "v[{o}] = v[{i0}] | v[{i1}] | v[{i2}]",
    "OR4": "v[{o}] = v[{i0}] | v[{i1}] | v[{i2}] | v[{i3}]",
    "NOR2": "v[{o}] = ~(v[{i0}] | v[{i1}]) & m",
    "NOR3": "v[{o}] = ~(v[{i0}] | v[{i1}] | v[{i2}]) & m",
    "NOR4": "v[{o}] = ~(v[{i0}] | v[{i1}] | v[{i2}] | v[{i3}]) & m",
    "XOR2": "v[{o}] = v[{i0}] ^ v[{i1}]",
    "XNOR2": "v[{o}] = ~(v[{i0}] ^ v[{i1}]) & m",
    "MUX2": "v[{o}] = (v[{i0}] & ~v[{i2}] | v[{i1}] & v[{i2}]) & m",
    "AOI21": "v[{o}] = ~((v[{i0}] & v[{i1}]) | v[{i2}]) & m",
    "AOI22": "v[{o}] = ~((v[{i0}] & v[{i1}]) | (v[{i2}] & v[{i3}])) & m",
    "OAI21": "v[{o}] = ~((v[{i0}] | v[{i1}]) & v[{i2}]) & m",
    "OAI22": "v[{o}] = ~((v[{i0}] | v[{i1}]) & (v[{i2}] | v[{i3}])) & m",
    "TIE0": "v[{o}] = 0",
    "TIE1": "v[{o}] = m",
}


def build_eval_source(
    netlist: Netlist,
    net_index: Mapping[str, int],
    fallback_cells: List[Tuple[Callable, int, Tuple[int, ...]]],
) -> str:
    """Generate the combinational-settle function source for *netlist*.

    Returns the source of ``_eval(v, m, fb)``: one statement per gate in
    levelized order, reading and writing ``v[i]`` lane vectors (Python
    integers) under the all-ones mask ``m``.  Cells without a template are
    appended to *fallback_cells* as ``(function, out_index, in_indices)``
    and dispatched through ``fb``.
    """
    lines = ["def _eval(v, m, fb):"]
    for cell_name in netlist.topological_comb_order():
        cell = netlist.cells[cell_name]
        out = net_index[cell.output_net()]
        ins = [net_index[n] for n in cell.input_nets()]
        template = _TEMPLATES.get(cell.ctype.name)
        if template is None:
            idx = len(fallback_cells)
            fallback_cells.append((cell.ctype.function, out, tuple(ins)))
            lines.append(
                f"    v[{out}] = fb[{idx}][0]([v[i] for i in fb[{idx}][2]], m)"
            )
            continue
        fields = {"o": out}
        for pos, in_idx in enumerate(ins):
            fields[f"i{pos}"] = in_idx
        lines.append("    " + template.format(**fields))
    if len(lines) == 1:
        lines.append("    pass")
    return "\n".join(lines)


# ------------------------------------------------------------ codegen cache
#
# Source generation and ``compile()`` are O(cells) and dominate simulator
# construction on large netlists (at the 10k-FF generated composites they
# cost seconds).  Every simulator built for the same netlist generates the
# *same* source — the net index is the netlist's own deterministic
# enumeration — so the compiled code objects are cached per netlist and
# per function (settle, tick).  Keyed weakly: dropping the last netlist
# reference drops its code objects.
# ``exec`` of a cached code object only materializes a function object,
# which is orders of magnitude cheaper than parsing the source again.

_CODEGEN_CACHE: "weakref.WeakKeyDictionary[Netlist, Dict[tuple, object]]" = (
    weakref.WeakKeyDictionary()
)


def _cache_for(netlist: Netlist) -> Dict[tuple, object]:
    cache = _CODEGEN_CACHE.get(netlist)
    if cache is None:
        cache = {}
        _CODEGEN_CACHE[netlist] = cache
    return cache


def cached_eval_fn(
    netlist: Netlist,
    net_index: Mapping[str, int],
    fallback_cells: List[Tuple[Callable, int, Tuple[int, ...]]],
) -> Callable:
    """Compile-once-per-netlist variant of :func:`build_eval_source` + exec.

    The generated source bakes fallback-dispatch indices starting at 0, so
    *fallback_cells* must be the (empty) per-instance table the returned
    function will be called with; the cached fallback entries are re-extended
    into it.  The cell/net counts in the key guard against a netlist mutated
    after its code was cached.
    """
    key = ("eval", len(netlist.cells), len(netlist.nets))
    cache = _cache_for(netlist)
    entry = cache.get(key)
    if entry is None:
        fresh: List[Tuple[Callable, int, Tuple[int, ...]]] = []
        source = build_eval_source(netlist, net_index, fresh)
        code = compile(source, f"<repro-eval:{netlist.name}>", "exec")
        entry = (code, tuple(fresh))
        cache[key] = entry
    code, entries = entry
    fallback_cells.extend(entries)
    namespace: Dict[str, object] = {}
    exec(code, namespace)  # noqa: S102 - generated from our own netlist
    return namespace["_eval"]  # type: ignore[return-value]


def cached_codegen(
    netlist: Netlist, key: tuple, fn_name: str, build_source: Callable[[], str]
) -> Callable:
    """Per-netlist cached compile of a generated function (the tick).

    *build_source* is only invoked on a cache miss; the returned function is
    a fresh object bound to a fresh namespace, so instances never share
    state through it.
    """
    cache = _cache_for(netlist)
    code = cache.get(key)
    if code is None:
        code = compile(build_source(), f"<repro-{fn_name}:{netlist.name}>", "exec")
        cache[key] = code
    namespace: Dict[str, object] = {}
    exec(code, namespace)  # noqa: S102 - generated from our own netlist
    return namespace[fn_name]  # type: ignore[return-value]


class CompiledSimulator(PackedLaneMixin):
    """Cycle-based bit-parallel simulator for a mapped :class:`Netlist`.

    Parameters
    ----------
    netlist:
        The design to simulate.  Must validate (no combinational cycles).
    n_lanes:
        Number of parallel simulation lanes (bits per net value).

    Notes
    -----
    The evaluation/tick order expected by callers is::

        sim.reset()
        for cycle in range(n):
            sim.set_input(...)        # drive primary inputs
            sim.eval_comb()           # settle combinational logic
            ... observe outputs ...
            sim.tick()                # rising clock edge

    After mutating flip-flop state directly (:meth:`flip_ff`,
    :meth:`load_ff_state_packed`), call :meth:`eval_comb` before observing
    nets.
    """

    #: Registry name under which :func:`repro.sim.backend.create_backend`
    #: builds this class.
    name = "compiled"

    def __init__(self, netlist: Netlist, n_lanes: int = 1) -> None:
        netlist.validate()
        self.netlist = netlist
        self.n_lanes = n_lanes
        self.mask = lane_mask(n_lanes)

        self.net_index: Dict[str, int] = {}
        for i, name in enumerate(netlist.nets):
            self.net_index[name] = i
        self.values: List[int] = [0] * len(self.net_index)

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

    # ------------------------------------------------------------ compiling

    def _compile_eval(self) -> Callable[[List[int], int, list], None]:
        return cached_eval_fn(self.netlist, self.net_index, self._fallback_cells)

    def _build_tick_source(self) -> str:
        lines = ["def _tick(v, m):"]
        assigns = []
        for i, (q, d, rn) in enumerate(zip(self._ff_q, self._ff_d, self._ff_rn)):
            if rn is None:
                lines.append(f"    t{i} = v[{d}]")
            else:
                lines.append(f"    t{i} = v[{d}] & v[{rn}]")
            assigns.append(f"    v[{q}] = t{i}")
        lines.extend(assigns)
        if not self._ff_q:
            lines.append("    pass")
        return "\n".join(lines)

    def _compile_tick(self) -> Callable[[List[int], int], None]:
        key = ("tick", len(self.netlist.cells))
        return cached_codegen(self.netlist, key, "_tick", self._build_tick_source)

    # -------------------------------------------------------------- control

    def resize_lanes(self, n_lanes: int) -> None:
        """Change the number of parallel lanes.

        The generated code is lane-count independent (the mask is threaded
        through), so resizing is O(nets): values are cleared to avoid stale
        bits from wider previous runs.  Reload state afterwards.
        """
        self.n_lanes = n_lanes
        self.mask = lane_mask(n_lanes)
        for i in range(len(self.values)):
            self.values[i] = 0

    def reset(self, ff_value: int = 0) -> None:
        """Zero all nets and force every flip-flop output to *ff_value*."""
        fill = broadcast(ff_value, self.mask)
        for i in range(len(self.values)):
            self.values[i] = 0
        for q in self._ff_q:
            self.values[q] = fill
        self.eval_comb()

    def set_input(self, name: str, bit: int) -> None:
        """Drive primary input *name* with a scalar 0/1 on every lane."""
        self.values[self.net_index[name]] = broadcast(bit, self.mask)

    def set_input_lanes(self, name: str, value: int) -> None:
        """Drive primary input *name* with a per-lane bit-parallel value."""
        self.values[self.net_index[name]] = value & self.mask

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
        """Bit-parallel value of a net (after :meth:`eval_comb`)."""
        return self.values[self.net_index[net_name]]

    def get_bit(self, net_name: str, lane: int = 0) -> int:
        """Value of a net on one lane."""
        return (self.values[self.net_index[net_name]] >> lane) & 1

    # ------------------------------------------------------- flip-flop state

    def ff_state_packed(self, lane: int = 0) -> int:
        """State of every flip-flop in one lane, packed one bit per FF.

        Bit *i* of the result is the Q value of ``netlist.flip_flops()[i]``.
        """
        packed = 0
        values = self.values
        for i, q in enumerate(self._ff_q):
            packed |= ((values[q] >> lane) & 1) << i
        return packed

    def load_ff_state_packed(self, packed: int) -> None:
        """Broadcast a packed single-lane FF state onto every lane."""
        mask = self.mask
        values = self.values
        for i, q in enumerate(self._ff_q):
            values[q] = mask if (packed >> i) & 1 else 0

    def flip_ff(self, ff: str | int, lanes: int) -> None:
        """XOR the Q output of a flip-flop on the selected *lanes*.

        This is the SEU injection primitive: it emulates the simulator
        command the paper uses to invert the value stored in a flip-flop.
        """
        index = self.ff_index[ff] if isinstance(ff, str) else ff
        self.values[self._ff_q[index]] ^= lanes & self.mask

    def ff_divergence(self, golden_packed: int) -> int:
        """Per-lane mask of lanes whose FF state differs from *golden_packed*."""
        diff = 0
        values = self.values
        mask = self.mask
        for i, q in enumerate(self._ff_q):
            golden = mask if (golden_packed >> i) & 1 else 0
            diff |= values[q] ^ golden
            if diff == mask:
                break
        return diff

    # --------------------------------------------------------- lane algebra
    #
    # For this backend a lane vector IS a Python int, so the SimBackend lane
    # algebra collapses to (near-)identities; they exist so fault-simulation
    # code can stay generic over the lane representation.

    def broadcast(self, bit: int) -> int:
        """Lane vector with every lane equal to *bit*."""
        return self.mask if bit else 0

    def lane_vec(self, lane: int) -> int:
        """Lane vector with only *lane* set."""
        return 1 << lane

    def read_vec(self, value_idx: int) -> int:
        """Value of net row *value_idx* (ints are immutable: no copy needed)."""
        return self.values[value_idx]

    def vec_to_int(self, vec: int) -> int:
        """Packed per-lane mask of *vec* (already an int here)."""
        return vec & self.mask

    def vec_any(self, vec: int) -> bool:
        """True if any active lane of *vec* is set."""
        return bool(vec & self.mask)

    def vec_is_full(self, vec: int) -> bool:
        """True if every active lane of *vec* is set."""
        return (vec & self.mask) == self.mask

    def gather_lanes(self, vec: int, lanes: Sequence[int]) -> int:
        """Pack the selected lanes of *vec* into a dense Python-int mask.

        Bit *j* of the result is lane ``lanes[j]`` of *vec* — the compaction
        primitive: surviving lanes gathered here and scattered into a
        narrower batch preserve their per-lane state exactly.
        """
        return gather_bits(vec, lanes, self.n_lanes)

    def scatter_lanes(self, vec: int, lanes: Sequence[int], bits: int) -> int:
        """Copy of *vec* with lane ``lanes[j]`` set to bit *j* of *bits*.

        The inverse of :meth:`gather_lanes`; used to drop repacked or
        freshly activated per-lane state into an existing lane vector
        without disturbing the other lanes.
        """
        for j, lane in enumerate(lanes):
            bit = 1 << lane
            if (bits >> j) & 1:
                vec |= bit
            else:
                vec &= ~bit
        return vec & self.mask

    def diverging_rows(
        self,
        row_golden: Sequence[Tuple[int, int]],
        active: int,
    ) -> int:
        """Active-lane divergence of value rows against broadcast golden bits.

        *row_golden* is a sequence of ``(value_idx, golden_bit)`` pairs.
        Returns the union of diverging lanes: active lanes where any row
        differs from its golden bit — the retirement probe the adaptive
        scheduler runs at every check.
        """
        diff = 0
        values = self.values
        mask = self.mask
        for idx, bit in row_golden:
            diff |= (values[idx] ^ (mask if bit else 0)) & active
        return diff

    # ----------------------------------------------------------------- misc

    @property
    def n_flip_flops(self) -> int:
        """Number of flip-flops in the design (lane-state width)."""
        return len(self.flip_flops)
