"""Cycle-simulation substrate: the :class:`SimBackend` protocol.

Everything above the simulators — testbenches, the fault injector, the
campaign engine, the differential harness — drives a *cycle backend* through
the same small surface: drive inputs, settle combinational logic, observe
nets, clock the registers, and manipulate flip-flop state per lane.  This
module names that surface (:class:`SimBackend`) and keeps the registry that
maps backend names to implementations:

``compiled``
    :class:`~repro.sim.compiled.CompiledSimulator` — generated Python code,
    one statement per gate, lanes packed into the bits of a Python integer.
    The only cycle backend: golden traces, forcing fault models (stuck-at,
    intermittent) and SET sweeps all run on it.
``fused``
    Not a cycle backend: :class:`~repro.sim.fused.FusedSweepKernel`
    code-generates one specialized function per (circuit, workload) that
    runs an *entire injection sweep* — stimulus replay, gate evaluation,
    failure classification, loopback taps and early retirement — in a
    single pass with net values held in Python locals.  It is selected
    through :class:`~repro.faultinjection.injector.FaultInjector`
    (``backend="fused"``), never instantiated via :func:`create_backend`.

Lane algebra
------------
Fault-simulation code is written against a *lane vector*: a value
supporting ``& | ^ ~`` (a Python ``int`` on the compiled backend).  The
protocol methods :meth:`SimBackend.broadcast`, :meth:`SimBackend.lane_vec`,
:meth:`SimBackend.read_vec`, :meth:`SimBackend.vec_to_int`,
:meth:`SimBackend.vec_any` and :meth:`SimBackend.vec_is_full` are the only
places a consumer touches that representation.  The adaptive injection
scheduler adds three more ops to the algebra:
:meth:`SimBackend.gather_lanes` / :meth:`SimBackend.scatter_lanes` move
individual lanes between vectors (lane compaction and mixed-cycle refill),
and :meth:`SimBackend.diverging_rows` probes many net rows against golden
bits at once (the early-retirement test).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..netlist.core import Cell, Netlist

__all__ = [
    "SimBackend",
    "PackedLaneMixin",
    "BACKEND_NAMES",
    "CYCLE_BACKENDS",
    "available_backends",
    "create_backend",
]

#: Every backend selectable through ``--backend`` / ``FaultInjector``.
BACKEND_NAMES: Tuple[str, ...] = ("compiled", "fused")

#: Backends that implement the full :class:`SimBackend` cycle protocol
#: (``fused`` operates at sweep granularity instead).
CYCLE_BACKENDS: Tuple[str, ...] = ("compiled",)


@runtime_checkable
class SimBackend(Protocol):
    """Structural interface of a bit-parallel cycle simulator.

    Implementations simulate *n_lanes* independent two-valued circuit
    instances per pass.  All lane-mask arguments and return values of the
    ``*_packed``/``*_int`` methods are plain Python integers (bit *j* = lane
    *j*) regardless of the backend's internal lane representation.
    """

    #: Registry name of the backend (``"compiled"``).
    name: str
    netlist: "Netlist"
    n_lanes: int
    #: All-ones lane vector in the backend's native representation.
    mask: object
    #: Net name -> index into :attr:`values`.
    net_index: Dict[str, int]
    #: Per-net lane vectors, indexed by :attr:`net_index`.  Rows may be
    #: *assigned* (``values[i] = vec``) with backend-native vectors; use
    #: :meth:`read_vec` instead of reading rows that will be stored.
    values: object
    flip_flops: List["Cell"]
    ff_index: Dict[str, int]

    # ------------------------------------------------------------- control
    def reset(self, ff_value: int = 0) -> None: ...
    def resize_lanes(self, n_lanes: int) -> None: ...
    def set_input(self, name: str, bit: int) -> None: ...
    def set_input_lanes(self, name: str, value: int) -> None: ...
    def apply_inputs(self, assignments: Mapping[str, int]) -> None: ...
    def eval_comb(self) -> None: ...
    def tick(self) -> None: ...

    # ----------------------------------------------------------- observing
    def get(self, net_name: str) -> int: ...
    def get_bit(self, net_name: str, lane: int = 0) -> int: ...
    def output_vector(self, lane: int = 0) -> int: ...

    # ------------------------------------------------------ flip-flop state
    def ff_state_packed(self, lane: int = 0) -> int: ...
    def load_ff_state_packed(self, packed: int) -> None: ...
    def flip_ff(self, ff: "str | int", lanes: int) -> None: ...

    # --------------------------------------------------------- lane algebra
    def broadcast(self, bit: int) -> object:
        """A lane vector with every lane set to *bit* (fresh, safe to keep)."""
        ...

    def lane_vec(self, lane: int) -> object:
        """A lane vector with only *lane* set."""
        ...

    def read_vec(self, value_idx: int) -> object:
        """Copy of ``values[value_idx]`` that later writes cannot alias."""
        ...

    def vec_to_int(self, vec: object) -> int:
        """Collapse a lane vector to a packed Python-int lane mask."""
        ...

    def vec_any(self, vec: object) -> bool:
        """True if any active lane of *vec* is set."""
        ...

    def vec_is_full(self, vec: object) -> bool:
        """True if every active lane of *vec* is set."""
        ...

    def gather_lanes(self, vec: object, lanes: "Sequence[int]") -> int:
        """Pack lanes ``lanes[j]`` of *vec* into bit *j* of a Python int.

        The lane-compaction primitive: the adaptive injection scheduler
        gathers the per-lane state of surviving lanes before repacking a
        drained batch into a narrower one (see
        :mod:`repro.faultinjection.scheduler`).
        """
        ...

    def scatter_lanes(self, vec: object, lanes: "Sequence[int]", bits: int) -> object:
        """Copy of *vec* with lane ``lanes[j]`` set to bit *j* of *bits*.

        Inverse of :meth:`gather_lanes`; writes repacked or freshly
        activated per-lane state into a lane vector without touching the
        other lanes.
        """
        ...

    def diverging_rows(
        self, row_golden: "Sequence[Tuple[int, int]]", active: object
    ) -> object:
        """Active-lane divergence of value rows vs. broadcast golden bits.

        For ``(value_idx, golden_bit)`` pairs returns the lane vector of
        active lanes where any row deviates — the scheduler's retirement
        probe.
        """
        ...


class PackedLaneMixin:
    """Representation-independent conveniences shared by cycle backends.

    Every method here is written purely against the :class:`SimBackend`
    surface (``set_input`` / ``get_bit`` / ``eval_comb`` / ``tick``), so
    backends inherit one definition instead of keeping copies that could
    drift apart.
    """

    def apply_inputs(self, assignments: Mapping[str, int]) -> None:
        """Drive several inputs with scalar values at once."""
        for name, bit in assignments.items():
            self.set_input(name, bit)

    def step(self, assignments: Mapping[str, int] | None = None) -> None:
        """Convenience: drive inputs, settle logic, clock the registers."""
        if assignments:
            self.apply_inputs(assignments)
        self.eval_comb()
        self.tick()

    def get_word(self, bus: str, width: int, lane: int = 0) -> int:
        """Read nets ``bus[0] .. bus[width-1]`` of one lane as an integer."""
        word = 0
        for bit in range(width):
            word |= self.get_bit(f"{bus}[{bit}]", lane) << bit
        return word

    def set_word(self, bus: str, width: int, value: int) -> None:
        """Drive input nets ``bus[0..width-1]`` from an integer (broadcast)."""
        for bit in range(width):
            self.set_input(f"{bus}[{bit}]", (value >> bit) & 1)

    def output_vector(self, lane: int = 0) -> int:
        """All primary outputs of one lane, packed in ``netlist.outputs`` order."""
        packed = 0
        for j, name in enumerate(self.netlist.outputs):
            packed |= self.get_bit(name, lane) << j
        return packed


def _make_compiled(netlist: "Netlist", n_lanes: int) -> SimBackend:
    from .compiled import CompiledSimulator

    return CompiledSimulator(netlist, n_lanes=n_lanes)


_FACTORIES: Dict[str, Callable[["Netlist", int], SimBackend]] = {
    "compiled": _make_compiled,
}


def available_backends() -> List[str]:
    """Names of the instantiable cycle backends."""
    return sorted(_FACTORIES)


def create_backend(name: str, netlist: "Netlist", n_lanes: int = 1) -> SimBackend:
    """Instantiate the cycle backend *name* for *netlist*.

    ``"fused"`` is rejected here on purpose: the fused engine is a sweep
    kernel bound to a (circuit, workload) pair, not a free-standing cycle
    simulator — select it via ``FaultInjector(..., backend="fused")``.
    """
    factory = _FACTORIES.get(name)
    if factory is None:
        if name == "fused":
            raise ValueError(
                "'fused' is a sweep-level engine; select it through "
                "FaultInjector(backend='fused') instead of create_backend()"
            )
        raise ValueError(f"unknown backend {name!r}; available: {available_backends()}")
    return factory(netlist, n_lanes)
