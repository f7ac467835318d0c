"""Fault models: the pluggable registry of injectable disturbance types.

The paper's campaign injects Single-Event Upsets: "the fault injection
mechanism is implemented by inverting the value stored in a flip-flop using
a simulator function", at random times "during the active phase of the
simulation".  That single-bit model is one entry of a registry that mirrors
the circuit-workload registry: every :class:`FaultModel` names itself, can
enumerate its injectable sites on a netlist, and compiles each (site, cycle)
injection into a deterministic :class:`InjectionPlan` that both the
bit-parallel engines and the independent brute-force oracle replay —
so every registered model is covered by the differential fuzz harness
(``python -m repro.experiments verify``).

Registered models
-----------------
``seu``
    The paper's Single-Event Upset: invert one flip-flop at one cycle.
``mbu``
    Spatially-correlated Multi-Bit Upset: flip a seeded cluster of
    flip-flops drawn from the anchor's structural neighborhood (the
    symmetric closure of :func:`repro.netlist.levelize.ff_spread_masks`,
    a placement proxy — flip-flops wired together sit together).  One
    cluster is one lane; ``size=1`` degenerates to the exact SEU.
``stuck0`` / ``stuck1``
    Persistent stuck-at faults: the flip-flop's output is forced to the
    value every cycle from injection to the end of the observation window.
``intermittent``
    Seeded duty-cycled forcing: the output is forced for ``on`` cycles out
    of every ``period``, with a per-(site, cycle) random phase — the
    marginal-contact / aging fault family.
``set``
    Single-Event Transient on a combinational net.  SETs are swept by
    :meth:`~repro.faultinjection.injector.FaultInjector.run_set_batch`, not
    by the flip-flop campaign engine; binding it to a campaign raises
    (see :class:`SetSweepModel` for the enforced contract).

Plans are pure functions of ``(model parameters, site, cycle)`` — no state
leaks from execution order — which is what makes scheduled, batched, fused
and oracle executions of the same injection comparable bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, Union

from ..netlist.core import Netlist
from ..netlist.levelize import ff_spread_masks

__all__ = [
    "SeuFault",
    "SetFault",
    "InjectionPlan",
    "FaultModel",
    "BoundFaultModel",
    "FaultModelError",
    "SeuModel",
    "MbuModel",
    "StuckAtModel",
    "IntermittentModel",
    "SetSweepModel",
    "register_fault_model",
    "available_fault_models",
    "parse_fault_model",
    "canonical_fault_model",
    "ff_adjacency",
]


@dataclass(frozen=True)
class SeuFault:
    """A Single-Event Upset: invert flip-flop *ff_name* at *cycle*.

    The flip is applied to the flip-flop's Q output at the start of the
    cycle, before the cycle's combinational settle — equivalent to the
    upset having corrupted the latched state on the preceding edge.
    """

    ff_name: str
    cycle: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"SEU({self.ff_name} @ {self.cycle})"


@dataclass(frozen=True)
class SetFault:
    """A Single-Event Transient on a combinational net.

    Transients are subject to electrical and temporal de-rating before ever
    being latched; the paper (and this reproduction) evaluates Functional
    De-Rating for latched upsets, so SETs never enter the statistical
    flip-flop campaign.  They are exercised only by the dedicated sweep
    path :meth:`~repro.faultinjection.injector.FaultInjector.run_set_batch`
    — a contract the registry enforces: ``parse_fault_model("set")``
    resolves, but binding it to a flip-flop campaign raises
    :class:`FaultModelError`.
    """

    net_name: str
    cycle: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"SET({self.net_name} @ {self.cycle})"


# --------------------------------------------------------------------- plans


@dataclass(frozen=True)
class InjectionPlan:
    """One injection, compiled to engine-executable form.

    ``flips`` are flip-flop indices whose Q is inverted once, at the start
    of the injection cycle (before that cycle's combinational settle).
    ``forces`` are ``(ff_index, value)`` pairs re-asserted on the lane every
    *duty-on* cycle of the observation window; the duty cycle is
    ``on_cycles`` out of every ``period`` starting at ``phase`` (stuck-at
    faults are the degenerate ``period == on_cycles == 1`` case, i.e.
    always on).  A plan is a pure value: replaying it on any engine — or on
    the brute-force oracle — yields the same fault.
    """

    flips: Tuple[int, ...] = ()
    forces: Tuple[Tuple[int, int], ...] = ()
    period: int = 1
    on_cycles: int = 1
    phase: int = 0

    @property
    def persistent(self) -> bool:
        """True when the plan keeps touching state after the injection cycle
        (which disqualifies its lane from convergence-based early
        retirement)."""
        return bool(self.forces)

    def force_active(self, offset: int) -> bool:
        """Whether the forces fire at *offset* cycles past the injection."""
        if not self.forces:
            return False
        return (offset + self.phase) % self.period < self.on_cycles


class FaultModelError(ValueError):
    """A fault-model spec string or model/engine pairing is invalid."""


# --------------------------------------------------------------------- base


class FaultModel:
    """Base of all registered fault models.

    Subclasses define ``name``, their parameter set (:meth:`params`, which
    round-trips through :meth:`spec_string` / :func:`parse_fault_model`)
    and :meth:`bind`, which specializes the model to one netlist and
    returns the :class:`BoundFaultModel` the engines consume.
    """

    #: Registry name; doubles as the spec-string head.
    name: str = "?"
    #: Whether plans carry per-cycle forcing.  Forcing needs the cycle
    #: substrate's re-force hook, so the injector routes these models off
    #: the fused sweep kernel.
    has_forces: bool = False
    #: Whether the model targets flip-flops (the statistical campaign).
    #: SET sweeps target combinational nets and set this to False.
    supports_ff_campaign: bool = True

    def params(self) -> Dict[str, int]:
        """The model's parameters, as they appear in the spec string."""
        return {}

    def spec_string(self) -> str:
        """Canonical ``name:key=value,...`` form (sorted keys).

        This is the model's cache identity: two spellings that parse to the
        same parameters share campaign-store and dataset-cache entries.
        """
        params = self.params()
        if not params:
            return self.name
        return self.name + ":" + ",".join(f"{k}={params[k]}" for k in sorted(params))

    def enumerate_sites(self, netlist: Netlist) -> List[str]:
        """Injectable site names on *netlist* (flip-flops by default)."""
        return [ff.name for ff in netlist.flip_flops()]

    def bind(self, netlist: Netlist) -> "BoundFaultModel":
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.spec_string()!r})"


class BoundFaultModel:
    """A fault model specialized to one netlist.

    The single engine-facing surface: :meth:`plan` compiles a (site, cycle)
    injection to an :class:`InjectionPlan`, and :meth:`apply` is the
    packed-state transform of the plan's flips (the protocol's
    ``apply(state, lane)`` — used by the oracle and by tests that reason
    about states directly).
    """

    def __init__(
        self,
        model: FaultModel,
        netlist: Netlist,
        plan_fn: Callable[[int, int], InjectionPlan],
    ) -> None:
        self.model = model
        self.netlist = netlist
        self._plan_fn = plan_fn

    @property
    def name(self) -> str:
        return self.model.name

    @property
    def has_forces(self) -> bool:
        return self.model.has_forces

    def plan(self, ff_index: int, cycle: int) -> InjectionPlan:
        """The deterministic plan for striking *ff_index* at *cycle*."""
        return self._plan_fn(ff_index, cycle)

    def apply(self, state: int, site: int, cycle: int = 0) -> int:
        """Packed flip-flop *state* with the plan's flips applied."""
        for ff in self.plan(site, cycle).flips:
            state ^= 1 << ff
        return state


# ------------------------------------------------------------------- models


class SeuModel(FaultModel):
    """The paper's single-bit upset: one flip-flop inverted at one cycle."""

    name = "seu"

    def bind(self, netlist: Netlist) -> BoundFaultModel:
        n_ffs = len(netlist.flip_flops())

        def plan(ff_index: int, cycle: int) -> InjectionPlan:
            if not 0 <= ff_index < n_ffs:
                raise IndexError(f"flip-flop index {ff_index} out of range")
            return InjectionPlan(flips=(ff_index,))

        return BoundFaultModel(self, netlist, plan)


def ff_adjacency(netlist: Netlist) -> List[int]:
    """Undirected flip-flop neighborhood masks from netlist structure.

    Bit *j* of ``adjacency[i]`` marks flip-flops *i* and *j* as neighbors
    when either feeds the other's input cone within one cycle (the
    symmetric closure of :func:`repro.netlist.levelize.ff_spread_masks`).
    With no placement data in the flow, wiring proximity is the proxy for
    spatial proximity: registers of one functional unit — a counter, a
    shift stage, a FIFO pointer — are tightly interconnected and would be
    placed together, which is exactly the neighborhood a multi-cell upset
    strikes.  Self-loops are dropped (a cluster anchor is always included
    explicitly).
    """
    spread = ff_spread_masks(netlist)
    adjacency = list(spread)
    for i, mask in enumerate(spread):
        m = mask
        while m:
            low = m & -m
            adjacency[low.bit_length() - 1] |= 1 << i
            m ^= low
    return [mask & ~(1 << i) for i, mask in enumerate(adjacency)]


def _ball(adjacency: List[int], anchor: int, radius: int) -> List[int]:
    """Flip-flops within *radius* BFS hops of *anchor* (anchor excluded)."""
    ball = 1 << anchor
    frontier = ball
    for _ in range(radius):
        grown = 0
        m = frontier
        while m:
            low = m & -m
            grown |= adjacency[low.bit_length() - 1]
            m ^= low
        grown &= ~ball
        if not grown:
            break
        ball |= grown
        frontier = grown
    ball &= ~(1 << anchor)
    members = []
    while ball:
        low = ball & -ball
        members.append(low.bit_length() - 1)
        ball ^= low
    return members


class MbuModel(FaultModel):
    """Spatially-correlated Multi-Bit Upset clusters.

    Each injection flips the anchor flip-flop plus up to ``size - 1``
    companions sampled (seeded per anchor and cycle) from the anchor's
    structural neighborhood ball of the configured ``radius`` — BFS hops
    over :func:`ff_adjacency`.  All member flips land on the same lane in
    the same cycle, so an MBU costs exactly what an SEU costs to simulate.
    """

    name = "mbu"
    has_forces = False

    def __init__(self, size: int = 3, radius: int = 1, seed: int = 0) -> None:
        if size < 1:
            raise FaultModelError(f"mbu size must be >= 1, got {size}")
        if radius < 0:
            raise FaultModelError(f"mbu radius must be >= 0, got {radius}")
        self.size = int(size)
        self.radius = int(radius)
        self.seed = int(seed)

    def params(self) -> Dict[str, int]:
        return {"size": self.size, "radius": self.radius, "seed": self.seed}

    def neighborhood(self, netlist: Netlist, anchor: int) -> List[int]:
        """Candidate companions: the BFS ball of ``radius`` around *anchor*
        (anchor excluded), in flip-flop index order."""
        return _ball(ff_adjacency(netlist), anchor, self.radius)

    def cluster(self, netlist: Netlist, anchor: int, cycle: int) -> Tuple[int, ...]:
        """The seeded cluster struck when *anchor* is hit at *cycle*."""
        candidates = self.neighborhood(netlist, anchor)
        rng = random.Random(f"mbu:{self.seed}:{anchor}:{cycle}")
        extra = self.size - 1
        chosen = rng.sample(candidates, extra) if extra < len(candidates) else candidates
        return tuple(sorted([anchor, *chosen]))

    def bind(self, netlist: Netlist) -> BoundFaultModel:
        adjacency = ff_adjacency(netlist)
        n_ffs = len(adjacency)
        balls: Dict[int, List[int]] = {}

        def neighborhood(anchor: int) -> List[int]:
            cached = balls.get(anchor)
            if cached is None:
                cached = balls[anchor] = _ball(adjacency, anchor, self.radius)
            return cached

        def plan(ff_index: int, cycle: int) -> InjectionPlan:
            if not 0 <= ff_index < n_ffs:
                raise IndexError(f"flip-flop index {ff_index} out of range")
            candidates = neighborhood(ff_index)
            rng = random.Random(f"mbu:{self.seed}:{ff_index}:{cycle}")
            extra = self.size - 1
            chosen = (
                rng.sample(candidates, extra)
                if extra < len(candidates)
                else candidates
            )
            return InjectionPlan(flips=tuple(sorted([ff_index, *chosen])))

        bound = BoundFaultModel(self, netlist, plan)
        # Re-route the convenience accessors through the bound cache.
        bound.neighborhood = neighborhood  # type: ignore[attr-defined]
        return bound


class StuckAtModel(FaultModel):
    """Persistent stuck-at fault: Q forced to a constant from injection on.

    The forcing is re-asserted at the start of every cycle of the
    observation window (before the combinational settle) on the compiled
    cycle substrate; the injector falls back from the fused sweep kernel to
    that substrate for these lanes.  Stuck lanes are
    excluded from convergence-based early retirement — a stuck bit that
    currently matches golden can still diverge later.
    """

    has_forces = True

    def __init__(self, value: int) -> None:
        if value not in (0, 1):
            raise FaultModelError(f"stuck-at value must be 0 or 1, got {value}")
        self.value = int(value)
        self.name = f"stuck{self.value}"

    def bind(self, netlist: Netlist) -> BoundFaultModel:
        n_ffs = len(netlist.flip_flops())

        def plan(ff_index: int, cycle: int) -> InjectionPlan:
            if not 0 <= ff_index < n_ffs:
                raise IndexError(f"flip-flop index {ff_index} out of range")
            return InjectionPlan(forces=((ff_index, self.value),))

        return BoundFaultModel(self, netlist, plan)


class IntermittentModel(FaultModel):
    """Seeded duty-cycled forcing: ``on`` cycles forced out of every
    ``period``, with a per-(site, cycle) random phase.

    Models marginal contacts and aging faults that assert intermittently
    rather than permanently.  The phase draw is keyed by model seed, site
    and injection cycle, so a given injection replays identically on every
    engine and on the brute-force oracle.
    """

    name = "intermittent"
    has_forces = True

    def __init__(
        self, period: int = 8, on: int = 2, value: int = 0, seed: int = 0
    ) -> None:
        if period < 1:
            raise FaultModelError(f"intermittent period must be >= 1, got {period}")
        if not 1 <= on <= period:
            raise FaultModelError(
                f"intermittent on-cycles must be in [1, period={period}], got {on}"
            )
        if value not in (0, 1):
            raise FaultModelError(f"forced value must be 0 or 1, got {value}")
        self.period = int(period)
        self.on = int(on)
        self.value = int(value)
        self.seed = int(seed)

    def params(self) -> Dict[str, int]:
        return {
            "period": self.period,
            "on": self.on,
            "value": self.value,
            "seed": self.seed,
        }

    def bind(self, netlist: Netlist) -> BoundFaultModel:
        n_ffs = len(netlist.flip_flops())

        def plan(ff_index: int, cycle: int) -> InjectionPlan:
            if not 0 <= ff_index < n_ffs:
                raise IndexError(f"flip-flop index {ff_index} out of range")
            rng = random.Random(f"intermittent:{self.seed}:{ff_index}:{cycle}")
            return InjectionPlan(
                forces=((ff_index, self.value),),
                period=self.period,
                on_cycles=self.on,
                phase=rng.randrange(self.period),
            )

        return BoundFaultModel(self, netlist, plan)


class SetSweepModel(FaultModel):
    """Single-Event Transients — the sweep-path-only registry entry.

    SETs live on combinational nets, not in registers, so the statistical
    flip-flop campaign cannot execute them; the supported path is
    :meth:`~repro.faultinjection.injector.FaultInjector.run_set_batch`,
    which forces nets during one cycle's settle and classifies latched
    corruption.  This entry exists so the registry documents *and
    enforces* that contract: :meth:`enumerate_sites` lists the sweepable
    nets, while :meth:`bind` (the campaign entry point) raises.
    """

    name = "set"
    supports_ff_campaign = False

    def enumerate_sites(self, netlist: Netlist) -> List[str]:
        """Combinational cell outputs — the nets ``run_set_batch`` sweeps."""
        ff_outputs = {ff.output_net() for ff in netlist.flip_flops()}
        return [
            cell.output_net()
            for cell in netlist.cells.values()
            if not cell.is_sequential and cell.output_net() not in ff_outputs
        ]

    def bind(self, netlist: Netlist) -> BoundFaultModel:
        raise FaultModelError(
            "the 'set' model describes combinational transients swept by "
            "FaultInjector.run_set_batch(); it cannot drive a flip-flop "
            "campaign — pick one of "
            f"{[n for n in available_fault_models() if n != 'set']}"
        )


# ----------------------------------------------------------------- registry


_REGISTRY: Dict[str, Callable[..., FaultModel]] = {}


def register_fault_model(name: str):
    """Class/factory decorator adding a model to the registry under *name*."""

    def decorate(factory: Callable[..., FaultModel]):
        _REGISTRY[name] = factory
        return factory

    return decorate


register_fault_model("seu")(SeuModel)
register_fault_model("mbu")(MbuModel)
register_fault_model("stuck0")(lambda: StuckAtModel(0))
register_fault_model("stuck1")(lambda: StuckAtModel(1))
register_fault_model("intermittent")(IntermittentModel)
register_fault_model("set")(SetSweepModel)


def available_fault_models() -> Tuple[str, ...]:
    """Registered model names, sorted."""
    return tuple(sorted(_REGISTRY))


def parse_fault_model(
    spec: Union[str, FaultModel, None]
) -> FaultModel:
    """Resolve a ``name[:key=value,...]`` spec string to a model instance.

    Accepts an already-constructed :class:`FaultModel` (returned as-is) and
    ``None`` (the default SEU model).  Parameter values are integers; keys
    must match the factory's keyword arguments.
    """
    if isinstance(spec, FaultModel):
        return spec
    if spec is None:
        return SeuModel()
    name, _, body = str(spec).partition(":")
    factory = _REGISTRY.get(name.strip())
    if factory is None:
        raise FaultModelError(
            f"unknown fault model {name!r}; available: {list(available_fault_models())}"
        )
    kwargs: Dict[str, int] = {}
    if body:
        for item in body.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise FaultModelError(
                    f"malformed fault-model parameter {item!r} in {spec!r} "
                    "(expected key=value)"
                )
            try:
                kwargs[key.strip()] = int(value)
            except ValueError:
                raise FaultModelError(
                    f"fault-model parameter {key.strip()!r} must be an integer, "
                    f"got {value!r}"
                ) from None
    try:
        return factory(**kwargs)
    except TypeError as exc:
        raise FaultModelError(
            f"invalid parameters for fault model {name!r}: {exc}"
        ) from None


def canonical_fault_model(spec: Union[str, FaultModel, None]) -> str:
    """The canonical spec string for *spec* — the cache-identity form."""
    return parse_fault_model(spec).spec_string()
