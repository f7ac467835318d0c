"""Differential verification harness.

Runs every production simulation engine and the independent reference
oracle on identical fuzzed stimulus and reports the *first divergence* as a
(net, cycle, per-backend values) record:

* **lane differential** — the cycle backend
  (:class:`~repro.sim.compiled.CompiledSimulator`) with several
  bit-parallel lanes, each lane carrying a *different* random stimulus
  stream, checked net-by-net and cycle-by-cycle against one
  :class:`~repro.verify.oracle.OracleSimulator` per lane.  This covers both
  the generated gate code and lane independence of the bit-parallel trick;
* **event differential** — :class:`~repro.sim.event.EventDrivenSimulator`
  driven by an explicit clock waveform, compared against the oracle on every
  net whose three-valued value has resolved (X before reset is expected and
  skipped, a resolved-but-different value is a divergence);
* **metamorphic fault-injection check** — every verdict of
  :meth:`~repro.faultinjection.injector.FaultInjector.run_batch` (with its
  lane packing, early retirement and reactive loopback replay) is replayed
  as a single-lane brute-force oracle re-simulation that uses none of those
  optimisations; verdict or error-latency mismatches are divergences.  The
  check runs once per enrolled injector backend — ``compiled`` and the
  ``fused`` sweep kernel — against a *shared* brute-force referee,
  so swapping substrates can never silently change campaign outcomes;
* **scheduled-vs-naive replay** — the adaptive injection scheduler
  (:class:`~repro.faultinjection.scheduler.AdaptiveScheduler`: mixed-cycle
  lane refill, compaction/repack) runs a mixed-cycle request set per
  enrolled backend and every per-injection verdict/latency is compared
  against a naive per-cycle
  :meth:`~repro.faultinjection.injector.FaultInjector.run_batch` replay of
  the same injections.  Small lane budgets force multi-pass refill and
  repack.

``verify_seed``/``verify_seeds`` tie the three together over fuzzed circuits
and are what ``python -m repro.experiments verify`` and the CI fuzz stage
drive.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..faultinjection.classify import AnyOutputCriterion
from ..faultinjection.faults import InjectionPlan
from ..faultinjection.injector import FaultInjector
from ..netlist.core import Netlist
from ..sim.backend import BACKEND_NAMES, CYCLE_BACKENDS, create_backend
from ..sim.event import EventDrivenSimulator
from ..sim.logic import ONE, X, ZERO
from ..sim.testbench import GoldenTrace, Testbench
from .fuzzer import (
    CLOCK_NET,
    FUZZ_SCALES,
    FuzzSpec,
    generate_netlist,
    generate_schedule,
    generate_testbench,
)
from .oracle import OracleSimulator

__all__ = [
    "Divergence",
    "SeedReport",
    "VerifySummary",
    "run_lane_differential",
    "run_event_differential",
    "run_injector_check",
    "run_scheduler_check",
    "run_fault_model_check",
    "brute_force_seu",
    "brute_force_fault",
    "FAULT_MODEL_CHECK_SPECS",
    "run_generated_check",
    "verify_seed",
    "verify_seeds",
]


@dataclass(frozen=True)
class Divergence:
    """First point where two engines disagree on one fuzzed circuit.

    ``values`` maps an engine label (``"compiled"``, ``"event"``,
    ``"oracle"``, ``"injector"``, ``"bruteforce"``) to the value it saw.
    ``net`` is ``None`` for whole-run disagreements (injection verdicts).
    """

    kind: str
    cycle: int
    net: Optional[str]
    values: Dict[str, object]
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f"net {self.net!r} " if self.net else ""
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(self.values.items()))
        return f"[{self.kind}] {where}cycle {self.cycle}: {pairs} {self.detail}"


@dataclass
class SeedReport:
    """Outcome of all differential checks for one fuzz seed."""

    seed: int
    n_cells: int
    n_ffs: int
    n_cycles: int
    comparisons: int = 0
    injections_checked: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


@dataclass
class VerifySummary:
    """Aggregate over a seed sweep (what the CLI and benchmark report)."""

    n_seeds: int = 0
    n_comparisons: int = 0
    n_injections_checked: int = 0
    wall_seconds: float = 0.0
    failing: List[SeedReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failing

    def comparisons_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.n_comparisons / self.wall_seconds


# ----------------------------------------------------------- lane differential


def _comparable_nets(netlist: Netlist) -> List[str]:
    """Nets worth comparing: everything except the clock roots."""
    clocks = set(netlist.clocks)
    return [name for name in netlist.nets if name not in clocks]


def run_lane_differential(
    netlist: Netlist,
    spec: FuzzSpec,
    n_lanes: int = 3,
    stop_at_first: bool = True,
    backend: str = "compiled",
) -> Tuple[List[Divergence], int]:
    """One cycle backend (one stimulus per lane) vs. one oracle per lane.

    *backend* names any cycle substrate from
    :data:`repro.sim.backend.CYCLE_BACKENDS`.  Returns ``(divergences,
    comparisons)``; with ``stop_at_first`` the run ends at the first
    mismatching (net, cycle, lane).
    """
    schedules = [generate_schedule(netlist, spec, lane=j) for j in range(n_lanes)]
    sim = create_backend(backend, netlist, n_lanes=n_lanes)
    sim.reset()
    oracles = [OracleSimulator(netlist) for _ in range(n_lanes)]
    for oracle in oracles:
        oracle.reset()

    nets = _comparable_nets(netlist)
    input_names = list(netlist.inputs)
    divergences: List[Divergence] = []
    comparisons = 0
    for cycle in range(spec.n_cycles):
        for i, name in enumerate(input_names):
            if name == CLOCK_NET:
                continue
            lanes_value = 0
            for j in range(n_lanes):
                bit = (schedules[j][cycle] >> i) & 1
                lanes_value |= bit << j
                oracles[j].set_input(name, bit)
            sim.set_input_lanes(name, lanes_value)
        sim.eval_comb()
        for oracle in oracles:
            oracle.eval_comb()
        for name in nets:
            packed = sim.get(name)
            for j in range(n_lanes):
                comparisons += 1
                got = (packed >> j) & 1
                want = oracles[j].values[name]
                if got != want:
                    divergences.append(
                        Divergence(
                            kind=f"{backend}-vs-oracle",
                            cycle=cycle,
                            net=name,
                            values={backend: got, "oracle": want},
                            detail=f"lane {j} of {n_lanes}",
                        )
                    )
                    if stop_at_first:
                        return divergences, comparisons
        sim.tick()
        for oracle in oracles:
            oracle.tick()
    return divergences, comparisons


# ---------------------------------------------------------- event differential


def run_event_differential(
    netlist: Netlist,
    spec: FuzzSpec,
    stop_at_first: bool = True,
) -> Tuple[List[Divergence], int]:
    """Event-driven engine vs. oracle on the lane-0 stimulus.

    The event engine starts every net at X (power-up before reset); a net is
    only compared once its value has resolved to 0/1.  A resolved value that
    disagrees with the oracle is a divergence — exact X-propagation can only
    resolve to the value every binary completion agrees on, and the oracle's
    all-zero power-up is one such completion.
    """
    schedule = generate_schedule(netlist, spec, lane=0)
    event = EventDrivenSimulator(netlist)
    oracle = OracleSimulator(netlist)
    oracle.reset()

    # Unit-delay settling needs one time unit per logic level; size the clock
    # period so each half-period covers the deepest cone with slack.
    depth = netlist.stats().max_logic_depth
    half = depth + 6
    period = 2 * half

    nets = _comparable_nets(netlist)
    input_names = [n for n in netlist.inputs if n != CLOCK_NET]
    input_bit = {n: i for i, n in enumerate(netlist.inputs)}
    divergences: List[Divergence] = []
    comparisons = 0
    for cycle in range(spec.n_cycles):
        t_base = cycle * period
        event.schedule(t_base, CLOCK_NET, ZERO)
        for name in input_names:
            bit = (schedule[cycle] >> input_bit[name]) & 1
            event.schedule(t_base, name, ONE if bit else ZERO)
            oracle.set_input(name, bit)
        event.run_until(t_base + half - 1)
        oracle.eval_comb()
        for name in nets:
            resolved = event.values[name]
            if resolved == X:
                continue
            comparisons += 1
            if resolved != oracle.values[name]:
                divergences.append(
                    Divergence(
                        kind="event-vs-oracle",
                        cycle=cycle,
                        net=name,
                        values={"event": resolved, "oracle": oracle.values[name]},
                    )
                )
                if stop_at_first:
                    return divergences, comparisons
        event.schedule(t_base + half, CLOCK_NET, ONE)
        event.run_until(t_base + period - 1)
        oracle.tick()
    return divergences, comparisons


# ------------------------------------------------------- metamorphic injector


def brute_force_fault(
    netlist: Netlist,
    testbench: Testbench,
    golden: GoldenTrace,
    cycle: int,
    plan: InjectionPlan,
) -> Tuple[bool, Optional[int]]:
    """Single-lane oracle re-simulation of one injection plan, no shortcuts.

    Replays the golden open-loop stimulus, feeds loopback targets from the
    *faulty* run's own outputs, applies the plan's state-bit flips once at
    the injection cycle and re-asserts its forced values on every duty-on
    cycle before the combinational settle, and reports ``(failed,
    latency)`` under the any-output-deviation criterion.  Works for every
    registered fault model — the plan *is* the model's entire effect — and
    is the referee for :meth:`FaultInjector.run_batch`.
    """
    oracle = OracleSimulator(netlist)
    out_bit = {n: i for i, n in enumerate(netlist.outputs)}
    taps: List[Tuple[str, str, int, List[int]]] = []
    loop_targets = set()
    for path in testbench.loopbacks:
        for src, dst in zip(path.sources, path.targets):
            slots = [0] * path.delay
            for past in range(cycle - path.delay, cycle):
                if past >= 0:
                    slots[past % path.delay] = (golden.outputs[past] >> out_bit[src]) & 1
            taps.append((src, dst, path.delay, slots))
            loop_targets.add(dst)

    flip_flops = netlist.flip_flops()
    force_nets = [(flip_flops[f].output_net(), v) for f, v in plan.forces]
    oracle.load_ff_state_packed(golden.ff_state[cycle])
    for ff_index in plan.flips:
        oracle.flip_ff(ff_index)
    for c in range(cycle, golden.n_cycles):
        vector = golden.applied_inputs[c]
        for i, name in enumerate(testbench.input_names):
            if name not in loop_targets:
                oracle.set_input(name, (vector >> i) & 1)
        for _src, dst, delay, slots in taps:
            oracle.set_input(dst, slots[c % delay])
        if force_nets and plan.force_active(c - cycle):
            for q_net, v in force_nets:
                oracle.values[q_net] = v
        oracle.eval_comb()
        if oracle.output_vector() != golden.outputs[c]:
            return True, c - cycle
        for src, _dst, delay, slots in taps:
            slots[c % delay] = oracle.values[src]
        oracle.tick()
    return False, None


def brute_force_seu(
    netlist: Netlist,
    testbench: Testbench,
    golden: GoldenTrace,
    cycle: int,
    ff_index: int,
) -> Tuple[bool, Optional[int]]:
    """Single-lane oracle re-simulation of one SEU (one bit flip, no forces)."""
    return brute_force_fault(
        netlist, testbench, golden, cycle, InjectionPlan(flips=(ff_index,))
    )


def run_injector_check(
    netlist: Netlist,
    spec: FuzzSpec,
    n_injection_cycles: int = 3,
    stop_at_first: bool = True,
    backends: Sequence[str] = ("compiled",),
) -> Tuple[List[Divergence], int]:
    """Replay ``FaultInjector.run_batch`` verdicts against brute force.

    Every flip-flop is injected (one lane each) at a handful of cycles drawn
    deterministically from the spec seed; the bit-parallel batch verdict and
    error latency must match the oracle's single-lane re-simulation exactly.
    One ``FaultInjector`` per entry of *backends* runs the same sweeps
    against a **shared** brute-force referee, so enrolling another substrate
    costs one extra batch per cycle, not another oracle re-simulation.
    """
    testbench = generate_testbench(netlist, spec)
    golden = testbench.run_golden()
    criterion = AnyOutputCriterion.all_outputs(netlist)
    injectors = {
        backend: FaultInjector(
            netlist, testbench, golden, criterion, check_interval=4, backend=backend
        )
        for backend in backends
    }

    rng = random.Random(f"inject:{spec.seed}")
    first = min(2, golden.n_cycles - 1)
    candidates = list(range(first, golden.n_cycles))
    cycles = sorted(rng.sample(candidates, min(n_injection_cycles, len(candidates))))
    flip_flops = netlist.flip_flops()
    ff_indices = list(range(len(flip_flops)))

    divergences: List[Divergence] = []
    checked = 0
    for cycle in cycles:
        outcomes = {
            backend: injector.run_batch(cycle, ff_indices)
            for backend, injector in injectors.items()
        }
        for lane, ff_idx in enumerate(ff_indices):
            ref_failed, ref_latency = brute_force_seu(
                netlist, testbench, golden, cycle, ff_idx
            )
            ff_name = flip_flops[ff_idx].name
            for backend, outcome in outcomes.items():
                checked += 1
                label = f"injector[{backend}]"
                batch_failed = bool((outcome.failed_mask >> lane) & 1)
                batch_latency = outcome.latencies.get(lane)
                if batch_failed != ref_failed:
                    divergences.append(
                        Divergence(
                            kind=f"{label}-vs-bruteforce",
                            cycle=cycle,
                            net=ff_name,
                            values={label: batch_failed, "bruteforce": ref_failed},
                            detail="failure verdict mismatch",
                        )
                    )
                elif batch_failed and batch_latency != ref_latency:
                    divergences.append(
                        Divergence(
                            kind=f"{label}-vs-bruteforce",
                            cycle=cycle,
                            net=ff_name,
                            values={label: batch_latency, "bruteforce": ref_latency},
                            detail="error latency mismatch",
                        )
                    )
            if divergences and stop_at_first:
                return divergences, checked
    return divergences, checked


# ------------------------------------------------------ scheduled-vs-naive


def run_scheduler_check(
    netlist: Netlist,
    spec: FuzzSpec,
    n_injection_cycles: int = 3,
    stop_at_first: bool = True,
    backends: Sequence[str] = BACKEND_NAMES,
    max_lanes: int = 5,
) -> Tuple[List[Divergence], int]:
    """Replay :class:`AdaptiveScheduler` verdicts against naive batches.

    Every flip-flop is injected at a handful of seed-drawn cycles.  The
    whole mixed-cycle request set runs through one scheduler per enrolled
    backend — with a deliberately tiny ``max_lanes`` so activation refill,
    deferral across passes and repack compaction all trigger — and each
    verdict/latency is compared to the naive same-cycle
    :meth:`FaultInjector.run_batch` replay.

    When the fuzzed testbench has loopback paths, the criterion observes
    only the *non-loopback* outputs.  That keeps divergence that travels
    through a tap invisible until it re-emerges downstream — exactly the
    propagation the retirement probe must follow through the loopback
    slots, which an all-outputs criterion (every tap source directly
    observable) could never put under test.
    """
    testbench = generate_testbench(netlist, spec)
    golden = testbench.run_golden()
    loopback_sources = {
        src for path in testbench.loopbacks for src in path.sources
    }
    observed = [n for n in netlist.outputs if n not in loopback_sources]
    criterion = (
        AnyOutputCriterion(nets=observed)
        if observed
        else AnyOutputCriterion.all_outputs(netlist)
    )

    rng = random.Random(f"schedule:{spec.seed}")
    first = min(2, golden.n_cycles - 1)
    candidates = list(range(first, golden.n_cycles))
    cycles = sorted(rng.sample(candidates, min(n_injection_cycles, len(candidates))))
    flip_flops = netlist.flip_flops()
    requests = [
        (cycle, ff_idx) for cycle in cycles for ff_idx in range(len(flip_flops))
    ]
    if not requests:
        return [], 0

    # Naive referee: one run_batch per injection cycle on the compiled
    # substrate (itself cross-checked against brute force elsewhere).
    referee = FaultInjector(
        netlist, testbench, golden, criterion, check_interval=4, backend="compiled"
    )
    expected: List[Tuple[bool, Optional[int]]] = []
    for cycle in cycles:
        outcome = referee.run_batch(cycle, list(range(len(flip_flops))))
        for lane in range(len(flip_flops)):
            failed = bool((outcome.failed_mask >> lane) & 1)
            expected.append((failed, outcome.latencies.get(lane) if failed else None))

    divergences: List[Divergence] = []
    checked = 0
    for backend in backends:
        injector = FaultInjector(
            netlist, testbench, golden, criterion, check_interval=4, backend=backend
        )
        scheduled = injector.run_scheduled(requests, max_lanes=max_lanes)
        label = f"scheduled[{backend}]"
        for k, (request, want, got) in enumerate(
            zip(requests, expected, scheduled.verdicts)
        ):
            checked += 1
            if got != want:
                cycle, ff_idx = request
                divergences.append(
                    Divergence(
                        kind=f"{label}-vs-naive",
                        cycle=cycle,
                        net=flip_flops[ff_idx].name,
                        values={label: got, "naive": want},
                        detail=f"request {k} verdict/latency mismatch",
                    )
                )
                if stop_at_first:
                    return divergences, checked
    return divergences, checked


# ------------------------------------------------------- generated circuits


def run_generated_check(
    circuit: str = "mesh_tiny",
    n_injection_cycles: int = 2,
    n_ffs_sample: int = 16,
    seed: int = 0,
    stop_at_first: bool = True,
    max_lanes: int = 5,
) -> Tuple[List[Divergence], int]:
    """Differential checks on a generated composite circuit.

    The fuzz harness exercises random small netlists; this enrolls the
    parameterized generator family (:mod:`repro.circuits.generator`) so the
    structures the scale campaigns actually run — systolic mesh cells, deep
    pipelines — get the same treatment.  Two referees on the circuit's own
    registered burst workload:

    1. a seed-drawn sample of flip-flops is injected per cycle through
       :meth:`FaultInjector.run_batch` and each verdict/latency replayed as
       a brute-force oracle re-simulation;
    2. the same request set runs through the adaptive scheduler with a tiny
       lane budget, compared against the naive batch verdicts.

    Returns ``(divergences, comparisons)``; deterministic for a given
    ``(circuit, seed)``.
    """
    from ..circuits.library import get_circuit
    from ..circuits.workloads import build_workload_for

    netlist = get_circuit(circuit)
    workload = build_workload_for(circuit, netlist, n_frames=2, gap=8, seed=seed)
    testbench = workload.testbench
    golden = testbench.run_golden()
    criterion = AnyOutputCriterion.all_outputs(netlist)
    injector = FaultInjector(
        netlist, testbench, golden, criterion, check_interval=4, backend="compiled"
    )

    rng = random.Random(f"generated:{circuit}:{seed}")
    first, last = workload.active_window
    last = min(last, golden.n_cycles - 1)
    cycles = sorted(
        rng.sample(range(first, last + 1), min(n_injection_cycles, last + 1 - first))
    )
    flip_flops = netlist.flip_flops()
    ff_indices = sorted(
        rng.sample(range(len(flip_flops)), min(n_ffs_sample, len(flip_flops)))
    )

    divergences: List[Divergence] = []
    checked = 0
    expected: List[Tuple[bool, Optional[int]]] = []
    for cycle in cycles:
        outcome = injector.run_batch(cycle, ff_indices)
        for lane, ff_idx in enumerate(ff_indices):
            failed = bool((outcome.failed_mask >> lane) & 1)
            latency = outcome.latencies.get(lane) if failed else None
            expected.append((failed, latency))
            ref_failed, ref_latency = brute_force_seu(
                netlist, testbench, golden, cycle, ff_idx
            )
            checked += 1
            if (failed, latency) != (ref_failed, ref_latency):
                divergences.append(
                    Divergence(
                        kind="generated-injector-vs-bruteforce",
                        cycle=cycle,
                        net=flip_flops[ff_idx].name,
                        values={
                            "injector": (failed, latency),
                            "bruteforce": (ref_failed, ref_latency),
                        },
                        detail=f"circuit {circuit}",
                    )
                )
                if stop_at_first:
                    return divergences, checked

    requests = [(cycle, ff_idx) for cycle in cycles for ff_idx in ff_indices]
    scheduled = injector.run_scheduled(requests, max_lanes=max_lanes)
    for k, (request, want, got) in enumerate(
        zip(requests, expected, scheduled.verdicts)
    ):
        checked += 1
        if got != want:
            cycle, ff_idx = request
            divergences.append(
                Divergence(
                    kind="generated-scheduled-vs-naive",
                    cycle=cycle,
                    net=flip_flops[ff_idx].name,
                    values={"scheduled": got, "naive": want},
                    detail=f"circuit {circuit}, request {k}",
                )
            )
            if stop_at_first:
                return divergences, checked
    return divergences, checked


# --------------------------------------------------------- fault-model check

#: Registry spec strings enrolled in the fuzz differential (the plain SEU
#: is already covered exhaustively by :func:`run_injector_check` /
#: :func:`run_scheduler_check`).  Small parameters on purpose: fuzz
#: circuits have a handful of flip-flops, so a size-3 cluster and a
#: period-5 duty cycle already exercise every code path.
FAULT_MODEL_CHECK_SPECS: Tuple[str, ...] = (
    "mbu:size=3,radius=1,seed=0",
    "stuck0",
    "stuck1",
    "intermittent:period=5,on=2,seed=0",
)


def run_fault_model_check(
    netlist: Netlist,
    spec: FuzzSpec,
    model_specs: Sequence[str] = FAULT_MODEL_CHECK_SPECS,
    n_injection_cycles: int = 2,
    stop_at_first: bool = True,
    backends: Sequence[str] = BACKEND_NAMES,
    max_lanes: int = 5,
) -> Tuple[List[Divergence], int]:
    """Replay every registered fault model against the brute-force oracle.

    For each model spec, every flip-flop is injected at a couple of
    seed-drawn cycles.  Three comparisons per injection:

    * the per-backend :meth:`FaultInjector.run_batch` verdict/latency vs. a
      single-lane :func:`brute_force_fault` replay of the *same*
      :class:`~repro.faultinjection.faults.InjectionPlan` (the plan is the
      shared contract — the oracle applies it with none of the engine's
      lane packing, early retirement or force vectorization);
    * cross-backend agreement falls out of the above (all backends are
      diffed against one referee);
    * the adaptive scheduler's mixed-cycle verdicts vs. the brute-force
      reference, with a tiny ``max_lanes`` so refill and repack trigger
      under forcing models.
    """
    testbench = generate_testbench(netlist, spec)
    golden = testbench.run_golden()
    criterion = AnyOutputCriterion.all_outputs(netlist)
    flip_flops = netlist.flip_flops()
    ff_indices = list(range(len(flip_flops)))
    if not ff_indices:
        return [], 0

    divergences: List[Divergence] = []
    checked = 0
    for model_spec in model_specs:
        injectors = {
            backend: FaultInjector(
                netlist,
                testbench,
                golden,
                criterion,
                check_interval=4,
                backend=backend,
                fault_model=model_spec,
            )
            for backend in backends
        }
        planner = next(iter(injectors.values()))
        rng = random.Random(f"fault:{model_spec}:{spec.seed}")
        first = min(2, golden.n_cycles - 1)
        candidates = list(range(first, golden.n_cycles))
        cycles = sorted(
            rng.sample(candidates, min(n_injection_cycles, len(candidates)))
        )

        reference: Dict[Tuple[int, int], Tuple[bool, Optional[int]]] = {}
        for cycle in cycles:
            outcomes = {
                backend: injector.run_batch(cycle, ff_indices)
                for backend, injector in injectors.items()
            }
            for lane, ff_idx in enumerate(ff_indices):
                plan = planner.injection_plan(ff_idx, cycle)
                ref_failed, ref_latency = brute_force_fault(
                    netlist, testbench, golden, cycle, plan
                )
                reference[(cycle, ff_idx)] = (ref_failed, ref_latency)
                ff_name = flip_flops[ff_idx].name
                for backend, outcome in outcomes.items():
                    checked += 1
                    label = f"{model_spec}[{backend}]"
                    got_failed = bool((outcome.failed_mask >> lane) & 1)
                    got_latency = outcome.latencies.get(lane)
                    if got_failed != ref_failed or (
                        got_failed and got_latency != ref_latency
                    ):
                        divergences.append(
                            Divergence(
                                kind=f"{label}-vs-bruteforce",
                                cycle=cycle,
                                net=ff_name,
                                values={
                                    label: (got_failed, got_latency),
                                    "bruteforce": (ref_failed, ref_latency),
                                },
                                detail="fault-model verdict/latency mismatch",
                            )
                        )
                        if stop_at_first:
                            return divergences, checked

        requests = [(cycle, ff_idx) for cycle in cycles for ff_idx in ff_indices]
        expected = [reference[r] for r in requests]
        normalized = [
            (failed, latency if failed else None) for failed, latency in expected
        ]
        for backend, injector in injectors.items():
            scheduled = injector.run_scheduled(requests, max_lanes=max_lanes)
            label = f"{model_spec}-scheduled[{backend}]"
            for k, (request, want, got) in enumerate(
                zip(requests, normalized, scheduled.verdicts)
            ):
                checked += 1
                if got != want:
                    cycle, ff_idx = request
                    divergences.append(
                        Divergence(
                            kind=f"{label}-vs-bruteforce",
                            cycle=cycle,
                            net=flip_flops[ff_idx].name,
                            values={label: got, "bruteforce": want},
                            detail=f"request {k} verdict/latency mismatch",
                        )
                    )
                    if stop_at_first:
                        return divergences, checked
    return divergences, checked


# ------------------------------------------------------------------ seed sweep


def verify_seed(
    spec: FuzzSpec,
    with_event: bool = True,
    with_injector: bool = True,
    with_scheduler: bool = True,
    with_fault_models: bool = True,
    n_lanes: int = 3,
    cycle_backends: Sequence[str] = CYCLE_BACKENDS,
    injector_backends: Sequence[str] = BACKEND_NAMES,
) -> SeedReport:
    """Run every differential check on one fuzzed circuit.

    By default every cycle backend is lane-diffed against the oracle, every
    injector substrate (including the fused sweep kernel) is replayed
    against brute force, the adaptive scheduler's mixed-cycle verdicts
    are replayed against naive batches on every backend, and every
    registered fault model (MBU clusters, stuck-at, intermittent) is
    replayed batch- and scheduler-side against its own brute-force oracle
    (:func:`run_fault_model_check`) — so a fuzz sweep certifies the whole
    pluggable simulation substrate, naive and scheduled, across all fault
    models at once.
    """
    netlist = generate_netlist(spec)
    stats = netlist.stats()
    report = SeedReport(
        seed=spec.seed,
        n_cells=stats.n_cells,
        n_ffs=stats.n_sequential,
        n_cycles=spec.n_cycles,
    )
    for backend in cycle_backends:
        divergences, comparisons = run_lane_differential(
            netlist, spec, n_lanes=n_lanes, backend=backend
        )
        report.divergences.extend(divergences)
        report.comparisons += comparisons
    if with_event:
        divergences, comparisons = run_event_differential(netlist, spec)
        report.divergences.extend(divergences)
        report.comparisons += comparisons
    if with_injector:
        divergences, checked = run_injector_check(
            netlist, spec, backends=injector_backends
        )
        report.divergences.extend(divergences)
        report.injections_checked = checked
    if with_scheduler:
        divergences, checked = run_scheduler_check(
            netlist, spec, backends=injector_backends
        )
        report.divergences.extend(divergences)
        report.injections_checked += checked
    if with_fault_models:
        divergences, checked = run_fault_model_check(
            netlist, spec, backends=injector_backends
        )
        report.divergences.extend(divergences)
        report.injections_checked += checked
    return report


def verify_seeds(
    n_seeds: int,
    scale: str = "mini",
    seed_base: int = 0,
    spec: Optional[FuzzSpec] = None,
    progress=None,
) -> VerifySummary:
    """Sweep ``seed_base .. seed_base + n_seeds - 1`` at the given scale."""
    if spec is None:
        try:
            spec = FUZZ_SCALES[scale]
        except KeyError:
            raise ValueError(
                f"unknown fuzz scale {scale!r}; pick one of {sorted(FUZZ_SCALES)}"
            ) from None
    summary = VerifySummary()
    start = time.monotonic()
    for offset in range(n_seeds):
        seed = seed_base + offset
        report = verify_seed(replace(spec, seed=seed))
        summary.n_seeds += 1
        summary.n_comparisons += report.comparisons
        summary.n_injections_checked += report.injections_checked
        if not report.ok:
            summary.failing.append(report)
        if progress is not None:
            progress(offset + 1, n_seeds, report)
    summary.wall_seconds = time.monotonic() - start
    return summary
