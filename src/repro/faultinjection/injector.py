"""Bit-parallel SEU forward simulation against a golden trajectory.

One :meth:`FaultInjector.run_batch` call simulates up to ``max_lanes``
injections *at the same cycle* simultaneously: lane *j* of every net value
is the run in which flip-flop ``ff_indices[j]`` was inverted.  Three
ingredients make the paper's full flat campaign tractable:

1. **Golden-state restart** — the fault run starts from the recorded golden
   flip-flop state at the injection cycle, not from reset;
2. **Reactive loopback replay** — loopback inputs (XGMII TX→RX) are fed from
   the *faulty* run's own outputs, while open-loop stimulus is replayed from
   the golden record;
3. **Early retirement** — a lane whose *relevant* flip-flop state and
   loopback pipeline have re-converged to golden can never deviate again and
   stops being interesting; the batch ends as soon as every lane has either
   failed or converged.  Relevant flip-flops are those with a structural
   path to the criterion outputs or loopback sources — a fault lingering
   only in, say, a statistics counter is provably benign and does not keep
   the batch alive.

The forward simulation runs on one of two engines (see
:mod:`repro.sim.backend`): ``backend="compiled"`` packs lanes into Python
integers and steps the cycle simulator, and ``backend="fused"``
code-generates one specialized sweep kernel per (circuit, workload) that
runs the whole batch loop in a single generated function
(:mod:`repro.sim.fused`).  Both produce bit-identical verdicts and
latencies — cross-checked per fuzz seed by :mod:`repro.verify.diff`.

Campaigns should prefer :meth:`FaultInjector.run_scheduled` over many
:meth:`run_batch` calls: the adaptive scheduler
(:mod:`repro.faultinjection.scheduler`) activates each injection at its own
cycle inside one long-lived forward pass, refills lanes freed by early
retirement and compacts drained batches — same verdicts, a multiple of the
throughput (see ``docs/performance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..netlist.core import Netlist
from ..obs import get_telemetry
from ..sim.backend import BACKEND_NAMES, create_backend
from ..sim.fused import FusedSweepKernel
from ..sim.testbench import GoldenTrace, Testbench
from .classify import FailureCriterion
from .faults import BoundFaultModel, FaultModel, InjectionPlan, parse_fault_model

__all__ = ["FaultInjector", "BatchOutcome", "relevant_flip_flops"]


def relevant_flip_flops(netlist: Netlist, observable_nets: Sequence[str]) -> Set[str]:
    """Flip-flops with a structural path (through any logic) to *observable_nets*.

    Backward reachability over the netlist: from each observable net through
    combinational cones and flip-flop D/RN pins.  A flip-flop outside this
    set cannot influence the observables, ever.
    """
    relevant: Set[str] = set()
    visited: Set[str] = set()
    stack = list(observable_nets)
    while stack:
        net_name = stack.pop()
        if net_name in visited:
            continue
        visited.add(net_name)
        driver = netlist.nets[net_name].driver
        if driver is None:
            continue
        cell = netlist.cells[driver.cell]
        if cell.is_sequential:
            relevant.add(cell.name)
            stack.extend(cell.data_input_nets())
        else:
            stack.extend(cell.input_nets())
    return relevant


def _iter_lanes(bits: int):
    """Yield the set lane indices of a packed Python-int lane mask."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


@dataclass
class BatchOutcome:
    """Result of one injection batch.

    ``latencies[lane]`` is the error latency of a failed lane: the number of
    cycles between the SEU and the first observable deviation under the
    failure criterion (0 = visible in the injection cycle itself).
    """

    failed_mask: int
    n_lanes: int
    cycles_simulated: int
    latencies: Dict[int, int] = field(default_factory=dict)

    def failed_lanes(self) -> List[int]:
        """Lane indices whose runs were classified as functional failures."""
        return list(_iter_lanes(self.failed_mask))


@dataclass
class _LoopTap:
    """One bit of a loopback path: source output → delayed target input.

    ``golden_bits[c]`` is the source output's golden value during cycle *c*,
    extracted once at injector construction — batch setup and loopback
    divergence checks used to re-shift the packed golden output vector on
    every call.
    """

    source_value_idx: int
    target_value_idx: int
    source_out_bit: int
    delay: int
    slots: List[object]
    golden_bits: List[int]


class FaultInjector:
    """Forward SEU simulator bound to one netlist/testbench/golden trace.

    Parameters
    ----------
    netlist / testbench / golden / criterion:
        The design under test, its workload driver, the recorded fault-free
        trajectory, and the functional-failure definition.
    check_interval:
        Cycles between early-retirement convergence checks (trade-off:
        smaller intervals retire lanes sooner but check more often).
    backend:
        Simulation engine: ``"compiled"`` (default) or ``"fused"``.
        Verdicts and latencies are backend-invariant.
    fault_model:
        A :class:`~repro.faultinjection.faults.FaultModel`, a registry spec
        string (``"mbu:size=3,radius=1,seed=0"``), or ``None`` for the
        paper's single-bit SEU.  Models whose plans carry per-cycle forcing
        (stuck-at, intermittent) run on the cycle substrate even under
        ``backend="fused"`` — the generated sweep kernel has no re-force
        hook — and their lanes are excluded from convergence-based early
        retirement.
    """

    def __init__(
        self,
        netlist: Netlist,
        testbench: Testbench,
        golden: GoldenTrace,
        criterion: FailureCriterion,
        check_interval: int = 8,
        backend: str = "compiled",
        fault_model: "FaultModel | str | None" = None,
    ) -> None:
        if backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {backend!r}; choose from {BACKEND_NAMES}"
            )
        self.netlist = netlist
        self.testbench = testbench
        self.golden = golden
        self.check_interval = max(1, check_interval)
        self.backend = backend
        self.fault_model: Optional[FaultModel] = (
            None if fault_model is None else parse_fault_model(fault_model)
        )
        # The plain SEU keeps the original one-flip fast path (``None``
        # bound model); anything else compiles per-injection plans.
        self._bound_model: Optional[BoundFaultModel] = (
            self.fault_model.bind(netlist)
            if self.fault_model is not None and self.fault_model.name != "seu"
            else None
        )
        # The fused engine replaces the per-cycle loop, not the cycle
        # simulator itself; SET injection, forcing models and net
        # bookkeeping still run on the compiled substrate underneath it.
        self.sim = create_backend("compiled", netlist, n_lanes=1)
        self._criterion = criterion.bind(netlist, self.sim)
        self._fused: Optional[FusedSweepKernel] = None

        self._input_value_idx = [self.sim.net_index[n] for n in testbench.input_names]
        out_bit = {name: i for i, name in enumerate(netlist.outputs)}

        self._taps: List[_LoopTap] = []
        lb_target_inputs: Set[int] = set()
        for path in testbench.loopbacks:
            for src, dst in zip(path.sources, path.targets):
                bit = out_bit[src]
                self._taps.append(
                    _LoopTap(
                        source_value_idx=self.sim.net_index[src],
                        target_value_idx=self.sim.net_index[dst],
                        source_out_bit=bit,
                        delay=path.delay,
                        slots=[0] * path.delay,
                        golden_bits=[(out >> bit) & 1 for out in golden.outputs],
                    )
                )
                lb_target_inputs.add(self.sim.net_index[dst])
        # Inputs driven open-loop (everything except loopback targets).
        self._open_inputs = [
            (i, idx)
            for i, idx in enumerate(self._input_value_idx)
            if idx not in lb_target_inputs
        ]

        observables = criterion.observable_nets() + [
            src for path in testbench.loopbacks for src in path.sources
        ]
        relevant = relevant_flip_flops(netlist, observables)
        self.relevant_ff_names = relevant
        self._relevant_pairs: List[Tuple[int, int]] = []
        for ff_index, ff in enumerate(self.sim.flip_flops):
            if ff.name in relevant:
                q_idx = self.sim.net_index[ff.output_net()]
                self._relevant_pairs.append((q_idx, ff_index))
        # Per-cycle golden state repacked to the relevant-pair bit order,
        # filled on first use: the divergence check used to re-extract each
        # relevant bit from the full packed state on every call.
        self._relevant_golden: List[Optional[int]] = [None] * (golden.n_cycles + 1)
        # Resolved SET propagation order (built on first run_set_batch).
        self._set_plan: Optional[List[Tuple[Callable, int, Tuple[int, ...]]]] = None

    # ----------------------------------------------------------------- API

    @property
    def taps(self) -> List[_LoopTap]:
        """Resolved loopback taps (read-only; the scheduler reuses them)."""
        return self._taps

    @property
    def criterion_valid_pairs(self) -> List[Tuple[int, int]]:
        """Bound criterion strobe pairs ``(value_idx, golden_bit)``."""
        return self._criterion.valid_pairs

    @property
    def criterion_data_pairs(self) -> List[Tuple[int, int]]:
        """Bound criterion payload pairs ``(value_idx, golden_bit)``."""
        return self._criterion.data_pairs

    def relevant_golden(self, cycle: int) -> int:
        """Golden state at *cycle*, packed in relevant-pair order (cached)."""
        packed = self._relevant_golden[cycle]
        if packed is None:
            state = self.golden.ff_state[cycle]
            packed = 0
            for k, (_q_idx, ff_index) in enumerate(self._relevant_pairs):
                packed |= ((state >> ff_index) & 1) << k
            self._relevant_golden[cycle] = packed
        return packed

    def ff_index(self, ff_name: str) -> int:
        """Index of a flip-flop by instance name (lane/state ordering)."""
        return self.sim.ff_index[ff_name]

    @property
    def bound_model(self) -> Optional[BoundFaultModel]:
        """The netlist-bound fault model, or ``None`` for the SEU fast path."""
        return self._bound_model

    def injection_plan(self, ff_index: int, cycle: int) -> InjectionPlan:
        """The compiled plan executed for ``(cycle, ff_index)`` — the exact
        flips and forces any engine (and the brute-force oracle) replays."""
        if self._bound_model is None:
            return InjectionPlan(flips=(ff_index,))
        return self._bound_model.plan(ff_index, cycle)

    def run_scheduled(
        self,
        injections: Sequence[Tuple[int, int]],
        horizon: Optional[int] = None,
        max_lanes: Optional[int] = None,
        progress=None,
    ):
        """Run many ``(cycle, ff_index)`` injections through one adaptive
        scheduler (lane refill across cycles, compaction).

        Returns a :class:`~repro.faultinjection.scheduler.ScheduledOutcome`
        whose verdicts/latencies are bit-identical to one
        :meth:`run_batch` lane per injection; see
        :class:`~repro.faultinjection.scheduler.AdaptiveScheduler`.
        """
        from .scheduler import AdaptiveScheduler

        scheduler = AdaptiveScheduler(self, max_lanes=max_lanes)
        return scheduler.run(injections, horizon=horizon, progress=progress)

    def fused_kernel(self) -> FusedSweepKernel:
        """Build (once) the generated sweep kernel for this workload."""
        if self._fused is None:
            self._fused = FusedSweepKernel(
                self.netlist,
                self.golden,
                open_inputs=self._open_inputs,
                clock_value_idx=[
                    self.sim.net_index[c]
                    for c in self.netlist.clocks
                    if c in self.sim.net_index
                ],
                taps=[
                    (t.source_value_idx, t.target_value_idx, t.source_out_bit, t.delay)
                    for t in self._taps
                ],
                valid_pairs=self._criterion.valid_pairs,
                data_pairs=self._criterion.data_pairs,
                relevant_pairs=self._relevant_pairs,
                check_interval=self.check_interval,
                tap_golden=[tap.golden_bits for tap in self._taps],
            )
        return self._fused

    def _record_outcome(self, outcome: BatchOutcome) -> BatchOutcome:
        """Report one forward run's lane-cycle volume to the telemetry layer.

        Coarse-grained on purpose: two counter bumps per *batch* (which
        simulates hundreds of lane-cycles), so the overhead is unmeasurable
        with telemetry sinks detached.
        """
        registry = get_telemetry().registry
        registry.counter(f"sim.{self.backend}.lane_cycles").inc(
            outcome.cycles_simulated * outcome.n_lanes
        )
        registry.counter(f"sim.{self.backend}.forward_runs").inc()
        if self.fault_model is not None:
            registry.counter(f"fault.{self.fault_model.name}.injections").inc(
                outcome.n_lanes
            )
        return outcome

    def run_batch(
        self,
        cycle: int,
        ff_indices: Sequence[int],
        horizon: Optional[int] = None,
    ) -> BatchOutcome:
        """Simulate one injection per lane, all struck at *cycle*.

        Each lane executes the configured fault model's plan for its
        flip-flop (a single flip for the default SEU, a cluster flip for
        MBUs, per-cycle forcing for stuck-at/intermittent faults).  Returns
        the per-lane failure mask.  The forward run stops at the end of the
        golden trace, after *horizon* cycles, or as soon as every lane has
        failed or re-converged to golden — whichever comes first; lanes
        with active forcing never count as converged.
        """
        golden = self.golden
        if not 0 <= cycle < golden.n_cycles:
            raise ValueError(f"injection cycle {cycle} outside trace [0, {golden.n_cycles})")
        n = len(ff_indices)
        bound = self._bound_model
        plans: Optional[List[InjectionPlan]] = None
        if bound is not None:
            plans = [bound.plan(ff_idx, cycle) for ff_idx in ff_indices]

        if self.backend == "fused" and (
            plans is None or not any(p.forces for p in plans)
        ):
            # Pure flip plans ride the generated sweep kernel (MBU clusters
            # are just multi-bit flip specs); forcing falls back to the
            # cycle substrate below.
            end = golden.n_cycles
            if horizon is not None:
                end = min(end, cycle + horizon)
            flip_spec = ff_indices if plans is None else [p.flips for p in plans]
            failed, latencies, cycles = self.fused_kernel().run_sweep(
                cycle, end, flip_spec
            )
            return self._record_outcome(
                BatchOutcome(
                    failed_mask=failed,
                    n_lanes=n,
                    cycles_simulated=cycles,
                    latencies=latencies,
                )
            )

        sim = self.sim
        sim.resize_lanes(n)
        mask = sim.mask
        values = sim.values
        zero = sim.broadcast(0)

        sim.load_ff_state_packed(golden.ff_state[cycle])
        if plans is None:
            for lane, ff_idx in enumerate(ff_indices):
                sim.flip_ff(ff_idx, 1 << lane)
        else:
            for lane, plan in enumerate(plans):
                for ff_idx in plan.flips:
                    sim.flip_ff(ff_idx, 1 << lane)

        # Per-lane forcing schedule: (plan, lane vector, Q rows to force).
        force_lanes: List[Tuple[InjectionPlan, object, List[Tuple[int, int]]]] = []
        force_vec = zero
        if plans is not None:
            ffs = sim.flip_flops
            for lane, plan in enumerate(plans):
                if plan.forces:
                    rows = [
                        (sim.net_index[ffs[f].output_net()], v)
                        for f, v in plan.forces
                    ]
                    lv = sim.lane_vec(lane)
                    force_lanes.append((plan, lv, rows))
                    force_vec = force_vec | lv

        for tap in self._taps:
            golden_bits = tap.golden_bits
            for past in range(cycle - tap.delay, cycle):
                if past < 0:
                    tap.slots[past % tap.delay] = zero
                else:
                    tap.slots[past % tap.delay] = sim.broadcast(golden_bits[past])

        end = golden.n_cycles
        if horizon is not None:
            end = min(end, cycle + horizon)

        failed = zero
        latencies: Dict[int, int] = {}
        criterion = self._criterion
        check = self.check_interval
        forced_writes = 0
        c = cycle
        while c < end:
            vec = golden.applied_inputs[c]
            for bit_pos, value_idx in self._open_inputs:
                values[value_idx] = mask if (vec >> bit_pos) & 1 else zero
            for tap in self._taps:
                values[tap.target_value_idx] = tap.slots[c % tap.delay]
            for plan, lv, rows in force_lanes:
                # Re-assert the fault on the lane's Q rows before the settle
                # (the latched value is corrupted for this cycle).
                if plan.force_active(c - cycle):
                    for q_idx, v in rows:
                        values[q_idx] = (values[q_idx] & ~lv) | (lv if v else zero)
                    forced_writes += 1
            sim.eval_comb()
            newly = criterion.evaluate(values, golden.outputs[c], mask) & ~failed
            if sim.vec_any(newly):
                failed = failed | newly
                latency = c - cycle
                for lane in _iter_lanes(sim.vec_to_int(newly)):
                    latencies[lane] = latency
            for tap in self._taps:
                tap.slots[c % tap.delay] = sim.read_vec(tap.source_value_idx)
            sim.tick()
            c += 1
            if (c - cycle) % check == 0 or c == end:
                diverged = self._divergence(c, mask)
                diverged = diverged | self._loopback_divergence(c, mask)
                # Forced lanes are only done once failed: a lane whose state
                # matches golden right now can still be re-disturbed by a
                # later duty-on cycle.
                if sim.vec_is_full(failed | (~diverged & ~force_vec)):
                    break
        if forced_writes:
            get_telemetry().registry.counter(
                f"fault.{self.fault_model.name}.forced_cycles"
            ).inc(forced_writes)
        return self._record_outcome(
            BatchOutcome(
                failed_mask=sim.vec_to_int(failed),
                n_lanes=n,
                cycles_simulated=c - cycle,
                latencies=latencies,
            )
        )

    def run_set_batch(
        self,
        cycle: int,
        net_names: Sequence[str],
        horizon: Optional[int] = None,
    ) -> BatchOutcome:
        """Simulate Single-Event Transients: lane *j* flips net ``net_names[j]``.

        Cycle-level SET model: the transient inverts the struck combinational
        net for the whole injection cycle, propagates through the downstream
        cone (subject to **logical de-rating** — controlling values on other
        gate inputs mask it), may corrupt primary outputs directly, and is
        latched by whatever flip-flops sample it on the clock edge.  From the
        next cycle on the run continues exactly like an SEU forward
        simulation.  Electrical and sub-cycle temporal de-rating are below
        this model's time resolution, as discussed in the paper's section II.

        SET sweeps always run on the compiled cycle substrate; the fused
        kernel only specializes flip-flop SEU sweeps.
        """
        golden = self.golden
        if not 0 <= cycle < golden.n_cycles:
            raise ValueError(f"injection cycle {cycle} outside trace [0, {golden.n_cycles})")
        n = len(net_names)
        sim = self.sim
        sim.resize_lanes(n)
        mask = sim.mask
        values = sim.values
        zero = sim.broadcast(0)

        sim.load_ff_state_packed(golden.ff_state[cycle])
        for tap in self._taps:
            golden_bits = tap.golden_bits
            for past in range(cycle - tap.delay, cycle):
                if past < 0:
                    tap.slots[past % tap.delay] = zero
                else:
                    tap.slots[past % tap.delay] = sim.broadcast(golden_bits[past])

        # Injection cycle: settle fault-free, then force the struck nets and
        # re-evaluate the downstream cones with the forces held.
        vec = golden.applied_inputs[cycle]
        for bit_pos, value_idx in self._open_inputs:
            values[value_idx] = mask if (vec >> bit_pos) & 1 else zero
        for tap in self._taps:
            values[tap.target_value_idx] = tap.slots[cycle % tap.delay]
        sim.eval_comb()
        forces: Dict[int, object] = {}
        for lane, net in enumerate(net_names):
            idx = sim.net_index[net]
            forces[idx] = forces.get(idx, 0) | sim.lane_vec(lane)
        self._propagate_forced(forces, mask)

        latencies: Dict[int, int] = {}
        failed = self._criterion.evaluate(values, golden.outputs[cycle], mask)
        for lane in _iter_lanes(sim.vec_to_int(failed)):
            latencies[lane] = 0
        for tap in self._taps:
            tap.slots[cycle % tap.delay] = sim.read_vec(tap.source_value_idx)
        sim.tick()

        # Continue as a plain forward run from the next cycle.
        end = golden.n_cycles
        if horizon is not None:
            end = min(end, cycle + horizon)
        criterion = self._criterion
        check = self.check_interval
        c = cycle + 1
        while c < end:
            vec = golden.applied_inputs[c]
            for bit_pos, value_idx in self._open_inputs:
                values[value_idx] = mask if (vec >> bit_pos) & 1 else zero
            for tap in self._taps:
                values[tap.target_value_idx] = tap.slots[c % tap.delay]
            sim.eval_comb()
            newly = criterion.evaluate(values, golden.outputs[c], mask) & ~failed
            if sim.vec_any(newly):
                failed = failed | newly
                latency = c - cycle
                for lane in _iter_lanes(sim.vec_to_int(newly)):
                    latencies.setdefault(lane, latency)
            for tap in self._taps:
                tap.slots[c % tap.delay] = sim.read_vec(tap.source_value_idx)
            sim.tick()
            c += 1
            if (c - cycle) % check == 0 or c == end:
                diverged = self._divergence(c, mask)
                diverged = diverged | self._loopback_divergence(c, mask)
                if sim.vec_is_full(failed | ~diverged):
                    break
        return self._record_outcome(
            BatchOutcome(
                failed_mask=sim.vec_to_int(failed),
                n_lanes=n,
                cycles_simulated=c - cycle,
                latencies=latencies,
            )
        )

    def _propagate_forced(self, forces: Dict[int, object], mask: object) -> None:
        """Apply per-lane net inversions and re-settle the downstream logic.

        Walks the combinational cells in topological order, re-evaluating any
        cell with a dirty input; a forced net stays inverted even if its
        driver is re-evaluated (the transient dominates for the cycle).
        """
        sim = self.sim
        values = sim.values
        if self._set_plan is None:
            # Resolve the topological walk's net indices once; rebuilding
            # them per batch dominated short SET sweeps.
            self._set_plan = [
                (
                    cell.ctype.evaluate,
                    sim.net_index[cell.output_net()],
                    tuple(sim.net_index[n] for n in cell.input_nets()),
                )
                for cell_name in self.netlist.topological_comb_order()
                for cell in (self.netlist.cells[cell_name],)
            ]
        dirty = set()
        for idx, lane_bits in forces.items():
            values[idx] = values[idx] ^ lane_bits
            dirty.add(idx)
        for evaluate, out_idx, in_idxs in self._set_plan:
            if not any(i in dirty for i in in_idxs):
                continue
            new_value = evaluate([values[i] for i in in_idxs], mask)
            new_value = new_value ^ forces.get(out_idx, 0)
            if sim.vec_any(new_value ^ values[out_idx]):
                values[out_idx] = new_value
                dirty.add(out_idx)

    # ------------------------------------------------------------ internals

    def _divergence(self, cycle: int, mask: object) -> object:
        """Per-lane mask of lanes whose relevant FF state differs from golden
        at the start of *cycle*."""
        sim = self.sim
        diff = sim.broadcast(0)
        values = sim.values
        grel = self.relevant_golden(cycle)
        # Early-exit once every lane diverged, but only probe periodically:
        # vec_is_full is a method call, so checking per flip-flop would
        # dominate the sweep.
        for k, (q_idx, _ff_index) in enumerate(self._relevant_pairs):
            golden = mask if (grel >> k) & 1 else 0
            diff = diff | (values[q_idx] ^ golden)
            if (k & 31) == 31 and sim.vec_is_full(diff):
                return diff
        return diff

    def _loopback_divergence(self, next_cycle: int, mask: object) -> object:
        """Lanes whose in-flight loopback values differ from the golden record."""
        sim = self.sim
        diff = sim.broadcast(0)
        golden = self.golden
        for tap in self._taps:
            golden_bits = tap.golden_bits
            for past in range(max(0, next_cycle - tap.delay), next_cycle):
                if past >= golden.n_cycles:
                    continue
                bit = golden_bits[past]
                diff = diff | (tap.slots[past % tap.delay] ^ (mask if bit else 0))
        return diff & mask
