"""Fused injection-sweep kernel: one generated function per (circuit, workload).

:meth:`~repro.faultinjection.injector.FaultInjector.run_batch` spends its
cycles in a Python-level loop that re-dispatches per cycle into the
simulator (``values[...]`` list indexing, ``eval_comb()``/``tick()`` calls,
criterion evaluation over a pair list, tap bookkeeping).  For sweep-heavy
campaigns that per-cycle interpreter churn is pure overhead: the netlist,
the workload's input/loopback layout, the failure criterion and the
early-retirement structure are all known *before* the first sweep runs.

:class:`FusedSweepKernel` therefore code-generates, once per
(circuit, workload, criterion) binding, a single specialized function that
runs the golden-trace replay and **all fault lanes of a sweep in one pass**:

* every net value is a Python *local variable* (``LOAD_FAST`` instead of
  list indexing),
* the gate statements are inlined in levelized order (same expression
  templates as the compiled backend),
* open-loop stimulus decode, loopback tap shifts, failure classification,
  latency capture, relevant-flip-flop divergence and early retirement are
  all inlined into the same loop body.

Lanes are packed into Python integers exactly like
:class:`~repro.sim.compiled.CompiledSimulator`, so verdicts and error
latencies are bit-identical to the compiled substrate — the
differential harness (:mod:`repro.verify.diff`) checks this on every fuzz
seed.  Select it with ``FaultInjector(..., backend="fused")``.

Two kernels are generated per binding: the fixed-cycle sweep
(:meth:`FusedSweepKernel.run_sweep`, one injection cycle per call) and the
adaptive-scheduler variant (:meth:`FusedSweepKernel.run_scheduled`), which
additionally inlines the **refill loop** — per-lane activation at each
injection's own cycle, retirement callbacks that free lanes back to the
pending queue, and fast-forward over idle stretches.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist.core import Netlist
from .compiled import _TEMPLATES
from .logic import lane_mask
from .testbench import GoldenTrace

__all__ = ["FusedSweepKernel"]


def _local(net_idx: int) -> str:
    """Local-variable name carrying the lane vector of net *net_idx*."""
    return f"n{net_idx}"


class FusedSweepKernel:
    """Specialized SEU-sweep executor generated for one workload binding.

    Parameters mirror what :class:`~repro.faultinjection.injector.FaultInjector`
    has already resolved: net *value indices* follow the canonical
    ``enumerate(netlist.nets)`` order shared by all backends.

    Parameters
    ----------
    netlist / golden:
        Design under test and its recorded fault-free trajectory.
    open_inputs:
        ``(schedule_bit, value_idx)`` pairs for inputs replayed open-loop
        from ``golden.applied_inputs`` (loopback targets excluded).
    clock_value_idx:
        Value indices of clock nets: held at 0 (cycle-based clocking).
    taps:
        ``(source_value_idx, target_value_idx, source_out_bit, delay)`` per
        loopback bit, fed reactively from the faulty run's own outputs.
    valid_pairs / data_pairs:
        The bound failure criterion (see
        :class:`~repro.faultinjection.classify.BoundCriterion`).
    relevant_pairs:
        ``(q_value_idx, ff_index)`` of flip-flops that can still influence
        the observables — the early-retirement divergence set.
    check_interval:
        Cycles between inlined early-retirement checks.
    """

    def __init__(
        self,
        netlist: Netlist,
        golden: GoldenTrace,
        *,
        open_inputs: Sequence[Tuple[int, int]],
        clock_value_idx: Sequence[int],
        taps: Sequence[Tuple[int, int, int, int]],
        valid_pairs: Sequence[Tuple[int, int]],
        data_pairs: Sequence[Tuple[int, int]],
        relevant_pairs: Sequence[Tuple[int, int]],
        check_interval: int = 8,
        tap_golden: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        self.netlist = netlist
        self.golden = golden
        self._taps = list(taps)
        self._n_ffs = len(netlist.flip_flops())
        self._check_interval = max(1, check_interval)
        net_index = {name: i for i, name in enumerate(netlist.nets)}
        clocks = set(clock_value_idx)
        self._open_inputs = [(b, i) for b, i in open_inputs if i not in clocks]
        self._clocks = sorted(clocks)
        self._valid_pairs = list(valid_pairs)
        self._data_pairs = list(data_pairs)
        self._relevant_pairs = list(relevant_pairs)
        self._fallbacks: List[object] = []
        self._net_index = net_index
        self._fn = self._compile(net_index)
        self._sched_fn = None  # scheduled-sweep kernel, compiled on demand
        #: Per tap: golden source-output bit per cycle (activation history).
        #: Shared with the injector's precomputed ``_LoopTap.golden_bits``
        #: when available; derived here otherwise.
        if tap_golden is not None:
            self._tap_golden = [list(bits) for bits in tap_golden]
        else:
            self._tap_golden = [
                [(golden.outputs[c] >> sb) & 1 for c in range(golden.n_cycles)]
                for (_src, _tgt, sb, _delay) in self._taps
            ]

    # ------------------------------------------------------------ compiling

    def _gate_lines(self, net_index: Dict[str, int], indent: str) -> List[str]:
        """Inlined combinational settle: one statement per gate, on locals."""
        lines: List[str] = []
        for cell_name in self.netlist.topological_comb_order():
            cell = self.netlist.cells[cell_name]
            out = net_index[cell.output_net()]
            ins = [net_index[n] for n in cell.input_nets()]
            template = _TEMPLATES.get(cell.ctype.name)
            if template is None:
                args = ", ".join(_local(i) for i in ins)
                lines.append(
                    f"{indent}{_local(out)} = fb[{len(self._fallbacks)}]([{args}], m)"
                )
                self._fallbacks.append(cell.ctype.function)
                continue
            # Rewrite the shared `v[{o}] = ...v[{i0}]...` templates to act on
            # the per-net locals instead of the value array.
            local_template = template.replace("v[{", "n{").replace("}]", "}")
            fields = {"o": out}
            for pos, in_idx in enumerate(ins):
                fields[f"i{pos}"] = in_idx
            lines.append(indent + local_template.format(**fields))
        return lines

    def _compile(self, net_index: Dict[str, int]):
        netlist = self.netlist
        check = self._check_interval
        flip_flops = netlist.flip_flops()
        ind = "        "  # loop-body indent

        lines = [
            "def _sweep(cycle, end, m, flips, applied, gold_out, gold_ff,"
            " slots, latencies):",
            "    z = 0",
        ]
        for t in range(len(self._taps)):
            lines.append(f"    s{t} = slots[{t}]")
        # Golden-state restart + per-lane SEU flips.
        lines.append("    gs = gold_ff[cycle]")
        for ff_i, ff in enumerate(flip_flops):
            q = _local(net_index[ff.output_net()])
            lines.append(f"    {q} = m if (gs >> {ff_i}) & 1 else z")
            lines.append(f"    {q} ^= flips[{ff_i}]")
        for clk in self._clocks:
            lines.append(f"    {_local(clk)} = z")
        lines.append("    failed = z")
        lines.append("    c = cycle")
        lines.append("    while c < end:")
        # Open-loop stimulus decode.
        lines.append(f"{ind}vec = applied[c]")
        for bit_pos, idx in self._open_inputs:
            lines.append(f"{ind}{_local(idx)} = m if (vec >> {bit_pos}) & 1 else z")
        # Reactive loopback: targets read the delayed faulty outputs.
        for t, (_src, tgt, _sb, delay) in enumerate(self._taps):
            lines.append(f"{ind}{_local(tgt)} = s{t}[c % {delay}]")
        # Combinational settle, fully inlined.
        lines.extend(self._gate_lines(net_index, ind))
        # Failure criterion, fully inlined.
        lines.append(f"{ind}gv = gold_out[c]")
        lines.append(f"{ind}fail_c = z")
        if self._data_pairs:
            lines.append(f"{ind}beat = z")
        for vi, gb in self._valid_pairs:
            lines.append(f"{ind}g = m if (gv >> {gb}) & 1 else z")
            lines.append(f"{ind}fail_c |= {_local(vi)} ^ g")
            if self._data_pairs:
                lines.append(f"{ind}beat |= g | {_local(vi)}")
        for di, gb in self._data_pairs:
            lines.append(f"{ind}g = m if (gv >> {gb}) & 1 else z")
            lines.append(f"{ind}fail_c |= ({_local(di)} ^ g) & beat")
        lines.extend(
            [
                f"{ind}newly = fail_c & ~failed",
                f"{ind}if newly:",
                f"{ind}    failed |= newly",
                f"{ind}    lat = c - cycle",
                f"{ind}    while newly:",
                f"{ind}        low = newly & -newly",
                f"{ind}        latencies[low.bit_length() - 1] = lat",
                f"{ind}        newly ^= low",
            ]
        )
        # Shift the faulty outputs into the loopback pipelines.
        for t, (src, _tgt, _sb, delay) in enumerate(self._taps):
            lines.append(f"{ind}s{t}[c % {delay}] = {_local(src)}")
        # Two-phase tick: read every D before writing any Q.
        for ff_i, ff in enumerate(flip_flops):
            d = _local(net_index[ff.connections["D"]])
            if "RN" in ff.connections:
                rn = _local(net_index[ff.connections["RN"]])
                lines.append(f"{ind}t{ff_i} = {d} & {rn}")
            else:
                lines.append(f"{ind}t{ff_i} = {d}")
        for ff_i, ff in enumerate(flip_flops):
            lines.append(f"{ind}{_local(net_index[ff.output_net()])} = t{ff_i}")
        lines.append(f"{ind}c += 1")
        # Early retirement: every lane failed or provably re-converged.
        lines.append(f"{ind}if (c - cycle) % {check} == 0 or c == end:")
        chk = ind + "    "
        lines.append(f"{chk}gs = gold_ff[c]")
        lines.append(f"{chk}diff = z")
        for q_idx, ff_i in self._relevant_pairs:
            lines.append(
                f"{chk}diff |= {_local(q_idx)} ^ (m if (gs >> {ff_i}) & 1 else z)"
            )
        for t, (_src, _tgt, sb, delay) in enumerate(self._taps):
            lines.append(f"{chk}for past in range(max(0, c - {delay}), c):")
            lines.append(
                f"{chk}    diff |= s{t}[past % {delay}]"
                f" ^ (m if (gold_out[past] >> {sb}) & 1 else z)"
            )
        lines.append(f"{chk}if ((failed | ~diff) & m) == m:")
        lines.append(f"{chk}    break")
        lines.append("    return failed & m, c - cycle")

        namespace: Dict[str, object] = {"fb": self._fallbacks}
        exec("\n".join(lines), namespace)  # noqa: S102 - generated from our own netlist
        return namespace["_sweep"]

    # ------------------------------------------------------------------ API

    def run_sweep(
        self,
        cycle: int,
        end: int,
        ff_indices: Sequence[object],
    ) -> Tuple[int, Dict[int, int], int]:
        """Run one fused sweep: lane *j* flips ``ff_indices[j]`` at *cycle*.

        A lane's flip spec is a flip-flop index or a tuple of indices (a
        multi-bit upset cluster — the whole cluster lands on one lane).
        Returns ``(failed_mask, latencies, cycles_simulated)`` with the
        exact :meth:`FaultInjector.run_batch` semantics.
        """
        n = len(ff_indices)
        m = lane_mask(n)
        golden = self.golden
        flips = [0] * max(1, self._n_ffs)
        for lane, spec in enumerate(ff_indices):
            for ff_idx in spec if isinstance(spec, tuple) else (spec,):
                flips[ff_idx] |= 1 << lane
        slots: List[List[int]] = []
        for _src, _tgt, out_bit, delay in self._taps:
            pipeline = [0] * delay
            for past in range(cycle - delay, cycle):
                if past >= 0:
                    bit = (golden.outputs[past] >> out_bit) & 1
                    pipeline[past % delay] = m if bit else 0
            slots.append(pipeline)
        latencies: Dict[int, int] = {}
        failed, cycles = self._fn(
            cycle,
            end,
            m,
            flips,
            golden.applied_inputs,
            golden.outputs,
            golden.ff_state,
            slots,
            latencies,
        )
        return failed, latencies, cycles

    # ------------------------------------------------------ scheduled sweeps

    def _compile_scheduled(self):
        """Generate the adaptive-scheduler variant of the sweep kernel.

        Same inlined cycle body as :meth:`run_sweep`'s kernel, plus the
        **refill loop**: an activation block (entered only on event cycles)
        that loads the golden flip-flop state, the SEU flips and the golden
        loopback history into freshly assigned lanes of the running batch,
        an ``active`` lane mask threaded through failure classification, and
        retirement callbacks that hand freed lanes back to the feeder so the
        pending-injection queue keeps the batch saturated.  Fast-forwards
        over stretches with no active lane.  One kernel invocation is one
        scheduler pass; verdicts are bit-identical to per-request
        :meth:`run_sweep` lanes.
        """
        netlist = self.netlist
        check = self._check_interval
        end = self.golden.n_cycles
        flip_flops = netlist.flip_flops()
        net_index = self._net_index
        ind = "        "  # loop-body indent

        lines = [
            "def _sweep_sched(m, feeder, applied, gold_out, gold_ff, slots,"
            " fail_cycle):",
            "    z = 0",
            "    active = z",
            "    failed = z",
            "    n_cyc = 0",
            "    lane_cyc = 0",
        ]
        for t in range(len(self._taps)):
            lines.append(f"    s{t} = slots[{t}]")
        # Every net local the loop reads must exist before the first cycle;
        # flip-flop outputs start as garbage-free zeros (lanes only matter
        # once activated, and activation overwrites them).
        for ff in flip_flops:
            lines.append(f"    {_local(net_index[ff.output_net()])} = z")
        for clk in self._clocks:
            lines.append(f"    {_local(clk)} = z")
        lines.append("    c = feeder.start_cycle()")
        lines.append("    next_ev = c")
        lines.append("    while True:")
        # Event block: deadline retirements + lane activations (refill).
        lines.append(f"{ind}if c == next_ev:")
        ev = ind + "    "
        lines.append(
            f"{ev}retire, am, gs, flips, hist, next_ev ="
            " feeder.on_cycle(c, active, failed, fail_cycle)"
        )
        lines.append(f"{ev}if retire:")
        lines.append(f"{ev}    active &= ~retire")
        lines.append(f"{ev}    failed &= ~retire")
        lines.append(f"{ev}if am:")
        act = ev + "    "
        lines.append(f"{act}nam = ~am")
        for ff_i, ff in enumerate(flip_flops):
            q = _local(net_index[ff.output_net()])
            lines.append(
                f"{act}{q} = ({q} & nam) | (am if (gs >> {ff_i}) & 1 else z)"
            )
            lines.append(f"{act}{q} ^= flips[{ff_i}]")
        for t, (_src, _tgt, _sb, delay) in enumerate(self._taps):
            for k in range(delay):
                lines.append(
                    f"{act}s{t}[{k}] = (s{t}[{k}] & nam)"
                    f" | (am if hist[{t}][{k}] else z)"
                )
        lines.append(f"{act}active |= am")
        # Fast-forward while no lane is live.
        lines.append(f"{ind}if active == 0:")
        lines.append(f"{ind}    c = feeder.skip(c)")
        lines.append(f"{ind}    if c < 0:")
        lines.append(f"{ind}        break")
        lines.append(f"{ind}    next_ev = c")
        lines.append(f"{ind}    continue")
        # Cycle body — identical to the naive kernel's.
        lines.append(f"{ind}vec = applied[c]")
        for bit_pos, idx in self._open_inputs:
            lines.append(f"{ind}{_local(idx)} = m if (vec >> {bit_pos}) & 1 else z")
        for t, (_src, tgt, _sb, delay) in enumerate(self._taps):
            lines.append(f"{ind}{_local(tgt)} = s{t}[c % {delay}]")
        lines.extend(self._gate_lines(net_index, ind))
        lines.append(f"{ind}gv = gold_out[c]")
        lines.append(f"{ind}fail_c = z")
        if self._data_pairs:
            lines.append(f"{ind}beat = z")
        for vi, gb in self._valid_pairs:
            lines.append(f"{ind}g = m if (gv >> {gb}) & 1 else z")
            lines.append(f"{ind}fail_c |= {_local(vi)} ^ g")
            if self._data_pairs:
                lines.append(f"{ind}beat |= g | {_local(vi)}")
        for di, gb in self._data_pairs:
            lines.append(f"{ind}g = m if (gv >> {gb}) & 1 else z")
            lines.append(f"{ind}fail_c |= ({_local(di)} ^ g) & beat")
        lines.extend(
            [
                f"{ind}newly = fail_c & active & ~failed",
                f"{ind}if newly:",
                f"{ind}    failed |= newly",
                f"{ind}    while newly:",
                f"{ind}        low = newly & -newly",
                f"{ind}        fail_cycle[low.bit_length() - 1] = c",
                f"{ind}        newly ^= low",
            ]
        )
        for t, (src, _tgt, _sb, delay) in enumerate(self._taps):
            lines.append(f"{ind}s{t}[c % {delay}] = {_local(src)}")
        for ff_i, ff in enumerate(flip_flops):
            d = _local(net_index[ff.connections["D"]])
            if "RN" in ff.connections:
                rn = _local(net_index[ff.connections["RN"]])
                lines.append(f"{ind}t{ff_i} = {d} & {rn}")
            else:
                lines.append(f"{ind}t{ff_i} = {d}")
        for ff_i, ff in enumerate(flip_flops):
            lines.append(f"{ind}{_local(net_index[ff.output_net()])} = t{ff_i}")
        lines.append(f"{ind}c += 1")
        lines.append(f"{ind}n_cyc += 1")
        lines.append(f"{ind}lane_cyc += (active & m).bit_count()")
        # Retirement check (global cadence) and end-of-trace drain.
        lines.append(f"{ind}if c % {check} == 0 or c == {end}:")
        chk = ind + "    "
        lines.append(f"{chk}if c == {end}:")
        lines.append(f"{chk}    if active:")
        lines.append(f"{chk}        feeder.retire(active & m, failed, fail_cycle, c)")
        lines.append(f"{chk}    break")
        lines.append(f"{chk}gs = gold_ff[c]")
        lines.append(f"{chk}diff = z")
        for q_idx, ff_i in self._relevant_pairs:
            lines.append(
                f"{chk}diff |= {_local(q_idx)} ^ (m if (gs >> {ff_i}) & 1 else z)"
            )
        for t, (_src, _tgt, sb, delay) in enumerate(self._taps):
            lines.append(f"{chk}for past in range(max(0, c - {delay}), c):")
            lines.append(
                f"{chk}    diff |= s{t}[past % {delay}]"
                f" ^ (m if (gold_out[past] >> {sb}) & 1 else z)"
            )
        lines.append(f"{chk}retire = active & (failed | ~diff) & m")
        lines.append(f"{chk}if retire:")
        lines.append(f"{chk}    feeder.retire(retire, failed, fail_cycle, c)")
        lines.append(f"{chk}    active &= ~retire")
        lines.append(f"{chk}    failed &= ~retire")
        lines.append("    return n_cyc, lane_cyc")

        namespace: Dict[str, object] = {"fb": self._fallbacks}
        exec("\n".join(lines), namespace)  # noqa: S102 - generated from our own netlist
        return namespace["_sweep_sched"]

    def run_scheduled(
        self,
        requests: Sequence[Tuple[int, int, int]],
        verdicts: List[Tuple[bool, Optional[int]]],
        max_lanes: int = 256,
        horizon: Optional[int] = None,
        stats=None,
        progress=None,
    ) -> None:
        """Run ``(cycle, ff_index, key)`` injections through the refill kernel.

        *requests* must be sorted by cycle; ``verdicts[key]`` receives the
        ``(failed, latency)`` verdict of each request.  Lanes are activated
        at their own injection cycles and freed lanes are refilled from the
        pending queue; requests that find no free lane roll over to the next
        kernel pass.  *stats* (a
        :class:`~repro.faultinjection.scheduler.SchedulerStats`) is updated
        in place when given.
        """
        if self._sched_fn is None:
            self._sched_fn = self._compile_scheduled()
        golden = self.golden
        pending = list(requests)
        while pending:
            width = min(max_lanes, len(pending))
            m = lane_mask(width)
            feeder = _SweepFeeder(self, pending, width, horizon, verdicts, stats)
            slots = [[0] * delay for (_s, _t, _b, delay) in self._taps]
            fail_cycle = [0] * width
            n_cyc, lane_cyc = self._sched_fn(
                m,
                feeder,
                golden.applied_inputs,
                golden.outputs,
                golden.ff_state,
                slots,
                fail_cycle,
            )
            pending = feeder.deferred
            if stats is not None:
                stats.n_passes += 1
                stats.cycles_simulated += n_cyc
                stats.lane_cycles += lane_cyc
                stats.activations += feeder.n_activated
                stats.deferred += len(feeder.deferred)
            if progress is not None:
                progress(len(requests) - len(pending), len(requests))


class _SweepFeeder:
    """Pending-queue side of one scheduled kernel pass.

    The generated kernel calls back here at event cycles (pending injection
    cycles and per-lane horizon deadlines) to obtain activation plans, and
    at retirement checks to record verdicts and free lanes.  The feeder owns
    all per-lane bookkeeping so the generated code only moves masks.
    """

    def __init__(
        self,
        kernel: FusedSweepKernel,
        pending: Sequence[Tuple[int, int, int]],
        width: int,
        horizon: Optional[int],
        verdicts: List[Tuple[bool, Optional[int]]],
        stats,
    ) -> None:
        self.kernel = kernel
        self.pending = pending
        self.ptr = 0
        self.width = width
        self.horizon = horizon
        self.verdicts = verdicts
        self.stats = stats
        self.free: List[int] = list(range(width - 1, -1, -1))  # pop() -> lowest
        self.lane_req: List[Optional[Tuple[int, int, int]]] = [None] * width
        self.deadlines: Dict[int, List[Tuple[int, Tuple[int, int, int]]]] = {}
        self.deferred: List[Tuple[int, int, int]] = []
        self.n_activated = 0
        self._end = kernel.golden.n_cycles

    def start_cycle(self) -> int:
        return self.pending[0][0]

    def _next_event(self, after: int) -> int:
        """Next cycle the kernel must call :meth:`on_cycle` at (or the end)."""
        candidates = [self._end]
        if self.ptr < len(self.pending):
            candidates.append(self.pending[self.ptr][0])
        for deadline in self.deadlines:
            if deadline > after:
                candidates.append(deadline)
        return min(candidates)

    def skip(self, cycle: int) -> int:
        """Fast-forward target when no lane is active (-1 ends the pass)."""
        if self.ptr >= len(self.pending):
            return -1
        return self.pending[self.ptr][0]

    def _record(self, lane: int, failed: int, fail_cycle: List[int]) -> None:
        request = self.lane_req[lane]
        self.lane_req[lane] = None
        self.free.append(lane)
        if (failed >> lane) & 1:
            self.verdicts[request[2]] = (True, fail_cycle[lane] - request[0])
        else:
            self.verdicts[request[2]] = (False, None)

    def retire(self, retire_mask: int, failed: int, fail_cycle: List[int], cycle: int) -> None:
        """Record verdicts for retired lanes and hand their slots back."""
        bits = retire_mask
        while bits:
            low = bits & -bits
            self._record(low.bit_length() - 1, failed, fail_cycle)
            bits ^= low

    def on_cycle(
        self, cycle: int, active: int, failed: int, fail_cycle: List[int]
    ):
        """Deadline retirements + activation plan for *cycle*.

        Returns ``(retire, act_mask, golden_state, flips, history, next_ev)``
        with ``flips`` a per-flip-flop lane-mask list and ``history`` the
        golden loopback bits per (tap, slot index) for the activated lanes.
        """
        retire = 0
        for lane, request in self.deadlines.pop(cycle, []):
            # Stale entries point at lanes that retired early and were
            # refilled; only the original occupant expires here.
            if self.lane_req[lane] is request:
                retire |= 1 << lane
                self._record(lane, failed, fail_cycle)

        pending = self.pending
        n = len(pending)
        activated: List[Tuple[Tuple[int, int, int], int]] = []
        while self.ptr < n and pending[self.ptr][0] == cycle:
            if not self.free:
                break
            request = pending[self.ptr]
            self.ptr += 1
            lane = self.free.pop()
            self.lane_req[lane] = request
            activated.append((request, lane))
            if self.horizon is not None:
                deadline = request[0] + self.horizon
                if deadline < self._end:
                    self.deadlines.setdefault(deadline, []).append((lane, request))
        while self.ptr < n and pending[self.ptr][0] <= cycle:
            self.deferred.append(pending[self.ptr])  # no free lane: next pass
            self.ptr += 1

        act_mask = 0
        golden_state = 0
        flips: Optional[List[int]] = None
        history: Optional[List[List[int]]] = None
        if activated:
            self.n_activated += len(activated)
            kernel = self.kernel
            flips = [0] * max(1, kernel._n_ffs)
            for request, lane in activated:
                act_mask |= 1 << lane
                spec = request[1]
                for ff_idx in spec if isinstance(spec, tuple) else (spec,):
                    flips[ff_idx] |= 1 << lane
            golden_state = kernel.golden.ff_state[cycle]
            history = []
            for t, (_src, _tgt, _sb, delay) in enumerate(kernel._taps):
                tap_golden = kernel._tap_golden[t]
                arr = [0] * delay
                for past in range(cycle - delay, cycle):
                    if past >= 0:
                        arr[past % delay] = tap_golden[past]
                history.append(arr)
        return retire, act_mask, golden_state, flips, history, self._next_event(cycle)
