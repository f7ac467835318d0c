"""Adaptive injection scheduler: equivalence, boundaries, lane algebra.

The scheduler's contract is that scheduling is *invisible*: whatever lane a
request lands in, however often the batch is compacted or repacked, every
injection's verdict and error latency must equal a naive
:meth:`FaultInjector.run_batch` replay of the same ``(cycle, ff)`` pair.
"""

from __future__ import annotations

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultinjection import (
    AdaptiveScheduler,
    AnyOutputCriterion,
    FaultInjector,
    PacketInterfaceCriterion,
)
from repro.netlist.levelize import ff_spread_masks, sink_masks, source_masks
from repro.sim import (
    BACKEND_NAMES,
    CYCLE_BACKENDS,
    ScheduleBuilder,
    Testbench,
    create_backend,
)
from repro.sim.logic import gather_bits


@pytest.fixture(scope="module")
def tiny_parts(tiny_mac, tiny_workload, tiny_golden):
    criterion = PacketInterfaceCriterion(
        tiny_workload.valid_nets, tiny_workload.data_nets
    )
    return tiny_mac, tiny_workload, tiny_golden, criterion


def naive_verdicts(injector, requests, horizon=None):
    """Per-request verdicts via one run_batch lane per (cycle, ff) bucket."""
    buckets = defaultdict(list)
    for key, (cycle, ff_idx) in enumerate(requests):
        buckets[cycle].append((key, ff_idx))
    verdicts = [None] * len(requests)
    for cycle in sorted(buckets):
        keys = [k for k, _ in buckets[cycle]]
        ffs = [f for _, f in buckets[cycle]]
        outcome = injector.run_batch(cycle, ffs, horizon=horizon)
        for lane, key in enumerate(keys):
            failed = bool((outcome.failed_mask >> lane) & 1)
            verdicts[key] = (failed, outcome.latencies.get(lane) if failed else None)
    return verdicts


# --------------------------------------------------------------- equivalence


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_scheduled_matches_naive_per_backend(tiny_parts, backend):
    netlist, workload, golden, criterion = tiny_parts
    injector = FaultInjector(
        netlist, workload.testbench, golden, criterion, backend=backend
    )
    first, last = workload.active_window
    rng = random.Random(42)
    n_ffs = injector.sim.n_flip_flops
    requests = [(rng.randrange(first, last), rng.randrange(n_ffs)) for _ in range(150)]
    expected = naive_verdicts(injector, requests)
    outcome = injector.run_scheduled(requests, max_lanes=32)
    assert outcome.verdicts == expected
    assert outcome.stats.activations == len(requests)


# ----------------------------------------------------------------- boundaries


def test_injection_on_last_workload_cycle(tiny_parts):
    """A lane activated on the final trace cycle simulates exactly one cycle."""
    netlist, workload, golden, criterion = tiny_parts
    injector = FaultInjector(netlist, workload.testbench, golden, criterion)
    last_cycle = golden.n_cycles - 1
    requests = [(last_cycle, ff) for ff in range(12)]
    expected = naive_verdicts(injector, requests)
    outcome = injector.run_scheduled(requests, max_lanes=4)
    assert outcome.verdicts == expected


def test_check_interval_larger_than_remaining_horizon(tiny_parts):
    """Retirement checks sparser than the whole observation window still
    retire every lane with the correct verdict."""
    netlist, workload, golden, criterion = tiny_parts
    injector = FaultInjector(
        netlist, workload.testbench, golden, criterion, check_interval=10_000
    )
    first, _last = workload.active_window
    requests = [(first + offset, ff) for offset in (0, 3, 9) for ff in range(10)]
    for horizon in (4, None):
        expected = naive_verdicts(injector, requests, horizon=horizon)
        outcome = injector.run_scheduled(requests, horizon=horizon, max_lanes=8)
        assert outcome.verdicts == expected


def test_all_lanes_failing_in_the_injection_cycle():
    """Output-register SEUs on a counter fail with latency 0 on every lane
    and free the whole batch at the first check."""
    from repro.synth import Module, synthesize, wordlib

    module = Module("counter4")
    enable = module.input("en")
    count = module.reg_bus("cnt", 4)
    module.next_en(count, enable, wordlib.inc(count))
    module.output_bus("count", count)
    netlist = synthesize(module)

    sb = ScheduleBuilder(netlist.inputs)
    sb.drive(0, "en", 1)
    testbench = Testbench(netlist, sb.compile(40))
    golden = testbench.run_golden()
    criterion = AnyOutputCriterion.all_outputs(netlist)
    injector = FaultInjector(netlist, testbench, golden, criterion)
    # The count register drives the outputs combinationally: every flip is
    # visible in its own injection cycle.
    count_ffs = [
        i
        for i, ff in enumerate(injector.sim.flip_flops)
        if ff.output_net().startswith("cnt")
    ]
    requests = [(cycle, ff) for cycle in (5, 6, 20) for ff in count_ffs]
    outcome = injector.run_scheduled(requests, max_lanes=len(requests))
    assert all(failed and latency == 0 for failed, latency in outcome.verdicts)
    assert outcome.verdicts == naive_verdicts(injector, requests)


def test_deferred_requests_roll_over_to_later_passes(tiny_parts):
    """More same-cycle injections than lanes: the overflow keeps its verdicts."""
    netlist, workload, golden, criterion = tiny_parts
    injector = FaultInjector(netlist, workload.testbench, golden, criterion)
    first, _last = workload.active_window
    requests = [(first + 2, ff) for ff in range(30)]
    expected = naive_verdicts(injector, requests)
    scheduler = AdaptiveScheduler(injector, max_lanes=7)
    outcome = scheduler.run(requests)
    assert outcome.verdicts == expected
    assert outcome.stats.n_passes >= 5  # ceil(30 / 7) passes of 7 lanes
    assert outcome.stats.deferred > 0


# -------------------------------------------------------------- property test


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_compaction_refill_never_changes_verdict_or_latency(tiny_parts, data):
    """Property: for random request sets, lane budgets, backends and
    horizons, scheduled verdicts/latencies equal the naive replay."""
    netlist, workload, golden, criterion = tiny_parts
    backend = data.draw(st.sampled_from(list(BACKEND_NAMES)))
    injector = FaultInjector(
        netlist, workload.testbench, golden, criterion, backend=backend
    )
    first, last = workload.active_window
    n_ffs = injector.sim.n_flip_flops
    requests = data.draw(
        st.lists(
            st.tuples(
                st.integers(first, last - 1), st.integers(0, n_ffs - 1)
            ),
            min_size=1,
            max_size=40,
        )
    )
    max_lanes = data.draw(st.integers(1, 24))
    horizon = data.draw(st.one_of(st.none(), st.integers(1, 30)))
    expected = naive_verdicts(injector, requests, horizon=horizon)
    scheduler = AdaptiveScheduler(injector, max_lanes=max_lanes)
    assert scheduler.run(requests, horizon=horizon).verdicts == expected


# ------------------------------------------------------------- lane algebra


@pytest.mark.parametrize("backend", CYCLE_BACKENDS)
def test_gather_scatter_roundtrip(tiny_mac, backend):
    sim = create_backend(backend, tiny_mac, n_lanes=70)
    rng = random.Random(1)
    packed = rng.getrandbits(70)
    vec = sim.scatter_lanes(sim.broadcast(0), range(70), packed)
    lanes = sorted(rng.sample(range(70), 23))
    gathered = sim.gather_lanes(vec, lanes)
    assert gathered == sum(((packed >> lane) & 1) << j for j, lane in enumerate(lanes))
    # Scatter into a fresh narrow batch preserves each selected lane.
    sim.resize_lanes(23)
    narrow = sim.scatter_lanes(sim.broadcast(0), range(23), gathered)
    assert sim.vec_to_int(narrow) == gathered


def gather_by_definition(vec, lanes):
    """Bit *j* of the result is lane ``lanes[j]`` of *vec*, one lane at a time."""
    out = 0
    for j, lane in enumerate(lanes):
        out |= ((vec >> lane) & 1) << j
    return out


def lane_subset(rng, width, kind):
    if kind == "empty":
        return []
    if kind == "single":
        return [rng.randrange(width)]
    if kind == "full":
        return list(range(width))
    return sorted(rng.sample(range(width), rng.randint(1, width)))


@pytest.mark.parametrize("backend", CYCLE_BACKENDS)
@settings(max_examples=40, deadline=None)
@given(
    width=st.one_of(st.integers(1, 130), st.integers(1, 5000)),
    kind=st.sampled_from(["empty", "single", "full", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gather_lanes_matches_per_lane_definition(tiny_mac, backend, width, kind, seed):
    sim = create_backend(backend, tiny_mac, n_lanes=width)
    rng = random.Random(seed)
    packed = rng.getrandbits(width)
    vec = sim.scatter_lanes(sim.broadcast(0), range(width), packed)
    lanes = lane_subset(rng, width, kind)
    assert sim.gather_lanes(vec, lanes) == gather_by_definition(packed, lanes)


@pytest.mark.parametrize("width", [1, 63, 64, 65, 4096, 5000])
@pytest.mark.parametrize("kind", ["empty", "single", "full", "random"])
def test_gather_bits_edge_widths(width, kind):
    rng = random.Random(width)
    lanes = lane_subset(rng, width, kind)
    for value in (0, (1 << width) - 1, rng.getrandbits(width)):
        assert gather_bits(value, lanes, width) == gather_by_definition(value, lanes)
        # A narrower width hint than the value or the lanes need.
        assert gather_bits(value, lanes, 1) == gather_by_definition(value, lanes)
    high = [width + 3, width]  # unordered lanes beyond the width
    assert gather_bits((1 << width) - 1, high, width) == 0
    assert gather_bits(1 << (width + 3), high, width) == 0b1


@pytest.mark.parametrize("backend", CYCLE_BACKENDS)
def test_diverging_rows_probe(tiny_mac, backend):
    sim = create_backend(backend, tiny_mac, n_lanes=5)
    sim.reset()
    q0 = sim._ff_q[0]
    q1 = sim._ff_q[1]
    sim.values[q0] = sim.scatter_lanes(sim.broadcast(0), [2], 1)  # lane 2 high
    diff = sim.diverging_rows([(q0, 0), (q1, 0)], sim.broadcast(1))
    assert sim.vec_to_int(diff) == 0b00100
    # Inactive lanes are masked out of the probe.
    diff = sim.diverging_rows([(q0, 0)], sim.lane_vec(0))
    assert sim.vec_to_int(diff) == 0


def test_levelize_covers_and_orders_all_cells(tiny_mac):
    order = tiny_mac.topological_comb_order()
    comb = [c.name for c in tiny_mac.combinational_cells()]
    assert sorted(order) == sorted(comb)
    # Every cell only reads nets produced by earlier cells, flip-flops or
    # primary inputs -- the order the mask propagation relies on.
    position = {name: i for i, name in enumerate(order)}
    for cell_name in order:
        for net in tiny_mac.cells[cell_name].input_nets():
            driver = tiny_mac.nets[net].driver
            if driver is None or tiny_mac.cells[driver.cell].is_sequential:
                continue
            assert position[driver.cell] < position[cell_name]
    # The masks cover every combinational output net.
    net_ff_mask, net_input_mask = source_masks(tiny_mac)
    ff_sink, out_mask = sink_masks(tiny_mac)
    for cell_name in order:
        out = tiny_mac.cells[cell_name].output_net()
        assert out in net_ff_mask and out in net_input_mask
        assert out in ff_sink and out in out_mask
    spread = ff_spread_masks(tiny_mac)
    assert len(spread) == len(tiny_mac.flip_flops())
