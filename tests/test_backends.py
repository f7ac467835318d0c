"""Backend parity: the pluggable simulation substrate is an execution detail.

Every engine registered in :mod:`repro.sim.backend` must produce identical
cycle-level net values, per-flip-flop failure verdicts and error latencies
on the seed circuits — campaigns, caches and the paper's numbers may never
depend on which substrate executed them.  (The fuzzed cross-checks live in
``repro.verify``; these tests pin the real workloads.)
"""

from __future__ import annotations

import random

import pytest

from repro.campaigns import CampaignSpec
from repro.circuits import get_circuit
from repro.faultinjection import (
    AnyOutputCriterion,
    FaultInjector,
    PacketInterfaceCriterion,
    StatisticalFaultCampaign,
)
from repro.sim import (
    BACKEND_NAMES,
    ScheduleBuilder,
    Testbench,
    create_backend,
)
from repro.verify.oracle import OracleSimulator

NEW_BACKENDS = [b for b in BACKEND_NAMES if b != "compiled"]


# ------------------------------------------------------------ cycle parity


@pytest.mark.parametrize("circuit", ["counter16", "lfsr16", "gray8"])
def test_cycle_parity_random_stimulus(circuit):
    """The compiled backend agrees net-for-net with one reference oracle per
    lane under random per-lane stimulus."""
    netlist = get_circuit(circuit)
    n_lanes = 5
    sim = create_backend("compiled", netlist, n_lanes=n_lanes)
    sim.reset()
    oracles = [OracleSimulator(netlist) for _ in range(n_lanes)]
    for oracle in oracles:
        oracle.reset()
    rng = random.Random(2024)
    inputs = list(netlist.inputs)
    clocks = set(netlist.clocks)
    for _cycle in range(24):
        drives = {name: rng.getrandbits(n_lanes) for name in inputs}
        for name, lanes in drives.items():
            sim.set_input_lanes(name, lanes)
            for lane, oracle in enumerate(oracles):
                oracle.set_input(name, (lanes >> lane) & 1)
        sim.eval_comb()
        for oracle in oracles:
            oracle.eval_comb()
        for net in netlist.nets:
            if net in clocks:
                continue
            for lane, oracle in enumerate(oracles):
                assert sim.get_bit(net, lane) == oracle.get(net), (net, lane)
        sim.tick()
        for oracle in oracles:
            oracle.tick()


def test_create_backend_rejects_fused_and_unknown():
    netlist = get_circuit("counter8")
    with pytest.raises(ValueError, match="fused"):
        create_backend("fused", netlist)
    for name in ("verilator", "numpy"):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend(name, netlist)


# --------------------------------------------------------- injector parity


def _counter_testbench():
    netlist = get_circuit("counter16")
    builder = ScheduleBuilder(netlist.inputs)
    builder.drive(0, "rst_n", 1)
    rng = random.Random(11)
    for cycle in range(40):
        builder.drive(cycle, "en", rng.getrandbits(1))
        builder.drive(cycle, "clear", 1 if rng.random() < 0.05 else 0)
    return netlist, Testbench(netlist, builder.compile(40))


@pytest.mark.parametrize("backend", NEW_BACKENDS)
def test_injector_parity_counter(backend):
    """Verdicts, latencies, cycle counts match compiled on an open-loop DUT."""
    netlist, tb = _counter_testbench()
    golden = tb.run_golden()
    criterion = AnyOutputCriterion.all_outputs(netlist)
    reference = FaultInjector(netlist, tb, golden, criterion, check_interval=4)
    candidate = FaultInjector(
        netlist, tb, golden, criterion, check_interval=4, backend=backend
    )
    lanes = list(range(reference.sim.n_flip_flops))
    for cycle in (2, 17, 33):
        want = reference.run_batch(cycle, lanes)
        got = candidate.run_batch(cycle, lanes)
        assert got.failed_mask == want.failed_mask
        assert got.latencies == want.latencies
        assert got.cycles_simulated == want.cycles_simulated
        assert got.n_lanes == want.n_lanes


@pytest.mark.parametrize("backend", NEW_BACKENDS)
def test_injector_parity_tiny_mac(backend, tiny_mac, tiny_workload, tiny_golden):
    """Per-FF verdicts and error latencies match on the seed MAC workload
    (packet criterion + XGMII loopback + early retirement)."""
    criterion = PacketInterfaceCriterion(
        tiny_workload.valid_nets, tiny_workload.data_nets
    )
    reference = FaultInjector(
        tiny_mac, tiny_workload.testbench, tiny_golden, criterion
    )
    candidate = FaultInjector(
        tiny_mac, tiny_workload.testbench, tiny_golden, criterion, backend=backend
    )
    first, _last = tiny_workload.active_window
    lanes = list(range(reference.sim.n_flip_flops))
    for cycle in (first + 4, first + 11):
        want = reference.run_batch(cycle, lanes)
        got = candidate.run_batch(cycle, lanes)
        assert got.failed_mask == want.failed_mask
        assert got.latencies == want.latencies
        assert got.cycles_simulated == want.cycles_simulated


def test_set_batch_parity_fused(tiny_mac, tiny_workload, tiny_golden):
    """SET sweeps run on the compiled cycle substrate under either engine."""
    criterion = PacketInterfaceCriterion(
        tiny_workload.valid_nets, tiny_workload.data_nets
    )
    reference = FaultInjector(tiny_mac, tiny_workload.testbench, tiny_golden, criterion)
    candidate = FaultInjector(
        tiny_mac, tiny_workload.testbench, tiny_golden, criterion, backend="fused"
    )
    first, _last = tiny_workload.active_window
    nets = [c.output_net() for c in tiny_mac.combinational_cells()[:12]]
    want = reference.run_set_batch(first + 5, nets)
    got = candidate.run_set_batch(first + 5, nets)
    assert got.failed_mask == want.failed_mask
    assert got.latencies == want.latencies


@pytest.mark.parametrize("backend", NEW_BACKENDS)
def test_campaign_parity(backend):
    """A full statistical campaign is bit-identical across substrates."""
    netlist, tb = _counter_testbench()
    criterion = AnyOutputCriterion.all_outputs(netlist)
    results = {}
    for name in ("compiled", backend):
        runner = StatisticalFaultCampaign(
            netlist, tb, criterion, backend=name, max_lanes=8
        )
        result = runner.run(n_injections=6, seed=3)
        results[name] = {
            ff: (r.n_injections, r.n_failures, r.latency_sum)
            for ff, r in result.results.items()
        }
    assert results["compiled"] == results[backend]


def test_injector_rejects_unknown_backend(tiny_mac, tiny_workload, tiny_golden):
    criterion = PacketInterfaceCriterion(
        tiny_workload.valid_nets, tiny_workload.data_nets
    )
    for name in ("gpu", "numpy"):
        with pytest.raises(ValueError, match="unknown backend"):
            FaultInjector(
                tiny_mac, tiny_workload.testbench, tiny_golden, criterion, backend=name
            )


# ----------------------------------------------------------- campaign spec


def test_spec_backend_excluded_from_cache_identity():
    """Backends share cached results: keys must not depend on the backend."""
    base = CampaignSpec(circuit="xgmac_tiny")
    for backend in BACKEND_NAMES:
        other = CampaignSpec(circuit="xgmac_tiny", backend=backend)
        assert other.cache_key() == base.cache_key()
        assert other.family_key() == base.family_key()
    # ...but real campaign parameters still change the identity.
    assert CampaignSpec(circuit="xgmac_tiny", seed=9).cache_key() != base.cache_key()


def test_spec_backend_validation_and_roundtrip():
    for name in ("verilator", "numpy"):
        with pytest.raises(ValueError, match="unknown backend"):
            CampaignSpec(backend=name)
    spec = CampaignSpec(backend="fused")
    assert CampaignSpec.from_dict(spec.to_dict()) == spec
    # Payloads written before the backend field existed load with the default.
    legacy = spec.to_dict()
    legacy.pop("backend")
    assert CampaignSpec.from_dict(legacy).backend == "compiled"
