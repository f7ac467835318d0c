"""Fault-injection tests: criteria, injector semantics, campaigns, FDR stats."""

import json
import math

import pytest

from repro.faultinjection import (
    AnyOutputCriterion,
    CampaignResult,
    FdrEstimate,
    FlipFlopResult,
    PacketInterfaceCriterion,
    SeuFault,
    StatisticalFaultCampaign,
    relevant_flip_flops,
    required_sample_size,
    wilson_interval,
)
from repro.faultinjection.injector import BatchOutcome, FaultInjector
from repro.netlist import Netlist
from repro.sim import ScheduleBuilder, Testbench
from repro.synth import Module, Sig, synthesize, wordlib


# ------------------------------------------------------------- fdr stats


def test_fdr_estimate_basics():
    est = FdrEstimate(n_injections=170, n_failures=85)
    assert est.fdr == 0.5
    low, high = est.interval
    assert low < 0.5 < high
    assert est.margin < 0.08
    # Zero injections means *unknown* FDR, not a claim of perfect
    # reliability.
    assert math.isnan(FdrEstimate(0, 0).fdr)
    assert math.isnan(FlipFlopResult("ff", n_injections=0).fdr)


def test_wilson_interval_properties():
    low, high = wilson_interval(0, 100)
    assert low == pytest.approx(0.0, abs=1e-12) and high < 0.05
    low, high = wilson_interval(100, 100)
    assert high == pytest.approx(1.0, abs=1e-12) and low > 0.95
    assert wilson_interval(0, 0) == (0.0, 1.0)
    with pytest.raises(ValueError):
        wilson_interval(1, 10, confidence=1.5)


def test_required_sample_size_matches_paper():
    """~170 injections at 95 % confidence and 7.5 % margin (paper's count)."""
    n = required_sample_size(None, margin=0.075, confidence=0.95)
    assert 165 <= n <= 175
    # Finite universe shrinks the requirement.
    assert required_sample_size(1000, margin=0.075) < n
    with pytest.raises(ValueError):
        required_sample_size(None, margin=0.0)
    with pytest.raises(ValueError):
        required_sample_size(0)


#: ``required_sample_size(population, margin, confidence)`` over a grid,
#: recorded with the original ``scipy.stats.norm.ppf`` quantile: the
#: stdlib ``NormalDist().inv_cdf`` that replaced it may differ by an ulp,
#: which must never move a rounded-up sample size.
SAMPLE_SIZE_MARGINS = (0.01, 0.02, 0.025, 0.05, 0.075, 0.1)
SAMPLE_SIZE_TABLE = {
    0.9: {
        None: (6764, 1691, 1083, 271, 121, 68),
        1: (1, 1, 1, 1, 1, 1),
        50: (50, 49, 48, 43, 36, 29),
        1000: (872, 629, 520, 214, 108, 64),
        172040: (6509, 1675, 1076, 271, 121, 68),
        10**7: (6760, 1691, 1083, 271, 121, 68),
    },
    0.95: {
        None: (9604, 2401, 1537, 385, 171, 97),
        1: (1, 1, 1, 1, 1, 1),
        50: (50, 49, 49, 45, 39, 34),
        1000: (906, 707, 607, 278, 146, 88),
        172040: (9096, 2368, 1523, 384, 171, 96),
        10**7: (9595, 2401, 1537, 385, 171, 97),
    },
    0.99: {
        None: (16588, 4147, 2654, 664, 295, 166),
        1: (1, 1, 1, 1, 1, 1),
        50: (50, 50, 50, 47, 43, 39),
        1000: (944, 806, 727, 400, 228, 143),
        172040: (15129, 4050, 2614, 661, 295, 166),
        10**7: (16560, 4146, 2654, 664, 295, 166),
    },
}


@pytest.mark.parametrize("confidence", sorted(SAMPLE_SIZE_TABLE))
def test_required_sample_size_table(confidence):
    for population, expected in SAMPLE_SIZE_TABLE[confidence].items():
        got = tuple(
            required_sample_size(population, margin, confidence)
            for margin in SAMPLE_SIZE_MARGINS
        )
        assert got == expected, (confidence, population)


def test_required_sample_size_edge_cases():
    # A one-element universe needs exactly its one sample, whatever the
    # margin or prior.
    assert required_sample_size(1, margin=0.075) == 1
    assert required_sample_size(1, margin=0.001, p=0.999) == 1
    # The sample can never exceed the finite universe it is drawn from.
    for population in (1, 2, 10, 170, 1054):
        n = required_sample_size(population, margin=0.001)
        assert 1 <= n <= population
    # Priors near the endpoints shrink the variance term but still require
    # at least one observation.
    assert required_sample_size(None, margin=0.075, p=1e-9) >= 1
    assert required_sample_size(1000, margin=0.075, p=1 - 1e-9) >= 1
    # Degenerate priors assert the outcome — rejected, not divided by.
    for bad_p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            required_sample_size(1000, p=bad_p)
    with pytest.raises(ValueError):
        required_sample_size(None, confidence=1.0)


def test_mean_fdr_ignores_unmeasured_flip_flops():
    result = CampaignResult(circuit="c", n_injections=10, seed=0)
    result.results["a"] = FlipFlopResult("a", n_injections=10, n_failures=5)
    result.results["b"] = FlipFlopResult("b", n_injections=0, n_failures=0)
    assert result.mean_fdr() == pytest.approx(0.5)
    empty = CampaignResult(circuit="c", n_injections=10, seed=0)
    empty.results["a"] = FlipFlopResult("a")
    assert math.isnan(empty.mean_fdr())
    assert math.isnan(CampaignResult(circuit="c", n_injections=10, seed=0).mean_fdr())


def test_seu_fault_repr():
    fault = SeuFault("ff_x", 42)
    assert "ff_x" in str(fault)


# -------------------------------------------------- relevant flip-flops


def test_relevant_flip_flops_excludes_dead_logic():
    m = Module("partial")
    en = m.input("en")
    visible = m.reg_bus("vis", 4)
    hidden = m.reg_bus("hid", 4)
    m.next_en(visible, en, wordlib.inc(visible))
    m.next_en(hidden, en, wordlib.inc(hidden))
    m.output_bus("out", visible)
    m.output_bus("dbg", hidden)
    nl = synthesize(m)
    relevant = relevant_flip_flops(nl, [f"out[{i}]" for i in range(4)])
    assert relevant == {f"ff_vis[{i}]" for i in range(4)}


def test_relevant_flip_flops_follow_sequential_paths(tiny_mac, tiny_workload):
    observable = tiny_workload.valid_nets + tiny_workload.data_nets
    relevant = relevant_flip_flops(tiny_mac, observable)
    # FIFO memory feeds the packet interface through the read mux.
    assert any(name.startswith("ff_rxf_mem") for name in relevant)
    # TX-side state reaches RX outputs only through the loopback, which is
    # external to the netlist — so TX FSM state is NOT relevant here.
    assert "ff_tx_state[0]" not in relevant
    # Statistics counters can never affect the packet interface.
    assert not any(name.startswith("ff_stat_") for name in relevant)


def test_relevant_flip_flops_empty_observable_set(tiny_mac):
    assert relevant_flip_flops(tiny_mac, []) == set()


def test_relevant_flip_flops_stops_at_undriven_nets():
    """An undriven net in the cone terminates the walk instead of crashing."""
    nl = Netlist("undriven")
    nl.add_input("clk", is_clock=True)
    nl.add_cell("ff_a", "DFF_X1", {"D": "floating", "CK": "clk", "Q": "q_a"})
    nl.add_cell("g_and", "AND2_X1", {"A": "q_a", "B": "also_floating", "Z": "obs"})
    nl.add_output("obs")
    relevant = relevant_flip_flops(nl, ["obs"])
    assert relevant == {"ff_a"}


def test_relevant_flip_flops_handles_self_loop():
    """A flip-flop feeding its own D pin must not loop the traversal."""
    nl = Netlist("selfloop")
    nl.add_input("clk", is_clock=True)
    nl.add_cell("g_inv", "INV_X1", {"A": "q_t", "Z": "d_t"})
    nl.add_cell("ff_t", "DFF_X1", {"D": "d_t", "CK": "clk", "Q": "q_t"})
    nl.add_output("q_t")
    relevant = relevant_flip_flops(nl, ["q_t"])
    assert relevant == {"ff_t"}


def test_batch_outcome_latencies_default_is_per_instance():
    a = BatchOutcome(failed_mask=0, n_lanes=2, cycles_simulated=5)
    b = BatchOutcome(failed_mask=1, n_lanes=1, cycles_simulated=3)
    assert a.latencies == {} and b.latencies == {}
    a.latencies[0] = 7
    assert b.latencies == {}  # no shared mutable default


# --------------------------------------------------------- injector


@pytest.fixture(scope="module")
def counter_campaign_parts(counter_netlist):
    sb = ScheduleBuilder(counter_netlist.inputs)
    sb.drive(0, "rst_n", 0)
    sb.drive(2, "rst_n", 1)
    sb.drive(2, "en", 1)
    tb = Testbench(counter_netlist, sb.compile(40))
    golden = tb.run_golden()
    criterion = AnyOutputCriterion.all_outputs(counter_netlist)
    return tb, golden, criterion


def test_injection_in_counter_always_fails(counter_netlist, counter_campaign_parts):
    """A flipped counter bit immediately corrupts the observed count."""
    tb, golden, criterion = counter_campaign_parts
    injector = FaultInjector(counter_netlist, tb, golden, criterion)
    outcome = injector.run_batch(10, [0, 1, 2, 3])
    assert outcome.failed_mask == 0b1111
    assert outcome.failed_lanes() == [0, 1, 2, 3]


def test_injection_outside_trace_rejected(counter_netlist, counter_campaign_parts):
    tb, golden, criterion = counter_campaign_parts
    injector = FaultInjector(counter_netlist, tb, golden, criterion)
    with pytest.raises(ValueError):
        injector.run_batch(1000, [0])


def test_benign_fault_converges_early():
    """A fault in dead logic retires the batch long before trace end."""
    m = Module("deadend")
    en = m.input("en")
    visible = m.reg_bus("vis", 4)
    hidden = m.reg_bus("hid", 4)
    m.next_en(visible, en, wordlib.inc(visible))
    m.next_en(hidden, en, wordlib.inc(hidden))
    m.output_bus("out", visible)
    m.output_bus("dbg", hidden)
    nl = synthesize(m)
    sb = ScheduleBuilder(nl.inputs)
    sb.drive(0, "rst_n", 0)
    sb.drive(2, "rst_n", 1)
    sb.drive(2, "en", 1)
    tb = Testbench(nl, sb.compile(500))
    golden = tb.run_golden()
    criterion = AnyOutputCriterion([f"out[{i}]" for i in range(4)])
    injector = FaultInjector(nl, tb, golden, criterion, check_interval=2)
    hidden_idx = [i for i, ff in enumerate(nl.flip_flops()) if "hid" in ff.name]
    outcome = injector.run_batch(10, hidden_idx)
    assert outcome.failed_mask == 0
    assert outcome.cycles_simulated < 20  # retired early, not run to cycle 500


def test_fault_through_loopback_is_detected(tiny_mac, tiny_workload, tiny_golden):
    """TX-side faults must reach the RX criterion through the loopback."""
    criterion = PacketInterfaceCriterion(tiny_workload.valid_nets, tiny_workload.data_nets)
    injector = FaultInjector(tiny_mac, tiny_workload.testbench, tiny_golden, criterion)
    first_active, _ = tiny_workload.active_window
    # Flip TX FSM state mid-traffic repeatedly; at least one must fail.
    tx_state_idx = injector.ff_index("ff_tx_state[0]")
    failures = 0
    for cycle in range(first_active + 2, first_active + 22, 2):
        outcome = injector.run_batch(cycle, [tx_state_idx])
        failures += outcome.failed_mask & 1
    assert failures > 0


# ------------------------------------------------------------ campaign


def test_campaign_results_structure(tiny_mac, tiny_campaign):
    _runner, result = tiny_campaign
    assert len(result.results) == len(tiny_mac.flip_flops())
    for record in result.results.values():
        assert record.n_injections == 16
        assert 0 <= record.n_failures <= record.n_injections
        assert 0.0 <= record.fdr <= 1.0
    assert result.n_forward_runs > 0
    assert 0.0 <= result.mean_fdr() <= 1.0


def test_campaign_fdr_spread_is_plausible(tiny_campaign):
    """Control state should be far more critical than statistics counters."""
    _runner, result = tiny_campaign
    assert result.fdr("ff_tx_state[0]") > 0.5
    assert result.fdr("ff_stat_tx_frames[0]") == 0.0
    fdrs = [r.fdr for r in result.results.values()]
    assert min(fdrs) == 0.0
    assert max(fdrs) > 0.5


def test_campaign_is_deterministic(tiny_mac, tiny_workload, tiny_golden):
    criterion = PacketInterfaceCriterion(tiny_workload.valid_nets, tiny_workload.data_nets)
    ffs = tiny_mac.flip_flop_names()[:8]
    runner = StatisticalFaultCampaign(
        tiny_mac,
        tiny_workload.testbench,
        criterion,
        active_window=tiny_workload.active_window,
        golden=tiny_golden,
    )
    a = runner.run(n_injections=8, ff_names=ffs, seed=9)
    b = runner.run(n_injections=8, ff_names=ffs, seed=9)
    assert [r.n_failures for r in a.results.values()] == [
        r.n_failures for r in b.results.values()
    ]


def test_campaign_subset_and_json_round_trip(tiny_mac, tiny_workload, tiny_golden):
    criterion = PacketInterfaceCriterion(tiny_workload.valid_nets, tiny_workload.data_nets)
    ffs = tiny_mac.flip_flop_names()[:5]
    runner = StatisticalFaultCampaign(
        tiny_mac,
        tiny_workload.testbench,
        criterion,
        active_window=tiny_workload.active_window,
        golden=tiny_golden,
    )
    result = runner.run(n_injections=6, ff_names=ffs, seed=1)
    assert set(result.results) == set(ffs)
    restored = CampaignResult.from_json(result.to_json())
    assert restored.circuit == result.circuit
    assert restored.fdr_vector(ffs) == result.fdr_vector(ffs)


def test_campaign_rejects_small_window(tiny_mac, tiny_workload, tiny_golden):
    criterion = PacketInterfaceCriterion(tiny_workload.valid_nets, tiny_workload.data_nets)
    runner = StatisticalFaultCampaign(
        tiny_mac,
        tiny_workload.testbench,
        criterion,
        active_window=(10, 14),
        golden=tiny_golden,
    )
    with pytest.raises(ValueError, match="time slots"):
        runner.run(n_injections=50, ff_names=tiny_mac.flip_flop_names()[:2])


def test_campaign_invalid_window_rejected(tiny_mac, tiny_workload, tiny_golden):
    criterion = PacketInterfaceCriterion(tiny_workload.valid_nets, tiny_workload.data_nets)
    with pytest.raises(ValueError, match="window"):
        StatisticalFaultCampaign(
            tiny_mac,
            tiny_workload.testbench,
            criterion,
            active_window=(50, 20),
            golden=tiny_golden,
        )


def test_progress_callback(tiny_mac, tiny_workload, tiny_golden):
    criterion = PacketInterfaceCriterion(tiny_workload.valid_nets, tiny_workload.data_nets)
    runner = StatisticalFaultCampaign(
        tiny_mac,
        tiny_workload.testbench,
        criterion,
        active_window=tiny_workload.active_window,
        golden=tiny_golden,
    )
    calls = []
    runner.run(
        n_injections=4,
        ff_names=tiny_mac.flip_flop_names()[:3],
        seed=2,
        progress=lambda done, total: calls.append((done, total)),
    )
    assert calls and calls[-1][0] == calls[-1][1]
