"""Benchmarks: the EDA substrate underneath the experiments.

Throughput numbers for the pieces whose cost the paper's methodology is
designed to avoid or amortize: synthesis, golden simulation, the bit-parallel
fault-injection campaign, and feature extraction — plus the **per-backend
lanes/sec sweep** that compares the compiled and fused engines.

Run the sweep standalone (this is where the acceptance numbers come from)::

    python benchmarks/bench_substrate.py --circuit xgmac --out substrate.json

It measures, on the chosen seed circuit:

* ``eval_comb``+``tick`` throughput (lane-cycles/second) of the cycle
  backend at several lane widths, normalized against the **seed baseline**
  (``CompiledSimulator`` at the campaign default of 256 lanes), and
* full ``FaultInjector.run_batch`` sweep throughput for the compiled and
  fused engines.

Through pytest(-benchmark) the module keeps the original micro-benchmarks
on the tiny MAC so CI stays fast.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

import pytest

from repro.circuits import make_xgmac
from repro.faultinjection import FaultInjector, PacketInterfaceCriterion
from repro.features import FeatureExtractor
from repro.sim import BACKEND_NAMES, CompiledSimulator, create_backend

from common import add_result_args, build_workload_parts, emit_result

#: The seed repo ran every campaign on the compiled backend at this width;
#: all speedups are reported relative to it.
SEED_BACKEND = "compiled"
SEED_LANES = 256

#: (backend, lane widths) measured by the standalone sweep.
SWEEP_CONFIGS = [
    ("compiled", (256, 1024)),
]


def measure_cycle_throughput(
    netlist, backend: str, n_lanes: int, n_cycles: int = 20
) -> float:
    """Lane-cycles/second of a bare eval+tick loop on *backend*."""
    sim = create_backend(backend, netlist, n_lanes=n_lanes)
    sim.reset()
    start = time.perf_counter()
    for _ in range(n_cycles):
        sim.eval_comb()
        sim.tick()
    wall = time.perf_counter() - start
    return n_lanes * n_cycles / wall


def measure_sweep_throughput(workload_parts, backend: str, repeats: int = 3) -> float:
    """Lane-cycles/second of full ``run_batch`` sweeps (all FFs, one cycle)."""
    netlist, testbench, golden, criterion, inject_cycle = workload_parts
    injector = FaultInjector(
        netlist, testbench, golden, criterion, backend=backend
    )
    lanes = list(range(injector.sim.n_flip_flops))
    injector.run_batch(inject_cycle, lanes)  # warm up (fused: compile kernel)
    start = time.perf_counter()
    lane_cycles = 0
    for _ in range(repeats):
        outcome = injector.run_batch(inject_cycle, lanes)
        lane_cycles += outcome.cycles_simulated * outcome.n_lanes
    wall = time.perf_counter() - start
    return lane_cycles / wall


def run_substrate_sweep(circuit: str = "xgmac", n_cycles: int = 20) -> Dict:
    """Measure every backend on *circuit*; returns the JSON-ready report."""
    workload_parts = build_workload_parts(
        circuit=circuit, n_frames=4, min_len=2, max_len=4, gap=12, seed=7
    )
    netlist = workload_parts.netlist
    stats = netlist.stats()
    report: Dict = {
        "circuit": circuit,
        "n_cells": stats.n_cells,
        "n_ffs": stats.n_sequential,
        "seed_baseline": {"backend": SEED_BACKEND, "n_lanes": SEED_LANES},
        "cycle_rows": [],
        "sweep_rows": [],
    }

    baseline = measure_cycle_throughput(netlist, SEED_BACKEND, SEED_LANES, n_cycles)
    report["seed_baseline"]["lane_cycles_per_sec"] = round(baseline)
    for backend, widths in SWEEP_CONFIGS:
        for n_lanes in widths:
            cycles = max(4, n_cycles // max(1, n_lanes // 16384))
            lps = measure_cycle_throughput(netlist, backend, n_lanes, cycles)
            report["cycle_rows"].append(
                {
                    "backend": backend,
                    "n_lanes": n_lanes,
                    "lane_cycles_per_sec": round(lps),
                    "speedup_vs_seed": round(lps / baseline, 2),
                }
            )

    # Sweep-level comparison on a real workload (criterion + loopback + early
    # retirement), sized down so the full circuit stays minutes-free.
    parts = (
        netlist,
        workload_parts.testbench,
        workload_parts.golden,
        workload_parts.criterion,
        workload_parts.inject_cycle,
    )
    sweep_base: Optional[float] = None
    for backend in BACKEND_NAMES:
        lps = measure_sweep_throughput(parts, backend)
        if backend == SEED_BACKEND:
            sweep_base = lps
        report["sweep_rows"].append(
            {
                "backend": backend,
                "lane_cycles_per_sec": round(lps),
                "speedup_vs_seed": round(lps / (sweep_base or lps), 2),
            }
        )
    report["best_cycle_speedup"] = max(
        row["speedup_vs_seed"] for row in report["cycle_rows"]
    )
    report["best_sweep_speedup"] = max(
        row["speedup_vs_seed"] for row in report["sweep_rows"]
    )
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Per-backend lanes/sec sweep of the simulation substrate."
    )
    parser.add_argument(
        "--circuit", default="xgmac", help="seed circuit (default: the largest, xgmac)"
    )
    parser.add_argument("--cycles", type=int, default=20)
    add_result_args(parser)
    args = parser.parse_args(argv)

    report = run_substrate_sweep(args.circuit, n_cycles=args.cycles)
    base = report["seed_baseline"]
    print(
        f"circuit={report['circuit']} cells={report['n_cells']} ffs={report['n_ffs']}"
    )
    print(
        f"seed baseline: {base['backend']}@{base['n_lanes']} = "
        f"{base['lane_cycles_per_sec'] / 1e6:.2f} M lane-cycles/s"
    )
    print(f"{'backend':>9} {'lanes':>7} {'Mlc/s':>8} {'vs seed':>8}")
    for row in report["cycle_rows"]:
        print(
            f"{row['backend']:>9} {row['n_lanes']:>7} "
            f"{row['lane_cycles_per_sec'] / 1e6:>8.2f} {row['speedup_vs_seed']:>7.2f}x"
        )
    print("injection sweeps (run_batch, all flip-flops):")
    for row in report["sweep_rows"]:
        print(
            f"{row['backend']:>9} {'-':>7} "
            f"{row['lane_cycles_per_sec'] / 1e6:>8.2f} {row['speedup_vs_seed']:>7.2f}x"
        )
    emit_result(args, "substrate", report)
    return 0


# ------------------------------------------------------------ pytest hooks


def test_bench_synthesis(benchmark):
    netlist = benchmark(lambda: make_xgmac("xgmac_tiny"))
    assert len(netlist.flip_flops()) > 100


def test_bench_simulator_compile(benchmark, bench_mac):
    netlist, _workload = bench_mac
    sim = benchmark(lambda: CompiledSimulator(netlist))
    assert sim.n_flip_flops == len(netlist.flip_flops())


def test_bench_golden_simulation(benchmark, bench_mac):
    netlist, workload = bench_mac
    trace = benchmark(workload.testbench.run_golden)
    assert trace.n_cycles == workload.testbench.n_cycles


def test_bench_fault_campaign(benchmark, bench_campaign_runner):
    """A reduced flat campaign: every flip-flop, 8 injections each."""
    result = benchmark.pedantic(
        lambda: bench_campaign_runner.run(n_injections=8, seed=0),
        rounds=1,
        iterations=1,
    )
    assert result.mean_fdr() > 0.0
    # Report effective throughput in the benchmark's extra info.
    total_injections = sum(r.n_injections for r in result.results.values())
    assert total_injections == 8 * len(result.results)


def test_bench_single_injection_batch(benchmark, bench_campaign_runner):
    """One bit-parallel forward run with 64 concurrent SEU lanes."""
    injector = bench_campaign_runner.injector
    first, _ = bench_campaign_runner.active_window
    lanes = list(range(64))

    outcome = benchmark(lambda: injector.run_batch(first + 4, lanes))
    assert outcome.n_lanes == 64


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_bench_backend_sweep(benchmark, bench_mac, bench_campaign_runner, backend):
    """Per-backend all-flip-flop sweep throughput on the tiny MAC."""
    netlist, workload = bench_mac
    criterion = PacketInterfaceCriterion(workload.valid_nets, workload.data_nets)
    injector = FaultInjector(
        netlist, workload.testbench, bench_campaign_runner.golden, criterion,
        backend=backend,
    )
    first, _ = bench_campaign_runner.active_window
    lanes = list(range(injector.sim.n_flip_flops))
    injector.run_batch(first + 4, lanes)  # warm-up: fused compiles here
    outcome = benchmark.pedantic(
        lambda: injector.run_batch(first + 4, lanes), rounds=2, iterations=1
    )
    assert outcome.n_lanes == len(lanes)


def test_bench_feature_extraction(benchmark, bench_mac, bench_campaign_runner):
    netlist, _workload = bench_mac
    golden = bench_campaign_runner.golden

    def run():
        return FeatureExtractor(netlist).matrix(golden)

    matrix = benchmark.pedantic(run, rounds=1, iterations=1)
    assert matrix.shape[0] == len(netlist.flip_flops())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
