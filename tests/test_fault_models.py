"""Fault-model registry: parsing, plans, oracle replay, campaigns, datasets.

The registry's contract has three layers, each pinned here:

* **spec algebra** — every spelling of a model parses to one canonical
  ``name:key=value`` string (the cache identity), unknown names and bad
  parameters raise :class:`FaultModelError`, and the ``set`` entry enforces
  its sweep-path-only contract;
* **engine equivalence** — for every model, the bit-parallel batch and the
  adaptive scheduler reproduce the single-lane brute-force oracle replay of
  the very same :class:`InjectionPlan`, verdict and latency, on every
  backend; ``mbu:size=1`` is bit-identical to the plain SEU on all library
  circuits;
* **persistence** — campaign-store shards and dataset caches key on the
  canonical model string (with ``seu`` keeping its pre-registry content
  addresses), mixed-model families coexist in one store, and top-ups
  resume per family.
"""

from __future__ import annotations

import random
from collections import defaultdict
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns import CampaignEngine, CampaignSpec, CampaignStore, run_campaign
from repro.circuits import LIBRARY_CIRCUITS, build_workload_for, get_circuit
from repro.data import DatasetSpec
from repro.faultinjection import (
    AnyOutputCriterion,
    FaultInjector,
    FaultModelError,
    IntermittentModel,
    MbuModel,
    SetSweepModel,
    SeuModel,
    StatisticalFaultCampaign,
    StuckAtModel,
    available_fault_models,
    canonical_fault_model,
    parse_fault_model,
)
from repro.sim import BACKEND_NAMES
from repro.verify import brute_force_fault

#: Non-SEU registry entries exercised by the engine-equivalence tests;
#: parameters kept small so forcing duty cycles and cluster sampling all
#: trigger within the tiny workloads.
MODEL_SPECS = [
    "mbu:size=3,radius=1,seed=0",
    "stuck0",
    "stuck1",
    "intermittent:period=5,on=2,seed=1",
]


# ------------------------------------------------------------- spec algebra


def test_registry_contents():
    assert available_fault_models() == (
        "intermittent",
        "mbu",
        "set",
        "seu",
        "stuck0",
        "stuck1",
    )


def test_spellings_converge_on_canonical_form():
    assert canonical_fault_model(None) == "seu"
    assert canonical_fault_model("seu") == "seu"
    assert canonical_fault_model(SeuModel()) == "seu"
    # Parameter order, defaults and whitespace are all spelling noise.
    canonical = canonical_fault_model("mbu")
    assert canonical == "mbu:radius=1,seed=0,size=3"
    assert canonical_fault_model("mbu:size=3") == canonical
    assert canonical_fault_model("mbu: seed=0, size=3 ,radius=1") == canonical
    assert canonical_fault_model(MbuModel()) == canonical
    assert canonical_fault_model("stuck0") == "stuck0"
    assert (
        canonical_fault_model("intermittent:on=2,period=8")
        == "intermittent:on=2,period=8,seed=0,value=0"
    )


def test_spec_string_round_trips_through_parse():
    for spec in ["seu", *MODEL_SPECS, "set", "mbu:size=2,radius=2,seed=9"]:
        model = parse_fault_model(spec)
        again = parse_fault_model(model.spec_string())
        assert again.spec_string() == model.spec_string()
        assert type(again) is type(model)


@pytest.mark.parametrize(
    "bad",
    [
        "neutron",  # unknown name
        "mbu:size",  # missing value
        "mbu:size=large",  # non-integer value
        "mbu:flavor=3",  # unknown parameter
        "stuck0:value=1",  # parameterless factory
        "mbu:size=0",  # domain violations
        "mbu:radius=-1",
        "intermittent:period=0",
        "intermittent:period=4,on=5",
        "intermittent:value=2",
    ],
)
def test_bad_specs_raise_fault_model_error(bad):
    with pytest.raises(FaultModelError):
        parse_fault_model(bad)


def test_stuck_at_constructor_validates_value():
    with pytest.raises(FaultModelError):
        StuckAtModel(2)
    assert StuckAtModel(1).name == "stuck1"


def test_plan_shapes_per_model(tiny_mac):
    seu = SeuModel().bind(tiny_mac).plan(3, 20)
    assert seu.flips == (3,) and not seu.persistent
    assert not seu.force_active(0)

    stuck = StuckAtModel(1).bind(tiny_mac).plan(3, 20)
    assert stuck.flips == () and stuck.forces == ((3, 1),)
    assert stuck.persistent
    assert all(stuck.force_active(off) for off in range(10))

    duty = IntermittentModel(period=4, on=2, seed=7).bind(tiny_mac).plan(3, 20)
    assert duty.persistent and duty.period == 4 and duty.on_cycles == 2
    active = [duty.force_active(off) for off in range(8)]
    assert sum(active) == 4  # 2 on-cycles per period over 2 periods
    assert active[:4] == active[4:]  # periodic

    mbu = MbuModel(size=3, radius=1, seed=0).bind(tiny_mac).plan(3, 20)
    assert 3 in mbu.flips and not mbu.persistent
    assert mbu.flips == tuple(sorted(mbu.flips))


def test_set_model_is_sweep_path_only(tiny_mac):
    model = parse_fault_model("set")
    assert isinstance(model, SetSweepModel)
    assert not model.supports_ff_campaign
    with pytest.raises(FaultModelError, match="run_set_batch"):
        model.bind(tiny_mac)
    # Its sites are combinational cell outputs, never flip-flop state.
    sites = set(model.enumerate_sites(tiny_mac))
    assert sites
    ff_outputs = {ff.output_net() for ff in tiny_mac.flip_flops()}
    assert not sites & ff_outputs
    # The campaign layer refuses the pairing at spec-construction time.
    with pytest.raises(FaultModelError, match="campaign"):
        CampaignSpec(circuit="xgmac_tiny", fault_model="set")


# ------------------------------------------------- MBU cluster properties


@lru_cache(maxsize=None)
def _library_netlist(circuit):
    return get_circuit(circuit)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mbu_clusters_are_seeded_bounded_neighborhoods(data):
    """Property: every cluster is deterministic under its seed, anchored,
    radius-bounded, never empty and never larger than ``size``."""
    circuit = data.draw(st.sampled_from(list(LIBRARY_CIRCUITS)))
    netlist = _library_netlist(circuit)
    n_ffs = len(netlist.flip_flops())
    anchor = data.draw(st.integers(0, n_ffs - 1))
    cycle = data.draw(st.integers(0, 200))
    size = data.draw(st.integers(1, 5))
    radius = data.draw(st.integers(0, 2))
    seed = data.draw(st.integers(0, 3))
    model = MbuModel(size=size, radius=radius, seed=seed)

    cluster = model.cluster(netlist, anchor, cycle)
    assert cluster == model.cluster(netlist, anchor, cycle)  # deterministic
    assert cluster == model.bind(netlist).plan(anchor, cycle).flips
    assert anchor in cluster  # anchored, never empty
    assert 1 <= len(cluster) <= size
    assert len(set(cluster)) == len(cluster)
    ball = set(model.neighborhood(netlist, anchor))
    assert set(cluster) - {anchor} <= ball  # radius-bounded
    if size == 1 or radius == 0:
        assert cluster == (anchor,)  # exact SEU degeneration


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_mbu_seed_and_cycle_key_the_sample(data):
    """Different seeds (or cycles) may redraw companions, but always from
    the same neighborhood — and the anchor never moves."""
    circuit = data.draw(st.sampled_from(list(LIBRARY_CIRCUITS)))
    netlist = _library_netlist(circuit)
    n_ffs = len(netlist.flip_flops())
    anchor = data.draw(st.integers(0, n_ffs - 1))
    a = MbuModel(size=3, radius=2, seed=0).cluster(netlist, anchor, 10)
    b = MbuModel(size=3, radius=2, seed=1).cluster(netlist, anchor, 10)
    c = MbuModel(size=3, radius=2, seed=0).cluster(netlist, anchor, 11)
    ball = set(MbuModel(size=3, radius=2).neighborhood(netlist, anchor)) | {anchor}
    for cluster in (a, b, c):
        assert anchor in cluster
        assert set(cluster) <= ball


@pytest.mark.parametrize("circuit", LIBRARY_CIRCUITS)
def test_mbu_size1_is_bit_identical_to_seu(circuit):
    """A 1-bit "cluster" must reproduce the plain SEU campaign exactly —
    verdicts *and* latencies — on every library circuit."""
    netlist = _library_netlist(circuit)
    workload = build_workload_for(
        circuit, netlist, n_frames=2, min_len=2, max_len=3, gap=6, seed=1
    )
    golden = workload.testbench.run_golden()
    criterion = AnyOutputCriterion.all_outputs(netlist)
    seu = FaultInjector(netlist, workload.testbench, golden, criterion)
    mbu1 = FaultInjector(
        netlist,
        workload.testbench,
        golden,
        criterion,
        fault_model="mbu:size=1,radius=2,seed=3",
    )
    first, last = workload.active_window
    rng = random.Random(circuit)
    n_ffs = seu.sim.n_flip_flops
    requests = [
        (rng.randrange(first, last), rng.randrange(n_ffs)) for _ in range(24)
    ]
    want = seu.run_scheduled(requests, max_lanes=8).verdicts
    got = mbu1.run_scheduled(requests, max_lanes=8).verdicts
    assert got == want


# ------------------------------------------------- engine vs. brute force


def naive_verdicts(injector, requests):
    """Per-request verdicts via one run_batch lane per (cycle, ff) bucket."""
    buckets = defaultdict(list)
    for key, (cycle, ff_idx) in enumerate(requests):
        buckets[cycle].append((key, ff_idx))
    verdicts = [None] * len(requests)
    for cycle in sorted(buckets):
        keys = [k for k, _ in buckets[cycle]]
        ffs = [f for _, f in buckets[cycle]]
        outcome = injector.run_batch(cycle, ffs)
        for lane, key in enumerate(keys):
            failed = bool((outcome.failed_mask >> lane) & 1)
            verdicts[key] = (failed, outcome.latencies.get(lane) if failed else None)
    return verdicts


@pytest.fixture(scope="module")
def strict_parts(tiny_mac, tiny_workload, tiny_golden):
    """Tiny MAC under the any-output criterion — the brute-force oracle's
    failure definition, so injector and oracle judge identically."""
    criterion = AnyOutputCriterion.all_outputs(tiny_mac)
    return tiny_mac, tiny_workload, tiny_golden, criterion


@pytest.mark.parametrize("model", MODEL_SPECS)
def test_batch_matches_bruteforce_replay(strict_parts, model):
    """Every lane's verdict/latency equals the oracle replay of its plan."""
    netlist, workload, golden, criterion = strict_parts
    injector = FaultInjector(
        netlist, workload.testbench, golden, criterion, fault_model=model
    )
    first, _last = workload.active_window
    rng = random.Random(model)
    indices = rng.sample(range(injector.sim.n_flip_flops), 8)
    for cycle in (first + 2, first + 9):
        outcome = injector.run_batch(cycle, indices)
        for lane, ff_idx in enumerate(indices):
            plan = injector.injection_plan(ff_idx, cycle)
            ref_failed, ref_latency = brute_force_fault(
                netlist, workload.testbench, golden, cycle, plan
            )
            got_failed = bool((outcome.failed_mask >> lane) & 1)
            assert got_failed == ref_failed, (model, cycle, ff_idx)
            if got_failed:
                assert outcome.latencies.get(lane) == ref_latency, (
                    model,
                    cycle,
                    ff_idx,
                )


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("model", MODEL_SPECS)
def test_scheduled_matches_naive_per_model_and_backend(strict_parts, model, backend):
    """Scheduling stays invisible under forcing and multi-flip models: the
    adaptive scheduler (refill, repack, forced lanes pinned)
    equals the naive per-cycle batch replay on every backend."""
    netlist, workload, golden, criterion = strict_parts
    injector = FaultInjector(
        netlist, workload.testbench, golden, criterion, backend=backend,
        fault_model=model,
    )
    first, last = workload.active_window
    rng = random.Random(f"{model}:{backend}")
    n_ffs = injector.sim.n_flip_flops
    requests = [
        (rng.randrange(first, last), rng.randrange(n_ffs)) for _ in range(40)
    ]
    expected = naive_verdicts(injector, requests)
    outcome = injector.run_scheduled(requests, max_lanes=6)
    assert outcome.verdicts == expected
    assert outcome.stats.activations == len(requests)


def test_forcing_models_count_forced_cycles(strict_parts):
    netlist, workload, golden, criterion = strict_parts
    injector = FaultInjector(
        netlist, workload.testbench, golden, criterion, fault_model="stuck1"
    )
    first, _last = workload.active_window
    outcome = injector.run_scheduled([(first + 2, 0), (first + 3, 1)])
    assert outcome.stats.forced_cycles > 0

    plain = FaultInjector(netlist, workload.testbench, golden, criterion)
    outcome = plain.run_scheduled([(first + 2, 0), (first + 3, 1)])
    assert outcome.stats.forced_cycles == 0


# ------------------------------------------------- campaign store families


TINY = dict(
    circuit="xgmac_tiny",
    n_frames=4,
    min_len=2,
    max_len=3,
    gap=12,
    workload_seed=7,
)


def tiny_spec(**overrides) -> CampaignSpec:
    params = dict(TINY, n_injections=6, seed=5, schedule="stream")
    params.update(overrides)
    return CampaignSpec(**params)


def result_key(result):
    return {
        name: (r.n_injections, r.n_failures, r.latency_sum)
        for name, r in result.results.items()
    }


def test_campaign_spec_canonicalizes_fault_model():
    default = tiny_spec()
    assert default.fault_model == "seu"
    spelled = tiny_spec(fault_model="mbu:seed=0,size=2,radius=1")
    canonical = tiny_spec(fault_model="mbu:size=2,radius=1,seed=0")
    assert spelled.fault_model == "mbu:radius=1,seed=0,size=2"
    assert spelled.cache_key() == canonical.cache_key()
    assert spelled.family_key() == canonical.family_key()
    # "seu" spelled explicitly keeps the pre-registry content address.
    assert tiny_spec(fault_model="seu").cache_key() == default.cache_key()
    assert "fault_model" not in default.to_dict() or default.to_dict()[
        "fault_model"
    ] == "seu"
    assert CampaignSpec.from_dict(spelled.to_dict()) == spelled


def test_fault_model_separates_store_families():
    seu = tiny_spec()
    mbu = tiny_spec(fault_model="mbu:size=2,radius=1,seed=0")
    stuck = tiny_spec(fault_model="stuck0")
    keys = {seu.family_key(), mbu.family_key(), stuck.family_key()}
    assert len(keys) == 3
    assert mbu.family_key() == mbu.with_injections(12).family_key()


def test_mixed_model_shards_coexist_resume_and_top_up(tmp_path):
    """One store directory holds per-model families side by side; each
    caches, resumes and tops up independently and matches a fresh run."""
    seu = tiny_spec()
    mbu = tiny_spec(fault_model="mbu:size=2,radius=1,seed=0")

    first_seu = CampaignEngine(seu, cache_dir=tmp_path).run()
    first_mbu = CampaignEngine(mbu, cache_dir=tmp_path).run()
    store = CampaignStore(tmp_path / "campaigns")
    assert store.path_for(seu) != store.path_for(mbu)
    assert store.path_for(seu).exists() and store.path_for(mbu).exists()

    # Both families serve cache hits, each with its own counters.
    again = CampaignEngine(mbu, cache_dir=tmp_path)
    cached = again.run()
    assert again.last_report.cache_hit
    assert again.last_report.executed_forward_runs == 0
    assert result_key(cached) == result_key(first_mbu)
    assert result_key(first_seu) != result_key(first_mbu)

    # Topping up the MBU family simulates only its delta and never touches
    # (or is polluted by) the SEU shard.
    topup = CampaignEngine(mbu.with_injections(10), cache_dir=tmp_path)
    extended = topup.run()
    assert topup.last_report.base_injections == 6
    assert result_key(extended) == result_key(run_campaign(mbu.with_injections(10)))
    check = CampaignEngine(seu, cache_dir=tmp_path)
    assert result_key(check.run()) == result_key(first_seu)
    assert check.last_report.cache_hit


def test_campaign_engine_matches_serial_runner_for_mbu(tiny_mac, tiny_workload, tiny_golden):
    """The engine path (spec → executor → injector) and the serial runner
    agree under a non-default model, so shards can't drift from the paper
    reference when the model changes."""
    from repro.faultinjection import PacketInterfaceCriterion

    criterion = PacketInterfaceCriterion(
        tiny_workload.valid_nets, tiny_workload.data_nets
    )
    runner = StatisticalFaultCampaign(
        tiny_mac,
        tiny_workload.testbench,
        criterion,
        active_window=tiny_workload.active_window,
        golden=tiny_golden,
        fault_model="mbu:size=2,radius=1,seed=0",
    )
    reference = runner.run(n_injections=6, seed=5)
    spec = tiny_spec(
        schedule="legacy", fault_model="mbu:size=2,radius=1,seed=0"
    )
    parallel = CampaignEngine(spec, jobs=2).run()
    assert result_key(parallel) == result_key(reference)


# ---------------------------------------------------------- dataset layer


def test_dataset_cache_key_tracks_fault_model():
    base = DatasetSpec(circuit="xgmac_tiny", n_injections=8)
    seu = DatasetSpec(circuit="xgmac_tiny", n_injections=8, fault_model="seu")
    mbu = DatasetSpec(
        circuit="xgmac_tiny", n_injections=8, fault_model="mbu:size=3"
    )
    spelled = DatasetSpec(
        circuit="xgmac_tiny",
        n_injections=8,
        fault_model="mbu:seed=0,radius=1,size=3",
    )
    # Default and explicit "seu" share the pre-registry content address.
    assert base.cache_key() == seu.cache_key()
    assert mbu.cache_key() != base.cache_key()
    assert mbu.cache_key() == spelled.cache_key()


def test_seu_dataset_matches_pre_registry_pipeline(tmp_path):
    """The registry must not perturb the paper's SEU datasets: the cached
    pipeline output equals the direct serial-campaign + feature path that
    predates the fault_model column, feature for feature, label for label."""
    from repro.data import build_workload
    from repro.faultinjection import PacketInterfaceCriterion
    from repro.features import build_dataset
    from repro.data import get_dataset

    spec = DatasetSpec(
        circuit="xgmac_tiny", n_frames=3, min_len=2, max_len=3, gap=12, n_injections=6
    )
    ds = get_dataset(spec=spec, cache_dir=tmp_path)
    assert ds.meta["fault_model"] == "seu"

    netlist, workload = build_workload(spec)
    criterion = PacketInterfaceCriterion(workload.valid_nets, workload.data_nets)
    golden = workload.testbench.run_golden()
    campaign = StatisticalFaultCampaign(
        netlist,
        workload.testbench,
        criterion,
        active_window=workload.active_window,
        golden=golden,
    ).run(n_injections=spec.n_injections, seed=spec.campaign_seed)
    direct = build_dataset(netlist, golden, campaign)
    assert ds.ff_names == direct.ff_names
    assert (ds.X == direct.X).all()
    assert (ds.y == direct.y).all()


def test_mbu_dataset_is_cached_separately_and_labelled(tmp_path):
    from repro.data import get_dataset

    seu_spec = DatasetSpec(
        circuit="xgmac_tiny", n_frames=3, min_len=2, max_len=3, gap=12, n_injections=4
    )
    mbu_spec = DatasetSpec(
        circuit="xgmac_tiny",
        n_frames=3,
        min_len=2,
        max_len=3,
        gap=12,
        n_injections=4,
        fault_model="mbu:size=3,radius=1,seed=0",
    )
    seu_ds = get_dataset(spec=seu_spec, cache_dir=tmp_path)
    mbu_ds = get_dataset(spec=mbu_spec, cache_dir=tmp_path)
    assert len(list(tmp_path.glob("dataset_*.json"))) == 2
    assert mbu_ds.meta["fault_model"] == "mbu:radius=1,seed=0,size=3"
    assert mbu_ds.ff_names == seu_ds.ff_names
    assert (mbu_ds.X == seu_ds.X).all()  # same circuit features...
    assert not (mbu_ds.y == seu_ds.y).all()  # ...different label family
    # Cache hit round-trips the provenance column.
    again = get_dataset(spec=mbu_spec, cache_dir=tmp_path)
    assert again.meta["fault_model"] == mbu_ds.meta["fault_model"]
    assert (again.y == mbu_ds.y).all()
