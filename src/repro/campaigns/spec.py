"""Self-contained campaign specifications.

A :class:`CampaignSpec` captures *everything* that determines a campaign's
per-flip-flop results: the circuit preset, the workload generator
parameters, the failure criterion, the injection budget and the RNG seeds.
Because the spec is a small frozen dataclass it can be

* hashed into a content address for the result store
  (:meth:`CampaignSpec.cache_key` / :meth:`CampaignSpec.family_key`), and
* pickled to worker processes, which rebuild the netlist, testbench and
  golden trace locally instead of shipping megabytes of simulator state.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..circuits.library import get_circuit
from ..circuits.workloads import Workload, build_workload_for, default_criterion
from ..faultinjection.faults import FaultModelError, canonical_fault_model, parse_fault_model
from ..faultinjection.scheduler import EXECUTION_SCHEDULERS
from .policy import DEFAULT_TARGET_MARGIN, SAMPLING_POLICIES
from ..faultinjection.classify import (
    AnyOutputCriterion,
    FailureCriterion,
    PacketInterfaceCriterion,
)
from ..netlist.core import Netlist
from ..sim.backend import BACKEND_NAMES
from ..sim.testbench import GoldenTrace

__all__ = ["CampaignSpec", "CampaignContext", "build_context"]

SCHEDULES = ("stream", "legacy")
CRITERIA = ("packet", "any_output", "observed")


@dataclass(frozen=True)
class CampaignSpec:
    """All parameters that determine a fault-injection campaign.

    ``schedule`` selects the injection-time scheduler:

    * ``"legacy"`` reproduces
      :meth:`~repro.faultinjection.campaign.StatisticalFaultCampaign.run`
      draw-for-draw, so the engine's output is bit-identical to the serial
      reference implementation for the same seed;
    * ``"stream"`` draws injection times as a prefix-stable per-flip-flop
      stream (see :func:`repro.campaigns.partition.stream_buckets`), which
      lets the result store extend a cached *n*-injection campaign to
      *m > n* injections by simulating only the ``m - n`` delta.

    ``backend`` selects the simulation engine (``"compiled"`` or
    ``"fused"``; see :mod:`repro.sim.backend`) and
    ``scheduler`` the execution strategy (``"adaptive"`` lane refill across
    injection cycles — the default — or ``"batch"`` per-time-slot forward
    runs; see :mod:`repro.faultinjection.scheduler`).  Per-lane verdicts
    and latencies are invariant under both knobs — differentially verified
    by ``repro.verify`` — so they are execution details: both are
    **excluded from the cache identity**, and snapshots produced with one
    backend/scheduler seed or satisfy runs on any other.
    """

    circuit: str = "xgmac_mini"
    n_frames: int = 8
    min_len: int = 4
    max_len: int = 7
    gap: int = 14
    workload_seed: int = 1
    n_injections: int = 60
    seed: int = 0
    schedule: str = "stream"
    criterion: str = "packet"
    ff_names: Optional[Tuple[str, ...]] = None
    n_time_slots: Optional[int] = None
    horizon: Optional[int] = None
    max_lanes: int = 256
    check_interval: int = 8
    backend: str = "compiled"
    scheduler: str = "adaptive"
    policy: str = "flat"
    target_margin: float = DEFAULT_TARGET_MARGIN
    #: Registered fault model applied at every drawn ``(cycle, ff)`` site
    #: (see :mod:`repro.faultinjection.faults`).  Stored canonically
    #: (sorted explicit parameters) so equivalent spellings share one
    #: cache identity; the default ``"seu"`` is *excluded* from the
    #: identity dict so pre-registry SEU store keys remain valid.
    fault_model: str = "seu"

    def __post_init__(self) -> None:
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}; choose from {SCHEDULES}")
        if self.policy not in SAMPLING_POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; choose from {SAMPLING_POLICIES}"
            )
        if not 0.0 <= self.target_margin < 1.0:
            raise ValueError("target_margin must be in [0, 1)")
        if self.policy == "sequential" and self.schedule != "stream":
            raise ValueError(
                "policy='sequential' requires the prefix-stable 'stream' "
                "schedule (legacy draws reshuffle when the budget changes)"
            )
        if self.criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {self.criterion!r}; choose from {CRITERIA}")
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {self.backend!r}; choose from {BACKEND_NAMES}"
            )
        if self.scheduler not in EXECUTION_SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; "
                f"choose from {EXECUTION_SCHEDULERS}"
            )
        if self.n_injections <= 0:
            raise ValueError("n_injections must be positive")
        model = parse_fault_model(self.fault_model)
        if not model.supports_ff_campaign:
            raise FaultModelError(
                f"fault model {model.name!r} does not target flip-flops and "
                f"cannot drive a statistical campaign"
            )
        object.__setattr__(self, "fault_model", canonical_fault_model(model))

    # ------------------------------------------------------------- identity

    def to_dict(self) -> Dict[str, object]:
        payload = asdict(self)
        if payload["ff_names"] is not None:
            payload["ff_names"] = list(payload["ff_names"])
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CampaignSpec":
        data = dict(payload)
        if data.get("ff_names") is not None:
            data["ff_names"] = tuple(data["ff_names"])  # type: ignore[arg-type]
        return cls(**data)  # type: ignore[arg-type]

    def _hash_of(self, payload: Dict[str, object]) -> str:
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()[:16]

    def _identity_dict(self) -> Dict[str, object]:
        """Fields that determine the campaign's *results*.

        The simulation backend and the execution scheduler are deliberately
        absent: every backend × scheduler combination produces bit-identical
        per-lane outcomes (differentially verified), so cached results are
        shared across all of them and the original compiled-backend cache
        keys stay valid.  The sampling policy (and its target margin) is
        excluded for the same reason: per-draw verdicts are
        policy-invariant, so flat and sequential runs of one family share
        draws and store documents — the store namespaces the policy's
        *realized* snapshots separately (see
        :func:`repro.campaigns.policy.policy_signature`).
        """
        payload = self.to_dict()
        payload.pop("backend", None)
        payload.pop("scheduler", None)
        payload.pop("policy", None)
        payload.pop("target_margin", None)
        if payload.get("fault_model") == "seu":
            # Single-bit SEUs are the pre-registry default; dropping the
            # field keeps every cached SEU store key valid.
            payload.pop("fault_model")
        return payload

    def cache_key(self) -> str:
        """Content address of this exact campaign (injection budget included)."""
        return self._hash_of(self._identity_dict())

    def family_key(self) -> str:
        """Content address of the campaign *family* sharing one store file.

        For the ``stream`` schedule the injection budget is excluded: all
        budgets of the same family share injection draws as prefixes, so a
        cached 50-injection snapshot can seed a 170-injection run.  The
        ``legacy`` schedule reshuffles everything when the budget changes,
        so there the budget stays part of the identity.
        """
        payload = self._identity_dict()
        if self.schedule == "stream":
            payload.pop("n_injections")
        return self._hash_of(payload)

    def with_injections(self, n_injections: int) -> "CampaignSpec":
        return replace(self, n_injections=n_injections)

    @classmethod
    def from_dataset_spec(
        cls,
        dataset_spec,
        schedule: str = "legacy",
        n_injections: Optional[int] = None,
        backend: str = "compiled",
        scheduler: str = "adaptive",
        policy: str = "flat",
        target_margin: float = DEFAULT_TARGET_MARGIN,
        fault_model: Optional[str] = None,
    ) -> "CampaignSpec":
        """Mirror a :class:`repro.data.DatasetSpec` (duck-typed to avoid the
        circular import; ``repro.data`` builds on this package).

        A dataset spec's ``criterion`` of ``"auto"`` resolves here to the
        workload registry's default for the circuit, so the campaign spec —
        and with it the result-store content address — always names a
        concrete criterion.  ``fault_model`` defaults to the dataset spec's
        own (itself defaulting to ``"seu"``); pass an explicit value to
        override it.
        """
        criterion = getattr(dataset_spec, "criterion", "auto")
        if criterion == "auto":
            criterion = default_criterion(dataset_spec.circuit)
        if fault_model is None:
            fault_model = getattr(dataset_spec, "fault_model", "seu")
        return cls(
            backend=backend,
            scheduler=scheduler,
            policy=policy,
            target_margin=target_margin,
            fault_model=fault_model,
            circuit=dataset_spec.circuit,
            n_frames=dataset_spec.n_frames,
            min_len=dataset_spec.min_len,
            max_len=dataset_spec.max_len,
            gap=dataset_spec.gap,
            workload_seed=dataset_spec.workload_seed,
            n_injections=(
                n_injections if n_injections is not None else dataset_spec.n_injections
            ),
            seed=dataset_spec.campaign_seed,
            schedule=schedule,
            criterion=criterion,
        )


@dataclass
class CampaignContext:
    """Instantiated campaign environment (netlist, workload, criterion).

    The golden trace is recorded lazily: the engine's planning stage only
    needs the active window (available from the workload), and worker
    processes record their own golden traces anyway.
    """

    netlist: Netlist
    workload: Workload
    criterion: FailureCriterion
    golden: Optional[GoldenTrace] = field(default=None, repr=False)
    #: The spec circuit name :func:`build_context` built this context for
    #: (a generated preset's netlist carries its own structural name, e.g.
    #: ``mesh_tiny`` → ``mesh2x4x8``); ``None`` for hand-built contexts.
    circuit: Optional[str] = None

    @property
    def active_window(self) -> Tuple[int, int]:
        return self.workload.active_window

    def window_cycles(self) -> List[int]:
        first, last = self.workload.active_window
        n_cycles = self.workload.testbench.n_cycles
        if not 0 <= first < last <= n_cycles:
            raise ValueError(f"invalid active window {(first, last)}")
        return list(range(first, last))

    def ensure_golden(self) -> GoldenTrace:
        if self.golden is None:
            from ..obs import get_telemetry

            with get_telemetry().tracer.span(
                "golden_trace",
                circuit=self.netlist.name,
                n_cycles=self.workload.testbench.n_cycles,
            ):
                self.golden = self.workload.testbench.run_golden()
        return self.golden

    def ff_names(self, spec: CampaignSpec) -> List[str]:
        if spec.ff_names is not None:
            return list(spec.ff_names)
        return [ff.name for ff in self.netlist.flip_flops()]


def build_context(spec: CampaignSpec) -> CampaignContext:
    """Instantiate the netlist, workload and criterion a spec describes.

    The workload comes from the circuit's registered builder
    (:func:`repro.circuits.workloads.build_workload_for`): frame streaming
    for the MAC presets, the generic burst testbench for the library
    circuits, or whatever a downstream package registered.
    """
    from ..obs import get_telemetry

    with get_telemetry().tracer.span("synthesize", circuit=spec.circuit):
        netlist = get_circuit(spec.circuit)
        workload = build_workload_for(
            spec.circuit,
            netlist,
            n_frames=spec.n_frames,
            min_len=spec.min_len,
            max_len=spec.max_len,
            gap=spec.gap,
            seed=spec.workload_seed,
        )
    if spec.criterion == "packet":
        criterion: FailureCriterion = PacketInterfaceCriterion(
            workload.valid_nets, workload.data_nets
        )
    elif spec.criterion == "observed":
        criterion = AnyOutputCriterion(
            nets=list(workload.valid_nets) + list(workload.data_nets)
        )
    else:
        criterion = AnyOutputCriterion.all_outputs(netlist)
    return CampaignContext(
        netlist=netlist, workload=workload, criterion=criterion, circuit=spec.circuit
    )
