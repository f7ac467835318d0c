"""Output checks for the benchmark workloads.

Each check returns a list of problems (empty when the output is right), so
a run can report every broken property at once instead of the first one.

* The flat campaign (``paper_table1``) is bit-identical by design: on the
  default seed its per-flip-flop ``(n_injections, n_failures,
  latency_sum)`` digest is pinned.  On any other seed the
  counters are checked against the flat protocol's invariants.
* The sequential campaign (``seq_j2``) is checked by invariants only: its
  counters depend on ``--jobs`` and the shard partition, so a digest would
  pin an accident of scheduling rather than a result.
* Table I is checked by the paper's qualitative shape on every seed, and by
  its pinned R² values on the default seed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: The seed under which the workloads run exactly the repository's
#: ``DATASET_PRESETS["full"]`` seeds; the pinned values below hold for it
#: alone.
DEFAULT_SEED = 0

#: Pinned per-flip-flop counter digest of the flat workload at paper scale
#: on the default seed.
PINNED_DIGEST = "89b697451e392dbf"

#: Table I R² per paper model at paper scale on the default seed.
PINNED_R2: Dict[str, float] = {
    "Linear Least Squares": 0.6058,
    "k-NN": 0.9308,
    "SVR w/ RBF Kernel": 0.9128,
}
#: The pinned R² are quoted to four decimals.
R2_TOLERANCE = 5e-5

Counters = Dict[str, Tuple[int, int, int]]


def counters(result) -> Counters:
    """Per-flip-flop ``(n_injections, n_failures, latency_sum)``."""
    return {
        name: (r.n_injections, r.n_failures, r.latency_sum)
        for name, r in result.results.items()
    }


def digest(tallies: Counters) -> str:
    """Order-independent content digest of a counter map."""
    rows = sorted([name, *rec] for name, rec in tallies.items())
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def _tally_problems(tallies: Counters, ff_names: Sequence[str]) -> List[str]:
    problems = []
    if set(tallies) != set(ff_names):
        problems.append(
            f"result covers {len(tallies)} flip-flops, the netlist has {len(ff_names)}"
        )
    for name, (n, k, lat) in tallies.items():
        if not 0 <= k <= n or lat < 0 or (k == 0 and lat != 0):
            problems.append(f"{name}: inconsistent counters n={n} k={k} latency={lat}")
            break
    return problems


def check_flat(
    tallies: Counters,
    ff_names: Sequence[str],
    nominal: int,
    pinned: Optional[str],
) -> List[str]:
    """Flat protocol: every flip-flop gets exactly *nominal* injections;
    with a *pinned* digest the counters must also match it exactly."""
    problems = _tally_problems(tallies, ff_names)
    short = [name for name, rec in tallies.items() if rec[0] != nominal]
    if short:
        problems.append(
            f"{len(short)} flip-flops did not get exactly {nominal} injections"
        )
    if pinned:
        found = digest(tallies)
        if found != pinned:
            problems.append(f"counter digest {found} != pinned {pinned}")
    return problems


def check_sequential(
    tallies: Counters,
    ff_names: Sequence[str],
    nominal: int,
    cap: int,
    retired,
) -> List[str]:
    """Sequential Wilson policy invariants.

    Every flip-flop ends retired (interval at or under the target margin,
    as decided by the policy's own *retired* predicate) or at its injection
    *cap*, and the total stays at or under ``nominal × n_ffs``.  The one
    legitimate exception is a spent budget: when the total reaches exactly
    ``nominal × n_ffs`` the policy stops with unretired flip-flops left.
    """
    problems = _tally_problems(tallies, ff_names)
    budget = nominal * len(ff_names)
    total = sum(rec[0] for rec in tallies.values())
    if total > budget:
        problems.append(f"total injections {total} exceed the budget {budget}")
    over = [name for name, rec in tallies.items() if rec[0] > cap]
    if over:
        problems.append(f"{len(over)} flip-flops exceed the injection cap {cap}")
    if total < budget:
        open_ffs = [
            name for name, (n, k, _lat) in tallies.items() if n < cap and not retired(n, k)
        ]
        if open_ffs:
            problems.append(
                f"{len(open_ffs)} flip-flops stopped above the target margin "
                f"below the cap (e.g. {open_ffs[0]} {tallies[open_ffs[0]][:2]})"
            )
    return problems


def check_table1(table, pinned_r2: Optional[Mapping[str, float]]) -> List[str]:
    """Table I keeps the paper's shape; on the default seed its R² match."""
    problems = []
    if not table.shape_holds():
        problems.append(
            "Table I shape does not hold: "
            + ", ".join(f"{m} r2={v['r2']:.4f}" for m, v in table.rows.items())
        )
    for model, expected in (pinned_r2 or {}).items():
        found = table.rows[model]["r2"]
        if abs(found - expected) > R2_TOLERANCE:
            problems.append(f"{model}: R² {found:.4f} != pinned {expected:.4f}")
    return problems
