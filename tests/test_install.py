"""Clean-install contract: the package runs on its declared dependencies.

``setup.py`` declares numpy only.  scipy and networkx may be present in a
development environment, so a subprocess hides them behind a
``sys.meta_path`` blocker and then drives the production paths — package
import, a flat and a sequential campaign — that must not need them.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

SCRIPT = r"""
import sys

BLOCKED = ("scipy", "networkx")


class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in BLOCKED:
            raise ImportError(f"{name} is not a declared dependency")
        return None


sys.meta_path.insert(0, Blocker())

import repro
import repro.experiments.table1
import repro.features.extractor
from repro.campaigns import CampaignEngine, CampaignSpec

common = dict(
    circuit="xgmac_tiny", n_frames=4, min_len=2, max_len=3, gap=12,
    workload_seed=7, seed=5, schedule="stream",
)
flat = CampaignEngine(CampaignSpec(n_injections=4, **common)).run()
assert all(r.n_injections == 4 for r in flat.results.values())
engine = CampaignEngine(
    CampaignSpec(n_injections=30, policy="sequential", target_margin=0.2, **common)
)
seq = engine.run()
assert engine.last_report.rounds >= 1
assert sum(r.n_injections for r in seq.results.values()) > 0
assert not [m for m in sys.modules if m.partition(".")[0] in BLOCKED]
print("clean-install ok")
"""


def test_runs_without_scipy_and_networkx():
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert "clean-install ok" in proc.stdout
