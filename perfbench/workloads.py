"""The benchmark's workloads: what one op runs and how its output is checked.

An *op* is one simulation call — ``repro.core.experiments.scenarios.run``
for the scenario workloads, ``run_pressure_family`` for the pressure
workload — on one of the :data:`SIM_SEEDS`.  The driver's ``--seed`` only
chooses the order in which a run visits those simulation seeds, so every
op has a golden digest to be checked against, and every run covers the
same set of simulations (which keeps the run medians comparable).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.config import (
    HugePageSettings,
    KsmSettings,
    ScenarioSpec,
    TieringSettings,
)
from repro.core.categories import MemoryCategory
from repro.core.experiments.pressure import run_pressure_family
from repro.core.experiments.scenarios import run
from repro.core.preload import CacheDeployment
from repro.units import DEFAULT_PAGE_SIZE, MiB

from perfbench import BENCHMARK

#: Each workload's one-line reason, keyed by name.
WHY = {
    workload["name"]: workload["why"] for workload in BENCHMARK["workloads"]
}

#: Simulation seeds an op may run; each has a golden digest per workload.
SIM_SEEDS = (20130421, 20130422, 20130423, 20130424, 20130425)

#: The paper's headline: class metadata of the non-primary JVMs that TPS
#: eliminates once the shared class cache is preloaded (Fig. 5(a)).
PAPER_CLASS_METADATA_REDUCTION = 0.896


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a fixed simulation configuration."""

    name: str
    scenario: str
    scale: float
    ticks: int
    #: "scenario" runs ``run(spec)``; "pressure" runs the pressure family.
    kind: str = "scenario"
    deployment: str = "none"
    scan_policy: str = "full"
    #: KSM pages per 100 ms wake-up (the paper's is 1000).
    pages_to_scan: int = 1000
    scan_engine: str = "batch"
    backend: str = "columnar"
    tiering: str = "off"
    thp_policy: str = "never"
    thp_block_pages: int = 512
    #: Worker processes of the pressure family's runner.
    jobs: int = 1

    @property
    def why(self) -> str:
        """The workload's one-line reason, as ``BENCHMARK.json`` gives it."""
        return WHY[self.name]

    def spec(self, sim_seed: int) -> ScenarioSpec:
        """The scenario spec one op of this workload runs."""
        return ScenarioSpec(
            scenario=self.scenario,
            deployment=CacheDeployment(self.deployment),
            scale=self.scale,
            measurement_ticks=self.ticks,
            seed=sim_seed,
            ksm=KsmSettings(
                pages_to_scan=self.pages_to_scan,
                scan_policy=self.scan_policy,
                scan_engine=self.scan_engine,
            ),
            tiering=TieringSettings(mode=self.tiering),
            hugepages=HugePageSettings(
                policy=self.thp_policy, block_pages=self.thp_block_pages
            ),
            backend=self.backend,
        )

    def op_inputs(self, seed: int) -> List[int]:
        """The simulation seeds a run visits, in the order ``seed`` picks.

        The run cycles through this list; the same ``seed`` always gives
        the same order, another seed almost always another order.
        """
        order = list(SIM_SEEDS)
        random.Random(seed).shuffle(order)
        return order

    def run_op(self, sim_seed: int, profiler=None, runner=None,
               jobs: Optional[int] = None) -> Any:
        """One op: a full simulation, bypassing the result cache."""
        if self.kind == "pressure":
            return run_pressure_family(
                self.scenario,
                scale=self.scale,
                measurement_ticks=self.ticks,
                seed=sim_seed,
                jobs=self.jobs if jobs is None else jobs,
                runner=runner,
            )
        return run(self.spec(sim_seed), profiler=profiler)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-fullscan",
            scenario="daytrader4",
            scale=0.02,
            ticks=1,
            pages_to_scan=250,
        ),
        Workload(
            name="preload-incremental",
            scenario="mixed3",
            scale=0.05,
            ticks=3,
            deployment="shared-copy",
            scan_policy="incremental",
        ),
        Workload(
            name="thp-khugepaged",
            scenario="daytrader4",
            scale=0.025,
            ticks=2,
            scan_policy="hybrid",
            tiering="combined",
            thp_policy="khugepaged",
            thp_block_pages=16,
        ),
        Workload(
            name="pressure-fanout",
            scenario="daytrader4",
            scale=0.02,
            ticks=2,
            kind="pressure",
            jobs=2,
        ),
    )
}


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def canonical(result: Any) -> dict:
    """The parts of an op result the golden digest covers."""
    if hasattr(result, "savings_honest"):
        return result.to_dict()  # includes savings_honest per arm
    report = result.validation_report
    return {
        "vm_breakdown": json.loads(result.vm_breakdown.to_json()),
        "java_breakdown": json.loads(result.java_breakdown.to_json()),
        # KsmStats, THP gauges included (stats.extra["thp"]).
        "ksm_stats": dataclasses.asdict(result.ksm_stats),
        "validation_codes": report.codes() if report is not None else [],
    }


def digest(result: Any) -> str:
    """SHA-256 of the canonical JSON of an op result."""
    text = json.dumps(
        canonical(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def problems(result: Any, expected_digest: Optional[str]) -> List[str]:
    """Everything wrong with an op result; empty when it is correct.

    An op is wrong when a validation report has a finding, when the
    pressure family claims more than an arm physically freed, or when
    the digest differs from the golden one (a missing golden is wrong
    too: every op must be checked).
    """
    found: List[str] = []
    if hasattr(result, "savings_honest"):
        for name, arm in sorted(result.arms.items()):
            if arm.validation_codes:
                found.append(f"arm {name}: {arm.validation_codes}")
            if not result.savings_honest(name):
                found.append(f"arm {name}: claims more than it freed")
        if result.baseline.validation_codes:
            found.append(f"baseline: {result.baseline.validation_codes}")
    elif result.validation_report is not None:
        codes = result.validation_report.codes()
        if codes:
            found.append(f"validation findings: {codes}")
    got = digest(result)
    if expected_digest is None:
        found.append("no golden digest")
    elif got != expected_digest:
        found.append(f"digest {got[:12]} != golden {expected_digest[:12]}")
    return found


def tps_saving_mb(result: Any) -> float:
    """Simulated MB saved by KSM at the end of the op."""
    if hasattr(result, "savings_honest"):
        return result.arms["ksm"].ksm_saved_bytes / MiB
    return result.ksm_stats.pages_saved * DEFAULT_PAGE_SIZE / MiB


def class_metadata_reduction(result: Any) -> Optional[float]:
    """Mean class-metadata share TPS eliminates on non-primary JVMs."""
    if not hasattr(result, "java_breakdown"):
        return None
    rows = result.java_breakdown.non_primary_rows()
    if not rows:
        return None
    return sum(
        row.shared_fraction(MemoryCategory.CLASS_METADATA) for row in rows
    ) / len(rows)
