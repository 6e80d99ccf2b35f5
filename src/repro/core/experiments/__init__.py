"""Experiment drivers, one per figure of the paper."""

from repro.core.experiments.testbed import (
    GuestSpec,
    KvmTestbed,
    MeasurementResult,
    TestbedConfig,
    scale_workload,
)
from repro.core.experiments.scenarios import (
    SCENARIOS,
    ScenarioResult,
    run,
    run_cached,
)
from repro.core.experiments.hugepages import (
    HugePageCurveResult,
    HugePagePoint,
    run_hugepage_tradeoff,
)
from repro.core.experiments.powervm import PowerVmResult, run_powervm_experiment
from repro.core.experiments.consolidation import (
    ConsolidationPoint,
    ConsolidationResult,
    run_daytrader_consolidation,
    run_specj_consolidation,
)
from repro.core.experiments.pressure import (
    PRESSURE_ARMS,
    PressureArmRequest,
    PressureArmResult,
    PressureFamilyResult,
    run_pressure_arm,
    run_pressure_family,
)

__all__ = [
    "GuestSpec",
    "KvmTestbed",
    "MeasurementResult",
    "TestbedConfig",
    "scale_workload",
    "SCENARIOS",
    "ScenarioResult",
    "run",
    "run_cached",
    "HugePageCurveResult",
    "HugePagePoint",
    "run_hugepage_tradeoff",
    "PowerVmResult",
    "run_powervm_experiment",
    "ConsolidationPoint",
    "ConsolidationResult",
    "run_daytrader_consolidation",
    "run_specj_consolidation",
    "PRESSURE_ARMS",
    "PressureArmRequest",
    "PressureArmResult",
    "PressureFamilyResult",
    "run_pressure_arm",
    "run_pressure_family",
]
