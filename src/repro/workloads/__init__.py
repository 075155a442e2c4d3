"""Workloads: system assembly, scripted/random drivers, paper scenarios."""

from repro.workloads.churn import ChurnSchedule
from repro.workloads.generator import (
    Driver,
    DriverStats,
    OpenLoopConfig,
    PlannedOp,
    TimedOp,
    WorkloadConfig,
    ZipfSampler,
    generate_open_loop,
    generate_scripts,
    unique_value,
)
from repro.workloads.runner import StorageSystem, SystemBuilder
from repro.workloads.scale import (
    ResidentSample,
    ScaleConfig,
    ScaleReport,
    run_scale,
)
from repro.workloads.scenarios import (
    Figure2Result,
    Figure3Result,
    SplitBrainResult,
    figure2_scenario,
    figure3_scenario,
    split_brain_scenario,
)
from repro.workloads.sessions import (
    SessionLease,
    SessionPool,
    plan_churn_windows,
)

__all__ = [
    "ChurnSchedule",
    "Driver",
    "DriverStats",
    "Figure2Result",
    "Figure3Result",
    "OpenLoopConfig",
    "PlannedOp",
    "ResidentSample",
    "ScaleConfig",
    "ScaleReport",
    "SessionLease",
    "SessionPool",
    "SplitBrainResult",
    "StorageSystem",
    "SystemBuilder",
    "TimedOp",
    "WorkloadConfig",
    "ZipfSampler",
    "figure2_scenario",
    "figure3_scenario",
    "generate_open_loop",
    "generate_scripts",
    "plan_churn_windows",
    "run_scale",
    "split_brain_scenario",
    "unique_value",
]
