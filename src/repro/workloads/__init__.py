"""Workloads: system assembly, scripted/random drivers, paper scenarios."""

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
    run_closed_loop,
    unique_value,
)
from repro.workloads.runner import StorageSystem
from repro.workloads.scale import (
    ResidentSample,
    ScaleConfig,
    ScaleReport,
    run_scale,
)
from repro.workloads.scenarios import (
    Figure2Result,
    Figure3Result,
    ScenarioRun,
    figure2_scenario,
    figure3_scenario,
    replica_rollback_scenario,
    rollback_attack_scenario,
    server_outage_scenario,
    split_brain_scenario,
    split_brain_shard_scenario,
)

__all__ = [
    "Driver",
    "DriverStats",
    "Figure2Result",
    "Figure3Result",
    "OpenLoopConfig",
    "PlannedOp",
    "ResidentSample",
    "ScaleConfig",
    "ScaleReport",
    "ScenarioRun",
    "StorageSystem",
    "TimedOp",
    "WorkloadConfig",
    "ZipfSampler",
    "figure2_scenario",
    "figure3_scenario",
    "generate_open_loop",
    "generate_scripts",
    "replica_rollback_scenario",
    "rollback_attack_scenario",
    "run_closed_loop",
    "run_scale",
    "server_outage_scenario",
    "split_brain_scenario",
    "split_brain_shard_scenario",
    "unique_value",
]
