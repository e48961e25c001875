"""Deterministic fault injection and failure harnesses for every tier.

The storage engine, the network service, and the cluster all *claim*
robustness properties — crash-consistent WAL/manifest recovery, retrying
clients, graceful shard degradation — but claims without adversaries are
just comments. This package supplies the adversaries, all seeded and
replayable:

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultyFile`:
  wrap the engine's file handles (via ``StoreOptions.fault_plan``) and
  fail, torn-write, or corrupt the Nth I/O at a named site
  (``wal.write``, ``wal.fsync``, ``manifest.write``, ``sstable.write``).
* :mod:`repro.faults.crashsim` — the crash-recovery property harness:
  replay a seeded workload, crash at every frame boundary and at every
  byte of the WAL tail, reopen, and assert the recovered-prefix
  invariant (acked writes present, no phantoms, ``verify_store`` clean).
* :mod:`repro.faults.chaos` — :func:`run_chaos`, the cluster chaos
  runner behind ``python -m repro chaos``: kill a shard mid-load,
  restore it, and report recovery time + error budget.
"""

from .chaos import (
    CHAOS_OPTIONS,
    CORRUPTION_CHAOS_OPTIONS,
    ChaosReport,
    CorruptionChaosReport,
    run_chaos,
    run_corruption_chaos,
)
from .crashsim import (
    CrashSimReport,
    apply_ops,
    build_workload,
    compressed_block_scenarios,
    fault_scenarios,
    run_crash_harness,
    wal_prefix_sweep,
)
from .plan import KINDS, SITES, FaultPlan, FaultRule, FaultyFile

__all__ = [
    "CHAOS_OPTIONS",
    "CORRUPTION_CHAOS_OPTIONS",
    "KINDS",
    "SITES",
    "ChaosReport",
    "CorruptionChaosReport",
    "CrashSimReport",
    "FaultPlan",
    "FaultRule",
    "FaultyFile",
    "apply_ops",
    "build_workload",
    "compressed_block_scenarios",
    "fault_scenarios",
    "run_chaos",
    "run_corruption_chaos",
    "run_crash_harness",
    "wal_prefix_sweep",
]
