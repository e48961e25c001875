"""repro: a reproduction of "On Performance Stability in LSM-based
Storage Systems" (Luo & Carey, VLDB 2019).

The package has three layers:

* :mod:`repro.core` — the paper's contribution: merge policies, merge
  schedulers (single-threaded / fair / greedy / bLSM spring-and-gear),
  component constraints, and write controls, all over abstract component
  metadata.
* :mod:`repro.sim` — a fluid discrete-event simulator that reproduces the
  paper's testbed (bandwidth budgets, flush priority, write stalls) with
  a virtual clock, plus :mod:`repro.harness` implementing the two-phase
  evaluation methodology.
* :mod:`repro.engine` — a real, embeddable LSM key-value storage engine
  (memtable, sorted runs with Bloom filters, WAL, manifest, compaction)
  driven by the same policies and schedulers.

Importing the package imports none of them: the engine, the server and
the cluster need only the standard library, numpy is the simulator's.

Quickstart::

    from repro.harness import ExperimentSpec, two_phase
    outcome = two_phase(ExperimentSpec.tiering(scheduler="greedy"))
    print(outcome.max_write_throughput, outcome.p99_write_latency)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
