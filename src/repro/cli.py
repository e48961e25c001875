"""Command-line driver: run the paper's methodology without writing code.

::

    python -m repro two-phase --policy tiering --scheduler greedy
    python -m repro compare --policy leveling
    python -m repro sweep size-ratio --policy tiering --ratios 2,4,6,10
    python -m repro sweep utilization --policy tiering --points 0.5,0.8,0.95
    python -m repro sweep partition-size --files-mib 8,64,512
    python -m repro serve /tmp/db --admission gradual
    python -m repro loadgen --port 7379 --mode two-phase

Every command builds the corresponding :class:`~repro.harness.ExperimentSpec`,
runs the two-phase evaluation on the scaled simulated testbed, and prints
the same tables/sparklines the benchmark suite produces.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .errors import ReproError

# Every command imports what it runs in its own body: the simulation
# commands load repro.harness (and numpy), `serve` never does.

def _spec_for(args: argparse.Namespace, scheduler: str | None = None):
    from .harness import ExperimentSpec

    return ExperimentSpec.for_policy(
        args.policy,
        size_ratio=args.size_ratio,
        scheduler=scheduler or args.scheduler,
        distribution=args.distribution,
        testing_fix=args.testing_fix,
        scale=args.scale,
    ).with_(utilization=args.utilization)


def _cmd_two_phase(args: argparse.Namespace) -> int:
    from .harness import format_latency_profile, sparkline, two_phase

    spec = _spec_for(args)
    print(f"spec: {spec.name} (scale x{args.scale:.0f}, "
          f"utilization {args.utilization:.0%})")
    outcome = two_phase(spec)
    print(f"testing phase:  max write throughput = "
          f"{outcome.max_write_throughput:.1f} entries/s")
    print(f"running phase:  arrivals = {outcome.arrival_rate:.1f} entries/s")
    print("  throughput  "
          + sparkline(outcome.running.throughput_series(), 60))
    print(f"  stalls: {outcome.running.stall_count()} "
          f"({outcome.running.stall_time:.0f}s)")
    print("  write latencies: "
          + format_latency_profile(outcome.running.write_latency_profile()))
    print(f"  sustainable: {'yes' if outcome.sustainable else 'NO'}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .harness import compare_schedulers, format_table

    schedulers = [s.strip() for s in args.schedulers.split(",")]
    rows = compare_schedulers(lambda s: _spec_for(args, s), schedulers)
    print(format_table(rows))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .harness import (
        format_table,
        partition_size_sweep,
        size_ratio_sweep,
        utilization_sweep,
    )

    if args.axis == "size-ratio":
        ratios = [int(v) for v in args.ratios.split(",")]
        rows = size_ratio_sweep(args.policy, ratios, scale=args.scale)
    elif args.axis == "utilization":
        points = [float(v) for v in args.points.split(",")]
        rows = utilization_sweep(_spec_for(args), points)
    elif args.axis == "partition-size":
        sizes = [float(v) for v in args.files_mib.split(",")]
        rows = partition_size_sweep(sizes, scale=args.scale)
    else:  # pragma: no cover - argparse choices guard this
        raise ReproError(f"unknown sweep axis {args.axis!r}")
    print(format_table(rows))
    return 0


def _check_port(port: int) -> int:
    if not 1 <= port <= 65535:
        raise ReproError(
            f"port {port} is outside the valid TCP range 1-65535"
        )
    return port


def _admission_params(args: argparse.Namespace) -> dict:
    """Map CLI flags onto :func:`build_admission` keyword arguments."""
    mode = args.admission
    if mode == "none":
        return {}
    params = dict(retry_after=args.retry_after_ms / 1000.0)
    if mode != "stop":
        params.update(rate_bytes_per_s=args.rate_mib * 2**20)
    if mode == "gradual":
        params.update(threshold=args.threshold)
    return params


def _admission_from(args: argparse.Namespace):
    from .server import build_admission

    return build_admission(args.admission, **_admission_params(args))


def _store_options_from(args: argparse.Namespace):
    """The engine options the ``_add_engine_args`` flags describe.

    A served store always runs maintenance workers: the server can shed
    its writes, and a shed write drives no inline maintenance."""
    from .engine import StoreOptions

    return StoreOptions(
        memtable_bytes=int(args.memtable_mib * 2**20),
        policy=args.engine_policy,
        block_codec=args.block_codec,
        background_maintenance=True,
        maintenance_threads=args.maintenance_threads,
        scrub_interval=args.scrub_interval,
        scrub_rate_bytes_per_s=int(args.scrub_rate_mib * 2**20),
        sync_writes=args.sync_writes,
        group_commit=args.group_commit,
    )


def _serve_until_interrupted(run, args: argparse.Namespace) -> int:
    """``asyncio.run(run())`` until Ctrl-C or SIGTERM; exit code.

    SIGTERM — what ``kill`` and every process manager send — takes the
    Ctrl-C path: the serving task is cancelled at an ``await``, its
    ``async with`` blocks close servers and stores, exit 0. Only a
    clean close records the log position that lets replicas resume at
    the next start instead of resyncing from scratch.
    """
    import asyncio
    import signal

    async def main() -> None:
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel
        )
        await run()

    try:
        asyncio.run(main())
    except (KeyboardInterrupt, asyncio.CancelledError):
        print("shutting down")
    except OSError as error:
        print(f"error: cannot serve on {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 2
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .engine import LSMStore
    from .memory import MemoryArbiter, MemoryBudget
    from .server import KVServer

    _check_port(args.port)
    memory_budget = _memory_budget_bytes(args)
    options = _store_options_from(args)

    async def run() -> None:
        with LSMStore.open(args.directory, options) as store:
            arbiter = None
            if memory_budget is not None:
                # Single-node deployment: the arbiter still earns its
                # keep by moving the write/read split with the workload.
                arbiter = MemoryArbiter(
                    MemoryBudget(memory_budget, 1),
                    [store],
                    obs=store.obs,
                    interval=args.memory_rebalance_interval,
                )
            server = KVServer(
                store,
                _admission_from(args),
                host=args.host,
                port=args.port,
                metrics_port=args.metrics_port,
                memory_arbiter=arbiter,
                memory_interval=args.memory_rebalance_interval,
            )
            async with server:
                host, port = server.address
                budget_note = (
                    f", memory budget: {args.memory_budget:g} MiB"
                    if memory_budget is not None
                    else ""
                )
                print(
                    f"serving {args.directory} on {host}:{port} "
                    f"(admission: {args.admission}{budget_note})"
                )
                if server.metrics_address is not None:
                    mhost, mport = server.metrics_address
                    print(f"metrics on http://{mhost}:{mport}/metrics")
                await server.serve_forever()

    return _serve_until_interrupted(run, args)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from .server.loadgen import closed_loop, open_loop, two_phase as net_two_phase

    _check_port(args.port)
    if args.mode == "open" and args.rate <= 0:
        raise ReproError(
            f"--rate must be a positive arrival rate, got {args.rate}"
        )
    if args.clients < 1:
        raise ReproError(
            f"--clients must be at least 1, got {args.clients}"
        )
    if args.ops < 1:
        raise ReproError(f"--ops must be at least 1, got {args.ops}")
    common = dict(
        value_bytes=args.value_bytes,
        keyspace=args.keyspace,
        seed=args.seed,
        distribution=args.distribution,
        theta=args.theta,
    )

    async def run():
        if args.mode == "closed":
            return await closed_loop(
                args.host,
                args.port,
                clients=args.clients,
                ops_per_client=args.ops // max(1, args.clients),
                **common,
            )
        if args.mode == "open":
            return await open_loop(
                args.host,
                args.port,
                rate_ops_per_s=args.rate,
                total_ops=args.ops,
                **common,
            )
        return await net_two_phase(
            args.host,
            args.port,
            utilization=args.utilization,
            clients=args.clients,
            testing_ops_per_client=args.ops // max(1, args.clients),
            running_ops=args.ops,
            **common,
        )

    result = asyncio.run(run())
    print(result.summary())
    completed = (
        result.running.op_count
        if hasattr(result, "running")
        else result.op_count
    )
    return 0 if completed else 1


def _cmd_cluster_serve(args: argparse.Namespace) -> int:
    from .cluster import ClusterAdmission, LocalCluster

    _check_port(args.port)
    if args.shards < 1:
        raise ReproError(
            f"--shards must be at least 1, got {args.shards}"
        )
    memory_budget = _memory_budget_bytes(args)
    options = _store_options_from(args)
    admission = ClusterAdmission(
        args.scope, args.admission, args.shards, **_admission_params(args)
    )

    _check_replication(args)

    async def run() -> None:
        cluster = LocalCluster(
            args.directory,
            num_shards=args.shards,
            options=options,
            admission=admission,
            host=args.host,
            port=args.port,
            metrics_port=args.metrics_port,
            replicas=args.replicas,
            ack_policy=args.ack_policy,
            read_from_replica=args.read_from_replica,
            memory_budget=memory_budget,
            memory_rebalance_interval=args.memory_rebalance_interval,
            repair_interval=args.repair_interval,
        )
        async with cluster:
            host, port = cluster.address
            replication = (
                f", {args.replicas} replica(s)/shard "
                f"under {args.ack_policy!r}"
                if args.replicas > 0
                else ""
            )
            budget_note = (
                f", memory budget: {args.memory_budget:g} MiB"
                if memory_budget is not None
                else ""
            )
            print(
                f"serving {args.shards}-shard cluster from "
                f"{args.directory} on {host}:{port} "
                f"(admission: {admission.mode}"
                f"{replication}{budget_note})"
            )
            assert cluster.router is not None
            if cluster.router.metrics_address is not None:
                mhost, mport = cluster.router.metrics_address
                print(f"metrics on http://{mhost}:{mport}/metrics")
            await cluster.serve_forever()

    return _serve_until_interrupted(run, args)


def _cmd_obs(args: argparse.Namespace) -> int:
    """Dump/tail lifecycle events or scrape metrics off a live server."""
    import asyncio

    from .obs import Event, render_prometheus
    from .server import KVClient

    _check_port(args.port)

    def emit_events(view: dict, cursor: int) -> int:
        for wire in view["events"]:
            event = Event.from_wire(wire)
            cursor = max(cursor, event.seq)
            print(event.format())
        return cursor

    async def run() -> int:
        async with KVClient(args.host, args.port) as client:
            if args.action == "scrape":
                print(render_prometheus(await client.metrics()), end="")
                return 0
            view = await client.events(since=args.since, limit=args.limit)
            cursor = emit_events(view, args.since)
            if view["dropped"]:
                print(
                    f"# ring overflowed: {view['dropped']} older events "
                    "were dropped",
                    file=sys.stderr,
                )
            while args.action == "tail":
                await asyncio.sleep(args.interval_ms / 1000.0)
                cursor = emit_events(
                    await client.events(since=cursor), cursor
                )
            return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import json
    from dataclasses import asdict

    from .engine import verify_store

    report = verify_store(args.directory, policy=args.policy)
    print(report.summary())
    if args.json_out is not None:
        payload = asdict(report)
        payload["clean"] = report.clean
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, default=str)
            handle.write("\n")
    return 0 if report.clean else 1


def _cmd_scrub(args: argparse.Namespace) -> int:
    """Run one synchronous scrub pass over a store and report it."""
    import json

    from .engine import LSMStore, StoreOptions

    options = StoreOptions(
        block_cache_bytes=0,
        scrub_rate_bytes_per_s=int(args.scrub_rate_mib * 2**20),
    )
    with LSMStore.open(args.directory, options) as store:
        summary = store.scrub_pass()
        status = store.corruption_status()
    print(
        f"scrub pass: {summary['last_pass']['runs']} run(s), "
        f"{summary['last_pass']['blocks']} block(s), "
        f"{summary['last_pass']['bytes']} byte(s) verified, "
        f"{summary['last_pass']['findings']} finding(s)"
    )
    for entry in status["quarantined"]:
        print(
            f"quarantined: run {entry['run_id']} level {entry['level']} "
            f"({entry['reason']})"
        )
    if args.json_out is not None:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(
                {"scrub": summary, "quarantined": status["quarantined"]},
                handle,
                indent=2,
            )
            handle.write("\n")
    return 0 if not status["quarantined"] else 1


def _cmd_crashsim(args: argparse.Namespace) -> int:
    from .faults import compressed_block_scenarios, run_crash_harness

    if args.ops < 2:
        raise ReproError(f"--ops must be at least 2, got {args.ops}")
    if args.mode == "blocks":
        # Corruption-at-rest only: flip bytes inside a compressed data
        # block and require detect -> quarantine with no wrong answers.
        report = compressed_block_scenarios(args.directory, seed=args.seed)
    else:
        report = run_crash_harness(
            args.directory, num_ops=args.ops, seed=args.seed
        )
    print(report.summary())
    return 0 if report.ok else 1


def _check_replication(args: argparse.Namespace) -> None:
    from .replication import ACK_POLICIES

    if args.replicas < 0:
        raise ReproError(
            f"--replicas cannot be negative, got {args.replicas}"
        )
    if args.ack_policy not in ACK_POLICIES:
        raise ReproError(
            f"--ack-policy must be one of {ACK_POLICIES}, "
            f"got {args.ack_policy!r}"
        )
    if args.read_from_replica and args.replicas == 0:
        raise ReproError(
            "--read-from-replica needs --replicas >= 1"
        )


def _cmd_chaos(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .engine import StoreOptions
    from .faults import run_chaos, run_corruption_chaos

    if args.shards < 2:
        raise ReproError(
            f"--shards must be at least 2 (one to kill, one to "
            f"survive), got {args.shards}"
        )
    if not 0 <= args.kill_shard < args.shards:
        raise ReproError(
            f"--kill-shard {args.kill_shard} is outside "
            f"[0, {args.shards})"
        )
    _check_replication(args)
    options = None
    if args.group_commit:
        options = StoreOptions(
            block_cache_bytes=0,
            sync_writes=True,
            group_commit=True,
            # Keep the corruption runner's small-memtable/scrub shape so
            # its at-rest byte flips still land on live run files.
            **(
                dict(
                    memtable_bytes=4096,
                    background_maintenance=True,
                    scrub_interval=0.2,
                )
                if args.corrupt_at_rest
                else {}
            ),
        )
    load = dict(
        num_shards=args.shards,
        ops=args.ops,
        seed=args.seed,
        op_interval=args.op_interval_ms / 1000.0,
        replicas=args.replicas,
        ack_policy=args.ack_policy,
        options=options,
    )
    if args.corrupt_at_rest:
        if args.replicas < 1:
            raise ReproError(
                "--corrupt-at-rest needs --replicas >= 1 "
                "(repair is replica-backed)"
            )
        run = run_corruption_chaos(
            args.directory,
            target_shard=args.kill_shard,
            corrupt_at=args.kill_at,
            **load,
        )
    else:
        run = run_chaos(
            args.directory,
            kill_shard=args.kill_shard,
            kill_at=args.kill_at,
            restore_at=args.restore_at,
            cooldown=args.cooldown_ms / 1000.0,
            read_from_replica=args.read_from_replica,
            **load,
        )
    report = asyncio.run(run)
    print(report.summary())
    if args.json_out is not None:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
    return 0 if report.ok else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    from .core.factory import POLICIES, SCHEDULERS

    parser.add_argument(
        "--policy", choices=POLICIES, default="tiering",
        help="merge policy (default: tiering)",
    )
    parser.add_argument(
        "--scheduler", default="greedy",
        help=f"runtime scheduler: {'/'.join(SCHEDULERS)} (default: greedy)",
    )
    parser.add_argument(
        "--size-ratio", type=float, default=None,
        help="size ratio T, whole under tiering and lazy leveling "
             "(defaults: tiering 3, leveling 10)",
    )
    parser.add_argument(
        "--distribution", choices=("uniform", "zipf"), default="uniform",
        help="update key distribution (default: uniform)",
    )
    parser.add_argument(
        "--scale", type=float, default=256.0,
        help="testbed scale factor (default: 256)",
    )
    parser.add_argument(
        "--utilization", type=float, default=0.95,
        help="running-phase utilization (default: 0.95)",
    )
    parser.add_argument(
        "--testing-fix", action="store_true",
        help="apply the paper's testing-phase determinism fix "
             "(size-tiered / partitioned policies)",
    )


def _add_replication_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--replicas", type=int, default=0,
        help="WAL-shipping followers per shard (default: 0, i.e. "
             "unreplicated; chaos with replicas kills a leader and "
             "expects a promotion instead of a restore)",
    )
    parser.add_argument(
        "--ack-policy", choices=("leader_only", "quorum", "all"),
        default="leader_only",
        help="follower acks a write waits for before the client sees "
             "OK (default: leader_only)",
    )
    parser.add_argument(
        "--read-from-replica", action="store_true",
        help="let the router serve scans from followers, with "
             "staleness surfaced in the response",
    )


def _add_admission_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--admission", choices=("none", "stop", "limit", "gradual"),
        default="none",
        help="write admission mode (default: none)",
    )
    parser.add_argument(
        "--rate-mib", type=float, default=64.0,
        help="limit mode: admitted write budget in MiB/s; gradual mode: "
             "the rate its ramp starts from (default: 64)",
    )
    parser.add_argument(
        "--retry-after-ms", type=float, default=50.0,
        help="client backoff hint of a stalled write; gradual mode: its "
             "pause before retrying (default: 50ms)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.5,
        help="gradual mode: consumed constraint budget where slowing "
             "starts (default: 0.5)",
    )


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--memtable-mib", type=float, default=4.0,
        help="engine memory component budget (default: 4 MiB)",
    )
    from .engine.blockcodec import available_codecs
    from .engine.options import ENGINE_POLICIES

    parser.add_argument(
        "--engine-policy", choices=ENGINE_POLICIES,
        default="tiering", help="engine merge policy (default: tiering)",
    )
    parser.add_argument(
        "--block-codec", choices=available_codecs(), default="none",
        help="per-block compression for new sorted runs (default: "
             "none); existing runs keep reading and merges rewrite "
             "them under the new codec",
    )
    parser.add_argument(
        "--maintenance-threads", type=int, default=1,
        help="flush/merge workers per store (default: 1)",
    )
    parser.add_argument(
        "--scrub-interval", type=float, default=0.0,
        help="seconds between background integrity-scrub passes over "
             "the live runs (default: 0, disabled); scrub I/O is "
             "debited against the maintenance rate budget",
    )
    parser.add_argument(
        "--scrub-rate-mib", type=float, default=0.0,
        help="additional dedicated scrub throttle in MiB/s "
             "(default: 0, unthrottled beyond the shared budget)",
    )
    parser.add_argument(
        "--sync-writes", action="store_true",
        help="fsync the WAL before acknowledging each write "
             "(default: rely on OS buffering)",
    )
    parser.add_argument(
        "--group-commit", action="store_true",
        help="coalesce concurrent writers into one WAL write+fsync "
             "per group (amortizes --sync-writes; see "
             "docs/engine-concurrency.md)",
    )


def _add_memory_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--memory-budget", type=float, default=None, metavar="MIB",
        help="adaptive memory arbitration: one global budget (MiB) "
             "split between memtables and block caches and rebalanced "
             "from observed pressure (default: disabled — static "
             "--memtable-mib sizing applies)",
    )
    parser.add_argument(
        "--memory-rebalance-interval", type=float, default=1.0,
        help="seconds between memory-arbiter rebalance checks "
             "(default: 1.0)",
    )


def _memory_budget_bytes(args: argparse.Namespace) -> int | None:
    """Validate the memory flags; returns the budget in bytes, if set."""
    if args.memory_rebalance_interval <= 0:
        raise ReproError(
            f"--memory-rebalance-interval must be positive, got "
            f"{args.memory_rebalance_interval}"
        )
    if args.memory_budget is None:
        return None
    if args.memory_budget <= 0:
        raise ReproError(
            f"--memory-budget must be a positive MiB figure, got "
            f"{args.memory_budget}"
        )
    return int(args.memory_budget * 2**20)


def _add_loadgen_args(
    parser: argparse.ArgumentParser, default_distribution: str = "uniform"
) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7379)
    parser.add_argument(
        "--mode", choices=("closed", "open", "two-phase"),
        default="two-phase",
        help="load shape (default: the paper's two-phase methodology)",
    )
    parser.add_argument(
        "--clients", type=int, default=4,
        help="concurrent closed-loop clients (default: 4)",
    )
    parser.add_argument(
        "--ops", type=int, default=2000,
        help="total operations per phase (default: 2000)",
    )
    parser.add_argument(
        "--rate", type=float, default=500.0,
        help="open mode: arrivals per second (default: 500)",
    )
    parser.add_argument(
        "--utilization", type=float, default=0.95,
        help="two-phase mode: running-phase fraction of the measured "
             "max (default: 0.95, the paper's setting)",
    )
    parser.add_argument(
        "--distribution", choices=("uniform", "zipf"),
        default=default_distribution,
        help="key popularity (default: %(default)s); zipf concentrates "
             "traffic onto hot keys and therefore hot shards",
    )
    parser.add_argument(
        "--theta", type=float, default=0.99,
        help="zipf skew parameter (default: 0.99, the YCSB setting)",
    )
    parser.add_argument("--value-bytes", type=int, default=100)
    parser.add_argument("--keyspace", type=int, default=4096)
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Two-phase LSM write-stall evaluation "
                    "(Luo & Carey, PVLDB 2019 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    two_phase_cmd = commands.add_parser(
        "two-phase", help="run the full testing+running methodology"
    )
    _add_common(two_phase_cmd)
    two_phase_cmd.set_defaults(handler=_cmd_two_phase)

    compare_cmd = commands.add_parser(
        "compare", help="compare schedulers at identical arrivals"
    )
    _add_common(compare_cmd)
    compare_cmd.add_argument(
        "--schedulers", default="single,fair,greedy",
        help="comma-separated scheduler list",
    )
    compare_cmd.set_defaults(handler=_cmd_compare)

    sweep_cmd = commands.add_parser(
        "sweep", help="parameter sweeps (figures 11, 24, 27)"
    )
    sweep_cmd.add_argument(
        "axis", choices=("size-ratio", "utilization", "partition-size")
    )
    _add_common(sweep_cmd)
    sweep_cmd.add_argument("--ratios", default="2,4,6,10")
    sweep_cmd.add_argument("--points", default="0.5,0.7,0.8,0.9,0.95")
    sweep_cmd.add_argument("--files-mib", default="8,64,512,4096")
    sweep_cmd.set_defaults(handler=_cmd_sweep)

    verify_cmd = commands.add_parser(
        "verify", help="audit a storage-engine directory's integrity"
    )
    verify_cmd.add_argument("directory", help="LSMStore data directory")
    verify_cmd.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="also write the full report as JSON to this file",
    )
    from .engine.options import ENGINE_POLICIES

    verify_cmd.add_argument(
        "--policy", default=None, choices=ENGINE_POLICIES,
        help="merge policy the store ran with; 'leveling' additionally "
        "enforces the partitioned-level no-overlap invariant",
    )
    verify_cmd.set_defaults(handler=_cmd_verify)

    scrub_cmd = commands.add_parser(
        "scrub",
        help="run one synchronous integrity-scrub pass over a store's "
             "live runs; exits non-zero if anything was quarantined",
    )
    scrub_cmd.add_argument("directory", help="LSMStore data directory")
    scrub_cmd.add_argument(
        "--scrub-rate-mib", type=float, default=0.0,
        help="dedicated scrub throttle in MiB/s (default: unthrottled)",
    )
    scrub_cmd.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="also write the scrub summary as JSON to this file",
    )
    scrub_cmd.set_defaults(handler=_cmd_scrub)

    crashsim_cmd = commands.add_parser(
        "crashsim",
        help="crash-recovery harness: WAL truncation sweep + "
             "injected-fault scenarios + compressed-block corruption",
    )
    crashsim_cmd.add_argument(
        "directory", help="scratch directory for crash images"
    )
    crashsim_cmd.add_argument(
        "--ops", type=int, default=500,
        help="workload length for the WAL sweep (default: 500)",
    )
    crashsim_cmd.add_argument("--seed", type=int, default=0)
    crashsim_cmd.add_argument(
        "--mode", choices=("all", "blocks"), default="all",
        help="'blocks' runs only the compressed-block at-rest "
             "corruption sweep (default: the full battery)",
    )
    crashsim_cmd.set_defaults(handler=_cmd_crashsim)

    chaos_cmd = commands.add_parser(
        "chaos",
        help="kill a shard mid-load against a local cluster and "
             "score degradation + recovery",
    )
    chaos_cmd.add_argument(
        "directory", help="scratch directory for the cluster"
    )
    chaos_cmd.add_argument(
        "--shards", type=int, default=3,
        help="number of shard engines (default: 3)",
    )
    chaos_cmd.add_argument(
        "--ops", type=int, default=300,
        help="writes in the main load phase (default: 300)",
    )
    chaos_cmd.add_argument(
        "--kill-shard", type=int, default=0,
        help="which shard's backend dies (default: 0)",
    )
    chaos_cmd.add_argument(
        "--kill-at", type=float, default=0.25,
        help="kill point as a fraction of --ops (default: 0.25)",
    )
    chaos_cmd.add_argument(
        "--restore-at", type=float, default=0.6,
        help="restore point as a fraction of --ops (default: 0.6)",
    )
    chaos_cmd.add_argument("--seed", type=int, default=0)
    chaos_cmd.add_argument(
        "--cooldown-ms", type=float, default=250.0,
        help="circuit-breaker open→half-open cooldown (default: 250)",
    )
    chaos_cmd.add_argument(
        "--op-interval-ms", type=float, default=2.0,
        help="pacing sleep between ops (default: 2)",
    )
    _add_replication_args(chaos_cmd)
    chaos_cmd.add_argument(
        "--corrupt-at-rest", action="store_true",
        help="instead of killing a backend, flip at-rest bytes in the "
             "target shard leader's run files mid-load and score "
             "detection, quarantine, replica-backed repair, and the "
             "zero-wrong-answers audit (needs --replicas >= 1; "
             "--kill-shard/--kill-at pick the target and the point)",
    )
    chaos_cmd.add_argument(
        "--group-commit", action="store_true",
        help="run every shard engine with sync_writes + group commit, "
             "so the zero-lost-acked-writes audit covers grouped WAL "
             "fsyncs",
    )
    chaos_cmd.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="also write the full report as JSON to this file",
    )
    chaos_cmd.set_defaults(handler=_cmd_chaos)

    serve_cmd = commands.add_parser(
        "serve", help="serve an LSMStore over TCP with admission control"
    )
    serve_cmd.add_argument("directory", help="LSMStore data directory")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=7379)
    serve_cmd.add_argument(
        "--metrics-port", type=int, default=None,
        help="expose Prometheus text metrics over HTTP on this port "
             "(0 picks a free port; default: disabled)",
    )
    _add_admission_args(serve_cmd)
    _add_engine_args(serve_cmd)
    _add_memory_args(serve_cmd)
    serve_cmd.set_defaults(handler=_cmd_serve)

    cluster_serve_cmd = commands.add_parser(
        "cluster-serve",
        help="serve a sharded multi-engine cluster behind one router",
    )
    cluster_serve_cmd.add_argument(
        "directory", help="cluster root directory (one subdir per shard)"
    )
    cluster_serve_cmd.add_argument("--host", default="127.0.0.1")
    cluster_serve_cmd.add_argument("--port", type=int, default=7379)
    cluster_serve_cmd.add_argument(
        "--metrics-port", type=int, default=None,
        help="expose the cluster-wide Prometheus roll-up over HTTP on "
             "this port (0 picks a free port; default: disabled)",
    )
    cluster_serve_cmd.add_argument(
        "--shards", type=int, default=4,
        help="number of shard engines (default: 4)",
    )
    cluster_serve_cmd.add_argument(
        "--scope", choices=("global", "local"), default="local",
        help="admission scope: does one stalled shard backpressure "
             "every write (global) or only its own key range (local)? "
             "(default: local)",
    )
    cluster_serve_cmd.add_argument(
        "--repair-interval", type=float, default=0.0,
        help="seconds between leader checks for quarantined runs to "
             "rebuild from a follower (default: 0, disabled; needs "
             "--replicas >= 1 to have anything to rebuild from)",
    )
    _add_admission_args(cluster_serve_cmd)
    _add_engine_args(cluster_serve_cmd)
    _add_memory_args(cluster_serve_cmd)
    _add_replication_args(cluster_serve_cmd)
    cluster_serve_cmd.set_defaults(handler=_cmd_cluster_serve)

    obs_cmd = commands.add_parser(
        "obs",
        help="observability: dump/tail lifecycle events or scrape "
             "metrics from a running server or cluster router",
    )
    obs_cmd.add_argument(
        "action", choices=("dump", "tail", "scrape"),
        help="dump: print the event ring once; tail: follow it; "
             "scrape: print the metrics snapshot as Prometheus text",
    )
    obs_cmd.add_argument("--host", default="127.0.0.1")
    obs_cmd.add_argument("--port", type=int, default=7379)
    obs_cmd.add_argument(
        "--since", type=int, default=-1,
        help="only events with a larger sequence number (default: all)",
    )
    obs_cmd.add_argument(
        "--limit", type=int, default=None,
        help="at most this many events (tail/cluster: the most recent)",
    )
    obs_cmd.add_argument(
        "--interval-ms", type=float, default=500.0,
        help="tail polling interval (default: 500)",
    )
    obs_cmd.set_defaults(handler=_cmd_obs)

    loadgen_cmd = commands.add_parser(
        "loadgen", help="drive a running server with network load"
    )
    _add_loadgen_args(loadgen_cmd)
    loadgen_cmd.set_defaults(handler=_cmd_loadgen)

    cluster_loadgen_cmd = commands.add_parser(
        "cluster-loadgen",
        help="drive a cluster router with (optionally skewed) load",
    )
    _add_loadgen_args(cluster_loadgen_cmd, default_distribution="zipf")
    cluster_loadgen_cmd.set_defaults(handler=_cmd_loadgen)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
