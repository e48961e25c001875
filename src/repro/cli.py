"""Command-line driver: run the paper's methodology without writing code.

::

    python -m repro two-phase --policy tiering --scheduler greedy
    python -m repro two-phase --target engine --scale 1024
    python -m repro compare --policy leveling
    python -m repro sweep size-ratio --policy tiering --ratios 2,4,6,10
    python -m repro sweep utilization --policy tiering --points 0.5,0.8,0.95
    python -m repro sweep partition-size --files-mib 8,64,512
    python -m repro serve /tmp/db --admission gradual
    python -m repro loadgen --port 7379 --mode open --rate 500

Every command builds the corresponding :class:`~repro.harness.ExperimentSpec`,
runs the two-phase evaluation on the scaled simulated testbed (or with
``--target engine|wire`` on the real stack), and prints the same
tables/sparklines the benchmark suite produces.
"""

from __future__ import annotations

import argparse
import re
import sys
from contextlib import contextmanager
from dataclasses import fields
from typing import Sequence, get_type_hints

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


@contextmanager
def _two_phase_target(args: argparse.Namespace, spec):
    """The spec, or a target writing 16 of its memtables' worth a phase."""
    if args.target == "sim":
        yield spec
        return
    from .harness import EngineTarget, WireTarget

    config = spec.config
    load = dict(ops=int(16 * config.memory_component_entries),
                value_bytes=int(config.entry_bytes),
                keyspace=int(config.total_keys), distribution=args.distribution)
    if args.target == "wire":
        _check_port(args.port)
        yield WireTarget(args.host, args.port, **load)
        return
    import tempfile

    from .engine import LSMStore, StoreOptions

    options = StoreOptions(  # refuses a simulator-only name before mkdtemp
        policy=args.policy, scheduler=args.scheduler,
        size_ratio=getattr(
            spec.policy_factory(), "size_ratio", StoreOptions.size_ratio
        ),
        memtable_bytes=int(config.memory_component_bytes),
        background_maintenance=True,
    )
    with tempfile.TemporaryDirectory(prefix="repro-two-phase-") as directory:
        with LSMStore.open(directory, options) as store:
            yield EngineTarget(store, **load)


def _cmd_two_phase(args: argparse.Namespace) -> int:
    from .harness import format_latency_profile, sparkline, two_phase

    spec = _spec_for(args)
    print(f"spec: {spec.name} on {args.target} (scale x{args.scale:.0f}, "
          f"utilization {args.utilization:.0%})")
    with _two_phase_target(args, spec) as target:
        outcome = two_phase(target, args.utilization)
    running, unit = outcome.running, "entries/s" if target is spec else "writes/s"
    print(f"testing phase:  max write throughput = "
          f"{outcome.max_write_throughput:.1f} {unit}")
    print(f"running phase:  arrivals = {outcome.arrival_rate:.1f} {unit}")
    if target is spec:
        print("  throughput  " + sparkline(running.throughput_series(), 60))
        print(f"  stalls: {running.stall_count()} ({running.stall_time:.0f}s)")
    else:
        print(f"  {outcome.testing.summary()}\n  {running.summary()}")
        print(f"  stalls: {running.stall_count()}, queued at the last "
              f"arrival: {running.final_queue_length}")
    print("  write latencies: " + format_latency_profile(
        running.write_latency_profile((50.0, 90.0, 99.0, 99.9))))
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
    else:  # partition-size; argparse choices allow no other axis
        sizes = [float(v) for v in args.files_mib.split(",")]
        rows = partition_size_sweep(sizes, scale=args.scale)
    print(format_table(rows))
    return 0


def _check_port(port: int) -> None:
    if not 1 <= port <= 65535:
        raise ReproError(f"port {port} is outside the valid TCP range 1-65535")


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


#: The :class:`~repro.engine.StoreOptions` fields ``serve`` and
#: ``cluster-serve`` expose, one flag each (see :func:`_add_engine_args`).
ENGINE_FLAGS = (
    "memtable_bytes", "policy", "block_codec", "scrub_interval",
    "scrub_rate_bytes_per_s", "sync_writes", "group_commit",
)


def _store_options_from(args: argparse.Namespace):
    """The engine options the :data:`ENGINE_FLAGS` flags describe.

    A served store always runs its maintenance worker: the server can shed
    its writes, and a shed write drives no inline maintenance."""
    from .engine import StoreOptions

    return StoreOptions(
        background_maintenance=True,
        **{name: getattr(args, name) for name in ENGINE_FLAGS},
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


def _announce(args, what: str, address, metrics_address, notes) -> None:
    """The banner a serving command prints once it listens."""
    if args.memory_budget is not None:
        notes.append(f"memory budget: {args.memory_budget:g} MiB")
    print(f"serving {what} on {address[0]}:{address[1]} ({', '.join(notes)})")
    if metrics_address is not None:
        print("metrics on http://%s:%d/metrics" % metrics_address)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .engine import LSMStore
    from .memory import MemoryArbiter, MemoryBudget
    from .server import KVServer

    _check_port(args.port)
    memory_budget = _memory_budget_bytes(args)
    options = _store_options_from(args)
    # Built before the store opens: a budget too small to split refuses
    # with nothing written.
    budget = None if memory_budget is None else MemoryBudget(memory_budget, 1)

    async def run() -> None:
        with LSMStore.open(args.directory, options) as store:
            arbiter = None
            if budget is not None:
                # Single-node deployment: the arbiter still earns its
                # keep by moving the write/read split with the workload.
                arbiter = MemoryArbiter(
                    budget, [store], obs=store.obs,
                    interval=args.memory_rebalance_interval,
                )
            server = KVServer(
                store,
                _admission_from(args),
                host=args.host,
                port=args.port,
                metrics_port=args.metrics_port,
                memory_arbiter=arbiter,
            )
            async with server:
                _announce(
                    args, args.directory, server.address,
                    server.metrics_address, [f"admission: {args.admission}"],
                )
                await server.serve_forever()

    return _serve_until_interrupted(run, args)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from .server.loadgen import closed_loop, open_loop

    _check_port(args.port)
    if args.mode == "open" and args.rate <= 0:
        raise ReproError(
            f"--rate must be a positive arrival rate, got {args.rate}"
        )
    if args.clients < 1:
        raise ReproError(f"--clients must be at least 1, got {args.clients}")
    if args.ops < 1:
        raise ReproError(f"--ops must be at least 1, got {args.ops}")
    common = dict(
        host=args.host,
        port=args.port,
        value_bytes=args.value_bytes,
        keyspace=args.keyspace,
        seed=args.seed,
        distribution=args.distribution,
        theta=args.theta,
    )
    if args.mode == "closed":
        run = closed_loop(
            clients=args.clients, ops_per_client=args.ops // args.clients,
            **common,
        )
    else:
        run = open_loop(rate_ops_per_s=args.rate, total_ops=args.ops, **common)
    result = asyncio.run(run)
    print(result.summary())
    return 0 if result.op_count else 1


def _cmd_cluster_serve(args: argparse.Namespace) -> int:
    from .cluster import ClusterAdmission, LocalCluster

    _check_port(args.port)
    if args.shards < 1:
        raise ReproError(f"--shards must be at least 1, got {args.shards}")
    memory_budget = _memory_budget_bytes(args)
    options = _store_options_from(args)
    admission = ClusterAdmission(
        args.scope, args.admission, args.shards, **_admission_params(args)
    )

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
            notes = [f"admission: {admission.mode}"]
            if args.replicas > 0:
                notes.append(
                    f"{args.replicas} replica(s)/shard "
                    f"under {args.ack_policy!r}"
                )
            _announce(
                args, f"{args.shards}-shard cluster from {args.directory}",
                cluster.address, cluster.router.metrics_address, notes,
            )
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


def _write_json(path: str | None, payload: dict) -> None:
    """``--json-out``: the report as indented JSON, if a path was given."""
    import json

    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, default=str)
            handle.write("\n")


def _cmd_verify(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from .engine import verify_store

    report = verify_store(args.directory)
    print(report.summary())
    _write_json(args.json_out, dict(asdict(report), clean=report.clean))
    return 0 if report.clean else 1


def _cmd_scrub(args: argparse.Namespace) -> int:
    """Run one synchronous scrub pass over a store and report it."""
    from .engine import LSMStore, StoreOptions
    from .engine.integrity import require_store

    require_store(args.directory)
    options = StoreOptions(
        block_cache_bytes=0,
        scrub_rate_bytes_per_s=args.scrub_rate_bytes_per_s,
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
    _write_json(
        args.json_out, {"scrub": summary, "quarantined": status["quarantined"]}
    )
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


def _cmd_chaos(args: argparse.Namespace) -> int:
    import asyncio

    from .faults import (
        CHAOS_OPTIONS,
        CORRUPTION_CHAOS_OPTIONS,
        run_chaos,
        run_corruption_chaos,
    )

    if args.shards < 2:
        raise ReproError(
            f"--shards must be at least 2 (one to kill, one to "
            f"survive), got {args.shards}"
        )
    options = (
        CORRUPTION_CHAOS_OPTIONS if args.corrupt_at_rest else CHAOS_OPTIONS
    )
    if args.group_commit:
        options = options.with_(sync_writes=True, group_commit=True)
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
    _write_json(args.json_out, report.to_dict())
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


def _field_docs(cls) -> dict[str, str]:
    """Each field's paragraph in a class docstring's ``Attributes``
    section, on one line and without its reST markup."""
    section = cls.__doc__.split("----------\n", 1)[1]
    paragraphs = re.findall(r"^    (\w+):\n((?:        .*\n)+)", section, re.M)
    return {
        name: " ".join(re.sub(r"(:\w+:)?`+", "", text).split())
        for name, text in paragraphs
    }


def _add_engine_args(
    parser: argparse.ArgumentParser, names: Sequence[str] = ENGINE_FLAGS
) -> None:
    """One ``--<field>`` flag per named :class:`StoreOptions` field: its
    type, its default and its docstring paragraph as the help. The
    values are checked once, by ``StoreOptions`` itself."""
    from .engine import StoreOptions

    docs = _field_docs(StoreOptions)
    types = get_type_hints(StoreOptions)
    for field in fields(StoreOptions):
        if field.name not in names:
            continue
        kind = types[field.name]
        parser.add_argument(
            "--" + field.name.replace("_", "-"),
            default=field.default,
            help=docs[field.name].replace("%", "%%")
            + " (default: %(default)s)",
            **(dict(action="store_true") if kind is bool else dict(type=kind)),
        )


def _add_memory_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--memory-budget", type=float, default=None, metavar="MIB",
        help="adaptive memory arbitration: one global budget (MiB) "
             "split between memtables and block caches and rebalanced "
             "from observed pressure (default: disabled — static "
             "--memtable-bytes sizing applies)",
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


def _add_json_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="also write the full report as JSON to this file",
    )


def _add_address(
    parser: argparse.ArgumentParser, metrics: str | None = None
) -> None:
    """``--host``/``--port``, and ``--metrics-port`` serving ``metrics``."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7379)
    if metrics is not None:
        parser.add_argument(
            "--metrics-port", type=int, default=None,
            help=f"expose {metrics} over HTTP on this port (0 picks a "
                 "free port; default: disabled)",
        )


def _add_loadgen_args(parser: argparse.ArgumentParser) -> None:
    _add_address(parser)
    parser.add_argument(
        "--mode", choices=("closed", "open"), default="closed",
        help="load shape (default: closed)",
    )
    parser.add_argument(
        "--clients", type=int, default=4,
        help="closed mode: concurrent clients (default: 4)",
    )
    parser.add_argument(
        "--ops", type=int, default=2000,
        help="total operations (default: 2000)",
    )
    parser.add_argument(
        "--rate", type=float, default=500.0,
        help="open mode: arrivals per second (default: 500)",
    )
    parser.add_argument(
        "--distribution", choices=("uniform", "zipf"), default="uniform",
        help="key popularity (default: uniform); zipf concentrates "
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
    two_phase_cmd.add_argument(
        "--target", choices=("sim", "engine", "wire"), default="sim",
        help="the simulated testbed, an LSMStore in process (temporary "
             "directory), or the server at --host/--port (default: sim)",
    )
    _add_common(two_phase_cmd)
    _add_address(two_phase_cmd)
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
    _add_json_out(verify_cmd)
    verify_cmd.set_defaults(handler=_cmd_verify)

    scrub_cmd = commands.add_parser(
        "scrub",
        help="run one synchronous integrity-scrub pass over a store's "
             "live runs; exits non-zero if anything was quarantined",
    )
    scrub_cmd.add_argument("directory", help="LSMStore data directory")
    _add_engine_args(scrub_cmd, ("scrub_rate_bytes_per_s",))
    _add_json_out(scrub_cmd)
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
    _add_json_out(chaos_cmd)
    chaos_cmd.set_defaults(handler=_cmd_chaos)

    serve_cmd = commands.add_parser(
        "serve", help="serve an LSMStore over TCP with admission control"
    )
    serve_cmd.add_argument("directory", help="LSMStore data directory")
    _add_address(serve_cmd, "Prometheus text metrics")
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
    _add_address(cluster_serve_cmd, "the cluster-wide Prometheus roll-up")
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
    _add_address(obs_cmd)
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
        "loadgen", help="drive a server or a cluster router with load"
    )
    _add_loadgen_args(loadgen_cmd)
    loadgen_cmd.set_defaults(handler=_cmd_loadgen)

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
