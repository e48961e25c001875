"""Tests for the ``python -m repro`` command-line driver."""

import json
import os
import signal
import socket
import subprocess
import sys
from dataclasses import fields

import pytest

from repro.cli import (
    ENGINE_FLAGS,
    _field_docs,
    _store_options_from,
    build_parser,
    main,
)
from repro.engine import StoreOptions


@pytest.fixture
def fast(monkeypatch):
    """Shrink phase durations so CLI tests stay quick."""
    import repro.harness.spec as spec_module

    monkeypatch.setattr(spec_module, "TESTING_DURATION", 1800.0)
    monkeypatch.setattr(spec_module, "RUNNING_DURATION", 1800.0)
    monkeypatch.setattr(spec_module, "WARMUP", 300.0)


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_two_phase_defaults(self):
        args = build_parser().parse_args(["two-phase"])
        assert args.target == "sim"
        assert args.policy == "tiering"
        assert args.scheduler == "greedy"
        assert args.utilization == 0.95

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["two-phase", "--policy", "btree"])

    def test_sweep_axes(self):
        args = build_parser().parse_args(["sweep", "size-ratio"])
        assert args.axis == "size-ratio"

    def test_policy_choices_are_the_factory_names(self, tmp_path, capsys):
        from repro.core.factory import POLICIES
        from repro.engine.options import ENGINE_POLICIES

        parser = build_parser()
        for name in POLICIES:
            assert parser.parse_args(["two-phase", "--policy", name]).policy == name
        for name in ENGINE_POLICIES:
            args = parser.parse_args(["serve", "db", "--policy", name])
            assert _store_options_from(args).policy == name
        # The engine flags carry no choices: StoreOptions refuses the
        # name before the store opens.
        directory = tmp_path / "db"
        assert main(["serve", str(directory), "--policy", "partitioned"]) == 2
        assert "runs only in the simulator" in capsys.readouterr().err
        assert not directory.exists()

    def test_non_numeric_size_ratio_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["two-phase", "--size-ratio", "abc"])
        assert exit_info.value.code == 2
        assert "--size-ratio" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["tiering", "lazy-leveling"])
    def test_fractional_tiered_ratio_exits_2(self, policy, capsys):
        code = main(["two-phase", "--policy", policy, "--size-ratio", "2.5"])
        assert code == 2
        assert "whole size ratio" in capsys.readouterr().err

    def test_unknown_scheduler_exits_2(self, capsys):
        code = main(["two-phase", "--scheduler", "lottery", "--scale", "512"])
        assert code == 2
        assert "unknown scheduler 'lottery'" in capsys.readouterr().err


class TestCommands:
    def test_two_phase_runs(self, fast, capsys):
        code = main(["two-phase", "--policy", "tiering", "--scale", "512"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max write throughput" in out
        assert "sustainable" in out

    def test_two_phase_engine_target(self, capsys):
        code = main(["two-phase", "--target", "engine", "--scale", "4096"])
        assert code == 0
        out = capsys.readouterr().out
        assert "on engine" in out
        # 16 memory components of 32 KiB, in 1 KiB writes, per phase.
        assert "testing: 512 ops" in out and "running: 512 ops" in out
        assert "sustainable: " in out

    def test_two_phase_lazy_leveling(self, fast, capsys):
        code = main(["two-phase", "--policy", "lazy-leveling",
                     "--scale", "512"])
        assert code == 0
        assert "lazy-leveling" in capsys.readouterr().out

    def test_compare_runs(self, fast, capsys):
        code = main([
            "compare", "--policy", "tiering", "--scale", "512",
            "--schedulers", "fair,greedy",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fair" in out and "greedy" in out

    def test_sweep_utilization(self, fast, capsys):
        code = main([
            "sweep", "utilization", "--policy", "tiering", "--scale", "512",
            "--points", "0.6,0.9",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.600" in out and "0.900" in out

    def test_sweep_size_ratio(self, fast, capsys):
        code = main([
            "sweep", "size-ratio", "--policy", "tiering", "--scale", "512",
            "--ratios", "2,3",
        ])
        assert code == 0
        assert "max_throughput" in capsys.readouterr().out

    def test_sweep_partition_size(self, fast, capsys):
        code = main([
            "sweep", "partition-size", "--scale", "512",
            "--files-mib", "64,512",
        ])
        assert code == 0
        assert "file_mib" in capsys.readouterr().out

    def test_testing_fix_flag(self, fast, capsys):
        code = main([
            "two-phase", "--policy", "size-tiered", "--testing-fix",
            "--scale", "512",
        ])
        assert code == 0
        assert "sustainable: yes" in capsys.readouterr().out


class TestVerifyCommand:
    def test_clean_store_exits_zero(self, tmp_path, capsys):
        from repro.engine import LSMStore, StoreOptions

        with LSMStore.open(
            str(tmp_path / "db"), StoreOptions(memtable_bytes=16 * 1024)
        ) as store:
            for i in range(500):
                store.put(f"k{i:05d}".encode(), b"v")
        assert main(["verify", str(tmp_path / "db")]) == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_corrupt_store_exits_nonzero(self, tmp_path, capsys):
        import os

        from repro.engine import LSMStore, StoreOptions

        with LSMStore.open(
            str(tmp_path / "db"), StoreOptions(memtable_bytes=16 * 1024)
        ) as store:
            for i in range(2000):
                store.put(f"k{i:05d}".encode(), b"v" * 64)
        runs = [
            f for f in os.listdir(tmp_path / "db") if f.endswith(".run")
        ]
        victim = tmp_path / "db" / runs[0]
        blob = bytearray(victim.read_bytes())
        blob[30] ^= 0xFF
        victim.write_bytes(bytes(blob))
        assert main(["verify", str(tmp_path / "db")]) == 1
        assert "PROBLEM" in capsys.readouterr().out


    def test_json_out_carries_the_full_report(self, tmp_path, capsys):
        import json

        from repro.engine import LSMStore, StoreOptions

        with LSMStore.open(
            str(tmp_path / "db"), StoreOptions(memtable_bytes=16 * 1024)
        ) as store:
            for i in range(500):
                store.put(f"k{i:05d}".encode(), b"v")
        out_path = tmp_path / "report.json"
        assert main(
            ["verify", str(tmp_path / "db"), "--json-out", str(out_path)]
        ) == 0
        payload = json.loads(out_path.read_text())
        assert payload["clean"] is True
        assert payload["runs_checked"] >= 0
        assert payload["wal_state"] in ("clean", "torn", "corrupt")
        assert payload["quarantined_runs"] == []


class TestScrubCommand:
    def _build(self, tmp_path):
        from repro.engine import LSMStore, StoreOptions

        with LSMStore.open(
            str(tmp_path / "db"), StoreOptions(memtable_bytes=16 * 1024)
        ) as store:
            for i in range(500):
                store.put(f"k{i:05d}".encode(), b"v" * 32)
            store.flush()

    def test_clean_store_exits_zero(self, tmp_path, capsys):
        self._build(tmp_path)
        assert main(["scrub", str(tmp_path / "db")]) == 0
        assert "quarantined: 0" not in capsys.readouterr().err

    def test_corrupt_store_exits_nonzero_and_reports(
        self, tmp_path, capsys
    ):
        import json
        import os

        self._build(tmp_path)
        runs = [
            f for f in os.listdir(tmp_path / "db") if f.endswith(".run")
        ]
        victim = tmp_path / "db" / runs[0]
        blob = bytearray(victim.read_bytes())
        blob[16] ^= 0xFF
        victim.write_bytes(bytes(blob))
        out_path = tmp_path / "scrub.json"
        code = main(
            ["scrub", str(tmp_path / "db"), "--json-out", str(out_path)]
        )
        assert code == 1
        assert "quarantined" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["quarantined"]
        assert payload["scrub"]["passes_completed"] >= 1


class TestCorruptAtRestParser:
    def test_flag_defaults(self):
        args = build_parser().parse_args(
            ["chaos", "/tmp/scratch", "--corrupt-at-rest"]
        )
        assert args.corrupt_at_rest is True
        assert args.replicas >= 0

    def test_requires_a_replica(self, tmp_path):
        assert main(
            [
                "chaos", str(tmp_path), "--corrupt-at-rest",
                "--replicas", "0",
            ]
        ) == 2


class TestCrashsimCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["crashsim", "/tmp/scratch"])
        assert args.ops == 500
        assert args.seed == 0

    def test_tiny_ops_rejected(self, tmp_path):
        assert main(["crashsim", str(tmp_path), "--ops", "1"]) == 2

    def test_short_run_exits_zero(self, tmp_path, capsys):
        code = main(
            ["crashsim", str(tmp_path), "--ops", "30", "--seed", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "failures: 0" in out
        # 6 injected-fault scenarios + 8 compressed-block corruption
        # positions, every one expected to fire.
        assert "injected faults fired: 14" in out


class TestChaosParser:
    def test_defaults(self):
        args = build_parser().parse_args(["chaos", "/tmp/scratch"])
        assert args.shards == 3
        assert args.ops == 300
        assert args.kill_shard == 0
        assert args.cooldown_ms == pytest.approx(250.0)

    def test_single_shard_rejected(self, tmp_path):
        assert main(["chaos", str(tmp_path), "--shards", "1"]) == 2

    def test_kill_shard_must_exist(self, tmp_path):
        assert main(
            ["chaos", str(tmp_path), "--shards", "2", "--kill-shard", "5"]
        ) == 2


class TestServeAndLoadgenParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "/tmp/db"])
        assert args.admission == "none"
        assert args.port == 7379
        # The server can shed writes, so the store runs its own workers.
        assert _store_options_from(args).background_maintenance

    def test_a_served_store_that_scrubs_has_workers(self):
        args = build_parser().parse_args(
            ["serve", "/tmp/db", "--scrub-interval", "1"]
        )
        options = _store_options_from(args)
        assert options.scrub_interval == 1.0
        assert options.background_maintenance

    def test_serve_admission_modes(self):
        for mode in ("none", "stop", "limit", "gradual"):
            args = build_parser().parse_args(
                ["serve", "/tmp/db", "--admission", mode]
            )
            assert args.admission == mode
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "/tmp/db", "--admission", "panic"]
            )

    @pytest.mark.parametrize(
        "command",
        [
            ["serve", "/tmp/db"],
            ["cluster-serve", "/tmp/db"],
            ["loadgen"],
        ],
    )
    def test_there_is_no_wire_flag(self, command):
        build_parser().parse_args(command)
        with pytest.raises(SystemExit):
            build_parser().parse_args([*command, "--wire", "binary"])

    def test_loadgen_runs_a_closed_loop_by_default(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.mode == "closed"
        assert not hasattr(args, "utilization")

    def test_loadgen_has_no_two_phase_mode(self, capsys):
        """The two phases over the wire are `two-phase --target wire`."""
        with pytest.raises(SystemExit) as exit_info:
            main(["loadgen", "--mode", "two-phase"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'two-phase'" in capsys.readouterr().err

    def test_admission_factory_wiring(self):
        from repro.cli import _admission_from

        args = build_parser().parse_args(
            ["serve", "/tmp/db", "--admission", "gradual",
             "--retry-after-ms", "30", "--threshold", "0.6"]
        )
        controller = _admission_from(args)
        assert controller.mode == "gradual"
        assert controller.retry_after == pytest.approx(0.03)
        # slowing starts once 60% of the budget is used: headroom 0.4
        assert controller.decide(0.41, 0.0, 10).action == "admit"
        assert controller.decide(0.39, 0.0, 10).action == "delay"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "/tmp/db", "--max-delay-ms", "30"]
            )

    def test_loadgen_against_live_server(self, live_server, capsys):
        host, port = live_server
        code = main([
            "loadgen", "--host", host, "--port", str(port),
            "--mode", "closed", "--clients", "2", "--ops", "60",
            "--value-bytes", "32",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "60 ops" in out and "0 errors" in out

    def test_two_phase_against_live_server(self, live_server, capsys):
        host, port = live_server
        code = main([
            "two-phase", "--target", "wire", "--host", host,
            "--port", str(port), "--scale", "8192",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # 16 memory components of 16 KiB, in 1 KiB writes, per phase.
        assert "testing: 256 ops" in out and "running: 256 ops" in out
        assert "sustainable: " in out


@pytest.fixture
def live_server(tmp_path):
    """A KVServer on a thread of its own; yields its (host, port)."""
    import asyncio
    import threading

    from repro.engine import LSMStore
    from repro.server import KVServer

    store = LSMStore.open(
        str(tmp_path / "db"),
        StoreOptions(memtable_bytes=16 * 1024, background_maintenance=False),
    )
    loop = asyncio.new_event_loop()
    server = KVServer(store)
    started = threading.Event()
    shared = {}

    async def boot():
        shared["hp"] = await server.start()
        shared["task"] = asyncio.current_task()
        started.set()
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.aclose()

    thread = threading.Thread(
        target=lambda: loop.run_until_complete(boot()), daemon=True
    )
    thread.start()
    assert started.wait(5.0)
    try:
        yield shared["hp"]
    finally:
        loop.call_soon_threadsafe(shared["task"].cancel)
        thread.join(5.0)
        loop.close()
        store.close()


class TestClusterParsersAndValidation:
    def test_cluster_serve_defaults(self):
        args = build_parser().parse_args(["cluster-serve", "/tmp/db"])
        assert args.port == 7379
        assert args.shards == 4
        assert args.scope == "local"
        assert args.admission == "none"
        assert _store_options_from(args).background_maintenance

    def test_loadgen_defaults_to_uniform(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.distribution == "uniform"

    def test_unknown_scope_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cluster-serve", "/tmp/db", "--scope", "galactic"]
            )

    def test_unknown_arbiter_rejected(self):
        """Shards run their own workers: there is no shared-budget
        arbiter, no pump budget, and no flag to turn the workers off."""
        for flag in (["--arbiter", "fair"], ["--pump-budget", "4"],
                     ["--background"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["cluster-serve", "/tmp/db", *flag])

    def test_unknown_distribution_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["loadgen", "--distribution", "pareto"]
            )

    def test_serve_bad_port_exits_with_message(self, capsys):
        code = main(["serve", "/tmp/db", "--port", "70000"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "70000" in err

    def test_cluster_serve_bad_port_exits_with_message(self, capsys):
        code = main(["cluster-serve", "/tmp/db", "--port", "0"])
        assert code == 2
        assert "valid TCP range" in capsys.readouterr().err

    def test_cluster_serve_bad_shards_exits_with_message(self, capsys):
        code = main(["cluster-serve", "/tmp/db", "--shards", "0"])
        assert code == 2
        assert "--shards" in capsys.readouterr().err

    def test_memory_budget_defaults_disabled(self):
        assert build_parser().parse_args(
            ["serve", "/tmp/db"]
        ).memory_budget is None
        args = build_parser().parse_args(["cluster-serve", "/tmp/db"])
        assert args.memory_budget is None
        assert args.memory_rebalance_interval == 1.0

    def test_serve_non_positive_memory_budget_exits_with_message(
        self, capsys
    ):
        code = main(["serve", "/tmp/db", "--memory-budget", "0"])
        assert code == 2
        assert "--memory-budget" in capsys.readouterr().err
        code = main(["serve", "/tmp/db", "--memory-budget", "-8"])
        assert code == 2
        assert "--memory-budget" in capsys.readouterr().err

    def test_cluster_serve_non_positive_memory_budget_exits(self, capsys):
        code = main(["cluster-serve", "/tmp/db", "--memory-budget", "-1"])
        assert code == 2
        assert "--memory-budget" in capsys.readouterr().err

    def test_non_positive_rebalance_interval_exits(self, capsys):
        code = main([
            "serve", "/tmp/db", "--memory-budget", "8",
            "--memory-rebalance-interval", "0",
        ])
        assert code == 2
        assert "--memory-rebalance-interval" in capsys.readouterr().err

    def test_loadgen_negative_rate_exits_with_message(self, capsys):
        code = main([
            "loadgen", "--mode", "open", "--rate", "-5",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--rate" in err

    def test_loadgen_zero_clients_exits_with_message(self, capsys):
        code = main(["loadgen", "--mode", "closed", "--clients", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_loadgen_zero_ops_exits_with_message(self, capsys):
        code = main(["loadgen", "--mode", "closed", "--ops", "0"])
        assert code == 2
        assert "--ops" in capsys.readouterr().err


class TestEngineFlags:
    """``serve``/``cluster-serve`` engine flags are StoreOptions fields."""

    def test_every_store_option_has_a_docstring_paragraph(self):
        docs = _field_docs(StoreOptions)
        assert list(docs) == [field.name for field in fields(StoreOptions)]
        assert all(docs.values())
        assert "``" not in docs["block_codec"]

    @pytest.mark.parametrize(
        "command, names",
        [
            (["serve", "db"], ENGINE_FLAGS),
            (["cluster-serve", "db"], ENGINE_FLAGS),
            (["scrub", "db"], ("scrub_rate_bytes_per_s",)),
        ],
    )
    def test_every_flag_defaults_to_its_field(self, command, names):
        args = vars(build_parser().parse_args(command))
        exposed = {
            field.name: field.default
            for field in fields(StoreOptions)
            if field.name in args
        }
        assert exposed == {
            field.name: field.default
            for field in fields(StoreOptions)
            if field.name in names
        }
        assert {name: args[name] for name in exposed} == exposed

    def test_seven_values_and_their_renames(self):
        assert len(ENGINE_FLAGS) == 7
        args = build_parser().parse_args([
            "serve", "db", "--memtable-bytes", "104857", "--policy",
            "leveling", "--block-codec", "zlib", "--scrub-interval", "0.5",
            "--scrub-rate-bytes-per-s", "1024", "--sync-writes",
            "--group-commit",
        ])
        assert _store_options_from(args) == StoreOptions(
            memtable_bytes=104857,
            policy="leveling",
            block_codec="zlib",
            background_maintenance=True,
            scrub_interval=0.5,
            scrub_rate_bytes_per_s=1024,
            sync_writes=True,
            group_commit=True,
        )
        for gone in (["--memtable-mib", "4"], ["--engine-policy", "tiering"],
                     ["--scrub-rate-mib", "1"],
                     ["--maintenance-threads", "1"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", "db", *gone])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster-loadgen"])


#: A value the command line refuses, and a piece of its one error line.
#: ``{dir}`` is a directory under ``tmp_path`` that must not exist after.
REFUSED = [
    (["two-phase", "--size-ratio", "2.5"], "whole size ratio"),
    (["two-phase", "--scheduler", "lottery"], "unknown scheduler"),
    (["two-phase", "--target", "engine", "--policy", "partitioned"],
     "only in the simulator"),
    (["two-phase", "--target", "wire", "--port", "70000"], "70000"),
    (["verify", "{dir}"], "no store"),
    (["scrub", "{dir}"], "no store"),
    (["crashsim", "{dir}", "--ops", "1"], "--ops"),
    (["serve", "{dir}", "--port", "70000"], "70000"),
    (["serve", "{dir}", "--memory-budget", "0"], "--memory-budget"),
    (["serve", "{dir}", "--memory-budget", "-8"], "--memory-budget"),
    (["serve", "{dir}", "--memory-budget", "0.01"], "memtable floor"),
    (["serve", "{dir}", "--memory-budget", "8",
      "--memory-rebalance-interval", "0"], "--memory-rebalance-interval"),
    (["serve", "{dir}", "--memtable-bytes", "100"], "implausibly small"),
    (["serve", "{dir}", "--policy", "partitioned"], "only in the simulator"),
    (["serve", "{dir}", "--block-codec", "lz9"], "unknown block codec"),
    (["serve", "{dir}", "--scrub-interval", "-1"], "scrub interval"),
    (["serve", "{dir}", "--scrub-rate-bytes-per-s", "-1"], "scrub rate"),
    (["cluster-serve", "{dir}", "--port", "0"], "valid TCP range"),
    (["cluster-serve", "{dir}", "--shards", "0"], "--shards"),
    (["cluster-serve", "{dir}", "--memory-budget", "-1"], "--memory-budget"),
    (["cluster-serve", "{dir}", "--memory-budget", "0.01"], "memtable floor"),
    (["cluster-serve", "{dir}", "--replicas", "-1"], "negative"),
    (["cluster-serve", "{dir}", "--read-from-replica"], "replica"),
    (["cluster-serve", "{dir}", "--repair-interval", "-1"], "negative"),
    (["chaos", "{dir}", "--shards", "1"], "--shards"),
    (["chaos", "{dir}", "--shards", "2", "--kill-shard", "5"], "shard 5"),
    (["chaos", "{dir}", "--corrupt-at-rest", "--replicas", "1",
      "--shards", "2", "--kill-shard", "5"], "no such shard 5"),
    (["chaos", "{dir}", "--corrupt-at-rest", "--replicas", "0"],
     "replicas >= 1"),
    (["chaos", "{dir}", "--replicas", "-1"], "negative"),
    (["chaos", "{dir}", "--read-from-replica"], "replica"),
    (["chaos", "{dir}", "--kill-at", "0.7"], "kill_at < restore_at"),
    (["loadgen", "--port", "70000"], "70000"),
    (["loadgen", "--mode", "open", "--rate", "-5"], "--rate"),
    (["loadgen", "--mode", "closed", "--clients", "0"], "--clients"),
    (["loadgen", "--mode", "closed", "--ops", "0"], "--ops"),
    (["obs", "dump", "--port", "0"], "valid TCP range"),
]


@pytest.mark.parametrize(
    "command, message", REFUSED, ids=[" ".join(row[0]) for row in REFUSED]
)
def test_a_refused_value_exits_2_and_leaves_nothing(
    command, message, tmp_path, capsys
):
    directory = tmp_path / "db"
    argv = [part.replace("{dir}", str(directory)) for part in command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert message in err
    assert not directory.exists()


@pytest.mark.parametrize("command", ["verify", "scrub"])
def test_an_audit_of_a_directory_without_a_store_writes_nothing(
    command, tmp_path, capsys
):
    (tmp_path / "notes.txt").write_text("not a store")
    assert main([command, str(tmp_path)]) == 2
    assert "no store" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["notes.txt"]


class TestSigterm:
    """``kill`` must be a clean shutdown: from the replication restart
    work on, an unclean one costs every follower a full resync."""

    @staticmethod
    def free_port():
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            return probe.getsockname()[1]

    def serve_and_kill(self, tmp_path, *command):
        """Run a serving command until it is up, SIGTERM it; its output."""
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONUNBUFFERED="1")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *command,
             "--port", str(self.free_port())],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=str(tmp_path),
        )
        try:
            banner = process.stdout.readline()
            assert banner.startswith("serving "), banner
            process.send_signal(signal.SIGTERM)
            rest, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        assert process.returncode == 0, rest
        assert "shutting down" in rest
        assert "Traceback" not in rest
        return banner + rest

    @staticmethod
    def closed_cleanly(directory):
        """Only ``close()`` writes a log position into the manifest."""
        with open(directory / "MANIFEST", encoding="utf-8") as manifest:
            last = json.loads(manifest.read().strip().splitlines()[-1])
        return last["op"] == "position" and last["lineage"] is not None

    def test_serve_closes_the_store_on_sigterm(self, tmp_path):
        self.serve_and_kill(tmp_path, "serve", str(tmp_path / "db"))
        assert self.closed_cleanly(tmp_path / "db")

    def test_cluster_serve_closes_every_store_on_sigterm(self, tmp_path):
        self.serve_and_kill(
            tmp_path, "cluster-serve", str(tmp_path / "cluster"),
            "--shards", "2", "--replicas", "1",
        )
        stores = sorted(path.name for path in (tmp_path / "cluster").iterdir())
        assert stores == [
            "replica-00-0", "replica-01-0", "shard-00", "shard-01",
        ]
        for name in stores:
            assert self.closed_cleanly(tmp_path / "cluster" / name), name
