"""``tools/pairs.py``: the arithmetic of a paired-runs report, on canned
results — and on BENCH_25.json's own pairs, whose numbers it must give
back."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location(
        "pairs", ROOT / "tools" / "pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_line(setup_s, rss, correct=True, failed=0):
    metrics = {"setup_s": setup_s, "peak_rss_mb": rss}
    return {
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {name: {"value": v} for name, v in metrics.items()},
    }


BENCHMARK = {
    "end_to_end": [
        {"name": "setup_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.2},
    ]
}


def test_quartiles_and_seed_ranges():
    pairs = _load()
    assert pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == [2.0, 3.0, 4.0]
    assert pairs.quartiles([7.0]) == [7.0, 7.0, 7.0]
    assert pairs._seeds("911-913") == [911, 912, 913]
    assert pairs._seeds("7") == [7]


def test_a_metric_is_summarised_pair_by_pair():
    pairs = _load()
    rows = [[1, 1.0, 0.8], [2, 1.2, 1.3], [3, 1.1, 0.9], [4, 1.0, 1.0]]
    summary = pairs.summarise(rows, 0.25, "lower")
    assert summary["change_lower"] == 2 and summary["change_higher"] == 1
    assert summary["parent_q1_med_q3"] == [1.0, 1.05, 1.125]
    assert summary["change_q1_med_q3"] == [0.875, 0.95, 1.075]
    assert summary["median_delta"] == round((0.95 - 1.05) / 1.05, 4)
    assert summary["inside_bound"] and not summary["equal_to_3_digits"]
    # 30% worse where lower is better is outside a 25% bound; the same
    # numbers where higher is better are a gain.
    worse = [[1, 1.0, 1.3], [2, 1.0, 1.3]]
    assert not pairs.summarise(worse, 0.25, "lower")["inside_bound"]
    assert pairs.summarise(worse, 0.25, "higher")["inside_bound"]
    same = [[1, 1.0001, 1.0002]]
    assert pairs.summarise(same, 0.05, "lower")["equal_to_3_digits"]


def test_a_spread_wider_than_the_bound_is_unresolved():
    pairs = _load()
    # Parent quartiles 0.9 / 1.0 / 1.1: a spread of 20% of the median.
    parent = [0.8, 0.9, 0.9, 1.0, 1.0, 1.1, 1.1, 1.2]
    rows = [[i, p, 1.0] for i, p in enumerate(parent)]
    assert pairs.quartiles(parent) == pytest.approx([0.9, 1.0, 1.1])
    assert pairs.summarise(rows, 0.25, "lower")["unresolved"] is False
    wide = pairs.summarise(rows, 0.1, "lower")
    # Inside the bound by its median, and still not a finding.
    assert wide["inside_bound"] and wide["unresolved"]
    # Unless every change run beats every parent run.
    beaten = [[i, p, 0.7] for i, p in enumerate(parent)]
    assert not pairs.summarise(beaten, 0.1, "lower")["unresolved"]
    assert pairs.summarise(beaten, 0.1, "higher")["unresolved"]


@pytest.mark.parametrize(
    "change, met",
    [
        # 10/10 lower, median 20% lower, far beyond the parent's spread.
        ([0.8] * 10, True),
        # Only 8 of 10 lower.
        ([0.8] * 8 + [1.1] * 2, False),
        # 10/10 lower but by 5%: short of the predicted 12%.
        ([0.95] * 10, False),
    ],
)
def test_a_claim_needs_wins_size_and_more_than_the_spread(change, met):
    pairs = _load()
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    rows = [[i, p, c] for i, (p, c) in enumerate(zip(parent, change))]
    claim = {"workload": "w", "metric": "setup_s", "min_delta": 0.12}
    verdict = pairs.verdict(claim, rows, "lower")
    assert verdict["met"] is met
    assert verdict["of"] == 10
    assert verdict["parent_iqr"] == 0.015
    # A spread wider than the gain fails a claim that is otherwise met.
    noisy = [[i, p, 0.8] for i, p in enumerate([0.9, 1.0, 1.5, 2.0] * 3)]
    assert not pairs.verdict(claim, noisy, "lower")["met"]


def test_a_report_covers_every_workload_metric_and_claim():
    pairs = _load()
    runs = {
        "engine-mixed": [
            {
                "seed": seed,
                "parent": _bench_line(0.5 + seed / 100, 60.0),
                "change": _bench_line(0.4 + seed / 100, 60.0),
            }
            for seed in range(1, 11)
        ]
    }
    claim = {"workload": "engine-mixed", "metric": "setup_s", "min_delta": 0.1}
    predict = {"claims": [claim]}
    report = pairs.report(runs, BENCHMARK, predict)
    section = report["untraced"]["engine-mixed"]
    assert section["attempted"] == {"parent": 1000, "change": 1000}
    assert section["failed"] == {"parent": 0, "change": 0}
    assert section["correct"] == {"parent": True, "change": True}
    assert section["peak_rss_mb"]["equal_to_3_digits"]
    assert [seed for seed, _, _ in section["setup_s"]["pairs"]] == list(
        range(1, 11)
    )
    [claim] = report["claims"]
    assert claim["change_lower"] == 10 and claim["met"]


def _ledger_line(probes, get_us):
    metrics = {
        "engine.sstable.runs_probed_per_get": probes,
        "engine.sstable.get_us": get_us,
    }
    return {
        "correct": True,
        "attempted": 50,
        "failed": 0,
        "metrics": {name: {"value": v} for name, v in metrics.items()},
    }


def test_traced_runs_give_each_ledger_metric_a_median_per_side():
    pairs = _load()
    runs = {
        "wire-read": [
            {
                "seed": seed,
                "parent": _bench_line(0.5, 60.0),
                "change": _bench_line(0.5, 60.0),
                "traced": {
                    "seed": seed,
                    "parent": _ledger_line(1.0, 16.0 + seed),
                    "change": _ledger_line(0.4 + seed / 100, 24.0 - seed),
                },
            }
            for seed in range(1, 6)
        ]
    }
    report = pairs.report(runs, BENCHMARK, {"claims": []})
    traced = report["traced"]["wire-read"]
    assert traced["attempted"] == {"parent": 250, "change": 250}
    assert traced["correct"] == {"parent": True, "change": True}
    assert traced["engine.sstable.runs_probed_per_get"] == {
        "parent_median": 1.0,
        "change_median": 0.43,
        "change_lower": 5,
        "change_higher": 0,
        "of": 5,
        "pairs": [
            [seed, 1.0, round(0.4 + seed / 100, 4)] for seed in range(1, 6)
        ],
    }
    # Parent 17..21, change 23..19: higher in three pairs, equal in one
    # (20 and 20), lower in the last; medians 19 and 21.
    get_us = traced["engine.sstable.get_us"]
    assert (get_us["parent_median"], get_us["change_median"]) == (19.0, 21.0)
    assert (get_us["change_higher"], get_us["change_lower"]) == (3, 1)
    # Untraced runs make no such section.
    for run in runs["wire-read"]:
        del run["traced"]
    assert "traced" not in pairs.report(runs, BENCHMARK, {"claims": []})


def test_a_claim_on_a_workload_not_run_is_refused_before_any_run(
    tmp_path, capsys
):
    pairs = _load()
    predict = tmp_path / "predict.json"
    predict.write_text(json.dumps(
        {"claims": [{"workload": "wire-read", "metric": "read_amp"}]}
    ))
    with pytest.raises(SystemExit) as exit_info:
        pairs.main([
            "--parent", "HEAD", "--workload", "engine-mixed", "--seeds", "1",
            "--predict", str(predict), "--scratch", str(tmp_path / "s"),
        ])
    assert exit_info.value.code == 2
    assert "wire-read" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_bench_25s_own_pairs_give_back_its_numbers():
    pairs = _load()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    recorded = json.loads((ROOT / "BENCH_25.json").read_text())
    for metric in benchmark["end_to_end"]:
        for section in recorded["untraced"].values():
            stored = section[metric["name"]]
            fresh = pairs.summarise(
                stored["pairs"], metric["bound"], metric["better"]
            )
            # BENCH_25 predates the "unresolved" field.
            assert {key: fresh[key] for key in stored} == stored
    claim = recorded["claim"]
    verdict = pairs.verdict(
        {**claim, "min_delta": 0.2},
        recorded["untraced"][claim["workload"]][claim["metric"]]["pairs"],
        "lower",
    )
    for key in ("change_lower", "parent_median", "change_median",
                "median_delta", "parent_iqr", "met"):
        assert verdict[key] == claim[key]


def test_the_change_clone_drops_files_deleted_staged_or_not(tmp_path):
    pairs = _load()
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=repo, check=True, capture_output=True,
        )

    git("init", "-q")
    for name in ("a", "b", "c"):
        (repo / name).write_text(name)
    git("add", "a", "b", "c")
    git("commit", "-q", "-m", "three files")
    git("rm", "-q", "b")
    (repo / "a").unlink()
    (repo / "c").write_text("changed")
    parent, change = pairs.clone_pair("HEAD", tmp_path / "scratch", repo)
    assert sorted(p.name for p in parent.iterdir() if p.name != ".git") == [
        "a", "b", "c"
    ]
    assert sorted(p.name for p in change.iterdir() if p.name != ".git") == [
        "c"
    ]
    assert (change / "c").read_text() == "changed"
