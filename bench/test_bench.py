"""Tests of the benchmark itself, at a tiny corpus size.

    python -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ("--users-per-topic", "20", "--seconds", "1")

# Counters a later change may quote as exact counts.
EXACT_COUNTERS = (
    "linsvm.coord_steps",
    "linsvm.dup_row_ratio",
    "linsvm.at_bound_ratio",
    "features.extract_per_tweet",
    "features.dim",
    "analysis.curves",
)


def bench(*args: str, script: Path = BENCH / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, timeout=170)


def result(workload: str, trace: int, *extra: str) -> dict:
    proc = bench("--workload", workload, "--seed", "1", "--trace", str(trace), *TINY, *extra)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def values(res: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in res["metrics"].items()}


@pytest.fixture(scope="module")
def traced() -> dict[str, tuple[dict, dict]]:
    """Two traced runs of each workload at one seed."""
    return {w: (result(w, 1), result(w, 1)) for w in WORKLOADS}


def test_spec_matches_what_the_runner_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics_are_emitted_with_units(workload):
    res = result(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in res["metrics"].items()} == expected
    assert all(v > 0 for v in values(res).values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_per_layer_metrics_are_emitted_with_units(workload, traced):
    res = traced[workload][0]
    assert res["correct"] and res["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in res["metrics"].items()} == expected


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_layer_self_times_add_up_to_traced_wall(workload, traced):
    metrics = values(traced[workload][0])
    layers = [metrics[name] for name in run.SPAN_METRICS if name != run.SETUP_SPAN]
    assert min(layers) >= -1e-9 and metrics["cli.self_s"] >= 0
    assert sum(layers) + metrics["cli.self_s"] == pytest.approx(metrics["trace.wall_s"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_exact_counters_repeat(workload, traced):
    first, second = (values(r) for r in traced[workload])
    assert {k: first[k] for k in EXACT_COUNTERS} == {k: second[k] for k in EXACT_COUNTERS}


def test_matrix_counters_show_the_repeated_work(traced):
    metrics = values(traced["matrix"][0])
    assert metrics["cli.cells"] == 16
    assert metrics["features.extract_per_tweet"] == 16
    assert 0 < metrics["linsvm.dup_row_ratio"] < 1
    assert metrics["analysis.curves"] > 0


def test_failing_cells_are_counted_not_crashed():
    # No FAVOR users: every cell raises while fitting. One repetition only.
    res = result("matrix", 0, "--prior", "1,0,0", "--seconds", "0")
    assert res["attempted"] == 16 and res["failed"] == 16
    assert res["correct"] is False


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0",
                 script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, -1, "a", 0.0, 10.0),
        (1, 0, "b", 2.0, 5.0),
        (2, 1, "a", 3.0, 4.0),
        (3, 0, "c", 6.0, 7.0),
    ]
    assert run.self_times(spans) == {"a": 6.0 + 1.0, "b": 2.0, "c": 1.0}


def test_saturated_cell_fails_the_check(tmp_path):
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "test.tsv").write_text("ID\tTarget\tTweet\tStance\n")
    root = tmp_path / "experiment"
    root.mkdir()
    (root / "master.csv").write_text(
        "selector,mode,status,f_avg[alpha],f_favor,f_against,f_avg,collapsed_classes\n"
        "IN_AT,ternary,ok,1.0000,1.0000,1.0000,1.0000,\n"
    )
    outcome = WORKLOADS["matrix"](None, None).check(tmp_path, tmp_path, [0])
    assert any("saturates" in p for p in outcome.problems)
