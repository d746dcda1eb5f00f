"""Every workload runs end to end at a tiny size; the traced run yields every
per-layer metric; the command refuses to run without the package source."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import nearbeam as nb
import tracing
import workloads
from conftest import BENCH

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = workloads.Sizes(paper_antennas=32, round_samples=20, checked_per_round=2,
                       desk_checked=5, desk_antennas=16, desk_samples=200,
                       conv_channels=(8, 16), fc_widths=(32, 32, 32), users=40,
                       warmup_users=5, warmup_samples=3, warmup_desk_samples=20,
                       setups=3, trained_setups=2)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_at_tiny_size(name, tmp_path):
    run = workloads.WORKLOADS[name](3, 0.01, TINY, tmp_path)
    # two desk heads trained for two epochs on 160 samples need not beat the
    # uniform predictor; every other check must pass
    problems = [p for p in run.problems if "not below uniform" not in p]
    assert problems == []
    assert run.failed == 0 and run.selections >= TINY.users and run.epochs >= 4
    for metric in SPEC["end_to_end"]:
        assert run.metrics[metric["name"]] > 0, metric["name"]
    assert list(tmp_path.iterdir()) == []


def test_select_gains_repeat_across_seeds(tmp_path):
    first = workloads.select_desk(5, 0.01, TINY, tmp_path).metrics
    again = workloads.select_desk(6, 0.01, TINY, tmp_path).metrics
    assert first["g_n_improved"] == again["g_n_improved"]
    assert first["g_n_original"] == again["g_n_original"]


def test_traced_run_reports_every_layer_metric(tmp_path):
    original_measure = nb.schemes.measure
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert nb.schemes.measure is not original_measure
        run = workloads.select_desk(1, 0.01, TINY, tmp_path)
    finally:
        tracer.uninstall()
    assert nb.schemes.measure is original_measure
    stats = tracing.SpanStats(tracer.spans)
    values = tracing.layer_metrics(stats, run)
    # the tracing overhead compares two runs and is added by run.py
    assert sorted([*values, "trace.overhead_pct"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert values["measurement.measure_calls"] == TINY.desk_antennas // 4
    assert values["net.forward_calls_per_selection"] == 2
    assert stats.count("measurement.measure", under="schemes.improved_scheme") == \
        10 * stats.count("schemes.improved_scheme")
    assert all(s[0] != "NetworkModel.forward_train" or s[3] >= 0 for s in tracer.spans)
    assert min(stats.self_time) > -1e-9
    tracer.write(tmp_path / "spans.jsonl")
    assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == len(tracer.spans)


def test_flop_and_weight_counts_of_the_desk_network():
    model = nb.net.build_model(16, 64, np.random.default_rng(0), pool_target=4)
    assert tracing.train_flops_per_sample(model) / 1e6 == pytest.approx(20.68, abs=0.01)
    assert tracing.weight_bytes(model) / 1e6 == pytest.approx(21.7, abs=0.1)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "select-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
