"""Tests of the benchmark itself: output checks, determinism check, tracing.

Run with ``python3 -m pytest perfbench`` from the repository root.  Every job
here runs at M_N <= 256, so the module takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from vilenkin import analysis, cli, transform  # noqa: E402
from vilenkin.group import VilenkinBase  # noqa: E402

BASE = VilenkinBase.parse("2,3", 4)  # M_N = 36


def small_jobs(tmp_path: Path) -> list[wl.Job]:
    """One job of every kind the workloads use, at toy sizes."""
    f = wl.corpus_module.corpus("random", BASE, 3)
    g = wl.corpus_module.corpus("coset:2", BASE, 4)
    return [
        wl.verify_job("2", 4, "constant,riesz_log", 5, tmp_path / "verify.json"),
        wl.sweep_job(wl.SweepCase("2", 8, "cesaro:0.5", "random", 3, 3, 12, (0, 7), "fejer",
                                  (1, 200), 6)),
        wl.sweep_job(wl.SweepCase("2,3", 4, "riesz_log", "coset:3", 4, 3, 9, (5,), "t_at_Mn",
                                  (), 7)),
        wl.sweep_job(wl.SweepCase("2,3", 4, "blog:0.5:1", "coset:3", 4, 3, 9, (5,), "S_at_Mn",
                                  (), 8)),
        wl.forward_job(f, [0, 35]),
        wl.inverse_job(transform.forward(g), [2, 9]),
        wl.convolve_job(f, g, [4, 17]),
        wl.csv_job(transform.forward(g)),
    ]


def run_rounds(jobs, rounds=2):
    runner = run.Runner(jobs)
    for _ in range(rounds):
        runner.round()
    runner.check()
    return runner


def test_correct_outputs_pass(tmp_path):
    runner = run_rounds(small_jobs(tmp_path))
    assert runner.failures == []
    assert (runner.attempted, runner.failed) == (16, 0)


def _corrupt_forward(monkeypatch):
    original = transform.forward

    def forward(f):
        coeffs = original(f).coeffs.copy()
        coeffs[1] += 1e-6
        return transform.Spectrum(f.base, coeffs)

    monkeypatch.setattr(transform, "forward", forward)


def _corrupt_sweep_csv(monkeypatch):
    original = analysis.records_to_csv

    def records_to_csv(records, path):
        records = [analysis.ConvergenceRecord(r.mean_kind, r.n, r.p, r.error * (1 + 1e-6),
                                              r.point_errors) for r in records]
        original(records, path)

    monkeypatch.setattr(analysis, "records_to_csv", records_to_csv)


def _corrupt_verify_residual(monkeypatch):
    original = cli.run_verify

    def run_verify(base, weight_specs, seed):
        checks = original(base, weight_specs, seed)
        checks[0].residual = 2 * checks[0].tolerance
        return checks

    monkeypatch.setattr(cli, "run_verify", run_verify)


def _corrupt_maximal(monkeypatch):
    original = analysis.full_maximal_fejer

    def full_maximal_fejer(f, n_max):
        m = original(f, n_max)
        return transform.StepFunction(m.base, m.values * 1.001)

    monkeypatch.setattr(analysis, "full_maximal_fejer", full_maximal_fejer)


@pytest.mark.parametrize("corrupt, job_index", [
    (_corrupt_verify_residual, 0),
    (_corrupt_sweep_csv, 1),
    (_corrupt_maximal, 1),
    (_corrupt_forward, 4),
])
def test_corrupted_output_counts_as_failure(tmp_path, monkeypatch, corrupt, job_index):
    job = small_jobs(tmp_path)[job_index]
    corrupt(monkeypatch)
    runner = run_rounds([job], rounds=3)
    assert runner.failed == 3, runner.failures


def test_changed_bytes_on_a_repeated_job_fail():
    calls = []

    def run_job():
        calls.append(1)
        return len(calls)

    job = wl.Job("counter", run_job, lambda raw, first: (str(raw), None), lambda ev: None)
    runner = run_rounds([job], rounds=3)
    assert (runner.attempted, runner.failed) == (3, 2)


def test_raising_job_fails_and_run_goes_on():
    def boom():
        raise RuntimeError("boom")

    ok = wl.Job("ok", lambda: 1, lambda raw, first: ("1", None), lambda ev: None)
    bad = wl.Job("bad", boom, lambda raw, first: ("", None), lambda ev: None)
    runner = run_rounds([bad, ok], rounds=2)
    assert (runner.attempted, runner.failed) == (4, 2)


def test_self_times_subtract_children():
    t = spans.Tracer()
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    t.spans = [[0, -1, 0.0, 10.0, 0, 0], [0, 0, 1.0, 4.0, 0, 0],
               [0, 1, 2.0, 3.0, 0, 0], [0, 0, 5.0, 9.0, 0, 0]]
    assert spans.self_times(t.spans) == [3.0, 2.0, 1.0, 4.0]


def test_traced_self_times_account_for_traced_wall(tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        jobs = tracer.root(spans.HARNESS_SETUP, lambda: small_jobs(tmp_path))[0]
        setup_range = (0, len(tracer.spans))
        runner = run.Runner(jobs)
        runner.round(tracer)
    finally:
        tracer.uninstall()
    assert transform.forward.__module__ == "vilenkin.transform"
    assert not hasattr(transform.forward, "__wrapped__")
    runner.check()
    assert runner.failed == 0, runner.failures

    metrics = spans.layer_metrics(tracer, setup_range, [(setup_range[1], len(tracer.spans))])
    selfs = spans.self_times(tracer.spans)
    assert min(selfs) >= 0.0
    layers = sum(metrics[f"layer.{name}.self_s"] for name in spans.LAYERS)
    wall = metrics["trace.wall_s"]
    assert layers == pytest.approx(wall, rel=1e-9)
    library = layers - metrics["layer.harness.self_s"]
    assert library == pytest.approx(wall * (1 - metrics["trace.harness_share"]), rel=1e-9)
    # Every layer the toy jobs exercise shows up in the trace.
    for name in ("group.decode_index.calls", "transform.forward.calls", "transform.inverse.calls",
                 "transform.character_values.calls", "summability.kernel.calls",
                 "summability.mean.kernel.calls", "analysis.lp_norm.calls"):
        assert metrics[name] > 0, name
    for name in ("transform.csv_write.self_s", "transform.csv_read.self_s",
                 "summability.mean.direct.self_s", "summability.mean.abel.self_s",
                 "summability.identity.self_s", "analysis.maximal.self_s",
                 "analysis.weak_lp.self_s", "cli.run_verify.self_s", "cli.records_to_csv.self_s",
                 "group.digit_table.build_s", "corpus.self_s"):
        assert metrics[name] > 0, name
    assert 0 < metrics["summability.kernel.transform_share"] <= 1
    assert set(run.PER_LAYER) - {"cli.checks.count", "cli.checks.tightest_margin",
                                 "trace.overhead_ratio"} <= set(metrics)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in (20, 42, 56, 160, 1000, 20000):
        p = run.tail_percentile(n)
        latencies = np.arange(n, dtype=float)
        assert np.sum(latencies > np.percentile(latencies, p)) >= 10


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
