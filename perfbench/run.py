"""The repository benchmark: one seeded workload per run, closed loop, one client.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {verify,sweep,spectrum} --seed N \
        --seconds S --trace {0,1}

The program under test is the ``vilenkin`` package in ``src/`` of the same
checkout; without it the run exits with code 2 before printing a result.

A run sets the workload up, then repeats its fixed job list in rounds, each
job starting when the previous one has finished, until ``--seconds`` have
passed and at least the workload's minimum number of rounds has run.  Every
output is checked (see ``workloads.py``) outside the timed region; a job
fails if it raises, exits non-zero, fails its check or gives bytes that
differ from the first round's.

With ``--trace 0`` the last line holds the end-to-end metrics:

``setup_s``      median over fresh processes of the time from process start
                 until the workload is ready for its first timed job
                 (imports, group tables, corpus, warm-up);
``wall_s``       median over rounds of the summed job latencies of a round;
``job_p50_ms``   median job latency;
``job_tail_ms``  job latency at the highest percentile with at least ten
                 samples beyond it at the workload's minimum round count
                 (percentile and sample count are on the ``summary`` line);
``peak_rss_mb``  peak resident memory of this process up to the end of the
                 timed phase.

The share of failed jobs is ``failed / attempted`` in the result line.

With ``--trace 1`` the run alternates untraced and traced rounds and the last
line holds the per-layer metrics of ``spans.layer_metrics``; the raw spans
go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import HARNESS_JOB, HARNESS_SETUP, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
# One BLAS thread (at most nproc), so the stage matrix products run the same
# way on every run; set before numpy loads, and inherited by set-up probes.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MAX_REPORTED_FAILURES = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "group.decode_index.calls": "count",
    "group.shift_table.calls": "count",
    "group.shift_table.self_s": "s",
    "group.digit_table.build_s": "s",
    "transform.forward.calls": "count",
    "transform.forward.self_s": "s",
    "transform.inverse.calls": "count",
    "transform.inverse.self_s": "s",
    "transform.call_p50_us": "us",
    "transform.points_per_s": "1/s",
    "transform.bytes_computed": "B",
    "transform.character_values.calls": "count",
    "transform.character_values.self_s": "s",
    "transform.forward_naive.self_s": "s",
    "transform.convolve.self_s": "s",
    "transform.csv_write.self_s": "s",
    "transform.csv_read.self_s": "s",
    "summability.kernel.calls": "count",
    "summability.kernel.self_s": "s",
    "summability.kernel.transform_share": "ratio",
    "summability.mean.kernel.calls": "count",
    "summability.mean.kernel.self_s": "s",
    "summability.mean.direct.self_s": "s",
    "summability.mean.abel.self_s": "s",
    "summability.identity.self_s": "s",
    "analysis.convergence_sweep.self_s": "s",
    "analysis.lp_norm.calls": "count",
    "analysis.lp_norm.self_s": "s",
    "analysis.maximal.self_s": "s",
    "analysis.weak_lp.self_s": "s",
    "corpus.self_s": "s",
    "cli.run_verify.self_s": "s",
    "cli.records_to_csv.self_s": "s",
    "cli.checks.count": "count",
    "cli.checks.tightest_margin": "ratio",
    "layer.group.self_s": "s",
    "layer.transform.self_s": "s",
    "layer.summability.self_s": "s",
    "layer.analysis.self_s": "s",
    "layer.cli.self_s": "s",
    "layer.harness.self_s": "s",
    "trace.wall_s": "s",
    "trace.harness_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


class BenchmarkError(Exception):
    """The benchmark cannot run: program missing or set-up failed."""


def load_program() -> None:
    """Import ``vilenkin`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "vilenkin" / "__init__.py").is_file():
        raise BenchmarkError(f"no vilenkin package under {SRC}")
    sys.path.insert(0, str(SRC))
    import vilenkin

    if not Path(vilenkin.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"vilenkin imported from {vilenkin.__file__}, not {SRC}")


def tail_percentile(min_samples: int) -> float:
    """Highest ladder percentile with at least ten of ``min_samples`` beyond it."""
    for p in TAIL_LADDER:
        if min_samples * (1 - p / 100) >= 10:
            return p
    return TAIL_LADDER[-1]


class Runner:
    """Runs rounds of a job list, tracking digests, evidence and failures."""

    def __init__(self, jobs) -> None:
        self.jobs = jobs
        self.first: list = [None] * len(jobs)  # (digest, evidence) of the first good run
        self.repeats = [0] * len(jobs)  # runs whose digest matched the first
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, job, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(f"{job.label}: {message}")

    def round(self, tracer=None) -> list[float]:
        """One closed-loop pass over the jobs; returns their latencies."""
        latencies = []
        for i, job in enumerate(self.jobs):
            self.attempted += 1
            start = time.perf_counter()
            try:
                raw = job.run() if tracer is None else tracer.root(HARNESS_JOB, job.run)[0]
            except Exception:  # a failing job is counted, the run goes on
                latencies.append(time.perf_counter() - start)
                self._fail(job, traceback.format_exc(limit=-2).strip())
                continue
            latencies.append(time.perf_counter() - start)
            try:
                first = self.first[i] is None
                digest, evidence = job.post(raw, first)
            except Exception:
                self._fail(job, traceback.format_exc(limit=-2).strip())
                continue
            if first:
                self.first[i] = (digest, evidence)
                self.repeats[i] = 1
            elif digest == self.first[i][0]:
                self.repeats[i] += 1
            else:
                self._fail(job, "output differs from the first run of the same job")
        return latencies

    def check(self) -> None:
        """Check each job's first output; a wrong one fails every run that repeated it."""
        for i, job in enumerate(self.jobs):
            if self.first[i] is None:
                continue
            try:
                job.check(self.first[i][1])
            except Exception as exc:
                self.failed += self.repeats[i]
                if len(self.failures) < MAX_REPORTED_FAILURES:
                    self.failures.append(f"{job.label}: check failed: {exc!r}")

    def evidence(self) -> list:
        return [entry[1] for entry in self.first if entry is not None]


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until its set-up is done."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed:\n{proc.stderr}")
    # time.monotonic is CLOCK_MONOTONIC, shared by every process on Linux.
    return float(proc.stdout.split()[-1]) - start


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_conditions(args, working_set_bytes: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    llc = 0
    for level in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            proc = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=10)
            llc = llc or int(proc.stdout.strip() or 0)
        except (OSError, ValueError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": int(BLAS_THREADS),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "last_level_cache_bytes": llc,
        "working_set_bytes": working_set_bytes,
    }


def measure(workload, args, scratch: Path) -> tuple[dict, Runner, dict]:
    """End-to-end metrics: set-up probes, then timed rounds with tracing off."""
    setup_samples = [probe_setup(workload.name, args.seed) for _ in range(SETUP_PROBES)]
    setup = workload.setup(args.seed, scratch)
    runner = Runner(setup.jobs)
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(runner.round())
        walls = [sum(r) for r in rounds]
        elapsed = time.perf_counter() - start
        if len(walls) >= workload.min_rounds and elapsed + walls[-1] > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    check_start = time.perf_counter()
    runner.check()
    check_s = time.perf_counter() - check_start

    import numpy as np

    latencies = [x for r in rounds for x in r]
    # Spread of each job's latency over the rounds, (max - min) / median.
    per_job = np.array(rounds).T
    job_range = np.ptp(per_job, axis=1) / np.median(per_job, axis=1)
    percentile = tail_percentile(len(setup.jobs) * workload.min_rounds)
    tail = float(np.percentile(latencies, percentile))
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(walls),
        "job_p50_ms": 1e3 * statistics.median(latencies),
        "job_tail_ms": 1e3 * tail,
        "peak_rss_mb": peak_rss_mb,
    }
    summary = {
        "rounds": len(walls),
        "jobs_per_round": len(setup.jobs),
        "samples": len(latencies),
        "tail_percentile": percentile,
        "tail_samples_beyond": sum(1 for x in latencies if x > tail),
        "fail_ratio": runner.failed / runner.attempted,
        "setup_samples_s": setup_samples,
        "round_walls_s": walls,
        "job_range_share": {"median": float(np.median(job_range)), "max": float(job_range.max())},
        "check_s": check_s,
    }
    return metrics, runner, {"summary": summary, "working_set_bytes": setup.working_set_bytes}


def trace(workload, args, scratch: Path) -> tuple[dict, Runner, dict]:
    """Per-layer metrics: traced set-up, then untraced and traced rounds in turn."""
    from workloads import verify_margins

    tracer = Tracer()
    tracer.install()
    try:
        setup = tracer.root(HARNESS_SETUP, lambda: workload.setup(args.seed, scratch))[0]
    finally:
        tracer.uninstall()
    setup_range = (0, len(tracer.spans))
    runner = Runner(setup.jobs)
    plain, traced, round_ranges = [], [], []
    start = time.perf_counter()
    while not (plain and traced) or time.perf_counter() - start < args.seconds:
        # Untraced and traced rounds in the order U T T U, so that a steady
        # drift of machine speed does not show as tracing overhead.
        if (len(plain) + len(traced)) % 4 in (0, 3):
            plain.append(sum(runner.round()))
            continue
        first_span = len(tracer.spans)
        tracer.install()
        try:
            traced.append(sum(runner.round(tracer)))
        finally:
            tracer.uninstall()
        round_ranges.append((first_span, len(tracer.spans)))
    runner.check()

    metrics = layer_metrics(tracer, setup_range, round_ranges)
    count, margin = verify_margins(runner.evidence())
    metrics["cli.checks.count"] = float(count)
    metrics["cli.checks.tightest_margin"] = margin
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
    tracer.dump(spans_path)
    summary = {
        "untraced_rounds_s": plain,
        "traced_rounds_s": traced,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "fail_ratio": runner.failed / runner.attempted,
    }
    return {k: metrics[k] for k in PER_LAYER}, runner, {
        "summary": summary, "working_set_bytes": setup.working_set_bytes}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "sweep", "spectrum"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    try:
        load_program()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        if args.setup_probe:
            workload.setup(args.seed, Path(tmp))
            print(time.monotonic(), flush=True)
            return 0
        try:
            metrics, runner, extra = (trace if args.trace else measure)(workload, args, Path(tmp))
        except BenchmarkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    units = PER_LAYER if args.trace else END_TO_END
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print("conditions " + json.dumps(run_conditions(args, extra["working_set_bytes"])))
    print("summary " + json.dumps(extra["summary"]))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
