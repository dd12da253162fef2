"""The benchmark's workloads: seeded job lists, their set-up and output checks.

``WORKLOADS[name].setup(seed, scratch)`` builds the inputs of one round of
jobs, warms the caches and returns the job list.  A job has three parts:

``run``    the timed call into the library;
``post``   untimed, right after ``run`` in every round: a digest of the output
           bytes, compared across rounds (a repeated job with identical inputs
           must give identical bytes), and on the first round the small
           evidence the check needs;
``check``  run after the timed phase on the first round's evidence, against
           a route independent of the one timed; raises :class:`CheckFailed`.

The seed picks the inputs (verify seeds, weights, corpora, order ranges,
sample points) but never the amount of work: group shapes, order-range
lengths and job counts are fixed, so runs with different seeds measure the
same work on different data.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from vilenkin import analysis, cli, summability, transform
from vilenkin.group import VilenkinBase, decode_index

corpus_module = importlib.import_module("vilenkin.corpus")

EXACT_TOL = 1e-12
COMPOSED_TOL = 1e-10


class CheckFailed(Exception):
    """An output did not match its independent reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


@dataclass
class Job:
    label: str
    run: Callable[[], Any]
    post: Callable[[Any, bool], tuple[str, Any]]
    check: Callable[[Any], None]


@dataclass
class Setup:
    jobs: list[Job]
    # Bytes of one complex128 input and one output vector of the largest job.
    working_set_bytes: int


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], Setup]
    # Rounds always measured, whatever --seconds says; with the job count it
    # fixes the tail percentile (see run.tail_percentile).
    min_rounds: int


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        code = fn(*args)
    return code, out.getvalue()


# ------------------------------------------------------------------ verify --

# M_N 128, 243, 216, 144 and 500: one verify call on each costs about the
# same, so job latencies form one band and their median does not sit in a gap
# between clusters of cheap and dear groups.
VERIFY_GROUPS = (("2", 7), ("3", 5), ("2,3", 6), ("2,3,2,2", 6), ("5,2", 5))
# The CLI's six default weight families, two per job.
VERIFY_WEIGHTS = ("constant,riesz_log", "cesaro:0.5,norlund_log", "valpha:0.5,blog:0.5:1")


@dataclass
class VerifyEvidence:
    code: int
    base: str
    report: dict


def verify_job(spec: str, depth: int, weights: str, seed: int, out: Path) -> Job:
    argv = ["verify", "--base", spec, "--depth", str(depth), "--weights", weights,
            "--seed", str(seed), "--out", str(out)]
    expected_base = VilenkinBase.parse(spec, depth).spec()

    def run():
        return _quiet(cli.main, argv)[0]

    def post(code, first):
        data = out.read_bytes()
        out.unlink()  # a later run that writes nothing must not find this file
        evidence = VerifyEvidence(code, expected_base, json.loads(data)) if first else None
        return digest(str(code).encode(), data), evidence

    return Job(f"verify {expected_base} [{weights}]", run, post, check_verify)


def check_verify(ev: VerifyEvidence) -> None:
    expect(ev.code == 0, f"exit code {ev.code}")
    expect(ev.report.get("base") == ev.base, f"report is for base {ev.report.get('base')}")
    checks = ev.report.get("checks", [])
    expect(len(checks) >= 8, f"only {len(checks)} checks reported")
    for c in checks:
        expect(c["residual"] <= c["tolerance"] and c["passed"],
               f"{c['name']} residual {c['residual']} > {c['tolerance']}")
    expect(ev.report.get("passed") is True, "report not passed")


def verify_margins(evidence: list) -> tuple[int, float]:
    """Number of checks and the largest residual/tolerance over verify reports."""
    checks = [c for ev in evidence if isinstance(ev, VerifyEvidence)
              for c in ev.report.get("checks", [])]
    return len(checks), max((c["residual"] / c["tolerance"] for c in checks), default=0.0)


def setup_verify(seed: int, scratch: Path) -> Setup:
    rng = np.random.default_rng(seed)
    jobs = []
    for spec, depth in VERIFY_GROUPS:
        for weights in VERIFY_WEIGHTS:
            jobs.append(verify_job(spec, depth, weights, int(rng.integers(2**31)),
                                   scratch / f"verify-{len(jobs)}.json"))
    warm = verify_job("2", 4, VERIFY_WEIGHTS[0], seed, scratch / "verify-warm.json")
    warm.post(warm.run(), False)
    largest = max(VilenkinBase.parse(spec, depth).size for spec, depth in VERIFY_GROUPS)
    return Setup(jobs, 2 * 16 * largest)


# ------------------------------------------------------------------- sweep --

SWEEP_GROUPS = (("2", 10), ("2,3", 8), ("2,3,5", 7), ("2", 12))  # M_N 1024, 1296, 1800, 4096
SWEEP_ORDERS = 64  # orders per converge call; the kernel route costs the same at every order
SWEEP_FEJER_ORDERS = 256
SWEEP_POINTS = 3  # sample points for the Fejer maximal check
NORLUND_KINDS = ("constant", "cesaro", "valpha", "norlund_log")
TMEAN_KINDS = ("riesz_log", "blog")


def _weight_spec(kind: str, rng) -> str:
    if kind in ("cesaro", "valpha"):
        return f"{kind}:{rng.uniform(0.2, 0.9):.3f}"
    if kind == "blog":
        return f"blog:{rng.uniform(0.3, 1.5):.3f}:1"
    return kind


def _norms(residual: np.ndarray) -> dict[float, float]:
    mags = np.abs(residual)
    return {1.0: float(mags.mean()), 2.0: float(np.sqrt(np.mean(mags**2))), math.inf: float(mags.max())}


@dataclass(frozen=True)
class SweepCase:
    """One function analysed by one sweep job."""

    spec: str
    depth: int
    weights: str
    corpus: str
    corpus_seed: int
    lo: int  # converge orders lo..hi
    hi: int
    points: tuple[int, ...]  # ranks for the pointwise errors
    maximal: str  # "fejer", "t_at_Mn" or "S_at_Mn"
    sample: tuple[int, ...]  # ranks where the Fejer maximal function is recomputed
    check_seed: int  # picks the orders recomputed by the check

    def argv(self) -> list[str]:
        return ["converge", "--base", self.spec, "--depth", str(self.depth),
                "--weights", self.weights, "--corpus", self.corpus,
                "--seed", str(self.corpus_seed), "--n", f"{self.lo}..{self.hi}",
                "--p", "1,2,inf", "--points", ",".join(map(str, self.points))]


def sweep_job(case: SweepCase) -> Job:
    """``vilenkin converge`` on a function, then a maximal operator and its weak-(1,1) ratio."""
    base = VilenkinBase.parse(case.spec, case.depth)
    f = corpus_module.corpus(case.corpus, base, case.corpus_seed)
    w = summability.weights_from_spec(case.weights)

    def run():
        code, text = _quiet(cli.main, case.argv())
        if case.maximal == "fejer":
            m = analysis.full_maximal_fejer(f, SWEEP_FEJER_ORDERS)
        else:
            m = analysis.restricted_maximal(f, case.maximal, w)
        return code, text, m, analysis.weak11_ratio(m, f)

    def post(raw, first):
        code, text, m, ratio = raw
        key = digest(str(code).encode(), text.encode(), m.values.tobytes(), repr(ratio).encode())
        return key, (code, text, m.values, ratio) if first else None

    def check(ev):
        code, text, m, ratio = ev
        expect(code == 0, f"exit code {code}")
        _check_converge_csv(case, base, f, w, text)
        if case.maximal == "fejer":
            _check_fejer_maximal(f, case.sample, m.real)
        else:
            _check_restricted_maximal(f, case.maximal, w, m.real)
        reference = _weak11_reference(m.real, f.values)
        expect(abs(ratio - reference) <= EXACT_TOL * max(1.0, reference),
               f"weak11 ratio {ratio} vs {reference}")

    label = f"sweep {base} {case.weights} {case.corpus} n={case.lo}..{case.hi} {case.maximal}"
    return Job(label, run, post, check)


def _check_converge_csv(case: SweepCase, base, f, w, text: str) -> None:
    """Row count, then errors of sampled orders against the direct mean route."""
    lines = text.splitlines()
    expect(lines[0] == "mean_kind,n,p,error,point_rank,point_error", "bad CSV header")
    rows = [line.split(",") for line in lines[1:]]
    blocks = set(base.cumprod)
    expected = sum(1 + (n in blocks) for n in range(case.lo, case.hi + 1)) * 3 * (1 + len(case.points))
    expect(len(rows) == expected, f"{len(rows)} CSV rows, expected {expected}")
    table = {(int(n), p, rank): (float(error), point_error)
             for kind, n, p, error, rank, point_error in rows if kind == w.kind}
    rng = np.random.default_rng(case.check_seed)
    for n in sorted(int(n) for n in rng.choice(np.arange(case.lo, case.hi + 1), 2, replace=False)):
        residual = summability.mean(f, w, n, method="direct").values - f.values
        for p, norm in _norms(residual).items():
            p_text = "inf" if p == math.inf else f"{p:g}"
            error = table[(n, p_text, "")][0]
            expect(abs(error - norm) <= COMPOSED_TOL, f"n={n} p={p_text}: {error} vs {norm}")
            for rank in case.points:
                point_error = float(table[(n, p_text, str(rank))][1])
                expect(abs(point_error - abs(residual[rank])) <= COMPOSED_TOL,
                       f"n={n} rank={rank}: {point_error} vs {abs(residual[rank])}")


def _check_fejer_maximal(f, sample, m: np.ndarray) -> None:
    """sup_n |sigma_n f(x)| at sampled x, from the coefficients in closed form."""
    coeffs = transform.forward(f).coeffs[:SWEEP_FEJER_ORDERS]
    orders = np.arange(1, SWEEP_FEJER_ORDERS + 1)
    for x in sample:
        # psi_n(x) = psi_x(n): row x of the character table is column x.
        psi_x = transform.character_block(f.base, x, x + 1)[0, :SWEEP_FEJER_ORDERS]
        sigma = np.abs(np.cumsum(np.cumsum(coeffs * psi_x))) / orders
        expect(abs(sigma.max() - m[x]) <= COMPOSED_TOL, f"x={x}: {m[x]} vs {sigma.max()}")


def _check_restricted_maximal(f, family: str, w, m: np.ndarray) -> None:
    base = f.base
    sup = np.zeros(base.size)
    for m_r in base.cumprod:
        if family == "S_at_Mn":
            # S_{M_r} f is the average of f over each rank-r coset.
            averages = f.values.reshape(base.size // m_r, m_r).mean(axis=0)
            level = np.tile(averages, base.size // m_r)
        elif w.Q(m_r) > 0:
            level = summability.mean(f, w, m_r, method="direct").values
        else:
            continue
        sup = np.maximum(sup, np.abs(level))
    expect(float(np.max(np.abs(m - sup))) <= COMPOSED_TOL, f"{family} sup mismatch")


def _weak11_reference(maximal: np.ndarray, f: np.ndarray) -> float:
    # sup_t t * mu(maximal >= t) over the sorted values: the i-th smallest
    # value has at least M - i values at or above it.
    v = np.sort(maximal)
    size = len(v)
    return float(np.max(v * (size - np.arange(size))) / size / np.mean(np.abs(f)))


def setup_sweep(seed: int, scratch: Path) -> Setup:
    """Two functions per group: a norlund family on a random function with the
    Fejer maximal operator, and a tmean family on a coset step function with
    a restricted maximal operator.  The corpus kinds are fixed because the
    weak-norm cost grows with the number of distinct values of the function."""
    rng = np.random.default_rng(seed)
    jobs = []
    for index, (spec, depth) in enumerate(SWEEP_GROUPS):
        size = VilenkinBase.parse(spec, depth).size
        # The direct-route check of t_at_Mn costs O(M_N) per block order, so
        # it runs on the two smaller groups; the larger ones use S_at_Mn.
        restricted = "t_at_Mn" if index < 2 else "S_at_Mn"
        for kinds, corpus, maximal in ((NORLUND_KINDS, "random", "fejer"),
                                       (TMEAN_KINDS, f"coset:{depth - 1}", restricted)):
            # Orders start at 3: tmean and norlund_log families have Q_1 = 0,
            # blog also Q_2 = 0.
            lo = int(rng.integers(3, 512 - SWEEP_ORDERS))
            jobs.append(sweep_job(SweepCase(
                spec, depth, _weight_spec(str(rng.choice(kinds)), rng), corpus,
                int(rng.integers(2**31)), lo, lo + SWEEP_ORDERS - 1,
                tuple(sorted(int(x) for x in rng.choice(size, 2, replace=False))),
                maximal, tuple(int(x) for x in rng.choice(size, SWEEP_POINTS, replace=False)),
                int(rng.integers(2**31)),
            )))
    warm = sweep_job(SweepCase("2", 8, "cesaro:0.5", "random", 0, 3, 6, (0,), "fejer", (1,), 0))
    warm.post(warm.run(), False)
    largest = max(VilenkinBase.parse(spec, depth).size for spec, depth in SWEEP_GROUPS)
    return Setup(jobs, 2 * 16 * largest)


# ---------------------------------------------------------------- spectrum --

# Walsh 2^20, radix 16 (16^5), mixed 2,3,5 (810000) and prime radix 7^7.
SPECTRUM_GROUPS = (("2", 20), ("16", 5), ("2,3,5", 12), ("7", 7))
CSV_GROUP = ("2", 16)
CSV_JOBS = 2
SPECTRUM_SAMPLES = 2


@functools.lru_cache(maxsize=1)
def _check_base(radices: tuple[int, ...]) -> VilenkinBase:
    # A base of its own, so that digit tables built by checks stay out of the
    # job's base; checks run grouped by base, so one is kept at a time.
    return VilenkinBase(radices)


def _character_row(base: VilenkinBase, n: int) -> np.ndarray:
    """psi_n at every rank, built literally; also psi_x(n) for all n at x = n."""
    return transform.character_block(_check_base(base.radices), n, n + 1)[0]


def _sample(rng, size: int) -> list[int]:
    return [int(i) for i in rng.choice(size, SPECTRUM_SAMPLES, replace=False)]


def forward_job(f, sample: list[int]) -> Job:
    def run():
        return transform.forward(f)

    def post(spectrum, first):
        if not first:
            return digest(spectrum.coeffs.tobytes()), None
        residual = float(np.max(np.abs(transform.inverse(spectrum).values - f.values)))
        return digest(spectrum.coeffs.tobytes()), (residual, spectrum.coeffs[sample].copy())

    def check(ev):
        residual, values = ev
        expect(residual <= EXACT_TOL, f"round trip residual {residual}")
        for n, value in zip(sample, values):
            literal = complex(np.dot(f.values, np.conj(_character_row(f.base, n))) / f.base.size)
            expect(abs(value - literal) <= EXACT_TOL, f"coefficient {n}: {value} vs {literal}")

    return Job(f"forward {f.base}", run, post, check)


def inverse_job(spectrum, sample: list[int]) -> Job:
    def run():
        return transform.inverse(spectrum)

    def post(g, first):
        if not first:
            return digest(g.values.tobytes()), None
        residual = float(np.max(np.abs(transform.forward(g).coeffs - spectrum.coeffs)))
        return digest(g.values.tobytes()), (residual, g.values[sample].copy())

    def check(ev):
        residual, values = ev
        expect(residual <= EXACT_TOL, f"round trip residual {residual}")
        for x, value in zip(sample, values):
            # sum_n c_n psi_n(x), with psi_n(x) = psi_x(n).
            literal = complex(np.dot(spectrum.coeffs, _character_row(spectrum.base, x)))
            expect(abs(value - literal) <= COMPOSED_TOL, f"value at {x}: {value} vs {literal}")

    return Job(f"inverse {spectrum.base}", run, post, check)


def convolve_job(f, g, sample: list[int]) -> Job:
    def run():
        return transform.convolve_spectral(f, g)

    def post(h, first):
        return digest(h.values.tobytes()), h.values[sample].copy() if first else None

    def check(values):
        base = _check_base(f.base.radices)
        for x, value in zip(sample, values):
            # (1/M_N) sum_t f(x - t) g(t), with x - t built digit by digit.
            x_digits = decode_index(x, base)
            ranks = np.zeros(base.size, dtype=np.int64)
            for k, m in enumerate(base.radices):
                ranks += ((x_digits[k] - base.digit_table[:, k]) % m) * base.cumprod[k]
            literal = complex(np.dot(f.values[ranks], g.values) / base.size)
            expect(abs(value - literal) <= COMPOSED_TOL, f"convolution at {x}: {value} vs {literal}")

    return Job(f"convolve_spectral {f.base}", run, post, check)


def csv_job(spectrum) -> Job:
    coeffs = spectrum.coeffs

    def run():
        buf = io.StringIO()
        transform.write_complex_csv(buf, "n", coeffs)
        buf.seek(0)
        return buf.getvalue(), transform.read_complex_csv(buf, len(coeffs))

    def post(raw, first):
        text, back = raw
        identical = back.shape == coeffs.shape and np.array_equal(back.view(np.int64), coeffs.view(np.int64))
        return digest(text.encode()), identical if first else None

    def check(identical):
        expect(identical, "CSV round trip changed values")

    return Job(f"csv round trip {spectrum.base}", run, post, check)


def setup_spectrum(seed: int, scratch: Path) -> Setup:
    rng = np.random.default_rng(seed)
    jobs = []
    for spec, depth in SPECTRUM_GROUPS:
        base = VilenkinBase.parse(spec, depth)
        f = corpus_module.corpus(f"coset:{depth - 1}", base, int(rng.integers(2**31)))
        g = corpus_module.corpus("random", base, int(rng.integers(2**31)))
        spectrum = transform.forward(g)
        jobs += [forward_job(f, _sample(rng, base.size)),
                 inverse_job(spectrum, _sample(rng, base.size)),
                 convolve_job(f, g, _sample(rng, base.size))]
    csv_base = VilenkinBase.parse(*CSV_GROUP)
    for _ in range(CSV_JOBS):
        g = corpus_module.corpus("random", csv_base, int(rng.integers(2**31)))
        jobs.append(csv_job(transform.forward(g)))
    jobs[-1].run()  # warm-up; the forward calls above warm the transform
    largest = max(VilenkinBase.parse(spec, depth).size for spec, depth in SPECTRUM_GROUPS)
    return Setup(jobs, 2 * 16 * largest)


WORKLOADS = {
    w.name: w
    for w in (
        # The small-call regime: thousands of inverse calls at M_N <= 500 and
        # every oracle; a large-array transform gain should barely move it.
        Workload("verify", setup_verify, min_rounds=3),
        # Many orders of one function on the kernel route, with Lp norms, CSV
        # output and maximal operators; no oracle in the timed jobs.
        Workload("sweep", setup_sweep, min_rounds=13),
        # The large-array regime, where stage memory traffic dominates and
        # per-call overhead does not; CSV round trips as a minority.
        Workload("spectrum", setup_spectrum, min_rounds=4),
    )
}
