"""Experiment runner: verification suites, convergence sweeps, benchmarks.

Subcommands
    verify       run the identity/bound suite, exit 1 on any residual breach
    converge     tabulate mean-vs-function errors as CSV
    bench        time the fast transform against the literal-sum oracle
    kernel-dump  write one kernel table as CSV

Configuration may come from a flat ``key=value`` file (``--config``); flags
given on the command line win.  Exit codes: 0 ok, 1 tolerance failure,
2 usage error, unreadable config or unwritable output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import analysis, summability, transform
from .corpus import corpus
from .group import VilenkinBase
from .summability import (
    WeightSequence,
    verify_abel_prefix_sum,
    verify_block_kernel_split,
    verify_dirichlet_complement,
    verify_dirichlet_integral,
    verify_kernel_abel,
    verify_kernel_mass,
    verify_mean_paths,
    weights_from_spec,
)
from .transform import StepFunction, forward, forward_naive, inverse, verify_orthonormality

EXACT_TOL = 1e-12
COMPOSED_TOL = 1e-10
DEFAULT_CAP = 4096
DEFAULT_WEIGHTS = "constant,cesaro:0.5,valpha:0.5,riesz_log,norlund_log,blog:0.5:1"

@dataclass
class Check:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)


def parse_n_list(text: str, upper: int) -> list[int]:
    """Parse "1..8,16,64" into an explicit order list, bounded by ``upper``."""
    out: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        lo_text, dots, hi_text = token.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text if dots else lo_text)
        except ValueError:
            raise ValueError(f"--n {text!r}: expected orders like 1..512 or 4,16,64") from None
        if lo > hi:
            raise ValueError(f"empty range {token!r}")
        # checked before the range is built, so a huge range costs nothing
        if lo < 1 or hi > upper:
            raise ValueError(f"orders {token!r} outside [1, {upper}]")
        out.extend(range(lo, hi + 1))
    if not out:
        raise ValueError(f"no orders in {text!r}")
    return out


def parse_p_list(text: str) -> list[float]:
    try:
        return [float(token) for token in text.split(",")]
    except ValueError:
        raise ValueError(f"--p {text!r}: expected comma-separated exponents") from None


def parse_int_list(text: str) -> list[int]:
    try:
        return [int(token) for token in text.split(",") if token.strip()]
    except ValueError:
        raise ValueError(f"--points {text!r}: expected comma-separated ranks") from None


def _int_at_least(low: int):
    """An argparse type: an integer >= ``low``."""

    def convert(text: str) -> int:
        try:
            value = int(text)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")

    return convert


def _resolve_base(args) -> VilenkinBase:
    # Every radix is >= 2, so M_N >= 2^depth: a depth of cap.bit_length() or
    # more is rejected before the radices and M_0..M_N are built.
    depth = args.base.count(",") + 1 if args.depth is None else args.depth
    if depth >= args.cap.bit_length():
        raise ValueError(f"M_N >= 2^{depth} exceeds the cap {args.cap}")
    base = VilenkinBase.parse(args.base, args.depth)
    if base.size > args.cap:
        raise ValueError(f"M_N = {base.size} exceeds the cap {args.cap}")
    return base


def _weight_list(text: str) -> list[WeightSequence]:
    families = [weights_from_spec(token) for token in text.split(",") if token.strip()]
    if not families:
        raise ValueError(f"--weights {text!r} names no weight family")
    return families


# ---------------------------------------------------------------- verify --


def _sample_orders(size: int, base: VilenkinBase) -> list[int]:
    orders = {1, 2, 3, 5, 8, 13, size} | set(base.cumprod)
    return sorted(n for n in orders if 1 <= n <= size)


def run_verify(base: VilenkinBase, weight_specs: list[WeightSequence], seed: int) -> list[Check]:
    """Execute every identity and bound check; one Check per named residual."""
    checks: list[Check] = []
    rng = np.random.default_rng(seed)
    f = StepFunction(base, rng.uniform(-1, 1, base.size) + 1j * rng.uniform(-1, 1, base.size))

    # Transform layer.
    if base.size <= 256:
        checks.append(Check("orthonormality", verify_orthonormality(base), EXACT_TOL))
    spec = forward(f)
    checks.append(Check(
        "fast_vs_naive",
        float(np.max(np.abs(spec.coeffs - forward_naive(f).coeffs))),
        EXACT_TOL,
    ))
    checks.append(Check(
        "round_trip", float(np.max(np.abs(inverse(spec).values - f.values))), EXACT_TOL
    ))
    checks.append(Check(
        "parseval",
        abs(np.mean(np.abs(f.values) ** 2) - np.sum(np.abs(spec.coeffs) ** 2)),
        EXACT_TOL,
    ))
    g = StepFunction(base, rng.uniform(-1, 1, base.size))
    conv_direct = transform.convolve(f, g)
    conv_spectral = transform.convolve_spectral(f, g)
    checks.append(Check(
        "convolution_direct_vs_spectral",
        float(np.max(np.abs(conv_direct.values - conv_spectral.values))),
        COMPOSED_TOL,
    ))
    young = max(
        max(0.0, analysis.lp_norm(conv_direct, p) - analysis.lp_norm(f, p) * analysis.lp_norm(g, 1))
        for p in (1.0, 2.0, math.inf)
    )
    checks.append(Check("young_inequality", young, EXACT_TOL))

    # Dirichlet kernels: unit integral for every order, complement identity.
    checks.append(Check("dirichlet_integral", verify_dirichlet_integral(base), EXACT_TOL))
    worst = 0.0
    for r in range(base.depth + 1):
        m_r = base.cumprod[r]
        js = range(m_r) if m_r <= 128 else np.unique(np.linspace(0, m_r - 1, 128, dtype=int))
        worst = max(worst, verify_dirichlet_complement(base, r, js))
    checks.append(Check("dirichlet_complement", worst, COMPOSED_TOL))

    # Weight families: Abel identities, kernel mass, path agreement.
    horizon = 512
    orders = _sample_orders(base.size, base)
    norlund = [w for w in weight_specs if w.mean_type == "norlund"]
    kernel_abel = iter(verify_kernel_abel(norlund, base, orders))
    kernel_mass = verify_kernel_mass(weight_specs, base, orders)
    mean_paths = verify_mean_paths(f, weight_specs, orders)
    for w, mass, mean_path in zip(weight_specs, kernel_mass, mean_paths):
        tag = w.kind
        checks.append(Check(
            f"abel_prefix_sum[{tag}]", verify_abel_prefix_sum(w, horizon), COMPOSED_TOL
        ))
        checks.append(Check(f"kernel_mass[{tag}]", mass, EXACT_TOL))
        if w.mean_type == "norlund":
            checks.append(Check(f"kernel_abel_identity[{tag}]", next(kernel_abel), COMPOSED_TOL))
        checks.append(Check(f"mean_path_agreement[{tag}]", mean_path, COMPOSED_TOL))

        if w.monotonicity == "non-increasing":
            worst = max(
                verify_block_kernel_split(w, base, r) for r in range(1, base.depth + 1)
            )
            checks.append(Check(f"block_kernel_split[{tag}]", worst, COMPOSED_TOL))
    return checks


def cmd_verify(args) -> int:
    base = _resolve_base(args)
    weight_specs = _weight_list(args.weights)
    checks = run_verify(base, weight_specs, args.seed)
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name} residual={check.residual:.3e} tol={check.tolerance:.0e}")
    passed = all(check.passed for check in checks)
    if args.out:
        report = {
            "base": base.spec(),
            "passed": passed,
            "checks": [
                {
                    "name": c.name,
                    "residual": float(c.residual),
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                }
                for c in checks
            ],
        }
        transform._write_text(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    if not passed:
        failing = [c.name for c in checks if not c.passed]
        print(f"FAILED: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------- converge --


def cmd_converge(args) -> int:
    base = _resolve_base(args)
    f = corpus(args.corpus, base, args.seed)
    w = weights_from_spec(args.weights)
    n_list = parse_n_list(f"1..{min(16, base.size)}" if args.n is None else args.n, base.size)
    p_list = parse_p_list(args.p)
    points = parse_int_list(args.points)
    records = analysis.convergence_sweep(f, w, n_list, p_list, points)
    analysis.records_to_csv(records, args.out or sys.stdout)
    return 0


# ------------------------------------------------------------------ bench --


def cmd_bench(args) -> int:
    base = _resolve_base(args)
    rng = np.random.default_rng(args.seed)
    f = StepFunction(base, rng.uniform(-1, 1, base.size))

    forward(f)  # warm the stage tables
    fast = min(_time_once(forward, f) for _ in range(args.reps))
    naive = min(_time_once(forward_naive, f) for _ in range(min(args.reps, 3)))
    report = {
        "base": base.spec(),
        "m_n": base.size,
        "reps": args.reps,
        "fast_seconds": fast,
        "naive_seconds": naive,
        "speedup": naive / fast if fast > 0 else math.inf,
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        transform._write_text(args.out, text)
    print(text, end="")
    return 0


def _time_once(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


# ------------------------------------------------------------ kernel-dump --


def cmd_kernel_dump(args) -> int:
    base = _resolve_base(args)
    kind = args.kind
    w = weights_from_spec(args.weights) if args.weights else None
    if kind == "auto":
        kind = w.mean_type if w else "dirichlet"
    if w is None and kind in ("norlund", "tmean"):
        raise ValueError(f"kernel kind {kind!r} needs --weights")
    summability._kernel(kind, w, base, args.order).to_csv(args.out or sys.stdout)
    return 0


# ------------------------------------------------------------------- main --


def _read_config(path: str, keys) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in keys:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            out[key] = value.strip()
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vilenkin",
        description="Vilenkin-group harmonic analysis experiments",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file; flags win")
    common.add_argument("--base", default="2,3,2", help="comma-separated radices")
    common.add_argument("--depth", type=int, default=None, help="cycle radices to this depth")
    common.add_argument("--seed", type=_int_at_least(0), default=0, help="seed for random corpora")
    common.add_argument("--cap", type=int, default=DEFAULT_CAP, help="largest allowed M_N")
    common.add_argument("--out", default=None, help="output path (default: stdout)")

    sub = parser.add_subparsers(dest="command", required=True)
    p_verify = sub.add_parser("verify", parents=[common], help="run the identity suite")
    p_verify.add_argument("--weights", default=DEFAULT_WEIGHTS, help="comma-joined weight specs")
    p_verify.set_defaults(func=cmd_verify, parser=p_verify)

    p_conv = sub.add_parser("converge", parents=[common], help="convergence sweep CSV")
    p_conv.add_argument("--weights", default="constant", help="one weight spec")
    p_conv.add_argument("--corpus", default="smooth2", help="test-function name")
    p_conv.add_argument("--n", help="orders, e.g. 1..512 or 4,16,64 (default 1..min(16, M_N))")
    p_conv.add_argument("--p", default="1,2,inf", help="norm exponents")
    p_conv.add_argument("--points", default="0", help="ranks for pointwise errors")
    p_conv.set_defaults(func=cmd_converge, parser=p_conv)

    p_bench = sub.add_parser("bench", parents=[common], help="fast vs naive timings")
    p_bench.add_argument("--reps", type=_int_at_least(1), default=5, help="fast-path repetitions")
    p_bench.set_defaults(func=cmd_bench, parser=p_bench)

    p_dump = sub.add_parser("kernel-dump", parents=[common], help="write a kernel CSV")
    p_dump.add_argument("--weights", default=None, help="weight spec for norlund/tmean kinds")
    p_dump.add_argument("--order", type=int, default=1, help="kernel order n")
    p_dump.add_argument(
        "--kind", default="auto", choices=["auto", "dirichlet", "fejer", "norlund", "tmean"]
    )
    p_dump.set_defaults(func=cmd_kernel_dump, parser=p_dump)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call and shared by every later one."""
    return _build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    try:
        if args.config:
            # A config may set any option of the chosen subcommand but --config.
            # Its defaults go on a tree of this run's own, so they never reach
            # a later call; flags still win.
            parser = _build_parser()
            chosen = parser.parse_args(argv).parser
            keys = {a.dest for a in chosen._actions if a.option_strings} - {"help", "config"}
            chosen.set_defaults(**_read_config(args.config, keys))
            args = parser.parse_args(argv)
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
