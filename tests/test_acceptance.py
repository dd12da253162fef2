"""Acceptance suite: every exit criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Each
test evaluates its criterion completely, prints PASS/FAIL with the measured
quantities, then asserts.
"""

import math
import time

import numpy as np
import pytest

from vilenkin.analysis import (
    full_maximal_fejer,
    lp_norm,
    restricted_maximal,
    vilenkin_lebesgue_profile,
    weak11_ratio,
)
from vilenkin.corpus import corpus
from vilenkin.group import GroupPoint, VilenkinBase
from vilenkin.summability import (
    kernel_l1_profile,
    kernel_tail,
    make_weights,
    mean,
    partial_sum,
    verify_abel_prefix_sum,
    verify_block_kernel_split,
    verify_dirichlet_complement,
    verify_dirichlet_integral,
    verify_kernel_abel,
    verify_kernel_mass,
    verify_mean_paths,
    weights_from_spec,
)
from vilenkin.transform import (
    StepFunction,
    forward,
    forward_naive,
    forward_naive_batch,
    verify_orthonormality,
)

EXACT = 1e-12
COMPOSED = 1e-10

SMALL_BASES = (
    VilenkinBase.parse("2,2,2,2"),
    VilenkinBase.parse("2,3,2"),
    VilenkinBase.parse("3,3,3"),
)
WALSH512 = VilenkinBase.parse("2").with_depth(9)
WALSH4096 = VilenkinBase.parse("2").with_depth(12)
CONV_BASE = VilenkinBase.parse("2,3,2,2,2")  # M_N = 48

BOUNDED_FAMILIES = ("constant", "cesaro:0.5", "valpha:0.5", "blog:0.5:1")
ALL_FAMILIES = BOUNDED_FAMILIES + ("riesz_log", "norlund_log")

# Sups of the kernel L1 norms over n <= 512 at Walsh depth 9, from the oracle
# runs. They are bounds at that horizon, not uniform constants: the norms are
# still rising there, and at n <= 8192 (depth 13) cesaro:0.5 reaches 1.4517
# and valpha:0.5 reaches 1.4431.
RECORDED_L1_SUP = {
    "constant": 1.13,
    "cesaro:0.5": 1.45,
    "valpha:0.5": 1.41,
    "blog:0.5:1": 1.31,
}


def _line(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    return ok


def _ols_slope(ns, ys) -> float:
    x = np.log(np.asarray(ns, dtype=float))
    y = np.asarray(ys, dtype=float)
    x = x - x.mean()
    return float((x * y).sum() / (x * x).sum())


def _octave_growth(ns, ys) -> tuple[float, float]:
    """Early and late growth of the octave maxima of a norm profile over n <= 512.

    With b_k the largest y over the octave 2^(k-1) < n <= 2^k, returns
    (b_5 - b_2, b_9 - b_6).  A norm saturating like C - c n^(alpha-1) has
    late/early ratio 2^(4(alpha-1)), 1/4 at alpha = 1/2; a norm growing like
    log n has ratio 1.
    """
    b = {}
    for n, y in zip(ns, ys):
        k = (n - 1).bit_length()
        b[k] = max(b.get(k, -math.inf), y)
    return b[5] - b[2], b[9] - b[6]


def _growth_saturates(early: float, late: float) -> bool:
    # 1/2 is the geometric midpoint of the saturating (1/4) and log (1) ratios.
    return late <= 0.5 * max(early, 0.0) + EXACT


def test_criterion_1_orthonormality():
    bases = SMALL_BASES + (VilenkinBase.parse("2").with_depth(8),)
    worst = max(verify_orthonormality(base) for base in bases)
    ok = worst <= EXACT
    assert _line("criterion-1 orthonormality", ok, f"max deviation {worst:.3e}")


def test_criterion_2_fast_vs_naive_and_speedup():
    worst = 0.0
    for base in SMALL_BASES + (WALSH4096,):
        rng = np.random.default_rng(20260809)
        values = rng.uniform(-1, 1, (100, base.size))
        oracle = forward_naive_batch(base, values)
        for i in range(100):
            fast = forward(StepFunction(base, values[i])).coeffs
            worst = max(worst, float(np.max(np.abs(fast - oracle[i]))))

    f = StepFunction(WALSH4096, np.random.default_rng(1).uniform(-1, 1, WALSH4096.size))
    forward(f)  # warm the stage tables
    fast_t = min(_time_once(forward, f) for _ in range(10))
    naive_t = _time_once(forward_naive, f)
    speedup = naive_t / fast_t
    ok = worst <= EXACT and speedup >= 10
    assert _line(
        "criterion-2 fast-vs-naive",
        ok,
        f"max deviation {worst:.3e}, speedup {speedup:.0f}x at M_N=4096",
    )


def _time_once(fn, arg) -> float:
    start = time.perf_counter()
    fn(arg)
    return time.perf_counter() - start


def test_criterion_3_dirichlet_unit_integral():
    worst = max(verify_dirichlet_integral(base) for base in SMALL_BASES + (WALSH512,))
    ok = worst <= EXACT
    assert _line("criterion-3 dirichlet-integral", ok, f"max |integral - 1| = {worst:.3e}")


def test_criterion_4_dirichlet_complement_identity():
    worst = 0.0
    for base in SMALL_BASES:
        for r in range(base.depth + 1):
            worst = max(worst, verify_dirichlet_complement(base, r, range(base.cumprod[r])))
    ok = worst <= COMPOSED
    assert _line("criterion-4 complement-identity", ok, f"max residual {worst:.3e}")


def test_criterion_5_abel_identities():
    # scalar prefix-sum rebuild, every family, n <= 512, relative
    worst_scalar = max(verify_abel_prefix_sum(weights_from_spec(s), 512) for s in ALL_FAMILIES)

    # kernel-level Abel rebuild, sampled orders at depth 9 (orders with Q_n > 0)
    norlund = [weights_from_spec(s) for s in ("constant", "cesaro:0.5", "valpha:0.5", "norlund_log")]
    worst_kernel = max(verify_kernel_abel(norlund, WALSH512, (2, 3, 5, 8, 16, 37, 128, 512)))

    # mean-level path agreement, all families, dense small grid plus n = 512
    small = VilenkinBase.parse("2,3,2,2")
    f_small = corpus("random", small, seed=5)
    f_big = corpus("random", WALSH512, seed=5)
    families = [weights_from_spec(s) for s in ALL_FAMILIES]
    grids = [(f_small, range(1, small.size + 1)), (f_big, (512,))]
    worst_mean = max(max(verify_mean_paths(f, families, orders)) for f, orders in grids)

    ok = worst_scalar <= COMPOSED and worst_kernel <= COMPOSED and worst_mean <= COMPOSED
    assert _line(
        "criterion-5 abel-identities",
        ok,
        f"scalar {worst_scalar:.3e}, kernel {worst_kernel:.3e}, mean paths {worst_mean:.3e}",
    )


def test_criterion_6_kernel_mass_boundedness_tails():
    bounded = [weights_from_spec(spec) for spec in BOUNDED_FAMILIES]
    mass_worst = max(verify_kernel_mass(bounded, WALSH512, range(1, 513)))
    sup_report = {}
    slope_report = {}
    growth_report = {}
    tails_ok = True
    for spec in BOUNDED_FAMILIES:
        w = weights_from_spec(spec)
        ns = [n for n in range(1, 513) if w.Q(n) > 0]
        profile = kernel_l1_profile(w, WALSH512, ns)
        values = [v for _, v in profile]
        sup_report[spec] = max(values)
        slope_report[spec] = _ols_slope(ns, values)
        growth_report[spec] = _octave_growth(ns, values)
        tails = [
            kernel_tail(w, WALSH512, WALSH512.cumprod[a], 2)
            for a in range(1, WALSH512.depth + 1)
            if w.Q(WALSH512.cumprod[a]) > 0
        ]
        tails_ok = tails_ok and all(b <= a + EXACT for a, b in zip(tails, tails[1:]))

    # Contrast: the log-divergent family of criterion 7 must fail the same bar,
    # so the growth check cannot pass by construction.
    w_log = weights_from_spec("norlund_log")
    ns_log = [n for n in range(1, 513) if w_log.Q(n) > 0]
    log_values = [v for _, v in kernel_l1_profile(w_log, WALSH512, ns_log)]
    growth_report["norlund_log"] = _octave_growth(ns_log, log_values)

    sup_ok = all(sup_report[s] <= RECORDED_L1_SUP[s] for s in BOUNDED_FAMILIES)
    growth_ok = all(_growth_saturates(*growth_report[s]) for s in BOUNDED_FAMILIES)
    contrast_ok = not _growth_saturates(*growth_report["norlund_log"])
    ok = mass_worst <= EXACT and sup_ok and growth_ok and contrast_ok and tails_ok

    def _growth(spec):
        early, late = growth_report[spec]
        ratio = f"{late / early:.2f}" if early > 0 else "n/a"
        return f"{spec} G_e={early:+.4f} G_l={late:+.4f} ratio={ratio}"

    growth = "; ".join(_growth(s) for s in growth_report)
    slopes = " ".join(f"{s}={slope_report[s]:+.4f}" for s in BOUNDED_FAMILIES)
    assert _line(
        "criterion-6 kernel-boundedness",
        ok,
        f"mass {mass_worst:.3e}, sup {sup_report}, octave growth [{growth}], "
        f"log-slopes (diagnostic) [{slopes}], tails_decreasing={tails_ok}",
    ), (
        "kernel L1 octave growth: a bounded family must have late growth "
        "G_l = b_9 - b_6 <= max(G_e, 0) / 2 with G_e = b_5 - b_2, and "
        f"norlund_log must exceed that bar (growth_ok={growth_ok}, "
        f"contrast_ok={contrast_ok}): {growth}"
    )


def test_criterion_7_log_mean_divergence_contrast():
    w = make_weights("norlund_log")
    ns = [2 ** k for k in range(1, 10)]
    values = [v for _, v in kernel_l1_profile(w, WALSH512, ns)]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    slope = _ols_slope(ns, values)
    ok = increasing and slope > 0
    assert _line(
        "criterion-7 log-mean-divergence",
        ok,
        f"strictly increasing={increasing}, log-slope {slope:+.4f}",
    )


def test_criterion_8_block_kernel_split():
    worst = 0.0
    for spec in ("constant", "valpha:0.5", "cesaro:0.5"):
        w = weights_from_spec(spec)
        for base in SMALL_BASES + (WALSH512,):
            for r in range(1, base.depth + 1):
                worst = max(worst, verify_block_kernel_split(w, base, r))
    ok = worst <= COMPOSED
    assert _line("criterion-8 block-kernel-split", ok, f"max residual {worst:.3e}")


def test_criterion_9_block_reproduction_and_pointwise_decay():
    worst_repro = 0.0
    for r in range(CONV_BASE.depth + 1):
        f = corpus(f"coset:{r}", CONV_BASE, seed=7)
        for s in range(r, CONV_BASE.depth + 1):
            out = partial_sum(f, CONV_BASE.cumprod[s])
            worst_repro = max(worst_repro, float(np.max(np.abs(out.values - f.values))))

    # pointwise error at a continuity point, decreasing from the corpus scale
    scale = 2
    f = corpus(f"coset:{scale}", CONV_BASE, seed=7)
    decay_ok = True
    finals = {}
    for spec in ("constant", "valpha:0.5"):
        w = weights_from_spec(spec)
        errors = [
            abs(mean(f, w, CONV_BASE.cumprod[r], "kernel").values[0] - f.values[0])
            for r in range(scale, CONV_BASE.depth + 1)
        ]
        decay_ok = decay_ok and all(b < a for a, b in zip(errors, errors[1:]))
        finals[spec] = errors[-1]
    ok = worst_repro <= EXACT and decay_ok
    assert _line(
        "criterion-9 block-reproduction",
        ok,
        f"max |S_Mr f - f| = {worst_repro:.3e}, pointwise decay monotone={decay_ok}",
    )


def test_criterion_10_convergence_sweep():
    f = corpus("smooth2", CONV_BASE)
    ratios = {}
    for spec in BOUNDED_FAMILIES:
        w = weights_from_spec(spec)
        err4 = lp_norm(mean(f, w, 4, "kernel") - f, 1)
        err_full = lp_norm(mean(f, w, CONV_BASE.size, "kernel") - f, 1)
        ratios[spec] = err_full / err4
    ok = all(r <= 0.25 for r in ratios.values()) and all(r > 0 for r in ratios.values())
    detail = " ".join(f"{s}={r:.4f}" for s, r in ratios.items())
    assert _line("criterion-10 convergence-sweep", ok, f"err(M_N)/err(4): {detail}")


def test_criterion_11_weak_l1_stability():
    s_ratios, fejer_ratios = [], []
    for r in range(CONV_BASE.depth + 1):
        f = corpus(f"spike:{r}", CONV_BASE)
        s_ratios.append(weak11_ratio(restricted_maximal(f, "S_at_Mn"), f))
        fejer_ratios.append(weak11_ratio(full_maximal_fejer(f, CONV_BASE.size), f))
    recorded = 1.0 + 1e-9  # oracle runs measured exactly 1.0 for both operators
    bounded = max(s_ratios) <= recorded and max(fejer_ratios) <= recorded
    no_growth = s_ratios[-1] <= s_ratios[0] + 1e-9 and fejer_ratios[-1] <= fejer_ratios[0] + 1e-9
    ok = bounded and no_growth
    assert _line(
        "criterion-11 weak-l1-stability",
        ok,
        f"max S ratio {max(s_ratios):.6f}, max Fejer ratio {max(fejer_ratios):.6f}",
    )


def test_criterion_12_oscillation_profile():
    spike_depth = 2
    f = corpus(f"spike:{spike_depth}", CONV_BASE)
    x = GroupPoint.unit(CONV_BASE, 0)
    profile = vilenkin_lebesgue_profile(f, x, CONV_BASE.depth)
    expected = np.array(
        [
            min(1.0, CONV_BASE.cumprod[spike_depth] / CONV_BASE.cumprod[a])
            for a in range(1, CONV_BASE.depth + 1)
        ]
    )
    exact_ok = float(np.max(np.abs(profile - expected))) <= EXACT
    tail = profile[spike_depth - 1 :]
    decreasing = all(b < a for a, b in zip(tail, tail[1:]))
    ok = exact_ok and decreasing and profile[-1] < 0.2
    assert _line(
        "criterion-12 oscillation-profile",
        ok,
        f"profile {np.round(profile, 6).tolist()}, decreasing past depth={decreasing}",
    )
