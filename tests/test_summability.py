"""Weight families, kernels, means and the kernel identities."""

import dataclasses
import math
import time
import warnings

import numpy as np
import pytest

from vilenkin import analysis, summability, transform
from vilenkin.analysis import verify_young
from vilenkin.group import VilenkinBase, order_stats
from vilenkin.summability import (
    WeightSequence,
    dirichlet,
    fejer_domination_constant,
    fejer_kernel,
    kernel_for,
    kernel_l1_profile,
    kernel_tail,
    make_weights,
    mean,
    norlund_kernel,
    partial_sum,
    regularity_check,
    t_kernel,
    verify_abel_prefix_sum,
    verify_block_kernel_split,
    verify_dirichlet_complement,
    verify_dirichlet_integral,
    verify_kernel_abel,
    verify_kernel_mass,
    verify_mean_paths,
    verify_stream_identities,
    weights_from_spec,
)
from vilenkin.transform import (
    Spectrum,
    StepFunction,
    character_values,
    forward,
    verify_convolution,
    verify_fast_vs_naive,
    verify_orthonormality,
    verify_parseval,
    verify_round_trip,
)

BASE23 = VilenkinBase.parse("2,3")
BASE232 = VilenkinBase.parse("2,3,2")
BASE333 = VilenkinBase.parse("3,3,3")
EXACT = 1e-12
COMPOSED = 1e-10

ALL_FAMILIES = ("constant", "cesaro:0.5", "valpha:0.5", "riesz_log", "norlund_log", "blog:0.5:1")
NORLUND_FAMILIES = ("constant", "cesaro:0.5", "valpha:0.5", "norlund_log")
GRID_GROUPS = [("2", 12), ("2,3", 6), ("5,2", 4)]


def grid_orders(base):
    """Ten orders for the (family, order) grid checks: 1, eight small ones and M_N // 7.

    The log families are degenerate at 1 and blog:0.5:1 at 1 and 2, so each
    order but 1 is live for all six families.
    """
    return [1, *range(3, 59, 7), base.size // 7]


def random_step(base, seed):
    rng = np.random.default_rng(seed)
    return StepFunction(
        base, rng.uniform(-1, 1, base.size) + 1j * rng.uniform(-1, 1, base.size)
    )


def literal_dirichlet(base, n):
    """Oracle: the raw character sum, no spectral synthesis."""
    out = np.zeros(base.size, dtype=complex)
    for k in range(n):
        out += character_values(base, k)
    return out


class TestWeights:
    def test_constant(self):
        w = make_weights("constant")
        assert [w.q(k) for k in range(5)] == [1, 1, 1, 1, 1]
        assert [w.Q(n) for n in range(5)] == [0, 1, 2, 3, 4]

    def test_cesaro_alpha_one_is_fejer(self):
        w = make_weights("cesaro", alpha=1.0)
        np.testing.assert_allclose(w.q_prefix(40), 1.0, atol=0)

    def test_cesaro_against_gamma_oracle(self):
        # A_k^(a-1) = Gamma(k+a) / (Gamma(a) * Gamma(k+1))
        alpha = 0.5
        w = make_weights("cesaro", alpha=alpha)
        for k in range(64):
            expected = math.exp(
                math.lgamma(k + alpha) - math.lgamma(alpha) - math.lgamma(k + 1)
            )
            assert w.q(k) == pytest.approx(expected, rel=1e-12)

    def test_valpha_values(self):
        w = make_weights("valpha", alpha=0.5)
        expected = [1.0, 1.0, 2 ** -0.5, 3 ** -0.5, 0.5]
        np.testing.assert_allclose(w.q_prefix(5), expected, atol=EXACT)
        diffs = np.diff(w.q_prefix(100))
        assert np.all(diffs <= 0)
        assert w.monotonicity == "non-increasing"

    def test_log_families(self):
        for kind, mean_type in (("riesz_log", "tmean"), ("norlund_log", "norlund")):
            w = make_weights(kind)
            assert w.q(0) == 0
            np.testing.assert_allclose(
                w.q_prefix(6)[1:], [1, 1 / 2, 1 / 3, 1 / 4, 1 / 5], atol=EXACT
            )
            assert w.mean_type == mean_type
            # Q_n is the truncated harmonic sum
            assert w.Q(6) == pytest.approx(sum(1 / k for k in range(1, 6)), abs=EXACT)

    def test_blog_truncation(self):
        w = make_weights("blog", alpha=0.5, beta=1)
        assert w.q(0) == 0
        assert w.q(1) == 0  # log(1) = 0
        assert w.q(2) == pytest.approx(0.5 * math.log(2), abs=EXACT)
        assert w.monotonicity == "non-decreasing"
        w2 = make_weights("blog", alpha=0.5, beta=2)
        # log(log(k^0.5)) is first positive at k = 8
        assert all(w2.q(k) == 0 for k in range(8))
        assert w2.q(8) == pytest.approx(math.log(math.log(8 ** 0.5)), abs=EXACT)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_weights("cesaro", alpha=1.5)
        with pytest.raises(ValueError):
            make_weights("valpha", alpha=0.0)
        with pytest.raises(ValueError):
            make_weights("blog", alpha=0.5, beta=0)
        with pytest.raises(ValueError):
            make_weights("nope")

    @pytest.mark.parametrize("build, message", [
        (lambda: make_weights("cesaro", alpha=1.5), "cesaro needs 0 < alpha <= 1, got 1.5"),
        (lambda: make_weights("cesaro"), "cesaro needs 0 < alpha <= 1, got None"),
        (lambda: make_weights("valpha", alpha=0.0), "valpha needs 0 < alpha < 1, got 0.0"),
        (lambda: make_weights("blog", alpha=-1.0, beta=1), "blog needs alpha > 0, got -1.0"),
        (lambda: make_weights("blog", alpha=0.5, beta=0), "blog needs integer beta >= 1, got 0"),
        (lambda: make_weights("blog", alpha=0.5, beta=1.5), "blog needs integer beta >= 1, got 1.5"),
        (lambda: make_weights("blog", alpha=0.5, beta=math.inf), "blog needs integer beta >= 1, got inf"),
        (lambda: make_weights("blog", alpha=0.5, beta=math.nan), "blog needs integer beta >= 1, got nan"),
        (lambda: make_weights("cesaro", alpha=0.5, beta=3), "cesaro takes no beta, got 3"),
        (lambda: make_weights("constant", alpha=0.7), "constant takes no alpha, got 0.7"),
        (lambda: make_weights("nope"),
         "unknown weight kind 'nope'; expected one of "
         "('constant', 'cesaro', 'valpha', 'riesz_log', 'norlund_log', 'blog')"),
        (lambda: weights_from_spec("bogus:1"), "unknown weight kind 'bogus' in 'bogus:1'"),
        (lambda: make_weights("constant").q(-1), "weight index must be >= 0, got -1"),
    ], ids=["cesaro-1.5", "cesaro-none", "valpha-0", "blog-alpha", "blog-beta-0", "blog-beta-1.5",
            "blog-beta-inf", "blog-beta-nan", "cesaro-surplus-beta", "constant-surplus-alpha",
            "unknown-kind", "unknown-spec-kind", "negative-index"])
    def test_parameter_messages(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_labels(self):
        assert make_weights("blog", alpha=0.5, beta=10**9).kind == "blog:0.5:1000000000"
        assert make_weights("cesaro", alpha=1).kind == "cesaro:1"

    @pytest.mark.parametrize("spec", ["blog:inf:1", "blog:nan:1", "blog:-inf:2",
                                      "cesaro:nan", "valpha:inf"])
    def test_non_finite_alpha_rejected(self, spec):
        with pytest.raises(ValueError, match="finite alpha") as info:
            weights_from_spec(spec)
        assert spec in str(info.value)

    def test_spec_grammar(self):
        assert weights_from_spec("cesaro:0.5").kind == "cesaro:0.5"
        assert weights_from_spec("blog:0.5:1").kind == "blog:0.5:1"
        assert weights_from_spec("constant").kind == "constant"
        with pytest.raises(ValueError):
            weights_from_spec("cesaro")
        with pytest.raises(ValueError):
            weights_from_spec("constant:1")

    @pytest.mark.parametrize("spec, usage", [
        ("cesaro:0.5:1", "cesaro:alpha"),
        ("cesaro:abc", "cesaro:alpha"),
        ("cesaro", "cesaro:alpha"),
        ("blog:0.5:1.5", "blog:alpha:beta"),
        ("blog:0.5", "blog:alpha:beta"),
        ("constant:1", "constant"),
    ])
    def test_bad_spec_message_names_the_spec(self, spec, usage):
        with pytest.raises(ValueError) as info:
            weights_from_spec(spec)
        assert str(info.value) == f"bad weight spec {spec!r}; expected {usage!r}"

    def test_negative_prefix_length_rejected(self):
        # after a long prefix is cached, a negative length must not slice it from the end
        w = make_weights("cesaro", alpha=0.5)
        assert len(w.Q_prefix(100)) == 101
        for prefix in (w.q_prefix, w.Q_prefix):
            with pytest.raises(ValueError, match="prefix length must be >= 0, got -2"):
                prefix(-2)

    def test_overflowing_weights_name_the_first_bad_index(self):
        # log(k^300) is inf once k^300 overflows, from k = 11 on
        w = make_weights("blog", alpha=300, beta=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert w.Q(9) == pytest.approx(300 * sum(math.log(k) for k in range(2, 9)))
            assert w.Q(11) == pytest.approx(300 * sum(math.log(k) for k in range(2, 11)))
            for ask in (lambda: w.Q(12), lambda: w.q(40), lambda: w.q_prefix(12),
                        lambda: w.Q_prefix(64)):
                with pytest.raises(ValueError) as info:
                    ask()
                assert str(info.value) == "weight family blog:300:1: q_11 = inf is not finite"
            # the finite prefix stays usable, whatever was asked before
            assert len(w.q_prefix(11)) == 11 and np.isfinite(w.Q_prefix(11)).all()

    def test_overflowing_prefix_sum_named(self):
        w = WeightSequence("huge", lambda ks: np.full(len(ks), 1e308), "norlund", "n/a")
        assert w.Q(1) == 1e308
        with pytest.raises(ValueError, match=r"^weight family huge: Q_2 = inf is not finite$"):
            w.Q(2)

    def test_overflow_check_keeps_finite_bits(self):
        # the cache holds the arrays of one extend call over the grown prefix
        for spec in ALL_FAMILIES:
            w = weights_from_spec(spec)
            for n in (1, 3, 17, 600):
                q = w._extend(np.arange(len(w.q_prefix(n))))
                assert np.array_equal(w.q_prefix(len(q)), q)
                assert np.array_equal(w.Q_prefix(len(q)), np.concatenate([[0.0], np.cumsum(q)]))

    @pytest.mark.parametrize("beta", [1, 2, 3, 5, 40])
    def test_iterated_log_stops_without_changing_a_bit(self, beta):
        def every_pass(values):
            out = values.copy()
            alive = out > 0
            for _ in range(beta):
                alive &= out > 0
                out[~alive] = 0.0
                out[alive] = np.log(out[alive])
            out[out < 0] = 0.0
            out[~alive] = 0.0
            return out

        values = np.array([0.0, 1e-300, 0.5, 1.0, math.e, 15.2, 1e5, 1e300, np.inf])
        values = np.concatenate([values, np.arange(1, 5000, dtype=float) ** 0.5])
        assert np.array_equal(summability._iterated_log(values, beta), every_pass(values))

    def test_huge_beta_takes_a_few_passes(self):
        start = time.perf_counter()
        w = make_weights("blog", alpha=0.5, beta=10**9)
        assert not w.q_prefix(4096).any()
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("mean_type", ["Norlund", "fejer", "", None])
    def test_unknown_mean_type_rejected(self, mean_type):
        # Both mean routes dispatch on mean_type; an unknown tag must not reach them.
        with pytest.raises(ValueError, match="mean type must be"):
            WeightSequence("odd", lambda ks: np.ones(len(ks)), mean_type, "non-increasing")


class TestRegularity:
    def test_constant_ratio_is_one(self):
        report = regularity_check(make_weights("constant"), 128)
        assert report.max_norlund_ratio == pytest.approx(1.0, abs=EXACT)
        assert report.q_total_growing

    def test_valpha_ratio_bounded(self):
        report = regularity_check(make_weights("valpha", alpha=0.5), 512)
        assert report.max_norlund_ratio <= 1.0 + EXACT  # n * q_{n-1} <= Q_n here

    def test_norlund_log_ratio_decreasing(self):
        w = make_weights("norlund_log")
        report = regularity_check(w, 512)
        assert report.ratio_decreasing
        # n * q_{n-1} / Q_n = n / ((n-1) * l_n), checked at the horizon
        n = 512
        l_n = sum(1 / k for k in range(1, n))
        assert report.final_norlund_ratio == pytest.approx(n / ((n - 1) * l_n), rel=1e-12)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            regularity_check(make_weights("constant"), 1)

    def test_no_positive_prefix_sum_names_family_and_horizon(self):
        # blog:0.5:1 has q_0 = q_1 = 0, so Q_1 = Q_2 = 0
        with pytest.raises(ValueError, match=r"no order n <= 2 has Q_n > 0 for blog:0\.5:1"):
            regularity_check(make_weights("blog", alpha=0.5, beta=1), 2)


class TestDirichlet:
    def test_first_kernel_is_one(self):
        np.testing.assert_allclose(dirichlet(BASE232, 1).values, 1.0, atol=EXACT)

    def test_walsh_second_kernel(self):
        base = VilenkinBase.parse("2,2")
        values = dirichlet(base, 2).values
        # 1 + (-1)^{x_0}: ranks 0,2 have x_0 = 0
        np.testing.assert_allclose(values, [2, 0, 2, 0], atol=EXACT)

    def test_block_kernels_are_scaled_indicators(self):
        for base in (BASE232, VilenkinBase.parse("2,3,2,2"), VilenkinBase.parse("3,4,2")):
            for r in range(base.depth + 1):
                m_r = base.cumprod[r]
                oracle = literal_dirichlet(base, m_r)
                expected = np.where(np.arange(base.size) % m_r == 0, m_r, 0)
                np.testing.assert_allclose(oracle, expected, atol=EXACT)
                np.testing.assert_allclose(dirichlet(base, m_r).values, expected, atol=EXACT)

    def test_matches_literal_sum(self):
        for n in range(1, BASE232.size + 1):
            np.testing.assert_allclose(
                dirichlet(BASE232, n).values, literal_dirichlet(BASE232, n), atol=EXACT
            )

    def test_unit_integral_every_order(self):
        for n in range(1, BASE232.size + 1):
            assert abs(dirichlet(BASE232, n).integral() - 1) <= EXACT

    def test_order_validation(self):
        with pytest.raises(ValueError):
            dirichlet(BASE232, 0)
        with pytest.raises(ValueError):
            dirichlet(BASE232, 13)


class TestFejer:
    def test_matches_literal_average(self):
        for n in (1, 2, 5, 12):
            oracle = sum(literal_dirichlet(BASE232, k) for k in range(1, n + 1)) / n
            np.testing.assert_allclose(fejer_kernel(BASE232, n).values, oracle, atol=EXACT)

    def test_unit_integral(self):
        for n in (1, 3, 7, 12):
            assert abs(fejer_kernel(BASE232, n).integral() - 1) <= EXACT

    def test_l1_sup_recorded_walsh(self):
        # oracle run over n <= 512 at depth 9 recorded sup = 1.12923
        base = VilenkinBase.parse("2").with_depth(9)
        sup = max(v for _, v in kernel_l1_profile(make_weights("constant"), base, range(1, 513)))
        assert sup <= 1.13


class TestNorlundKernels:
    def test_constant_weights_reduce_to_fejer(self):
        w = make_weights("constant")
        for n in (1, 4, 9, 12):
            np.testing.assert_allclose(
                norlund_kernel(w, BASE232, n).values,
                fejer_kernel(BASE232, n).values,
                atol=EXACT,
            )

    def test_first_order_is_dirichlet(self):
        for spec in ("constant", "cesaro:0.5", "valpha:0.5"):
            table = norlund_kernel(weights_from_spec(spec), BASE232, 1)
            np.testing.assert_allclose(table.values, 1.0, atol=EXACT)

    def test_valpha_block_integral(self):
        # direct-summation oracle at n = M_2 over (2,3)
        w = make_weights("valpha", alpha=0.5)
        n = BASE23.cumprod[2]
        oracle = np.zeros(BASE23.size, dtype=complex)
        for k in range(1, n + 1):
            oracle += w.q(n - k) * literal_dirichlet(BASE23, k)
        oracle /= w.Q(n)
        assert abs(oracle.mean() - 1) <= EXACT
        table = norlund_kernel(w, BASE23, n)
        np.testing.assert_allclose(table.values, oracle, atol=EXACT)
        assert abs(table.integral() - 1) <= EXACT

    def test_matches_literal_sum_all_families(self):
        for spec in ALL_FAMILIES:
            w = weights_from_spec(spec)
            for n in (2, 5, 12):
                if w.Q(n) <= 0:
                    continue
                oracle = np.zeros(BASE232.size, dtype=complex)
                for k in range(1, n + 1):
                    oracle += w.q(n - k) * literal_dirichlet(BASE232, k)
                oracle /= w.Q(n)
                np.testing.assert_allclose(
                    norlund_kernel(w, BASE232, n).values, oracle, atol=EXACT
                )

    def test_t_kernel_matches_literal_sum(self):
        for spec in ALL_FAMILIES:
            w = weights_from_spec(spec)
            for n in (2, 5, 12):
                if w.Q(n) <= 0:
                    continue
                oracle = np.zeros(BASE232.size, dtype=complex)
                for k in range(1, n):
                    oracle += w.q(k) * literal_dirichlet(BASE232, k)
                oracle /= w.Q(n)
                np.testing.assert_allclose(
                    t_kernel(w, BASE232, n).values, oracle, atol=EXACT
                )

    def test_degenerate_weights_rejected(self):
        with pytest.raises(ValueError):
            norlund_kernel(make_weights("norlund_log"), BASE232, 1)  # Q_1 = 0


class TestPartialSums:
    def test_full_order_reproduces(self):
        f = random_step(BASE232, 0)
        out = partial_sum(f, BASE232.size)
        assert np.max(np.abs(out.values - f.values)) <= EXACT

    def test_first_order_is_mean_value(self):
        f = random_step(BASE232, 1)
        out = partial_sum(f, 1)
        np.testing.assert_allclose(out.values, f.integral(), atol=EXACT)

    def test_block_order_reproduces_coarse_functions(self):
        # f constant on rank-1 cosets of (2,3,2): S_{M_1} f = f
        rng = np.random.default_rng(2)
        coarse = rng.uniform(-1, 1, 2)
        f = StepFunction(BASE232, coarse[np.arange(12) % 2])
        out = partial_sum(f, BASE232.cumprod[1])
        assert np.max(np.abs(out.values - f.values)) <= EXACT

    def test_equals_dirichlet_convolution(self):
        from vilenkin.transform import convolve

        f = random_step(BASE232, 3)
        for n in (1, 5, 12):
            via_kernel = convolve(f, dirichlet(BASE232, n))
            assert np.max(np.abs(partial_sum(f, n).values - via_kernel.values)) <= COMPOSED

    def test_range_validation(self):
        with pytest.raises(ValueError):
            partial_sum(random_step(BASE232, 0), 13)


class TestMeans:
    def test_constant_weights_give_fejer_mean(self):
        f = random_step(BASE232, 4)
        w = make_weights("constant")
        for n in (1, 5, 12):
            oracle = np.zeros(BASE232.size, dtype=complex)
            for k in range(1, n + 1):
                oracle += partial_sum(f, k).values
            oracle /= n
            for method in ("direct", "kernel", "abel"):
                got = mean(f, w, n, method).values
                assert np.max(np.abs(got - oracle)) <= EXACT

    def test_order_one_is_first_partial_sum(self):
        f = random_step(BASE232, 5)
        for spec in ("constant", "cesaro:0.5", "valpha:0.5"):
            got = mean(f, weights_from_spec(spec), 1, "direct")
            np.testing.assert_allclose(got.values, f.integral(), atol=EXACT)

    def test_three_paths_cesaro_character(self):
        f = StepFunction(BASE23, character_values(BASE23, 3))
        w = make_weights("cesaro", alpha=0.5)
        outs = [mean(f, w, 5, method).values for method in ("direct", "kernel", "abel")]
        assert np.max(np.abs(outs[0] - outs[1])) <= COMPOSED
        assert np.max(np.abs(outs[0] - outs[2])) <= COMPOSED

    @pytest.mark.parametrize("spec", ALL_FAMILIES)
    def test_three_paths_agree_random(self, spec):
        w = weights_from_spec(spec)
        f = random_step(BASE232, 6)
        (worst,) = verify_mean_paths(f, [w], range(2, BASE232.size + 1))
        assert worst <= COMPOSED

    @pytest.mark.parametrize("spec", ALL_FAMILIES)
    def test_kernel_route_is_convolution_with_the_kernel(self, spec):
        # the paper's t_n f = f * F_n, against the literal convolution sum
        from vilenkin.transform import convolve

        w = weights_from_spec(spec)
        f = random_step(BASE232, 13)
        for n in (2, 5, 7, 12):
            if w.Q(n) > 0:
                via_kernel = convolve(f, kernel_for(w, BASE232, n))
                assert np.max(np.abs(mean(f, w, n, "kernel").values - via_kernel.values)) <= COMPOSED

    def test_one_synthesis_per_kernel_and_mean(self, monkeypatch):
        # every kernel and kernel-route mean is one spectral multiplier
        calls = {"forward": 0, "inverse": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for owner in (summability, transform):
            for name in calls:
                monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))

        def count(run):
            calls.update(forward=0, inverse=0)
            run()
            return calls["forward"], calls["inverse"]

        f = random_step(BASE232, 14)
        w = make_weights("cesaro", alpha=0.5)
        assert count(lambda: mean(f, w, 7, "kernel")) == (1, 1)
        assert count(lambda: partial_sum(f, 7)) == (1, 1)
        for build in (lambda: dirichlet(BASE232, 7), lambda: fejer_kernel(BASE232, 7),
                      lambda: norlund_kernel(w, BASE232, 7), lambda: t_kernel(w, BASE232, 7),
                      lambda: kernel_for(w, BASE232, 7)):
            assert count(build) == (0, 1)

    def test_riesz_mean_matches_definition(self):
        # T aggregation with harmonic weights: (1/l_n) sum_{k<n} S_k f / k
        f = random_step(BASE232, 7)
        w = make_weights("riesz_log")
        n = 9
        l_n = sum(1 / k for k in range(1, n))
        oracle = np.zeros(BASE232.size, dtype=complex)
        for k in range(1, n):
            oracle += partial_sum(f, k).values / k
        oracle /= l_n
        np.testing.assert_allclose(mean(f, w, n, "direct").values, oracle, atol=EXACT)

    def test_norlund_log_matches_definition(self):
        # (1/l_n) sum_{k<n} S_k f / (n - k)
        f = random_step(BASE232, 8)
        w = make_weights("norlund_log")
        n = 9
        l_n = sum(1 / k for k in range(1, n))
        oracle = np.zeros(BASE232.size, dtype=complex)
        for k in range(1, n):
            oracle += partial_sum(f, k).values / (n - k)
        oracle /= l_n
        np.testing.assert_allclose(mean(f, w, n, "direct").values, oracle, atol=EXACT)

    def test_path_batch_equals_one_order_calls(self):
        # each row's arithmetic is that of a stream over it alone
        base = VilenkinBase.parse("2,3,2,2")
        f = random_step(base, 10)
        families = [weights_from_spec(spec) for spec in ALL_FAMILIES]
        orders = range(1, base.size + 1)
        alone = [max(verify_mean_paths(f, [w], [n])[0] for n in orders) for w in families]
        assert verify_mean_paths(f, families, orders) == alone

    def test_direct_and_abel_one_row_streams(self):
        # mean(method=...) is a stream of one row: the same bytes as in a batch
        f = random_step(BASE232, 11)
        families = [weights_from_spec(spec) for spec in ALL_FAMILIES]
        rows = [(w, n) for w in families for n in (2, 5, 12) if w.Q(n) > 0]
        routes = [(0, route, w, n) for route in ("direct", "abel") for w, n in rows]
        sums, _ = summability._abel_accumulate(BASE232, forward(f).coeffs[None], routes)
        direct, abel = sums[: len(rows)], sums[len(rows) :]
        for (w, n), direct_row, abel_row in zip(rows, direct, abel):
            assert np.array_equal(mean(f, w, n, "direct").values, direct_row)
            assert np.array_equal(mean(f, w, n, "abel").values, abel_row)

    def test_kernel_route_rows_equal_one_order_calls(self):
        # the mean-path check's one synthesis gives each row the bytes of mean(kernel)
        f = random_step(BASE232, 13)
        families = [weights_from_spec(spec) for spec in ALL_FAMILIES]
        rows = [(w, n) for w in families for n in range(1, BASE232.size + 1) if w.Q(n) > 0]
        profiles = (summability._profile(w.mean_type, w, n) for w, n in rows)
        batch = np.array(list(summability._synthesize(BASE232, forward(f).coeffs, profiles)))
        assert batch.shape == (len(rows), BASE232.size)
        for (w, n), row in zip(rows, batch):
            assert np.array_equal(mean(f, w, n, "kernel").values.view(float), row.view(float))

    def test_degenerate_and_bad_method(self):
        f = random_step(BASE232, 9)
        with pytest.raises(ValueError):
            mean(f, make_weights("riesz_log"), 1)
        with pytest.raises(ValueError):
            mean(f, make_weights("constant"), 2, method="magic")


PREFIX_GROUPS = [("2", 12), ("2,3", 8), ("2,3,5", 7), ("16", 3)]
PREFIX_KINDS = [("dirichlet", None), ("fejer", None)] + [
    (w.mean_type, w) for w in map(weights_from_spec, ALL_FAMILIES)
]


def prefix_orders(base):
    """1, M_N and the orders on both sides of each M_K and of the prefix floor."""
    edges = {*base.cumprod, summability._PREFIX_FLOOR}
    near = {n for m in edges for n in (m - 1, m, m + 1)}
    return sorted(n for n in near | {1, base.size} if 1 <= n <= base.size)


def full_size_row(base, coeffs, profile):
    """The stage engine at full size on the zero-padded spectrum, with no prefix group."""
    padded = np.zeros(base.size, dtype=np.complex128)
    padded[: len(profile)] = coeffs[: len(profile)] * profile
    return transform._separable_apply(base, padded, +1)


def live_kernel_rows(base):
    return [(kind, w, n) for kind, w in PREFIX_KINDS for n in prefix_orders(base)
            if w is None or w.Q(n) > 0]


class TestPrefixSynthesis:
    """A row band limited to M_K runs on the prefix group of M_K points and is tiled."""

    @pytest.mark.parametrize("spec, depth", PREFIX_GROUPS)
    def test_rows_equal_the_full_size_engine(self, spec, depth):
        base = VilenkinBase.parse(spec, depth)
        rows = live_kernel_rows(base)
        profiles = [summability._profile(kind, w, n) for kind, w, n in rows]
        groups = {base.covering(max(n, summability._PREFIX_FLOOR)).size for _, _, n in rows}
        assert len(groups) >= 2  # one call runs rows on a proper prefix and on the full group
        for coeffs in (np.ones(base.size), forward(random_step(base, depth)).coeffs):
            synthesized = summability._synthesize(base, coeffs, profiles)
            for p, row in zip(profiles, synthesized, strict=True):
                assert row.tobytes() == full_size_row(base, coeffs, p).tobytes()

    @pytest.mark.parametrize("spec, depth", PREFIX_GROUPS)
    def test_public_kernels_equal_the_full_size_engine(self, spec, depth):
        base = VilenkinBase.parse(spec, depth)
        f = random_step(base, depth + 1)
        coeffs = forward(f).coeffs
        unit = np.ones(base.size)
        builders = {"dirichlet": dirichlet, "fejer": fejer_kernel}
        for kind, w, n in live_kernel_rows(base):
            p = summability._profile(kind, w, n)
            if w is None:
                kernel = builders[kind](base, n)
            else:
                kernel = (norlund_kernel if kind == "norlund" else t_kernel)(w, base, n)
                t_n = mean(f, w, n, "kernel")
                assert t_n.values.tobytes() == full_size_row(base, coeffs, p).tobytes()
            assert kernel.values.tobytes() == full_size_row(base, unit, p).tobytes()
        for n in prefix_orders(base):
            p = summability._profile("dirichlet", None, n)
            assert partial_sum(f, n).values.tobytes() == full_size_row(base, coeffs, p).tobytes()

    def test_prime_radix_within_roundoff(self):
        # a matrix stage rounds by its column count (BLAS), which a prefix group
        # changes from 343 to 49 at radix 7: the last bit may move, no more
        base = VilenkinBase.parse("7", 4)
        rows = live_kernel_rows(base)
        profiles = [summability._profile(kind, w, n) for kind, w, n in rows]
        for coeffs in (np.ones(base.size), forward(random_step(base, 4)).coeffs):
            for p, row in zip(profiles, summability._synthesize(base, coeffs, profiles)):
                exact = full_size_row(base, coeffs, p)
                scale = max(1.0, float(np.max(np.abs(exact))))
                assert np.max(np.abs(row - exact)) <= 1e-15 * scale

    @pytest.mark.parametrize("spec, depth", [*PREFIX_GROUPS, ("7", 4), ("5,2", 5)])
    def test_band_limited_rows_are_periodic(self, spec, depth):
        # a row of order n repeats the M_K values of its smallest covering prefix exactly
        base = VilenkinBase.parse(spec, depth)
        rows = live_kernel_rows(base)
        profiles = [summability._profile(kind, w, n) for kind, w, n in rows]
        coeffs = forward(random_step(base, 5)).coeffs
        for (_, _, n), row in zip(rows, summability._synthesize(base, coeffs, profiles)):
            period = base.covering(n).size
            tiles = row.reshape(base.size // period, period)
            assert np.array_equal(tiles, np.broadcast_to(tiles[0], tiles.shape))

    @pytest.mark.parametrize("spec, depth, orders", [
        ("2,3", 8, [1, 2, *range(250, 262), *range(428, 440)]),
        ("2", 12, [3, *range(254, 259), *range(510, 515), 4096]),
    ])
    def test_kernel_route_rows_across_prefix_groups(self, spec, depth, orders):
        # one synthesis whose rows change prefix group mid-stream gives each row
        # the bytes of mean(kernel)
        base = VilenkinBase.parse(spec, depth)
        f = random_step(base, 19)
        families = [weights_from_spec(spec) for spec in ALL_FAMILIES]
        rows = [(w, n) for w in families for n in orders if w.Q(n) > 0]
        sizes = [base.covering(max(n, summability._PREFIX_FLOOR)).size for _, n in rows]
        assert len(set(sizes)) >= 2  # each family's orders cross from one prefix group to another
        assert sum(a != b for a, b in zip(sizes, sizes[1:])) >= len(families)
        profiles = (summability._profile(w.mean_type, w, n) for w, n in rows)
        batch = summability._synthesize(base, forward(f).coeffs, profiles)
        for (w, n), row in zip(rows, batch, strict=True):
            assert mean(f, w, n, "kernel").values.tobytes() == row.tobytes()

    def test_oracles_never_read_a_prefix_group(self, monkeypatch):
        # the literal routes run on the full group, so no check passes by construction
        base = VilenkinBase.parse("2,3", 8)
        f = random_step(base, 20)
        w = make_weights("cesaro", alpha=0.5)
        rows = [(0, "direct", w, 300), (0, "abel", w, 300)]
        expected = (
            summability._abel_accumulate(base, forward(f).coeffs[None], rows)[0],
            verify_dirichlet_integral(base),
            transform.forward_naive(f).coeffs,
            transform.convolve(f, f).values,
        )

        def refuse(self, n):
            raise AssertionError(f"an oracle asked for the prefix group of {n} points")

        monkeypatch.setattr(VilenkinBase, "covering", refuse)
        (direct, abel), _ = summability._abel_accumulate(base, forward(f).coeffs[None], rows)
        assert np.array_equal(direct, expected[0][0]) and np.array_equal(abel, expected[0][1])
        assert verify_dirichlet_integral(base) == expected[1]
        assert np.array_equal(transform.forward_naive(f).coeffs, expected[2])
        assert np.array_equal(transform.convolve(f, f).values, expected[3])
        assert np.array_equal(mean(f, w, 300, "direct").values, direct)
        with pytest.raises(AssertionError, match="prefix group"):
            mean(f, w, 300, "kernel")


class TestAdoptedResults:
    """Kernels, means, partial sums and the two transform oracles keep their fresh arrays uncopied."""

    # 12 points: one-row inverse on the whole group; 1024: a prefix-group row tiled to M_N
    @pytest.mark.parametrize("spec, depth, n", [("2,3,2", 3, 7), ("2", 10, 100)])
    def test_read_only_and_sharing_no_memory(self, spec, depth, n):
        base = VilenkinBase.parse(spec, depth)
        rng = np.random.default_rng(n)
        f = StepFunction(base, rng.uniform(-1, 1, base.size))
        g = StepFunction(base, rng.uniform(-1, 1, base.size) + 1j * rng.uniform(-1, 1, base.size))
        w = make_weights("cesaro", alpha=0.5)
        results = {
            "dirichlet": dirichlet(base, n),
            "dirichlet again": dirichlet(base, n),
            "fejer_kernel": fejer_kernel(base, n),
            "norlund_kernel": norlund_kernel(w, base, n),
            "t_kernel": t_kernel(w, base, n),
            "partial_sum": partial_sum(f, n),
            **{f"mean {method}": mean(f, w, n, method) for method in summability.MEAN_METHODS},
            "forward_naive": transform.forward_naive(f),
            "convolve": transform.convolve(f, g),
        }
        arrays = {name: r.coeffs if isinstance(r, Spectrum) else r.values for name, r in results.items()}
        for name, array in arrays.items():
            assert array.dtype == np.complex128, name
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
            others = [a for other, a in arrays.items() if other != name] + [f.values, g.values]
            assert not any(np.shares_memory(array, a) for a in others), name


class TestAbelIdentities:
    @pytest.mark.parametrize("spec", ALL_FAMILIES)
    def test_prefix_sum_rebuild(self, spec):
        # Q_n = sum_{j<n} (q_{n-j} - q_{n-j-1}) * j + q_0 * n, any sequence
        assert verify_abel_prefix_sum(weights_from_spec(spec), 512) <= COMPOSED

    @pytest.mark.parametrize("horizon", (512, 4096))
    @pytest.mark.parametrize("spec", ALL_FAMILIES)
    def test_prefix_sum_matches_a_per_order_loop(self, spec, horizon):
        # the residual of the cumulative-sum form against the O(horizon^2) sum per order
        w = weights_from_spec(spec)
        q = w.q_prefix(horizon)
        Q = w.Q_prefix(horizon)
        loop = 0.0
        for n in range(1, horizon + 1):
            if Q[n] > 0:
                i = np.arange(1, n)
                rebuilt = q[0] * n + float(np.sum((q[i] - q[i - 1]) * (n - i)))
                loop = max(loop, abs(rebuilt - Q[n]) / Q[n])
        # The cumulative sums are never looser than the loop by more than 1e-13.
        # The loop's own roundoff grows with the horizon (2.3e-13 for the log
        # families at 4096, where the cumulative sums give 4.8e-15), so only 512
        # is held both ways.
        residual = verify_abel_prefix_sum(w, horizon)
        assert residual <= loop + 1e-13
        if horizon == 512:
            assert loop <= residual + 1e-13

    @pytest.mark.parametrize("horizon", (0, -5))
    def test_prefix_sum_horizon_validation(self, horizon):
        with pytest.raises(ValueError, match=f"horizon must be >= 1, got {horizon}"):
            verify_abel_prefix_sum(make_weights("constant"), horizon)

    @pytest.mark.parametrize("spec", ("constant", "cesaro:0.5", "valpha:0.5", "norlund_log"))
    def test_kernel_rebuild_from_fejer(self, spec):
        # F_n = (1/Q_n) ( sum_j (q_{n-j} - q_{n-j-1}) j K_j + q_0 n K_n )
        (worst,) = verify_kernel_abel([weights_from_spec(spec)], BASE232, (3, 7, 12))
        assert worst <= COMPOSED

    def test_kernel_rebuild_needs_norlund_family(self):
        with pytest.raises(ValueError):
            verify_kernel_abel([make_weights("constant"), make_weights("riesz_log")], BASE232, (3,))

    def test_batch_equals_one_order_calls(self):
        # each row's arithmetic is that of a stream over it alone
        families = [weights_from_spec(s) for s in ("constant", "cesaro:0.5", "valpha:0.5", "norlund_log")]
        orders = (3, 7, 12)
        alone = [max(verify_kernel_abel([w], BASE232, [n])[0] for n in orders) for w in families]
        assert verify_kernel_abel(families, BASE232, orders) == alone

    @pytest.mark.parametrize("spec, depth", GRID_GROUPS)
    def test_grid_equals_the_stream_against_a_kernel_loop(self, spec, depth):
        # the synthesized F_n have the bits of one norlund_kernel call per order
        base = VilenkinBase.parse(spec, depth)
        families = [weights_from_spec(s) for s in NORLUND_FAMILIES]
        orders = grid_orders(base)
        rows = [(w, n) for w in families for n in orders if w.Q(n) > 0]
        abel, _ = summability._abel_accumulate(
            base, np.ones((1, base.size)), [(0, "abel", w, n) for w, n in rows])
        loop = {w: 0.0 for w in families}
        for (w, n), rebuilt in zip(rows, abel):
            kernel = norlund_kernel(w, base, n).values
            loop[w] = max(loop[w], float(np.max(np.abs(rebuilt - kernel))))
        assert verify_kernel_abel(families, base, orders) == list(loop.values())
        # norlund_log alone has nine live orders: a trailing one-row chunk on 2 x 12
        assert [verify_kernel_abel([w], base, orders)[0] for w in families] == list(loop.values())


STREAM_BASES = ("2,3,2", "5,2,2", "7,3", "2,2,2,2,2,2,2,2")


class TestCharacterStream:
    def _counted(self, monkeypatch):
        places = []
        digit_row = transform._digit_row

        def counted(base, j, a):
            places.append((j, a))
            return digit_row(base, j, a)

        monkeypatch.setattr(transform, "_digit_row", counted)
        return places

    @pytest.mark.parametrize("spec", STREAM_BASES)
    def test_one_character_row_per_digit(self, monkeypatch, spec):
        # one row per (place, nonzero digit), not one character per k
        base = VilenkinBase.parse(spec)
        places = self._counted(monkeypatch)
        for _ in summability._character_stream(base, np.ones(base.size)):
            pass
        assert len(places) == len(set(places)) == sum(m - 1 for m in base.radices)

    @pytest.mark.parametrize("spec", STREAM_BASES)
    def test_short_stream_builds_no_higher_row(self, monkeypatch, spec):
        base = VilenkinBase.parse(spec)
        places = self._counted(monkeypatch)
        for n_max in (1, 2, 5, base.size // 3, base.size - 1):
            places.clear()
            for _ in summability._character_stream(base, np.ones(n_max)):
                pass
            # M_{j+1} for the top nonzero digit place j of n_max - 1
            limit = next(m_j for m_j in base.cumprod if m_j > n_max - 1)
            assert max((a * base.cumprod[j] for j, a in places), default=0) < limit


COMPLEMENT_BASES = ("2,3,2", "2,3", "2,2,2", "2,2,2,2,2,2,2,2,2", "5,2,2,2,2,2")


def _complement_by_level(base):
    """The complement residual of every level and offset, from public one-order kernels."""
    worst = 0.0
    for m_r in base.cumprod:
        offsets = range(m_r) if m_r <= 128 else np.unique(np.linspace(0, m_r - 1, 128, dtype=int))
        psi = character_values(base, m_r - 1)
        top = dirichlet(base, m_r).values
        for j in offsets:
            low = dirichlet(base, int(j)).values if j else np.zeros(base.size)
            rhs = top - psi * np.conj(low)
            worst = max(worst, float(np.max(np.abs(dirichlet(base, m_r - int(j)).values - rhs))))
    return worst


class TestComplementIdentity:
    def test_exhaustive_base23(self):
        # every level has M_r <= 128, so every offset is checked
        assert verify_dirichlet_complement(BASE23) <= EXACT

    def test_walsh_case(self):
        assert verify_dirichlet_complement(VilenkinBase.parse("2,2,2")) <= EXACT

    @pytest.mark.parametrize("spec", COMPLEMENT_BASES)
    def test_whole_group_holds(self, spec):
        assert verify_dirichlet_complement(VilenkinBase.parse(spec)) <= COMPOSED

    @pytest.mark.parametrize("spec", COMPLEMENT_BASES)
    def test_equals_a_loop_over_levels_and_offsets(self, spec):
        # 5,2x5 has M_5 = 160 > 128: its top level takes the 128 spread offsets
        base = VilenkinBase.parse(spec)
        assert verify_dirichlet_complement(base) == _complement_by_level(base)


class TestBlockKernelSplit:
    def test_constant_all_levels(self):
        assert verify_block_kernel_split(make_weights("constant"), BASE232) <= EXACT

    def test_valpha_all_levels(self):
        assert verify_block_kernel_split(make_weights("valpha", alpha=0.5), BASE23) <= COMPOSED

    @pytest.mark.parametrize("spec", ["2,3,2", "5,2,2"])
    def test_equals_the_largest_level(self, spec):
        base, w = VilenkinBase.parse(spec), make_weights("cesaro", alpha=0.5)
        levels = [
            np.max(np.abs(norlund_kernel(w, base, m).values - (
                dirichlet(base, m).values
                - character_values(base, m - 1) * np.conj(t_kernel(w, base, m).values)
            )))
            for m in base.cumprod[1:]
        ]
        assert verify_block_kernel_split(w, base) == max(levels)

    def test_monotonicity_precondition(self):
        with pytest.raises(ValueError):
            verify_block_kernel_split(make_weights("blog", alpha=0.5, beta=1), BASE232)


class TestKernelMassAndTails:
    def test_dirichlet_l1_at_order_one(self):
        table = dirichlet(BASE232, 1)
        assert np.abs(table.values).mean() == pytest.approx(1.0, abs=EXACT)

    def test_log_kernel_l1_growth_contrast(self):
        base = VilenkinBase.parse("2").with_depth(9)
        w = make_weights("norlund_log")
        ns = [2 ** k for k in range(1, 10)]
        values = [v for _, v in kernel_l1_profile(w, base, ns)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("spec, depth", [("2", 12), ("2,3", 6), ("5,2", 4)])
    @pytest.mark.parametrize("weights", ["cesaro:0.5", "riesz_log"])
    def test_l1_profile_equals_per_order_kernels(self, spec, depth, weights):
        # the chunked rows have the bits of one kernel_for call per order
        base = VilenkinBase.parse(spec, depth)
        w = weights_from_spec(weights)
        step = max(1, summability._CHUNK_VALUES // base.size)
        ns = [2 + (7 * i) % (base.size - 1) for i in range(2 * step + 1)]
        expected = [(n, float(np.abs(kernel_for(w, base, n).values).mean())) for n in ns]
        assert kernel_l1_profile(w, base, ns) == expected

    @pytest.mark.parametrize("spec, depth", GRID_GROUPS)
    def test_kernel_mass_grid_equals_a_per_order_loop(self, spec, depth):
        # 57 live rows: on 2 x 12 (4 rows per chunk) the last chunk has one row
        base = VilenkinBase.parse(spec, depth)
        families = [weights_from_spec(s) for s in ALL_FAMILIES]
        loop = [0.0] * len(families)
        for i, w in enumerate(families):
            for n in grid_orders(base):
                if w.Q(n) > 0:
                    expected = 1.0 if w.mean_type == "norlund" else 1.0 - w.q(0) / w.Q(n)
                    loop[i] = max(loop[i], abs(kernel_for(w, base, n).integral() - expected))
        assert verify_kernel_mass(families, base, grid_orders(base)) == loop

    def test_tail_mass_shrinks_along_blocks(self):
        w = make_weights("constant")
        tails = [
            kernel_tail(w, BASE232, BASE232.cumprod[a], 1) for a in range(1, BASE232.depth + 1)
        ]
        assert all(b <= a + EXACT for a, b in zip(tails, tails[1:]))

    def test_tail_cut_validation(self):
        with pytest.raises(ValueError):
            kernel_tail(make_weights("constant"), BASE232, 4, 3)


class TestFejerDomination:
    @pytest.mark.parametrize("spec, depth", [("2", 12), ("2,3", 6), ("3", 5)])
    def test_equals_per_order_kernels(self, spec, depth):
        # the level kernels of one chunked synthesis give the per-order bits
        base = VilenkinBase.parse(spec, depth)
        for n in sorted({1, 2, 5, base.size // 3, base.size - 1, base.size, *base.cumprod[1:]}):
            top, bottom = order_stats(n, base)
            numerator = n * np.abs(fejer_kernel(base, n).values)
            denominator = np.zeros(base.size)
            for level in range(bottom, top + 1):
                m_l = base.cumprod[level]
                denominator += m_l * np.abs(fejer_kernel(base, m_l).values)
            live = denominator > 1e-12
            assert not np.any(~live & (numerator > 1e-12))
            expected = float(np.max(numerator[live] / denominator[live], initial=0.0))
            assert fejer_domination_constant(base, n) == expected

    def test_block_orders_ratio_at_most_one(self):
        base = VilenkinBase.parse("2,3,2,2")
        for r in range(base.depth + 1):
            c = fejer_domination_constant(base, base.cumprod[r])
            assert c <= 1.0 + EXACT

    def test_recorded_constant_mixed_base(self):
        # oracle run recorded max c = 6.1166 over n <= 36
        base = VilenkinBase.parse("2,3").with_depth(4)
        worst = max(fejer_domination_constant(base, n) for n in range(1, base.size + 1))
        assert math.isfinite(worst)
        assert worst <= 6.2

    def test_recorded_constant_walsh(self):
        # oracle run recorded max c = 2.8236 over n <= 64
        base = VilenkinBase.parse("2").with_depth(6)
        worst = max(fejer_domination_constant(base, n) for n in range(1, base.size + 1))
        assert math.isfinite(worst)
        assert worst <= 2.9


# A fault of relative size 1e-6 in the route each shared residual function
# checks must push the residual past its tolerance, so no check can pass by
# construction.
FAULT = 1 + 1e-6


def _scaled_first_row(character_block):
    def faulty(base, start, stop):
        block = character_block(base, start, stop)
        block[0] *= FAULT
        return block

    return faulty


def _scaled_psi_0(character_rows):
    def faulty(base, start, stop):
        for n, psi in enumerate(character_rows(base, start, stop), start=start):
            yield psi * FAULT if n == 0 else psi

    return faulty


def _shifted_entry(Q_prefix):
    def faulty(self, n):
        Q = Q_prefix(self, n)
        Q[n // 2] *= FAULT
        return Q

    return faulty


def _scaled_middle_entry(q_prefix):
    def faulty(self, n):
        q = q_prefix(self, n)
        q[n // 2] *= FAULT
        return q

    return faulty


def _scaled_table(make_table, factor=FAULT):
    def faulty(*args):
        table = make_table(*args)
        return dataclasses.replace(table, values=table.values * factor)

    return faulty


def _scaled_tenfold(make_table):
    # Young's bound has slack: ||f * g||_p / (||f||_p ||g||_1) is 0.2-0.42 on
    # these random inputs over 2,3,2, 2,2,2,2, 3,3,3 and 5,2,2, so a 2x fault
    # of the convolution read 0 on all four and a 4x fault on two.  Only a
    # fault past the slack can show.
    return _scaled_table(make_table, 10)


def _scaled_coefficient_1(forward):
    def faulty(f):
        coeffs = forward(f).coeffs.copy()
        coeffs[1] *= FAULT
        return Spectrum(f.base, coeffs)

    return faulty


def _scaled_result(fn):
    return lambda *args: fn(*args) * FAULT


def _scaled_first_entry(profile):
    # a uniform scale of every D_n leaves the linear complement identity true
    def faulty(*args):
        p = profile(*args)
        p[:1] *= FAULT
        return p

    return faulty


def _scaled_dft_entry(dft_matrix):
    # entry [1, 1] of every stage-engine DFT matrix; on 3,3,3 a literal
    # oracle that read these matrices matched the faulted engine
    def faulty(m, sign):
        mat = dft_matrix(m, sign).copy()
        mat[1, 1] *= FAULT
        return mat

    return faulty


def _shared_families():
    # one norlund family with kernel rows, one tmean family without
    return [make_weights("valpha", alpha=0.5), make_weights("riesz_log")]


def _scaled_psi_top(character_values):
    # psi_{M_r - 1} of the level-2 complement on 2,3,2 (M_2 = 6)
    return lambda base, n: character_values(base, n) * (FAULT if n == 5 else 1.0)


@pytest.mark.parametrize("owner, name, fault, residual, tolerance", [
    (transform, "character_block", _scaled_first_row,
     lambda: verify_orthonormality(BASE232), EXACT),
    (summability, "_character_rows", _scaled_psi_0,
     lambda: verify_dirichlet_integral(BASE232), EXACT),
    (WeightSequence, "Q_prefix", _shifted_entry,
     lambda: verify_abel_prefix_sum(make_weights("cesaro", alpha=0.5), 64), COMPOSED),
    (WeightSequence, "q_prefix", _scaled_middle_entry,
     lambda: verify_abel_prefix_sum(make_weights("cesaro", alpha=0.5), 64), COMPOSED),
    (summability, "_profile", _scaled_result,
     lambda: verify_kernel_abel([make_weights("valpha", alpha=0.5)], BASE232, [7])[0], COMPOSED),
    (summability, "_profile", _scaled_result,
     lambda: verify_kernel_mass([make_weights("blog", alpha=0.5, beta=1)], BASE232, [7])[0], EXACT),
    (summability, "_profile", _scaled_result,
     lambda: verify_mean_paths(random_step(BASE232, 12), [make_weights("riesz_log")], [7])[0],
     COMPOSED),
    (summability, "_character_rows", _scaled_psi_0,
     lambda: verify_mean_paths(random_step(BASE232, 12), [make_weights("riesz_log")], [7])[0],
     COMPOSED),
    (summability, "_character_rows", _scaled_psi_0,
     lambda: verify_stream_identities(random_step(BASE232, 12), _shared_families(), [7])[0], EXACT),
    (summability, "_character_rows", _scaled_psi_0,
     lambda: verify_stream_identities(random_step(BASE232, 12), _shared_families(), [7])[1][0],
     COMPOSED),
    (summability, "_character_rows", _scaled_psi_0,
     lambda: max(verify_stream_identities(random_step(BASE232, 12), _shared_families(), [7])[2]),
     COMPOSED),
    (transform, "_dft_matrix", _scaled_dft_entry,
     lambda: verify_mean_paths(
         random_step(BASE333, 12), [make_weights("valpha", alpha=0.5)], range(1, 28))[0],
     COMPOSED),
    (transform, "_dft_matrix", _scaled_dft_entry,
     lambda: verify_kernel_abel([make_weights("valpha", alpha=0.5)], BASE333, range(1, 28))[0],
     COMPOSED),
    (summability, "_profile", _scaled_first_entry,
     lambda: verify_dirichlet_complement(BASE232), COMPOSED),
    (summability, "character_values", _scaled_psi_top,
     lambda: verify_dirichlet_complement(BASE232), COMPOSED),
    (summability, "t_kernel", _scaled_table,
     lambda: verify_block_kernel_split(make_weights("cesaro", alpha=0.5), BASE232), COMPOSED),
    (transform, "forward", _scaled_coefficient_1,
     lambda: verify_fast_vs_naive(BASE232, random_step(BASE232, 21).values[None]), EXACT),
    (transform, "forward", _scaled_coefficient_1,
     lambda: verify_round_trip(random_step(BASE232, 21)), EXACT),
    (transform, "forward", _scaled_coefficient_1,
     lambda: verify_parseval(random_step(BASE232, 21)), EXACT),
    (transform, "convolve_spectral", _scaled_table,
     lambda: verify_convolution(random_step(BASE232, 21), random_step(BASE232, 22)), COMPOSED),
    (analysis, "convolve_spectral", _scaled_tenfold,
     lambda: verify_young(random_step(BASE232, 21), random_step(BASE232, 22)), EXACT),
], ids=["orthonormality", "dirichlet_integral", "abel_prefix_sum", "abel_prefix_sum_q", "kernel_abel",
        "kernel_mass", "mean_paths", "mean_paths_stream", "dirichlet_integral_shared_walk",
        "kernel_abel_shared_walk", "mean_paths_shared_walk", "mean_paths_dft_333", "kernel_abel_dft_333",
        "dirichlet_complement",
        "dirichlet_complement_psi", "block_kernel_split", "fast_vs_naive", "round_trip", "parseval",
        "convolution", "young"])
def test_shared_check_sees_a_fault(monkeypatch, owner, name, fault, residual, tolerance):
    assert residual() <= tolerance
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    assert residual() > tolerance


@pytest.mark.parametrize("order", [0, -3, 13])
@pytest.mark.parametrize("check", [
    lambda orders: verify_mean_paths(random_step(BASE232, 17), [make_weights("constant")], orders),
    lambda orders: verify_kernel_abel([make_weights("constant")], BASE232, orders),
    lambda orders: verify_kernel_mass([make_weights("constant")], BASE232, orders),
], ids=["mean_paths", "kernel_abel", "kernel_mass"])
def test_grid_checks_reject_impossible_orders(monkeypatch, check, order):
    # rejected before any character stream or stage-engine call, next to a good order
    calls = []
    for name in ("_character_stream", "_separable_apply", "inverse"):
        inner = getattr(summability, name)
        monkeypatch.setattr(
            summability, name, lambda *args, _name=name, _inner=inner: calls.append(_name) or _inner(*args)
        )
    with pytest.raises(ValueError, match=rf"^kernel order {order} outside \[1, 12\]$"):
        check([3, order])
    assert calls == []
