"""Norms, oscillation profiles, maximal operators and sweeps."""

import io
import itertools
import math

import numpy as np
import pytest

from vilenkin import analysis, summability
from vilenkin.analysis import (
    ConvergenceRecord,
    convergence_sweep,
    full_maximal_fejer,
    lebesgue_profile,
    lp_norm,
    records_to_csv,
    restricted_maximal,
    vilenkin_lebesgue_profile,
    weak11_ratio,
    weak_lp,
)
from vilenkin.group import GroupPoint, VilenkinBase, group_sub
from vilenkin.summability import make_weights, mean, partial_sum, weights_from_spec
from vilenkin.transform import StepFunction, character_values, forward

BASE232 = VilenkinBase.parse("2,3,2")
EXACT = 1e-12


def random_step(base, seed):
    rng = np.random.default_rng(seed)
    return StepFunction(
        base, rng.uniform(-1, 1, base.size) + 1j * rng.uniform(-1, 1, base.size)
    )


def spike(base, r):
    m_r = base.cumprod[r]
    return StepFunction(base, np.where(np.arange(base.size) % m_r == 0, float(m_r), 0.0))


class TestNorms:
    def test_characters_have_unit_norm(self):
        for k in (0, 3, 9):
            psi = StepFunction(BASE232, character_values(BASE232, k))
            for p in (1.0, 2.0, 3.5, math.inf):
                assert lp_norm(psi, p) == pytest.approx(1.0, abs=EXACT)

    def test_spike_has_unit_l1_mass(self):
        for r in range(BASE232.depth + 1):
            assert lp_norm(spike(BASE232, r), 1) == pytest.approx(1.0, abs=EXACT)

    @pytest.mark.parametrize("p", [1, 2, 120, 1e4])
    def test_constants_at_large_exponents(self, p):
        # |f|^p underflows (1e-3) or overflows (1e10) long before p = 1e4
        for c in (1e-3, 1.0, 1e10):
            f = StepFunction(VilenkinBase.parse("2", 8), np.full(256, c))
            assert lp_norm(f, p) == pytest.approx(c, rel=EXACT)
        assert lp_norm(StepFunction(BASE232, np.zeros(BASE232.size)), p) == 0.0

    def test_no_overflow_below_the_max(self):
        f = StepFunction(BASE232, np.full(BASE232.size, 1e10))
        assert lp_norm(f, 40) == pytest.approx(1e10, rel=EXACT)
        # the spike of height M_r on a set of measure 1/M_r
        for r in range(1, BASE232.depth + 1):
            m_r = BASE232.cumprod[r]
            expected = m_r * m_r ** (-1 / 120)
            assert lp_norm(spike(BASE232, r), 120) == pytest.approx(expected, rel=EXACT)

    def test_weak_below_strong(self):
        for seed in range(100):
            f = random_step(BASE232, seed)
            for p in (1.0, 2.0):
                assert weak_lp(f, p) <= lp_norm(f, p) + EXACT

    def test_weak_norm_exact_on_indicator(self):
        # |f| = c on a set of measure mu: weak L1 value is exactly c * mu
        f = spike(BASE232, 2)
        assert weak_lp(f, 1) == pytest.approx(1.0, abs=EXACT)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    def test_weak_norm_matches_a_level_loop(self, p):
        # The definition, literally: t * mu(|f| >= t)^(1/p) at every distinct
        # nonzero level t, on data with ties and zeros.
        rng = np.random.default_rng(11)
        for spec in ("2,3,2", "5,2,3", "2,2,2,2,2,2"):
            base = VilenkinBase.parse(spec)
            values = rng.integers(0, 5, base.size) * rng.choice([1.0, 1j], base.size)
            for f in (StepFunction(base, values), random_step(base, 3)):
                mags = np.abs(f.values)
                levels = [t for t in np.unique(mags) if t > 0]
                expected = max((t * np.mean(mags >= t) ** (1 / p) for t in levels), default=0.0)
                assert weak_lp(f, p) == expected
        assert weak_lp(StepFunction(BASE232, np.zeros(BASE232.size)), p) == 0.0

    def test_exponent_validation(self):
        f = random_step(BASE232, 0)
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)
        with pytest.raises(ValueError):
            weak_lp(f, 0.9)
        with pytest.raises(ValueError):
            lp_norm(f, math.nan)
        with pytest.raises(ValueError):
            weak_lp(f, math.nan)


class TestLebesgueProfile:
    def test_constant_function_all_zero(self):
        f = StepFunction(BASE232, np.full(BASE232.size, 3.0))
        for rank in (0, 5, 11):
            profile = lebesgue_profile(f, GroupPoint.from_rank(BASE232, rank))
            np.testing.assert_allclose(profile, 0.0, atol=EXACT)

    def test_half_indicator(self):
        base = VilenkinBase.parse("2,2,2")
        indicator = StepFunction(base, (np.arange(8) % 2 == 0).astype(float))
        x = GroupPoint(base, (0, 1, 0))  # inside I_1(0)
        profile = lebesgue_profile(indicator, x)
        assert profile[0] == pytest.approx(0.5, abs=EXACT)
        np.testing.assert_allclose(profile[1:], 0.0, atol=EXACT)

    def test_spike_seen_from_outside(self):
        f = spike(BASE232, 2)
        x = GroupPoint.unit(BASE232, 0)
        profile = lebesgue_profile(f, x)
        assert profile[0] == pytest.approx(1.0, abs=EXACT)
        np.testing.assert_allclose(profile[1:], 0.0, atol=EXACT)

    def test_last_entry_always_zero(self):
        f = random_step(BASE232, 1)
        for rank in range(BASE232.size):
            profile = lebesgue_profile(f, GroupPoint.from_rank(BASE232, rank))
            assert profile[-1] == 0.0


def oscillation_oracle(f, x, a):
    """Literal double loop over shifted cosets and points."""
    base = f.base
    fx = f.values[x.rank]
    m_a = base.cumprod[a]
    total = 0.0
    for s in range(a):
        for shift in range(1, base.radices[s]):
            y = group_sub(x, GroupPoint.unit(base, s, shift))
            acc = 0.0
            for t in range(base.size):
                if t % m_a == y.rank % m_a:
                    acc += abs(f.values[t] - fx)
            total += base.cumprod[s] * acc / base.size
    return total


class TestVilenkinLebesgueProfile:
    def test_constant_function_zero(self):
        f = StepFunction(BASE232, np.ones(BASE232.size))
        profile = vilenkin_lebesgue_profile(f, GroupPoint.zero(BASE232), BASE232.depth)
        np.testing.assert_allclose(profile, 0.0, atol=EXACT)

    def test_character_against_oracle(self):
        base = VilenkinBase.parse("2,2,2,2")
        f = StepFunction(base, character_values(base, 1))
        x = GroupPoint.zero(base)
        profile = vilenkin_lebesgue_profile(f, x, base.depth)
        oracle = [oscillation_oracle(f, x, a) for a in range(1, base.depth + 1)]
        np.testing.assert_allclose(profile, oracle, atol=EXACT)
        # |psi_1 - 1| integrates to 2/M_A over the shifted coset at scale A
        np.testing.assert_allclose(profile, [2 / base.cumprod[a] for a in range(1, 5)], atol=EXACT)
        assert all(b < a for a, b in zip(profile, profile[1:]))

    def test_spike_profile_decays_past_depth(self):
        f = spike(BASE232, 2)
        x = GroupPoint.unit(BASE232, 0)
        profile = vilenkin_lebesgue_profile(f, x, BASE232.depth)
        expected = [min(1.0, BASE232.cumprod[2] / BASE232.cumprod[a]) for a in range(1, 4)]
        np.testing.assert_allclose(profile, expected, atol=EXACT)

    def test_random_matches_oracle(self):
        f = random_step(BASE232, 3)
        x = GroupPoint.from_rank(BASE232, 7)
        profile = vilenkin_lebesgue_profile(f, x, BASE232.depth)
        oracle = [oscillation_oracle(f, x, a) for a in range(1, BASE232.depth + 1)]
        np.testing.assert_allclose(profile, oracle, atol=EXACT)

    def test_depth_validation(self):
        f = random_step(BASE232, 4)
        with pytest.raises(ValueError):
            vilenkin_lebesgue_profile(f, GroupPoint.zero(BASE232), 4)


class TestMaximalOperators:
    def test_constant_character_everywhere_one(self):
        f = StepFunction(BASE232, character_values(BASE232, 0))
        for family in ("S_at_Mn", "L_at_Mn"):
            out = restricted_maximal(f, family)
            np.testing.assert_allclose(out.values, 1.0, atol=EXACT)
        np.testing.assert_allclose(full_maximal_fejer(f, 12).values, 1.0, atol=EXACT)

    def test_partial_sum_family_on_spike(self):
        f = spike(BASE232, 2)
        out = restricted_maximal(f, "S_at_Mn")
        # recorded bound: the sup is attained and equals the spike height
        assert np.max(out.values) == pytest.approx(6.0, abs=EXACT)
        for r in range(BASE232.depth + 1):
            member = partial_sum(f, BASE232.cumprod[r])
            assert np.all(out.values + EXACT >= np.abs(member.values))

    def test_fejer_maximal_dominates_members(self):
        f = random_step(BASE232, 5)
        out = full_maximal_fejer(f, BASE232.size)
        w = make_weights("constant")
        for n in (1, 4, 12):
            member = mean(f, w, n, "kernel")
            assert np.all(out.values + EXACT >= np.abs(member.values))

    def test_monotone_in_family_size(self):
        f = random_step(BASE232, 6)
        small = full_maximal_fejer(f, 4)
        large = full_maximal_fejer(f, 12)
        assert np.all(large.values + EXACT >= small.values)

    def test_weighted_family_needs_weights(self):
        f = random_step(BASE232, 7)
        with pytest.raises(ValueError):
            restricted_maximal(f, "t_at_Mn")
        out = restricted_maximal(f, "t_at_Mn", make_weights("cesaro", alpha=0.5))
        assert np.all(out.values >= 0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            restricted_maximal(random_step(BASE232, 8), "bogus")


class TestWeak11Ratio:
    def test_constant_character_ratio_one(self):
        f = StepFunction(BASE232, character_values(BASE232, 0))
        assert weak11_ratio(restricted_maximal(f, "S_at_Mn"), f) == pytest.approx(1.0, abs=EXACT)

    def test_spike_family_stable(self):
        for r in range(BASE232.depth + 1):
            f = spike(BASE232, r)
            ratio = weak11_ratio(restricted_maximal(f, "S_at_Mn"), f)
            assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_scale_invariance(self):
        f = random_step(BASE232, 9)
        maximal = restricted_maximal(f, "S_at_Mn")
        r1 = weak11_ratio(maximal, f)
        r2 = weak11_ratio(3.0 * maximal, 3.0 * f)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_zero_function_rejected(self):
        zero = StepFunction(BASE232, np.zeros(BASE232.size))
        with pytest.raises(ValueError):
            weak11_ratio(zero, zero)


class TestConvergenceSweep:
    def test_constant_function_zero_errors(self):
        f = StepFunction(BASE232, np.full(BASE232.size, 1.5))
        records = convergence_sweep(f, make_weights("constant"), [1, 4, 12], [1, 2, math.inf], [0])
        for rec in records:
            assert rec.error <= EXACT
            assert rec.point_errors[0] <= EXACT

    def test_error_drops_by_factor_four(self):
        base = VilenkinBase.parse("2,3,2,2")
        digits = base.digit_table
        values = np.cos(2 * np.pi * digits[:, 0] / 2) + 0.5 * np.sin(2 * np.pi * digits[:, 1] / 3)
        f = StepFunction(base, values)
        records = convergence_sweep(f, make_weights("constant"), [4, base.size], [1], [])
        by_n = {rec.n: rec.error for rec in records if rec.mean_kind == "constant"}
        assert by_n[4] > 0
        assert by_n[base.size] <= by_n[4] / 4

    def test_block_orders_add_partial_sum_records(self):
        f = random_step(BASE232, 10)
        records = convergence_sweep(f, make_weights("constant"), [2, 5], [1], [])
        kinds = {(rec.n, rec.mean_kind) for rec in records}
        assert (2, "partial_sum") in kinds  # 2 = M_1
        assert (5, "partial_sum") not in kinds

    def test_pointwise_error_decreasing_at_continuity_point(self):
        base = VilenkinBase.parse("2,3,2,2,2")
        rng = np.random.default_rng(7)
        coarse = rng.uniform(-1, 1, base.cumprod[2])
        f = StepFunction(base, coarse[np.arange(base.size) % base.cumprod[2]])
        w = make_weights("constant")
        errors = [
            abs(mean(f, w, base.cumprod[r], "kernel").values[0] - f.values[0])
            for r in range(2, base.depth + 1)
        ]
        assert all(b < a for a, b in zip(errors, errors[1:]))

    @pytest.mark.parametrize("rank", [99, 12, -1])
    def test_point_rank_outside_group_rejected(self, rank):
        f = random_step(BASE232, 12)
        with pytest.raises(ValueError, match=f"point rank {rank} outside"):
            convergence_sweep(f, make_weights("constant"), [2], [1], [0, rank])

    def test_csv_layout(self):
        f = random_step(BASE232, 11)
        records = convergence_sweep(f, make_weights("constant"), [2], [1, math.inf], [0, 3])
        buf = io.StringIO()
        records_to_csv(records, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "mean_kind,n,p,error,point_rank,point_error"
        # per (kind, p): one norm row plus one row per point
        assert len(lines) == 1 + 2 * 2 * (1 + 2)
        assert any(",inf," in line for line in lines[1:])


def chunk_rows(base):
    """Rows per stage-engine call of the chunked synthesis on ``base``."""
    return max(1, summability._CHUNK_VALUES // base.size)


def counted(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that counts its calls."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def counted_stage_engine(monkeypatch):
    """Count the stage-engine calls of ``summability._synthesize``, stacked or one-row."""
    stacked = counted(monkeypatch, summability, "_separable_apply")
    one_row = counted(monkeypatch, summability, "inverse")
    return stacked, one_row


class TestSweepChecksFirst:
    @pytest.mark.parametrize("p_list, bad", [([1, 0.5], "0.5"), ([math.nan], "nan"), ([2, -1], "-1")])
    def test_bad_exponent_before_any_transform(self, p_list, bad, monkeypatch):
        forward_calls = counted(monkeypatch, analysis, "forward")
        stacked, one_row = counted_stage_engine(monkeypatch)
        f = random_step(BASE232, 14)
        with pytest.raises(ValueError, match=f"^norm exponent must be >= 1 or inf, got {bad}$"):
            convergence_sweep(f, make_weights("constant"), [1, 2, 4], p_list, [0])
        assert forward_calls == stacked == one_row == []

    @pytest.mark.parametrize("orders, points", [([2, 13], [0]), ([2, 3], [0, 12])])
    def test_bad_order_or_point_before_any_transform(self, orders, points, monkeypatch):
        forward_calls = counted(monkeypatch, analysis, "forward")
        stacked, one_row = counted_stage_engine(monkeypatch)
        with pytest.raises(ValueError, match="outside"):
            f = random_step(BASE232, 15)
            convergence_sweep(f, make_weights("constant"), orders, [1], points)
        assert forward_calls == stacked == one_row == []

    def test_counters_see_a_good_sweep(self, monkeypatch):
        # the patched names are the ones the sweep calls
        forward_calls = counted(monkeypatch, analysis, "forward")
        stacked, one_row = counted_stage_engine(monkeypatch)
        convergence_sweep(random_step(BASE232, 16), make_weights("constant"), [1, 2, 4], [1])
        assert len(forward_calls) == 1 and len(stacked) + len(one_row) >= 1


def across_chunks(base, step):
    """Orders whose sweep rows put a block order's mean last in a chunk and leave one row over.

    step - 1 orders off the blocks, then a block order M (its mean row ends the
    first chunk, its partial-sum row opens the second), then step more: 2 step + 1
    rows in all.  A small group repeats its orders to fill the chunks.
    """
    blocks = set(base.cumprod)
    plain = itertools.cycle([n for n in range(3, base.size + 1) if n not in blocks])
    block = next(m for m in base.cumprod if m >= 3)
    return [*itertools.islice(plain, step - 1), block, *itertools.islice(plain, step)]


def per_order_records(f, w, orders, p_list, points):
    """The sweep as a loop of public one-order calls and lp_norm."""
    blocks = set(f.base.cumprod)
    records = []
    for n in orders:
        targets = [(w.kind, mean(f, w, n, "kernel"))]
        if n in blocks:
            targets.append(("partial_sum", partial_sum(f, n)))
        for kind, t_n in targets:
            residual = t_n - f
            point_errors = {rank: float(abs(residual.values[rank])) for rank in points}
            for p in p_list:
                records.append(ConvergenceRecord(kind, n, float(p), lp_norm(residual, p), point_errors))
    return records


class TestRowAxisEqualsPerOrderCalls:
    @pytest.mark.parametrize(
        "spec, depth, weights",
        [
            ("2", 10, "cesaro:0.5"),
            ("2,3", 6, "riesz_log"),
            ("2", 12, "norlund_log"),
            ("5,2", 4, "blog:0.5:1"),
        ],
    )
    def test_sweep_records_across_chunk_boundaries(self, spec, depth, weights):
        base = VilenkinBase.parse(spec, depth)
        w = weights_from_spec(weights)
        step = chunk_rows(base)
        orders = across_chunks(base, step)
        rows = sum(1 + (n in base.cumprod) for n in orders)
        assert rows == 2 * step + 1 and orders[step - 1] in base.cumprod
        f = random_step(base, depth)
        points = [0, 1, base.size - 1]
        p_list = [1, 2.0, 3, math.inf]
        records = convergence_sweep(f, w, orders, p_list, points)
        assert records == per_order_records(f, w, orders, p_list, points)

    def test_sweep_of_many_chunks(self):
        # M_N = 4096: a chunk holds a few rows, so 1..300 runs through ~75 of them
        base = VilenkinBase.parse("2", 12)
        assert chunk_rows(base) < 8
        f = random_step(base, 3)
        w = make_weights("constant")
        orders = range(1, 301)
        assert convergence_sweep(f, w, orders, [1, math.inf], [7]) == per_order_records(
            f, w, orders, [1, math.inf], [7]
        )

    @pytest.mark.parametrize("spec, depth", [("2", 12), ("2,3", 6), ("3", 5)])
    @pytest.mark.parametrize("family", ["S_at_Mn", "L_at_Mn", "t_at_Mn"])
    def test_restricted_maximal_equals_per_level_loop(self, spec, depth, family):
        base = VilenkinBase.parse(spec, depth)
        f = random_step(base, 17)
        w = make_weights("norlund_log") if family == "L_at_Mn" else weights_from_spec("blog:0.5:1")
        sup = np.zeros(base.size)
        for m_r in base.cumprod:
            if family == "S_at_Mn":
                level = partial_sum(f, m_r)
            elif w.Q(m_r) > 0:
                level = mean(f, w, m_r, "kernel")
            else:
                continue
            sup = np.maximum(sup, np.abs(level.values))
        out = restricted_maximal(f, family, w)
        assert np.array_equal(out.values.view(float), StepFunction(base, sup).values.view(float))

    def test_fejer_maximal_equals_out_of_place_loop(self):
        # one reused buffer gives the bits of a fresh array per order
        base = VilenkinBase.parse("2,3", 6)
        f = random_step(base, 18)
        sup = np.zeros(base.size)
        for n, _, block in summability._character_stream(base, forward(f).coeffs):
            sup = np.maximum(sup, np.abs(block) / n)
        out = full_maximal_fejer(f, base.size)
        assert np.array_equal(out.values.view(float), StepFunction(base, sup).values.view(float))
