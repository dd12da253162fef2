"""Mixed-radix coding, group arithmetic and coset geometry."""

import itertools

import numpy as np
import pytest

from vilenkin.group import (
    GroupPoint,
    VilenkinBase,
    coset_measure,
    coset_members,
    coset_of,
    decode_index,
    encode_index,
    group_add,
    group_sub,
    negate_rank,
    order_stats,
    shift_table,
    _translates,
)

BASE23 = VilenkinBase.parse("2,3")
BASE232 = VilenkinBase.parse("2,3,2")
BASE222 = VilenkinBase.parse("2,2,2")


class TestBase:
    def test_cumprod(self):
        assert BASE232.cumprod == (1, 2, 6, 12)
        assert BASE232.size == 12
        assert BASE232.depth == 3

    def test_parse_with_depth_cycles(self):
        assert VilenkinBase.parse("2,3", depth=5).radices == (2, 3, 2, 3, 2)
        assert VilenkinBase.parse("2,3,2,4").radices == (2, 3, 2, 4)

    def test_rejects_bad_radices(self):
        with pytest.raises(ValueError):
            VilenkinBase((2, 1, 3))
        with pytest.raises(ValueError):
            VilenkinBase(())
        with pytest.raises(ValueError):
            VilenkinBase.parse("2,x")

    def test_digit_table_matches_decode(self):
        for rank in range(BASE232.size):
            assert tuple(BASE232.digit_table[rank]) == decode_index(rank, BASE232)

    def test_prefix_groups_are_kept_by_the_base(self):
        base = VilenkinBase.parse("2,3,5")
        groups = [base.covering(m) for m in base.cumprod[1:]]
        assert [g.radices for g in groups] == [(2,), (2, 3), (2, 3, 5)]
        assert groups[-1] is base
        assert all(base.covering(g.size) is g for g in groups)  # built once, then kept
        assert VilenkinBase((7,)).covering(3) == VilenkinBase((7,))

    def test_prefix_digits_are_the_low_digits(self):
        # rank r of G(m_0..m_{K-1}) holds the first K digits of every rank = r mod M_K
        base = VilenkinBase.parse("2,3,2,5")
        for prefix in map(base.covering, base.cumprod[1:]):
            np.testing.assert_array_equal(
                base.digit_table[:, : prefix.depth],
                prefix.digit_table[np.arange(base.size) % prefix.size],
            )

    def test_covering_is_the_smallest_prefix_that_fits(self):
        base = VilenkinBase.parse("2,3", depth=5)  # M_K: 2, 6, 12, 36, 72
        expected = {0: 2, 1: 2, 2: 2, 3: 6, 6: 6, 7: 12, 12: 12, 13: 36, 72: 72, 500: 72}
        assert {n: base.covering(n).size for n in expected} == expected
        assert base.covering(72) is base and base.covering(500) is base


class TestIndexCoding:
    def test_decode_hand_value(self):
        # 1*M_0 + 2*M_1 = 1 + 4 = 5 over (2,3)
        assert decode_index(5, BASE23) == (1, 2)

    def test_decode_zero(self):
        assert decode_index(0, BASE232) == (0, 0, 0)

    def test_decode_by_enumeration(self):
        # brute-force: the unique digit tuple with sum d_j * M_j = 6
        matches = [
            digits
            for digits in itertools.product(range(2), range(2), range(2))
            if digits[0] + 2 * digits[1] + 4 * digits[2] == 6
        ]
        assert matches == [(0, 1, 1)]
        assert decode_index(6, BASE222) == (0, 1, 1)

    def test_encode_examples(self):
        assert encode_index((1, 2), BASE23) == 5
        assert encode_index((0, 0, 0), BASE232) == 0

    def test_round_trip_exhaustive(self):
        bases = (
            BASE23,
            BASE232,
            BASE222,
            VilenkinBase.parse("3,4,5"),
            VilenkinBase.parse("10,10,10,10"),  # exhaustive up to M_N = 10^4
        )
        for base in bases:
            seen = set()
            for n in range(base.size):
                digits = decode_index(n, base)
                assert encode_index(digits, base) == n
                seen.add(digits)
            assert len(seen) == base.size

    def test_range_errors(self):
        with pytest.raises(ValueError):
            decode_index(12, BASE232)
        with pytest.raises(ValueError):
            decode_index(-1, BASE232)
        with pytest.raises(ValueError):
            encode_index((1, 3), BASE23)  # digit 3 outside radix 3
        with pytest.raises(ValueError):
            encode_index((1,), BASE23)


class TestGroupArithmetic:
    def test_hand_addition(self):
        x = GroupPoint(BASE23, (1, 2))
        assert group_add(x, x).coords == (0, 1)

    def test_identity_element(self):
        zero = GroupPoint.zero(BASE232)
        for rank in range(BASE232.size):
            x = GroupPoint.from_rank(BASE232, rank)
            assert group_add(x, zero) == x

    def test_sub_inverts_add_exhaustive(self):
        points = [GroupPoint.from_rank(BASE23, r) for r in range(BASE23.size)]
        for x, y in itertools.product(points, points):
            assert group_sub(group_add(x, y), y) == x

    def test_abelian_group_axioms_exhaustive(self):
        points = [GroupPoint.from_rank(BASE23, r) for r in range(BASE23.size)]
        zero = GroupPoint.zero(BASE23)
        for x, y in itertools.product(points, points):
            assert x + y == y + x
        for x, y, z in itertools.product(points, points, points):
            assert (x + y) + z == x + (y + z)
        for x in points:
            assert x + zero == x
            assert x - x == zero

    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            group_add(GroupPoint.zero(BASE23), GroupPoint.zero(BASE232))

    def test_bad_coordinates(self):
        with pytest.raises(ValueError):
            GroupPoint(BASE23, (0, 3))
        with pytest.raises(ValueError):
            GroupPoint(BASE23, (0,))

    def test_shift_table_matches_pointwise_sub(self):
        for t in range(BASE232.size):
            table = shift_table(BASE232, t)
            tp = GroupPoint.from_rank(BASE232, t)
            for x in range(BASE232.size):
                xp = GroupPoint.from_rank(BASE232, x)
                assert table[x] == group_sub(xp, tp).rank

    @pytest.mark.parametrize("spec", ["2,3,2", "5,2,2", "7,3", "2,2,2,2,2,2", "11", "3,2,5,2"])
    def test_translates_match_pointwise_sub(self, spec):
        # every t, shuffled and repeated, as one table: row i is x - t_i for every x
        base = VilenkinBase.parse(spec)
        t_ranks = np.random.default_rng(3).permutation(np.tile(np.arange(base.size), 2))
        points = [GroupPoint.from_rank(base, r) for r in range(base.size)]
        table = _translates(base, t_ranks)
        assert table.shape == (len(t_ranks), base.size) and table.dtype == np.int64
        for t, row in zip(t_ranks, table):
            expected = np.array([group_sub(x, points[t]).rank for x in points])
            assert np.array_equal(row, expected)
            assert np.array_equal(shift_table(base, t), expected)
        assert _translates(base, []).shape == (0, base.size)

    @pytest.mark.parametrize("t", [12, -1])
    def test_translate_range_error(self, t):
        for translate in (lambda: shift_table(BASE232, t), lambda: _translates(BASE232, [0, t, 3])):
            with pytest.raises(ValueError, match=rf"index {t} outside \[0, 12\)"):
                translate()

    def test_negate_rank(self):
        zero = GroupPoint.zero(BASE232)
        for t in range(BASE232.size):
            tp = GroupPoint.from_rank(BASE232, t)
            assert negate_rank(BASE232, t) == group_sub(zero, tp).rank


class TestCosets:
    def test_rank_zero_coset_is_whole_group(self):
        for rank in range(BASE232.size):
            assert coset_of(GroupPoint.from_rank(BASE232, rank), 0) == 0
        assert len(coset_members(BASE232, 0, 0)) == BASE232.size

    def test_enumerated_coset_base23(self):
        # x_0 = 1 picks exactly the 3 points of 6 with first digit 1
        x = GroupPoint(BASE23, (1, 0))
        cid = coset_of(x, 1)
        members = coset_members(BASE23, 1, cid)
        expected = [r for r in range(6) if decode_index(r, BASE23)[0] == 1]
        assert sorted(members.tolist()) == expected

    def test_measures_sum_to_one(self):
        for n in range(BASE232.depth + 1):
            m_n = BASE232.cumprod[n]
            total = sum(coset_measure(BASE232, n) for _ in range(m_n))
            assert total == pytest.approx(1.0, abs=1e-15)

    def test_partition(self):
        for n in range(BASE232.depth + 1):
            m_n = BASE232.cumprod[n]
            counted = np.zeros(BASE232.size, dtype=int)
            for cid in range(m_n):
                members = coset_members(BASE232, n, cid)
                assert len(members) == BASE232.size // m_n
                counted[members] += 1
            assert np.all(counted == 1)

    def test_range_error(self):
        with pytest.raises(ValueError):
            coset_of(GroupPoint.zero(BASE232), 4)


class TestOrderStats:
    def test_from_decode(self):
        # 4 = (0, 2) over (2,3)
        assert decode_index(4, BASE23) == (0, 2)
        assert order_stats(4, BASE23) == (1, 1)

    def test_single_digit(self):
        base = VilenkinBase.parse("2,3,2,2")
        for k in range(base.depth):
            m_k = base.cumprod[k]
            assert order_stats(m_k, base) == (k, k)

    def test_two_digits(self):
        base = VilenkinBase.parse("2,3,2,2")
        for k in range(1, base.depth):
            m_k = base.cumprod[k]
            assert order_stats(m_k + 1, base) == (k, 0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            order_stats(0, BASE23)

    def test_boundary_block(self):
        assert order_stats(BASE23.size, BASE23) == (2, 2)
