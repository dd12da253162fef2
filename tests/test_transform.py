"""Characters, fast-vs-naive transform agreement and convolution."""

import io
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin import transform
from vilenkin.analysis import lp_norm
from vilenkin.group import GroupPoint, VilenkinBase, decode_index, shift_table
from vilenkin.transform import (
    Spectrum,
    StepFunction,
    character,
    character_block,
    character_values,
    convolve,
    convolve_spectral,
    forward,
    forward_naive,
    forward_naive_batch,
    inverse,
    rademacher,
    read_complex_csv,
    verify_orthonormality,
)

BASE232 = VilenkinBase.parse("2,3,2")
SRC = Path(__file__).resolve().parent.parent / "src"
EXACT = 1e-12


def random_step(base, seed, complex_valued=True):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1, 1, base.size)
    if complex_valued:
        values = values + 1j * rng.uniform(-1, 1, base.size)
    return StepFunction(base, values)


# radices 4, 8, 9, 11 and 16, and a four-radix mix
WIDE_RADIX_SPECS = ["4,4,4", "8,8", "16,16", "9,4", "11,2", "2,3,5,7"]


def gathered_roots(base, n):
    """psi_n as the product, in increasing k, of the roots indexed by (n_k x_k) mod m_k."""
    literal = np.ones(base.size, dtype=np.complex128)
    for k, n_k in enumerate(decode_index(n, base)):
        if n_k:
            m = base.radices[k]
            literal *= transform._unit_roots(m)[(n_k * base.digit_table[:, k]) % m]
    return literal


class TestCharacters:
    def test_rademacher_values(self):
        base = VilenkinBase.parse("2,3,4")
        assert rademacher(0, GroupPoint(base, (1, 0, 0))) == pytest.approx(-1)
        assert rademacher(1, GroupPoint(base, (0, 0, 0))) == pytest.approx(1)
        assert rademacher(2, GroupPoint(base, (0, 0, 1))) == pytest.approx(1j)
        with pytest.raises(ValueError):
            rademacher(3, GroupPoint.zero(base))

    def test_character_zero_is_one(self):
        for rank in range(BASE232.size):
            x = GroupPoint.from_rank(BASE232, rank)
            assert character(0, x) == pytest.approx(1.0)

    def test_walsh_first_character_is_sign_of_first_digit(self):
        base = VilenkinBase.parse("2,2,2")
        for rank in range(base.size):
            x = GroupPoint.from_rank(base, rank)
            assert character(1, x) == pytest.approx((-1) ** x.coords[0])

    def test_multiplicativity_without_carries(self):
        # digits of M_1 and of 1 do not overlap, so the characters multiply
        m1 = BASE232.cumprod[1]
        for rank in range(BASE232.size):
            x = GroupPoint.from_rank(BASE232, rank)
            assert character(m1, x) * character(1, x) == pytest.approx(
                character(m1 + 1, x), abs=EXACT
            )

    def test_unimodular(self):
        for n in range(BASE232.size):
            np.testing.assert_allclose(
                np.abs(character_values(BASE232, n)), 1.0, atol=EXACT
            )

    def test_character_block_matches_scalar(self):
        block = character_block(BASE232, 0, BASE232.size)
        for n in range(BASE232.size):
            for rank in range(BASE232.size):
                x = GroupPoint.from_rank(BASE232, rank)
                assert block[n, rank] == pytest.approx(character(n, x), abs=EXACT)

    @pytest.mark.parametrize("spec", ["2,3,2", "5,2,2", "7,3", *WIDE_RADIX_SPECS])
    def test_values_gather_the_root_table(self, spec):
        base = VilenkinBase.parse(spec)
        for n in range(base.size):
            assert np.array_equal(character_values(base, n).view(float), gathered_roots(base, n).view(float))

    @pytest.mark.parametrize("spec", ["2,3,5", "7,3", "5,2,2", *WIDE_RADIX_SPECS])
    def test_partial_blocks_equal_the_scalar_character(self, spec):
        # blocks that start and stop off every digit boundary: each entry is
        # character() up to numpy's complex rounding, and bit for bit the
        # per-digit product of root-table entries
        base = VilenkinBase.parse(spec)
        points = [GroupPoint.from_rank(base, r) for r in range(base.size)]
        for start, stop in [(0, 1), (3, 4), (1, 8), (5, 13), (7, 7), (base.size - 4, base.size)]:
            block = character_block(base, start, stop)
            assert block.shape == (stop - start, base.size)
            for row, n in zip(block, range(start, stop)):
                scalar = np.array([character(n, x) for x in points])
                assert np.max(np.abs(row - scalar)) <= 4e-16
                assert np.array_equal(row.view(float), gathered_roots(base, n).view(float))

    @pytest.mark.parametrize("start, stop", [(-1, 2), (3, 2), (0, 13)])
    def test_block_range_error(self, start, stop):
        with pytest.raises(ValueError, match="bad frequency block"):
            character_block(BASE232, start, stop)

    def test_orthonormality_exhaustive(self):
        for base in (BASE232, VilenkinBase.parse("3,3,3"), VilenkinBase.parse("2,2,2,2")):
            assert verify_orthonormality(base) <= EXACT

    def test_range_error(self):
        with pytest.raises(ValueError):
            character(12, GroupPoint.zero(BASE232))
        for n in (12, -1):
            with pytest.raises(ValueError, match=rf"index {n} outside \[0, 12\)"):
                character_values(BASE232, n)


class TestForward:
    def test_constant_function(self):
        f = StepFunction(BASE232, np.full(BASE232.size, 2.5))
        coeffs = forward(f).coeffs
        assert coeffs[0] == pytest.approx(2.5, abs=EXACT)
        np.testing.assert_allclose(coeffs[1:], 0.0, atol=EXACT)

    def test_character_gives_delta_spectrum(self):
        for k in (0, 3, 7, 11):
            f = StepFunction(BASE232, character_values(BASE232, k))
            coeffs = forward(f).coeffs
            expected = np.zeros(BASE232.size)
            expected[k] = 1.0
            np.testing.assert_allclose(coeffs, expected, atol=EXACT)

    def test_two_point_hand_sum(self):
        base = VilenkinBase.parse("2")
        f = StepFunction(base, [1.0, 0.0])
        np.testing.assert_allclose(forward(f).coeffs, [0.5, 0.5], atol=EXACT)

    def test_matches_naive_on_random(self):
        for base in (BASE232, VilenkinBase.parse("3,3,3"), VilenkinBase.parse("2,3,2,4")):
            for seed in range(20):
                f = random_step(base, seed)
                fast = forward(f).coeffs
                naive = forward_naive(f).coeffs
                assert np.max(np.abs(fast - naive)) <= EXACT

    def test_naive_scratch_is_one_block(self):
        # each block (at most 2^22 values, 64 MiB) is conjugated in place and
        # released before the next one is built
        f = random_step(VilenkinBase.parse("2", 12), 5)
        tracemalloc.start()
        try:
            forward_naive(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 16 * 2**22

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(-1, 1, (8, BASE232.size))
        batch = forward_naive_batch(BASE232, values)
        for i in range(8):
            single = forward_naive(StepFunction(BASE232, values[i])).coeffs
            np.testing.assert_allclose(batch[i], single, atol=EXACT)


MAX_PROPERTY_SIZE = 512


@st.composite
def radix_lists(draw):
    """Radix lists with entries 2..16 and M_N <= MAX_PROPERTY_SIZE."""
    radices = [draw(st.integers(2, 16))]
    size = radices[0]
    while 2 * size <= MAX_PROPERTY_SIZE and draw(st.booleans()):
        radices.append(draw(st.integers(2, min(16, MAX_PROPERTY_SIZE // size))))
        size *= radices[-1]
    return radices


def assert_matches_naive_and_round_trips(f):
    coeffs = forward(f).coeffs
    assert np.max(np.abs(coeffs - forward_naive(f).coeffs)) <= EXACT
    assert np.max(np.abs(inverse(Spectrum(f.base, coeffs)).values - f.values)) <= EXACT


def assert_walsh_equals_hadamard(depth):
    # psi_n(x) = (-1)^popcount(n & x): the Sylvester-Hadamard matrix
    base = VilenkinBase.parse("2").with_depth(depth)
    hadamard = np.ones((1, 1))
    for _ in range(base.depth):
        hadamard = np.kron(hadamard, [[1, 1], [1, -1]])
    coeffs = np.random.default_rng(1).integers(-9, 10, base.size).astype(complex)
    np.testing.assert_array_equal(inverse(Spectrum(base, coeffs)).values, hadamard @ coeffs)
    return base


def assert_rows_equal_one_row_calls(spec, rows, sign):
    # a (rows, M_N) stack gives each row the bits of a call on it alone
    base = VilenkinBase.parse(spec).with_depth(3)
    rng = np.random.default_rng(rows)
    stack = rng.uniform(-1, 1, (rows, base.size)) + 1j * rng.uniform(-1, 1, (rows, base.size))
    out = transform._separable_apply(base, stack, sign)
    assert out.shape == (rows, base.size)
    for row, got in zip(stack, out):
        alone = transform._separable_apply(base, row, sign)
        assert alone.shape == (base.size,)
        assert np.array_equal(got.view(float), alone.view(float))
    return base


ROW_AXIS_SPECS = ["2", "3", "5", "7", "16", "2,3,5", "5,2"]


class TestStages:
    """Each stage kernel: the radix-2 butterfly and the DFT-matrix product."""

    @pytest.mark.parametrize("spec", [
        "2,2,2,2,2",  # butterflies only
        "7",  # one matrix stage on one row
        "3,2,2,2",  # matrix stage on the input, then butterflies
        "2,2,2,2,2,2,3",  # butterflies, then a matrix stage on 64 columns
        "5,2,3,4,2",  # alternating kinds
        "16,16",  # the largest radix
    ])
    def test_against_naive_and_round_trip(self, spec):
        assert_matches_naive_and_round_trips(random_step(VilenkinBase.parse(spec), 7))

    def test_walsh_butterflies_are_exact(self):
        assert_walsh_equals_hadamard(6)

    @pytest.mark.parametrize("sign", [-1, +1])
    @pytest.mark.parametrize("spec", ROW_AXIS_SPECS)
    @pytest.mark.parametrize("rows", [0, 1, 9])
    def test_row_axis_equals_one_row_calls(self, spec, rows, sign):
        assert_rows_equal_one_row_calls(spec, rows, sign)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(radices=radix_lists(), seed=st.integers(0, 2**32 - 1))
    def test_random_radix_lists(self, radices, seed):
        assert_matches_naive_and_round_trips(random_step(VilenkinBase(tuple(radices)), seed))


class TestTwoPass:
    """The cache-blocked engine above ``_BLOCK_VALUES``; small groups reach it under a patched block."""

    @pytest.fixture
    def two_pass_calls(self, monkeypatch):
        # a block of 4 values, and a count of the rows that went through the two passes
        monkeypatch.setattr(transform, "_BLOCK_VALUES", 4)
        calls = []
        two_pass = transform._two_pass

        def counted(base, vec, sign, out, divisor):
            calls.append(base.size)
            two_pass(base, vec, sign, out, divisor)

        monkeypatch.setattr(transform, "_two_pass", counted)
        return calls

    @pytest.mark.parametrize("block", [8, 16])
    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(radices=radix_lists(), seed=st.integers(0, 2**32 - 1))
    def test_random_radix_lists(self, block, radices, seed):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transform, "_BLOCK_VALUES", block)
            assert_matches_naive_and_round_trips(random_step(VilenkinBase(tuple(radices)), seed))

    @pytest.mark.parametrize("spec", ["32,2,2", "32,3", "9,2,2", "2,2,16,3"])
    def test_first_radix_above_the_block(self, spec, two_pass_calls):
        # the low group is the first digit alone, wider than the block
        base = VilenkinBase.parse(spec)
        assert_matches_naive_and_round_trips(random_step(base, 3))
        assert two_pass_calls == [base.size] * 2

    @pytest.mark.parametrize("depth", [4, 6, 7])
    def test_walsh_butterflies_are_exact(self, depth, two_pass_calls):
        base = assert_walsh_equals_hadamard(depth)
        assert two_pass_calls == [base.size]

    @pytest.mark.parametrize("sign", [-1, +1])
    @pytest.mark.parametrize("spec", ROW_AXIS_SPECS)
    @pytest.mark.parametrize("rows", [0, 1, 9])
    def test_row_axis_equals_one_row_calls(self, spec, rows, sign, two_pass_calls):
        base = assert_rows_equal_one_row_calls(spec, rows, sign)
        assert two_pass_calls == [base.size] * (2 * rows)  # the stack, then each row alone

    @pytest.mark.parametrize("sign", [-1, +1])
    @pytest.mark.parametrize("depth", [16, 17])
    def test_walsh_bits_equal_the_whole_vector_loop(self, depth, sign):
        # at the real block size, the butterflies of both passes add and subtract the same pairs
        base = VilenkinBase.parse("2", depth)
        assert base.size > transform._BLOCK_VALUES
        rng = np.random.default_rng(depth)
        vec = rng.uniform(-1, 1, base.size) + 1j * rng.uniform(-1, 1, base.size)
        whole = np.empty(base.size, dtype=np.complex128)
        transform._stages(base.radices, vec[None], sign, whole[None])
        assert np.array_equal(transform._separable_apply(base, vec, sign).view(float), whole.view(float))

    @pytest.mark.parametrize("block", [8, 16])
    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(radices=radix_lists(), seed=st.integers(0, 2**32 - 1))
    def test_random_radix_lists_on_two_workers(self, block, radices, seed):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transform, "_BLOCK_VALUES", block)
            patch.setattr(transform, "_worker_count", lambda: 2)
            assert_matches_naive_and_round_trips(random_step(VilenkinBase(tuple(radices)), seed))

    @pytest.mark.parametrize("sign", [-1, +1])
    @pytest.mark.parametrize("spec", ROW_AXIS_SPECS)
    @pytest.mark.parametrize("rows", [0, 1, 9])
    def test_row_axis_on_two_workers(self, spec, rows, sign, two_pass_calls, monkeypatch):
        monkeypatch.setattr(transform, "_worker_count", lambda: 2)
        base = assert_rows_equal_one_row_calls(spec, rows, sign)
        assert two_pass_calls == [base.size] * (2 * rows)

    @pytest.mark.parametrize("divisor", [1, 7])
    @pytest.mark.parametrize("sign", [-1, +1])
    @pytest.mark.parametrize("spec, depth", [("2", 17), ("2,3", 13), ("7", 6)])
    def test_bits_do_not_depend_on_the_worker_count(self, spec, depth, sign, divisor, monkeypatch):
        # at the real block, both passes have several blocks to share
        base = VilenkinBase.parse(spec, depth)
        assert base.size > transform._BLOCK_VALUES
        rng = np.random.default_rng(depth)
        stack = rng.uniform(-1, 1, (2, base.size)) + 1j * rng.uniform(-1, 1, (2, base.size))
        results = []
        for workers in (1, 2):
            monkeypatch.setattr(transform, "_worker_count", lambda: workers)
            results.append(transform._separable_apply(base, stack, sign, divisor))
        assert np.array_equal(results[0].view(float), results[1].view(float))

    def test_forward_divides_in_the_write_back(self):
        # the same division of the same values as dividing the finished transform
        base = VilenkinBase.parse("2,3,5", 10)
        values = random_step(base, 6).values
        whole = transform._separable_apply(base, values, -1)
        whole /= base.size
        assert np.array_equal(forward(StepFunction(base, values)).coeffs.view(float), whole.view(float))

    @pytest.mark.parametrize("failing", ["caller", "pool"])
    def test_a_failing_block_is_raised_once_every_block_finished(self, failing, monkeypatch):
        # Walsh 2^17 has four pass-1 blocks; the failing worker fails its first,
        # and the other, held back until then, runs the other three
        monkeypatch.setattr(transform, "_worker_count", lambda: 2)
        caller = threading.current_thread()
        stages = transform._stages
        failed = threading.Event()
        finished = []

        def failing_stages(radices, a, sign, out=None, spare=None):
            in_pool = threading.current_thread() is not caller
            if in_pool == (failing == "pool"):
                failed.set()
                raise RuntimeError(f"{failing} block failed")
            assert failed.wait(timeout=30)
            time.sleep(0.02)
            stages(radices, a, sign, out, spare)
            finished.append(in_pool)

        monkeypatch.setattr(transform, "_stages", failing_stages)
        f = random_step(VilenkinBase.parse("2", 17), 8)
        with pytest.raises(RuntimeError, match=f"{failing} block failed"):
            forward(f)
        assert finished == [failing == "caller"] * 3  # the other worker's blocks, all done
        monkeypatch.setattr(transform, "_stages", stages)
        whole = transform._stages(f.base.radices, f.values[None], -1)[0] / f.base.size
        assert np.array_equal(forward(f).coeffs.view(float), whole.view(float))

    def test_concurrent_callers_share_the_pool_thread(self, monkeypatch):
        # more calling threads than cores, switching often, on a pool made under the lock
        monkeypatch.setattr(transform, "_worker_count", lambda: 2)
        monkeypatch.setattr(transform, "_POOL", None)
        base = VilenkinBase.parse("2", 16)
        inputs = [random_step(base, seed) for seed in range(6)]
        expected = [transform._stages(base.radices, f.values[None], -1)[0] / base.size for f in inputs]
        equal = [[] for _ in inputs]

        def call(i):
            for _ in range(3):
                equal[i].append(np.array_equal(forward(inputs[i]).coeffs.view(float), expected[i].view(float)))

        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(inputs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert equal == [[True] * 3] * len(inputs)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_makes_its_own_pool_thread(self, tmp_path):
        # the parent's pool thread does not exist in a child; the alarm ends a child that waits for it
        script = (
            "import os, signal, numpy as np\n"
            "from vilenkin import transform\n"
            "from vilenkin.group import VilenkinBase\n"
            "transform._worker_count = lambda: 2\n"
            "base = VilenkinBase.parse('2', 16)\n"
            "vec = np.ones(base.size, dtype=complex)\n"
            "transform._separable_apply(base, vec, -1)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(20)\n"
            "    ok = transform._separable_apply(base, vec, -1)[0] == base.size\n"
            "    os._exit(0 if ok else 1)\n"
            "raise SystemExit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr

    def test_scratch_is_one_output_and_a_few_blocks(self, monkeypatch):
        # a whole-vector stage loop holds two M_N-sized arrays at once; each
        # of the two workers holds one block, plus numpy's ufunc buffers
        assert_scratch_is_one_output_and_a_few_blocks(VilenkinBase.parse("2", 18), monkeypatch)

    def test_matrix_radix_scratch_is_one_output_and_a_few_blocks(self, monkeypatch):
        # matrix stages in both passes, with two rows in each pass-1 block
        assert_scratch_is_one_output_and_a_few_blocks(VilenkinBase.parse("5", 8), monkeypatch)


def assert_scratch_is_one_output_and_a_few_blocks(base, monkeypatch):
    monkeypatch.setattr(transform, "_worker_count", lambda: 2)
    assert 2 * base.size > base.size + 4 * transform._BLOCK_VALUES
    vec = random_step(base, 4).values
    tracemalloc.start()
    try:
        transform._separable_apply(base, vec, -1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * (base.size + 4 * transform._BLOCK_VALUES)


class TestInverse:
    def test_round_trip_random(self):
        f = random_step(BASE232, 42)
        back = inverse(forward(f))
        assert np.max(np.abs(back.values - f.values)) <= EXACT

    def test_delta_spectrum_gives_character(self):
        for k in (1, 5):
            coeffs = np.zeros(BASE232.size, dtype=complex)
            coeffs[k] = 1.0
            g = inverse(Spectrum(BASE232, coeffs))
            np.testing.assert_allclose(g.values, character_values(BASE232, k), atol=EXACT)

    def test_parseval(self):
        for seed in range(10):
            f = random_step(BASE232, seed)
            coeffs = forward(f).coeffs
            lhs = np.mean(np.abs(f.values) ** 2)
            rhs = np.sum(np.abs(coeffs) ** 2)
            assert abs(lhs - rhs) <= EXACT


class TestConvolution:
    def test_full_resolution_dirichlet_reproduces(self):
        # D_{M_N} is M_N at 0 and vanishes elsewhere: brute-force character sum
        kernel_values = sum(
            character_values(BASE232, k) for k in range(BASE232.size)
        )
        kernel = StepFunction(BASE232, kernel_values)
        f = random_step(BASE232, 3)
        out = convolve(f, kernel)
        assert np.max(np.abs(out.values - f.values)) <= EXACT

    def test_commutative(self):
        for seed in range(5):
            f = random_step(BASE232, seed)
            g = random_step(BASE232, seed + 100)
            fg = convolve(f, g)
            gf = convolve(g, f)
            assert np.max(np.abs(fg.values - gf.values)) <= 1e-10

    def test_direct_vs_spectral(self):
        for seed in range(5):
            f = random_step(BASE232, seed)
            g = random_step(BASE232, seed + 50)
            direct = convolve(f, g)
            spectral = convolve_spectral(f, g)
            assert np.max(np.abs(direct.values - spectral.values)) <= 1e-10

    def test_characters_idempotent(self):
        for k in (0, 4, 9):
            psi = StepFunction(BASE232, character_values(BASE232, k))
            out = convolve_spectral(psi, psi)
            assert np.max(np.abs(out.values - psi.values)) <= 1e-10

    def test_spectral_multiplication(self):
        f = random_step(BASE232, 8)
        g = random_step(BASE232, 9)
        lhs = forward(convolve(f, g)).coeffs
        rhs = forward(f).coeffs * forward(g).coeffs
        assert np.max(np.abs(lhs - rhs)) <= EXACT

    def test_young_inequality(self):
        for seed in range(5):
            f = random_step(BASE232, seed)
            g = random_step(BASE232, seed + 7)
            conv = convolve(f, g)
            bound = lp_norm(g, 1)
            for p in (1.0, 2.0, np.inf):
                assert lp_norm(conv, p) <= lp_norm(f, p) * bound + EXACT

    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            convolve(random_step(BASE232, 0), random_step(VilenkinBase.parse("2,3"), 0))

    @pytest.mark.parametrize("spec", ["2,3,2", "5,2,2", "7,3", "2,2,2,2,2,2"])
    def test_equals_a_shift_table_loop(self, spec):
        # the same terms in the same order as one shift_table per nonzero g(t)
        base = VilenkinBase.parse(spec)
        f = random_step(base, 21)
        g_values = random_step(base, 22).values.copy()
        g_values[::3] = 0
        g = StepFunction(base, g_values)
        out = np.zeros(base.size, dtype=np.complex128)
        for t in range(base.size):
            if g.values[t] != 0:
                out += g.values[t] * f.values[shift_table(base, t)]
        assert np.array_equal(convolve(f, g).values.view(float), (out / base.size).view(float))


    @pytest.mark.parametrize("spec, depth", [("5,2", 5), ("2,3,5", 7), ("2", 12)])
    def test_blocks_cross_runs_of_zeros(self, spec, depth):
        # at least three full t-blocks and a partial one, with a run of zeros of
        # g across every block boundary, against one shift_table per nonzero g(t)
        base = VilenkinBase.parse(spec, depth)
        rows = transform._convolve_block_rows(base.size)
        count = 3 * rows + rows // 2 + 1
        gaps = np.ones(count, dtype=int)
        gaps[rows::rows] = 2 + np.arange(len(gaps[rows::rows])) % 3
        support = np.cumsum(gaps) - 1
        assert support[-1] < base.size
        g_values = np.zeros(base.size, dtype=np.complex128)
        g_values[support] = random_step(base, 24).values[support]
        f, g = random_step(base, 23), StepFunction(base, g_values)
        out = np.zeros(base.size, dtype=np.complex128)
        for t in support:
            out += g.values[t] * f.values[shift_table(base, t)]
        assert np.array_equal(convolve(f, g).values.view(float), (out / base.size).view(float))


class TestSerialization:
    def test_step_function_round_trip(self):
        f = random_step(BASE232, 11)
        buf = io.StringIO()
        f.to_csv(buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "rank,re,im"
        back = StepFunction.from_csv(BASE232, io.StringIO(text))
        np.testing.assert_array_equal(back.values, f.values)

    def test_spectrum_round_trip(self):
        s = forward(random_step(BASE232, 12))
        buf = io.StringIO()
        s.to_csv(buf)
        assert buf.getvalue().splitlines()[0] == "n,re,im"
        back = Spectrum.from_csv(BASE232, io.StringIO(buf.getvalue()))
        np.testing.assert_array_equal(back.coeffs, s.coeffs)

    def test_value_length_enforced(self):
        with pytest.raises(ValueError):
            StepFunction(BASE232, np.ones(5))

    def test_non_finite_values_rejected(self):
        base = VilenkinBase.parse("2,3")
        with pytest.raises(ValueError, match="non-finite value"):
            StepFunction(base, [np.nan, 1, 2, 3, 4, np.inf])
        with pytest.raises(ValueError, match="non-finite value"):
            StepFunction(base, np.full(base.size, complex(1.0, -np.inf)))
        with pytest.raises(ValueError, match="non-finite coefficient"):
            Spectrum(base, np.full(base.size, np.inf))
        with pytest.raises(ValueError, match="non-finite value"):
            random_step(base, 0) * np.inf

    @pytest.mark.parametrize("rows, message", [
        # repeated and negative indices: without the index check slots 1 and 2 stay unwritten
        (["0,1.0,0.0", "0,2.0,0.0", "-1,3.0,0.0", "-1,4.0,0.0"], "line 3: index 0, expected 1"),
        (["0,1.0,0.0", "2,2.0,0.0", "1,3.0,0.0", "3,4.0,0.0"], "line 3: index 2, expected 1"),
        (["0,1.0,0.0", "1,2.0", "2,3.0,0.0", "3,4.0,0.0"], "line 3: expected 'index,re,im'"),
        (["0,1.0,0.0", "1,2.0,0.0,5", "2,3.0,0.0", "3,4.0,0.0"], "line 3: expected"),
        (["0,1.0,0.0", "1,2.0,0.0", "x,3.0,0.0", "3,4.0,0.0"], "line 4: expected"),
        (["0,1.0,0.0", "1,2.0,0.0", "2,nan,0.0", "3,4.0,0.0"], "line 4: non-finite"),
        (["0,1.0,0.0", "1,2.0,0.0", "2,3.0,0.0", "3,4.0,-inf"], "line 5: non-finite"),
        (["0,1.0,0.0", "1,2.0,0.0", "2,3.0,0.0", "3,1e400,0.0"], "line 5: non-finite"),
    ])
    def test_malformed_rows_rejected(self, rows, message):
        text = "\n".join(["n,re,im"] + rows) + "\n"
        with pytest.raises(ValueError, match=message):
            read_complex_csv(io.StringIO(text), 4)

    def test_row_count_enforced(self):
        with pytest.raises(ValueError, match="expected 4 rows, got 3"):
            read_complex_csv(io.StringIO("n,re,im\n0,1,0\n1,1,0\n2,1,0\n"), 4)


class TestAdoption:
    """Results built by the module are adopted without a copy; caller arrays are copied."""

    BASE = VilenkinBase.parse("2,3,2")

    def results(self):
        f, g = random_step(self.BASE, 21), random_step(self.BASE, 22)
        spectrum = forward(f)
        buf = io.StringIO()
        f.to_csv(buf)
        text = buf.getvalue()
        return [
            ("forward", forward(f), [f.values]),
            ("inverse", inverse(spectrum), [spectrum.coeffs]),
            ("convolve_spectral", convolve_spectral(f, g), [f.values, g.values]),
            ("StepFunction.from_csv", StepFunction.from_csv(self.BASE, io.StringIO(text)), []),
            ("Spectrum.from_csv", Spectrum.from_csv(self.BASE, io.StringIO(text)), []),
            ("add", f + g, [f.values, g.values]),
            ("sub", f - g, [f.values, g.values]),
            ("mul", 2.5 * f, [f.values]),
        ]

    def test_results_are_read_only_and_alias_no_input(self):
        for name, result, inputs in self.results():
            array = result.coeffs if isinstance(result, Spectrum) else result.values
            assert array.dtype == np.complex128, name
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
            for source in inputs:
                assert not np.shares_memory(array, source), name

    @pytest.mark.parametrize("cls, field", [(StepFunction, "values"), (Spectrum, "coeffs")])
    def test_public_constructors_copy(self, cls, field):
        data = np.arange(self.BASE.size, dtype=np.complex128)
        frozen = cls(self.BASE, data)
        data[:] = -1
        assert np.array_equal(getattr(frozen, field), np.arange(self.BASE.size))
        assert not np.shares_memory(getattr(frozen, field), data)

    def test_adopted_arrays_keep_the_finiteness_check(self):
        base = VilenkinBase.parse("2,2,2,2")
        huge = StepFunction(base, np.full(base.size, 1.7e308))
        # 1e200 transforms to a finite spectrum whose square overflows
        large = StepFunction(base, np.full(base.size, 1e200))
        cases = [
            (lambda: forward(huge), "non-finite coefficient in a spectrum on G(2,2,2,2)"),
            (lambda: inverse(Spectrum(base, np.full(base.size, 1.7e308))),
             "non-finite value in a step function on G(2,2,2,2)"),
            (lambda: convolve_spectral(huge, huge),
             "non-finite coefficient in a spectrum on G(2,2,2,2)"),
            (lambda: convolve_spectral(large, large),
             "non-finite coefficient in a spectrum on G(2,2,2,2)"),
            (lambda: huge + huge, "non-finite value in a step function on G(2,2,2,2)"),
            (lambda: huge - (-1) * huge, "non-finite value in a step function on G(2,2,2,2)"),
            (lambda: huge * 2, "non-finite value in a step function on G(2,2,2,2)"),
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            for call, message in cases:
                with pytest.raises(ValueError, match=re.escape(message)):
                    call()

    def test_scalar_of_wider_type_gives_complex128(self):
        f = random_step(self.BASE, 23)
        product = f * np.longdouble(3)
        assert product.values.dtype == np.complex128
        assert np.array_equal(product.values, f.values * 3)


class TestCsvEquivalence:
    """The column-at-a-time writer and the bulk reader give the line-at-a-time results."""

    @staticmethod
    def read(rows, n):
        return read_complex_csv(io.StringIO("\n".join(["n,re,im"] + rows) + "\n"), n)

    @pytest.mark.parametrize("index", ["1.0", "#1"])
    def test_index_only_int_accepts_is_rejected(self, index):
        message = f"line 3: expected 'index,re,im', got '{index},2.0,0.0'"
        with pytest.raises(ValueError, match=re.escape(message)):
            self.read(["0,1.0,0.0", f"{index},2.0,0.0"], 2)

    def test_whitespace_signs_and_underscores(self):
        rows = ["0,1.0,0.0", "   ", " 1 , 2.5 , -0.0 ", "\t", "+2,1_0.5,-3"]
        got = self.read(rows, 3)
        assert np.array_equal(got, [1.0, 2.5, complex(10.5, -3.0)])
        assert np.signbit(got[1].imag)

    def test_bad_line_numbers_count_blank_lines(self):
        rows = ["0,1.0,0.0", "", "  ", "1,2.0,0.0", "\t", "2,x,0.0"]
        with pytest.raises(ValueError, match=re.escape("line 7: expected 'index,re,im', got '2,x,0.0'")):
            self.read(rows, 3)

    def test_crlf_line_ends(self):
        text = "n,re,im\r\n0,1.5,-2.0\r\n1,0.25,3.0\r\n\r\n"
        assert np.array_equal(read_complex_csv(io.StringIO(text), 2), [1.5 - 2j, 0.25 + 3j])

    def test_writer_bytes_equal_one_repr_per_value(self):
        special = [-0.0, 5e-324, 1e16, 1e-5, 123456789.0, 0.1, -2.5e-310, 1.7976931348623157e308]
        values = np.array(special, dtype=float) + 1j * np.array(special[::-1], dtype=float)
        buf = io.StringIO()
        transform.write_complex_csv(buf, "n", values)
        reference = "n,re,im\n" + "".join(
            f"{i},{float(v.real)!r},{float(v.imag)!r}\n" for i, v in enumerate(values)
        )
        assert buf.getvalue() == reference

    def test_large_spectrum_round_trips_through_the_bulk_path(self, monkeypatch):
        base = VilenkinBase.parse("2", 16)
        rng = np.random.default_rng(5)
        values = rng.standard_normal(base.size) * 10.0 ** rng.integers(-300, 300, base.size)
        s = Spectrum(base, values + 1j * rng.standard_normal(base.size))
        buf = io.StringIO()
        s.to_csv(buf)

        def no_fallback(rows):
            raise AssertionError("a well-formed file fell back to the line loop")

        monkeypatch.setattr(transform, "_read_rows_one_at_a_time", no_fallback)
        back = Spectrum.from_csv(base, io.StringIO(buf.getvalue()))
        assert np.array_equal(back.coeffs.view(np.int64), s.coeffs.view(np.int64))


class TestComplexityTrend:
    def test_fast_path_scales_subquadratically(self):
        sizes, times = [], []
        rng = np.random.default_rng(0)
        for depth in (8, 10, 12):
            base = VilenkinBase.parse("2").with_depth(depth)
            f = StepFunction(base, rng.uniform(-1, 1, base.size))
            forward(f)  # warm stage tables
            times.append(min(_time_once(forward, f) for _ in range(15)))
            sizes.append(base.size)
        slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
        assert slope < 1.9, f"fast path scaled like M^{slope:.2f}"


def _time_once(fn, arg):
    start = time.perf_counter()
    fn(arg)
    return time.perf_counter() - start
