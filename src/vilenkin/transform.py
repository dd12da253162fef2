"""Vilenkin characters, fast mixed-radix transform and convolution.

The character psi_n(x) = prod_k r_k(x)^{n_k} with r_k(x) = exp(2*pi*i*x_k/m_k)
is a tensor product over coordinates, so the transform runs one stage per
radix m_k, each a size-m_k DFT over the digit x_k.  Total cost is
O(M_N * sum_k m_k) against O(M_N^2) for the literal sum.

Each stage works on a flat view of each row.  The engine takes a
(rows, M_N) stack, and a single vector is the one-row case.  Stage k reads
every row as the C-order (M_N/m_k, m_k) matrix whose column index is the
digit x_k, and writes the transformed (m_k, M_N/m_k) matrix: the new digit n_k
becomes the slowest index and x_{k+1} reaches stride 1 for the next stage, so
every stage reads its digit at stride 1 and no transpose is ever copied back.
After the last stage the digits stand in natural order n = n_0 + M_1 n_1 + ...
A radix-2 stage is an add/sub butterfly; any other radix is one matrix
product per row with the cached DFT matrix of size m_k, so each row gets the
bits of a call on that row alone.  The butterfly adds and subtracts exactly,
where the DFT matrix of size 2 holds exp(i*pi) = -1 + 1.2e-16i, so results
differ from a matrix stage in the last bits.

Every call, of any size or stack, runs that loop in cache-sized blocks of
``_BLOCK_VALUES`` = 2^15 complex values (512 KiB, which stay in L2 cache with
their stage temporaries, where a stage over a larger vector would stream it
from memory and back once per digit), through the two passes of
:func:`_two_pass` (the four-step split of D. H. Bailey, "FFTs in external or
hierarchical memory", J. Supercomputing 4, 1990): pass 1 runs the low digits
up to the block on blocks of whole rows, and pass 2 sweeps each higher digit
in place (:func:`_digit_sweep`).  Nothing is copied out or transposed, and
the digits stay in natural order.

The blocks of a pass, and the chunks of a digit, are independent, and numpy
lets go of the GIL inside its ufunc loops and ``matmul``, so
:func:`_in_workers` runs them on the calling thread and at most one pool
thread, made by the first pass of more than one block, never at import.
Every group up to the block and every group of radices 2, 4, 8 and 16 keep
the bits of the whole-vector loop, and no group's bits depend on the number
of workers, on which worker ran a block or on how many rows share the call.
Above the block, a matrix stage on a product of another shape may move the
last bit (seen at radices 3, 5 and 7 and on 2,3 x 12 and x 13, 2,3,5 x 12
and 2,3,5,7 x 8; 2,3,5 x 10 kept every bit).

Normalization: the forward transform carries the factor 1/M_N, so that
coeffs[n] equals the exact Haar integral of f * conj(psi_n); the inverse
carries no factor.  The factor is one rule on every call: the float64 view
of the result times ``1.0 / M_N``, the products numpy's complex division by
M_N computes, except that a zero component keeps its sign.

The literal oracles never read the stage engine.  One literal transform,
:func:`_literal_forward`, serves :func:`forward_naive` and
:func:`verify_fast_vs_naive` a cache block of characters at a time, the
block rule direct :func:`convolve` takes its terms by.

:class:`StepFunction` and :class:`Spectrum` are two subclasses of one frozen
container, ``_Container``, which holds the one check: its constructor stores a
read-only copy, :func:`_adopt` a fresh array as it is, and its CSV methods use
the subclass's index column.  A subclass names only its field, error nouns
and CSV index.
"""

from __future__ import annotations

import bisect
import cmath
import contextlib
import os
import threading
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .group import GroupPoint, VilenkinBase, _check_same_base, _translates, decode_index


@dataclass(frozen=True)
class _Container:
    """A read-only complex array ``_field`` with one finite entry per rank of ``base``."""

    base: VilenkinBase

    def __post_init__(self) -> None:
        self._hold(np.array(getattr(self, self._field), dtype=np.complex128))

    def _hold(self, data: np.ndarray) -> None:
        """Store ``data`` itself, set read-only once it holds one finite entry per rank."""
        base = self.base
        if data.shape != (base.size,):
            raise ValueError(f"expected {base.size} {self._noun}s for {base}, got shape {data.shape}")
        if not np.isfinite(data.view(np.float64)).all():
            raise ValueError(f"non-finite {self._noun} in {self._owner} on {base}")
        data.setflags(write=False)
        object.__setattr__(self, self._field, data)

    def to_csv(self, path) -> None:
        write_complex_csv(path, self._index, getattr(self, self._field))

    @classmethod
    def from_csv(cls, base: VilenkinBase, path):
        return _adopt(cls, base, read_complex_csv(path, base.size))


@dataclass(frozen=True)
class StepFunction(_Container):
    """Complex function constant on rank-N cosets, one value per rank."""

    values: np.ndarray
    _field, _noun, _owner, _index = "values", "value", "a step function", "rank"

    def integral(self) -> complex:
        """Exact Haar integral (1/M_N) * sum of the values."""
        return complex(self.values.mean())

    def __add__(self, other: "StepFunction") -> "StepFunction":
        _check_same_base(self, other)
        return _adopt(StepFunction, self.base, self.values + other.values)

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        _check_same_base(self, other)
        return _adopt(StepFunction, self.base, self.values - other.values)

    def __mul__(self, scalar: complex) -> "StepFunction":
        return _adopt(StepFunction, self.base, self.values * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class Spectrum(_Container):
    """Fourier coefficients coeffs[n] for n < M_N."""

    coeffs: np.ndarray
    _field, _noun, _owner, _index = "coeffs", "coefficient", "a spectrum", "n"


def _adopt(cls, base: VilenkinBase, data: np.ndarray):
    """A ``cls`` on ``data`` itself, checked and set read-only but not copied.

    Only for arrays this module has just made and that nothing else holds;
    the public constructors copy, so a caller's array never aliases a
    frozen one.
    """
    out = object.__new__(cls)
    object.__setattr__(out, "base", base)
    out._hold(np.asarray(data, dtype=np.complex128))
    return out


@lru_cache(maxsize=64)
def _unit_roots(m: int) -> np.ndarray:
    """Table exp(2*pi*i*j/m) for j < m."""
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    roots.setflags(write=False)
    return roots


@lru_cache(maxsize=64)
def _dft_matrix(m: int, sign: int) -> np.ndarray:
    """Size-m DFT matrix W[a, b] = exp(sign * 2*pi*i*a*b/m) from the root table."""
    roots = _unit_roots(m)
    ab = np.outer(np.arange(m), np.arange(m)) % m
    mat = roots[ab] if sign > 0 else np.conj(roots[ab])
    mat.setflags(write=False)
    return mat


def rademacher(k: int, x: GroupPoint) -> complex:
    """Generalized Rademacher value exp(2*pi*i*x_k/m_k)."""
    if not 0 <= k < x.base.depth:
        raise ValueError(f"coordinate index {k} outside [0, {x.base.depth})")
    return complex(_unit_roots(x.base.radices[k])[x.coords[k]])


def character(n: int, x: GroupPoint) -> complex:
    """psi_n(x) = prod_k r_k(x)^{n_k}; unimodular, psi_0 = 1."""
    base = x.base
    out = 1.0 + 0.0j
    for k, n_k in enumerate(decode_index(n, base)):
        if n_k:
            m = base.radices[k]
            out *= _unit_roots(m)[(n_k * x.coords[k]) % m]
    return complex(out)


def character_values(base: VilenkinBase, n: int) -> np.ndarray:
    """psi_n sampled at every rank: the one-row case of :func:`character_block`.

    n goes through :func:`decode_index` first, so an index outside [0, M_N)
    is rejected under its own name.
    """
    decode_index(n, base)
    return character_block(base, n, n + 1)[0]


def character_block(base: VilenkinBase, start: int, stop: int) -> np.ndarray:
    """Rows psi_n over all ranks for n in [start, stop), built literally.

    Entry [i, r] is psi_{start+i} at the point of rank r, as
    :func:`_character_rows` yields it.
    """
    if not 0 <= start <= stop <= base.size:
        raise ValueError(f"bad frequency block [{start}, {stop})")
    out = np.empty((stop - start, base.size), dtype=np.complex128)
    for row, psi in zip(out, _character_rows(base, start, stop)):
        row[:] = psi
    return out


def _character_rows(base: VilenkinBase, start: int, stop: int):
    """Yield psi_n over every rank for n in [start, stop), each valid until the next step.

    This is the one literal character builder.  The digits of n are row n of
    ``base.digit_table``.  psi_0 is ones; the digit row psi_{a M_j} of
    :func:`_digit_row` is built the first time an index has digit a at
    place j and is yielded as it is for a one-digit n; every other psi_n is
    the product of the rows of its nonzero digits in increasing place order,
    the factors :func:`character` takes in the same order.
    """
    rows: dict[tuple[int, int], np.ndarray] = {}  # (j, a) -> psi_{a M_j}
    product = np.empty(base.size, dtype=np.complex128)
    for digits in base.digit_table[start:stop].tolist():
        places = [(j, a) for j, a in enumerate(digits) if a]
        for place in places:
            if place not in rows:
                rows[place] = _digit_row(base, *place)
        if not places:
            yield np.ones(base.size, dtype=np.complex128)
        elif len(places) == 1:
            yield rows[places[0]]
        else:
            psi = np.multiply(rows[places[0]], rows[places[1]], out=product)
            for place in places[2:]:
                psi *= rows[place]
            yield psi


def _digit_row(base: VilenkinBase, j: int, a: int) -> np.ndarray:
    """psi_{a M_j} over every rank, read-only.

    Rank r holds digit x_j on axis 1 of the C-order (M_N/M_{j+1}, m_j, M_j)
    view, so the row is the roots r_j^{a x_j}, read from the root table at
    (a x_j) mod m_j, broadcast over the other digits.  The stage engine's DFT
    matrices are never read, so a fault in them cannot reach this row.
    """
    m = base.radices[j]
    row = np.empty(base.size, dtype=np.complex128)
    row.reshape(-1, m, base.cumprod[j])[...] = _unit_roots(m)[(a * np.arange(m)) % m, None]
    row.setflags(write=False)
    return row


def verify_orthonormality(base: VilenkinBase) -> float:
    """Largest deviation from the identity of the Gram matrix of psi_0 .. psi_{M_N-1}.

    Built from the literal :func:`character_block`; it holds M_N^2 entries,
    so callers bound M_N.
    """
    block = character_block(base, 0, base.size)
    gram = block @ np.conj(block).T / base.size
    return float(np.max(np.abs(gram - np.eye(base.size))))


# Complex values in one cache block of the two-pass engine (512 KiB).  A
# block and the stage temporaries made from it stay in a 1-2 MiB L2 cache,
# where a stage over a whole vector above it streams M_N values from memory
# and back once per digit.  Of 2^13 .. 2^16, 2^15 ran the 2^20 Walsh and 7^7
# transforms fastest.  Pass 2 has a digit to sweep at M_N > _BLOCK_VALUES.
_BLOCK_VALUES = 1 << 15


def _separable_apply(base: VilenkinBase, vec: np.ndarray, sign: int, divisor: int = 1) -> np.ndarray:
    """The transform of each row over ``divisor``: one size-m_k DFT stage per coordinate.

    ``vec`` is one vector of M_N values or a (rows, M_N) stack, possibly of
    no rows; the result has its shape.  The whole stack goes through
    :func:`_two_pass` at once, and each row keeps the bits of a call on it
    alone.  A divisor of 1 divides nothing.
    """
    a = np.asarray(vec, dtype=np.complex128)
    out = np.empty(a.shape, dtype=np.complex128)
    _two_pass(base, a.reshape(-1, base.size), sign, out.reshape(-1, base.size), divisor)
    return out


def _scale(src: np.ndarray, dst: np.ndarray, factor: float) -> None:
    """Write ``src * factor`` into ``dst``, on the float64 views of both.

    These are the products numpy's complex division by a real M computes,
    (re + im*0) * (1/M) and (im - re*0) * (1/M), except that a zero
    component keeps its sign.
    """
    np.multiply(src.view(np.float64), factor, out=dst.view(np.float64))


def _stages(
    radices: tuple[int, ...], a: np.ndarray, sign: int, out: np.ndarray, spare: np.ndarray | None
) -> None:
    """The stage loop on the (rows, M) stack ``a``, M the product of ``radices``, into ``out``.

    Stage k reads the (rows, M/m_k, m_k) view of the previous stage's output
    and writes the (rows, m_k, M/m_k) view of the next, so the digits come
    out in natural order.  The stages write alternately into the contiguous
    (rows, M) array ``out`` and the flat ``spare`` of at least rows * M
    values, ending in ``out``, so the loop allocates nothing; with one radix
    ``spare`` goes unused and may be None.
    """
    rows, size = a.shape
    last = len(radices) - 1
    for k, m in enumerate(radices):
        v = a.reshape(rows, size // m, m)
        a = (out if (last - k) % 2 == 0 else spare[: rows * size]).reshape(rows, m, size // m)
        if m == 2:
            np.add(v[:, :, 0], v[:, :, 1], out=a[:, 0])
            np.subtract(v[:, :, 0], v[:, :, 1], out=a[:, 1])
        else:
            np.matmul(_dft_matrix(m, sign), v.transpose(0, 2, 1), out=a)


def _two_pass(base: VilenkinBase, vec: np.ndarray, sign: int, out: np.ndarray, divisor: int) -> None:
    """Write the transform of each row of ``vec`` over ``divisor`` into ``out`` in two cache-blocked passes.

    ``vec`` and ``out`` are (rows, M_N) stacks.  The digits split at the
    largest K with M_K <= ``_BLOCK_VALUES`` (at least one digit), so K = N
    up to the block, and both stacks are read as the C-order
    (rows * M_N/M_K, M_K) matrix whose row is the high rank and whose column
    is the low rank.  Pass 1 runs :func:`_stages` of G(m_0..m_{K-1}) on a
    block of whole matrix rows at a time, between the block's own rows of
    ``out`` and one spare block sized by the rows present, leaving each row
    in natural low-digit order; up to the block it is the whole transform.
    Pass 2 is one :func:`_digit_sweep` over ``out`` per high digit, in place,
    so the digits stay in natural order.  The division is :func:`_scale` by
    ``1.0 / divisor`` on the last write: inside the last digit's chunks, or
    inside pass 1's blocks when there is no high digit.  Each pass, and each
    digit of pass 2, spreads its blocks over :func:`_in_workers`, and each
    worker holds its own one block of scratch.
    """
    split = max(1, bisect.bisect_right(base.cumprod, _BLOCK_VALUES) - 1)
    low = base.radices[:split]
    width = base.cumprod[split]
    src, dst = vec.reshape(-1, width), out.reshape(-1, width)
    height = len(src)
    rows = max(1, min(height, _BLOCK_VALUES // width))
    factor = None if divisor == 1 else 1.0 / divisor

    def low_digits(starts: Iterator[int]) -> None:
        spare = np.empty(rows * width, dtype=np.complex128) if len(low) > 1 else None
        for lo in starts:
            block = dst[lo : lo + rows]
            _stages(low, src[lo : lo + rows], sign, block, spare)
            if factor is not None and split == base.depth:
                _scale(block, block, factor)

    _in_workers(low_digits, range(0, height, rows))
    for j in range(split, base.depth):
        _digit_sweep(out, base.radices[j], base.cumprod[j], sign, factor if j == base.depth - 1 else None)


def _digit_sweep(out: np.ndarray, m: int, stride: int, sign: int, factor: float | None) -> None:
    """Transform the digit of radix ``m`` and place value ``stride`` of ``out`` in place.

    ``out`` is read as the C-order (M_N/(m*stride), m, stride) array whose
    middle axis is the digit, and each slab of it as chunks of
    ``_BLOCK_VALUES // m`` columns (the last of a slab may be narrower), so
    a chunk is m contiguous rows of one block at most.  At radix 2 the
    add/sub butterfly runs on its two rows through one scratch row; any
    other radix is the DFT matrix times the chunk, written to an (m, width)
    scratch and copied back.  Unless ``factor`` is None, the copy back is
    :func:`_scale` by it.  The chunks are spread over :func:`_in_workers`,
    each worker holding its own scratch.
    """
    slabs = out.reshape(-1, m, stride)
    cols = max(1, _BLOCK_VALUES // m)
    per_slab = -(-stride // cols)

    def chunks(starts: Iterator[int]) -> None:
        scratch = np.empty((1 if m == 2 else m) * cols, dtype=np.complex128)
        for index in starts:
            slab, part = divmod(index, per_slab)
            chunk = slabs[slab, :, part * cols : (part + 1) * cols]
            width = chunk.shape[1]
            if m == 2:
                a, b = chunk
                result = scratch[:width]
                np.add(a, b, out=result)
                np.subtract(a, b, out=b)
                if factor is not None:
                    _scale(b, b, factor)
                chunk = a  # the sums go back to the first row
            else:
                result = np.matmul(_dft_matrix(m, sign), chunk, out=scratch[: m * width].reshape(m, width))
            if factor is None:
                chunk[...] = result
            else:
                _scale(result, chunk, factor)

    _in_workers(chunks, range(len(slabs) * per_slab))


# (pid, executor) of the one pool thread of _in_workers, made by the first
# pass with more than one block in this process, never at import.
_POOL = None
_POOL_LOCK = threading.Lock()


def _worker_count() -> int:
    """Threads that share the blocks of a pass: the caller and at most one pool thread.

    numpy lets go of the GIL inside its ufunc loops and ``matmul``, so two
    threads run two blocks at once.  A third would hold a third block of
    scratch, and two is the count measured.
    """
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(2, usable)


def _in_workers(run: Callable[[Iterator[int]], None], starts: range) -> None:
    """Run the blocks at ``starts``: ``run`` takes an iterator of block starts and runs each.

    With one block or none, or one worker, the caller runs them all.
    Otherwise the caller and the pool thread share one iterator, each taking
    the next block when it has finished one, so a worker that the system
    holds back leaves its blocks to the other instead of holding up the pass.
    ``next`` on a range iterator is one step under the GIL, so every block
    runs once.  The call returns or raises only once both have stopped, so
    no worker still writes after it; a failing worker's exception is raised
    then, the caller's first.  The worker a block falls to never changes
    its bits.
    """
    shared = iter(starts)
    if len(starts) <= 1 or _worker_count() == 1:
        run(shared)
        return
    later = _pool().submit(run, shared)
    try:
        run(shared)
    finally:
        later.exception()  # waits for the pool thread's blocks
    later.result()


def _pool():
    """The one-thread executor of :func:`_in_workers`, made again in a forked child."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            _POOL = (os.getpid(), ThreadPoolExecutor(max_workers=1, thread_name_prefix="vilenkin-block"))
        return _POOL[1]


def forward(f: StepFunction) -> Spectrum:
    """Fast transform: coeffs[n] = (1/M_N) * sum_x f(x) * conj(psi_n(x))."""
    return _adopt(Spectrum, f.base, _separable_apply(f.base, f.values, -1, f.base.size))


def inverse(spectrum: Spectrum) -> StepFunction:
    """Reconstruction sum_n coeffs[n] * psi_n, exact on depth-N data."""
    return _adopt(StepFunction, spectrum.base, _separable_apply(spectrum.base, spectrum.coeffs, +1))


def forward_naive(f: StepFunction) -> Spectrum:
    """Literal O(M_N^2) transform; the oracle the fast path is checked against."""
    return _adopt(Spectrum, f.base, _literal_forward(f.base, f.values[None])[0])


def _literal_block_rows(size: int) -> int:
    # Rows of one cache block of values (see _BLOCK_VALUES), for both literal oracles.
    return max(1, _BLOCK_VALUES // size)


def _literal_forward(base: VilenkinBase, values) -> np.ndarray:
    """The literal-sum transform of each row of the (rows, M_N) stack ``values``.

    One walk of :func:`_character_rows` fills a reused buffer of conjugated
    rows, and each row of ``values`` meets the whole buffer in a matrix-vector
    product of its own, so it gets the bits of a call on it alone.  numpy
    sends a one-row product to its dot routine, which can round otherwise,
    so the buffer has two rows or more and the last block reuses stale ones.
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 2 or values.shape[1] != base.size:
        raise ValueError(f"expected rows of length {base.size}")
    out = np.empty_like(values)
    buffer = np.empty((min(max(2, _literal_block_rows(base.size)), base.size), base.size), dtype=np.complex128)
    psi = _character_rows(base, 0, base.size)
    for lo in range(0, base.size, len(buffer)):
        for row, psi_n in zip(buffer, psi):
            np.conjugate(psi_n, out=row)
        out[:, lo : lo + len(buffer)] = np.matmul(buffer, values[:, :, None])[:, : base.size - lo, 0]
    return out / base.size


def convolve(f: StepFunction, g: StepFunction) -> StepFunction:
    """(f * g)(x) = (1/M_N) * sum_t f(x - t) g(t), by direct summation.

    The nonzero g(t) are taken a block of t at a time, with the x - t table of
    the block from :func:`group._translates`, never from the transform.  Each
    block's terms g(t) f(x - t) are stacked under the running sum and reduced
    down axis 0, so every x still adds its terms one at a time in increasing t.
    """
    _check_same_base(f, g)
    base = f.base
    out = np.zeros(base.size, dtype=np.complex128)
    support = np.flatnonzero(g.values)
    step = _literal_block_rows(base.size)
    stack = np.empty((min(step, len(support)) + 1, base.size), dtype=np.complex128)
    for lo in range(0, len(support), step):
        t = support[lo : lo + step]
        rows = stack[: len(t) + 1]
        rows[0] = out
        np.multiply(g.values[t, None], f.values[_translates(base, t)], out=rows[1:])
        np.add.reduce(rows, axis=0, out=out)
    return _adopt(StepFunction, base, out / base.size)


def convolve_spectral(f: StepFunction, g: StepFunction) -> StepFunction:
    """Convolution through the spectrum: coefficients multiply pointwise.

    The coefficients of f multiply those of g in place, in g's fresh
    transform, a block at a time on :func:`_in_workers`; the product is
    adopted once, and f's coefficients are freed before the inverse.
    """
    _check_same_base(f, g)
    base = f.base
    spectrum_f = _separable_apply(base, f.values, -1, base.size)
    product = _separable_apply(base, g.values, -1, base.size)

    def multiply(starts: Iterator[int]) -> None:
        for lo in starts:
            block = product[lo : lo + _BLOCK_VALUES]
            np.multiply(spectrum_f[lo : lo + _BLOCK_VALUES], block, out=block)

    _in_workers(multiply, range(0, base.size, _BLOCK_VALUES))
    del spectrum_f
    return inverse(_adopt(Spectrum, base, product))


def _deviation(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def verify_fast_vs_naive(base: VilenkinBase, values) -> float:
    """Largest |forward - forward_naive| over the rows of ``values`` and their frequencies."""
    oracle = _literal_forward(base, values)
    fast = (forward(StepFunction(base, row)).coeffs for row in values)
    return max(_deviation(a, b) for a, b in zip(fast, oracle))


def verify_round_trip(f: StepFunction) -> float:
    """Largest pointwise |inverse(forward(f)) - f|."""
    return _deviation(inverse(forward(f)).values, f.values)


def verify_parseval(f: StepFunction) -> float:
    """|(1/M_N) sum |f|^2 - sum |coeffs|^2|, Parseval's identity for the fast transform."""
    return float(abs(np.mean(np.abs(f.values) ** 2) - np.sum(np.abs(forward(f).coeffs) ** 2)))


def verify_convolution(f: StepFunction, g: StepFunction) -> float:
    """Largest pointwise deviation of the direct :func:`convolve` from :func:`convolve_spectral`."""
    return _deviation(convolve(f, g).values, convolve_spectral(f, g).values)


def write_complex_csv(path, index_name: str, values: np.ndarray) -> None:
    """CSV with columns (index, re, im); repr floats, '.' decimal point.

    A list's repr joins the reprs of its floats with ", ", so each column's
    strings come from one ``repr`` of a chunk of ``_BLOCK_VALUES`` rows, and
    the whole text is never held at once.
    """
    values = np.asarray(values, dtype=np.complex128)
    _write_text(path, _csv_chunks(index_name, values))


def _csv_chunks(index_name: str, values: np.ndarray) -> Iterator[str]:
    """The header line of :func:`write_complex_csv`, then the text of each chunk of its rows."""
    yield f"{index_name},re,im\n"
    for lo in range(0, len(values), _BLOCK_VALUES):
        chunk = values[lo : lo + _BLOCK_VALUES]
        re_text = repr(chunk.real.tolist())[1:-1].split(", ")
        im_text = repr(chunk.imag.tolist())[1:-1].split(", ")
        yield "".join([f"{i},{re},{im}\n" for i, re, im in zip(range(lo, lo + len(chunk)), re_text, im_text)])


def _write_text(path, pieces: Iterable[str]) -> None:
    """Write each string of ``pieces`` in turn to a stream, or to a file path as ASCII with '\\n' line ends.

    A file is opened first, so a failure part way (a full disk, say) leaves the pieces written before it.
    """
    if not hasattr(path, "write"):
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            return _write_text(fh, pieces)
    for piece in pieces:
        path.write(piece)


def read_complex_csv(path, expected_length: int) -> np.ndarray:
    """Read the (index, re, im) rows of :func:`write_complex_csv`.

    Row i must carry index i and finite values; any other row raises
    ``ValueError`` naming its line.  Blank lines are skipped.  All rows are
    parsed by one ``np.loadtxt`` call, whose result stands only when every
    index is its row number and every value finite; on any other outcome the
    rows are numbered and read again one at a time, which names the first
    bad line and also takes what ``float`` accepts and ``loadtxt`` does not
    (``1_0.5``).  Only that fallback numbers the lines.
    """
    with contextlib.nullcontext(path) if hasattr(path, "read") else open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    rows = list(filter(str.strip, lines[1:]))
    if len(rows) != expected_length:
        raise ValueError(f"expected {expected_length} rows, got {len(rows)}")
    bulk = _read_rows_bulk(rows)
    if bulk is not None:
        return bulk
    numbered = [(number, line) for number, line in enumerate(lines[1:], start=2) if line.strip()]
    return _read_rows_one_at_a_time(numbered)


_CSV_ROW = np.dtype([("index", np.int64), ("re", np.float64), ("im", np.float64)])


def _read_rows_bulk(lines: list[str]) -> np.ndarray | None:
    """The values of ``lines`` by one ``np.loadtxt``; None unless row i is (i, finite, finite)."""
    if not lines:
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, dtype=_CSV_ROW, ndmin=1)
    except ValueError:
        return None
    if len(table) != len(lines) or not np.array_equal(table["index"], np.arange(len(lines))):
        return None
    out = np.empty(len(lines), dtype=np.complex128)
    out.real = table["re"]
    out.imag = table["im"]
    return out if np.isfinite(out).all() else None


def _read_rows_one_at_a_time(rows: list[tuple[int, str]]) -> np.ndarray:
    """The values of the numbered ``rows``; raises ``ValueError`` naming the first bad line."""
    out = np.empty(len(rows), dtype=np.complex128)
    for i, (number, line) in enumerate(rows):
        try:
            idx, re_part, im_part = line.split(",")
            index, value = int(idx), complex(float(re_part), float(im_part))
        except ValueError:
            raise ValueError(f"line {number}: expected 'index,re,im', got {line!r}") from None
        if index != i:
            raise ValueError(f"line {number}: index {index}, expected {i}")
        if not cmath.isfinite(value):
            raise ValueError(f"line {number}: non-finite value in {line!r}")
        out[i] = value
    return out
