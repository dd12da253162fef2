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

That loop over whole vectors runs up to M_N = ``_BLOCK_VALUES`` = 2^15
complex values (512 KiB, a block that stays in L2 cache with its stage
temporaries).  Above it every stage would stream the vector from memory and
back, once per digit, so each row goes alone through two cache-blocked
passes (the four-step split of D. H. Bailey, "FFTs in external or
hierarchical memory", J. Supercomputing 4, 1990).  The digits split at the
largest K with M_K <= ``_BLOCK_VALUES``, at least one digit, and the row is
read as the (M_N/M_K, M_K) matrix.  Pass 1 runs the loop of the low group
G(m_0..m_{K-1}) on blocks of whole rows, alternating its stages between the
block's own output rows and one spare block.  Pass 2 copies blocks of
columns of half a block, ``_BLOCK_VALUES // 2`` values, transforms each
high digit on its own axis between two half-block buffers and writes them
back, in natural order with no transpose; the forward transform's 1/M_N
rides on that write-back.

The blocks of a pass are independent, and numpy lets go of the GIL inside
its ufunc loops and ``matmul``, so each pass runs its blocks on two workers,
the calling thread and one pool thread, each taking the next block when it
has finished one, and ends only when both have stopped.  A worker held
back by the system (a virtual CPU taken by its host, say) so leaves its
blocks to the other rather than holding up the pass.  Each worker holds
one block of scratch, which keeps a row's scratch at one output plus a
few blocks; a third worker would not, so there are at most two, and one
on a single usable CPU.  The pool and ``concurrent.futures`` are made by
the first transform above the block, never at import.  Every group up to
the block and every all-radix-2 group keep the bits of the whole-vector
loop, and no group's bits depend on the number of workers or on which
worker ran a block.  Above the block, a matrix stage on a product of
another shape may move the last bit (seen at radices 3, 5 and 7 and on
2,3 x 12 and x 13; 4^8, 4^9, 8^6, 16^4, 16^5, 2,3,5 x 10 and x 12 and
2,3,5,7 x 8 kept every bit).

Normalization: the forward transform carries the factor 1/M_N, so that
coeffs[n] equals the exact Haar integral of f * conj(psi_n); the inverse
carries no factor.
"""

from __future__ import annotations

import bisect
import cmath
import os
import threading
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .group import GroupPoint, VilenkinBase, _check_same_base, _translates, decode_index


@dataclass(frozen=True)
class StepFunction:
    """Complex function constant on rank-N cosets, one value per rank."""

    base: VilenkinBase
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen(self.base, self.values, "value", "a step function"))

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

    def to_csv(self, path) -> None:
        write_complex_csv(path, "rank", self.values)

    @classmethod
    def from_csv(cls, base: VilenkinBase, path) -> "StepFunction":
        return _adopt(StepFunction, base, read_complex_csv(path, base.size))


@dataclass(frozen=True)
class Spectrum:
    """Fourier coefficients coeffs[n] for n < M_N."""

    base: VilenkinBase
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _frozen(self.base, self.coeffs, "coefficient", "a spectrum"))

    def to_csv(self, path) -> None:
        write_complex_csv(path, "n", self.coeffs)

    @classmethod
    def from_csv(cls, base: VilenkinBase, path) -> "Spectrum":
        return _adopt(Spectrum, base, read_complex_csv(path, base.size))


# The array field of each frozen container, and the noun and owner its errors name.
_FIELDS = {
    StepFunction: ("values", "value", "a step function"),
    Spectrum: ("coeffs", "coefficient", "a spectrum"),
}


def _adopt(cls, base: VilenkinBase, data: np.ndarray):
    """A ``cls`` on ``data`` itself, checked and set read-only but not copied.

    Only for arrays this module has just made and that nothing else holds;
    the public constructors copy, so a caller's array never aliases a
    frozen one.
    """
    field, noun, owner = _FIELDS[cls]
    out = object.__new__(cls)
    object.__setattr__(out, "base", base)
    data = np.asarray(data, dtype=np.complex128)
    object.__setattr__(out, field, _checked(base, data, noun, owner))
    return out


def _frozen(base: VilenkinBase, data, noun: str, owner: str) -> np.ndarray:
    """A read-only complex copy of ``data``: one finite entry per rank of ``base``."""
    return _checked(base, np.array(data, dtype=np.complex128), noun, owner)


def _checked(base: VilenkinBase, out: np.ndarray, noun: str, owner: str) -> np.ndarray:
    """``out`` itself, set read-only once it holds one finite entry per rank of ``base``."""
    if out.shape != (base.size,):
        raise ValueError(f"expected {base.size} {noun}s for {base}, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"non-finite {noun} in {owner} on {base}")
    out.setflags(write=False)
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
    view, so the row is row a of ``_dft_matrix(m_j, +1)`` broadcast over the
    other digits: entry [a, x_j] of that table is the root r_j^{a x_j} itself.
    """
    m = base.radices[j]
    row = np.empty(base.size, dtype=np.complex128)
    row.reshape(-1, m, base.cumprod[j])[...] = _dft_matrix(m, +1)[a, :, None]
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
# transforms fastest.  Blocking starts at M_N > _BLOCK_VALUES.
_BLOCK_VALUES = 1 << 15


def _separable_apply(base: VilenkinBase, vec: np.ndarray, sign: int, divisor: int = 1) -> np.ndarray:
    """The transform of each row, divided by ``divisor``: one size-m_k DFT stage per coordinate.

    ``vec`` is one vector of M_N values or a (rows, M_N) stack, possibly of
    no rows; the result has its shape.  Up to M_N = ``_BLOCK_VALUES`` the
    whole stack goes through :func:`_stages` and is divided in place; above
    it each row goes alone through :func:`_two_pass`, so it keeps the bits
    of a call on it alone, and the division rides on pass 2's write-back.
    A divisor of 1 divides nothing.
    """
    a = np.asarray(vec, dtype=np.complex128)
    rows = a.reshape(-1, base.size)
    if base.size <= _BLOCK_VALUES:
        out = _stages(base.radices, rows, sign).reshape(a.shape)
        if divisor != 1:
            out /= divisor
        return out
    out = np.empty(a.shape, dtype=np.complex128)
    for row, row_out in zip(rows, out.reshape(-1, base.size)):
        _two_pass(base, row, sign, row_out, divisor)
    return out


def _stages(
    radices: tuple[int, ...],
    a: np.ndarray,
    sign: int,
    out: np.ndarray | None = None,
    spare: np.ndarray | None = None,
) -> np.ndarray:
    """The stage loop on the (rows, M) stack ``a``, M the product of ``radices``.

    Stage k works on the (rows, M/m_k, m_k) view and writes a new
    (rows, m_k, M/m_k) array, so the digits come out in natural order.  The
    last stage writes into the contiguous (rows, M) array ``out`` instead,
    if one is given.  With a flat ``spare`` of at least rows * M values as
    well, every stage writes into one of the two, alternately, ending in
    ``out``, so the loop allocates nothing; the operations are the same.
    """
    rows, size = a.shape
    last = len(radices) - 1
    for k, m in enumerate(radices):
        v = a.reshape(rows, size // m, m)
        if out is None or (spare is None and k < last):
            dest = None
        else:
            dest = (out if (last - k) % 2 == 0 else spare[: rows * size]).reshape(rows, m, size // m)
        if m == 2:
            a = np.empty((rows, 2, size // 2), dtype=np.complex128) if dest is None else dest
            np.add(v[:, :, 0], v[:, :, 1], out=a[:, 0])
            np.subtract(v[:, :, 0], v[:, :, 1], out=a[:, 1])
        else:
            a = np.matmul(_dft_matrix(m, sign), v.transpose(0, 2, 1), out=dest)
    return a.reshape(rows, size)


def _two_pass(base: VilenkinBase, vec: np.ndarray, sign: int, out: np.ndarray, divisor: int) -> None:
    """Write the transform of ``vec``, divided by ``divisor``, into ``out`` in two cache-blocked passes.

    The digits split at the largest K with M_K <= ``_BLOCK_VALUES`` (at
    least one digit), and both vectors are read as the C-order
    (M_N/M_K, M_K) matrix whose row is the high rank and whose column is the
    low rank.  Pass 1 runs :func:`_stages` of G(m_0..m_{K-1}) on a block of
    whole rows at a time, between the block's own rows of ``out`` and one
    spare block, leaving each row in natural low-digit order.  Pass 2 copies
    a block of columns, ``_BLOCK_VALUES // 2`` values, into a contiguous
    (M_N/M_K, b) array and transforms each high digit j on the middle axis
    of its (M_N/M_{j+1}, m_j, b M_j/M_K) view: the add/sub butterfly at
    radix 2, else the DFT matrix times that view, broadcast over the leading
    axis, written to a second half-block buffer.  The digits stay in place,
    so the block goes back to its columns in natural order, divided on the
    way unless ``divisor`` is 1.  Each pass spreads its blocks over
    :func:`_in_workers`, and each worker holds its own one block of scratch.
    """
    split = max(1, bisect.bisect_right(base.cumprod, _BLOCK_VALUES) - 1)
    low, high = base.radices[:split], base.radices[split:]
    width = base.cumprod[split]
    height = base.size // width
    src, dst = vec.reshape(height, width), out.reshape(height, width)
    rows = max(1, _BLOCK_VALUES // width)
    cols = max(1, _BLOCK_VALUES // 2 // height)

    def low_digits(starts: Iterator[int]) -> None:
        spare = np.empty(rows * width, dtype=np.complex128) if len(low) > 1 else None
        for lo in starts:
            _stages(low, src[lo : lo + rows], sign, dst[lo : lo + rows], spare)

    def high_digits(starts: Iterator[int]) -> None:
        spare = np.empty((2, height * cols), dtype=np.complex128)
        for lo in starts:
            target = dst[:, lo : lo + cols]
            block, other = (buf[: target.size].reshape(height, -1) for buf in spare)
            np.copyto(block, target)
            stride = block.shape[1]
            for m in high:
                v, w = block.reshape(-1, m, stride), other.reshape(-1, m, stride)
                if m == 2:
                    np.add(v[:, 0], v[:, 1], out=w[:, 0])
                    np.subtract(v[:, 0], v[:, 1], out=w[:, 1])
                else:
                    np.matmul(_dft_matrix(m, sign), v, out=w)
                block, other = other, block
                stride *= m
            if divisor == 1:
                target[...] = block
            else:
                np.divide(block, divisor, out=target)

    _in_workers(low_digits, range(0, height, rows))
    _in_workers(high_digits, range(0, width, cols))


# (pid, executor) of the one pool thread of _in_workers, made by the first
# transform above the block in this process, never at import.
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

    With one worker, or one block, the caller runs them all.  Otherwise the
    caller and the pool thread share one iterator, each taking the next
    block when it has finished one, so a worker that the system holds back
    leaves its blocks to the other instead of holding up the pass.
    ``next`` on a range iterator is one step under the GIL, so every block
    runs once.  The call returns or raises only once both have stopped, so
    no worker still writes after it; a failing worker's exception is raised
    then, the caller's first.  The worker a block falls to never changes
    its bits.
    """
    shared = iter(starts)
    if _worker_count() == 1 or len(starts) == 1:
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


def _naive_block_size(size: int) -> int:
    # Cap scratch at ~64 MiB of complex128 per block.
    return max(1, min(size, (1 << 22) // max(size, 1)))


def forward_naive(f: StepFunction) -> Spectrum:
    """Literal O(M_N^2) transform; the oracle the fast path is checked against."""
    batch = forward_naive_batch(f.base, f.values[None, :])
    return _adopt(Spectrum, f.base, batch[0])


def forward_naive_batch(base: VilenkinBase, values: np.ndarray) -> np.ndarray:
    """Apply the literal-sum transform to each row of ``values``."""
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 2 or values.shape[1] != base.size:
        raise ValueError(f"expected rows of length {base.size}")
    out = np.empty_like(values)
    step = _naive_block_size(base.size)
    for lo in range(0, base.size, step):
        hi = min(lo + step, base.size)
        block = character_block(base, lo, hi)
        np.conjugate(block, out=block)
        out[:, lo:hi] = values @ block.T
        del block  # so that at most one block of scratch is alive
    return out / base.size


def _convolve_block_rows(size: int) -> int:
    # About 2^15 terms (512 KiB) per block: enough rows to spread the Python
    # work of a block, few enough to stay in cache.
    return max(1, (1 << 15) // size)


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
    step = _convolve_block_rows(base.size)
    stack = np.empty((min(step, len(support)) + 1, base.size), dtype=np.complex128)
    for lo in range(0, len(support), step):
        t = support[lo : lo + step]
        rows = stack[: len(t) + 1]
        rows[0] = out
        np.multiply(g.values[t, None], f.values[_translates(base, t)], out=rows[1:])
        np.add.reduce(rows, axis=0, out=out)
    return _adopt(StepFunction, base, out / base.size)


def convolve_spectral(f: StepFunction, g: StepFunction) -> StepFunction:
    """Convolution through the spectrum: coefficients multiply pointwise."""
    _check_same_base(f, g)
    product = forward(f).coeffs * forward(g).coeffs
    return inverse(_adopt(Spectrum, f.base, product))


def _deviation(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def verify_fast_vs_naive(base: VilenkinBase, values) -> float:
    """Largest |forward - forward_naive_batch| over the rows of ``values`` and their frequencies."""
    oracle = forward_naive_batch(base, values)
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
    strings come from one ``repr`` of the whole column.
    """
    values = np.asarray(values, dtype=np.complex128)
    re_text = repr(values.real.tolist())[1:-1].split(", ")
    im_text = repr(values.imag.tolist())[1:-1].split(", ")
    rows = [f"{i},{re},{im}\n" for i, re, im in zip(range(len(values)), re_text, im_text)]
    _write_text(path, f"{index_name},re,im\n" + "".join(rows))


def _write_text(path, text: str) -> None:
    """Write ``text`` to a stream, or to a file path as ASCII with '\\n' line ends."""
    if hasattr(path, "write"):
        path.write(text)
        return
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


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
    if hasattr(path, "read"):
        lines = path.read().splitlines()
    else:
        with open(path, "r", encoding="ascii") as fh:
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
