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

Normalization: the forward transform carries the factor 1/M_N, so that
coeffs[n] equals the exact Haar integral of f * conj(psi_n); the inverse
carries no factor.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .group import GroupPoint, VilenkinBase, _translates, decode_index


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
        return StepFunction(self.base, self.values + other.values)

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        _check_same_base(self, other)
        return StepFunction(self.base, self.values - other.values)

    def __mul__(self, scalar: complex) -> "StepFunction":
        return StepFunction(self.base, self.values * scalar)

    __rmul__ = __mul__

    def to_csv(self, path) -> None:
        write_complex_csv(path, "rank", self.values)

    @classmethod
    def from_csv(cls, base: VilenkinBase, path) -> "StepFunction":
        return cls(base, read_complex_csv(path, base.size))


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
        return cls(base, read_complex_csv(path, base.size))


def _frozen(base: VilenkinBase, data, noun: str, owner: str) -> np.ndarray:
    """A read-only complex copy of ``data``: one finite entry per rank of ``base``."""
    out = np.array(data, dtype=np.complex128)
    if out.shape != (base.size,):
        raise ValueError(f"expected {base.size} {noun}s for {base}, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"non-finite {noun} in {owner} on {base}")
    out.setflags(write=False)
    return out


def _check_same_base(f, g) -> None:
    if f.base != g.base:
        raise ValueError(f"base mismatch: {f.base} vs {g.base}")


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

    Entry [i, r] is psi_{start+i} at the point of rank r.  Rank r holds digit
    x_k on axis 2 of the C-order (rows, M_N/M_{k+1}, m_k, M_k) view, so digit
    k multiplies that view in place by row n_k of ``_dft_matrix(m_k, +1)``,
    broadcast over the other digits.  Entry [n_k, x_k] of that table is the
    root r_k^{n_k x_k} itself, so each entry is the product of the factors
    :func:`character` takes, in the same increasing k.
    """
    if not 0 <= start <= stop <= base.size:
        raise ValueError(f"bad frequency block [{start}, {stop})")
    rows = stop - start
    out = np.ones((rows, base.size), dtype=np.complex128)
    digits = base.digit_table[start:stop]
    for k, active in enumerate(digits.any(axis=0).tolist()):
        if active:
            m, m_k = base.radices[k], base.cumprod[k]
            view = out.reshape(rows, base.size // (m * m_k), m, m_k)
            view *= _dft_matrix(m, +1).take(digits[:, k], axis=0)[:, None, :, None]
    return out


def verify_orthonormality(base: VilenkinBase) -> float:
    """Largest deviation from the identity of the Gram matrix of psi_0 .. psi_{M_N-1}.

    Built from the literal :func:`character_block`; it holds M_N^2 entries,
    so callers bound M_N.
    """
    block = character_block(base, 0, base.size)
    gram = block @ np.conj(block).T / base.size
    return float(np.max(np.abs(gram - np.eye(base.size))))


def _separable_apply(base: VilenkinBase, vec: np.ndarray, sign: int) -> np.ndarray:
    """One size-m_k DFT stage per coordinate, each on the (rows, M_N/m_k, m_k) view.

    ``vec`` is one vector of M_N values or a (rows, M_N) stack, possibly of
    no rows; the result has its shape.
    """
    a = np.asarray(vec, dtype=np.complex128)
    shape = a.shape
    rows = a.size // base.size
    for m in base.radices:
        v = a.reshape(rows, base.size // m, m)
        if m == 2:
            a = np.empty((rows, 2, base.size // 2), dtype=np.complex128)
            np.add(v[:, :, 0], v[:, :, 1], out=a[:, 0])
            np.subtract(v[:, :, 0], v[:, :, 1], out=a[:, 1])
        else:
            a = np.matmul(_dft_matrix(m, sign), v.transpose(0, 2, 1))
    return a.reshape(shape)


def forward(f: StepFunction) -> Spectrum:
    """Fast transform: coeffs[n] = (1/M_N) * sum_x f(x) * conj(psi_n(x))."""
    return Spectrum(f.base, _separable_apply(f.base, f.values, -1) / f.base.size)


def inverse(spectrum: Spectrum) -> StepFunction:
    """Reconstruction sum_n coeffs[n] * psi_n, exact on depth-N data."""
    return StepFunction(spectrum.base, _separable_apply(spectrum.base, spectrum.coeffs, +1))


def _naive_block_size(size: int) -> int:
    # Cap scratch at ~64 MiB of complex128 per block.
    return max(1, min(size, (1 << 22) // max(size, 1)))


def forward_naive(f: StepFunction) -> Spectrum:
    """Literal O(M_N^2) transform; the oracle the fast path is checked against."""
    batch = forward_naive_batch(f.base, f.values[None, :])
    return Spectrum(f.base, batch[0])


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
    return StepFunction(base, out / base.size)


def convolve_spectral(f: StepFunction, g: StepFunction) -> StepFunction:
    """Convolution through the spectrum: coefficients multiply pointwise."""
    _check_same_base(f, g)
    product = forward(f).coeffs * forward(g).coeffs
    return inverse(Spectrum(f.base, product))


def write_complex_csv(path, index_name: str, values: np.ndarray) -> None:
    """CSV with columns (index, re, im); repr floats, '.' decimal point."""
    lines = [f"{index_name},re,im"]
    for i, v in enumerate(values):
        lines.append(f"{i},{float(v.real)!r},{float(v.imag)!r}")
    _write_text(path, "\n".join(lines) + "\n")


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
    ``ValueError`` naming its line.
    """
    if hasattr(path, "read"):
        lines = path.read().splitlines()
    else:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    rows = [(number, line) for number, line in enumerate(lines[1:], start=2) if line.strip()]
    if len(rows) != expected_length:
        raise ValueError(f"expected {expected_length} rows, got {len(rows)}")
    out = np.empty(expected_length, dtype=np.complex128)
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
