"""Mixed-radix arithmetic for bounded Vilenkin groups.

A group is described by a finite radix sequence m = (m_0, ..., m_{N-1}),
every m_k >= 2.  Points are truncated to depth N, so the group is modelled
by its M_N rank-N cosets (M_0 = 1, M_{k+1} = m_k * M_k) and every integral
of a depth-N step function is an exact finite sum with weight 1/M_N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class VilenkinBase:
    """Radix sequence, depth and cumulative products of a bounded group."""

    radices: tuple[int, ...]

    def __post_init__(self) -> None:
        radices = tuple(int(m) for m in self.radices)
        if not radices:
            raise ValueError("radix sequence must be non-empty")
        if any(m < 2 for m in radices):
            raise ValueError(f"every radix must be >= 2, got {radices}")
        object.__setattr__(self, "radices", radices)

    @classmethod
    def parse(cls, text: str, depth: int | None = None) -> "VilenkinBase":
        """Build from a comma-separated radix list such as ``"2,3,2,4"``.

        When ``depth`` is given the list is cycled (or truncated) to that
        many coordinates, so ``parse("2,3", depth=5)`` gives (2,3,2,3,2).
        """
        try:
            radices = tuple(int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise ValueError(f"bad radix list {text!r}") from exc
        base = cls(radices)
        if depth is not None:
            base = base.with_depth(depth)
        return base

    def with_depth(self, depth: int) -> "VilenkinBase":
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        reps = -(-depth // len(self.radices))
        return VilenkinBase((self.radices * reps)[:depth])

    @property
    def depth(self) -> int:
        return len(self.radices)

    @cached_property
    def cumprod(self) -> tuple[int, ...]:
        """(M_0, ..., M_N) with M_0 = 1 and M_{k+1} = m_k * M_k."""
        out = [1]
        for m in self.radices:
            out.append(out[-1] * m)
        return tuple(out)

    @property
    def size(self) -> int:
        """M_N, the number of rank-N cosets."""
        return self.cumprod[-1]

    @cached_property
    def digit_table(self) -> np.ndarray:
        """(M_N, N) array whose row r holds the digits of rank r."""
        ranks = np.arange(self.size)
        table = np.empty((self.size, self.depth), dtype=np.int64)
        for k, m in enumerate(self.radices):
            table[:, k] = (ranks // self.cumprod[k]) % m
        table.setflags(write=False)
        return table

    @cached_property
    def _difference_halves(self) -> tuple[np.ndarray, np.ndarray]:
        """Difference tables of the low L and the high N - L digits, the high one times M_L.

        L is the first place with M_L^2 >= M_N, so each table holds about M_N
        entries.
        """
        split = next(k for k, m in enumerate(self.cumprod) if m * m >= self.size)
        low = _difference_table(self.radices[:split])
        high = _difference_table(self.radices[split:]) * self.cumprod[split]
        low.setflags(write=False)
        high.setflags(write=False)
        return low, high

    def spec(self) -> str:
        """Comma-separated radix list, the inverse of :meth:`parse`."""
        return ",".join(str(m) for m in self.radices)

    def __str__(self) -> str:
        return f"G({self.spec()})"


def decode_index(n: int, base: VilenkinBase) -> tuple[int, ...]:
    """Digits (n_0, ..., n_{N-1}) of n, so that n = sum_j n_j * M_j."""
    n = int(n)
    if not 0 <= n < base.size:
        raise ValueError(f"index {n} outside [0, {base.size})")
    digits = []
    for m in base.radices:
        n, d = divmod(n, m)
        digits.append(d)
    return tuple(digits)


def encode_index(digits: Sequence[int], base: VilenkinBase) -> int:
    """Inverse of :func:`decode_index`; digit j must lie in [0, m_j)."""
    if len(digits) != base.depth:
        raise ValueError(f"expected {base.depth} digits, got {len(digits)}")
    rank = 0
    for j, (d, m) in enumerate(zip(digits, base.radices)):
        d = int(d)
        if not 0 <= d < m:
            raise ValueError(f"digit {d} at position {j} outside [0, {m})")
        rank += d * base.cumprod[j]
    return rank


@dataclass(frozen=True)
class GroupPoint:
    """A point of the group at full depth, stored by its coordinates."""

    base: VilenkinBase
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        coords = tuple(int(c) for c in self.coords)
        if len(coords) != self.base.depth:
            raise ValueError(
                f"expected {self.base.depth} coordinates, got {len(coords)}"
            )
        for j, (c, m) in enumerate(zip(coords, self.base.radices)):
            if not 0 <= c < m:
                raise ValueError(f"coordinate {c} at position {j} outside [0, {m})")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def from_rank(cls, base: VilenkinBase, rank: int) -> "GroupPoint":
        return cls(base, decode_index(rank, base))

    @classmethod
    def zero(cls, base: VilenkinBase) -> "GroupPoint":
        return cls(base, (0,) * base.depth)

    @classmethod
    def unit(cls, base: VilenkinBase, s: int, value: int = 1) -> "GroupPoint":
        """The point with coordinate s equal to ``value`` and 0 elsewhere."""
        if not 0 <= s < base.depth:
            raise ValueError(f"coordinate index {s} outside [0, {base.depth})")
        coords = [0] * base.depth
        coords[s] = value
        return cls(base, tuple(coords))

    @property
    def rank(self) -> int:
        return encode_index(self.coords, self.base)

    def __add__(self, other: "GroupPoint") -> "GroupPoint":
        return group_add(self, other)

    def __sub__(self, other: "GroupPoint") -> "GroupPoint":
        return group_sub(self, other)


def _check_same_base(x: GroupPoint, y: GroupPoint) -> None:
    if x.base != y.base:
        raise ValueError(f"base mismatch: {x.base} vs {y.base}")


def group_add(x: GroupPoint, y: GroupPoint) -> GroupPoint:
    """Coordinatewise addition modulo the radices."""
    _check_same_base(x, y)
    coords = tuple(
        (a + b) % m for a, b, m in zip(x.coords, y.coords, x.base.radices)
    )
    return GroupPoint(x.base, coords)


def group_sub(x: GroupPoint, y: GroupPoint) -> GroupPoint:
    """Coordinatewise subtraction modulo the radices, inverse of group_add."""
    _check_same_base(x, y)
    coords = tuple(
        (a - b) % m for a, b, m in zip(x.coords, y.coords, x.base.radices)
    )
    return GroupPoint(x.base, coords)


def coset_of(x: GroupPoint, n: int) -> int:
    """Identifier of I_n(x) = {y : y_0 = x_0, ..., y_{n-1} = x_{n-1}}.

    Cosets of rank n are numbered 0 .. M_n - 1; the id is the rank of the
    shared digit prefix, i.e. rank(x) mod M_n.  The Haar measure of every
    rank-n coset is 1/M_n.
    """
    if not 0 <= n <= x.base.depth:
        raise ValueError(f"coset rank {n} outside [0, {x.base.depth}]")
    return x.rank % x.base.cumprod[n]


def coset_members(base: VilenkinBase, n: int, coset_id: int) -> np.ndarray:
    """Ranks of all depth-N points inside the rank-n coset ``coset_id``."""
    if not 0 <= n <= base.depth:
        raise ValueError(f"coset rank {n} outside [0, {base.depth}]")
    m_n = base.cumprod[n]
    if not 0 <= coset_id < m_n:
        raise ValueError(f"coset id {coset_id} outside [0, {m_n})")
    return coset_id + m_n * np.arange(base.size // m_n)


def coset_measure(base: VilenkinBase, n: int) -> float:
    """Haar measure 1/M_n of a rank-n coset."""
    if not 0 <= n <= base.depth:
        raise ValueError(f"coset rank {n} outside [0, {base.depth}]")
    return 1.0 / base.cumprod[n]


def order_stats(n: int, base: VilenkinBase) -> tuple[int, int]:
    """Highest and lowest nonzero digit positions (|n|, <n>) of n >= 1."""
    if n < 1:
        raise ValueError("order statistics need n >= 1 (no nonzero digit at 0)")
    if n == base.size:
        # M_N itself: the single digit 1 at position N.
        return base.depth, base.depth
    digits = decode_index(n, base)
    nonzero = [j for j, d in enumerate(digits) if d != 0]
    return nonzero[-1], nonzero[0]


def shift_table(base: VilenkinBase, t_rank: int) -> np.ndarray:
    """Ranks of x - t for every rank x, as one permutation array (the one-row :func:`_translates`)."""
    return _translates(base, [t_rank])[0]


def _translates(base: VilenkinBase, t_ranks) -> np.ndarray:
    """The (len(t_ranks), M_N) table whose row i holds the ranks of x - t_i.

    Subtraction is coordinatewise, so it never carries between digits: with
    x = x_low + M_L x_high for the split L of :attr:`VilenkinBase._difference_halves`,
    rank(x - t) = rank(x_low - t_low) + M_L rank(x_high - t_high), and each
    block of rows is one broadcast sum of a row of each half's table.
    """
    t_ranks = np.asarray(t_ranks, dtype=np.int64).reshape(-1)
    outside = (t_ranks < 0) | (t_ranks >= base.size)
    if outside.any():
        raise ValueError(f"index {t_ranks[outside][0]} outside [0, {base.size})")
    low, high = base._difference_halves
    m_low = len(low)
    table = high[t_ranks // m_low][:, :, None] + low[t_ranks % m_low][:, None, :]
    return table.reshape(len(t_ranks), base.size)


def _difference_table(radices: tuple[int, ...]) -> np.ndarray:
    """(M, M) table whose entry [t, x] is rank(x - t) in the group of ``radices``.

    It is sum_k ((x_k - t_k) mod m_k) M_k, one integer term per digit.
    """
    size = math.prod(radices)
    ranks = np.arange(size)
    table = np.zeros((size, size), dtype=np.int64)
    place = 1
    for m in radices:
        digit = ranks // place % m
        table += (digit[None, :] - digit[:, None]) % m * place
        place *= m
    return table


def negate_rank(base: VilenkinBase, t_rank: int) -> int:
    """Rank of the group inverse -t."""
    t_digits = decode_index(t_rank, base)
    coords = tuple((-d) % m for d, m in zip(t_digits, base.radices))
    return encode_index(coords, base)
