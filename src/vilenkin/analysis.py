"""Norms, Lebesgue-point diagnostics, maximal operators and sweeps.

Everything here is an exact finite computation on depth-N step data: Lp
norms are finite sums, weak quasi-norms take their supremum over the
(finite) value set of the function, and the convergence sweep tabulates
mean-vs-function errors for the experiment runner.

The sweep and the restricted maximal operators transform f once and take
every order as a row of :func:`~vilenkin.summability._synthesize`, which
runs each row of order n on the smallest prefix group of at least
max(n, 256) points, through the stage engine in chunks of about 2^14 values,
and tiles it to M_N; each row has the bits of a one-order call.  The sweep
takes |t_n f - f| once per row and evaluates every p on it with one max and
one scaling (:func:`_lp_norms`, the arithmetic of :func:`lp_norm`).
:func:`full_maximal_fejer` runs its literal character stream on the prefix
group of its largest order and tiles the supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .group import GroupPoint, VilenkinBase, coset_members, group_sub
from .summability import (
    WeightSequence,
    _character_stream,
    _check_mean,
    _profile,
    _synthesize,
    make_weights,
)
from .transform import StepFunction, _write_text, forward


def lp_norm(f: StepFunction, p: float) -> float:
    """||f||_p with ||f||_p^p = (1/M_N) sum |f|^p; p = inf is the max.

    A finite p is evaluated on g = |f| / max|f| as max|f| * ||g||_p, so that
    the powers can neither underflow nor overflow at large p.
    """
    _check_exponent(p)
    return _lp_norms(np.abs(f.values), [p])[0]


def _check_exponent(p: float) -> None:
    if not p >= 1:  # also rejects nan
        raise ValueError(f"norm exponent must be >= 1 or inf, got {p}")


def _lp_norms(magnitudes: np.ndarray, ps) -> list[float]:
    """:func:`lp_norm` at each exponent of ``ps``, from a 1-D array of magnitudes |f|.

    The max and the scaled array |f| / max|f| are taken once for every p.
    """
    top = float(np.max(magnitudes))
    if top == 0.0:
        return [top for _ in ps]
    scaled = magnitudes / top
    return [top if p == math.inf else float(top * np.mean(scaled**p) ** (1.0 / p)) for p in ps]


def weak_lp(f: StepFunction, p: float) -> float:
    """Weak quasi-norm sup_t t * mu(|f| > t)^(1/p), by one sort of |f|.

    The supremum is attained at a value t of |f|, evaluated as
    t * mu(|f| >= t)^(1/p), because the distribution function only jumps at
    those values.  The i-th smallest of the M values has at least M - i
    values >= it, with equality at the first of its ties, so the maximum of
    |f|_(i) * ((M - i)/M)^(1/p) over the sorted values is the supremum.
    """
    if not p >= 1:  # also rejects nan
        raise ValueError(f"weak norm exponent must be >= 1, got {p}")
    levels = np.sort(np.abs(f.values))
    size = len(levels)
    measures = (size - np.arange(size)) / size
    return float(np.max(levels * measures ** (1.0 / p)))


def lebesgue_profile(f: StepFunction, x: GroupPoint) -> np.ndarray:
    """Coset averages a_n of |f - f(x)| over I_n(x), n = 0 .. N.

    a_N is always 0 for step data, since I_N(x) is the single cell of x.
    """
    base = f.base
    fx = f.values[x.rank]
    deviations = np.abs(f.values - fx)
    out = np.empty(base.depth + 1)
    for n in range(base.depth + 1):
        members = coset_members(base, n, x.rank % base.cumprod[n])
        out[n] = base.cumprod[n] * deviations[members].sum() / base.size
    return out


def vilenkin_lebesgue_profile(f: StepFunction, x: GroupPoint, a_max: int) -> np.ndarray:
    """Translated-coset oscillation sums W_1 .. W_{a_max} at x.

    W_A adds, over coordinates s < A and nonzero shifts r of coordinate s,
    M_s times the integral of |f - f(x)| over I_A(x - r*e_s); a point where
    W_A tends to 0 is a Vilenkin-Lebesgue point.
    """
    base = f.base
    if not 1 <= a_max <= base.depth:
        raise ValueError(f"profile depth {a_max} outside [1, {base.depth}]")
    fx = f.values[x.rank]
    deviations = np.abs(f.values - fx)
    out = np.empty(a_max)
    for a in range(1, a_max + 1):
        m_a = base.cumprod[a]
        total = 0.0
        for s in range(a):
            for shift in range(1, base.radices[s]):
                y = group_sub(x, GroupPoint.unit(base, s, shift))
                members = coset_members(base, a, y.rank % m_a)
                total += base.cumprod[s] * deviations[members].sum() / base.size
        out[a - 1] = total
    return out


MAXIMAL_FAMILIES = ("S_at_Mn", "L_at_Mn", "t_at_Mn")


def restricted_maximal(
    f: StepFunction, family: str, weights: WeightSequence | None = None
) -> StepFunction:
    """Pointwise sup of |operator f| over the block orders M_0 .. M_N.

    Families: "S_at_Mn" (partial sums), "L_at_Mn" (logarithmic Norlund
    means), "t_at_Mn" (the means of ``weights``).  Orders with a degenerate
    weight prefix are skipped.  f is transformed once, and the block orders
    are the rows of one chunked synthesis on its spectrum.
    """
    base = f.base
    if family == "L_at_Mn":
        weights = make_weights("norlund_log")
    if family == "S_at_Mn":
        profiles = (_profile("dirichlet", None, m_r) for m_r in base.cumprod)
    elif family in ("L_at_Mn", "t_at_Mn"):
        if weights is None:
            raise ValueError("family 't_at_Mn' needs a weight sequence")
        profiles = (
            _profile(weights.mean_type, weights, m_r)
            for m_r in base.cumprod
            if weights.Q(m_r) > 0
        )
    else:
        raise ValueError(f"unknown family {family!r}; expected one of {MAXIMAL_FAMILIES}")
    sup = np.zeros(base.size)
    for level in _synthesize(base, forward(f).coeffs, profiles):
        np.maximum(sup, np.abs(level), out=sup)
    return StepFunction(base, sup)


def full_maximal_fejer(f: StepFunction, n_max: int) -> StepFunction:
    """sup_{1 <= n <= n_max} |sigma_n f|, by one pass of the character stream.

    sigma_n f with n <= n_max <= M_K uses only psi_0 .. psi_{M_K - 1}, which
    read the first K digits, so the stream runs on the prefix group
    ``base.covering(n_max)`` and the supremum is tiled to M_N.  Each psi_k is
    built from the same digit factors in the same order as on the full group,
    and the rest is elementwise, so every value has the bits of a full-group
    stream.
    """
    base = f.base
    if not 1 <= n_max <= base.size:
        raise ValueError(f"maximal order {n_max} outside [1, {base.size}]")
    group = base.covering(n_max)
    sup = np.zeros(group.size)
    sigma = np.empty(group.size)  # |sigma_n f|, one buffer for every n
    for n, _, block in _character_stream(group, forward(f).coeffs[:n_max]):
        np.abs(block, out=sigma)
        sigma /= n
        np.maximum(sup, sigma, out=sup)
    return StepFunction(base, np.tile(sup, base.size // group.size))


def weak11_ratio(maximal: StepFunction, f: StepFunction) -> float:
    """sup_t t * mu(maximal > t) / ||f||_1, the empirical weak-(1,1) constant."""
    denom = lp_norm(f, 1)
    if denom == 0:
        raise ValueError("weak-(1,1) ratio needs a nonzero reference function")
    return weak_lp(maximal, 1) / denom


@dataclass(frozen=True)
class ConvergenceRecord:
    """One cell of a convergence experiment."""

    mean_kind: str
    n: int
    p: float
    error: float
    point_errors: dict[int, float] = field(default_factory=dict)


def convergence_sweep(
    f: StepFunction,
    w: WeightSequence,
    n_list,
    p_list,
    points: list[int] | None = None,
) -> list[ConvergenceRecord]:
    """Tabulate ||t_n f - f||_p and pointwise errors over the grid.

    Whenever an order n equals some block size M_r, a companion record for
    the partial sum S_n is emitted as well (mean_kind "partial_sum").  Every
    order, exponent and point is checked first.  f is then transformed once,
    and the means and partial sums are the rows of one chunked synthesis on
    its spectrum, each with the bits of the kernel route of
    :func:`~vilenkin.summability.mean`.  Each row's |t_n f - f| is taken once
    and serves every exponent.
    """
    base = f.base
    orders = [int(n) for n in n_list]
    p_list = list(p_list)
    points = list(points or [])
    for n in orders:
        _check_mean(base, w, n)
    for p in p_list:
        _check_exponent(p)
    for rank in points:
        if not 0 <= rank < base.size:
            raise ValueError(f"point rank {rank} outside [0, {base.size})")
    blocks = set(base.cumprod)
    rows = []  # (mean_kind, n), in record order
    for n in orders:
        rows.append((w.kind, n))
        if n in blocks:
            rows.append(("partial_sum", n))
    profiles = (
        _profile("dirichlet", None, n) if kind == "partial_sum" else _profile(w.mean_type, w, n)
        for kind, n in rows
    )
    records = []
    for (kind, n), synthesized in zip(rows, _synthesize(base, forward(f).coeffs, profiles)):
        residual = synthesized - f.values
        point_errors = {rank: float(abs(residual[rank])) for rank in points}
        errors = _lp_norms(np.abs(residual), p_list)
        for p, error in zip(p_list, errors):
            records.append(
                ConvergenceRecord(
                    mean_kind=kind, n=n, p=float(p), error=error, point_errors=point_errors
                )
            )
    return records


def records_to_csv(records: list[ConvergenceRecord], path) -> None:
    """Flatten records to CSV columns mean_kind,n,p,error,point_rank,point_error.

    Norm rows leave the point columns empty; each pointwise error gets its
    own row with the norm columns repeated.  Ordering follows the input.
    """
    lines = ["mean_kind,n,p,error,point_rank,point_error"]
    for rec in records:
        p_text = "inf" if rec.p == math.inf else f"{rec.p:g}"
        lines.append(f"{rec.mean_kind},{rec.n},{p_text},{rec.error!r},,")
        for rank in sorted(rec.point_errors):
            lines.append(
                f"{rec.mean_kind},{rec.n},{p_text},{rec.error!r},"
                f"{rank},{rec.point_errors[rank]!r}"
            )
    _write_text(path, "\n".join(lines) + "\n")
