"""Weight sequences, summability kernels and their identity verifiers.

Two aggregation shapes are supported, both driven by a nonnegative weight
sequence {q_k} with prefix sums Q_n = q_0 + ... + q_{n-1}:

    norlund:  t_n f = (1/Q_n) * sum_{k=1}^{n}   q_{n-k} * S_k f
    tmean:    T_n f = (1/Q_n) * sum_{k=0}^{n-1} q_k     * S_k f

with matching kernels

    F_n      = (1/Q_n) * sum_{k=1}^{n}   q_{n-k} * D_k
    F_n^inv  = (1/Q_n) * sum_{k=0}^{n-1} q_k     * D_k

so that the mean is convolution of f with its kernel.  D_0 is the empty sum
(identically 0).  Every such kernel and mean is one spectral multiplier:
``_profile`` gives the coefficients of psi_0 .. psi_{n-1}, and ``_synthesize``
scales a spectrum by a stack of profiles and inverts the rows in chunks.  A
kernel is its profile on the unit spectrum; a "kernel"-route mean or partial
sum is the profile on f's spectrum.  The Abel rearrangement gives the
alternate evaluation

    t_n f = (1/Q_n) * ( sum_{j=1}^{n-1} (q_{n-j} - q_{n-j-1}) * j * sigma_j f
                        + q_0 * n * sigma_n f )

where sigma_j is the Fejer mean.  The "direct" and "abel" routes are one
literal character stream over every requested (family, order) row, which
never reads the fast transform.  The ``verify_*`` functions return the
residual of one identity each, with no tolerance: ``vilenkin verify`` and the
test suite call the same functions and keep their own thresholds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .group import VilenkinBase, coset_members, order_stats
from .transform import Spectrum, StepFunction, _separable_apply, character_values, forward, inverse

# The parameters of each weight kind's spec, e.g. "blog:alpha:beta".
_SPEC_PARAMS = {
    "constant": {}, "cesaro": {"alpha": float}, "valpha": {"alpha": float},
    "riesz_log": {}, "norlund_log": {}, "blog": {"alpha": float, "beta": int},
}
WEIGHT_KINDS = tuple(_SPEC_PARAMS)


class WeightSequence:
    """A {q_k} family with cached prefix sums and a monotonicity tag.

    ``mean_type`` records which aggregation the family belongs to:
    "norlund" for constant/cesaro/valpha/norlund_log, "tmean" for
    riesz_log/blog.
    """

    def __init__(self, kind, extend, mean_type, monotonicity):
        if mean_type not in ("norlund", "tmean"):
            raise ValueError(f"mean type must be 'norlund' or 'tmean', got {mean_type!r}")
        self.kind = kind
        self.mean_type = mean_type
        self.monotonicity = monotonicity
        self._extend = extend
        self._q = self._Q = np.zeros(0)
        self._ensure(1)

    def _ensure(self, n: int) -> None:
        """Cache at least (q_0 .. q_{n-1}) and (Q_0 .. Q_n), or raise if one is not finite.

        The prefix grows by doubling, and the cache keeps only its finite
        part, so whether an order is accepted does not depend on earlier calls.
        """
        if n <= len(self._q):
            return
        with np.errstate(over="ignore"):
            q = self._extend(np.arange(max(n, 2 * len(self._q))))
            Q = np.concatenate([[0.0], np.cumsum(q)])
        finite = np.isfinite(Q)
        if not finite.all():
            first = int(np.argmin(finite))  # Q_first is the first non-finite prefix sum
            if n >= first:
                k = first - 1
                culprit = f"q_{k} = {q[k]}" if not np.isfinite(q[k]) else f"Q_{first} = {Q[first]}"
                raise ValueError(f"weight family {self.kind}: {culprit} is not finite")
            q, Q = q[: first - 1], Q[:first]
        self._q, self._Q = q, Q

    def q(self, k: int) -> float:
        """Weight q_k."""
        if k < 0:
            raise ValueError(f"weight index must be >= 0, got {k}")
        self._ensure(k + 1)
        return float(self._q[k])

    def q_prefix(self, n: int) -> np.ndarray:
        """Array (q_0, ..., q_{n-1})."""
        if n < 0:
            raise ValueError(f"prefix length must be >= 0, got {n}")
        self._ensure(n)
        return self._q[:n].copy()

    def Q(self, n: int) -> float:
        """Prefix sum Q_n = q_0 + ... + q_{n-1}; Q_0 = 0."""
        if n < 0:
            raise ValueError(f"prefix length must be >= 0, got {n}")
        self._ensure(n)
        return float(self._Q[n])

    def Q_prefix(self, n: int) -> np.ndarray:
        """Array (Q_0, ..., Q_n)."""
        if n < 0:
            raise ValueError(f"prefix length must be >= 0, got {n}")
        self._ensure(n)
        return self._Q[: n + 1].copy()

    def __repr__(self) -> str:
        return f"WeightSequence({self.kind!r})"


def _cesaro_weights(alpha: float):
    # A_k^{alpha-1} by the stable recurrence A_j = A_{j-1} * (alpha-1+j)/j,
    # started at A_0 = 1 so that alpha = 1 reduces to Fejer.
    def extend(ks: np.ndarray) -> np.ndarray:
        factors = np.ones(len(ks))
        js = np.arange(1, len(ks), dtype=float)
        factors[1:] = (alpha - 1.0 + js) / js
        return np.cumprod(factors)

    return extend


def _iterated_log(values: np.ndarray, beta: int) -> np.ndarray:
    """beta-fold natural log, truncated to 0 where undefined or negative.

    The passes stop once no entry is positive and finite: 0 and inf are fixed
    points, so further passes would change nothing, and a finite positive
    double falls to <= 0 within a few logs, so any beta costs a few passes.
    """
    out = values.astype(float).copy()
    alive = out > 0
    for _ in range(beta):
        alive &= out > 0
        if not np.isfinite(out[alive]).any():
            break
        out[~alive] = 0.0
        out[alive] = np.log(out[alive])
    out[out < 0] = 0.0
    out[~alive] = 0.0
    return out


def make_weights(kind: str, alpha: float | None = None, beta: int | None = None) -> WeightSequence:
    """Construct one of the named weight families.

    constant       q_k = 1
    cesaro         q_k = A_k^{alpha-1},   0 < alpha < 1 (alpha = 1 allowed: Fejer)
    valpha         q_0 = 1, q_k = k^{alpha-1},  0 < alpha < 1
    riesz_log      q_0 = 0, q_k = 1/k     (tmean aggregation)
    norlund_log    q_0 = 0, q_k = 1/k     (norlund aggregation)
    blog           q_0 = 0, q_k = log^(beta)(k^alpha) truncated at 0 (tmean)
    """
    if alpha is not None and not math.isfinite(alpha):
        spec = ":".join(str(part) for part in (kind, alpha, beta) if part is not None)
        raise ValueError(f"weight spec {spec!r} needs a finite alpha")
    if kind == "constant":
        return WeightSequence(
            "constant", lambda ks: np.ones(len(ks)), "norlund", "non-increasing"
        )
    if kind == "cesaro":
        if alpha is None or not 0 < alpha <= 1:
            raise ValueError(f"cesaro needs 0 < alpha <= 1, got {alpha}")
        return WeightSequence(
            f"cesaro:{alpha:g}", _cesaro_weights(alpha), "norlund", "non-increasing"
        )
    if kind == "valpha":
        if alpha is None or not 0 < alpha < 1:
            raise ValueError(f"valpha needs 0 < alpha < 1, got {alpha}")

        def extend(ks: np.ndarray) -> np.ndarray:
            out = np.ones(len(ks))
            out[1:] = np.arange(1, len(ks), dtype=float) ** (alpha - 1.0)
            return out

        return WeightSequence(f"valpha:{alpha:g}", extend, "norlund", "non-increasing")
    if kind in ("riesz_log", "norlund_log"):

        def extend(ks: np.ndarray) -> np.ndarray:
            out = np.zeros(len(ks))
            out[1:] = 1.0 / np.arange(1, len(ks), dtype=float)
            return out

        mean_type = "tmean" if kind == "riesz_log" else "norlund"
        return WeightSequence(kind, extend, mean_type, "n/a")
    if kind == "blog":
        if alpha is None or alpha <= 0:
            raise ValueError(f"blog needs alpha > 0, got {alpha}")
        if beta is None or beta < 1 or beta != int(beta):
            raise ValueError(f"blog needs integer beta >= 1, got {beta}")
        beta = int(beta)

        def extend(ks: np.ndarray) -> np.ndarray:
            out = np.zeros(len(ks))
            if len(ks) > 1:
                out[1:] = _iterated_log(
                    np.arange(1, len(ks), dtype=float) ** alpha, beta
                )
            return out

        return WeightSequence(f"blog:{alpha:g}:{beta}", extend, "tmean", "non-decreasing")
    raise ValueError(f"unknown weight kind {kind!r}; expected one of {WEIGHT_KINDS}")


def weights_from_spec(text: str) -> WeightSequence:
    """Parse the CLI grammar: "constant", "cesaro:0.5", "blog:0.5:1", ..."""
    kind, *params = text.split(":")
    converters = _SPEC_PARAMS.get(kind)
    if converters is None:
        raise ValueError(f"unknown weight kind {kind!r} in {text!r}")
    try:
        kwargs = {
            name: convert(value)
            for (name, convert), value in zip(converters.items(), params, strict=True)
        }
    except ValueError:
        usage = ":".join([kind, *converters])
        raise ValueError(f"bad weight spec {text!r}; expected {usage!r}") from None
    return make_weights(kind, **kwargs)


@dataclass(frozen=True)
class RegularityReport:
    """Summary of the classical summability-regularity diagnostics."""

    kind: str
    horizon: int
    max_norlund_ratio: float  # max over n of n * q_{n-1} / Q_n
    final_norlund_ratio: float
    ratio_decreasing: bool
    q_total_growing: bool  # Q_n still growing at the horizon


def regularity_check(w: WeightSequence, horizon: int) -> RegularityReport:
    """Evaluate n * q_{n-1}/Q_n over n <= horizon and the growth of Q_n."""
    if horizon < 2:
        raise ValueError(f"horizon must be >= 2, got {horizon}")
    q = w.q_prefix(horizon)
    Q = w.Q_prefix(horizon)
    ns = np.arange(1, horizon + 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = ns * q / Q[1:]
    valid = Q[1:] > 0
    if not valid.any():
        raise ValueError(f"no order n <= {horizon} has Q_n > 0 for {w.kind}")
    ratios = ratios[valid]
    half = max(1, len(ratios) // 2)
    return RegularityReport(
        kind=w.kind,
        horizon=horizon,
        max_norlund_ratio=float(ratios.max()),
        final_norlund_ratio=float(ratios[-1]),
        ratio_decreasing=bool(ratios[-1] < ratios[half - 1]),
        q_total_growing=bool(Q[horizon] > Q[horizon // 2]),
    )


def _check_order(base: VilenkinBase, n: int) -> None:
    if not 1 <= n <= base.size:
        raise ValueError(f"kernel order {n} outside [1, {base.size}]")


def _profile(kind: str, w: WeightSequence | None, n: int) -> np.ndarray:
    """Coefficients of psi_0 .. psi_{n-1} in the order-n kernel of ``kind``.

    dirichlet 1, fejer (n-j)/n, norlund Q_{n-j}/Q_n, tmean (Q_n - Q_{j+1})/Q_n;
    every other character has coefficient 0.  n = 0 gives the empty profile.
    """
    if kind == "dirichlet":
        return np.ones(n)
    if kind == "fejer":
        return (n - np.arange(n)) / n
    if kind not in ("norlund", "tmean"):
        raise ValueError(f"unknown kernel kind {kind!r}")
    Q = w.Q_prefix(n)
    if Q[n] <= 0:
        raise ValueError(f"degenerate weights: Q_{n} = 0 for {w.kind}")
    return (Q[n:0:-1] if kind == "norlund" else Q[n] - Q[1:]) / Q[n]


# Complex values per stage-engine call of _synthesize (~256 KiB): a whole
# 64-order stack at M_N = 4096 runs slower than one call per order.
_CHUNK_VALUES = 1 << 14


def _synthesize(base: VilenkinBase, coeffs: np.ndarray, profiles):
    """The one synthesis: yield each spectrum ``coeffs[:len(p)] * p``, zero above, inverted.

    A kernel is a profile on the unit spectrum (coefficients 1), a mean or
    partial sum a profile on f's spectrum.  The profiles are drawn lazily in
    chunks of about ``_CHUNK_VALUES`` values (at least one row), each chunk
    one call of the stage engine, and every row has the bits of a call on it
    alone.  A one-row chunk calls the public :func:`inverse` instead, only so
    that the span tracer of ``perfbench`` sees the inverse transform under a
    public kernel builder (its ``summability.kernel.transform_share``).
    """
    profiles = iter(profiles)
    step = max(1, _CHUNK_VALUES // base.size)
    while chunk := list(itertools.islice(profiles, step)):
        product = np.zeros((len(chunk), base.size), dtype=np.complex128)
        for row, p in zip(product, chunk):
            row[: len(p)] = coeffs[: len(p)] * p
        if len(product) == 1:
            yield inverse(Spectrum(base, product[0])).values
        else:
            yield from _separable_apply(base, product, +1)


def _kernel(kind: str, w: WeightSequence | None, base: VilenkinBase, n: int) -> StepFunction:
    """The order-n kernel of ``kind``: its profile on the unit spectrum, after the order check."""
    _check_order(base, n)
    return StepFunction(base, next(_synthesize(base, np.ones(n), [_profile(kind, w, n)])))


def dirichlet(base: VilenkinBase, n: int) -> StepFunction:
    """D_n = sum_{k<n} psi_k, synthesized from its 0/1 spectral profile."""
    return _kernel("dirichlet", None, base, n)


def fejer_kernel(base: VilenkinBase, n: int) -> StepFunction:
    """K_n = (1/n) sum_{k=1}^n D_k, spectral profile (n-j)/n for j < n."""
    return _kernel("fejer", None, base, n)


def norlund_kernel(w: WeightSequence, base: VilenkinBase, n: int) -> StepFunction:
    """F_n = (1/Q_n) sum_{k=1}^n q_{n-k} D_k.

    Collecting the coefficient of each character gives the equivalent
    spectral profile Q_{n-j}/Q_n for j < n, synthesized in one pass.
    """
    return _kernel("norlund", w, base, n)


def t_kernel(w: WeightSequence, base: VilenkinBase, n: int) -> StepFunction:
    """F_n^inv = (1/Q_n) sum_{k=0}^{n-1} q_k D_k, profile (Q_n - Q_{j+1})/Q_n."""
    return _kernel("tmean", w, base, n)


def kernel_for(w: WeightSequence, base: VilenkinBase, n: int) -> StepFunction:
    """The kernel matching the family's aggregation shape."""
    return _kernel(w.mean_type, w, base, n)


def partial_sum(f: StepFunction, n: int) -> StepFunction:
    """S_n f = sum_{k<n} coeffs[k] psi_k: f's spectrum under the Dirichlet profile."""
    if not 0 <= n <= f.base.size:
        raise ValueError(f"partial-sum order {n} outside [0, {f.base.size}]")
    profile = _profile("dirichlet", None, n)
    return StepFunction(f.base, next(_synthesize(f.base, forward(f).coeffs, [profile])))


MEAN_METHODS = ("direct", "kernel", "abel")


def mean(f: StepFunction, w: WeightSequence, n: int, method: str = "direct") -> StepFunction:
    """The weighted mean of order n of f under the family w.

    ``method`` selects the evaluation route: "direct" accumulates partial
    sums, "kernel" multiplies f's spectrum by the kernel's profile, "abel"
    uses the rearrangement through Fejer means.  All routes agree up to
    roundoff.
    """
    base = f.base
    _check_mean(base, w, n)
    if method == "kernel":
        profile = _profile(w.mean_type, w, n)
        return StepFunction(base, next(_synthesize(base, forward(f).coeffs, [profile])))
    if method not in MEAN_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {MEAN_METHODS}")
    direct, abel = _abel_accumulate(base, forward(f).coeffs, [(w, n)])
    return StepFunction(base, direct[0] if method == "direct" else abel[0])


def _check_mean(base: VilenkinBase, w: WeightSequence, n: int) -> None:
    """Reject an order-n mean outside [1, M_N] or with Q_n = 0."""
    if not 1 <= n <= base.size:
        raise ValueError(f"mean order {n} outside [1, {base.size}]")
    if w.Q(n) <= 0:
        raise ValueError(f"degenerate weights: Q_{n} = 0 for {w.kind}")


def _partial_sum_weights(w: WeightSequence, n: int) -> np.ndarray:
    """Weights c_k of S_k f, k = 1, 2, ..., in the order-n mean times Q_n.

    norlund: c_k = q_{n-k} for k <= n; tmean: c_k = q_k for k < n (the k = 0
    term is the empty sum).
    """
    q = w.q_prefix(n)
    return q[::-1] if w.mean_type == "norlund" else q[1:]


def _characters(base: VilenkinBase, count: int):
    """Yield psi_0 .. psi_{count-1} over every rank, each valid until the next step.

    psi_0 and each digit row psi_{a M_j}, built the first time an index has
    digit a at place j, come from :func:`character_values`.  Every other psi_k
    is the product of the rows of its nonzero digits in increasing place
    order, the order in which :func:`character_values` multiplies them, so it
    has the same bits.
    """
    product = np.empty(base.size, dtype=np.complex128)
    rows: dict[tuple[int, int], np.ndarray] = {}
    digits = [0] * base.depth  # of k

    def row(j: int, a: int) -> np.ndarray:
        if (j, a) not in rows:
            rows[j, a] = character_values(base, a * base.cumprod[j])
            rows[j, a].setflags(write=False)  # a one-digit psi_k is the row itself
        return rows[j, a]

    for _ in range(count):
        places = [(j, a) for j, a in enumerate(digits) if a]
        if not places:
            yield character_values(base, 0)
        elif len(places) == 1:
            yield row(*places[0])
        else:
            psi = np.multiply(row(*places[0]), row(*places[1]), out=product)
            for place in places[2:]:
                psi *= row(*place)
            yield psi
        for j, m in enumerate(base.radices):  # digits of k + 1
            digits[j] = (digits[j] + 1) % m
            if digits[j]:
                break


def _character_stream(base: VilenkinBase, coeffs: np.ndarray):
    """Yield (k, S_k, k sigma_k) for k = 1 .. len(coeffs), taking psi_{k-1} from :func:`_characters`.

    S_k = sum_{j<k} coeffs[j] psi_j and k sigma_k = sum_{j<=k} S_j are updated
    in place, so each yielded array is valid until the next step.
    """
    running = np.zeros(base.size, dtype=np.complex128)  # S_k
    block = np.zeros(base.size, dtype=np.complex128)  # k * sigma_k
    psis = _characters(base, len(coeffs))
    for k, (coefficient, psi) in enumerate(zip(coeffs, psis), start=1):
        running += coefficient * psi
        block += running
        yield k, running, block


def _abel_accumulate(base: VilenkinBase, coeffs: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    """The direct and the Abel order-n means of the spectrum ``coeffs``, one row per (w, n).

    One :func:`_character_stream` serves every row.  Each row with a k-th
    weight adds c_k S_k (direct) and d_k k sigma_k (Abel).  The rows are kept
    sorted by their number of weights, so those rows are a suffix, and each
    row's arithmetic and its order are those of a stream over that row alone.
    """
    weights = [_partial_sum_weights(w, n) for w, n in rows]
    sizes = np.array([len(c) for c in weights], dtype=int)
    order = np.argsort(sizes, kind="stable")
    lengths = sizes[order]
    # complex weights: one product per row, with no cast inside the stream
    c = np.zeros((len(rows), lengths.max(initial=0)), dtype=np.complex128)
    for slot, i in enumerate(order):
        c[slot, : lengths[slot]] = weights[i]
    # sum_k c_k S_k f = sum_j (c_j - c_{j+1}) * j * sigma_j f, with c past the end 0
    d = c.copy()
    d[:, :-1] -= c[:, 1:]
    direct = np.zeros((len(rows), base.size), dtype=np.complex128)
    abel = np.zeros_like(direct)
    for k, running, block in _character_stream(base, coeffs[: c.shape[1]]):
        live = np.searchsorted(lengths, k)  # the first row with a k-th weight
        direct[live:] += c[live:, k - 1, None] * running
        abel[live:] += d[live:, k - 1, None] * block
    back = np.argsort(order)
    q_n = np.array([w.Q(n) for w, n in rows])[:, None]
    return direct[back] / q_n, abel[back] / q_n


def _live_rows(families, base: VilenkinBase, orders) -> list[tuple[int, WeightSequence, int]]:
    """(family index, w, n) for every order with Q_n > 0, after every order's range check."""
    orders = list(orders)
    for n in orders:
        _check_order(base, n)
    return [(i, w, n) for i, w in enumerate(families) for n in orders if w.Q(n) > 0]


def _deviation(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def verify_dirichlet_complement(base: VilenkinBase, r: int, offsets) -> float:
    """Largest residual of D_{M_r - j} = D_{M_r} - psi_{M_r - 1} * conj(D_j) over the offsets j.

    Exact for 0 <= j < M_r because the top M_r - j characters are the
    digitwise complements of the bottom j.  Each residual is the max
    pointwise deviation over the group; the distinct D_n of the level are the
    rows of one synthesis.
    """
    if not 0 <= r <= base.depth:
        raise ValueError(f"block level {r} outside [0, {base.depth}]")
    m_r = base.cumprod[r]
    offsets = [int(j) for j in offsets]
    for j in offsets:
        if not 0 <= j < m_r:
            raise ValueError(f"offset {j} outside [0, {m_r})")
    orders = sorted({m_r, *offsets, *(m_r - j for j in offsets)})
    profiles = (_profile("dirichlet", None, n) for n in orders)
    tables = dict(zip(orders, _synthesize(base, np.ones(m_r), profiles)))
    psi = character_values(base, m_r - 1)
    return max(
        (_deviation(tables[m_r - j], tables[m_r] - psi * np.conj(tables[j])) for j in offsets),
        default=0.0,
    )


def verify_block_kernel_split(w: WeightSequence, base: VilenkinBase, r: int) -> float:
    """Residual of F_{M_r} = D_{M_r} - psi_{M_r - 1} * conj(F_{M_r}^inv).

    Follows from the Dirichlet complement identity applied to the reversed
    kernel sum; stated for non-increasing families, which the tag must
    confirm.  The level r = 0 (M_0 = 1) is excluded as degenerate.
    """
    if w.monotonicity != "non-increasing":
        raise ValueError(
            f"block kernel split needs a non-increasing family, got {w.kind} "
            f"({w.monotonicity})"
        )
    if not 1 <= r <= base.depth:
        raise ValueError(f"block level {r} outside [1, {base.depth}]")
    m_r = base.cumprod[r]
    d_m = _kernel("dirichlet", None, base, m_r).values
    rhs = d_m - character_values(base, m_r - 1) * np.conj(t_kernel(w, base, m_r).values)
    return _deviation(norlund_kernel(w, base, m_r).values, rhs)


def verify_dirichlet_integral(base: VilenkinBase) -> float:
    """Largest |integral of D_n - 1| over every order 1 <= n <= M_N.

    D_n is the character stream's S_n on the unit spectrum, a literal sum, so
    the check does not share the spectral synthesis of :func:`dirichlet`.
    """
    worst = 0.0
    for _, d_n, _ in _character_stream(base, np.ones(base.size)):
        worst = max(worst, abs(d_n.mean() - 1.0))
    return float(worst)


def verify_abel_prefix_sum(w: WeightSequence, horizon: int) -> float:
    """Largest relative residual of Q_n = q_0 n + sum_{i=1}^{n-1} (q_i - q_{i-1}) (n - i).

    The scalar Abel rearrangement, over every order n <= horizon with
    Q_n > 0; it holds for any sequence.  With d_i = q_i - q_{i-1}, the sum is
    n A_n - B_n for the prefix sums A_n of d_i and B_n of i d_i, so every
    order comes from two cumulative sums of q alone, never from Q.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    q = w.q_prefix(horizon)
    Q = w.Q_prefix(horizon)[1:]
    n = np.arange(1, horizon + 1, dtype=float)
    d = np.diff(q)  # d_1 .. d_{horizon-1}
    A = np.concatenate([[0.0], np.cumsum(d)])
    B = np.concatenate([[0.0], np.cumsum(n[:-1] * d)])
    rebuilt = q[0] * n + n * A - B
    live = Q > 0
    return float(np.max(np.abs(rebuilt[live] - Q[live]) / Q[live], initial=0.0))


def verify_kernel_abel(families, base: VilenkinBase, orders) -> list[float]:
    """Per family, the largest residual of the kernel-level Abel rearrangement

        F_n = (1/Q_n) (sum_{j<n} (q_{n-j} - q_{n-j-1}) j K_j + q_0 n K_n)

    over the orders with Q_n > 0.  The right side is the Abel route of the
    character stream on the coefficients 1, where S_k = D_k and
    sum_{j<=k} D_j = k K_k, so it is a literal character sum; it is compared
    with the F_n of :func:`norlund_kernel`, drawn as the rows of one synthesis.
    Stated for norlund families only.
    """
    for w in families:
        if w.mean_type != "norlund":
            raise ValueError(f"kernel Abel identity needs a norlund family, got {w.kind}")
    live = _live_rows(families, base, orders)
    _, abel = _abel_accumulate(base, np.ones(base.size), [(w, n) for _, w, n in live])
    kernels = _synthesize(base, np.ones(base.size), (_profile("norlund", w, n) for _, w, n in live))
    worst = [0.0] * len(families)
    for (i, w, n), rebuilt, kernel in zip(live, abel, kernels):
        worst[i] = max(worst[i], _deviation(rebuilt, kernel))
    return worst


def verify_kernel_mass(families, base: VilenkinBase, orders) -> list[float]:
    """Per family, the largest residual of the integral of its kernel against its mass.

    Every order with Q_n > 0 is checked, each kernel of :func:`kernel_for` a
    row of one synthesis.  Each D_k with k >= 1 has unit integral and
    D_0 = 0, so the norlund kernel has mass 1 and the tmean kernel, which
    gives D_0 the weight q_0, has mass 1 - q_0/Q_n.
    """
    live = _live_rows(families, base, orders)
    profiles = (_profile(w.mean_type, w, n) for _, w, n in live)
    worst = [0.0] * len(families)
    for (i, w, n), kernel in zip(live, _synthesize(base, np.ones(base.size), profiles)):
        expected = 1.0 if w.mean_type == "norlund" else 1.0 - w.q(0) / w.Q(n)
        worst[i] = max(worst[i], abs(complex(kernel.mean()) - expected))
    return worst


def verify_mean_paths(f: StepFunction, families, orders) -> list[float]:
    """Per family, the largest deviation of the kernel and Abel mean routes from the direct one.

    Every order with Q_n > 0 is checked.  The direct and Abel means of all
    families and orders come from one character stream over f's spectrum,
    and their kernel-route means from one synthesis on that spectrum.  At
    each family's first such order, the public one-order routes of
    :func:`mean` are also held against their rows of the batch.
    """
    live = _live_rows(families, f.base, orders)
    coeffs = forward(f).coeffs
    direct, abel = _abel_accumulate(f.base, coeffs, [(w, n) for _, w, n in live])
    spectral = _synthesize(f.base, coeffs, (_profile(w.mean_type, w, n) for _, w, n in live))
    worst = [0.0] * len(families)
    seen = set()
    for (i, w, n), exact, rebuilt, multiplied in zip(live, direct, abel, spectral):
        pairs = [(multiplied, exact), (rebuilt, exact)]
        if i not in seen:
            seen.add(i)
            pairs += [
                (mean(f, w, n, "kernel").values, multiplied),
                (mean(f, w, n, "direct").values, exact),
                (mean(f, w, n, "abel").values, rebuilt),
            ]
        worst[i] = max(worst[i], *(_deviation(a, b) for a, b in pairs))
    return worst


def kernel_l1_profile(
    w: WeightSequence, base: VilenkinBase, n_list
) -> list[tuple[int, float]]:
    """L1 norms of the family's kernel at each requested order, synthesized in chunks of orders."""
    orders = [int(n) for n in n_list]
    for n in orders:
        _check_order(base, n)
    profiles = (_profile(w.mean_type, w, n) for n in orders)
    tables = _synthesize(base, np.ones(base.size), profiles)
    return [(n, float(np.abs(table).mean())) for n, table in zip(orders, tables)]


def kernel_tail(w: WeightSequence, base: VilenkinBase, n: int, n_cut: int) -> float:
    """Tail mass of the kernel outside the coset I_{n_cut}(0)."""
    if not 0 <= n_cut < base.depth:
        raise ValueError(f"cut level {n_cut} outside [0, {base.depth})")
    table = kernel_for(w, base, n)
    inside = coset_members(base, n_cut, 0)
    mask = np.ones(base.size, dtype=bool)
    mask[inside] = False
    return float(np.abs(table.values[mask]).sum() / base.size)


def fejer_domination_constant(base: VilenkinBase, n: int) -> float:
    """Smallest empirical c with n|K_n| <= c * sum_{l=<n>}^{|n|} M_l |K_{M_l}|.

    Points where both sides vanish are treated as satisfied; a vanishing
    bound against a nonvanishing left side yields inf.
    """
    _check_order(base, n)
    top, bottom = order_stats(n, base)
    blocks = [base.cumprod[level] for level in range(bottom, top + 1)]
    # K_n and the K_{M_l} of its levels are the rows of one chunked synthesis
    profiles = (_profile("fejer", None, m) for m in [n, *blocks])
    tables = _synthesize(base, np.ones(base.size), profiles)
    numerator = n * np.abs(next(tables))
    denominator = np.zeros(base.size)
    for m_l, table in zip(blocks, tables):
        denominator += m_l * np.abs(table)
    tiny = 1e-12
    degenerate = denominator <= tiny
    if np.any(degenerate & (numerator > tiny)):
        return math.inf
    live = ~degenerate
    if not live.any():
        return 0.0
    return float(np.max(numerator[live] / denominator[live]))
