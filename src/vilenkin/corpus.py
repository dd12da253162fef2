"""Named test-function families for experiments and benchmarks."""

from __future__ import annotations

import numpy as np

from .group import VilenkinBase
from .transform import StepFunction, character_values

CORPUS_NAMES = ("constant", "character:k", "coset:r", "spike:r", "smooth2", "random")


def corpus(name: str, base: VilenkinBase, seed: int = 0) -> StepFunction:
    """Build a named test function.

    constant      all ones
    character:k   psi_k sampled
    coset:r       seeded random values, constant on every rank-r coset
    spike:r       M_r on I_r(0), zero elsewhere (unit L1 mass)
    smooth2       a fixed real function of the first two coordinates
    random        i.i.d. uniform values in [-1, 1] from the seeded generator
    """
    kind, colon, arg = name.partition(":")
    if colon and kind in CORPUS_NAMES:  # the kinds listed without ":" take no parameter
        raise ValueError(f"corpus {name!r}: {kind} takes no parameter")
    if kind == "constant":
        return StepFunction(base, np.ones(base.size))
    if kind == "character":
        k = _int_arg(name, arg)
        if not 0 <= k < base.size:
            raise ValueError(f"character index {k} outside [0, {base.size})")
        return StepFunction(base, character_values(base, k))
    if kind == "coset":
        r = _int_arg(name, arg)
        if not 0 <= r <= base.depth:
            raise ValueError(f"coset depth {r} outside [0, {base.depth}]")
        rng = np.random.default_rng(seed)
        per_coset = rng.uniform(-1.0, 1.0, base.cumprod[r])
        return StepFunction(base, np.tile(per_coset, base.size // base.cumprod[r]))
    if kind == "spike":
        r = _int_arg(name, arg)
        if not 0 <= r <= base.depth:
            raise ValueError(f"spike depth {r} outside [0, {base.depth}]")
        m_r = base.cumprod[r]
        values = np.where(np.arange(base.size) % m_r == 0, float(m_r), 0.0)
        return StepFunction(base, values)
    if kind == "smooth2":
        if base.depth < 2:
            raise ValueError("smooth2 needs depth >= 2")
        digits = base.digit_table
        values = np.cos(2 * np.pi * digits[:, 0] / base.radices[0]) + 0.5 * np.sin(
            2 * np.pi * digits[:, 1] / base.radices[1]
        )
        return StepFunction(base, values)
    if kind == "random":
        rng = np.random.default_rng(seed)
        return StepFunction(base, rng.uniform(-1.0, 1.0, base.size))
    raise ValueError(f"unknown corpus {name!r}; expected one of {CORPUS_NAMES}")


def _int_arg(name: str, arg: str) -> int:
    try:
        return int(arg)
    except ValueError as exc:
        raise ValueError(f"corpus {name!r} needs an integer parameter") from exc
