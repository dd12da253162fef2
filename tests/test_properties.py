"""Derandomized property tests on random radix lists with M_N <= 256.

Each property is drawn over mixed-radix groups and seeded data: the group
axioms and index coding, the transform identities and the CSV format, the
agreement of the three mean routes, and the Fejer maximal operator's
character stream against the kernel multiplier route.
"""

import io
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vilenkin.analysis import full_maximal_fejer
from vilenkin.group import GroupPoint, VilenkinBase, decode_index, encode_index
from vilenkin.summability import MEAN_METHODS, make_weights, mean, weights_from_spec
from vilenkin.transform import Spectrum, StepFunction, convolve, forward

EXACT = 1e-12
COMPOSED = 1e-10
MAX_SIZE = 256
FAMILIES = ["constant", "cesaro:0.5", "valpha:0.5", "riesz_log", "norlund_log", "blog:0.5:1"]
PROPERTY = settings(max_examples=50, derandomize=True, deadline=None)


@st.composite
def bases(draw):
    """A group whose radices are 2..7, cut to the longest prefix with M_N <= 256."""
    radices = draw(st.lists(st.integers(2, 7), min_size=1, max_size=8))
    keep = 1
    while keep < len(radices) and math.prod(radices[: keep + 1]) <= MAX_SIZE:
        keep += 1
    return VilenkinBase(tuple(radices[:keep]))


@st.composite
def step_functions(draw, base=None):
    base = base or draw(bases())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return StepFunction(base, rng.uniform(-1, 1, base.size) + 1j * rng.uniform(-1, 1, base.size))


@st.composite
def points(draw, base):
    return GroupPoint.from_rank(base, draw(st.integers(0, base.size - 1)))


def orders(base):
    """Orders 1 .. M_N; about half the draws are M_N itself, the whole stream."""
    return st.one_of(st.just(base.size), st.integers(1, base.size))


@PROPERTY
@given(data=st.data())
def test_group_axioms_and_index_coding(data):
    base = data.draw(bases())
    x, y, z = (data.draw(points(base)) for _ in range(3))
    zero = GroupPoint.zero(base)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x + zero == x and x - x == zero
    assert (x - y) + y == x
    n = data.draw(st.integers(0, base.size - 1))
    assert encode_index(decode_index(n, base), base) == n
    assert decode_index(x.rank, base) == x.coords


@PROPERTY
@given(data=st.data())
def test_parseval_convolution_and_csv(data):
    f = data.draw(step_functions())
    g = data.draw(step_functions(f.base))
    spec = forward(f)
    assert abs(np.mean(np.abs(f.values) ** 2) - np.sum(np.abs(spec.coeffs) ** 2)) <= EXACT
    product = spec.coeffs * forward(g).coeffs
    assert np.max(np.abs(forward(convolve(f, g)).coeffs - product)) <= COMPOSED
    tables = [(f, "values", StepFunction.from_csv), (spec, "coeffs", Spectrum.from_csv)]
    for table, field, read in tables:
        text = io.StringIO()
        table.to_csv(text)
        back = read(f.base, io.StringIO(text.getvalue()))
        np.testing.assert_array_equal(getattr(back, field), getattr(table, field))


@PROPERTY
@given(data=st.data())
def test_three_mean_routes_agree(data):
    f = data.draw(step_functions())
    w = weights_from_spec(data.draw(st.sampled_from(FAMILIES)))
    n = data.draw(orders(f.base))
    assume(w.Q(n) > 0)
    direct, kernel, abel = (mean(f, w, n, method).values for method in MEAN_METHODS)
    assert np.max(np.abs(kernel - direct)) <= COMPOSED
    assert np.max(np.abs(abel - direct)) <= COMPOSED


@PROPERTY
@given(data=st.data())
def test_fejer_maximal_stream_matches_the_kernel_route(data):
    f = data.draw(step_functions())
    n_max = data.draw(orders(f.base))
    constant = make_weights("constant")
    oracle = np.max(
        [np.abs(mean(f, constant, m, "kernel").values) for m in range(1, n_max + 1)], axis=0
    )
    assert np.max(np.abs(full_maximal_fejer(f, n_max).values - oracle)) <= COMPOSED
