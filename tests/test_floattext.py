"""The float renderer writes every float64 exactly as `floattext.FORMAT` does.

`floattext.render` is how `write_csv` renders a float column: the numpy
kernel, and `FORMAT` itself for the values the kernel leaves to it.  Each
test compares its text with `FORMAT % v`, value by value, on bit patterns,
every binary exponent, powers of ten and their neighbours, integers up to
2**63 and values next to a rounding tie in the 17th digit.
"""

import decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abreu1d import floattext

EXAMPLES = settings(derandomize=True, max_examples=300, deadline=None)


def assert_renders_as_format(values):
    values = np.asarray(values, dtype=np.float64)
    text = floattext.render(values)[0]
    got = [t.replace(b"\0", b"").decode("ascii") for t in text.tolist()]
    want = [floattext.FORMAT % v for v in values.tolist()]
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not wrong, wrong[:10]


def test_raw_bit_patterns():
    # every class of double: normal, subnormal, zero, inf, quiet and signalling nan
    bits = np.random.default_rng(20261020).integers(0, 2**64, 200_000, dtype=np.uint64,
                                                     endpoint=False)
    with np.errstate(all="raise"):
        assert_renders_as_format(bits.view(np.float64))


def test_every_binary_exponent():
    rng = np.random.default_rng(7)
    exponent = np.repeat(np.arange(2048, dtype=np.uint64), 6)
    mantissa = np.tile(np.array([0, 1, 2**52 - 1, 0, 0, 0], dtype=np.uint64), 2048)
    mantissa[3::6] = rng.integers(0, 2**52, 2048, dtype=np.uint64)
    mantissa[4::6] = rng.integers(0, 2**52, 2048, dtype=np.uint64)
    mantissa[5::6] = 2**51
    bits = (exponent << np.uint64(52)) | mantissa
    values = bits.view(np.float64)
    assert_renders_as_format(np.concatenate([values, -values]))


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert_renders_as_format(np.concatenate([values, -values]))


def test_integers_up_to_two_to_the_63():
    ints = [2**j + d for j in range(64) for d in (-3, -1, 0, 1, 5) if 2**j + d >= 0]
    ints += [10**j + d for j in range(19) for d in (-1, 0, 1)]
    ints += np.random.default_rng(63).integers(0, 2**63, 10_000, dtype=np.int64).tolist()
    values = np.array([float(k) for k in ints])
    assert_renders_as_format(np.concatenate([values, -values]))


def test_exact_ties_in_the_17th_digit():
    # k + 1/4 and k + 3/4 with 16-digit k, and x**2 - 1 at the nodes of a
    # 2**13-cell grid, have 18 digits, the last a 5; 10**(16 - e) is exact
    # for them, and the kernel rounds them to even
    k = np.random.default_rng(17).integers(10**15, 2**51, 5_000).astype(np.float64)
    x = np.linspace(-0.5, 0.5, 2**13 + 1)
    values = np.concatenate([k + 0.25, k + 0.75, x * x - 1.0])
    _, fallback = floattext.render(values)
    assert not fallback.any()
    assert_renders_as_format(values)
    # below 1e-6 the scale is inexact: 2**-25 = 2.98023223876953125e-08 falls back
    ties = np.ldexp(np.array([1.0, 3.0, -1.0]), -25)
    assert floattext.render(ties)[1].all()
    assert_renders_as_format(ties)


def test_few_random_normal_values_fall_back():
    # (from 2**50 to 10**16, a double's quarters make exact ties, which all fall back)
    values = np.random.default_rng(4).standard_normal(500_000)
    _, fallback = floattext.render(values)
    assert fallback.mean() < 1e-4


@EXAMPLES
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=64))
def test_any_floats(values):
    assert_renders_as_format(values)


@EXAMPLES
@given(st.integers(-2**63, 2**63))
def test_any_integer(k):
    assert_renders_as_format([float(k)])


def test_values_whose_18th_digit_is_5():
    # exactly: the double's own decimal expansion has a 5 in 18th place
    rng = np.random.default_rng(18)
    values = rng.standard_normal(100_000) * 10.0 ** rng.integers(-250, 250, 100_000)
    values = [v for v in values.tolist() if decimal.Decimal(v).as_tuple().digits[17:18] == (5,)]
    assert len(values) > 5_000
    assert_renders_as_format(values)


@EXAMPLES
@given(st.integers(10**16, 10**17 - 1), st.integers(-340, 290), st.booleans())
def test_values_written_with_an_18th_digit_of_5(digits, exponent, negative):
    # the double nearest an 18-digit decimal that ends in 5, a near tie
    assert_renders_as_format([float(f"{'-' if negative else ''}{digits}5e{exponent}")])


@pytest.mark.parametrize("m", [0, 1, floattext.BLOCK_VALUES - 1, floattext.BLOCK_VALUES,
                               floattext.BLOCK_VALUES + 1, 3 * floattext.BLOCK_VALUES + 5])
def test_block_edges(m):
    rng = np.random.default_rng(m)
    assert_renders_as_format(rng.standard_normal(m) * 10.0 ** rng.integers(-30, 30, m))
