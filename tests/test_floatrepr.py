"""``eit3._floatrepr.rows_text`` against CPython's own ``repr``.

The writers' bytes are ``repr``'s, so the formatter must agree with it on
every double: the edge sets below reach each branch of the digit search
(interval ends, ties, the asymmetric interval at powers of two,
subnormals) and of the layout (the fixed and exponent forms and their
switches, two- and three-digit exponents, signed zeros, NaN and the
infinities); a million seeded bit patterns and a Hypothesis property cover
the rest.  ``tests/float_repr_sweep.py`` runs the same comparison on more
numbers.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from eit3 import _floatrepr
from eit3._floatrepr import rows_text


def expected(block):
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist())


def assert_repr(values, cols=1):
    """rows_text of ``values`` as rows of ``cols`` numbers equals repr's
    text; on a mismatch, names the first few numbers that differ."""
    block = np.asarray(values, dtype=np.float64).reshape(-1, cols)
    got = rows_text(block)
    if got != expected(block):
        numbers = block.ravel().tolist()
        texts = got.replace("\n", ",").split(",")[:-1]
        wrong = [(x.hex(), repr(x), text)
                 for x, text in zip(numbers, texts) if repr(x) != text]
        pytest.fail(f"{len(wrong)} numbers differ from repr, e.g. {wrong[:5]}"
                    if wrong else "the separators differ")


def both_signs(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


def neighbours(values, count=30):
    """Each value with its ``count`` nearest doubles on either side."""
    values = np.asarray(values, dtype=np.float64)
    steps = [values]
    for direction in (np.inf, -np.inf):
        x = values
        for _ in range(count):
            with np.errstate(over="ignore"):  # past the largest float: inf
                x = np.nextafter(x, direction)
            steps.append(x)
    out = np.concatenate(steps)
    return out[np.isfinite(out)]


def test_the_interpreter_prints_the_shortest_repr():
    # the contract the formatter copies; a "legacy" build prints 17 digits
    assert sys.float_repr_style == "short"


def test_signed_zeros_nan_and_infinities():
    nan = float("nan")
    values = [0.0, -0.0, nan, -nan, math.copysign(nan, -1.0), math.inf,
              -math.inf]
    assert rows_text(np.array([values])) == "0.0,-0.0,nan,nan,nan,inf,-inf\n"
    assert_repr(values * 3, cols=7)


def test_every_subnormal_with_a_small_mantissa():
    mantissas = np.arange(1, 2**12, dtype=np.uint64)
    assert_repr(both_signs(mantissas.view(np.float64)))


def test_random_subnormals(rng):
    mantissas = rng.integers(1, 2**52, 100_000, dtype=np.uint64)
    assert_repr(both_signs(mantissas.view(np.float64)), cols=10)


def test_the_smallest_normal_and_the_largest_float():
    tiny, huge = sys.float_info.min, sys.float_info.max
    assert_repr(both_signs(neighbours([tiny, huge, 5e-324])))


def test_all_powers_of_two():
    # above the subnormals a power of two has its lower neighbour at half
    # the distance of its upper one: Schubfach's asymmetric interval
    assert_repr(both_signs(np.ldexp(1.0, np.arange(-1074, 1024))))


@pytest.mark.parametrize("mantissa", [1.0, 5.0, 2.5])
def test_decimal_powers_and_their_neighbours(mantissa):
    exponents = range(-324, 309)
    values = [float(f"{mantissa}e{k}") for k in exponents]
    values = [v for v in values if 0.0 < v < math.inf]
    assert_repr(both_signs(neighbours(values)))


@pytest.mark.parametrize("q", range(-12, 13))
def test_ties_between_two_shortest_candidates(q):
    # m 2^q with a 53-bit m: the integers and halves, quarters, ... of
    # 2^52..2^53 and their multiples, where the digits can tie
    m = np.arange(2**52, 2**53, 2**52 // 20_000 + 1, dtype=np.int64)
    assert_repr(both_signs(np.ldexp(m.astype(np.float64), q)))


def test_the_switches_between_fixed_and_exponent_form():
    # decpt -4 / -5 (0.0001 and 1e-05) and 16 / 17 (1e+16), and the
    # exponents 99 / 100 where a third exponent digit appears
    values = [1e-4, 9.999999999999999e-05, 1.2345e-4, 1e-5, 1e15, 1e16,
              9999999999999998.0, 1.2345678901234567e16, 1e17, 123.0, 1e-99,
              1e-100, 1e99, 1e100, 9.99e99, 1.5e-100, 0.1, 0.5]
    assert_repr(both_signs(neighbours(values, count=5)))


def test_a_million_random_bit_patterns():
    bits = np.random.default_rng(27).integers(0, 2**64, 10**6, dtype=np.uint64)
    assert_repr(bits.view(np.float64), cols=10)


def test_rows_text_is_repr_of_each_row():
    # Hypothesis is imported here, not at the top, so that a missing test
    # dependency skips this property only, never the edge sets above
    hypothesis = pytest.importorskip("hypothesis")
    hnp = pytest.importorskip("hypothesis.extra.numpy")

    @hypothesis.settings(max_examples=200, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(hnp.arrays(np.float64,
                                 hnp.array_shapes(min_dims=2, max_dims=2,
                                                  max_side=12),
                                 elements=hypothesis.strategies.floats()))
    def check(block):
        assert rows_text(block) == expected(block)

    check()


def test_blocks_of_any_layout():
    # C- and Fortran-ordered, strided and no rows: each row ends in "\n"
    block = np.arange(12.0).reshape(3, 4) * 0.1
    assert rows_text(block) == expected(block)
    assert rows_text(np.asfortranarray(block)) == expected(block)
    assert rows_text(block[::2, 1::2]) == expected(block[::2, 1::2])
    assert rows_text(np.empty((0, 5))) == ""


def test_g_table_against_exact_powers_of_ten():
    # g(k) = floor(10^-k / 2^r) + 1 with 2^125 <= g - 1 < 2^126, recomputed
    # from Fractions; the table holds g1 = g >> 63, then g1 and g0 = g mod
    # 2^63 as 32-bit limbs
    table = [[int(v) for v in row] for row in _floatrepr._g_table()]
    for i, k in enumerate(range(_floatrepr._K_MIN, _floatrepr._K_MAX + 1)):
        power = Fraction(10) ** -k
        r = (power.numerator.bit_length() - power.denominator.bit_length()
             - 125)  # floor(log2 10^-k) - 125, give or take one
        while Fraction(2) ** (r + 126) <= power:
            r += 1
        while Fraction(2) ** (r + 125) > power:
            r -= 1
        g = math.floor(power / Fraction(2) ** r) + 1
        g1, g1_hi, g1_lo, g0_hi, g0_lo = (row[i] for row in table)
        assert (g1_hi << 95 | g1_lo << 63 | g0_hi << 32 | g0_lo) == g, k
        assert g1 == g >> 63
        assert max(g1_hi, g0_hi) < 2**31 and max(g1_lo, g0_lo) < 2**32
