"""The text ``repr`` gives float64 numbers, for whole blocks at once.

:func:`rows_text` formats an (N, C) float64 block as
``"".join(",".join(map(repr, row)) + "\\n" for row in block.tolist())``,
byte for byte, with numpy operations over the whole block instead of one
``repr`` call per number.

Digits.  ``repr`` prints the shortest decimal that reads back as the same
double, the closest one to it where several are that short, ties to an
even last digit.  Those digits come from Giulietti's Schubfach algorithm
("The Schubfach way to render doubles", 2020; compare Adams, "Ryu: fast
float-to-string conversion", PLDI 2018), as in Java's ``DoubleToDecimal``
but without its minimum of two digits: ``repr`` gives 5e-324, Java 4.9E-324.
A double c 2^q is scaled by a 126-bit approximation g(k) of 10^-k, so that
it and its rounding interval's ends are read off three products rounded
to odd.  The digit arithmetic is all ``uint64`` arrays and ``np.uint64``
scalars (a 64x64-bit product's high half from 32-bit limbs), the exponent
arithmetic ``int64``, so numpy 1.24's value-based casting and numpy 2's
types agree.

Layout, as CPython's ``float_repr_style == "short"`` lays the digits out:
``1e-05``, ``0.0001``, ``1e+16``, ``1234.5``, ``100.0`` and
``1.7976931348623157e+308``: the exponent form for a decimal point
position decpt <= -4 or > 16, with at least two exponent digits, else the
fixed form with ``.0`` after an integer; ``nan`` for either sign of NaN,
``inf``, ``-inf``, ``0.0`` and ``-0.0``.  Each number is written into a
fixed row of character slots, one for every character any number could
need, the slots it does not use are zeroed, and the text is the bytes
without the zeros.
"""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFF_FFFF)
_M63 = _U(0x7FFF_FFFF_FFFF_FFFF)

# the range of decimal exponents k that Schubfach's g(k) takes for doubles
_K_MIN, _K_MAX = -324, 292
# 10**0 ... 10**17 for digit counts and the normalization to 17 digits
_POW10 = 10 ** np.arange(18, dtype=np.uint64)


def _flog2pow10(e):
    """floor(e log2 10) for integers |e| <= 400, of a Python or an int64
    array (Java's ``MathUtils.flog2pow10``)."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _g_table() -> np.ndarray:
    """g(k) = floor(10^-k 2^-r) + 1 with r = floor(log2 10^-k) - 125, so
    2^125 < g < 2^126, for each k in [_K_MIN, _K_MAX], as a (5, 617)
    ``uint64`` array: g1 = g >> 63, then the high and low 32-bit halves of
    g1 and of g0 = g mod 2^63.  Exact, from Python ints."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        if k > 0:
            g = (1 << -r) // 10**k + 1
        elif r >= 0:
            g = (10**-k >> r) + 1
        else:
            g = (10**-k << -r) + 1
        g1, g0 = g >> 63, g & 0x7FFF_FFFF_FFFF_FFFF
        rows.append((g1, g1 >> 32, g1 & 0xFFFF_FFFF, g0 >> 32, g0 & 0xFFFF_FFFF))
    return np.array(rows, dtype=np.uint64).T.copy()


def _mul_high(a_hi, a_lo, b_hi, b_lo):
    """The high 64 bits of the 128-bit product of a < 2^63 and b < 2^60,
    each given as its 32-bit limbs: the middle sum cannot overflow."""
    mid = a_hi * b_lo + a_lo * b_hi + ((a_lo * b_lo) >> _U(32))
    return a_hi * b_hi + (mid >> _U(32))


def _round_to_odd(g, cp):
    """Java's ``rop(g1, g0, cp)``: g cp / 2^127 rounded to odd, for a row
    ``g`` of ``_g_table`` and cp < 2^60."""
    g1, g1_hi, g1_lo, g0_hi, g0_lo = g
    cp_hi, cp_lo = cp >> _U(32), cp & _M32
    x1 = _mul_high(g0_hi, g0_lo, cp_hi, cp_lo)
    y1 = _mul_high(g1_hi, g1_lo, cp_hi, cp_lo)
    z = ((g1 * cp) >> _U(1)) + x1  # g1 * cp: the low 64 bits of g1 cp
    return (y1 + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _shortest(bits):
    """The shortest round-trip digits of the finite doubles above 0 with
    these bit patterns: (f, k), the value f 10^k."""
    bq = bits >> _U(52)
    c = bits & _U((1 << 52) - 1)
    # at a power of two above the subnormals the interval below is half as
    # wide: k = floor(log10(3/4 2^q)) there, floor(log10 2^q) elsewhere
    lower_half = (c == _U(0)) & (bq > _U(1))
    c |= np.minimum(bq, _U(1)) << _U(52)
    q = np.maximum(bq, _U(1), out=bq).view(np.int64) - 1075
    k = (q * 661_971_961_083 - lower_half * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).view(np.uint64)
    g = _g_table().take(k - _K_MIN, axis=1)

    # c 2^q and the ends of its rounding interval, scaled by 4 10^-k
    cb = c << (h + _U(2))
    half_ulp = _U(2) << h
    vb = _round_to_odd(g, cb)
    vbl = _round_to_odd(g, cb - (half_ulp >> lower_half))
    vbr = _round_to_odd(g, cb + half_ulp)
    # the interval's ends belong to it when c is even (round half to even)
    odd = c & _U(1)
    vbl += odd
    vbr -= odd

    # a multiple of 10 in the interval, when exactly one is, is shortest
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 << _U(2)) + _U(40) <= vbr
    # else the closer of s and s + 1 that the interval holds, ties to even
    s4 = s << _U(2)
    down = (vbl <= s4) & ((vbr < s4 + _U(4)) | (vb < s4 + _U(3) - (s & _U(1))))
    return np.where(upin != wpin, sp10 + _U(10) * ~upin, s + ~down), k


# A number's text is laid out in 48 character slots, six 8-byte words:
#   word 0:    "-", "0", ".", "0", "0", "0" (for -0.000ddd), unused, digit 1
#   words 1-4: ".", digit, four times: digits 2-17, each after a slot for
#              the decimal point
#   word 5:    "e", the exponent's sign, its three digits, the separator,
#              two unused
# Each word is looked up whole, from the leading digit, a 4-digit group or
# the exponent.  A mask looked up from the number's pattern (sign, fixed or
# exponent form, decimal point position, digits shown) zeroes the slots it
# leaves out, and the text is the words' bytes without the zeros.
_SLOTS = 48
_PATTERNS = 375  # of a non-negative number: see _masks


def _words(rows: list[bytes]) -> np.ndarray:
    return np.frombuffer(b"".join(rows), dtype=np.uint64)


@functools.cache
def _tables():
    """The words of the leading digits 0-9, then "n" and "i" (NaN, inf);
    of the 4-digit groups 0000-9999, then "an" and "nf"; of the exponents
    -324 to 308; of the separators "," and "\\n"; the masks of
    ``_masks``; and (4, 10_000) int8 ``last``: for a number whose 4-digit
    group i is g, 0 where g is 0000, else the count of the number's digits
    up to and including g's last nonzero one."""
    lead = _words([b"-0.000\0" + bytes([d]) for d in b"0123456789ni"])
    # int16 and int8 throughout: temporaries freed here would stay in the
    # process's heap, below the tables
    powers = (10 ** np.arange(3, -1, -1)).astype(np.int16)
    digits = np.arange(10_000, dtype=np.int16)[:, None] // powers % 10
    text = np.full((10_002, 8), ord("."), dtype=np.uint8)
    text[:-2, 1::2] = digits + ord("0")
    text[-2:, 1:4:2] = np.frombuffer(b"annf", np.uint8).reshape(2, 2)
    groups = text.view(np.uint64).ravel()
    # "e+005" for 5: the mask leaves out the hundreds below 100
    exponents = _words([f"e{e:+04d}\0\0\0".encode() for e in range(-324, 309)])
    separators = _words([b"\0\0\0\0\0,\0\0", b"\0\0\0\0\0\n\0\0"])
    nonzero = digits != 0
    in_group = (4 - np.argmax(nonzero[:, ::-1], 1)).astype(np.int8)
    in_group[~nonzero.any(1)] = 0
    offsets = 4 * np.arange(4, dtype=np.int8)[:, None] + 1
    last = np.where(in_group > 0, in_group + offsets, np.int8(0))
    return lead, groups, exponents, separators, _masks(), last


def _masks() -> np.ndarray:
    """The slots of each pattern, as words of 0xFF (kept) and 0x00 bytes in
    a (6, 2 * _PATTERNS) array, a row per slot word: patterns 0-339 the
    fixed form, at (decpt + 3) * 17 + shown digits - 1 for decpt in
    [-3, 16]; 340-373 the exponent form at 340 + shown digits - 1, + 17
    with a three-digit exponent; 374 nan and inf; then the same with the
    "-" sign."""
    pattern = np.arange(_PATTERNS)
    fixed = pattern < 340
    decpt = np.where(fixed, pattern // 17 - 3, 1)
    used = pattern % 17 + 1
    exponent_form = ~fixed & (pattern < 374)
    fraction = fixed & (decpt <= 0)
    integer_part = fixed & (decpt >= 1)
    shown = np.where(integer_part, np.maximum(used, decpt + 1), used)
    shown[-1] = 3
    # the decimal point after digit point - 1; none where point == 0
    point = np.where(integer_part, decpt, exponent_form & (used > 1))

    mask = np.zeros((2, _PATTERNS, _SLOTS), dtype=bool)
    mask[1, :, 0] = True
    mask[:, :, 1:3] = fraction[:, None]
    mask[:, :, 3:6] = np.arange(3) < np.where(fraction, -decpt, 0)[:, None]
    mask[:, :, 7:40:2] = np.arange(17) < shown[:, None]
    mask[:, :, 8:39:2] = np.arange(1, 17) == point[:, None]
    mask[:, :, 40:45] = exponent_form[:, None]
    mask[:, :, 42] = exponent_form & (pattern >= 357)  # the hundreds
    mask[:, :, 45] = True
    return (mask.reshape(-1, _SLOTS) * np.uint8(0xFF)).view(np.uint64).T.copy()


# numbers formatted at once: their temporaries, ~150 bytes a number, stay
# in the CPU caches and keep the peak memory low
_CHUNK = 4096


def rows_text(block: np.ndarray) -> str:
    """``",".join(map(repr, row)) + "\\n"`` for each row of the (N, C)
    float64 ``block``, C >= 1, joined."""
    step = max(_CHUNK // block.shape[1], 1)
    return "".join(_chunk_text(block[start:start + step])
                   for start in range(0, len(block), step))


def _chunk_text(block: np.ndarray) -> str:
    rows, cols = block.shape
    bits = np.ascontiguousarray(block, dtype=np.float64).view(np.uint64).ravel()
    lead, groups, exponents, separators, masks, last = _tables()
    magnitude = bits & _M63
    finite = magnitude < _U(0x7FF << 52)
    zero = magnitude == _U(0)
    # 1.0 stands in for zeros, infinities and NaNs
    f, k = _shortest(np.where(finite & ~zero, magnitude, _U(0x3FF << 52)))
    count = np.searchsorted(_POW10, f, side="right")
    f *= _POW10.take(17 - count)  # 17 digits, 0 for zeros
    f *= ~zero
    decpt = k + count  # the value is 0.d1d2...d17 10^decpt

    # one contiguous row per slot word, the numbers' words side by side
    words = np.empty((6, rows * cols), dtype=np.uint64)
    first = f // _U(10**16)
    lead.take(first.view(np.int64), out=words[0], mode="clip")
    f -= first * _U(10**16)
    high = f // _U(10**8)
    quads = []
    for half in (high, f - high * _U(10**8)):  # uint64 % is slower than //
        upper = half // _U(10**4)
        quads += [upper.view(np.int64), (half - upper * _U(10**4)).view(np.int64)]
    used = np.ones(f.size, dtype=np.int8)  # digits up to the last nonzero one
    for i, quad in enumerate(quads):
        groups.take(quad, out=words[1 + i], mode="clip")
        np.maximum(used, last[i].take(quad), out=used)
    e = decpt - 1
    exponent_words = words[5].reshape(rows, cols)
    exponents.take(e.reshape(rows, cols) + 324, out=exponent_words, mode="clip")
    exponent_words |= separators[(np.arange(cols) == cols - 1).view(np.int8)]

    exponent_form = (decpt <= -4) | (decpt > 16)
    pattern = np.where(exponent_form, 340 + 17 * (np.abs(e) >= 100),
                       (decpt + 3) * 17)
    pattern += used - 1
    sign = (bits >> _U(63)).view(np.int64)
    if not finite.all():  # nan, inf and -inf in the first three digit slots
        where = np.flatnonzero(~finite)
        inf = magnitude[where] == _U(0x7FF << 52)
        words[0, where] = lead[10 + inf]
        words[1, where] = groups[10_000 + inf]
        pattern[where] = _PATTERNS - 1
        sign[where] &= inf
    pattern += _PATTERNS * sign
    for row, mask in zip(words, masks):
        row &= mask.take(pattern)
    # column order: each number's six words in turn, with no transposed
    # copy; not np.compress: it would first list the kept bytes' indices,
    # 8 bytes each
    return words.tobytes(order="F").translate(None, b"\0").decode("ascii")
