"""Doubles as the text of C's "%.17g", rendered a block of values at a time.

`render` returns, for each value v of a float64 array, the bytes of
`FORMAT % v` with NUL bytes inserted.  It leaves some values to `FORMAT`
itself: the non-finite and the subnormal ones, those with |v| outside
[1e-200, 1e200], and, where |v| < 1e-6 or |v| >= 1e17, those whose 17th
significant digit lies within about 1e-6 of a rounding tie, and every
value of an array shorter than `KERNEL_MIN_VALUES`, which `FORMAT`
renders faster.  It is the package's one float renderer: `cli._csv_rows`
renders all float columns of a CSV block or stage table with one call.

A value's 17 digits are N = round(|v| * 10**(16 - e)), where e is its
decimal exponent.  The product is exact to about 1e-14 in N: 10**(16 - e)
is held as the sum of two doubles, and |v| times each is taken with
Dekker's (1971) two-product.  From 1e-6 to 1e17, 10**(16 - e) is one
double and the product is exact, so a tie is rounded to even, as by the
format.  The text is then laid out in a uint8 matrix with one row per byte
position and one column per value:

    row  0       "-" or NUL
    rows 1-5     "0.000" (fixed form below 1, e < 0)
    rows 6-23    the digits, with "." after digit e (fixed form) or after
                 the first digit (exponential form); trailing zeros are NUL
    rows 24-28   "e+XX" or "e-XXX" (exponential form, e < -4 or e > 16)

Every row is filled with whole-row arithmetic; a per-value branch would
cost more than the row.  N's digits come from a table of the 10**4
four-digit groups, after three integer divisions.  The scale, layout and
digit tables hold one column per exponent or group, so a block's lookup
yields contiguous rows.  They are built on the first kernel call, not at
import; the scale and layout tables from Python ints.
"""

import numpy as np

# The one format `render` renders, and the package's one "%.17g" literal.
FORMAT = "%.17g"

# Values per block, 512 rows of five columns.  The scratch arrays of a block
# take about 0.16 KB a value.  On a 2-vCPU Xeon VM a value took 105 ns in
# blocks of 2560 and 110-120 ns in blocks of 2048; 4096 was no faster.
BLOCK_VALUES = 2560

# Arrays of fewer values are rendered by `FORMAT`.  On a 2-vCPU Xeon VM a
# kernel block took 74-84 us at 16-128 values, `FORMAT` 73-88 us at 121-128.
KERNEL_MIN_VALUES = 128

_WIDTH = 29

_U = np.uint64
_ABS = np.int64(2**63 - 1)
_LOW = np.float64(1e-200).view(np.int64)
_HIGH = np.float64(1e200).view(np.int64)
_N_MIN, _N_END = np.int64(10**16), np.int64(10**17)
_E0 = -201  # the smallest exponent log10 gives a value in [1e-200, 1e200]
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant

_ROW = np.arange(18, dtype=np.uint8)[:, None]
_PLACE = np.arange(1, 18, dtype=np.uint8)[:, None]
_ZERO, _ONE, _MINUS, _POINT, _NO_DOT = (np.uint8(c) for c in (ord("0"), 1, ord("-"), ord("."), 100))

_tables = None


def _split(x):
    """x as hi + lo, each with at most 26 significant bits."""
    t = _SPLIT * x
    hi = t - (t - x)
    return hi, x - hi


def _build_tables():
    """The kernel's three tables, each with one column per entry.

    The scale table has a column per exponent e = _E0, ..., 201 holding
    10**(16 - e) as hi, hi split in two and lo, and the |N - product| above
    which a value falls back as too near a tie, where hi is the double
    nearest 10**(16 - e) and lo the double nearest the remainder; where lo
    is 0, no value falls back for a tie.  The layout table's column for e
    holds rows 1-5 and 24-28, the number of digits before the point in
    fixed form, and the digit the point follows (100: none).  The digit
    table's column k holds the four ASCII digits of k < 10**4.  A block
    takes its values' columns, so each row it reads is contiguous.
    """
    scale, layout = [], []
    for e in range(_E0, 1 - _E0):
        k = 16 - e
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den  # int / int rounds correctly
        hn, hd = hi.as_integer_ratio()
        lo = (num * hd - hn * den) / (den * hd)
        scale.append((hi, *_split(hi), lo, 0.5 if lo == 0.0 else 0.5 - 1e-6))
        if -4 <= e < 0:
            prefix, suffix, lead, dot = b"0." + b"0" * (-e - 1), b"", 0, 100
        elif 0 <= e <= 16:
            prefix, suffix, lead, dot = b"", b"", e + 1, e
        else:
            prefix, suffix, lead, dot = b"", b"e%+03d" % e, 1, 0
        layout.append(list(prefix.ljust(5, b"\0") + suffix.ljust(5, b"\0")) + [lead, dot])
    k = np.arange(10**4)
    digits = np.array([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], np.uint8) + _ZERO
    return np.array(scale).T.copy(), np.array(layout, dtype=np.uint8).T.copy(), digits


def _significand(v):
    """(N, table row, fallback mask) of each value of v: its 17 digits as an integer."""
    scale = _tables[0]
    bits = v.view(np.int64) & _ABS
    clipped = np.minimum(np.maximum(bits, _LOW), _HIGH)
    nonzero = bits != 0
    a = clipped.view(np.float64)  # |v|, or a stand-in where the fallback takes v

    # e from log10, which can be one off near a power of ten; such a value
    # gets N outside [10**16, 10**17) (or N = 10**16 from below) and falls back.
    i = np.log10(a)
    np.floor(i, out=i)
    i = i.astype(np.intp)
    i *= nonzero  # zero is laid out as e = 0, N = 0
    i -= _E0
    hi, hi_hi, hi_lo, lo, half = scale.take(i, axis=1)
    p = a * hi
    a_hi, a_lo = _split(a)
    p_lo = a_hi * hi_hi
    p_lo -= p
    p_lo += a_hi * hi_lo
    p_lo += a_lo * hi_hi
    p_lo += a_lo * hi_lo
    p_lo += a * lo
    # p >= 10**16 > 2**53 is an even integer, so N = p + rint(p_lo) rounds
    # an exact tie to even
    r = np.rint(p_lo)
    p_lo -= r  # what N leaves over, in [-0.5, 0.5]
    n = p.astype(np.int64)
    n += r.astype(np.int64)
    fallback = n - (p_lo < 0) < _N_MIN  # the product below 10**16
    fallback |= n >= _N_END
    fallback |= np.abs(p_lo) > half
    fallback |= clipped != bits
    fallback &= nonzero
    n *= nonzero
    return n.view(_U), i, fallback


def _digits(n):
    """The 17 ASCII digits of each n < 10**17, one row per digit, the first in row 0.

    n is cut into a first digit and four groups of four, each looked up in
    the digit table."""
    m = len(n)
    parts = np.empty((2, m), _U)  # digits 0-8 and 9-16
    np.floor_divide(n, _U(10**8), out=parts[0])
    np.subtract(n, parts[0] * _U(10**8), out=parts[1])
    high = parts // _U(10**4)  # digits 0-4 and 9-12
    parts -= high * _U(10**4)  # digits 5-8 and 13-16
    first = high[0] // _U(10**4)
    high[0] -= first * _U(10**4)  # digits 1-4
    digits = np.empty((17, m), np.uint8)
    np.add(first, _ZERO, out=digits[0], casting="unsafe")
    table = _tables[2]
    for row, group in ((1, high[0]), (5, parts[0]), (9, high[1]), (13, parts[1])):
        table.take(group, axis=1, out=digits[row:row + 4], mode="clip")
    return digits


def _render_block(v, out):
    """Fill out (_WIDTH, len(v)) with the text of v; returns the fallback mask."""
    n, i, fallback = _significand(v)
    digits = _digits(n)
    shown = (_PLACE * (digits > _ZERO).view(np.uint8)).max(axis=0)  # significant digits; 0 for zero
    text = _tables[1].take(i, axis=1)
    lead = text[10]
    np.maximum(shown, lead, out=shown)
    # the point goes after digit `dot` only where a digit follows it
    dot = text[11] + _NO_DOT * (shown <= lead)

    np.multiply(np.signbit(v), _MINUS, out=out[0])
    out[1:6] = text[:5]
    out[24:] = text[5:10]
    digits *= (_ROW[:17] < shown).view(np.uint8)
    body = out[6:24]
    np.multiply(digits, (_ROW[:17] <= dot).view(np.uint8), out=body[:17])
    body[17] = 0
    digits *= (_ROW[:17] > dot).view(np.uint8)
    body[1:] += digits
    body += (_ROW == dot + _ONE).view(np.uint8) * _POINT
    return fallback


def _format(values):
    """`FORMAT % v` of each value of the float64 array `values`, as an `S` array."""
    return np.array([(FORMAT % v).encode("ascii") for v in values.tolist()], dtype="S")


def render(values):
    """Text of the float64 array `values`: an `S` array, and the fallback mask.

    Element k holds the bytes of `FORMAT % values[k]` with NULs between and
    after them; where the mask is set, the kernel left the value to
    `FORMAT` itself, as it leaves every value of an array shorter than
    `KERNEL_MIN_VALUES`.  Byte positions that no value uses are left out.
    """
    global _tables
    values = np.ascontiguousarray(values, dtype=np.float64)
    m = len(values)
    if m < KERNEL_MIN_VALUES:
        return _format(values), np.ones(m, bool)
    if _tables is None:
        _tables = _build_tables()
    out = np.empty((_WIDTH, m), np.uint8)
    fallback = np.empty(m, bool)
    for lo in range(0, m, BLOCK_VALUES):
        hi = min(lo + BLOCK_VALUES, m)
        fallback[lo:hi] = _render_block(values[lo:hi], out[:, lo:hi])
    left = np.flatnonzero(fallback)
    if len(left):
        text = _format(values[left])
        out[:, left] = 0
        out[:text.itemsize, left] = text.view(np.uint8).reshape(len(left), -1).T
    used = out.any(axis=1)
    used[0] = True  # an S0 array cannot be made
    out = out[used]
    return np.ascontiguousarray(out.T).view(f"S{len(out)}").reshape(m), fallback
