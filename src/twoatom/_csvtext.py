"""The text of the CSV artifacts, made by numpy byte work.

Every float is written as ``"%.16e" % v`` (17 significant digits, which
read back as the same double) and every count or id as ``"%d" % k``,
byte for byte, without a Python string per value.  A `Field` holds one
value's text per row of a uint8 matrix; `rows` puts fields side by side
with their commas and line ends and keeps the bytes each text occupies.

The digits of a positive double x are those of y = x * 10^(16 - e), which
lies in [10^16, 10^17) for the decimal exponent e of x.  10^p is kept as a
double-double hi + lo, built once from exact integers, and y is taken as
ph + r: ph = fl(x * hi), and r is the rounding error of that product, by
Dekker's two-product ("A floating-point technique for extending the
available precision", Numer. Math. 18, 1971), plus x * lo.  ph is an
integer there, and the 17-digit integer is ph + floor(r), plus one when
r's fraction exceeds a half.  r is within 2^-47 of y - ph, so that is the
rounding of the exact y unless r's fraction lies within 2^-38 of a half.
Such a value, and every zero, subnormal, negative or non-finite value and
every value outside [1e-280, 1e280), is formatted by ``"%.16e" %`` itself.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: the values formatted in numpy: every other one goes to ``"%.16e" %``
FAST_RANGE = (1e-280, 1e280)
#: decimal exponents of the 10^p table, one more decade each side of
#: FAST_RANGE than its values need, since the first estimate of a
#: decade may be one off; 10^(16 + 284) is the largest power whose
#: Dekker split does not overflow
_E_LO, _E_HI = -284, 284
#: Dekker's splitting constant for doubles, 2^27 + 1
_SPLIT = 134217729.0


class Field(NamedTuple):
    """The texts of one CSV column, one per row of `text`; row i's text
    takes the bytes where ``masks[width[i]]`` is true."""

    text: np.ndarray  # (n, W) uint8
    width: np.ndarray  # (n,) text lengths
    masks: np.ndarray  # (W + 1, W) bool: the bytes a text of each length takes


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a as the sum of two halves of 26 bits each (Dekker)."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _pow10_table() -> tuple[np.ndarray, ...]:
    """10^p as hi + lo (each correctly rounded) for p = 16 - e, e from
    _E_HI down to _E_LO, and the Dekker halves of hi."""
    hi, lo = [], []
    for p in range(16 - _E_HI, 16 - _E_LO + 1):
        if p >= 0:
            hi.append(float(10**p))
            lo.append(float(10**p - int(hi[-1])))
        else:  # 10^p - hi = (b - 10^-p a) / (10^-p b) for hi = a / b
            hi.append(1 / 10**-p)
            a, b = hi[-1].as_integer_ratio()
            lo.append((b - 10**-p * a) / (10**-p * b))
    hi, lo = np.array(hi), np.array(lo)
    return (hi, lo, *_split(hi))


def _digit_words(digits: int) -> np.ndarray:
    """The zero-padded `digits`-digit texts of 0 ... 10^digits - 1, each as
    the int64 whose little-endian bytes spell it."""
    k = np.arange(10**digits, dtype=np.int64)
    return sum((ord("0") + k // 10 ** (digits - 1 - j) % 10) << 8 * j for j in range(digits))


_HI, _LO, _HI_HIGH, _HI_LOW = _pow10_table()
#: the 2- and 4-digit texts of 0...99 and 0...9999
_PAIRS, _QUADS = _digit_words(2), _digit_words(4)
#: the text of "e%+03d" % e, spelt as above, and its length, for e in
#: [_E_LO - 1, _E_HI + 1]
_EXPONENTS = np.array([int.from_bytes(b"e%+03d" % e, "little") for e in range(_E_LO - 1, _E_HI + 2)], np.int64)
_EXPONENT_WIDTHS = np.array([len(b"e%+03d" % e) for e in range(_E_LO - 1, _E_HI + 2)])
#: 10^1 ... 10^18: the number of these at most k is its digit count - 1
_POWERS = 10 ** np.arange(1, 19, dtype=np.int64)
#: the bytes a left-aligned float text of each length takes, up to the
#: widest: "-1.2345678901234567e-308"
_FLOAT_MASKS = np.arange(24) < np.arange(25)[:, None]


def _product(x: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * 10^(16 - e) as ph + r: ph = fl(x * hi), r the rest, to 2^-47."""
    at = _E_HI - e
    ph = x * _HI[at]
    x_high, x_low = _split(x)
    b_high, b_low = _HI_HIGH[at], _HI_LOW[at]
    pl = ((x_high * b_high - ph) + x_high * b_low + x_low * b_high) + x_low * b_low
    return ph, pl + x * _LO[at]


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits of each x in FAST_RANGE as an int64 in
    [10^16, 10^17), its decimal exponent, and a mask of the values whose
    rounding is not settled: near a tie, or of an unsettled decade."""
    e = np.floor(np.log10(x)).astype(np.intp)
    ph, r = _product(x, e)

    # the decade from the sign of the unrounded y - 10^16 and y - 10^17:
    # ph alone can round onto a power of ten from the other side
    def below(ph, r):
        return (ph - 1e16) + r < 0

    def above(ph, r):
        return (ph - 1e17) + r >= 0

    off = np.flatnonzero(below(ph, r) | above(ph, r))
    e[off] += above(ph[off], r[off]).astype(np.intp) - below(ph[off], r[off])
    ph[off], r[off] = _product(x[off], e[off])
    floor = np.floor(r)
    fraction = r - floor
    digits = ph.astype(np.int64) + floor.astype(np.int64) + (fraction > 0.5)
    unsettled = np.abs(fraction - 0.5) < 2.0**-38
    unsettled[off] |= below(ph[off], r[off]) | above(ph[off], r[off])
    carry = digits == 10**17  # y rounds up to the next decade
    digits[carry] = 10**16
    e += carry
    return digits, e, unsettled


def float_field(x) -> Field:
    """The text of ``"%.16e" % v`` for each v of the float array `x`,
    left-aligned in 24 bytes."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    # three little-endian words of 8 bytes a row: the lead digit, the
    # point and 6 digits; 8 digits; 2 digits and the exponent
    words = np.empty((n, 3), np.int64)
    width = np.empty(n, np.intp)
    fast = (x >= FAST_RANGE[0]) & (x < FAST_RANGE[1])
    whole = bool(fast.all())
    digits, e, unsettled = _digits(x if whole else x[fast])
    head = digits // 10**10  # the lead digit and the next 6
    tail = digits - head * 10**10
    lead = head // 10**6
    head -= lead * 10**6
    quad = head // 100
    middle = tail // 100  # 8 digits
    high = middle // 10**4
    at = e - (_E_LO - 1)
    block = words if whole else np.empty((len(digits), 3), np.int64)
    block[:, 0] = (lead + ord("0")) | ord(".") << 8 | _QUADS[quad] << 16 | _PAIRS[head - quad * 100] << 48
    block[:, 1] = _QUADS[high] | _QUADS[middle - high * 10**4] << 32
    block[:, 2] = _PAIRS[tail - middle * 100] | _EXPONENTS[at] << 16
    if whole:
        width[:] = 18 + _EXPONENT_WIDTHS[at]
        slow = np.flatnonzero(unsettled)
    else:
        words[fast] = block
        width[fast] = 18 + _EXPONENT_WIDTHS[at]
        fast[fast] = ~unsettled
        slow = np.flatnonzero(~fast)
    text = words.view(np.uint8)
    for i, v in zip(slow, x[slow].tolist()):
        s = ("%.16e" % v).encode()
        text[i, :len(s)] = np.frombuffer(s, np.uint8)
        width[i] = len(s)
    return Field(text, width, _FLOAT_MASKS)


def int_field(k) -> Field:
    """The text of ``"%d" % v`` for each v of the non-negative integer
    array `k`, right-aligned in as many 8-byte words as the largest needs."""
    k = np.asarray(k, dtype=np.int64)
    width = 1 + np.searchsorted(_POWERS, k, side="right")
    size = 8 * -(-int(width.max(initial=1)) // 8)
    words = np.empty((len(k), size // 8), np.int64)
    rest = k
    for w in reversed(range(size // 8)):
        high = rest // 10**8
        octet = rest - high * 10**8
        quad = octet // 10**4
        words[:, w] = _QUADS[quad] | _QUADS[octet - quad * 10**4] << 32
        rest = high
    return Field(words.view(np.uint8), width, np.arange(size) >= size - np.arange(size + 1)[:, None])


def rows(fields: list[Field]) -> np.ndarray:
    """The bytes of the CSV lines of equally long `fields`: the texts of
    each row, joined by commas, each row ended by a line end."""
    n = len(fields[0].width)
    if n == 0:
        return np.empty(0, np.uint8)
    # each field's columns from the first to the last that a text takes
    spans = []
    for field in fields:
        used = np.flatnonzero(field.masks[field.width.max()])
        spans.append(slice(used[0], used[-1] + 1) if used.size else slice(0, 0))
    # a comma after each field, kept
    text = np.full((n, sum(span.stop - span.start + 1 for span in spans)), ord(","), np.uint8)
    keep = np.ones(text.shape, bool)
    col = 0
    for field, span in zip(fields, spans):
        width = span.stop - span.start
        text[:, col:col + width] = field.text[:, span]
        keep[:, col:col + width] = np.take(field.masks[:, span], field.width, axis=0)
        col += width + 1
    text[:, -1] = ord("\n")
    return text[keep]
