"""The text of the CSV artifacts, made and read back by numpy byte work.

Every float is written as ``"%.16e" % v`` (17 significant digits, which
read back as the same double) and every count or id as ``"%d" % k``,
byte for byte, without a Python string per value.  A `Field` holds one
value's text per row of a uint8 matrix; `rows` puts fields side by side
with their commas and line ends and keeps the bytes each text occupies.

Writing.  The digits of a positive double x are those of
y = x * 10^(16 - e), which lies in [10^16, 10^17) for the decimal
exponent e of x.  10^p is kept as a double-double hi + lo, built once from
exact integers, and y is taken as ph + r: ph = fl(x * hi), and r is the
rounding error of that product, by Dekker's two-product ("A
floating-point technique for extending the available precision", Numer.
Math. 18, 1971), plus x * lo.  ph is an integer there, and the 17-digit
integer is ph + floor(r), plus one when r's fraction exceeds a half.  r is
within 2^-47 of y - ph, so that is the rounding of the exact y unless r's
fraction lies within 2^-38 of a half.  Such a value, and every zero,
subnormal, negative or non-finite value and every value outside
[1e-280, 1e280), is formatted by ``"%.16e" %`` itself.

Reading is the mirror, after Clinger ("How to read floating point
numbers accurately", PLDI 1990) and Lemire ("Number parsing at a gigabyte
per second", Softw. Pract. Exp. 51, 2021): a fast path for the texts the
writer makes, and a hand-over of every other text.  A text
``d.dddddddddddddddde+dd``, with a lead digit 1-9, an exponent sign + or
- and 2 or 3 exponent digits, is read as the three little-endian words
that `float_field` builds, and each word's 8 digits are decoded at once
by integer arithmetic (SWAR) to the 17-digit integer M and the exponent E.  M is
xh + xl exactly, xh = fl(M) and |xl| <= 8, and y = M * 10^(E - 16) is
taken as ph + r from the same table and two-product: ph = fl(xh * hi),
r = (the exact error of ph) + xh * lo + xl * hi.  r is below 2^-49 y and
takes four roundings of 2^-53 each, and the omitted xh * (10^p - hi - lo)
and xl * lo are below 2^-103 y, so ph + r is within 2^-99 y of y; for
E in READ_EXPONENTS no step overflows or underflows.  x = fl(ph + r) is
then the rounding of y unless the residual err = (ph - x) + r (ph - x is
exact, as x is within a factor 2 of ph) lies within 2^-36 of the gap
above x, at least 2^-89 x, of the half-gap on err's side: only then can
a midpoint between two doubles lie between y and ph + r.  Such a text,
ties included, and every text in another spelling, of zero, of a
subnormal, negative or non-finite value or with E outside
READ_EXPONENTS, is handed over to the caller's reader.
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


#: the SWAR constants of 8 bytes at once: "00000000", the high nibbles, and
#: the 6 that carries a byte above "9" out of its low nibble
_ZEROS = np.uint64(0x3030303030303030)
_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_SIXES = np.uint64(0x0606060606060606)
#: the decimal exponents E read in numpy: those whose 10^(E - 16) the
#: table holds, up to the largest at which no 17-digit text overflows
READ_EXPONENTS = (32 - _E_HI, 307)
#: the bytes "e+" and "e-" of an exponent, 16 bits up in the last word
_E_PLUS, _E_MINUS = (int.from_bytes(b"e" + sign, "little") << 16 for sign in (b"+", b"-"))


def _all_digits(w: np.ndarray) -> np.ndarray:
    """Whether every byte of each word is an ASCII digit."""
    return ((w & _NIBBLES) == _ZEROS) & (((w + _SIXES) & _NIBBLES) == _ZEROS)


def _eight_digits(w: np.ndarray) -> np.ndarray:
    """The number that the 8 ASCII digits of each word spell, its first
    byte the leading digit (Lemire's SWAR conversion)."""
    v = w - _ZEROS
    v = v * 10 + (v >> 8)  # pairs of digits
    mask = 0x000000FF000000FF
    return ((v & mask) * (100 + (1000000 << 32)) + ((v >> 16) & mask) * (1 + (10000 << 32))) >> 32


def float_values(words, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The double that each text reads as, from the three little-endian
    words of its first 24 bytes (as `float_field` builds them) and its
    length, and a mask of the texts settled here: those in the writer's
    form whose rounding is settled.  The values of the rest are void."""
    w0, w1, w2 = words
    lead = w0 & 0xFF
    # words of 8 digits: "0", the lead digit and the 6 after the point; the
    # next 8; the last 2, the exponent's 3 (a "0" first if it has 2), "000"
    exponent = np.where(width == 23, (w2 >> 32) & 0xFFFFFF, (w2 >> 24) & 0xFFFF00 | 0x30)
    digits = np.stack(((w0 & np.uint64(2**64 - 2**16)) | lead << 8 | 0x30, w1,
                       (w2 & 0xFFFF) | exponent << 16 | 0x303030 << 40))
    marks = w2 & 0xFFFF0000
    settled = (_all_digits(digits).all(axis=0) & (lead != ord("0")) & (w0 & 0xFF00 == ord(".") << 8)
               & ((marks == _E_PLUS) | (marks == _E_MINUS)) & ((width == 22) | (width == 23)))
    head, middle, last = _eight_digits(digits)
    pair = last // 10**6
    m = (head * 10**10 + middle * 100 + pair).view(np.int64)
    e = (last // 1000 - pair * 1000).view(np.int64)
    e = np.where(marks == _E_MINUS, -e, e)
    settled &= (e >= READ_EXPONENTS[0]) & (e <= READ_EXPONENTS[1])
    at = 32 - np.clip(e, *READ_EXPONENTS)  # 10^(e - 16) is 10^(16 - at)
    xh = m.astype(np.float64)
    with np.errstate(all="ignore"):  # the void values of unsettled texts
        ph, r = _product(xh, at)
        r += (m - xh.astype(np.int64)) * _HI[_E_HI - at]  # xl * hi, xl = m - xh exactly
        x = ph + r
        err = (ph - x) + r
    # |err| over the gap above x, exact; the half-gap on err's side is 1/2
    # of that gap, or 1/4 below a power of two
    bits = x.view(np.int64)
    q = np.abs(err) / ((bits & 0x7FF0000000000000) - (52 << 52)).view(np.float64)
    half = np.where((err < 0) & (bits & 0xFFFFFFFFFFFFF == 0), 0.25, 0.5)
    settled &= np.abs(q - half) > 2.0**-36
    return x, settled


def int_values(words, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The number that each text of 1 to 16 ASCII digits spells, from the
    two little-endian words of the 16 bytes that end with it (as
    `int_field` builds them) and its length, and a mask of those texts.
    The values of the rest are void."""
    before = np.clip(16 - width, 0, 16).astype(np.uint64) * 8  # the bits before the text
    # the text's bytes of each word; a shift by 64 bits gives 0
    keep = [~np.uint64(0) << np.minimum(before, 64), ~np.uint64(0) << np.maximum(before, 64) - 64]
    high, low = ((w & k) | (_ZEROS & ~k) for w, k in zip(words, keep))  # "0"s before the text
    settled = (width >= 1) & (width <= 16) & _all_digits(high) & _all_digits(low)
    return (_eight_digits(high) * 10**8 + _eight_digits(low)).view(np.int64), settled
