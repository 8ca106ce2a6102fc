"""Decimal text of whole arrays: each float as '%.17g' and each integer as
'%d' would write it, byte for byte, each followed by its separator.

Each cell's text is laid out in one row of a byte matrix, eight bytes at a
time, from one table of the 10000 four-digit groups; the separator goes
right after it, and one gather keeps each row's span, in order.

'%.17g' is the correctly rounded conversion to 17 significant digits (Gay,
"Correctly rounded binary-decimal and decimal-binary conversions", AT&T
1990), in fixed notation when the decimal exponent e of the rounded value
lies in [-4, 16].  Those cells take the array path: their digits are the
integer N = round-half-even(|x| 10^s) with s = 16 - e, which lies in
[10^16, 10^17).  10^s is exact in float64 for s <= 22, and Dekker's
two-product (Numer. Math. 18, 1971) gives |x| 10^s exactly as hi + lo; hi
>= 2^53 is then an even integer, so N = hi + rint(lo) exactly.  e is taken
from log10 and corrected against N.  A zero is "0" after its sign.  Every
other cell (exponent notation, |x| >= 1e17, non-finite) is formatted by
'%.17g' on its own, so the text equals '%.17g' by construction.
"""

from __future__ import annotations

import numpy as np

# cells per block for the writers that call this module: a few MB of working
# memory whatever the input size.  Writing the n=800 spectrum CSV took the
# same time, within 10%, at blocks of 1 << 13 to 1 << 16 cells.
BLOCK_CELLS = 1 << 14

# entry k holds the four ASCII digits of k, zero-padded, as one little-endian
# word; _TRAILING_ZEROS[k] counts the zeros that end them (4 for k = 0)
_GROUPS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                   axis=-1).reshape(10_000, 4).view("<u4").ravel()
_TRAILING_ZEROS = sum(np.arange(10_000) % 10**k == 0 for k in range(1, 5))

# 10^0 .. 10^22: every product is exact, so every power is
_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split a = hi + lo, each half of at most 26 significant bits."""
    t = 134217729.0 * a  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)

# _SPANS[a, b] keeps the columns a..b of a row
_COLUMNS = np.arange(32)
_SPANS = ((_COLUMNS >= _COLUMNS[:, np.newaxis, np.newaxis])
          & (_COLUMNS <= _COLUMNS[:, np.newaxis]))


def _pack(rows: np.ndarray, start: np.ndarray, stop: np.ndarray) -> str:
    """The columns start up to stop of each row, all rows in order."""
    if not rows.shape[0]:
        return ""
    # the columns no row keeps are dropped first, which makes the mask smaller
    first = int(start.min())
    used = np.ascontiguousarray(rows[:, first:int(stop.max()) + 1])
    width = used.shape[1]
    spans = np.ascontiguousarray(_SPANS[:width, :width, :width]).reshape(width * width, width)
    keep = np.flatnonzero(spans.take((start - first) * width + stop - first, axis=0))
    return used.ravel().take(keep).tobytes().decode("ascii")


# A float cell's row, 32 bytes: the 17 digits of N start at column _LEAD, and
# its four-digit groups fill the 4-byte words after it.  When e < 0, "0."
# and -e - 1 zeros end just before the digits, the sign before them.  When
# e >= 0, the first e + 1 digits move one column left to make room for the
# point, the sign before them.
_LEAD = 11
_EXPONENTS = np.arange(-4, 17)


def _float_layout() -> tuple[np.ndarray, ...]:
    """The row parts that depend on e in _EXPONENTS and the sign.

    Per e and sign, at row 2 (e + 4) + 1 for a negative sign: columns 0-11
    of a row, the leading digit's column still 0, as three 4-byte words.
    Per e, as four 8-byte masks each: the bytes a row takes from itself
    shifted one column left, the point, and the bytes it keeps.
    """
    e = _EXPONENTS[:, np.newaxis, np.newaxis]
    col = _COLUMNS[:12]
    neg = np.arange(2)[:, np.newaxis]
    start = np.where(e < 0, _LEAD - 1 + e, _LEAD)  # where the text begins, sign aside
    small = e < 0
    head = np.select(
        [(col == start - 1) & (neg == 1), small & (col == start), small & (col == start + 1),
         small & (col > start + 1) & (col < _LEAD)],
        [ord("-"), ord("0"), ord("."), ord("0")], 0).astype(np.uint8)
    point = np.where(_EXPONENTS >= 0, _LEAD + _EXPONENTS, -1)[:, np.newaxis]
    shifted = (_COLUMNS < point).astype(np.uint8) * 255
    dot = np.where(_COLUMNS == point, ord("."), 0).astype(np.uint8)
    kept = ((_COLUMNS > point) | (point < 0)).astype(np.uint8) * 255
    words = [np.ascontiguousarray(m).view("<u8") for m in (shifted, dot, kept)]
    return (np.ascontiguousarray(head).view("<u4").reshape(-1, 3), *words)


_HEAD, _SHIFTED, _DOT, _KEPT = _float_layout()


def _fallback(values: np.ndarray) -> list[str]:
    """'%.17g' of each value, one at a time: the cells the array path leaves."""
    return ["%.17g" % x for x in values.tolist()]


def _digits17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 significant digits N of each a > 0 in [1e-5, 1e17) and the
    decimal exponent e of their rounding.  An e outside [-4, 16], where
    fixed notation does not apply, is left as found and its N is void."""
    e = np.floor(np.log10(a)).astype(np.int64)
    np.clip(e, -5, 16, out=e)
    n = _scaled(a, 16 - e)
    # a wrong exponent puts N outside [10^16, 10^17); one step mends it
    todo = np.flatnonzero((n >= 10**17) | (n < 10**16))
    while todo.size:
        m = n[todo]
        e[todo] += (m >= 10**17).astype(np.int64) - (m < 10**16)
        todo = todo[(e[todo] >= -4) & (e[todo] <= 16)]
        m = n[todo] = _scaled(a[todo], 16 - e[todo])
        todo = todo[(m >= 10**17) | (m < 10**16)]
    return n, e


def _scaled(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """round-half-even(a 10^s) for 0 <= s <= 22 where it is at least 2^53."""
    hi = a * _POW10.take(s)
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI.take(s), _POW10_LO.take(s)
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def g17_text(values: np.ndarray, seps: np.ndarray) -> str:
    """'%.17g' of each value followed by its separator (one ASCII code per
    value), concatenated."""
    x = np.asarray(values, dtype=np.float64).ravel()
    ax = np.abs(x)
    near = (ax >= 1e-5) & (ax < 1e17)
    n, e = _digits17(np.where(near, ax, 1.0))
    fixed = near & (e >= -4) & (e <= 16)
    n[~fixed] = 10**16
    np.clip(e, -4, 16, out=e)
    neg = np.signbit(x).astype(np.intp)

    words = np.zeros((x.size, 8), dtype="<u4")
    top, bottom = n // 10**8, n % 10**8
    groups = (top // 10**4 % 10**4, top % 10**4, bottom // 10**4, bottom % 10**4)
    head = 2 * e + 8 + neg
    words[:, 1] = _HEAD[:, 1].take(head)
    words[:, 2] = _HEAD[:, 2].take(head) | (48 + top // 10**8).astype(np.uint32) << 24
    for k, group in enumerate(groups):
        words[:, k + 3] = _GROUPS.take(group)
    # for e >= 0, the digits before the point move one column left
    big = np.flatnonzero(e >= 0)
    if big.size:
        row = words.view("<u8")[big]
        left = row >> 8
        left[:, :3] |= row[:, 1:] << 56
        at = e[big] + 4
        words.view("<u8")[big] = (row & _KEPT[at]) | (left & _SHIFTED[at]) | _DOT[at]

    # the leading digit is never 0, so N ends in at most 16 zeros
    trailing = _TRAILING_ZEROS.take(groups[3])
    few = np.flatnonzero(groups[3] == 0)
    if few.size:
        ends = [g[few] for g in groups[::-1]]
        trailing[few] = np.select([g != 0 for g in ends], [
            _TRAILING_ZEROS.take(g) + 4 * k for k, g in enumerate(ends)], 16)
    last = _LEAD + 16 - trailing  # the column of the last nonzero digit
    point = _LEAD + e  # the point's column when e >= 0
    start = np.where(e < 0, _LEAD - 1 + e, _LEAD - 1) - neg
    stop = np.where((e < 0) | (last > point), last + 1, point)

    chars = words.view(np.uint8)
    zero = np.flatnonzero(ax == 0)
    chars[zero, _LEAD - 1] = ord("-")
    chars[zero, _LEAD] = ord("0")
    start[zero] = _LEAD - neg[zero]
    stop[zero] = _LEAD + 1
    rest = np.flatnonzero(~fixed & (ax != 0))
    if rest.size:
        texts = _fallback(x[rest])
        chars[rest, :24] = np.array(texts, dtype="S24").view(np.uint8).reshape(-1, 24)
        start[rest] = 0
        stop[rest] = np.fromiter(map(len, texts), dtype=np.intp, count=rest.size)
    chars[np.arange(x.size), stop] = seps.ravel()
    return _pack(chars, start, stop)


# An integer cell's row: its 12 digits, zero-padded, and the separator.
_INT_DIGITS = 12
_INT_BOUNDS = 10 ** np.arange(1, _INT_DIGITS, dtype=np.int64)


def int_text(values: np.ndarray, seps: np.ndarray) -> str:
    """'%d' of each value, each in [0, 10^12), followed by its separator."""
    x = np.asarray(values, dtype=np.int64).ravel()
    width = 1 + np.searchsorted(_INT_BOUNDS, x, side="right")
    words = np.empty((x.size, _INT_DIGITS // 4 + 1), dtype="<u4")
    # groups from the last, up to the first the widest value reaches
    first = _INT_DIGITS - int(width.max(initial=1))
    rest = x
    for k in range(_INT_DIGITS // 4 - 1, -1, -1):
        words[:, k] = _GROUPS.take(rest % 10**4)
        if 4 * k <= first:
            break
        rest = rest // 10**4
    chars = words.view(np.uint8)
    chars[:, _INT_DIGITS] = seps.ravel()
    return _pack(chars, _INT_DIGITS - width, np.full(x.size, _INT_DIGITS))
