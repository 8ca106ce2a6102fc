"""The text of every payload after its two header comments.

cell is the one rule for a number in a CSV cell and rounded the one for a
float in a JSON document; write_csv and write_json write rows and documents.
g17_text and int_text write whole arrays (the spectrum CSV, the edge list),
each float as '%.17g' and each integer as '%d' would write it, byte for
byte, each followed by its separator.  Each cell's text is laid out in one
row of a byte matrix, four bytes at a time, from one table of the 10000
four-digit groups; the separator goes right after it, and one boolean mask
keeps each row's span, in order.

'%.17g' is the correctly rounded conversion to 17 significant digits (Gay,
"Correctly rounded binary-decimal and decimal-binary conversions", AT&T
1990), in fixed notation when the decimal exponent e of the rounded value
lies in [-4, 16].  The cells with e in [-4, -1], magnitudes in [1e-4, 1)
after rounding, take the array path; they are nearly every eigenvector
coordinate of a spectrum.  Their digits are the integer N =
round-half-even(|x| 10^s) with s = 16 - e, which lies in [10^16, 10^17).
10^s is exact in float64 for s <= 22, and Dekker's two-product (Numer. Math.
18, 1971) gives |x| 10^s exactly as hi + lo; hi >= 2^53 is then an even
integer, so N = hi + rint(lo) exactly.  e is taken from log10 and corrected
against N.  A zero is "0" after its sign.  Every other cell (magnitude 1 and
above, exponent notation, non-finite) is formatted by '%.17g' on its own, so
the text equals '%.17g' by construction.
"""

from __future__ import annotations

import json
from typing import IO, Any, Iterable

import numpy as np


def cell(value: Any, digits: int = 10) -> str:
    """One CSV cell: None empty, bools lower case, floats to `digits`
    significant digits, anything else as str gives it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def rounded(obj: Any) -> Any:
    """obj with every float rounded to 10 significant digits, tuples as lists."""
    if isinstance(obj, float):
        return float(f"{obj:.10g}")
    if isinstance(obj, dict):
        return {k: rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [rounded(v) for v in obj]
    return obj


def write_csv(rows: Iterable[Iterable[Any]], stream: IO[str], digits: int = 10) -> None:
    """One line of comma-separated cells per row, in one write."""
    stream.write("".join([",".join([cell(v, digits) for v in row]) + "\n" for row in rows]))


def write_json(payload: Any, stream: IO[str]) -> None:
    """payload as indented, key-sorted JSON and a newline."""
    json.dump(payload, stream, indent=1, sort_keys=True)
    stream.write("\n")


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
    keep = spans.take((start - first) * width + stop - first, axis=0)
    return used[keep].tobytes().decode("ascii")


# A float cell's row, 32 bytes: the 17 digits of N start at column _LEAD, and
# its four-digit groups fill the 4-byte words after it; the sign, "0." and
# -e - 1 zeros end just before them.  _HEAD holds that head, columns 0-11 of
# the row with the leading digit's column still 0, as three 4-byte words, at
# row 2 (e + 4) + 1 for a negative sign.
_LEAD = 11
_HEAD = np.frombuffer(b"".join(
    (sign + "0." + "0" * (-e - 1)).encode().rjust(_LEAD, b"\0") + b"\0"
    for e in range(-4, 0) for sign in ("", "-")), dtype="<u4").reshape(-1, 3)


def _fallback(values: np.ndarray) -> list[str]:
    """'%.17g' of each value, one at a time: the cells the array path leaves."""
    return ["%.17g" % x for x in values.tolist()]


def _digits17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 significant digits N of each a in [1e-5, 1) and the decimal
    exponent e of their rounding.  An e outside [-4, -1], where the array
    path does not apply, is left as found and its N is void."""
    e = np.floor(np.log10(a)).astype(np.int64)
    np.clip(e, -5, -1, out=e)
    n = _scaled(a, 16 - e)
    # a wrong exponent puts N outside [10^16, 10^17); one step mends it
    todo = np.flatnonzero((n >= 10**17) | (n < 10**16))
    while todo.size:
        m = n[todo]
        e[todo] += (m >= 10**17).astype(np.int64) - (m < 10**16)
        todo = todo[(e[todo] >= -4) & (e[todo] <= -1)]
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
    near = (ax >= 1e-5) & (ax < 1.0)
    n, e = _digits17(np.where(near, ax, 0.5))
    fixed = near & (e >= -4) & (e <= -1)
    np.clip(e, -4, -1, out=e)
    neg = np.signbit(x).astype(np.intp)

    words = np.zeros((x.size, 8), dtype="<u4")
    top, bottom = n // 10**8, n % 10**8
    groups = (top // 10**4 % 10**4, top % 10**4, bottom // 10**4, bottom % 10**4)
    head = 2 * e + 8 + neg
    words[:, 1] = _HEAD[:, 1].take(head)
    words[:, 2] = _HEAD[:, 2].take(head) | (48 + top // 10**8).astype(np.uint32) << 24
    for k, group in enumerate(groups):
        words[:, k + 3] = _GROUPS.take(group)

    # the leading digit is never 0, so N ends in at most 16 zeros
    trailing = _TRAILING_ZEROS.take(groups[3])
    few = np.flatnonzero(groups[3] == 0)
    if few.size:
        ends = [g[few] for g in groups[::-1]]
        trailing[few] = np.select([g != 0 for g in ends], [
            _TRAILING_ZEROS.take(g) + 4 * k for k, g in enumerate(ends)], 16)
    start = _LEAD - 1 + e - neg
    stop = _LEAD + 17 - trailing

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
