"""Float arrays as text, byte-identical to Python's ``%``, without one
Python string per number.

``g17_rows`` formats a table as ``%.17g`` CSV rows and ``f2_points`` a
polyline as ``%.2f,%.2f`` pairs.  Each cell is built in a fixed-width
row of bytes, and a mask clears every byte that is not its text, so the
row holds the text padded with NUL bytes.  No byte of any text is NUL, so
``bytes.translate`` compacts the rows by deleting them, 64 KiB at a time.
The 17 digits come from the exact double-double product of the value
and a power of ten (Dekker, Numer. Math. 18 (1971) 224-242).  As in Grisu3
(Loitsch, PLDI 2010), a cell the arithmetic cannot decide goes to ``%``:
one whose scaled value lies within ``_TIE`` of a rounding tie, one that
is not finite and, for ``%.2f``, one that is negative or not below
``_F2_MAX``.  Its text goes into its own row, which holds any ``%.17g``
text and any ``%.2f`` text below 1e7 in magnitude; a polyline chunk with
a longer one is formatted whole by ``%``.  The tables are built on first
use, not at import.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Iterator

import numpy as np

__all__ = ["g17_rows", "f2_points"]

_TIE = 1e-6  # a scaled value closer than this to a rounding tie goes to %
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
_E_MIN, _E_MAX = -1073, 1024  # binary exponents of the finite doubles, as np.frexp gives them
_X_MIN, _X_MAX = -324, 308  # their decimal exponents
_NEVER = 99  # more significant digits than a cell has
# The row of a %.17g cell is 32 bytes, four little-endian uint64: bytes 0-7
# hold the sign, digit 0 and the point ("-" d0 ".." "00" "." "0", or
# "-0.000" d0 "0" for a cell in [1e-4, 0.1)), bytes 8-23 digits 1-16 and
# bytes 24-31 the exponent, if any, and the separator.
_HEAD = np.frombuffer(b"-\0..00.0", dtype="<u8")[0]
_LEAD_HEAD = np.frombuffer(b"-0.000\x000", dtype="<u8")[0]


def _table(build):
    """Build a tuple of arrays on first use, once, and hand out read-only views."""

    @functools.cache
    def cached(*args):
        arrays = tuple(np.asarray(t).view() for t in build(*args))
        for t in arrays:
            t.flags.writeable = False
        return arrays

    return cached


@_table
def _quads() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII digits of 0000-9999, each in the low four bytes of a
    little-endian uint64, and the trailing zeros of each."""
    a, b, c, d = np.ix_(*[np.arange(10, dtype=np.uint64)] * 4)
    quads = (a + 48) | (b + 48) << 8 | (c + 48) << 16 | (d + 48) << 24
    zeros = (d == 0) * (1 + (c == 0) * (1 + (b == 0) * (1 + (a == 0))))
    return quads.astype("<u8").ravel(), zeros.astype(np.int64).ravel()


@_table
def _powers() -> tuple[np.ndarray, ...]:
    """Per binary exponent e of np.frexp and decade choice j in (0, 1), at
    row 2 * (e - _E_MIN) + j: the decimal exponent X = x0 + j with
    x0 = floor(log10(2**(e - 1))), and C = 10**(16 - X) * 2**e as hi + lo,
    exact to 2**-106, with hi split into Dekker halves; and per e the
    threshold of m at and above which j = 1.  For m in [0.5, 1), m * C lies
    in [1e16, 1e17), or just above 1e17 for m just under the threshold."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    x0 = np.floor((e - 1) * 0.30102999566398120).astype(np.int64)  # never near an integer
    k_min, k_max = 15 - int(x0[-1]), 16 - int(x0[0])
    # q = floor(10**k * 2**(110 - b)) has 111 bits, with b = floor(log2(10**k))
    q, b = {}, {}
    p = 1
    for k in range(k_max + 1):
        b[k] = p.bit_length() - 1
        q[k] = p << (110 - b[k]) if b[k] <= 110 else p >> (b[k] - 110)
        p *= 10
    top = 1 << 1300  # floor(top / 10**k) >> r = floor(2**(1300 - r) / 10**k)
    for k in range(1, -k_min + 1):
        top //= 10
        b[-k] = -b[k] - 1  # 10**-k lies in [2**-(b[k] + 1), 2**-b[k])
        q[-k] = top >> (1300 - 110 + b[-k])
    ks = range(k_min, k_max + 1)
    hi = np.array([float(q[k]) for k in ks])
    lo = np.array([float(q[k] - int(h)) for k, h in zip(ks, hi.tolist())])
    x = np.column_stack([x0, x0 + 1]).ravel()
    e = np.repeat(e, 2)
    row = 16 - x - k_min
    scale = np.array([b[k] - 110 for k in ks])[row] + e
    hi = np.ldexp(hi[row], scale)
    lo = np.ldexp(lo[row], scale)
    t = hi * _SPLIT
    hi_hi = t - (t - hi)
    # raised a few ulps, so that a cell at or above it never has fewer than 17 digits
    return x, hi, hi_hi, hi - hi_hi, lo, 1e17 / hi[::2] * (1 + 2.0**-50)


def _layout(x: int | None) -> tuple[list[int], list[int]]:
    """The row of a %.17g cell with decimal exponent ``x`` (None for zero)
    as 4-byte words taken from its built row, and for each of their bytes
    the significant digits the cell needs to keep it.  The sign byte needs
    none here; only a negative cell keeps it."""
    never = _NEVER
    suffix = [0] * (1 + (0 if x is None or -4 <= x < 17 else len(b"e%+03d" % x)))
    if x is None:
        return list(range(8)), [0, 0, *[never] * 22, *suffix]
    if -4 <= x < 0:
        zeros = [0 if x <= -k else never for k in (2, 3, 4)]
        return list(range(8)), [0, 0, 0, *zeros, 0, never, *range(2, 18), *suffix]
    # digits 1-16 are words 2-5; a cell of 10 or more repeats the word the point splits
    whole = x + 1 if 0 <= x < 17 else 1  # digits before the point
    words, need = [0], [0, 0, never, never]
    for before in (True, False):
        if not before:
            words.append(1)
            need += [never, never, whole + 1, never]
        for g in range(4):
            ks = range(4 * g + 1, 4 * g + 5)
            needs = [(0 if before else k + 1) if (k < whole) == before else never for k in ks]
            if any(n != never for n in needs):
                words.append(2 + g)
                need += needs
    return words + [6, 7], need + suffix


@_table
def _templates() -> tuple[np.ndarray, ...]:
    """Per class c (0 for zero, else X - _X_MIN + 1): the words of
    ``_layout``, the kind k of its kept bytes, and the last word of the
    row at c * 2 + (the cell ends a line); and the mask of the kept bytes,
    0xFF for a kept byte and 0 for the rest, as four little-endian uint64
    at row (k * 2 + negative) * 18 + significant digits."""
    xs = np.arange(_X_MIN, _X_MAX + 1)
    texts = [b""] + [b"" if -4 <= x < 17 else b"e%+03d" % x for x in xs.tolist()]
    n = len(texts)
    lens = np.array([len(t) for t in texts])
    suffix = np.repeat(np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), dtype=np.uint8), 2)
    suffix = suffix.reshape(n, 8, 2).transpose(0, 2, 1).copy()
    suffix[np.arange(n), :, lens] = (ord(","), ord("\n"))
    need = np.full((n, 32), _NEVER, dtype=np.uint8)
    need[:, :24] = _layout(_X_MIN)[1][:24]  # every exponent-form cell
    need[:, 24:] = np.where(np.arange(8) <= lens[:, None], 0, _NEVER)
    words = np.zeros((n, 8), dtype=np.intp)
    for c, x in ((0, None), *((x - _X_MIN + 1, x) for x in range(-4, 17))):
        w, d = _layout(x)
        words[c, : len(w)] = w[:8]
        need[c, : len(d)] = d
    kinds: dict[bytes, int] = {}
    kind = np.array([kinds.setdefault(r.tobytes(), len(kinds)) for r in need])
    need = np.repeat(np.frombuffer(b"".join(kinds), dtype=np.uint8).reshape(-1, 32), 2, axis=0)
    need[0::2, 0] = _NEVER  # a positive cell has no sign
    masks = (need[:, None, :] <= np.arange(18)[:, None]).astype(np.uint8) * np.uint8(0xFF)
    return words, kind, suffix.reshape(2 * n, 8).view("<u8").ravel(), masks.view("<u8").reshape(-1, 4)


def _g17_digits(a: np.ndarray):
    """The 17 significant digits of each finite |value| ``a`` as an integer
    d in [1e16, 1e17) (0 for zero), its decimal exponent x, and a mask of
    the cells too close to a rounding tie for the arithmetic to decide."""
    x, hi, hi_hi, hi_lo, lo, threshold = _powers()
    m, e = np.frexp(a)
    e -= _E_MIN
    row = 2 * e
    row += m >= np.take(threshold, e)
    del e
    x, hi, hi_hi, hi_lo, lo = (np.take(t, row) for t in (x, hi, hi_hi, hi_lo, lo))
    del row
    # a * 10**(16 - x) = m * (hi + lo) = p + err exactly, to 2**-106 relative
    p = m * hi
    m_hi = m * _SPLIT
    m_lo = m_hi - m
    m_hi -= m_lo
    np.subtract(m, m_hi, out=m_lo)
    err = m_hi * hi_hi
    err -= p
    for u, w in ((m_hi, hi_lo), (m_lo, hi_hi), (m_lo, hi_lo), (m, lo)):
        err += np.multiply(u, w, out=hi)  # hi is spent: its array holds each product
    del m, m_hi, m_lo, hi, hi_hi, hi_lo, lo
    whole = np.floor(err)
    d = p.astype(np.int64)  # p > 2**53 is an integer
    del p
    d += whole.astype(np.int64)
    frac = np.subtract(err, whole, out=err)
    del err, whole
    over = np.flatnonzero(d >= 10**17)  # m just under the threshold: one digit too many
    if over.size:
        tens = d[over] // 10
        frac[over] = (d[over] - 10 * tens + frac[over]) / 10
        d[over] = tens
        x[over] += 1
    undecided = np.abs(frac - 0.5) < _TIE
    d += frac > 0.5
    up = d == 10**17  # rounding carried into the next decade
    d[up] = 10**16
    x += up
    return d, x, undecided


# bytes of rows compacted by one bytes.translate, which copies them
# into a bytes object first
_PIECE_BYTES = 1 << 16


def g17_rows(table: np.ndarray) -> Iterator[bytes]:
    """The rows of a 2-D float table as ``%.17g`` cells, joined by commas
    and ended by a newline: the bytes of ``(",".join(["%.17g"] * cols) +
    "\\n") % row`` for every row, as pieces of at most 64 KiB.  Each
    temporary of the whole table is released after its last use."""
    rows, cols = table.shape
    v = np.ascontiguousarray(table, dtype=float).ravel()
    a = np.abs(v)
    bad = ~np.isfinite(a)
    a[bad] = 1.0  # keeps the arithmetic of the cells left to % finite
    d, x, undecided = _g17_digits(a)
    left = np.flatnonzero(bad | undecided).tolist()
    del bad, undecided
    cls = np.where(a == 0, 0, x - (_X_MIN - 1))
    del a
    quads, zeros = _quads()
    words, kind, suffix, masks = _templates()
    row = np.empty((len(v), 4), dtype="<u8")
    lead = (x >= -4) & (x < 0)
    mid = np.flatnonzero((x > 0) & (x < 17) & (cls != 0))  # the point among the digits
    del x
    high = d // 10**8  # digits 0-8
    low = np.subtract(d, high * 10**8, out=d)  # digits 9-16
    d0 = high // 10**8
    high -= d0 * 10**8  # digits 1-8
    d0 += ord("0")
    digit0 = d0.view(np.uint64)
    row[:, 0] = np.where(lead, digit0 << 48 | _LEAD_HEAD, digit0 << 8 | _HEAD)
    del lead, d0, digit0
    trailing = []
    for word, eight in ((1, high), (2, low)):
        first = eight // 10**4
        eight -= first * 10**4  # the last four digits
        row[:, word] = np.take(quads, first) | np.take(quads, eight) << 32
        # zeros[0] is 4, so a group of eight zero digits has 8 trailing zeros
        trailing.append(np.take(zeros, eight))
        trailing[-1] += (eight == 0) * np.take(zeros, first)
    del high, low, first
    # where digits 9-16 are all zero, the trailing zeros of 1-8 count too
    nsig = 17 - trailing[1] - (trailing[1] == 8) * trailing[0]
    del trailing
    end = 2 * cls
    end.reshape(rows, cols)[:, -1] += 1
    row[:, 3] = np.take(suffix, end)
    del end
    cells = _PIECE_BYTES // 32  # per piece
    quarters = row.view("<u4")
    for start in range(0, mid.size, cells):
        part = mid[start : start + cells]
        quarters[part] = np.take_along_axis(quarters[part], np.take(words, cls[part], axis=0), axis=1)
    del mid
    row &= np.take(masks, (2 * np.take(kind, cls) + np.signbit(v)) * 18 + nsig, axis=0)
    del cls, nsig
    text = row.view(np.uint8)
    for i in left:
        cell = b"%.17g" % v[i] + (b"\n" if i % cols == cols - 1 else b",")  # at most 25 bytes
        text[i] = 0
        text[i, : len(cell)] = np.frombuffer(cell, dtype=np.uint8)
    for start in range(0, len(v), cells):
        yield text[start : start + cells].tobytes().translate(None, b"\0")


_F2_MAX = 1e4  # %.2f cells at or above it go to %; SVG coordinates stay below 1e3
_F2_CHUNK = 1 << 16  # points per formatted chunk, so that a long polyline's arrays stay small


@_table
def _pairs(sep: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Little-endian uint32 words per k in 0-99: "kk.?" and "kk" followed by ``sep``."""
    pairs = [b"%02d" % k for k in range(100)]
    dot = np.frombuffer(b"".join(p + b".." for p in pairs), dtype="<u4")
    return dot, np.frombuffer(b"".join(p + sep + sep for p in pairs), dtype="<u4")


def _f2_digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cents of each value as an integer and a mask of the cells left
    to ``%``: those that are negative (-0.0 too), not below ``_F2_MAX`` or
    not a number, and those within ``_TIE`` of a rounding tie."""
    left = np.signbit(v) | ~(v < _F2_MAX)
    a = np.where(left, 0.0, v)
    # a * 100 = p + err exactly: 100 has 7 bits, so a's Dekker halves times 100 are exact
    p = a * 100.0
    t = a * _SPLIT
    a_hi = t - (t - a)
    err = (a_hi * 100.0 - p) + (a - a_hi) * 100.0
    whole = np.floor(p)
    frac = (p - whole) + err
    left |= np.abs(frac - 0.5) < _TIE
    return whole.astype(np.int64) + (frac > 0.5), left


def _f2_cells(values: np.ndarray, sep: bytes, cells: np.ndarray, keep: np.ndarray) -> bool:
    """Write ``"%.2f" % v + sep`` of each value into its row of ``cells``,
    (n, 3) little-endian uint32, and the mask of its bytes into ``keep``,
    (n, 12); return False, with the rows unfinished, if a text left to
    ``%`` is longer than its row."""
    v = np.asarray(values, dtype=float)
    n, left = _f2_digits(v)
    units = n // 100
    hundreds = units // 100
    quads, _ = _quads()
    dot, tail = _pairs(sep)
    # the row "dddd" "dd.." "cc" sep sep holds six whole digits, the point and the cents
    cells[:, 0] = np.take(quads, hundreds)
    cells[:, 1] = np.take(dot, units - 100 * hundreds)
    cells[:, 2] = np.take(tail, n - 100 * units)
    keep[:, :5] = units[:, None] >= np.array([10**5, 10**4, 1000, 100, 10])
    keep[:, 5:7] = True
    keep[:, 7] = False
    keep[:, 8:11] = True
    keep[:, 11] = False
    text = cells.view(np.uint8)
    for i in np.flatnonzero(left).tolist():
        cell = b"%.2f" % v[i] + sep
        if len(cell) > 12:  # v <= -1e7 or v >= 1e8
            return False
        text[i, : len(cell)] = np.frombuffer(cell, dtype=np.uint8)
        keep[i] = np.arange(12) < len(cell)
    return True


def f2_points(
    n: int,
    x: Callable[[slice], np.ndarray],
    ys: Iterable[Callable[[slice], np.ndarray]],
    fx: Callable[[np.ndarray], np.ndarray],
    fy: Callable[[np.ndarray], np.ndarray],
) -> Iterator[Iterator[bytes]]:
    """For each y of ``n`` points, the bytes of ``" ".join(map(
    "%.2f,%.2f".__mod__, zip(fx(x(rows)), fy(y(rows)))))`` over all rows,
    as an iterator of pieces, one per ``_F2_CHUNK`` points, so that a
    writer never holds a whole polyline.  ``x`` and each y are functions
    that form their values in a slice of rows; they are asked for, and
    ``fx`` and ``fy`` applied, one chunk at a time, so no whole column of
    values or of pixels is held; both maps must act elementwise.  The x
    cells of a chunk are formatted only when the chunk changes: once for
    all the series of a plot of up to ``_F2_CHUNK`` points."""
    cells = np.empty((min(n, _F2_CHUNK), 6), dtype="<u4")
    keep = np.empty((len(cells), 24), dtype=bool)
    text = cells.view(np.uint8)
    formatted, x_fits, xs = None, False, None

    def pieces(y: Callable[[slice], np.ndarray]) -> Iterator[bytes]:
        nonlocal formatted, x_fits, xs
        for start in range(0, n, _F2_CHUNK):
            stop = min(start + _F2_CHUNK, n)
            rows = slice(start, stop)
            m = stop - start
            if formatted != rows:
                xs = fx(x(rows))  # kept for a chunk that goes to %
                x_fits = _f2_cells(xs, b",", cells[:m, :3], keep[:m, :12])
                formatted = rows
            values = fy(y(rows))  # formed once, for the fast path and for %
            if x_fits and _f2_cells(values, b" ", cells[:m, 3:], keep[:m, 12:]):
                # NUL out the bytes that are not text; x cells cleared for an earlier series stay as they are
                np.multiply(text[:m], keep[:m], out=text[:m])
                step = _PIECE_BYTES // 24
                piece = b"".join(text[k:m][:step].tobytes().translate(None, b"\0") for k in range(0, m, step))
            else:  # a cell too long for its row: the chunk as % gives it
                points = zip(xs.tolist(), values.tolist())
                piece = "".join(map("%.2f,%.2f ".__mod__, points)).encode()
            del values
            # every point ends in a space, which the last one drops
            yield piece if stop < n else piece[:-1]

    yield from map(pieces, ys)
