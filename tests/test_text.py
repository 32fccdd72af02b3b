"""The array formatters of lics._text against Python's ``%``, byte for byte."""

import tracemalloc

import numpy as np
import pytest

from lics import _text
from lics._text import f2_points, g17_rows


def _per_cell_rows(table: np.ndarray) -> bytes:
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return "".join(line % tuple(row) for row in table.tolist()).encode()


def _per_pair_points(x: np.ndarray, y: np.ndarray) -> str:
    return " ".join(map("%.2f,%.2f".__mod__, zip(x.tolist(), y.tolist())))


def _same(v: np.ndarray) -> np.ndarray:
    return v


def _points(x: np.ndarray, ys, fx=_same, fy=_same):
    """``f2_points`` of an x and ys that are already held."""
    return f2_points(len(x), x.__getitem__, [y.__getitem__ for y in ys], fx, fy)


def _joined(points) -> list[str]:
    """Each polyline of ``f2_points`` as one string."""
    return [b"".join(pieces).decode("ascii") for pieces in points]


def _g17_values() -> np.ndarray:
    rng = np.random.default_rng(1611)
    # random bit patterns below the infinities: every exponent, subnormals included
    bits = rng.integers(0, 0x7FF0000000000000, size=60_000, dtype=np.int64)
    random = bits.view(np.float64) * rng.choice([-1.0, 1.0], size=bits.size)
    decades = np.array([float(f"1e{k}") for k in range(-323, 309)])
    below = np.array([float(f"9.99999999999999999e{k}") for k in range(-300, 300)])  # rounds up a decade
    # N * 2**-p with N odd and 18 significant digits: exact ties at the 17th digit
    ties = np.concatenate([
        rng.integers(10**j * 2 ** (17 - j), 10 ** (j + 1) * 2 ** (17 - j), size=40) * 2.0 ** (j - 17)
        for j in range(-7, 17)
    ])
    ties = ties[ties * 2.0 ** (17 - np.floor(np.log10(ties))) % 2 == 1]
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
               1e-300, 1e300, -1e300, 1.7976931348623157e308, 9.9999999999999996e-281,
               0.125, 2.5, 1 + 2.0**-17, 0.1, 1 / 3, 123456789012345678.0, 1e16, 1e17]
    values = np.concatenate([
        random,
        decades, np.nextafter(decades, 0.0), np.nextafter(decades, np.inf),
        below, np.nextafter(below, 0.0), np.nextafter(below, np.inf),
        ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf),
        -ties[::7],
        rng.normal(size=20_000) * np.exp(rng.uniform(-60.0, 5.0, size=20_000)),
        special,
    ])
    return values


class TestG17Rows:
    def test_matches_percent_over_the_whole_exponent_range(self):
        values = _g17_values()
        values = values[: len(values) // 14 * 14]
        table = values.reshape(-1, 14)
        assert b"".join(g17_rows(table)) == _per_cell_rows(table)

    def test_exact_ties_round_half_to_even(self):
        # 1.00000762939453125 and 1.00002288818359375 have 18 significant digits
        table = np.array([[1 + 2.0**-17, 1 + 3 * 2.0**-17]])
        assert b"".join(g17_rows(table)) == b"1.0000076293945312,1.0000228881835938\n"

    @pytest.mark.parametrize("cols", [1, 2, 3, 14])
    def test_separators_and_specials(self, cols):
        special = [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, 1e-5, 1e-4, 0.5, 1e16, 1e17, 12.5, -7.0, 1e22]
        table = np.resize(np.array(special), (len(special), cols))
        assert b"".join(g17_rows(table)) == _per_cell_rows(table)

    def test_peak_memory_per_cell(self):
        """A block of the trajectory CSV, 1170 rows of 14 cells, of every
        layout: below 1e-4, with a point among the digits, and in exponent
        form.  Its rows are compacted in pieces of at most 64 KiB."""
        rng = np.random.default_rng(1615)
        table = rng.standard_normal((1170, 14)) * 10.0 ** rng.integers(-8, 20, size=(1170, 14))
        assert b"".join(g17_rows(table)) == _per_cell_rows(table)
        tracemalloc.start()
        try:
            sizes = [len(piece) for piece in g17_rows(table)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 180 * table.size
        assert max(sizes) <= 1 << 16


def _f2_values() -> np.ndarray:
    rng = np.random.default_rng(1612)
    k = np.arange(-760.0, 761.0)
    ties = np.concatenate([k + 0.125, k + 0.375, k + 0.625, k + 0.875, k + 0.005, k + 0.015])
    special = [0.0, -0.0, 5e-324, -1e-3, 4e-3, -4.999e-3, 9999.995, 10000.0, -1e5, 1e300, np.inf, -np.inf,
               np.nan]
    return np.concatenate([
        ties, np.nextafter(ties, -np.inf), np.nextafter(ties, np.inf),
        rng.uniform(-50.0, 800.0, size=40_000),
        rng.uniform(-1.0, 1.0, size=10_000) * 10.0 ** rng.uniform(-10.0, 8.0, size=10_000),
        special,
    ])


def _fits_a_row(v: np.ndarray) -> np.ndarray:
    return np.array([len(b"%.2f," % c) <= 12 for c in v.tolist()])


class TestF2Points:
    def test_matches_percent(self):
        """Every chunk fits its rows, so each cell is either built by the
        fast path or written into its row by %."""
        y = _f2_values()
        y = y[_fits_a_row(y)]
        x = np.random.default_rng(1613).permutation(y)
        for start in range(0, len(x), _text._F2_CHUNK):
            for v in (x, y):
                chunk = v[start : start + _text._F2_CHUNK]
                cells = np.empty((len(chunk), 3), dtype="<u4")
                assert _text._f2_cells(chunk, b",", cells, np.empty((len(chunk), 12), dtype=bool))
        assert _joined(_points(x, [y])) == [_per_pair_points(x, y)]

    def test_matches_percent_with_cells_too_long_for_their_rows(self):
        y = _f2_values()
        assert not _fits_a_row(y).all()
        x = np.random.default_rng(1614).permutation(y)
        assert _joined(_points(x, [y])) == [_per_pair_points(x, y)]

    @pytest.mark.parametrize("n", [1001, _text._F2_CHUNK + 1001])
    def test_x_is_shared_by_every_series(self, n):
        x = np.linspace(64.0, 592.0, n)
        ys = [np.linspace(28.0, 432.0, n), -x, np.full(n, np.nan)]
        assert _joined(_points(x, ys)) == [_per_pair_points(x, y) for y in ys]

    def test_maps_are_applied_per_chunk(self):
        """fx and fy see one chunk at a time and give the text of the maps
        applied to whole series, also in a chunk sent to %."""
        n = 2 * _text._F2_CHUNK + 10
        x = np.linspace(-3.0, 7.0, n)
        ys = [np.sin(x), np.cos(x)]
        ys[1][-3] = -1e9  # too long for its row after the map
        seen = []

        def fx(v):
            seen.append(len(v))
            return 64.0 + (v + 3.0) / 10.0 * 528.0

        def fy(v):
            seen.append(len(v))
            return 28.0 + (1.0 - v) * 202.0

        got = _joined(_points(x, ys, fx, fy))
        assert max(seen) == _text._F2_CHUNK
        assert got == [_per_pair_points(fx(x), fy(y)) for y in ys]

    def test_x_is_formed_per_chunk(self):
        """x is asked for one chunk of rows at a time, in order, and again
        only where the chunk changes; each y once per chunk.  A chunk that
        goes to % reuses both."""
        n = 2 * _text._F2_CHUNK + 10
        x = np.linspace(64.0, 592.0, n)
        ys = [x[::-1].copy(), x.copy()]
        ys[1][-3] = -1e9  # the last chunk of the second series goes to %
        asked = []

        def rows_of(name, values):
            def column(rows):
                asked.append((name, rows.start, rows.stop))
                return values[rows]

            return column

        got = _joined(f2_points(n, rows_of("x", x), [rows_of(k, y) for k, y in enumerate(ys)], _same, _same))
        assert got == [_per_pair_points(x, y) for y in ys]
        c = _text._F2_CHUNK
        chunks = [(0, c), (c, 2 * c), (2 * c, n)]
        assert asked == [(name, *chunk) for k in range(2) for chunk in chunks for name in ("x", k)]

    def test_one_piece_per_chunk(self):
        """A polyline comes in pieces of ``_F2_CHUNK`` points, so that its
        writer never holds it whole."""
        x = np.linspace(64.0, 592.0, 2 * _text._F2_CHUNK + 1)
        pieces = list(next(_points(x, [x])))
        assert len(pieces) == 3
        assert [piece.count(b" ") for piece in pieces] == [_text._F2_CHUNK, _text._F2_CHUNK, 0]

    def test_a_cell_too_long_for_its_row_sends_its_chunk_to_percent(self):
        """-1e7 takes 13 bytes with its separator, one more than a row;
        -9999999.99 fills its row, and every other chunk stays fast."""
        n = _text._F2_CHUNK + 10
        x = np.linspace(64.0, 592.0, n)
        x[[5, -5]] = -9999999.99, -3.0
        y = np.linspace(28.0, 432.0, n)
        y_long = y.copy()
        y_long[7] = -1e7
        x_long = x.copy()
        x_long[-1] = -1e7
        for v, fits in ((y_long[: _text._F2_CHUNK], False), (x[_text._F2_CHUNK :], True),
                        (x_long[_text._F2_CHUNK :], False)):
            cells = np.empty((len(v), 3), dtype="<u4")
            assert _text._f2_cells(v, b",", cells, np.empty((len(v), 12), dtype=bool)) == fits
        for x in (x, x_long):
            expected = [_per_pair_points(x, y_long), _per_pair_points(x, y)]
            assert _joined(_points(x, [y_long, y])) == expected


_SPECIAL = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -1e-3, 1e300, -1e7, 1 + 2.0**-17])


class TestNulPadding:
    """A row holds its cell's text padded with NUL bytes, and compaction
    deletes every NUL: no text may hold one, and no byte of a row may
    outlive its cell's text."""

    def test_no_output_holds_a_nul_byte(self):
        g17 = np.concatenate([_g17_values(), _SPECIAL])
        g17 = g17[: len(g17) // 14 * 14].reshape(-1, 14)
        assert all(b"\0" not in piece for piece in g17_rows(g17))
        y = np.concatenate([_f2_values(), _SPECIAL])
        x = np.random.default_rng(1616).permutation(y)
        for ys in ([y], [y[_fits_a_row(y)]]):  # with and without chunks sent to %
            xs = x[: len(ys[0])]
            assert all(b"\0" not in piece for pieces in _points(xs, ys) for piece in pieces)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1 + 2.0**-17])
    def test_a_percent_cell_in_every_column(self, value):
        """nan, inf and an undecided tie go to %; the row they go into held
        the built text of another value first, whose bytes must not stay."""
        table = np.tile(np.array([[0.5], [-123.25], [1e-5], [7e22]]), (1, 14))
        table[np.arange(14) % 4, np.arange(14)] = value
        table = np.vstack([table, np.full((1, 14), value)])
        assert b"".join(g17_rows(table)) == _per_cell_rows(table)
