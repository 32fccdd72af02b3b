"""Fuzz the array formatters of lics._text against Python's ``%``.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/fuzz_formatters.py [-n N] [--seed S]

It formats N random doubles (default 10**7) as ``%.17g`` CSV cells and N
as ``%.2f`` polyline cells, compares every cell with ``%``, prints each
mismatch and the share of cells the arithmetic left to ``%``, and exits
with status 1 on any mismatch.  The ``%.17g`` values are random bit
patterns, so every binary exponent and the subnormals are drawn equally
often, mixed with powers of ten, their neighbours and non-finite values;
the ``%.2f`` values are spread over the plot range and beyond, and every
negative one goes to ``%``.  The file name does not match ``test_*.py``,
so pytest does not collect it; ``tests/test_fuzz.py`` runs it briefly.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from lics import _text

CHUNK = 1 << 16
DECADES = np.array([float(f"1e{k}") for k in range(-323, 309)])


def _g17_chunk(rng: np.random.Generator, n: int) -> np.ndarray:
    # random bit patterns: every binary exponent, the subnormals, inf and nan
    values = rng.integers(0, 1 << 64, size=n, dtype=np.uint64).view(np.float64)
    # one in eight: a power of ten or one of its two neighbours on either side
    near = rng.choice(DECADES, size=n // 8)
    steps = rng.integers(-2, 3, size=near.size)
    for _ in range(2):
        near = np.where(steps > 0, np.nextafter(near, np.inf), np.where(steps < 0, np.nextafter(near, 0.0), near))
        steps -= np.sign(steps)
    values[: near.size] = near
    return rng.permutation(values)


def _f2_chunk(rng: np.random.Generator, n: int) -> np.ndarray:
    plot = rng.uniform(-100.0, 900.0, size=n // 2)
    wide = rng.uniform(-1.0, 1.0, size=n - n // 2) * 10.0 ** rng.uniform(-8.0, 6.0, size=n - n // 2)
    cents = np.round(rng.uniform(-800.0, 800.0, size=n // 16) * 8.0) / 8.0  # exact ties
    values = np.concatenate([plot, wide])
    values[: cents.size] = cents
    return values


def _check_g17(values: np.ndarray) -> tuple[list[str], int]:
    got = b"".join(_text.g17_rows(values[:, None])).decode().splitlines()
    bad = [f"%.17g: {v!r} gave {g} for {'%.17g' % v}" for v, g in zip(values.tolist(), got) if g != "%.17g" % v]
    a = np.abs(values)
    finite = np.isfinite(a)
    left = np.count_nonzero(~finite) + np.count_nonzero(_text._g17_digits(a[finite])[2])
    return bad, left


def _check_f2(values: np.ndarray) -> tuple[list[str], int]:
    points = _text.f2_points(len(values), values.__getitem__, [values.__getitem__], np.asarray, np.asarray)
    got = b"".join(next(points)).decode().split(" ")
    bad = [f"%.2f: {v!r} gave {g}" for v, g in zip(values.tolist(), got) if g != "%.2f,%.2f" % (v, v)]
    return bad, np.count_nonzero(_text._f2_digits(values)[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=10**7, help="values per formatter (default 10**7)")
    parser.add_argument("--seed", type=int, default=1616)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    status = 0
    for name, make, check in (("%.17g", _g17_chunk, _check_g17), ("%.2f", _f2_chunk, _check_f2)):
        start = time.perf_counter()
        mismatches = left = 0
        for done in range(0, args.n, CHUNK):
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                bad, chunk_left = check(make(rng, min(CHUNK, args.n - done)))
            for line in bad:
                print(line)
            mismatches += len(bad)
            left += chunk_left
        print(
            f"{name}: {args.n} values, {mismatches} mismatches, "
            f"{left / args.n:.2e} of the cells left to %, {time.perf_counter() - start:.1f} s"
        )
        status |= mismatches > 0
    return status


if __name__ == "__main__":
    sys.exit(main())
