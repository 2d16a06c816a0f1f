"""Uniform 1D spatial grids used to discretize wave functions, and the
helpers that spread work over threads.

A two-atom kernel is sampled on the product of one grid with itself, and
its final states are sampled on the same grid.  The amplitude engine's
dense passes over such kernels, the 1D FFT passes of free flight among
them, are elementwise per row or independent per row or column, so they
run block by block on every usable CPU (up to `ROWS_IN_FLIGHT`); each
output element is computed by the same code whichever thread takes its
block, so the bits do not depend on the thread count.  The event stage's
passes after the draws spread their chunks, sorted segments and KS
blocks the same way.  Every thread the package starts comes from `spread`.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

#: the fewest points a grid takes
MIN_GRID_POINTS = 64


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid on [x_min, x_max] with n_points samples (endpoints included)."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise InvalidParameterError("x_max must exceed x_min")
        if self.n_points < MIN_GRID_POINTS:
            raise InvalidParameterError(f"n_points must be at least {MIN_GRID_POINTS}")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    @property
    def wavenumbers(self) -> np.ndarray:
        """FFT-ordered wavenumbers for spectral free propagation."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.spacing)

    @classmethod
    def centered(cls, half_width: float, n_points: int = 512) -> "SpatialGrid":
        """Symmetric grid [-half_width, half_width]."""
        return cls(-float(half_width), float(half_width), n_points)


#: rows (or columns) of a dense n x n array that a pass's threads take
#: together at a time: each of `thread_count()` threads takes blocks of
#: ROWS_IN_FLIGHT // thread_count() rows, so their temporaries add up to
#: the same few rows whatever the number of CPUs
ROWS_IN_FLIGHT = 32


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_count() -> int:
    """Threads a pass runs on: one per usable CPU, at most
    `ROWS_IN_FLIGHT`, so that every thread of a dense pass takes at least
    one row."""
    return min(usable_cpus(), ROWS_IN_FLIGHT)


def spread(work, items, shares: int) -> None:
    """Call ``work(items[s::shares])`` for s = 0 .. shares - 1: share 0 on
    the calling thread, each other share on a thread of its own.  Returns
    once every share is done, and re-raises an exception that any share
    raised, MemoryError included.  `shares` is cut to `thread_count()` and
    to the number of items, so no share is empty and at most
    `thread_count()` - 1 threads are started."""
    shares = min(shares, thread_count(), len(items))
    if shares <= 1:
        work(items)
        return
    with ThreadPoolExecutor(max_workers=shares - 1) as pool:
        futures = [pool.submit(work, items[s::shares]) for s in range(1, shares)]
        work(items[0::shares])
    for future in futures:
        future.result()


def each_block(work, n: int, in_flight: int | None = None) -> None:
    """Call ``work(block)`` for each slice of in_flight (by default
    `ROWS_IN_FLIGHT`, read at the call) // thread_count() indices that
    tile range(n), spread over `thread_count()` threads."""
    threads = thread_count()
    rows = (in_flight or ROWS_IN_FLIGHT) // threads

    def run(share):
        for start in share:
            work(slice(start, start + rows))

    spread(run, range(0, n, rows), threads)


def abs2(a: np.ndarray) -> np.ndarray:
    """|a|^2 elementwise in one real array laid out like `a`; the same
    bits as ``np.abs(a) ** 2`` without its second temporary.  A
    Fortran-ordered `a` (such as a kernel's transpose) gives a
    Fortran-ordered result."""
    out = np.empty_like(a, dtype=float)
    # blocks of the leading axis of the C-ordered view, so each is contiguous
    src, dst = (a.T, out.T) if a.flags.f_contiguous else (a, out)

    def square(rows):
        np.abs(src[rows], out=dst[rows])
        dst[rows] *= dst[rows]

    each_block(square, len(src))
    return out
