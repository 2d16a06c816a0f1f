"""Uniform 1D spatial grids used to discretize wave functions, and the
helpers that spread work over threads.

A two-atom kernel is sampled on the product of one grid with itself, and
its final states are sampled on the same grid.  The amplitude engine's
dense passes over such kernels, the 1D FFT passes of free flight among
them, are elementwise per row or independent per row or column, so they
run block by block on every usable CPU (up to `ROWS_IN_FLIGHT`); each
output element is computed by the same code whichever thread takes its
block, so the bits do not depend on the thread count.  Their sums of
|.|^2 run through `sum_abs2`, whose threads each square and reduce one
leaf of numpy's pairwise tree at a time, so no real array of a kernel's
size is made.  The event stage's passes after the draws spread their
chunks, sorted segments and KS blocks the same way.  Every thread the
package starts comes from `spread`.
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


#: items of numpy's pairwise summation tree that `sum_abs2` squares and
#: reduces at a time, one leaf per thread
SUM_LEAF = 2**14


def _pairwise_tree(lo: int, n: int, leaves: list):
    """numpy's pairwise summation tree over the items [lo, lo + n).  A run
    of at most `SUM_LEAF` items is a leaf: it is appended to `leaves` as a
    slice, and the tree is its index there.  A longer run splits where
    numpy splits it, at n // 2 rounded down to a multiple of 8, and the
    tree is the pair of its halves' trees."""
    if n <= SUM_LEAF:
        leaves.append(slice(lo, lo + n))
        return len(leaves) - 1
    half = n // 2 - n // 2 % 8
    return _pairwise_tree(lo, half, leaves), _pairwise_tree(lo + half, n - half, leaves)


def _sum_of_squares(leaf: np.ndarray):
    """``np.add.reduce`` of |leaf|^2, squared in a real array that is freed
    on return."""
    squares = np.abs(leaf, out=np.empty(leaf.size))
    squares *= squares
    return np.add.reduce(squares)


def sum_abs2(a: np.ndarray) -> float:
    """``float(np.sum(np.abs(a) ** 2))`` with its bits, without its real
    array of a's size.

    ``np.sum`` reads `a` in its memory order (a Fortran-ordered kernel's
    transpose column by column) and adds the items along numpy's pairwise
    tree.  Below a node of the tree its sum does not depend on what lies
    outside it, so each leaf of at most `SUM_LEAF` items is squared on its
    own and reduced by ``np.add.reduce``; the leaves run on
    `thread_count()` threads, and their sums are added in the tree's
    order, so the bits do not depend on the thread count.
    """
    flat = a.ravel(order="K")  # a view of a C- or Fortran-contiguous `a`
    leaves = []
    tree = _pairwise_tree(0, flat.size, leaves)
    sums = np.empty(len(leaves))

    def reduce(share):
        for i in share:
            sums[i] = _sum_of_squares(flat[leaves[i]])

    spread(reduce, range(len(leaves)), thread_count())

    def add(tree):
        return sums[tree] if isinstance(tree, int) else add(tree[0]) + add(tree[1])

    return float(add(tree))
