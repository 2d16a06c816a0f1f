"""Uniform 1D spatial grids used to discretize wave functions, and the
helpers that spread work over threads.

A two-atom kernel is sampled on the product of one grid with itself, and
its final states are sampled on the same grid.  The amplitude engine's
dense passes over such kernels, the 1D FFT passes of free flight among
them, are elementwise per row or independent per row or column, so they
run block by block on every usable CPU (up to `ROWS_IN_FLIGHT`); each
output element is computed by the same code whichever thread takes its
block, so the bits do not depend on the thread count.  Exact sums run
through `PairwiseSum`, which takes the leaves of numpy's pairwise tree
as runs of items arrive, so no array of the summed items is made:
`sum_abs2` squares each leaf of a kernel (`pairwise_sum`), and the event
stage's fits feed it the units of their samples as they make them from
the records.  The event stage's passes spread their pieces and sorted
segments (`sort_in_place`) the same way.  Every thread the package starts comes
from `spread`.
"""

from __future__ import annotations

import bisect
import os
import threading
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


def threads_for(in_flight: int) -> int:
    """Threads for a pass of the event stage that takes `in_flight` items
    at a time over all of its threads: one per `SUM_LEAF` of them, from 1
    to `thread_count()`.  On fewer items per thread, numpy calls lose more
    to handing the interpreter lock between threads than the threads gain
    (on a 2-CPU VM, a detection pass over 8*10^6 molecules in pieces of
    2^12 ran 0.62 s on 2 threads and 0.37 s on 1)."""
    return min(thread_count(), max(1, in_flight // SUM_LEAF))


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


#: the most items of a leaf of numpy's pairwise summation tree that
#: `pairwise_sum` reduces at a time, one leaf per thread
SUM_LEAF = 2**14


def _pairwise_tree(lo: int, n: int, leaf: int, leaves: list):
    """numpy's pairwise summation tree over the items [lo, lo + n).  A run
    of at most `leaf` items is a leaf: it is appended to `leaves` as a
    slice, and the tree is its index there.  A longer run splits where
    numpy splits it, at n // 2 rounded down to a multiple of 8, and the
    tree is the pair of its halves' trees."""
    if n <= leaf:
        leaves.append(slice(lo, lo + n))
        return len(leaves) - 1
    half = n // 2 - n // 2 % 8
    return _pairwise_tree(lo, half, leaf, leaves), _pairwise_tree(lo + half, n - half, leaf, leaves)


class PairwiseSum:
    """``np.add.reduce`` of n float64 items, with its bits, fed as runs of
    consecutive items in any order and from any thread (`add`), and read
    once every item is in (`total`).

    ``np.add.reduce`` of a contiguous array adds its items along numpy's
    pairwise tree.  Below a node of the tree its sum does not depend on
    what lies outside it, so each leaf of at most `SUM_LEAF` items is
    reduced on its own, and the leaf sums are added in the tree's order:
    the bits depend neither on the runs nor on the threads, and no array
    of n items is made.  The leaves take at most `leaf` items (which must
    be at least the 128 items numpy sums without a split).  A leaf that
    lies in one run is reduced from it; a copy of each part of a leaf that
    runs past a run is kept until its other parts are in, and the thread
    that brings the last part reduces the leaf.
    """

    def __init__(self, n: int, leaf: int = SUM_LEAF):
        self.leaves = []
        self.tree = _pairwise_tree(0, n, leaf, self.leaves)
        self.starts = [part.start for part in self.leaves]
        self.sums = np.zeros(len(self.leaves))
        self._parts, self._lock = {}, threading.Lock()

    def add(self, lo: int, items: np.ndarray) -> None:
        """Take the items [lo, lo + items.size), a contiguous float64 array."""
        hi = lo + items.size
        k = bisect.bisect_right(self.starts, lo) - 1
        while hi > lo and k < len(self.leaves) and self.starts[k] < hi:
            part = self.leaves[k]
            if lo <= part.start and part.stop <= hi:
                self.sums[k] = np.add.reduce(items[part.start - lo:part.stop - lo])
            else:
                first = max(part.start, lo)
                self._add_part(k, first, items[first - lo:min(part.stop, hi) - lo].copy())
            k += 1

    def _add_part(self, k: int, first: int, items: np.ndarray) -> None:
        """Keep the items of leaf k from `first` on; reduce the leaf once
        its parts hold all of its items."""
        part = self.leaves[k]
        with self._lock:
            parts = self._parts.setdefault(k, [])
            parts.append((first, items))
            if sum(p.size for _, p in parts) < part.stop - part.start:
                return
            del self._parts[k]
        parts.sort(key=lambda p: p[0])
        self.sums[k] = np.add.reduce(np.concatenate([p for _, p in parts]))

    def total(self) -> float:
        """The sum of the n items, once all of them are in."""

        def add(tree):
            return self.sums[tree] if isinstance(tree, int) else add(tree[0]) + add(tree[1])

        return float(add(self.tree))


def pairwise_sum(n: int, leaf) -> float:
    """``np.add.reduce`` of n float64 items, with its bits (`PairwiseSum`),
    given only ``leaf(lo, hi)``, a contiguous float64 array of the items
    [lo, hi): each of `thread_count()` threads asks for one run of
    consecutive leaves, one leaf at a time, in order."""
    tree, threads = PairwiseSum(n), thread_count()
    cuts = [len(tree.leaves) * s // threads for s in range(threads + 1)]
    runs = [tree.leaves[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
    spread(lambda share: [tree.add(part.start, leaf(part.start, part.stop)) for run in share for part in run],
           runs, threads)
    return tree.total()


def _squares(part: np.ndarray) -> np.ndarray:
    """|part|^2 in a real array of its own."""
    squares = np.abs(part, out=np.empty(part.size))
    squares *= squares
    return squares


def sum_abs2(a: np.ndarray) -> float:
    """``float(np.sum(np.abs(a) ** 2))`` with its bits, without its real
    array of a's size: `pairwise_sum` over a read in its memory order (a
    Fortran-ordered kernel's transpose column by column), as ``np.sum``
    reads it, each leaf squared in an array that goes with it."""
    flat = a.ravel(order="K")  # a view of a C- or Fortran-contiguous `a`
    return pairwise_sum(flat.size, lambda lo, hi: _squares(flat[lo:hi]))


def sort_in_place(x: np.ndarray) -> None:
    """Sort the contiguous float64 array `x` in place, on `thread_count()`
    threads: ``ndarray.partition`` at thread_count() - 1 cuts puts every
    cut's value in its sorted place, with no greater value before it and
    no smaller one after, and then each segment between cuts is sorted on
    a thread of its own.  The result has the bytes of ``np.sort(x)``
    (barring a mix of 0.0 and -0.0, whose order no sort fixes)."""
    threads = min(thread_count(), x.size) or 1
    cuts = [x.size * k // threads for k in range(1, threads)]
    if cuts:
        x.partition(cuts)
    bounds = [0, *cuts, x.size]
    spread(lambda share: [x[lo:hi].sort() for lo, hi in share], list(zip(bounds, bounds[1:])), threads)
