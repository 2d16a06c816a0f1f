"""Decay-constant estimation on event data.

The primary estimator is the maximum-likelihood rate on raw times (the
reciprocal sample mean).  The per-detector streams are fitted with the
cumulative count pattern N(t) = A (1 - e^{-bt}), because that is the form
the count measurements are reported in.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit

from . import grids
from .errors import InsufficientDataError, InvalidParameterError


@dataclass(frozen=True)
class Histogram:
    """Binned counts with half-open bins [edges[i], edges[i+1])."""

    edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        counts = np.asarray(self.counts)
        if len(edges) != len(counts) + 1:
            raise InvalidParameterError("need len(edges) == len(counts) + 1")
        if not np.all(np.diff(edges) > 0):
            raise InvalidParameterError("edges must be strictly increasing")
        if np.any(counts < 0):
            raise InvalidParameterError("counts must be nonnegative")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "counts", counts)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


@dataclass(frozen=True)
class FitResult:
    """Estimated decay constant with uncertainty.

    `goodness` is the one-sample KS statistic against the fitted law for
    the MLE method, and the rms residual over the fitted amplitude for the
    cumulative-curve fit.
    """

    rate_hat: float
    std_error: float
    n_samples: int
    method: str  # "mle" | "histogram-lsq"
    goodness: float

    def __post_init__(self):
        if not self.rate_hat > 0:
            raise InvalidParameterError("rate_hat must be positive")
        if self.std_error < 0:
            raise InvalidParameterError("std_error must be nonnegative")


def _as_sample_array(samples, minimum: int) -> np.ndarray:
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < minimum:
        raise InsufficientDataError(f"need at least {minimum} samples, got {x.size}")
    if np.fmin.reduce(x) < 0:  # np.any(x < 0) without an n-byte mask; NaN is skipped by both
        raise InvalidParameterError("samples must be nonnegative times")
    return x


def _private_copy(samples) -> np.ndarray:
    """A contiguous float64 copy of `samples`, flattened, for one in-place fit."""
    return np.array(samples, dtype=float, order="C").ravel()


def _sort_in_place(x: np.ndarray) -> None:
    """Sort the contiguous float64 array `x` in place, on `thread_count()`
    threads: ``ndarray.partition`` at thread_count() - 1 cuts puts every
    cut's value in its sorted place, with no greater value before it and
    no smaller one after, and then each segment between cuts is sorted on
    a thread of its own.  The result has the bytes of ``np.sort(x)``
    (barring a mix of 0.0 and -0.0, whose order no sort fixes)."""
    threads = grids.thread_count()
    cuts = [x.size * k // threads for k in range(1, threads)]
    if cuts:
        x.partition(cuts)
    bounds = [0, *cuts, x.size]
    grids.spread(lambda share: [x[lo:hi].sort() for lo, hi in share], list(zip(bounds, bounds[1:])), threads)


#: sorted samples per block of the KS walk, taken by all threads together:
#: each of `thread_count()` threads walks blocks of KS_BLOCK //
#: thread_count() samples, so their temporaries, two blocks each, add up
#: to 2 * KS_BLOCK floats (1 MiB) whatever the number of CPUs
KS_BLOCK = 2**16


def ks_statistic_exponential(samples: np.ndarray, rate: float) -> float:
    """One-sample KS distance between the data and Exponential(rate)."""
    return _ks_in_place(_private_copy(samples), rate)


def _ks_in_place(cdf: np.ndarray, rate: float) -> float:
    """`ks_statistic_exponential` of the contiguous float64 sample `cdf`,
    which it sorts and overwrites with the fitted law's cdf."""
    # at large n this sets a run's memory peak, so the cdf overwrites the
    # sorted sample and the gaps to i/n are taken one block at a time; each
    # cdf value, each i/n and each gap is computed alone and max picks one
    # of them, so the blocks give the bits of one whole-array grid
    _sort_in_place(cdf)
    n = cdf.size
    gaps = []

    def walk(rows):
        block = cdf[rows]
        np.multiply(block, -rate, out=block)
        np.expm1(block, out=block)
        np.negative(block, out=block)
        grid = np.arange(rows.start, rows.start + block.size + 1, dtype=float)
        grid /= n
        gaps.append(max(np.max(grid[1:] - block), np.max(block - grid[:-1])))

    grids.each_block(walk, n, KS_BLOCK)
    # np.max gives NaN if any gap is NaN, in whatever order the blocks ended
    return float(np.max(gaps, initial=-np.inf))


def fit_exponential_mle(samples) -> FitResult:
    """Maximum-likelihood exponential rate: 1 / sample mean.

    The standard error is rate / sqrt(n) (exact Fisher information for the
    exponential family).
    """
    return _mle_in_place(_private_copy(samples))


def _mle_in_place(x: np.ndarray) -> FitResult:
    """`fit_exponential_mle` of the contiguous float64 sample `x`, which its
    KS walk sorts and overwrites; the mean is taken before, in `x`'s order."""
    x = _as_sample_array(x, 2)
    mean = float(np.mean(x))
    if mean <= 0:
        raise InsufficientDataError("sample mean is zero; rate undefined")
    rate = 1.0 / mean
    if rate == np.inf:
        raise InsufficientDataError(f"sample mean {mean:g} is so small that the rate, its reciprocal, overflows")
    return FitResult(
        rate_hat=rate,
        std_error=rate / np.sqrt(x.size),
        n_samples=int(x.size),
        method="mle",
        goodness=_ks_in_place(x, rate),
    )


def fit_cumulative_curve(times) -> FitResult:
    """Least-squares fit of the cumulative count pattern N(t) = A (1 - e^{-bt}).

    This is the form the per-detector count distributions take; the fitted
    b estimates the single-atom rate even though the stream mixes first and
    second photons.  `times` may come in any order: the fit sorts a copy,
    and the start values use only that copy, so the result does not depend
    on the input order.  A fit that does not converge raises InsufficientDataError.
    """
    return _cumulative_in_place(_private_copy(times))


def _cumulative_in_place(xs: np.ndarray) -> FitResult:
    """`fit_cumulative_curve` of the contiguous float64 sample `xs`, which
    it sorts."""
    xs = _as_sample_array(xs, 2)
    _sort_in_place(xs)
    t_max = float(xs[-1])
    if t_max <= 0:
        raise InsufficientDataError("all times are zero")
    grid = np.linspace(0.0, t_max, 256)  # the times the count pattern is fitted at
    emp = np.searchsorted(xs, grid, side="right").astype(float)

    def model(t, amp, rate):
        return amp * -np.expm1(-rate * t)

    mean = float(np.mean(xs))
    if mean <= 0:  # a sum of subnormal times can round to 0
        raise InsufficientDataError("sample mean is zero; the start rate is undefined")
    p0 = (float(xs.size), 1.0 / mean)
    try:
        # a covariance that overflows or cannot be estimated is left out
        # below, with no warning; the fits run on the calling thread, so
        # the filter is theirs alone
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, pcov = curve_fit(model, grid, emp, p0=p0)
    except RuntimeError as exc:  # no convergence, common for a handful of samples
        raise InsufficientDataError(f"cumulative fit of {xs.size} samples did not converge") from exc
    amp, rate = popt
    if not (np.isfinite(rate) and np.isfinite(pcov[1, 1])):
        raise InsufficientDataError(f"cumulative fit of {xs.size} samples leaves its rate or the rate's variance undefined")
    resid = emp - model(grid, *popt)
    return FitResult(
        rate_hat=float(rate),
        std_error=float(np.sqrt(pcov[1, 1])),
        n_samples=int(xs.size),
        method="histogram-lsq",
        goodness=float(np.sqrt(np.mean(resid**2)) / max(amp, 1.0)),
    )
