"""Decay-constant estimation on event data.

The primary estimator is the maximum-likelihood rate on raw times (the
reciprocal sample mean).  The per-detector streams are fitted with the
cumulative count pattern N(t) = A (1 - e^{-bt}), because that is the form
the count measurements are reported in.

An MLE fit holds no sample: it reads a sample source (n, leaf), where
``leaf(lo, hi)`` makes the items [lo, hi), in two passes (`_Walk`).  Its
mean has the bits of ``np.mean`` over the sample as one contiguous array,
and its KS distance those of the walk over the whole sorted sample; the
public fits read their input through the same core, never copying it
whole or writing it.  The cumulative fit takes a sorted sample, which it
does not write.
"""

from __future__ import annotations

import threading
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


def _flat(samples) -> np.ndarray:
    """`samples` as a 1D float64 array: a view of a float64 array, whose
    items the fits read and never write."""
    return np.reshape(np.asarray(samples, dtype=float), -1)


def _source(x: np.ndarray):
    """The sample source of the 1D array `x`: its size and a function
    giving its items [lo, hi) as a contiguous array, a view where `x` is
    contiguous and a copy of the slice where it is strided."""
    return x.size, lambda lo, hi: np.ascontiguousarray(x[lo:hi])


def _check_times(least: float, greatest: float) -> None:
    """Refuse a sample whose least item is not a nonnegative number or
    whose greatest is not finite: a negative, infinite or NaN time."""
    if not (least >= 0 and greatest < np.inf):
        raise InvalidParameterError("samples must be finite, nonnegative times")


#: the most buckets the KS walk counts a sample into
KS_BUCKETS = 2**16
#: a relative bound, far above the rounding of the bucket bounds
_SLACK = 2.0**-40
#: how far (times (1 + u)^2) the float32 steps of a bucket key can move u
_KEY_SLACK = 2.0**-20


def _cdf(x: np.ndarray, rate: float) -> np.ndarray:
    """The fitted law's cdf at `x`, in place of `x`, as the KS walk takes it."""
    np.multiply(x, -rate, out=x)
    np.expm1(x, out=x)
    return np.negative(x, out=x)


class _Walk:
    """One pass over the n items of a sample source (n, leaf): ``leaf(lo,
    hi)`` gives the items [lo, hi) as a contiguous float64 array, which is
    never written.

    The pass takes the sum of the items, with the bits of
    ``np.add.reduce`` over them as one contiguous array (`grids.pairwise_sum`),
    their least and greatest item (NaN if any item is NaN), and the counts
    of the pruned KS walk's buckets, leaf by leaf; `ks` then takes one
    more pass.  No array of n items is made.

    Each item x goes to one of B buckets by a key monotone in x:
    floor(B u / (1 + u)) of u = max(x * scale, 0), x * scale taken in
    float64 and each step rounded to float32, so that a bucket holds at
    most about 1.5 / B of an exponential sample whose mean is about 1 /
    scale.  The scale is 1 / the mean of 512 items spread over the
    sample: another scale changes how many items `ks` gathers, never its
    bits.  B is about n / 16, from
    2^10 to `KS_BUCKETS`; the counts are added into one table under a
    lock, so no table grows with the thread count.  Both passes take about
    n / 32 items at a time over `grids.threads_for` of them threads, from
    2^13 to 2^16: few enough beside a small sample, and few enough that
    their arrays are reused from the heap, not mapped anew.
    """

    def __init__(self, n: int, leaf):
        self.n, self.leaf = n, leaf
        self.buckets = min(max(1 << max(n.bit_length() - 5, 0), 2**10), KS_BUCKETS)
        self.in_flight = min(max(n // 32, 2**13), 2**16)
        with np.errstate(all="ignore"):
            guess = 1.0 / np.mean(np.concatenate([leaf(lo, min(lo + 32, n)) for lo in range(0, n, max(n // 16, 1))]))
        self.scale = float(guess) if 0.0 < guess < np.inf else 1.0
        self.counts = np.zeros(self.buckets, np.intp)
        lows, highs, lock = [], [], threading.Lock()

        def tallied(lo, hi):
            x = leaf(lo, hi)
            lows.append(x.min())
            highs.append(x.max())
            k = self.keys(x)
            with lock:  # one table of counts alive at a time
                self.counts += np.bincount(k, minlength=self.buckets)
            return x

        self.total = grids.pairwise_sum(n, tallied, self.in_flight)
        self.least, self.greatest = float(np.min(lows)), float(np.max(highs))

    def keys(self, x: np.ndarray) -> np.ndarray:
        """The bucket of each item of `x`."""
        v = np.empty(x.size, np.float32)
        with np.errstate(over="ignore"):  # a u past float32's range goes to the last bucket
            np.multiply(x, self.scale, out=v, casting="same_kind")
        np.fmax(v, 0.0, out=v)  # NaN goes to 0
        v += 1.0
        np.divide(1.0, v, out=v)
        np.subtract(1.0, v, out=v)
        v *= self.buckets
        np.fmin(v, self.buckets - 1, out=v)
        return v.astype(np.intp)

    def _bounds(self, lo: int, hi: int, ends: np.ndarray, rate: float):
        """The upper bounds of the gaps in the buckets [lo, hi), whose
        items end at the ranks `ends`, and the least gap their items reach
        (-inf for an empty bucket)."""
        n, buckets, least, greatest = self.n, self.buckets, self.least, self.greatest
        b = np.arange(lo, hi, dtype=float)
        u_lo = b / (buckets - b)
        with np.errstate(divide="ignore"):  # the last bucket has no upper edge
            u_hi = (b + 1.0) / (buckets - b - 1.0)
        u_lo -= _KEY_SLACK * (1.0 + u_lo) ** 2
        u_hi += _KEY_SLACK * (1.0 + u_hi) ** 2
        with np.errstate(all="ignore"):  # an infinite or NaN bound only keeps its bucket
            c_lo = _cdf(np.clip(u_lo / self.scale * (1.0 - _SLACK), least, greatest), rate)
            c_hi = _cdf(np.clip(u_hi / self.scale * (1.0 + _SLACK), least, greatest), rate)
            if lo == 0:
                c_lo[0] = _cdf(np.array([least]), rate)[0]
            if hi == buckets:
                c_hi[-1] = _cdf(np.array([greatest]), rate)[0]
            c_min, c_max = np.minimum(c_lo, c_hi), np.maximum(c_lo, c_hi)
            slack = _SLACK * (1.0 + np.abs(c_lo) + np.abs(c_hi))
            r1, r0 = ends / n, (ends - self.counts[lo:hi]) / n
            upper = np.maximum(r1 - c_min, c_max - r0) + slack
            reached = np.maximum(r1 - c_max, c_min - r0) - slack
        reached[self.counts[lo:hi] == 0] = -np.inf
        return upper, reached

    def ks(self, rate: float) -> float:
        """The KS distance of the sample to Exponential(rate), with the bits
        of the walk over the whole sorted sample
        (``tests/oracles.py::ks_statistic_whole_array``), holding only the
        items that can reach the largest gap.

        The counts give each bucket's ranks [r0, r1) in the sorted sample.
        Its items lie between two edges, and so do their cdf values, c_min
        and c_max; the gaps of its items to i/n are then at most
        max(r1/n - c_min, c_max - r0/n), and its last and first item reach
        at least max(r1/n - c_max, c_min - r0/n), each bound widened by far
        more than any rounding (a NaN bound, from a NaN item or rate, keeps
        its bucket).  A bucket whose upper bound lies below the greatest
        lower bound cannot hold the largest gap.  One pass gathers the
        items of the other buckets and sorts them, and each one's gaps are
        taken from its exact rank i and cdf, as the whole-array walk takes
        them.
        """
        n, buckets, counts = self.n, self.buckets, self.counts
        ends = np.cumsum(counts)
        upper, reached = np.empty(buckets), -np.inf
        for lo in range(0, buckets, buckets // 8):  # a few buckets' temporaries at a time
            hi = lo + buckets // 8
            upper[lo:hi], block = self._bounds(lo, hi, ends[lo:hi], rate)
            with np.errstate(invalid="ignore"):
                reached = np.fmax(reached, np.fmax.reduce(block))  # NaN is skipped
        candidate = (counts > 0) & ~(upper < reached)
        del upper
        parts = []

        def gather(rows):
            x = self.leaf(rows.start, min(rows.stop, n))
            parts.append(x[candidate[self.keys(x)]])

        threads = grids.threads_for(self.in_flight)
        grids.spread(lambda share: [gather(slice(lo, lo + self.in_flight // threads)) for lo in share],
                     range(0, n, self.in_flight // threads), threads)
        cdf = np.concatenate(parts)
        del parts
        cdf.sort()
        kept = counts[candidate]
        rank = np.repeat(ends[candidate] - np.cumsum(kept), kept)
        rank += np.arange(cdf.size)
        _cdf(cdf, rate)
        grid = rank.astype(float)
        grid /= n
        below = cdf - grid
        np.add(rank, 1, out=rank)
        np.divide(rank, n, out=grid)  # i + 1 is exact in float, as it is in the whole-array grid
        above = grid - cdf
        return float(max(np.max(above), np.max(below)))


def ks_statistic_exponential(samples, rate: float) -> float:
    """One-sample KS distance between the data and Exponential(rate); the
    data are read, never copied whole or written."""
    n, leaf = _source(_flat(samples))
    if not n:
        return -np.inf  # the largest of no gaps
    return _Walk(n, leaf).ks(rate)


def fit_exponential_mle(samples) -> FitResult:
    """Maximum-likelihood exponential rate: 1 / sample mean.

    The standard error is rate / sqrt(n) (exact Fisher information for the
    exponential family).  The samples are read leaf by leaf, never copied
    whole or written.
    """
    return _mle(*_source(_flat(samples)))


def _mle(n: int, leaf) -> FitResult:
    """`fit_exponential_mle` of the sample source (n, leaf) (see `_Walk`):
    the mean has the bits of ``np.mean`` over the sample as one contiguous
    array, and the KS distance those of the walk over the sorted sample."""
    if n < 2:
        raise InsufficientDataError(f"need at least 2 samples, got {n}")
    walk = _Walk(n, leaf)
    _check_times(walk.least, walk.greatest)
    mean = walk.total / n
    if mean <= 0:
        raise InsufficientDataError("sample mean is zero; rate undefined")
    rate = 1.0 / mean
    if rate == np.inf:
        raise InsufficientDataError(f"sample mean {mean:g} is so small that the rate, its reciprocal, overflows")
    return FitResult(
        rate_hat=rate,
        std_error=rate / np.sqrt(n),
        n_samples=int(n),
        method="mle",
        goodness=walk.ks(rate),
    )


def fit_cumulative_curve(times) -> FitResult:
    """Least-squares fit of the cumulative count pattern N(t) = A (1 - e^{-bt}).

    This is the form the per-detector count distributions take; the fitted
    b estimates the single-atom rate even though the stream mixes first and
    second photons.  `times` may come in any order: the fit sorts a copy,
    and the start values use only that copy, so the result does not depend
    on the input order.  A fit that does not converge raises InsufficientDataError.
    """
    xs = np.array(times, dtype=float, order="C").ravel()
    grids.sort_in_place(xs)
    return _cumulative_sorted(xs)


def _cumulative_sorted(xs: np.ndarray) -> FitResult:
    """`fit_cumulative_curve` of the sorted contiguous float64 sample `xs`,
    which it does not write; its least and greatest time are its ends."""
    if xs.size < 2:
        raise InsufficientDataError(f"need at least 2 samples, got {xs.size}")
    _check_times(xs[0], xs[-1])
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
