"""Decay-constant estimation on event data.

The primary estimator is the maximum-likelihood rate on raw times (the
reciprocal sample mean).  The per-detector streams are fitted with the
cumulative count pattern N(t) = A (1 - e^{-bt}), because that is the form
the count measurements are reported in.

An MLE fit holds no sample: it reads a sample source, which makes the
items of one or more samples from units of rows, and the fits of all of
a source's samples share one walk of two passes over its units (`_Walk`).
Each mean has the bits of ``np.mean`` over its sample as one contiguous
array, and each KS distance those of the walk over the whole sorted
sample; the public fits read their input through the one-sample case of
the same walk, never copying it whole or writing it.  The cumulative fit
takes a sorted sample, which it does not write.
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


def _source(n: int, *items):
    """The source (see `_Walk`) of samples of n items each, one per
    function of `items`: ``items[i](lo, hi)`` gives the items [lo, hi) of
    sample i as a contiguous float64 array."""
    return n, lambda lo, hi: tuple(f(lo, hi) for f in items), lambda rows: [rows] * len(items)


def _array_source(x: np.ndarray):
    """The one-sample source of the 1D array `x`: a view of its items where
    `x` is contiguous, a copy of the slice where it is strided."""
    return _source(x.size, lambda lo, hi: np.ascontiguousarray(x[lo:hi]))


def _check_times(least: float, greatest: float) -> None:
    """Refuse a sample whose least item is not a nonnegative number or
    whose greatest is not finite: a negative, infinite or NaN time."""
    if not (least >= 0 and greatest < np.inf):
        raise InvalidParameterError("samples must be finite, nonnegative times")


#: the most buckets the KS walk counts a sample into
KS_BUCKETS = 2**16
#: the most rows a walk's threads take at a time: 2^16 per thread on 2 CPUs
ROWS_IN_FLIGHT = 2**17
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
    """Two passes over the n rows of a sample source (n, make, at), which
    holds one or more samples: ``make(lo, hi)`` gives, for the rows [lo,
    hi), one contiguous float64 array per sample, of the items those rows
    hold, in order, which the walk never writes; ``at(rows)`` gives, per
    sample, the number of its items before each of the rows `rows` (each
    a multiple of 8, or n).

    The threads, `grids.threads_for` of about n / 32 rows in flight (from
    2^13 to `ROWS_IN_FLIGHT`), each take one run of consecutive units in
    order: few enough rows beside a small sample, and enough that the
    threads spend their time in numpy.  The units are the leaves of
    numpy's pairwise tree over the n rows, of at most the rows in flight
    per thread, so a sample with an item per row sums each unit as one
    leaf.  Each unit is made once per pass, and its samples are read
    together.  The first pass (here) takes each sample's `_Tally`; `ks`
    takes the second.  No array of n items is made.
    """

    def __init__(self, n: int, make, at):
        self.make = make
        in_flight = min(max(n // 32, 2**13), ROWS_IN_FLIGHT)
        self.threads = grids.threads_for(in_flight)
        leaf = in_flight // self.threads
        leaves = grids.PairwiseSum(n, leaf).leaves if n else []
        self.bounds = [*(part.start for part in leaves), n]
        offsets = at(np.array(self.bounds))
        spans = [make(lo, min(lo + 32, n)) for lo in range(0, n, max(n // 16, 1))]
        self.samples = [_Tally(int(ends[-1]), leaf, [made[i] for made in spans]) for i, ends in enumerate(offsets)]
        del spans

        def tally(u):
            made = list(make(self.bounds[u], self.bounds[u + 1]))
            for i, (sample, ends) in enumerate(zip(self.samples, offsets)):
                sample.add(int(ends[u]), made[i])
                made[i] = None  # each sample's items go once they are taken

        self._units(tally)
        for sample in self.samples:
            sample.close()

    def _units(self, work) -> None:
        """Call ``work(u)`` for each unit u, each thread on one run of them."""
        units, threads = len(self.bounds) - 1, self.threads
        cuts = [units * s // threads for s in range(threads + 1)]
        runs = [range(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
        grids.spread(lambda share: [work(u) for run in share for u in run], runs, threads)

    def ks(self, rates) -> list:
        """The KS distance of each sample to Exponential(rate), at its rate
        in `rates` (None: not taken), with the bits of the walk over the
        whole sorted sample (``tests/oracles.py::ks_statistic_whole_array``):
        one more pass gathers the items that can reach each sample's
        largest gap (`_Tally.select`)."""
        taken = [i for i, rate in enumerate(rates) if rate is not None]
        for i in taken:
            self.samples[i].select(rates[i])
        parts = {i: [] for i in taken}

        def gather(u):
            made = list(self.make(self.bounds[u], self.bounds[u + 1]))
            for i in taken:
                parts[i].append(self.samples[i].gather(made[i]))
                made[i] = None

        if taken:
            self._units(gather)
        return [self.samples[i].distance(rate, parts.pop(i)) if i in parts else None for i, rate in enumerate(rates)]


class _Tally:
    """What the first pass of a `_Walk` takes of a sample of n items: their
    sum, with the bits of ``np.add.reduce`` over them as one contiguous
    array (`grids.PairwiseSum`), their least and greatest item (NaN if any
    item is NaN), and the counts of the pruned KS walk's buckets.

    Each item x goes to one of B buckets by a key monotone in x:
    floor(B u / (1 + u)) of u = max(x * scale, 0), x * scale taken in
    float64 and each step rounded to float32, so that a bucket holds at
    most about 1.5 / B of an exponential sample whose mean is about 1 /
    scale.  The scale is 1 / the mean of the `guess` items, those of the
    spans of 32 rows, n / 16 rows apart, of the source: another scale
    changes how many items `_Walk.ks` gathers, never its bits.  B is
    about n / 16, from 2^10 to `KS_BUCKETS`; the counts are added into one
    table under a lock, so no table grows with the thread count.
    """

    def __init__(self, n: int, leaf: int, guess):
        self.n = n
        self.buckets = min(max(1 << max(n.bit_length() - 5, 0), 2**10), KS_BUCKETS)
        guess = np.concatenate([np.empty(0), *guess])
        with np.errstate(all="ignore"):
            scale = 1.0 / np.mean(guess) if guess.size else 1.0
        self.scale = float(scale) if 0.0 < scale < np.inf else 1.0
        self.counts, self.lock = np.zeros(self.buckets, np.intp), threading.Lock()
        self.sum = grids.PairwiseSum(n, leaf)
        self.lows, self.highs = [], []

    def add(self, lo: int, x: np.ndarray) -> None:
        """Take the items [lo, lo + x.size) of the sample."""
        if not x.size:
            return
        self.sum.add(lo, x)
        self.lows.append(x.min())
        self.highs.append(x.max())
        k = self.keys(x)
        with self.lock:
            np.add.at(self.counts, k, 1)

    def close(self) -> None:
        """End the first pass: take the least and the greatest item."""
        self.least = self.greatest = np.nan
        if self.lows:
            self.least, self.greatest = float(np.min(self.lows)), float(np.max(self.highs))
        del self.lows, self.highs

    def rate(self) -> float:
        """The MLE rate, 1 / the sample mean, once the first pass is done."""
        n = self.n
        if n < 2:
            raise InsufficientDataError(f"need at least 2 samples, got {n}")
        _check_times(self.least, self.greatest)
        mean = self.sum.total() / n
        if mean <= 0:
            raise InsufficientDataError("sample mean is zero; rate undefined")
        rate = 1.0 / mean
        if rate == np.inf:
            raise InsufficientDataError(f"sample mean {mean:g} is so small that the rate, its reciprocal, overflows")
        return rate

    def keys(self, x: np.ndarray) -> np.ndarray:
        """The bucket of each item of `x`."""
        v = np.empty(x.size, np.float32)
        with np.errstate(over="ignore"):  # a u past float32's range goes to the last bucket
            np.multiply(x, self.scale, out=v, casting="same_kind")
        np.fmax(v, 0.0, out=v)  # NaN goes to 0
        v += 1.0
        # B - B / (1 + u): the bits of B (1 - 1 / (1 + u)), B a power of two
        np.divide(self.buckets, v, out=v)
        np.subtract(self.buckets, v, out=v)
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

    def select(self, rate: float) -> None:
        """Mark the buckets that can hold the largest gap of the sample to
        Exponential(rate), whose items `gather` keeps.

        The counts give each bucket's ranks [r0, r1) in the sorted sample.
        Its items lie between two edges, and so do their cdf values, c_min
        and c_max; the gaps of its items to i/n are then at most
        max(r1/n - c_min, c_max - r0/n), and its last and first item reach
        at least max(r1/n - c_max, c_min - r0/n), each bound widened by far
        more than any rounding (a NaN bound, from a NaN item or rate, keeps
        its bucket).  A bucket whose upper bound lies below the greatest
        lower bound cannot hold the largest gap.
        """
        buckets, counts = self.buckets, self.counts
        ends = np.cumsum(counts)
        upper, reached = np.empty(buckets), -np.inf
        for lo in range(0, buckets, buckets // 8):  # a few buckets' temporaries at a time
            hi = lo + buckets // 8
            upper[lo:hi], block = self._bounds(lo, hi, ends[lo:hi], rate)
            with np.errstate(invalid="ignore"):
                reached = np.fmax(reached, np.fmax.reduce(block))  # NaN is skipped
        self.candidate = (counts > 0) & ~(upper < reached)
        # the marked buckets' counts and where their items' ranks start in
        # the gathered, sorted items; the other counts go
        self.kept = counts[self.candidate]
        self.offsets = ends[self.candidate] - np.cumsum(self.kept)
        del self.counts
        # the items of the marked buckets lie in [low, high], the edges of
        # the first and the last one widened as in _bounds
        marked = np.flatnonzero(self.candidate)
        self.low, self.high = -np.inf, np.inf
        if marked.size and marked[0] > 0:
            u = marked[0] / (buckets - marked[0])
            self.low = (u - _KEY_SLACK * (1.0 + u) ** 2) / self.scale * (1.0 - _SLACK)
        if marked.size and marked[-1] < buckets - 1:
            u = (marked[-1] + 1.0) / (buckets - marked[-1] - 1.0)
            self.high = (u + _KEY_SLACK * (1.0 + u) ** 2) / self.scale * (1.0 + _SLACK)

    def gather(self, x: np.ndarray) -> np.ndarray:
        """The items of `x` in the buckets `select` marked: those in [low,
        high] or NaN are keyed, and the others cannot be marked."""
        near = np.less(x, self.low)
        near |= np.greater(x, self.high)
        x = np.compress(~near, x)
        return x[self.candidate[self.keys(x)]]

    def distance(self, rate: float, parts: list) -> float:
        """The KS distance of the sample to Exponential(rate), given the
        items that `gather` kept in `parts`: they are sorted, and each
        one's gaps are taken from its exact rank i and cdf, as the
        whole-array walk takes them."""
        n = self.n
        cdf = np.concatenate(parts)
        parts.clear()
        cdf.sort()
        rank = np.repeat(self.offsets, self.kept)
        rank += np.arange(cdf.size)
        _cdf(cdf, rate)
        grid = rank.astype(float)
        grid /= n
        below = np.max(cdf - grid)
        np.add(rank, 1, out=rank)
        np.divide(rank, n, out=grid)  # i + 1 is exact in float, as it is in the whole-array grid
        del rank
        above = np.subtract(grid, cdf, out=grid)
        return float(max(np.max(above), below))


def ks_statistic_exponential(samples, rate: float) -> float:
    """One-sample KS distance between the data and Exponential(rate); the
    data are read, never copied whole or written."""
    source = _array_source(_flat(samples))
    if not source[0]:
        return -np.inf  # the largest of no gaps
    return _Walk(*source).ks([rate])[0]


def fit_exponential_mle(samples) -> FitResult:
    """Maximum-likelihood exponential rate: 1 / sample mean.

    The standard error is rate / sqrt(n) (exact Fisher information for the
    exponential family).  The samples are read unit by unit, never copied
    whole or written.
    """
    (fit,) = _mle(*_array_source(_flat(samples)))
    if isinstance(fit, InsufficientDataError):
        raise fit
    return fit


def _mle(n: int, make, at) -> list:
    """`fit_exponential_mle` of each sample of the source (n, make, at)
    (see `_Walk`), from one walk of two passes: per sample its FitResult,
    or the InsufficientDataError that leaves it out.  Each mean has the
    bits of ``np.mean`` over its sample as one contiguous array, and each
    KS distance those of the walk over the sorted sample."""
    walk = _Walk(n, make, at)
    outcomes = []
    for sample in walk.samples:
        try:
            outcomes.append(sample.rate())
        except InsufficientDataError as exc:
            outcomes.append(exc)
    rates = [None if isinstance(rate, Exception) else rate for rate in outcomes]
    return [outcome if rate is None else
            FitResult(rate_hat=rate, std_error=rate / np.sqrt(sample.n), n_samples=int(sample.n), method="mle",
                      goodness=ks)
            for sample, outcome, rate, ks in zip(walk.samples, outcomes, rates, walk.ks(rates))]


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
