"""Decay-constant estimation and distributional tests on event data.

The primary estimator is the maximum-likelihood rate on raw times (the
reciprocal sample mean); a log-linear weighted histogram fit and a
cumulative-curve fit of the per-detector count pattern N(t) = A (1 - e^{-bt})
are kept because that is the form the count measurements are reported in.
Distribution comparisons use the two-sample Kolmogorov-Smirnov statistic
with the asymptotic Kolmogorov p-value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit
from scipy.special import kolmogorov

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

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def total(self) -> int:
        return int(np.sum(self.counts))


@dataclass(frozen=True)
class FitResult:
    """Estimated decay constant with uncertainty.

    `goodness` is the one-sample KS statistic against the fitted law for
    the MLE method, and the weighted rms residual per degree of freedom
    for the least-squares methods.
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

    def to_dict(self) -> dict:
        return {
            "rate_hat": self.rate_hat,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "method": self.method,
            "goodness": self.goodness,
        }


@dataclass(frozen=True)
class KsTwoSampleResult:
    statistic: float
    p_value: float


def _as_sample_array(samples, minimum: int, nonnegative: bool = True) -> np.ndarray:
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < minimum:
        raise InsufficientDataError(f"need at least {minimum} samples, got {x.size}")
    if nonnegative and np.any(x < 0):
        raise InvalidParameterError("samples must be nonnegative times")
    return x


def ks_statistic_exponential(samples: np.ndarray, rate: float) -> float:
    """One-sample KS distance between the data and Exponential(rate)."""
    # at large n this sets a run's memory peak, so the cdf overwrites the
    # sorted copy, one grid of i/n (i = 0..n) serves both sides and one
    # buffer holds both sides' differences
    cdf = np.sort(np.asarray(samples, dtype=float))
    n = cdf.size
    np.multiply(cdf, -rate, out=cdf)
    np.expm1(cdf, out=cdf)
    np.negative(cdf, out=cdf)
    grid = np.arange(0, n + 1, dtype=float)
    grid /= n
    gap = np.subtract(grid[1:], cdf)
    above = np.max(gap)
    np.subtract(cdf, grid[:-1], out=gap)
    return float(max(above, np.max(gap)))


def fit_exponential_mle(samples) -> FitResult:
    """Maximum-likelihood exponential rate: 1 / sample mean.

    The standard error is rate / sqrt(n) (exact Fisher information for the
    exponential family).
    """
    x = _as_sample_array(samples, 2)
    mean = float(np.mean(x))
    if mean <= 0:
        raise InsufficientDataError("sample mean is zero; rate undefined")
    rate = 1.0 / mean
    return FitResult(
        rate_hat=rate,
        std_error=rate / np.sqrt(x.size),
        n_samples=int(x.size),
        method="mle",
        goodness=ks_statistic_exponential(x, rate),
    )


def fit_exponential_histogram(h: Histogram) -> FitResult:
    """Weighted least squares of log(counts) on bin centers.

    Weights equal the counts (inverse variance of log of a Poisson count);
    the decay constant is the magnitude of the slope.
    """
    mask = np.asarray(h.counts) > 0
    if int(np.sum(mask)) < 3:
        raise InsufficientDataError("need at least 3 nonempty bins")
    t = h.centers[mask]
    c = np.asarray(h.counts, dtype=float)[mask]
    y = np.log(c)
    w = c
    sw = np.sum(w)
    t_bar = np.sum(w * t) / sw
    y_bar = np.sum(w * y) / sw
    sxx = np.sum(w * (t - t_bar) ** 2)
    if sxx <= 0:
        raise InsufficientDataError("bin centers are degenerate")
    slope = np.sum(w * (t - t_bar) * (y - y_bar)) / sxx
    resid = y - (y_bar + slope * (t - t_bar))
    dof = max(int(np.sum(mask)) - 2, 1)
    return FitResult(
        rate_hat=float(abs(slope)),
        std_error=float(1.0 / np.sqrt(sxx)),
        n_samples=int(np.sum(c)),
        method="histogram-lsq",
        goodness=float(np.sqrt(np.sum(w * resid**2) / dof)),
    )


def fit_cumulative_curve(times, n_curve_points: int = 256) -> FitResult:
    """Least-squares fit of the cumulative count pattern N(t) = A (1 - e^{-bt}).

    This is the form the per-detector count distributions take; the fitted
    b estimates the single-atom rate even though the stream mixes first and
    second photons.  `times` may come in any order: the fit sorts a copy,
    and the start values use only that copy, so the result does not depend
    on the input order.  A fit that does not converge raises InsufficientDataError.
    """
    x = _as_sample_array(times, 2)
    xs = np.sort(x)
    t_max = float(xs[-1])
    if t_max <= 0:
        raise InsufficientDataError("all times are zero")
    grid = np.linspace(0.0, t_max, n_curve_points)
    emp = np.searchsorted(xs, grid, side="right").astype(float)

    def model(t, amp, rate):
        return amp * -np.expm1(-rate * t)

    p0 = (float(x.size), 1.0 / float(np.mean(xs)))
    try:
        popt, pcov = curve_fit(model, grid, emp, p0=p0)
    except RuntimeError as exc:  # no convergence, common for a handful of samples
        raise InsufficientDataError(f"cumulative fit of {x.size} samples did not converge") from exc
    amp, rate = popt
    resid = emp - model(grid, *popt)
    return FitResult(
        rate_hat=float(rate),
        std_error=float(np.sqrt(pcov[1, 1])),
        n_samples=int(x.size),
        method="histogram-lsq",
        goodness=float(np.sqrt(np.mean(resid**2)) / max(amp, 1.0)),
    )


def ks_two_sample(a, b) -> KsTwoSampleResult:
    """Two-sample KS statistic with the asymptotic Kolmogorov p-value.

    Samples may be negative (e.g. signed coincidence time differences).
    """
    xa = np.sort(_as_sample_array(a, 1, nonnegative=False))
    xb = np.sort(_as_sample_array(b, 1, nonnegative=False))
    both = np.concatenate([xa, xb])
    cdf_a = np.searchsorted(xa, both, side="right") / xa.size
    cdf_b = np.searchsorted(xb, both, side="right") / xb.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    en = np.sqrt(xa.size * xb.size / (xa.size + xb.size))
    p = float(np.clip(kolmogorov(d * en), 0.0, 1.0))
    return KsTwoSampleResult(statistic=d, p_value=p)
