"""Rate estimators.

Oracles: closed-form MLE identities, self-consistency against the event
generator at the known rates, a direct expression of the one-sample KS
distance, and its whole-array form behind the pruned walk; ``np.mean``
over the contiguous sample behind the streamed sum.  The public fits
against the streamed cores the stages call on their sample sources.
"""

import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoatom import grids
from twoatom.errors import InsufficientDataError, InvalidParameterError
from twoatom.eventsim import CHUNK_MOLECULES, MODES, simulate_ensemble
from twoatom.inference import (
    KS_BUCKETS,
    FitResult,
    Histogram,
    _cumulative_sorted,
    _mle,
    _Walk,
    fit_cumulative_curve,
    fit_exponential_mle,
    ks_statistic_exponential,
)
from twoatom.kinetics import RateTriple
from twoatom.pipeline import ExperimentConfig

from oracles import concatenated_detector_streams, ks_statistic_whole_array

GAMMA = 1.0 / 1.6e-9
RATES = RateTriple.compatible(GAMMA)


def draws(n, seed, rate=GAMMA):
    rng = np.random.default_rng(seed)
    return rng.exponential(1.0 / rate, size=n)


def test_mle_of_constant_sample():
    fit = fit_exponential_mle([1.0, 1.0, 1.0])
    assert fit.rate_hat == 1.0
    assert fit.method == "mle"


def test_mle_error_paths():
    with pytest.raises(InsufficientDataError):
        fit_exponential_mle([])
    with pytest.raises(InsufficientDataError):
        fit_exponential_mle([1.0])
    with pytest.raises(InsufficientDataError):
        fit_exponential_mle([0.0, 0.0])
    with pytest.raises(InvalidParameterError):
        fit_exponential_mle([1.0, -1.0])


def test_mle_recovers_first_emission_rate():
    rec = simulate_ensemble(ExperimentConfig(n0=1_000_000, seed=404))
    fit = fit_exponential_mle(rec["t_f"])
    assert abs(fit.rate_hat - RATES.gamma_f) < 3 * fit.std_error
    assert fit.std_error == pytest.approx(fit.rate_hat / 1000.0, rel=1e-12)
    assert 0.0 <= fit.goodness < 0.01  # KS distance against the fitted law


@pytest.mark.parametrize("n", [1_000, 10_000, 100_000, 1_000_000])
def test_mle_consistency_with_sample_size(n):
    rec = simulate_ensemble(ExperimentConfig(n0=n, seed=500 + n))
    fit = fit_exponential_mle(rec["t_f"])
    assert abs(fit.rate_hat - RATES.gamma_f) < 4 * RATES.gamma_f / np.sqrt(n)


def test_mle_scale_invariance():
    x = draws(10_000, 1)
    base = fit_exponential_mle(x)
    # power-of-two rescaling is exact in floating point
    quarter = fit_exponential_mle(4.0 * x)
    assert quarter.rate_hat == base.rate_hat / 4.0
    other = fit_exponential_mle(3.7 * x)
    assert other.rate_hat == pytest.approx(base.rate_hat / 3.7, rel=1e-12)


def test_histogram_validation():
    with pytest.raises(InvalidParameterError):
        Histogram(edges=[0.0, 1.0], counts=[1, 2])
    with pytest.raises(InvalidParameterError):
        Histogram(edges=[0.0, 1.0, 0.5], counts=[1, 2])
    with pytest.raises(InvalidParameterError):
        Histogram(edges=[0.0, 1.0, 2.0], counts=[1, -2])


def test_cumulative_curve_fit_recovers_rate():
    x = draws(200_000, 9, rate=GAMMA)
    fit = fit_cumulative_curve(x)
    assert fit.rate_hat == pytest.approx(GAMMA, rel=5e-3)
    with pytest.raises(InsufficientDataError):
        fit_cumulative_curve([1.0])


@pytest.mark.parametrize("times", [[0.0, 5e-324], [1e-310, 2e-310]], ids=["mean-underflows", "no-covariance"])
def test_cumulative_fit_of_subnormal_times_is_left_out_with_no_warning(times):
    # the mean of [0, 5e-324] rounds to 0, and curve_fit cannot estimate
    # the covariance of [1e-310, 2e-310]: each fit is left out, with no
    # ZeroDivisionError or OptimizeWarning, also when warnings are errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InsufficientDataError):
            fit_cumulative_curve(times)


def _ks_exponential_reference(samples, rate):
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    cdf = -np.expm1(-rate * xs)
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(grid_hi - cdf), np.max(cdf - grid_lo)))


@pytest.mark.parametrize(
    "samples",
    [
        np.array([0.3e-9, 1.7e-9]),
        np.array([1.0, 1.0, 1.0, 2.0, 2.0, 0.5, 2.0, 1.0]),  # ties
        draws(1_001, 7),
        draws(100_003, 8),
        simulate_ensemble(ExperimentConfig(n0=50_001, seed=9))["t_s"],
    ],
    ids=["n2", "ties", "n1001", "n100003", "strided-field"],
)
def test_ks_statistic_is_bit_identical_to_the_direct_expression(samples):
    for rate in (1.0 / float(np.mean(samples)), GAMMA):
        assert ks_statistic_exponential(samples, rate) == _ks_exponential_reference(samples, rate)


@pytest.mark.parametrize("n", [2, 3, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 7])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rate_factor=st.floats(0.05, 20.0))
def test_blockwise_ks_is_bit_identical_to_the_whole_array(n, seed, rate_factor):
    # the pruned walk's buckets and passes against one grid of i/n over
    # the whole sorted sample, at rates far from the sample's own
    x = draws(n, seed)
    for rate in (1.0 / float(np.mean(x)), rate_factor * GAMMA):
        got = ks_statistic_exponential(x, rate)
        assert float.hex(got) == float.hex(ks_statistic_whole_array(x, rate))


def test_fit_result_validation():
    with pytest.raises(InvalidParameterError):
        FitResult(rate_hat=0.0, std_error=1.0, n_samples=10, method="mle", goodness=0.0)
    with pytest.raises(InvalidParameterError):
        FitResult(rate_hat=1.0, std_error=-1.0, n_samples=10, method="mle", goodness=0.0)


def _outcome(fit, *args):
    """What `fit(*args)` gives: its FitResult or float as exact bits, or the
    InsufficientDataError or warning it raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fit(*args)
    except (InsufficientDataError, Warning) as exc:
        return repr(exc)
    fields = dataclasses.astuple(result) if isinstance(result, FitResult) else (result,)
    return tuple(float.hex(v) if isinstance(v, float) else v for v in fields)


def _source(x):
    """The one-sample source of the contiguous array `x`, read-only, so that
    a core that wrote an item would raise."""
    x = np.array(x, dtype=float)
    x.setflags(write=False)
    return x.size, lambda lo, hi: (x[lo:hi],), lambda rows: [rows]


def _mle_core(x):
    (fit,) = _mle(*_source(x))
    if isinstance(fit, InsufficientDataError):
        raise fit
    return fit


def _ks_core(x, rate):
    return _Walk(*_source(x)).ks([rate])[0]


def _cumulative_core(x):
    return _cumulative_sorted(np.sort(x))


@settings(max_examples=15, deadline=None)
@given(
    n0=st.sampled_from([1, 2, CHUNK_MOLECULES - 1, CHUNK_MOLECULES, CHUNK_MOLECULES + 1, 3 * CHUNK_MOLECULES + 7]),
    seed=st.integers(0, 2**64 - 1),
    efficiency=st.floats(0.0, 1.0, exclude_min=True),
    mode=st.sampled_from(MODES),
)
def test_public_fits_leave_their_input_and_equal_the_in_place_cores(n0, seed, efficiency, mode):
    # the public fits read the strided fields of the records, a derived
    # sample and a stream as they are, read-only, and equal the cores the
    # stages call on a sample source and on a sorted stream
    records = simulate_ensemble(ExperimentConfig(n0=n0, seed=seed, detector_efficiency=efficiency, mode=mode))
    stream, _ = concatenated_detector_streams(records)
    records.setflags(write=False)
    for sample in (records["t_f"], records["t_s"], records["t_s"] - records["t_f"], stream):
        sample.setflags(write=False)
        rate = 1.0 / float(np.mean(sample)) if sample.size else GAMMA
        for public, core, args in ((fit_exponential_mle, _mle_core, ()),
                                   (fit_cumulative_curve, _cumulative_core, ()),
                                   (ks_statistic_exponential, _ks_core, (rate,))):
            if public is ks_statistic_exponential and not sample.size:
                assert public(sample, *args) == -np.inf  # the largest of no gaps
                continue
            want = _outcome(public, sample, *args)
            assert _outcome(core, sample, *args) == want, public.__name__


#: thread counts of the parallel sort and the fit cores' passes: one, two,
#: one that does not divide the sizes below, and one past the CPUs of a
#: small host
THREADS = (1, 2, 3, 7)


@settings(max_examples=40, deadline=None)
@given(
    # n = 2 and 3, n below the thread count, n around the cuts n * k //
    # threads (multiples of 2, 3 and 7), and n around the leaves of the
    # sums and the blocks of the passes
    n=st.sampled_from([2, 3, 4, 5, 6, 7, 8, 20, 21, 22, 41, 42, 43,
                       grids.SUM_LEAF // 7 - 1, grids.SUM_LEAF // 7 + 1, grids.SUM_LEAF // 3 + 1,
                       grids.SUM_LEAF // 2 + 1, grids.SUM_LEAF - 1, grids.SUM_LEAF, grids.SUM_LEAF + 1,
                       2**16 + 3, 4 * grids.SUM_LEAF + 3]),
    seed=st.integers(0, 2**32 - 1),
    tied=st.booleans(),
)
def test_parallel_sort_and_fit_cores_do_not_depend_on_the_thread_count(n, seed, tied):
    x = draws(n, seed)
    if tied:  # a few values, zero among them, many times each
        x = np.random.default_rng(seed).choice([0.0, 0.5e-9, 1.0e-9, 4.0e-9], size=n)
    want = np.sort(x).tobytes()
    rate = 1.0 / float(np.mean(x)) if np.mean(x) > 0 else GAMMA
    outcomes = set()
    for threads in THREADS:
        with mock.patch.object(grids, "thread_count", lambda: threads):
            y = x.copy()
            grids.sort_in_place(y)
            assert y.tobytes() == want, threads
            outcomes.add((_outcome(_mle_core, x), _outcome(_ks_core, x, rate),
                          _outcome(_cumulative_core, x)))
    assert len(outcomes) == 1


@settings(max_examples=80, deadline=None)
@given(
    n=st.one_of(st.integers(0, 3000), st.sampled_from([128, 129, 1000, 2**12 + 7])),
    leaf=st.sampled_from([128, 200, 1000, grids.SUM_LEAF]),
    seed=st.integers(0, 2**32 - 1),
    cuts=st.integers(0, 40),
)
@example(n=1000, leaf=128, seed=0, cuts=40)
def test_pairwise_sum_of_runs_in_any_order_has_the_leaf_sums_of_the_whole_array(n, leaf, seed, cuts):
    # runs of the items cut at random places and fed in a random order,
    # so that leaves straddle runs and their parts arrive in any order,
    # give each leaf sum of numpy's pairwise tree and its total, with their
    # bits: the items span many magnitudes, so that the order of the adds
    # shows in the bits
    rng = np.random.default_rng(seed)
    x = rng.exponential(size=n) * 10.0 ** rng.integers(-8, 9, n)
    bounds = sorted({0, n, *rng.integers(0, n + 1, cuts).tolist()})
    runs = list(zip(bounds, bounds[1:]))
    rng.shuffle(runs)
    tree = grids.PairwiseSum(n, leaf)
    for lo, hi in runs:
        tree.add(lo, x[lo:hi])
    assert tree.sums.tobytes() == np.array([np.add.reduce(x[part]) for part in tree.leaves]).tobytes()
    assert float.hex(tree.total()) == float.hex(float(np.add.reduce(x)))


#: sample sizes of the streamed MLE core: 2 and 3, around the leaves of the
#: pairwise sums (SUM_LEAF over 1, 2, 3 and 7 threads), around the buckets'
#: range and 16 times it (the walk's n / 16 buckets), and any size
MLE_SIZES = st.one_of(
    st.sampled_from([2, 3]),
    st.tuples(st.sampled_from([grids.SUM_LEAF // k for k in (1, 2, 3, 7)] + [2**10, 2**14, KS_BUCKETS, 16 * 2**10]),
              st.integers(-2, 2)).map(sum),
    st.integers(2, 300_000),
)


@settings(max_examples=60, deadline=None)
@given(
    n=MLE_SIZES,
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["exponential", "tied", "equal", "subnormal", "zeros", "gamma"]),
    rate_factor=st.one_of(st.floats(0.5, 2.0), st.sampled_from([float("nan"), float("inf")])),
    threads=st.sampled_from(THREADS),
)
@example(n=2, seed=0, kind="equal", rate_factor=1.0, threads=1)
@example(n=300_000, seed=1, kind="exponential", rate_factor=1.0, threads=7)
def test_streamed_mle_core_has_the_bits_of_the_whole_array_fit(n, seed, kind, rate_factor, threads):
    # the mean from the pairwise walk against np.mean of the contiguous
    # sample, and the pruned KS walk against one whole-array walk over the
    # sorted sample, at the fitted rate and at rates off by 0.5-2x or not
    # finite (NaN, as the whole-array walk gives)
    rng = np.random.default_rng(seed)
    x = {
        "exponential": lambda: rng.exponential(1.6e-9, n),
        "tied": lambda: rng.choice([0.0, 0.5e-9, 1.0e-9, 4.0e-9], n),
        "equal": lambda: np.full(n, 2.5e-9),
        "subnormal": lambda: rng.exponential(1.0, n) * 1e-310,
        "zeros": lambda: np.where(rng.random(n) < 0.5, 0.0, rng.exponential(1.6e-9, n)),
        "gamma": lambda: rng.gamma(0.3, 1.6e-9, n),
    }[kind]()
    with mock.patch.object(grids, "thread_count", lambda: threads):
        got = _outcome(_mle_core, x)
        mean = float(np.mean(x))
        if mean > 0 and 1.0 / mean < np.inf:
            assert got[0] == float.hex(1.0 / mean)
            assert got[4] == float.hex(ks_statistic_whole_array(x, 1.0 / mean))
        rate = rate_factor / mean if mean > 0 else rate_factor
        with np.errstate(all="ignore"):  # an infinite rate at a zero time
            want = ks_statistic_whole_array(x, rate)
            assert float.hex(_ks_core(x, rate)) == float.hex(want)


@pytest.mark.parametrize("samples", [[np.nan, 1.0, 2.0], [np.inf, 1.0], [1.0, -np.inf], [2.0, -1.0]],
                         ids=["nan", "inf", "minus-inf", "negative"])
def test_fits_refuse_non_finite_or_negative_times_with_no_warning(samples):
    # the MLE fit reads the least and greatest time off its walk, the
    # cumulative fit off the ends of its sorted copy: no other pass, and no
    # numpy warning before the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fit in (fit_exponential_mle, fit_cumulative_curve):
            with pytest.raises(InvalidParameterError, match="finite, nonnegative"):
                fit(samples)
