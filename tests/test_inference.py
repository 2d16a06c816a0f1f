"""Rate estimators.

Oracles: closed-form MLE identities, self-consistency against the event
generator at the known rates, a direct expression of the one-sample KS
distance, and its whole-array form behind the blockwise walk.  The public
fits against the in-place cores the stages call on samples they own.
"""

import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoatom import grids
from twoatom.errors import InsufficientDataError, InvalidParameterError
from twoatom.eventsim import CHUNK_MOLECULES, MODES, detector_streams, simulate_ensemble
from twoatom.inference import (
    KS_BLOCK,
    FitResult,
    Histogram,
    _cumulative_in_place,
    _ks_in_place,
    _mle_in_place,
    _sort_in_place,
    fit_cumulative_curve,
    fit_exponential_mle,
    ks_statistic_exponential,
)
from twoatom.kinetics import RateTriple
from twoatom.pipeline import ExperimentConfig

from oracles import ks_statistic_whole_array

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


@pytest.mark.parametrize("n", [2, 3, KS_BLOCK - 1, KS_BLOCK, KS_BLOCK + 1, 3 * KS_BLOCK + 7])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rate_factor=st.floats(0.05, 20.0))
def test_blockwise_ks_is_bit_identical_to_the_whole_array(n, seed, rate_factor):
    # the last block, full or partial, and the block boundaries against
    # one grid of i/n over the whole sorted sample
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


@settings(max_examples=15, deadline=None)
@given(
    n0=st.sampled_from([1, 2, CHUNK_MOLECULES - 1, CHUNK_MOLECULES, CHUNK_MOLECULES + 1, 3 * CHUNK_MOLECULES + 7]),
    seed=st.integers(0, 2**64 - 1),
    efficiency=st.floats(0.0, 1.0, exclude_min=True),
    mode=st.sampled_from(MODES),
)
def test_public_fits_leave_their_input_and_equal_the_in_place_cores(n0, seed, efficiency, mode):
    records = simulate_ensemble(ExperimentConfig(n0=n0, seed=seed, detector_efficiency=efficiency, mode=mode))
    stream, _ = detector_streams(records)
    before = records.tobytes()
    # the strided fields of the records, a derived sample and a stream
    for sample in (records["t_f"], records["t_s"], records["t_s"] - records["t_f"], stream):
        copy = np.ascontiguousarray(sample)  # the sample itself when it is contiguous
        kept = copy.tobytes()
        rate = 1.0 / float(np.mean(copy)) if copy.size else GAMMA
        for public, core, args in ((fit_exponential_mle, _mle_in_place, ()),
                                   (fit_cumulative_curve, _cumulative_in_place, ()),
                                   (ks_statistic_exponential, _ks_in_place, (rate,))):
            want = _outcome(public, sample, *args)
            assert _outcome(public, copy, *args) == want, public.__name__
            assert records.tobytes() == before and copy.tobytes() == kept, public.__name__
            assert _outcome(core, np.array(sample), *args) == want, core.__name__


#: thread counts of the parallel sort and KS walk: one, two, one that
#: does not divide the sizes below, and one past the CPUs of a small host
THREADS = (1, 2, 3, 7)


@settings(max_examples=40, deadline=None)
@given(
    # n = 2 and 3, n below the thread count, n around the cuts n * k //
    # threads (multiples of 2, 3 and 7), and n around the KS blocks of
    # KS_BLOCK // threads samples and around KS_BLOCK
    n=st.sampled_from([2, 3, 4, 5, 6, 7, 8, 20, 21, 22, 41, 42, 43,
                       KS_BLOCK // 7 - 1, KS_BLOCK // 7 + 1, KS_BLOCK // 3 + 1, KS_BLOCK // 2 + 1,
                       KS_BLOCK - 1, KS_BLOCK, KS_BLOCK + 1, 2 * KS_BLOCK + 3]),
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
            _sort_in_place(y)
            assert y.tobytes() == want, threads
            outcomes.add((_outcome(_mle_in_place, x.copy()), _outcome(_ks_in_place, x.copy(), rate),
                          _outcome(_cumulative_in_place, x.copy())))
    assert len(outcomes) == 1
