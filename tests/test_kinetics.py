"""Closed-form count and density curves.

Independent oracles: saturation and t = 0 limits are forced analytically;
the degenerate-rate limit is checked by series expansion (the exact
first-order coefficient is sup_t G^2 t^2 e^{-Gt} / 2 = 2/e^2), and both
second-photon curves are pinned continuous across the switch to it; the
densities are checked against 50-digit mpmath; the density peak position
is found numerically; the coincidence closed form is checked against a
Monte Carlo histogram.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from twoatom.errors import InvalidParameterError
from twoatom.kinetics import (
    DEGENERATE_SWITCH,
    RateTriple,
    detection_densities,
)

from oracles import coincidence_density, cumulative_counts, second_count_fraction

GAMMA = 1.0 / 1.6e-9
RATES = RateTriple.compatible(GAMMA)
N0 = 1e6


def test_rates_must_be_positive():
    with pytest.raises(InvalidParameterError):
        RateTriple(0.0, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        RateTriple(1.0, -1.0, 1.0)


def test_counts_start_at_zero():
    snap = cumulative_counts(0.0, RATES, N0)
    assert snap.n_first == 0.0
    assert snap.n_second == 0.0
    assert snap.n_total == 0.0


def test_counts_saturate():
    snap = cumulative_counts(50.0 / GAMMA, RATES, N0)
    assert snap.n_first == pytest.approx(N0, abs=1e-12 * N0)
    assert snap.n_second == pytest.approx(N0, abs=1e-12 * N0)


def test_negative_time_rejected():
    with pytest.raises(InvalidParameterError):
        cumulative_counts(-1.0, RATES, N0)
    with pytest.raises(InvalidParameterError):
        detection_densities(-1e-12, RATES)
    with pytest.raises(InvalidParameterError):
        cumulative_counts(1.0, RATES, 0.0)


def test_count_identities_and_monotonicity():
    t = np.linspace(0.0, 8.0 / GAMMA, 200)
    snaps = [cumulative_counts(ti, RATES, N0) for ti in t]
    n_f = np.array([s.n_first for s in snaps])
    n_s = np.array([s.n_second for s in snaps])
    n = np.array([s.n_total for s in snaps])
    n_i = np.array([s.n_per_detector for s in snaps])
    assert np.allclose(n, n_f + n_s, rtol=0, atol=1e-9 * N0)
    assert np.allclose(n_i, n / 2.0, rtol=0, atol=0)
    assert np.all(np.diff(n_f) >= 0) and np.all(np.diff(n_s) >= 0)
    assert np.all(n_f >= n_s)
    assert np.all(n_s >= -1e-12) and np.all(n_f <= N0 * (1 + 1e-12))


def test_compatibility_collapses_total_counts():
    # with first rate 2G and second rate G the total is 2 n0 (1 - e^{-Gt})
    t = np.linspace(0.0, 8.0 / GAMMA, 500)
    total = N0 * (-np.expm1(-2 * GAMMA * t)) + N0 * second_count_fraction(
        t, RATES.gamma_f, RATES.gamma_s
    )
    expected = 2 * N0 * -np.expm1(-GAMMA * t)
    assert np.max(np.abs(total - expected)) < 1e-12 * N0


def test_equal_rate_limit_formula():
    g = GAMMA
    t = np.linspace(0.0, 10.0 / g, 300)
    limit = -np.expm1(-g * t) - g * t * np.exp(-g * t)
    for eps in (1e-10, -1e-10):
        got = second_count_fraction(t, g, g * (1 + eps))
        assert np.max(np.abs(got - limit)) < 1e-8


@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
def test_first_order_convergence_to_limit(eps):
    # series: difference = eps * n0 * G^2 t^2 e^{-Gt} / 2 + O(eps^2),
    # whose supremum over t is (2/e^2) eps n0 ~ 0.2707 eps n0
    g = RATES.gamma_f
    t = np.linspace(0.0, 20.0 / g, 4001)
    eq3 = N0 * second_count_fraction(t, g, g * (1 + eps))
    limit = N0 * (-np.expm1(-g * t) - g * t * np.exp(-g * t))
    sup = np.max(np.abs(eq3 - limit))
    assert sup <= 0.3 * eps * N0
    assert sup >= 0.2 * eps * N0  # first order really present


@settings(max_examples=300, deadline=None)
@given(
    gamma_f=st.floats(1e-6, 1e12),
    x=st.floats(0.0, 60.0),
    side=st.sampled_from([1.0, -1.0]),
)
def test_second_curves_are_continuous_across_the_degenerate_switch(gamma_f, x, side):
    # G_s just inside the switch takes the analytic limit, just outside it
    # the general formula; N_s and n_s must agree across the seam
    inside, outside = (gamma_f * (1.0 + side * DEGENERATE_SWITCH * (1.0 + f)) for f in (-1e-3, 1e-3))
    assert abs(inside - gamma_f) / gamma_f < DEGENERATE_SWITCH <= abs(outside - gamma_f) / gamma_f
    t = x / gamma_f
    jump = second_count_fraction(t, gamma_f, inside) - second_count_fraction(t, gamma_f, outside)
    assert abs(jump) < 1e-8
    n_s_in = detection_densities(t, RateTriple(gamma_f / 2.0, gamma_f, inside))[1]
    n_s_out = detection_densities(t, RateTriple(gamma_f / 2.0, gamma_f, outside))[1]
    assert abs(n_s_in - n_s_out) / gamma_f < 1e-8


@settings(max_examples=300, deadline=None)
@given(
    ratio=st.floats(1e-6, 1e6) | st.floats(1.0 - 1e-8, 1.0 + 1e-8),
    gamma_s=st.floats(0.1, 10.0),
    t=st.floats(0.0, 8.0),
)
# exp(-G_f t) is subnormal, and 0, where n_s is a normal float
@example(ratio=90.0, gamma_s=1.0, t=7.98)
@example(ratio=1e6, gamma_s=1.0, t=8.0)
# (G_s - G_f) t below the normal range
@example(ratio=1.0000000031807303, gamma_s=1.0, t=4.8e-302)
def test_densities_match_mpmath(ratio, gamma_s, t):
    # fig1's densities at G = 1 over its 8 lifetimes, within a few ulps of
    # 50-digit values scaled by their condition number 1 + (G_f + G_s) t,
    # since each exponential's argument is rounded; a density below the
    # normal range may be off by at most the smallest normal float.  The
    # near-degenerate n_s is the limit the code takes
    gamma_f = ratio * gamma_s
    got = [float(x) for x in detection_densities(t, RateTriple(1.0, gamma_f, gamma_s))]
    mpmath.mp.dps = 50
    tt, g_f, g_s = mpmath.mpf(t), mpmath.mpf(gamma_f), mpmath.mpf(gamma_s)
    if abs(gamma_s - gamma_f) / gamma_f < DEGENERATE_SWITCH:
        n_s = g_f * g_f * tt * mpmath.exp(-g_f * tt)
    else:
        n_s = g_f * g_s / (g_s - g_f) * mpmath.exp(-g_f * tt) * -mpmath.expm1(-(g_s - g_f) * tt)
    want = [float(v) for v in (g_f * mpmath.exp(-g_f * tt), n_s, mpmath.exp(-tt))]
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    for value, exact in zip(got, want):
        if exact < tiny:
            assert abs(value - exact) <= tiny, (value, exact)
        else:
            assert abs(value - exact) <= 4 * eps * (1.0 + (gamma_f + gamma_s) * t) * exact, (value, exact)


def test_density_values_at_zero():
    n_f, n_s, n_i = detection_densities(0.0, RATES)
    assert n_f == pytest.approx(2 * GAMMA, rel=1e-12)
    assert n_s == pytest.approx(0.0, abs=1e-12)
    assert n_i == pytest.approx(GAMMA, rel=1e-12)


def test_density_sum_identity_on_grid():
    # n_f + n_s = 2 n_i under the compatibility conditions; checked in
    # dimensionless units on a 1000-point grid
    rates = RateTriple.compatible(1.0)
    t = np.linspace(0.0, 8.0, 1000)
    n_f, n_s, n_i = detection_densities(t, rates)
    assert np.max(np.abs(n_f + n_s - 2 * n_i)) < 1e-12


def test_second_density_peaks_at_log_two():
    # calculus oracle: maximize the closed form numerically
    rates = RateTriple.compatible(1.0)
    res = minimize_scalar(
        lambda t: -detection_densities(t, rates)[1], bounds=(0.01, 5.0), method="bounded",
        options={"xatol": 1e-12},
    )
    assert res.x == pytest.approx(np.log(2.0), abs=1e-8)


def test_density_is_derivative_of_counts():
    # central finite differences of the cumulative curves at 100 points;
    # h balances O(h^2) truncation against float cancellation in the tail
    rates = RateTriple.compatible(1.0)
    t = np.linspace(0.05, 8.0, 100)
    h = 1e-4
    for ti in t:
        up = cumulative_counts(ti + h, rates, 1.0)
        dn = cumulative_counts(ti - h, rates, 1.0)
        n_f, n_s, n_i = detection_densities(ti, rates)
        assert (up.n_first - dn.n_first) / (2 * h) == pytest.approx(n_f, rel=1e-6)
        assert (up.n_second - dn.n_second) / (2 * h) == pytest.approx(n_s, rel=1e-6)
        assert (up.n_per_detector - dn.n_per_detector) / (2 * h) == pytest.approx(n_i, rel=1e-6)


def test_coincidence_density_properties():
    rates = RateTriple.compatible(1.0)
    tau = np.linspace(-5.0, 5.0, 101)
    d = coincidence_density(tau, rates)
    assert np.allclose(d, coincidence_density(-tau, rates), atol=0)  # symmetric
    assert coincidence_density(0.0, rates) == pytest.approx(rates.gamma_s / 2.0, rel=1e-12)
    total, err = quad(lambda x: coincidence_density(x, rates), -40.0, 40.0, limit=200)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_coincidence_closed_form_against_monte_carlo():
    # mandatory Monte Carlo oracle for the derived two-sided exponential:
    # (a) the full tau histogram of 10^6 simulated molecules sits inside
    # exact Poisson bands of the closed-form bin masses; (b) the peak value
    # gamma_s/2 is recovered to 1% through the fitted magnitude rate
    from scipy.stats import norm, poisson

    from twoatom.eventsim import simulate_ensemble
    from twoatom.pipeline import ExperimentConfig
    from oracles import assign_detections, build_histogram, coincidence_differences
    from twoatom.inference import fit_exponential_mle

    cfg = ExperimentConfig(n0=1_000_000, seed=777)
    det = assign_detections(simulate_ensemble(cfg))
    tau = coincidence_differences(det)
    gs = RATES.gamma_s

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 0.5 * np.exp(gs * x), 1.0 - 0.5 * np.exp(-gs * x))

    width = 0.1 / gs
    h = build_histogram(tau, width, (-4.0 / gs, 4.0 / gs))
    expected = tau.size * (cdf(h.edges[1:]) - cdf(h.edges[:-1]))
    tail_p = norm.sf(4.0)
    assert np.all(h.counts >= poisson.ppf(tail_p, expected))
    assert np.all(h.counts <= poisson.ppf(1.0 - tail_p, expected))

    peak_mc = 0.5 * fit_exponential_mle(np.abs(tau)).rate_hat
    peak_closed = coincidence_density(0.0, RATES)
    assert abs(peak_mc - peak_closed) <= 0.01 * peak_closed
