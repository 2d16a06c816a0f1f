"""Acceptance suite: the binding exit criteria, one test per criterion.

Each test prints a single PASS line when its criterion holds (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Seeds are fixed,
so every check is reproducible.
"""

import json
import os
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp, norm, poisson

from twoatom.amplitudes import (
    property_case_rate,
    first_emission_rate_ratio,
    receding_pair,
    second_emission_rate_ratio,
)
from twoatom.eventsim import simulate_ensemble
from twoatom.grids import SpatialGrid
from twoatom.inference import fit_exponential_mle
from twoatom.packets import make_packet
from twoatom.pairstate import ProductPair, make_two_atom_gaussian
from twoatom.pipeline import ExperimentConfig, run_experiment

import dataclasses

from oracles import (
    assign_detections,
    build_histogram,
    coincidence_differences,
    concatenated_detector_streams,
    second_count_fraction,
)

SEED = 20260810
GAMMA_INVERSE = 1.6e-9


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


@pytest.fixture(scope="module")
def million_run(tmp_path_factory):
    """The timed million-molecule sequential run shared by criteria 1-3."""
    out = tmp_path_factory.mktemp("accept")
    cfg = ExperimentConfig(
        gamma_inverse=GAMMA_INVERSE, n0=1_000_000, mode="sequential",
        seed=SEED, output_dir=str(out),
    )
    start = time.perf_counter()
    bundle = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    return cfg, bundle, elapsed


def test_criterion_1_rate_compatibility(million_run):
    """Fitted first/second/per-detector rates hit 2, 1, 1 within 1%."""
    cfg, bundle, elapsed = million_run
    g = cfg.rates.gamma
    first = bundle.fits["first"]["rate_hat"] / g
    second = bundle.fits["second_interval"]["rate_hat"] / g
    det1 = bundle.fits["detector_1"]["rate_hat"] / g
    det2 = bundle.fits["detector_2"]["rate_hat"] / g
    assert abs(first - 2.0) <= 0.01
    assert abs(second - 1.0) <= 0.01
    assert abs(det1 - 1.0) <= 0.01
    assert abs(det2 - 1.0) <= 0.01
    assert elapsed <= 30.0
    report(1, f"rates/gamma = ({first:.4f}, {second:.4f}, {det1:.4f}) in {elapsed:.1f}s")


def test_criterion_2_detector_symmetry(million_run):
    """Detector counts agree within 4 sqrt(n) over 10^6 molecules."""
    cfg, _, _ = million_run
    records = simulate_ensemble(cfg)
    det = assign_detections(records)
    n1 = int(np.sum(~np.isnan(det["t1"])))
    n2 = int(np.sum(~np.isnan(det["t2"])))
    bound = 4.0 * np.sqrt(n1 + n2)
    assert abs(n1 - n2) <= bound
    report(2, f"|N1 - N2| = {abs(n1 - n2)} <= {bound:.0f}")


def test_criterion_3_figure_reproduction(million_run):
    """Curve identity to 1e-12 and simulated histograms in Poisson bands."""
    cfg, _, _ = million_run
    rates = cfg.rates
    g = rates.gamma
    # analytic identity n_f + n_s = 2 n_i on a 400-point grid
    from twoatom.kinetics import detection_densities

    t = np.linspace(0.0, 8.0, 400)
    dimensionless = dataclasses.replace(rates, gamma=1.0, gamma_f=2.0, gamma_s=1.0)
    n_f, n_s, n_i = detection_densities(t, dimensionless)
    worst = np.max(np.abs(n_f + n_s - 2 * n_i))
    assert worst < 1e-12

    # simulated normalized histograms within per-bin Poisson bands at the
    # 4 sigma coverage level (exact quantiles; Gaussian +/-4 sqrt(mu) in
    # the well-populated bins)
    records = simulate_ensemble(cfg)
    d1, _ = concatenated_detector_streams(records)
    n0 = cfg.n0
    width = 0.1 / g
    edges_lo = np.arange(80) * width
    edges_hi = edges_lo + width

    def cdf_first(x):
        return -np.expm1(-rates.gamma_f * x)

    def cdf_second(x):
        return second_count_fraction(x, rates.gamma_f, rates.gamma_s)

    def cdf_single(x):
        return -np.expm1(-rates.gamma * x)

    tail = norm.sf(4.0)
    for samples, cdf in ((records["t_f"], cdf_first), (records["t_s"], cdf_second), (d1, cdf_single)):
        h = build_histogram(samples, width, (0.0, 8.0 / g))
        expected = n0 * (cdf(h.edges[1:]) - cdf(h.edges[:-1]))
        lo = poisson.ppf(tail, expected)
        hi = poisson.ppf(1.0 - tail, expected)
        assert np.all((h.counts >= lo) & (h.counts <= hi))
    report(3, f"identity residual {worst:.2e}; three histograms inside 4-sigma Poisson bands")


def test_criterion_4_disentanglement_signature():
    """Sequential(2G, G) and independent(G) are indistinguishable at n=1e5."""
    cfg_seq = ExperimentConfig(gamma_inverse=GAMMA_INVERSE, n0=100_000, mode="sequential", seed=SEED + 1)
    cfg_ind = ExperimentConfig(gamma_inverse=GAMMA_INVERSE, n0=100_000, mode="independent", seed=SEED + 2)
    seq = simulate_ensemble(cfg_seq)
    ind = simulate_ensemble(cfg_ind)
    det_seq = assign_detections(seq)
    det_ind = assign_detections(ind)
    tau_seq = coincidence_differences(det_seq)
    tau_ind = coincidence_differences(det_ind)
    p_values = [
        ks_2samp(seq["t_f"], ind["t_f"]).pvalue,
        ks_2samp(seq["t_s"] - seq["t_f"], ind["t_s"] - ind["t_f"]).pvalue,
        ks_2samp(tau_seq, tau_ind).pvalue,
    ]
    assert all(p > 0.01 for p in p_values)
    # the coincidence spectrum is two-sided exponential at the single-atom
    # rate: fit the magnitude
    g = cfg_seq.rates.gamma
    fit = fit_exponential_mle(np.abs(tau_seq))
    assert abs(fit.rate_hat / g - 1.0) <= 0.02
    report(4, f"KS p-values {['%.3f' % p for p in p_values]}, coincidence rate/gamma = {fit.rate_hat / g:.4f}")


@pytest.mark.parametrize("width_sum,width_diff", [(1.0, 2.0), (1.5, 1.5), (2.0, 1.0)])
def test_criterion_5_first_emission_engine(width_sum, width_diff):
    """Completeness 1 +/- 1e-6; ratio 2 +/- 1e-6 (identity), 1e-4 (free)."""
    grid = SpatialGrid.centered(8.0 * max(width_sum, width_diff), 512)
    state = make_two_atom_gaussian(width_sum, width_diff, grid)
    rep = first_emission_rate_ratio(state)
    assert abs(rep.completeness_sum - 1.0) <= 1e-6
    assert abs(rep.ratio - 2.0) <= 1e-6
    free = first_emission_rate_ratio(state, 10.0)
    assert abs(free.ratio - 2.0) <= 1e-4
    report(5, f"widths ({width_sum}, {width_diff}): ratio {rep.ratio:.8f}, free {free.ratio:.8f}")


def test_criterion_6_second_emission_engine():
    """Ratio 1 at 100-to-1 separation, 2 at zero, monotone in between."""
    sigma, dt = 1.0, 10.0
    far = second_emission_rate_ratio(receding_pair(100.0, dt, sigma), dt)
    assert abs(far.ratio - 1.0) <= 1e-4
    near = second_emission_rate_ratio(receding_pair(0.0, dt, sigma), dt)
    assert abs(near.ratio - 2.0) <= 1e-6
    seps = [0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]
    ratios = [second_emission_rate_ratio(receding_pair(s, dt, sigma), dt).ratio for s in seps]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    report(6, f"ratio(0) = {near.ratio:.8f}, ratio(100) = {far.ratio:.8f}, monotone sweep")


def test_criterion_7_property_case_studies():
    """Case-study ratios, plus both conventions for the non-entangled case."""
    grid = SpatialGrid.centered(16.0, 512)
    state = make_two_atom_gaussian(2.0, 1.0, grid)
    p2 = property_case_rate("prop2-nonsymmetrized", state)
    assert abs(p2.report.ratio - 1.0) <= 1e-6
    p3 = property_case_rate("prop3-entangled-final", state)
    assert abs(p3.report.ratio - 2.0) <= 1e-4
    p4 = property_case_rate("prop4-entangled-second", state)
    assert abs(p4.report.ratio - 2.0) <= 1e-4
    assert p4.report.ratio > 1.5  # demonstrates the rate is not the single-atom one

    # the non-entangled case carries no fixed target: both conventions are
    # reported together with the interference magnitude
    chi, xi = make_packet(-6.0, 0.0, 1.0), make_packet(6.0, 0.0, 1.0)
    pair = ProductPair(chi, xi, grid)
    full = property_case_rate("prop1-nonentangled", pair)
    family = [make_packet(c - 6.0, 0.0, 1.0) for c in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    restricted = property_case_rate(
        "prop1-nonentangled", pair, convention="restricted-subset", family=family
    )
    assert full.report.basis_convention == "ordered-grid-product"
    assert restricted.report.basis_convention == "restricted-subset"
    assert full.interference_magnitude >= 0.0
    assert restricted.interference_magnitude >= 0.0
    report(
        7,
        f"prop2 {p2.report.ratio:.8f}, prop3 {p3.report.ratio:.8f}, prop4 {p4.report.ratio:.8f}; "
        f"prop1 full {full.report.ratio:.6f} / restricted {restricted.report.ratio:.3e} "
        f"(interference {full.interference_magnitude:.2e} / {restricted.interference_magnitude:.2e})",
    )


@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
def test_criterion_8_singular_limit(eps):
    """|general formula - degenerate limit| <= C eps n0, first order in eps."""
    n0 = 1.0e6
    gf = 2.0 / GAMMA_INVERSE
    t = np.linspace(0.0, 20.0 / gf, 4001)
    general = n0 * second_count_fraction(t, gf, gf * (1 + eps))
    limit = n0 * (-np.expm1(-gf * t) - gf * t * np.exp(-gf * t))
    sup = float(np.max(np.abs(general - limit)))
    c_bound = 0.3  # series coefficient sup_t G^2 t^2 e^{-Gt}/2 = 2/e^2 ~ 0.271
    assert sup <= c_bound * eps * n0
    assert sup >= 0.2 * eps * n0
    report(8, f"eps = {eps:g}: sup|diff| = {sup / (eps * n0):.4f} * eps * n0 <= {c_bound}")


def test_criterion_9_determinism(tmp_path):
    """Identical config and seed give byte-identical events and report."""
    outputs = {}
    for label, workers in (("a", 1), ("b", 1), ("c", 4)):
        cfg = ExperimentConfig(
            gamma_inverse=GAMMA_INVERSE, n0=30_000, mode="sequential",
            seed=SEED + 9, workers=workers, output_dir=str(tmp_path / label),
        )
        run_experiment(cfg)
        with open(os.path.join(cfg.output_dir, "events.csv"), "rb") as fh:
            events = fh.read()
        with open(os.path.join(cfg.output_dir, "report.json")) as fh:
            doc = json.load(fh)
        doc.pop("generated_at")
        doc["config_echo"].pop("output_dir")
        doc["config_echo"].pop("workers")
        doc.pop("curve_tables")
        outputs[label] = (events, json.dumps(doc, sort_keys=True))
    assert outputs["a"][0] == outputs["b"][0] == outputs["c"][0]
    assert outputs["a"][1] == outputs["b"][1] == outputs["c"][1]
    report(9, "events.csv and report.json byte-identical across reruns and worker counts")
