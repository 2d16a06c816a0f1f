"""Matrix elements and rate ratios against independent oracles.

Oracles used here:

- the geometric Schmidt law for the correlated Gaussian fixes the
  amplitude onto the dominant Schmidt pair analytically (sqrt(2) lambda_0);
- one-dimensional closed-form Gaussian overlaps fix the amplitude of a
  product initial state without touching the 2D grid machinery;
- plug-in evaluation of the second-emission element at chosen overlaps;
- unitarity fixes every full-basis completeness sum at the initial norm.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoatom.amplitudes import (
    RateRatioReport,
    property_case_rate,
    first_emission_amplitude,
    first_emission_rate_ratio,
    receding_pair,
    second_emission_amplitude,
    second_emission_rate_ratio,
)
from twoatom.errors import InvalidCaseError, InvalidParameterError, InvalidStateError
from twoatom.grids import SpatialGrid
from twoatom.packets import make_packet, overlap
from twoatom.pairstate import make_two_atom_gaussian, schmidt_ratio, symmetrized_pair_state

GRID = SpatialGrid.centered(16.0, 512)
STATE = make_two_atom_gaussian(2.0, 1.0, GRID)
PAIR = symmetrized_pair_state(make_packet(-1.0, 0.4, 1.0), make_packet(1.5, 0.0, 0.8), GRID)


def test_amplitude_onto_dominant_schmidt_pair():
    # analytic: sqrt(2) * lambda_0 = sqrt(2) sqrt(1 - rho^2) = 4/3 here,
    # reached with the k = 0 Schmidt mode, a Gaussian of width 1/2
    rho = schmidt_ratio(2.0, 1.0)
    assert rho == pytest.approx(1.0 / 3.0, abs=1e-12)
    out = make_packet(0.0, 0.0, 0.5)
    amp = first_emission_amplitude(STATE, out, out)
    assert amp == pytest.approx(np.sqrt(2.0) * np.sqrt(1 - rho**2), abs=1e-6)
    assert amp == pytest.approx(4.0 / 3.0, abs=1e-6)


def test_amplitude_of_product_state_from_1d_overlaps():
    # separable initial state: the 2D element factorizes into two
    # closed-form 1D overlaps, sqrt(2) <o1|g> <o2|g>
    width = 1.5
    st = make_two_atom_gaussian(width, width, GRID)
    g = make_packet(0.0, 0.0, width / (2.0 * np.sqrt(2.0)))
    o1 = make_packet(0.4, 0.0, 0.8)
    o2 = make_packet(-0.3, 0.5, 0.6)
    expected = np.sqrt(2.0) * overlap(o1, g) * overlap(o2, g)
    assert first_emission_amplitude(st, o1, o2) == pytest.approx(expected, abs=1e-8)


def test_amplitude_of_symmetrized_pair_from_1d_overlaps():
    # sqrt(2) N (<o1|chi><o2|xi> + <o1|xi><o2|chi>), all factors closed form
    from twoatom.pairstate import symmetrized_pair_state, symmetrized_norm

    chi = make_packet(-1.0, 0.0, 1.0)
    xi = make_packet(1.5, 0.0, 0.8)
    st = symmetrized_pair_state(chi, xi, GRID)
    o1 = make_packet(-0.5, 0.0, 1.2)
    o2 = make_packet(0.5, 0.0, 0.9)
    coeff = symmetrized_norm((chi, xi))
    expected = np.sqrt(2.0) * coeff * (
        overlap(o1, chi) * overlap(o2, xi) + overlap(o1, xi) * overlap(o2, chi)
    )
    assert first_emission_amplitude(st, o1, o2) == pytest.approx(expected, abs=1e-8)
    # full-basis ratio of the symmetrized pair is 2 as well
    rep = first_emission_rate_ratio(st)
    assert rep.ratio == pytest.approx(2.0, abs=1e-6)


def test_unsymmetrized_pair_state_is_rejected():
    from twoatom.pairstate import symmetrized_pair_state

    bare = symmetrized_pair_state(make_packet(-1, 0, 1), make_packet(1, 0, 1), GRID, symmetrized=False)
    with pytest.raises(InvalidStateError):
        first_emission_rate_ratio(bare)


def test_amplitude_vanishes_for_disjoint_support():
    far = make_packet(12.0, 0.0, 0.5)
    amp = first_emission_amplitude(STATE, far, far)
    assert abs(amp) < 1e-12


def test_amplitude_exchange_symmetry_is_exact():
    o1 = make_packet(0.7, 0.3, 0.9)
    o2 = make_packet(-0.2, -0.6, 1.1)
    assert first_emission_amplitude(STATE, o1, o2) == first_emission_amplitude(STATE, o2, o1)


OUT_PACKETS = st.builds(
    make_packet, st.floats(-4.0, 4.0), st.floats(-2.0, 2.0), st.floats(0.3, 2.0)
)
SEEDS = st.integers(0, 2**32 - 1)


def unit_array(seed):
    """A random complex function on GRID with unit norm."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(GRID.n_points) + 1j * rng.standard_normal(GRID.n_points)
    return f / np.sqrt(np.sum(np.abs(f) ** 2) * GRID.spacing)


@settings(max_examples=40, deadline=None)
@given(
    state=st.sampled_from(["correlated", "pair"]),
    outs=st.tuples(OUT_PACKETS, OUT_PACKETS) | st.tuples(SEEDS, SEEDS),
    dt=st.sampled_from([0.0, 1.5]),
)
def test_amplitude_exchange_symmetry_holds_bit_for_bit(state, outs, dt):
    psi0 = {"correlated": STATE, "pair": PAIR}[state]
    # a seed stands for a sampled unit-norm final state
    o1, o2 = (unit_array(o) if isinstance(o, int) else o for o in outs)
    assert first_emission_amplitude(psi0, o1, o2, dt) == first_emission_amplitude(psi0, o2, o1, dt)


def test_amplitude_rejects_unnormalized_grid_function():
    f = np.ones(GRID.n_points)
    with pytest.raises(InvalidStateError):
        first_emission_amplitude(STATE, f, f)


@pytest.mark.parametrize("width_sum,width_diff", [(1.0, 2.0), (1.5, 1.5), (2.0, 1.0)])
def test_first_emission_ratio_is_two(width_sum, width_diff):
    grid = SpatialGrid.centered(8.0 * max(width_sum, width_diff), 512)
    st = make_two_atom_gaussian(width_sum, width_diff, grid)
    rep = first_emission_rate_ratio(st)
    assert abs(rep.ratio - 2.0) < 1e-6
    assert abs(rep.completeness_sum - 1.0) < 1e-6
    assert rep.norm_coefficient_used == pytest.approx(0.5, abs=1e-10)
    free = first_emission_rate_ratio(st, 2.0)
    assert abs(free.ratio - 2.0) < 1e-4
    # unitary invariance: free propagation does not change the ratio
    assert free.ratio == pytest.approx(rep.ratio, abs=1e-9)


def test_completeness_equals_evolved_norm():
    # independent norm computation of the spectrally evolved kernel
    from twoatom.pairstate import propagate_kernel

    dt = 1.7
    rep = first_emission_rate_ratio(STATE, dt)
    ev = propagate_kernel(STATE.kernel, GRID, dt)
    norm2 = float(np.sum(np.abs(ev) ** 2)) * GRID.spacing**2
    assert rep.completeness_sum == pytest.approx(norm2, abs=1e-6)


def test_restricted_family_recovers_full_answer_when_complete_enough():
    # the Schmidt modes decay geometrically, so a family of low-order
    # Gaussians around the origin captures nearly all of the state
    fam = [make_packet(c, 0.0, 0.7) for c in np.linspace(-3.0, 3.0, 9)]
    rep = first_emission_rate_ratio(STATE, convention="restricted-subset", family=fam)
    assert rep.basis_convention == "restricted-subset"
    assert rep.completeness_sum <= 1.0 + 1e-9
    assert rep.ratio == pytest.approx(2.0, abs=0.02)


def test_restricted_needs_family():
    with pytest.raises(InvalidParameterError):
        first_emission_rate_ratio(STATE, convention="restricted-subset")


def test_second_emission_amplitude_plugin_values():
    # zero overlap -> exactly 1 (single-atom rate)
    a = make_packet(0.0, 0.0, 1.0)
    b_far = make_packet(200.0, 0.0, 1.0)
    assert second_emission_amplitude(a, b_far) == pytest.approx(1.0, abs=1e-12)
    # identical packets -> sqrt(2) (rate doubled)
    assert second_emission_amplitude(a, a) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    # |overlap| = 1/2 -> sqrt(2) (2 + 1/2)^(-1/2) (5/4) = sqrt(5)/2
    d = np.sqrt(8.0 * np.log(2.0))
    b_half = make_packet(d, 0.0, 1.0)
    assert abs(overlap(a, b_half)) == pytest.approx(0.5, abs=1e-12)
    assert second_emission_amplitude(a, b_half) == pytest.approx(np.sqrt(1.25), abs=1e-12)


def test_second_emission_ratio_is_one_plus_overlap_squared():
    # strictly increasing from 1 to 2 in |overlap|^2
    a = make_packet(0.0, 0.0, 1.0)
    ratios = []
    for d in [np.inf, 4.0, 2.0, 1.0, 0.0]:
        b = make_packet(0.0 if d == np.inf else d, 0.0, 1.0)
        if d == np.inf:
            b = make_packet(1e4, 0.0, 1.0)
        u2 = abs(overlap(a, b)) ** 2
        amp = second_emission_amplitude(a, b)
        assert abs(amp) ** 2 == pytest.approx(1.0 + u2, rel=1e-12)
        ratios.append(abs(amp) ** 2)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[0] == pytest.approx(1.0, abs=1e-9)
    assert ratios[-1] == pytest.approx(2.0, abs=1e-12)


def test_second_emission_separation_sweep():
    sigma, dt = 1.0, 10.0
    # packets receding to 100 length units: single-atom rate recovered
    far = second_emission_rate_ratio(receding_pair(100.0, dt, sigma), dt)
    assert far.ratio == pytest.approx(1.0, abs=1e-6)
    # coincident packets at dt = 0: rate doubled
    near = second_emission_rate_ratio(receding_pair(0.0, 0.0, sigma), 0.0)
    assert near.ratio == pytest.approx(2.0, abs=1e-12)
    # monotone decrease with separation
    seps = [0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]
    ratios = [second_emission_rate_ratio(receding_pair(s, dt, sigma), dt).ratio for s in seps]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[0] == pytest.approx(2.0, abs=1e-12)


def test_second_emission_with_recoil_still_decays():
    sigma, dt, k = 1.0, 10.0, 0.5
    near = second_emission_rate_ratio(receding_pair(0.0, dt, sigma), dt, recoil_k=k)
    far = second_emission_rate_ratio(receding_pair(100.0, dt, sigma), dt, recoil_k=k)
    assert far.ratio < near.ratio
    assert far.ratio == pytest.approx(1.0, abs=1e-4)


def test_prop1_full_basis_collapses_interference():
    chi = make_packet(-6.0, 0.0, 1.0)
    xi = make_packet(6.0, 0.0, 1.0)
    res = property_case_rate("prop1-nonentangled", (chi, xi), grid=GRID)
    # orthogonal pair: normalization 1/sqrt(2), interference |<chi|xi>|^2 ~ 0
    assert res.report.norm_coefficient_used == pytest.approx(2**-0.5, abs=1e-10)
    assert res.report.ratio == pytest.approx(2.0, abs=1e-6)
    assert res.interference_magnitude < 1e-10
    # identical pair: normalization 1/2, interference contributes fully
    res_id = property_case_rate("prop1-nonentangled", (chi, chi), grid=GRID)
    assert res_id.report.norm_coefficient_used == pytest.approx(0.5, abs=1e-10)
    assert res_id.report.ratio == pytest.approx(2.0, abs=1e-6)
    assert res_id.interference_magnitude == pytest.approx(1.0, abs=1e-6)


def test_prop1_restricted_family_breaks_the_relation():
    chi = make_packet(-6.0, 0.0, 1.0)
    xi = make_packet(6.0, 0.0, 1.0)
    fam = [make_packet(c - 6.0, 0.0, 1.0) for c in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    res = property_case_rate(
        "prop1-nonentangled", (chi, xi), convention="restricted-subset", grid=GRID, family=fam
    )
    assert abs(res.report.ratio - 2.0) > 0.5  # far from the complete-basis value
    assert res.report.completeness_sum < 0.5


def test_prop2_probability_weighted_channels():
    res = property_case_rate("prop2-nonsymmetrized", STATE)
    assert res.report.ratio == pytest.approx(1.0, abs=1e-6)
    assert res.interference_magnitude == 0.0
    ch1, ch2 = res.channel_probabilities
    assert ch1 == ch2  # symmetric amplitude: equal channel probabilities


def test_prop3_entangled_final_states():
    res = property_case_rate("prop3-entangled-final", STATE)
    assert res.report.ratio == pytest.approx(2.0, abs=1e-4)


def test_prop4_entangled_second_emission():
    res = property_case_rate("prop4-entangled-second", STATE)
    assert res.report.ratio == pytest.approx(2.0, abs=1e-4)
    assert res.interference_magnitude == pytest.approx(1.0, abs=1e-6)


def test_property_case_validation():
    with pytest.raises(InvalidCaseError):
        property_case_rate("prop1-nonentangled", STATE, grid=GRID)
    with pytest.raises(InvalidCaseError):
        property_case_rate("prop2-nonsymmetrized", (make_packet(0, 0, 1),) * 2)
    with pytest.raises(InvalidCaseError):
        property_case_rate("no-such-case", STATE)
    chi = make_packet(0.0, 0.0, 1.0)
    with pytest.raises(InvalidCaseError):
        property_case_rate("prop1-nonentangled", (chi, chi))  # no grid


def test_report_validation():
    with pytest.raises(InvalidParameterError):
        RateRatioReport(-1.0, 1.0, 0.5, "entangled-main", "ordered-grid-product")
    with pytest.raises(InvalidParameterError):
        RateRatioReport(2.0, 1.5, 0.5, "entangled-main", "ordered-grid-product")
    with pytest.raises(InvalidParameterError):
        RateRatioReport(2.0, 1.0, 0.5, "bogus", "ordered-grid-product")
    with pytest.raises(InvalidParameterError):
        first_emission_rate_ratio(STATE, -1.0)
