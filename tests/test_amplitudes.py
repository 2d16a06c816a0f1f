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
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from twoatom import amplitudes
from twoatom.amplitudes import (
    CONVENTIONS,
    RateRatioReport,
    _pair_sums,
    property_case_rate,
    first_emission_amplitude,
    first_emission_rate_ratio,
    receding_pair,
    second_emission_amplitude,
    second_emission_rate_ratio,
)
from twoatom.errors import DomainTruncationError, InvalidCaseError, InvalidParameterError, InvalidStateError
from twoatom.grids import SpatialGrid
from twoatom.packets import make_packet, overlap, sample_packet
from twoatom.pairstate import ProductPair, TwoAtomState, make_two_atom_gaussian, propagate_kernel

from oracles import schmidt_ratio, two_channel_rate, two_channel_sums, whole_array_abs2

GRID = SpatialGrid.centered(16.0, 512)
STATE = make_two_atom_gaussian(2.0, 1.0, GRID)


def symmetrized_pair(a, b):
    """The pair state N (a(x) b(y) + b(x) a(y)) of two packets on GRID."""
    fa, fb = sample_packet(a, GRID.points), sample_packet(b, GRID.points)
    kernel = ProductPair(a, b, GRID).norm_coefficient * (np.outer(fa, fb) + np.outer(fb, fa))
    return TwoAtomState(GRID, kernel)


PAIR = symmetrized_pair(make_packet(-1.0, 0.4, 1.0), make_packet(1.5, 0.0, 0.8))


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
    chi = make_packet(-1.0, 0.0, 1.0)
    xi = make_packet(1.5, 0.0, 0.8)
    st = symmetrized_pair(chi, xi)
    o1 = make_packet(-0.5, 0.0, 1.2)
    o2 = make_packet(0.5, 0.0, 0.9)
    coeff = ProductPair(chi, xi, GRID).norm_coefficient
    expected = np.sqrt(2.0) * coeff * (
        overlap(o1, chi) * overlap(o2, xi) + overlap(o1, xi) * overlap(o2, chi)
    )
    assert first_emission_amplitude(st, o1, o2) == pytest.approx(expected, abs=1e-8)
    # full-basis ratio of the symmetrized pair is 2 as well
    rep = first_emission_rate_ratio(st)
    assert rep.ratio == pytest.approx(2.0, abs=1e-6)


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
    (ev,) = propagate_kernel((STATE.kernel,), GRID, dt)
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
    res = property_case_rate("prop1-nonentangled", ProductPair(chi, xi, GRID))
    # orthogonal pair: normalization 1/sqrt(2), interference |<chi|xi>|^2 ~ 0
    assert res.report.norm_coefficient_used == pytest.approx(2**-0.5, abs=1e-10)
    assert res.report.ratio == pytest.approx(2.0, abs=1e-6)
    assert res.interference_magnitude < 1e-10
    # identical pair: normalization 1/2, interference contributes fully
    res_id = property_case_rate("prop1-nonentangled", ProductPair(chi, chi, GRID))
    assert res_id.report.norm_coefficient_used == pytest.approx(0.5, abs=1e-10)
    assert res_id.report.ratio == pytest.approx(2.0, abs=1e-6)
    assert res_id.interference_magnitude == pytest.approx(1.0, abs=1e-6)


def test_prop1_restricted_family_breaks_the_relation():
    chi = make_packet(-6.0, 0.0, 1.0)
    xi = make_packet(6.0, 0.0, 1.0)
    fam = [make_packet(c - 6.0, 0.0, 1.0) for c in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    res = property_case_rate(
        "prop1-nonentangled", ProductPair(chi, xi, GRID), convention="restricted-subset", family=fam
    )
    assert abs(res.report.ratio - 2.0) > 0.5  # far from the complete-basis value
    assert res.report.completeness_sum < 0.5


def test_prop2_probability_weighted_channels():
    res = property_case_rate("prop2-nonsymmetrized", STATE)
    assert res.report.ratio == pytest.approx(1.0, abs=1e-6)
    assert res.interference_magnitude == 0.0
    # symmetric amplitude: equal channel probabilities, so their average is each one
    assert res.report.ratio == res.report.completeness_sum


def test_prop2_channel_follows_the_convention():
    # under a one-packet family f each channel keeps |<f f|Psi>|^2, the
    # probability that the final pair is (f, f); the full basis keeps 1
    f = make_packet(0.5, 0.0, 0.7)
    res = property_case_rate("prop2-nonsymmetrized", STATE, convention="restricted-subset", family=[f])
    ff = np.outer(sample_packet(f, GRID.points), sample_packet(f, GRID.points))
    ff /= np.sqrt(np.sum(whole_array_abs2(ff))) * GRID.spacing
    expected = abs(np.vdot(ff, STATE.kernel) * GRID.spacing**2) ** 2
    assert res.report.basis_convention == "restricted-subset"
    assert res.report.completeness_sum == pytest.approx(expected, rel=1e-9)
    assert res.report.ratio == pytest.approx(expected, rel=1e-9)
    assert res.report.ratio < 0.9
    with pytest.raises(InvalidParameterError):
        property_case_rate("prop2-nonsymmetrized", STATE, convention="restricted-subset")


def test_prop3_entangled_final_states():
    res = property_case_rate("prop3-entangled-final", STATE)
    assert res.report.ratio == pytest.approx(2.0, abs=1e-4)


def test_prop4_entangled_second_emission():
    res = property_case_rate("prop4-entangled-second", STATE)
    assert res.report.ratio == pytest.approx(2.0, abs=1e-4)
    assert res.interference_magnitude == pytest.approx(1.0, abs=1e-6)


def test_rate_calls_leave_the_state_kernel_untouched():
    # at dt = 0 the evolved channel is the state's own kernel, so an
    # in-place write anywhere downstream would corrupt the state
    state = make_two_atom_gaussian(2.0, 1.0, SpatialGrid.centered(16.0, 256))
    before = state.kernel.tobytes()
    family = [make_packet(c, 0.0, 1.0) for c in (-2.0, 0.0, 2.0)]
    for dt in (0.0, 1.5):
        first_emission_rate_ratio(state, dt)
        first_emission_rate_ratio(state, dt, convention="restricted-subset", family=family)
        for case in ("prop2-nonsymmetrized", "prop3-entangled-final", "prop4-entangled-second"):
            property_case_rate(case, state, dt=dt)
    assert state.kernel.tobytes() == before


def test_prop2_propagates_its_first_channel_alone(monkeypatch):
    # prop2 reads only C1's sum, so a flight evolves C1 alone; the ratio
    # keeps the bits it had when both channels were evolved, under both
    # conventions
    kernels = []

    def counted(channels, grid, dt):
        kernels.append(len(channels))
        return propagate_kernel(channels, grid, dt)

    monkeypatch.setattr(amplitudes, "propagate_kernel", counted)
    state = make_two_atom_gaussian(2.0, 1.0, SpatialGrid.centered(16.0, 256))
    full = property_case_rate("prop2-nonsymmetrized", state, dt=1.5)
    family = [make_packet(c, 0.0, 1.0) for c in (-1.0, 0.0, 1.0)]
    restricted = property_case_rate("prop2-nonsymmetrized", state, dt=1.5,
                                    convention="restricted-subset", family=family)
    assert kernels == [1, 1]
    assert full.report.ratio.hex() == "0x1.0000000000001p+0"
    assert restricted.report.ratio.hex() == "0x1.5ff6080226732p-1"


def test_property_case_validation():
    with pytest.raises(InvalidCaseError):
        property_case_rate("prop1-nonentangled", STATE)
    with pytest.raises(InvalidCaseError):
        property_case_rate("prop2-nonsymmetrized", (make_packet(0, 0, 1),) * 2)
    with pytest.raises(InvalidCaseError):
        property_case_rate("no-such-case", STATE)
    chi = make_packet(0.0, 0.0, 1.0)
    with pytest.raises(InvalidCaseError):
        property_case_rate("prop1-nonentangled", (chi, chi))  # not a ProductPair
    with pytest.raises(InvalidCaseError):
        ProductPair(chi, chi, None)  # no grid


def test_report_validation():
    with pytest.raises(InvalidParameterError):
        RateRatioReport(-1.0, 1.0, 0.5, "entangled-main", "ordered-grid-product")
    with pytest.raises(InvalidParameterError):
        RateRatioReport(2.0, 1.5, 0.5, "entangled-main", "ordered-grid-product")
    with pytest.raises(InvalidParameterError):
        RateRatioReport(2.0, 1.0, 0.5, "bogus", "ordered-grid-product")
    with pytest.raises(InvalidParameterError):
        first_emission_rate_ratio(STATE, -1.0)



#: grid sizes from 64 to 400 points: powers of two, their neighbours and others
SYMMETRIC_GRID_POINTS = st.sampled_from([64, 65, 128, 255, 256, 257, 320, 400]) | st.integers(64, 400)
SYMMETRIC_CASES = ("prop2-nonsymmetrized", "prop3-entangled-final", "prop4-entangled-second")


@settings(max_examples=25, deadline=None)
@given(
    n=SYMMETRIC_GRID_POINTS,
    width_sum=st.floats(0.5, 3.0),
    ratio=st.floats(0.5, 2.0),
    dt=st.floats(1e-3, 20.0),
    centers=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=7),
)
@example(n=64, width_sum=1.0, ratio=1.0, dt=1.0, centers=[1.0])
def test_symmetric_kernel_takes_one_channel_with_the_bits_of_two(n, width_sum, ratio, dt, centers):
    # the sampled correlated Gaussian equals its transpose bit for bit, so
    # both of its channels are the kernel itself, evolved, summed and
    # projected once; every sum and rate keeps the bits of the two-channel
    # path, Psi and Psi(y, x) each taken on its own.  Psi(y, x) is an array
    # of its own here, as in the propagation buffer at dt > 0: a product
    # with the transposed view, as BLAS takes it, may round its last bit
    # otherwise (restricted-subset at dt = 0, n = 64, one packet at 1.0)
    width_diff = ratio * width_sum
    grid = SpatialGrid.centered(8.0 * max(width_sum, width_diff), n)
    try:
        state = make_two_atom_gaussian(width_sum, width_diff, grid)
    except DomainTruncationError:
        reject()
    assert state.kernel.tobytes() == state.kernel.T.tobytes(order="C")
    assert state.exchange_symmetric
    c1, c2 = state.channels
    assert c1 is c2 is state.kernel
    swapped = np.ascontiguousarray(state.kernel.T)
    family = [make_packet(c, 0.0, width_sum) for c in centers]
    for flight in (0.0, dt):
        for convention in CONVENTIONS:
            want = two_channel_sums(state, swapped, flight, convention, family)
            got = _pair_sums(state, flight, convention, family)
            assert [x.hex() for x in got] == [x.hex() for x in want], (flight, convention)
            reports = [(None, first_emission_rate_ratio(state, flight, convention, family), None)]
            for case in SYMMETRIC_CASES:
                result = property_case_rate(case, state, flight, convention, family)
                reports.append((case, result.report, result.interference_magnitude))
            for case, report, interference in reports:
                ratio_, completeness, coeff, cross = two_channel_rate(state, swapped, case, flight, convention, family)
                assert report.ratio.hex() == ratio_.hex(), (case, flight, convention)
                assert report.completeness_sum.hex() == completeness.hex()
                assert report.norm_coefficient_used.hex() == coeff.hex()
                if interference is not None:
                    assert interference.hex() == cross.hex()


@pytest.mark.parametrize("flip, zeroed", [(1, False), (1 << 63, True)], ids=["last-bit", "sign-of-zero"])
def test_an_asymmetric_kernel_takes_two_channels(flip, zeroed):
    # one element below the diagonal that differs from its mirror in one
    # bit, even where == calls them equal (-0.0 == 0.0), makes C2 the
    # transposed view, and every sum that of the two-channel path on it
    grid = SpatialGrid.centered(16.0, 128)
    k = make_two_atom_gaussian(2.0, 1.0, grid).kernel.copy()
    if zeroed:
        k.real[-1, 1] = k.real[1, -1] = 0.0
        assert TwoAtomState(grid, k.copy()).exchange_symmetric
    k.real.view(np.uint64)[-1, 1] ^= np.uint64(flip)
    assert (k[-1, 1] == k[1, -1]) == zeroed
    state = TwoAtomState(grid, k)
    assert not state.exchange_symmetric
    c1, c2 = state.channels
    assert c1 is k and c2 is not c1 and c2.base is k and np.array_equal(c2, k.T)
    swap = complex(np.vdot(k, k.T) * grid.spacing**2)
    assert state.full_basis_sums[2].hex() == (2.0 * swap.real).hex()
    family = [make_packet(c, 0.0, 1.0) for c in (-1.0, 0.5)]
    for flight in (0.0, 1.5):
        for convention in CONVENTIONS:
            want = two_channel_sums(state, k.T, flight, convention, family)
            assert [x.hex() for x in _pair_sums(state, flight, convention, family)] == [x.hex() for x in want]
