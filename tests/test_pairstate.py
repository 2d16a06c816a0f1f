"""Two-particle state construction, symmetry, Schmidt spectra, evolution.

The Schmidt oracle is the analytic geometric law for a correlated Gaussian
(Mehler kernel): lambda_k = sqrt(1 - rho^2) rho^k with rho determined by
the width ratio; the SVD of the discretized kernel must reproduce it.
"""

import numpy as np
import pytest

from twoatom.errors import (
    DomainTruncationError,
    InvalidParameterError,
    NumericalDegeneracyError,
)
from twoatom.grids import SpatialGrid
from twoatom.packets import evolve_free, make_packet, sample_packet
from twoatom.pairstate import (
    TwoAtomState,
    make_two_atom_gaussian,
    propagate_kernel,
    schmidt_ratio,
    schmidt_spectrum,
    swap_overlap,
    symmetrized_norm,
    symmetrized_pair_state,
)

GRID = SpatialGrid.centered(16.0, 512)


def mehler_spectrum(width_sum, width_diff, n):
    rho = schmidt_ratio(width_sum, width_diff)
    return np.sqrt(1.0 - rho**2) * rho ** np.arange(n)


def test_rejects_nonpositive_widths():
    with pytest.raises(InvalidParameterError):
        make_two_atom_gaussian(0.0, 1.0, GRID)
    with pytest.raises(InvalidParameterError):
        make_two_atom_gaussian(1.0, -2.0, GRID)


def test_grid_too_small_raises_truncation():
    tiny = SpatialGrid.centered(2.0, 64)
    with pytest.raises(DomainTruncationError):
        make_two_atom_gaussian(4.0, 1.0, tiny)


def test_kernel_is_unit_normalized_and_bitwise_symmetric():
    st = make_two_atom_gaussian(2.0, 1.0, GRID)
    mass = np.sum(np.abs(st.kernel) ** 2) * GRID.spacing**2
    assert mass == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(st.kernel, st.kernel.T)  # exact swap symmetry


def test_norm_coefficient_is_half_for_symmetric_state():
    st = make_two_atom_gaussian(2.0, 1.0, GRID)
    assert st.norm_coefficient == pytest.approx(0.5, abs=1e-12)
    assert swap_overlap(st).real == pytest.approx(1.0, abs=1e-10)


def test_separable_iff_equal_widths():
    st = make_two_atom_gaussian(1.5, 1.5, GRID)
    lam = schmidt_spectrum(st)
    assert lam[0] == pytest.approx(1.0, abs=1e-8)
    assert np.all(lam[1:] < 1e-6)


@pytest.mark.parametrize("ratio", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_schmidt_spectrum_matches_geometric_law(ratio):
    width_diff = 1.0
    width_sum = ratio * width_diff
    grid = SpatialGrid.centered(8.0 * max(width_sum, width_diff), 512)
    st = make_two_atom_gaussian(width_sum, width_diff, grid)
    lam = schmidt_spectrum(st)
    expected = mehler_spectrum(width_sum, width_diff, 8)
    assert np.allclose(lam[:8], expected, atol=1e-8)
    # separability boundary: a single coefficient above noise iff widths equal
    n_significant = int(np.sum(lam > 1e-6))
    if ratio == 1.0:
        assert n_significant == 1
    else:
        assert n_significant >= 2


def test_strong_correlation_has_multiple_coefficients():
    st = make_two_atom_gaussian(2.0, 1.0, GRID)
    lam = schmidt_spectrum(st)
    assert np.sum(lam > 1e-3) >= 2
    assert np.sum(lam**2) == pytest.approx(1.0, abs=1e-8)
    assert np.all(np.diff(lam) <= 0)


def test_schmidt_rejects_degenerate_kernel():
    st = make_two_atom_gaussian(2.0, 1.0, GRID)
    bad = TwoAtomState(grid=GRID, kernel=np.full_like(st.kernel, np.nan))
    with pytest.raises(NumericalDegeneracyError):
        schmidt_spectrum(bad)


def test_symmetrized_norm_examples():
    # symmetric two-particle amplitude -> 1/2
    st = make_two_atom_gaussian(2.0, 1.0, GRID)
    assert symmetrized_norm(st) == pytest.approx(0.5, abs=1e-10)
    # orthogonal packet pair -> 1/sqrt(2); identical -> 1/2
    a, b = make_packet(-6.0, 0.0, 1.0), make_packet(6.0, 0.0, 1.0)
    assert symmetrized_norm((a, b)) == pytest.approx(2**-0.5, abs=1e-10)
    assert symmetrized_norm((a, a)) == pytest.approx(0.5, abs=1e-12)


def test_pair_state_normalization_and_symmetry():
    a, b = make_packet(-2.0, 0.0, 1.0), make_packet(2.0, 0.0, 1.0)
    st = symmetrized_pair_state(a, b, GRID)
    mass = np.sum(np.abs(st.kernel) ** 2) * GRID.spacing**2
    assert mass == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(st.kernel - st.kernel.T)) < 1e-12
    bare = symmetrized_pair_state(a, b, GRID, symmetrized=False)
    assert bare.norm_coefficient == 1.0


def test_evolution_preserves_norm_and_symmetry():
    st = make_two_atom_gaussian(2.0, 1.0, GRID)
    ev = evolve_free(st, 3.0)
    mass = np.sum(np.abs(ev.kernel) ** 2) * GRID.spacing**2
    assert mass == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(ev.kernel - ev.kernel.T)) < 1e-12
    with pytest.raises(InvalidParameterError):
        evolve_free(st, -1.0)


def test_two_particle_evolution_factorizes():
    # 2D spectral propagation of a product kernel == product of the two
    # 1D-evolved packets
    a, b = make_packet(-1.0, 0.6, 1.0), make_packet(1.0, -0.4, 1.2)
    dt = 2.0
    fa0 = sample_packet(a, GRID.points)
    fb0 = sample_packet(b, GRID.points)
    evolved_2d = propagate_kernel(np.outer(fa0, fb0), GRID, dt)
    fa1 = sample_packet(evolve_free(a, dt), GRID.points)
    fb1 = sample_packet(evolve_free(b, dt), GRID.points)
    assert np.max(np.abs(evolved_2d - np.outer(fa1, fb1))) < 1e-8


def test_analytic_modes_track_grid_evolution():
    st = make_two_atom_gaussian(2.0, 1.0, GRID)
    dt = 1.5
    ev = evolve_free(st, dt)
    # resample the analytically evolved modes and compare with the
    # spectrally propagated kernel
    from twoatom.pairstate import _mode_kernel

    resampled = _mode_kernel(ev.mode_sum, ev.mode_diff, GRID)
    assert np.max(np.abs(resampled - ev.kernel)) < 1e-8


def test_grid_validation():
    with pytest.raises(InvalidParameterError):
        SpatialGrid(1.0, -1.0, 128)
    with pytest.raises(InvalidParameterError):
        SpatialGrid(-1.0, 1.0, 32)
