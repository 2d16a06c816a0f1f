"""Gaussian packet construction, overlap and free-flight dynamics.

Closed-form results are checked against independent grid quadrature; the
dispersion law is checked against spectral propagation of the sampled
wave function.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoatom.errors import IncompatibleRepresentationError, InvalidParameterError
from twoatom.grids import SpatialGrid, inner_product, l2_norm
from twoatom.packets import (
    GaussianPacket,
    apply_recoil,
    evolve_free,
    make_packet,
    overlap,
    propagate_sampled,
    sample_packet,
)


def quad_norm(p, grid):
    return l2_norm(sample_packet(p, grid.points), grid)


def quad_moments(p, grid):
    """<x> and <p> by quadrature (momentum via spectral derivative)."""
    x = grid.points
    f = sample_packet(p, x)
    dens = np.abs(f) ** 2 * grid.spacing
    mean_x = float(np.sum(x * dens))
    df = np.fft.ifft(1j * grid.wavenumbers * np.fft.fft(f))
    mean_p = float((np.vdot(f, -1j * df) * grid.spacing).real)
    return mean_x, mean_p


GRID = SpatialGrid.centered(24.0, 2048)


def test_make_packet_rejects_bad_width():
    with pytest.raises(InvalidParameterError):
        make_packet(0.0, 0.0, 0.0)
    with pytest.raises(InvalidParameterError):
        make_packet(0.0, 0.0, -1.0)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("momentum", [0.0, 1.3])
def test_unit_norm_on_grid(sigma, momentum):
    p = make_packet(0.5, momentum, sigma)
    assert abs(quad_norm(p, GRID) - 1.0) < 1e-10


def test_unit_norm_survives_evolution_and_recoil():
    p = make_packet(-1.0, 0.7, 1.0)
    p = evolve_free(p, 1.5)
    p = apply_recoil(p, -0.4)
    p = evolve_free(p, 2.0)
    grid = SpatialGrid.centered(60.0, 4096)
    assert abs(quad_norm(p, grid) - 1.0) < 1e-10


def test_expectations_match_parameters():
    p = make_packet(0.0, 0.0, 1.0)
    mean_x, mean_p = quad_moments(p, GRID)
    assert abs(mean_x) < 1e-10
    assert abs(mean_p) < 1e-10
    p = make_packet(1.5, -0.8, 0.7)
    mean_x, mean_p = quad_moments(p, GRID)
    assert abs(mean_x - 1.5) < 1e-9
    assert abs(mean_p + 0.8) < 1e-9


def test_self_overlap_is_one():
    p = make_packet(0.0, 0.0, 1.3)
    assert overlap(p, p) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", [0.5, 1.0, 2.5, 4.0])
def test_displaced_overlap_closed_form(d):
    # oracle: the Gaussian integral of two displaced real packets
    sigma = 1.0
    got = overlap(make_packet(0, 0, sigma), make_packet(d, 0, sigma))
    assert got == pytest.approx(np.exp(-(d**2) / (8 * sigma**2)), rel=1e-12)


def test_overlap_conjugate_symmetry_and_bound():
    a = evolve_free(make_packet(0.3, 0.9, 1.1), 0.7)
    b = apply_recoil(make_packet(-0.5, -0.2, 0.8), 0.3)
    oab, oba = overlap(a, b), overlap(b, a)
    assert oab == pytest.approx(np.conj(oba), rel=1e-12)
    assert abs(oab) <= 1.0 + 1e-12


@pytest.mark.parametrize(
    "a,b",
    [
        (make_packet(0, 0, 1.0), make_packet(2.0, 0, 1.0)),
        (make_packet(0, 1.2, 0.8), make_packet(0.5, -0.7, 1.4)),
        (evolve_free(make_packet(-1, 0.4, 1.0), 2.0), make_packet(1, 0, 2.0)),
        (apply_recoil(evolve_free(make_packet(0, 0.6, 1.1), 1.0), 0.9), evolve_free(make_packet(0.3, -0.2, 0.9), 0.5)),
    ],
)
def test_overlap_quadrature_agreement(a, b):
    fa, fb = sample_packet(a, GRID.points), sample_packet(b, GRID.points)
    quad = inner_product(fa, fb, GRID)
    assert overlap(a, b) == pytest.approx(quad, abs=1e-8)


def test_sampled_overlap_needs_matching_grid():
    fa = sample_packet(make_packet(0, 0, 1), GRID.points)
    small = SpatialGrid.centered(24.0, 1024)
    fb = sample_packet(make_packet(0, 0, 1), small.points)
    with pytest.raises(IncompatibleRepresentationError):
        overlap(fa, fb)
    with pytest.raises(IncompatibleRepresentationError):
        overlap(fa, fb, grid=GRID)


def test_evolve_zero_is_identity_and_negative_raises():
    p = make_packet(0.2, 0.4, 1.0)
    assert evolve_free(p, 0.0) is p
    with pytest.raises(InvalidParameterError):
        evolve_free(p, -0.1)


def test_center_moves_ballistically():
    p = make_packet(0.0, 0.75, 1.0)
    q = evolve_free(p, 3.0)
    assert q.center == pytest.approx(0.75 * 3.0, abs=0)
    assert q.momentum == p.momentum


def test_dispersion_law_matches_spectral_propagation():
    # sigma(t)^2 = sigma^2 + (t / 2 sigma)^2; run past two dispersion times
    sigma = 1.0
    p = make_packet(0.0, 0.0, sigma)
    grid = SpatialGrid.centered(60.0, 8192)
    f0 = sample_packet(p, grid.points)
    for dt in [0.5, 2.0, 4.0]:
        expected_sigma = np.sqrt(sigma**2 + (dt / (2 * sigma)) ** 2)
        q = evolve_free(p, dt)
        assert q.current_sigma == pytest.approx(expected_sigma, rel=1e-12)
        # independent route: spectral propagation of the sampled packet
        ft = propagate_sampled(f0, grid, dt)
        dens = np.abs(ft) ** 2 * grid.spacing
        var = float(np.sum(grid.points**2 * dens) - np.sum(grid.points * dens) ** 2)
        assert np.sqrt(var) == pytest.approx(expected_sigma, rel=1e-6)
        # and the analytic sample must match the propagated one pointwise
        fa = sample_packet(q, grid.points)
        assert np.max(np.abs(fa - ft)) < 1e-6


def test_recoil_properties():
    p = evolve_free(make_packet(0.4, -0.3, 1.2), 0.9)
    assert apply_recoil(p, 0.0) == p
    q = apply_recoil(p, 2.5)
    assert q.momentum == pytest.approx(p.momentum + 2.5, abs=0)
    dens_before = np.abs(sample_packet(p, GRID.points)) ** 2
    dens_after = np.abs(sample_packet(q, GRID.points)) ** 2
    assert np.max(np.abs(dens_before - dens_after)) < 1e-12


def test_overlap_monotone_in_separation():
    seps = np.linspace(0.0, 10.0, 21)
    mags = [abs(overlap(make_packet(0, 0, 1), make_packet(d, 0, 1))) for d in seps]
    assert all(b < a for a, b in zip(mags, mags[1:]))


def test_far_separated_packets_have_zero_overlap():
    # 100 length units apart at unit width: far below any tolerance
    o = overlap(make_packet(0, 0, 1.0), make_packet(100.0, 0, 1.0))
    assert o == 0j  # clamped underflow
    assert abs(o) < 1e-12


def test_overlap_unitarity_under_common_evolution():
    a = make_packet(0.0, 0.5, 1.0)
    b = make_packet(0.0, -0.5, 1.0)
    before = overlap(a, b)
    after = overlap(evolve_free(a, 7.0), evolve_free(b, 7.0))
    assert after == pytest.approx(before, rel=1e-10)


#: packets anywhere a few widths around the origin, after any free flight
PACKETS = st.builds(
    GaussianPacket,
    center=st.floats(-10.0, 10.0),
    momentum=st.floats(-3.0, 3.0),
    width_sigma=st.floats(0.2, 5.0),
    phase=st.floats(-np.pi, np.pi),
    t=st.floats(0.0, 10.0),
)


@settings(max_examples=300, deadline=None)
@given(PACKETS, PACKETS)
def test_overlap_is_hermitian_and_bounded(a, b):
    # the closed form sums the two packets' terms in opposite order, so
    # conjugate symmetry holds to rounding, not bit for bit
    ab = overlap(a, b)
    assert ab == pytest.approx(np.conj(overlap(b, a)), rel=1e-10, abs=1e-300)
    assert abs(ab) <= 1.0 + 1e-12
