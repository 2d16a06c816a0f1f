"""Two-particle center-of-mass states for the dissociated atom pair.

Every state is a unit-normalized kernel Psi(x, y) sampled on a
`SpatialGrid` x `SpatialGrid`.  The workhorse is the correlated Gaussian

    Psi(x, y) ~ exp(-(x + y)^2 / W^2 - (x - y)^2 / V^2)

with W the sum-coordinate width and V the relative-coordinate width.  In
the rotated coordinates u = (x+y)/sqrt(2), v = (x-y)/sqrt(2) it factorizes
into two independent 1D Gaussian modes, kept next to the kernel as the
exact analytic state.

The state is symmetric under x <-> y by construction (the relative mode is
even), entangled iff W != V, and its Schmidt spectrum is geometric:
lambda_k = sqrt(1 - rho^2) * rho^k with rho fixed by W/V.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DomainTruncationError,
    InvalidParameterError,
    NumericalDegeneracyError,
)
from .grids import SpatialGrid
from .packets import GaussianPacket, evolve_free, make_packet, overlap, sample_packet

_SQRT2 = np.sqrt(2.0)

#: tolerated loss of probability mass to grid truncation
TRUNCATION_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class TwoAtomState:
    """Two-particle spatial amplitude on a grid.

    `kernel` is the unit-normalized amplitude sampled on `grid` x `grid`;
    `norm_coefficient` is the symmetrization normalization for the stored
    overlap.  A correlated Gaussian also keeps its rotated modes
    `mode_sum` / `mode_diff` (the exact analytic state); a product pair
    keeps its two one-particle packets instead.
    """

    grid: SpatialGrid
    kernel: np.ndarray
    mode_sum: GaussianPacket | None = None
    mode_diff: GaussianPacket | None = None
    packet_a: GaussianPacket | None = None
    packet_b: GaussianPacket | None = None
    symmetrized: bool = True
    norm_coefficient: float = 0.5


def _mode_kernel(mode_sum, mode_diff, grid: SpatialGrid) -> np.ndarray:
    x = grid.points
    xx, yy = np.meshgrid(x, x, indexing="ij")
    u = (xx + yy) / _SQRT2
    v = (xx - yy) / _SQRT2
    return sample_packet(mode_sum, u) * sample_packet(mode_diff, v)


def _checked_unit_kernel(kernel: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    mass = float(np.sum(np.abs(kernel) ** 2)) * grid.spacing**2
    if not np.isfinite(mass) or mass <= 0.0:
        raise NumericalDegeneracyError("kernel is not normalizable")
    if abs(mass - 1.0) > TRUNCATION_TOL:
        raise DomainTruncationError(
            f"grid holds {mass:.12f} of the probability mass (need 1 +/- {TRUNCATION_TOL:g})"
        )
    return kernel / np.sqrt(mass)


def make_two_atom_gaussian(width_sum: float, width_diff: float, grid: SpatialGrid) -> TwoAtomState:
    """Unit-normalized symmetric correlated Gaussian pair state on `grid`.

    Parameters
    ----------
    width_sum, width_diff : float
        Gaussian widths of the sum and relative coordinates; the state is
        separable iff they are equal.
    grid : SpatialGrid
        The sampled kernel is checked to hold all but `TRUNCATION_TOL` of
        the probability mass.

    Raises
    ------
    InvalidParameterError
        Non-positive widths.
    DomainTruncationError
        Grid too small for the requested widths.
    """
    if not (width_sum > 0 and width_diff > 0):
        raise InvalidParameterError("widths must be positive")
    # exp(-(x+y)^2/W^2) = exp(-u^2/(4 sigma_u^2)) with u = (x+y)/sqrt 2,
    # hence sigma_u = W / (2 sqrt 2); likewise for the relative mode.
    mode_sum = make_packet(0.0, 0.0, width_sum / (2.0 * _SQRT2))
    mode_diff = make_packet(0.0, 0.0, width_diff / (2.0 * _SQRT2))
    kernel = _checked_unit_kernel(_mode_kernel(mode_sum, mode_diff, grid), grid)
    state = TwoAtomState(grid, kernel, mode_sum=mode_sum, mode_diff=mode_diff)
    return replace(state, norm_coefficient=symmetrized_norm(state))


def symmetrized_pair_state(
    packet_a: GaussianPacket,
    packet_b: GaussianPacket,
    grid: SpatialGrid,
    symmetrized: bool = True,
) -> TwoAtomState:
    """Pair state built from two one-particle packets.

    With `symmetrized=True` the kernel is N (a(x) b(y) + b(x) a(y)) with
    N = (2 + 2 |<a|b>|^2)^(-1/2); otherwise it is the bare product a(x) b(y)
    (used for the distinguishable-atoms comparison case).
    """
    fa = sample_packet(packet_a, grid.points)
    fb = sample_packet(packet_b, grid.points)
    if symmetrized:
        coeff = float(symmetrized_norm((packet_a, packet_b)))
        kernel = coeff * (np.outer(fa, fb) + np.outer(fb, fa))
    else:
        coeff = 1.0
        kernel = np.outer(fa, fb)
    return TwoAtomState(
        grid,
        _checked_unit_kernel(kernel, grid),
        packet_a=packet_a,
        packet_b=packet_b,
        symmetrized=symmetrized,
        norm_coefficient=coeff,
    )


def swap_overlap(state: TwoAtomState) -> complex:
    """<Psi(x,y)|Psi(y,x)> for the stored two-particle amplitude."""
    k = state.kernel
    return complex(np.vdot(k, k.T) * state.grid.spacing**2)


def symmetrized_norm(obj) -> float:
    """Normalization coefficient of a symmetrized two-particle state.

    For a `TwoAtomState` this is (2 + 2 Re<Psi(x,y)|Psi(y,x)>)^(-1/2); for a
    pair of one-particle packets it is (2 + 2 |<a|b>|^2)^(-1/2).
    """
    if isinstance(obj, TwoAtomState):
        return float((2.0 + 2.0 * swap_overlap(obj).real) ** -0.5)
    a, b = obj
    return float((2.0 + 2.0 * abs(overlap(a, b)) ** 2) ** -0.5)


def schmidt_spectrum(state: TwoAtomState) -> np.ndarray:
    """Schmidt coefficients of the two-particle amplitude, descending.

    The coefficients are the singular values of the discretized kernel
    (scaled by the grid spacing); their squares sum to 1.  A single
    coefficient above numerical noise means the state is separable.
    """
    if not np.all(np.isfinite(state.kernel)):
        raise NumericalDegeneracyError("kernel contains non-finite entries")
    s = np.linalg.svd(state.kernel * state.grid.spacing, compute_uv=False)
    total = float(np.sum(s**2))
    if total <= 1e-12:
        raise NumericalDegeneracyError("kernel has vanishing norm")
    return s / np.sqrt(total)


def schmidt_ratio(width_sum: float, width_diff: float) -> float:
    """Geometric ratio rho of consecutive Schmidt coefficients (analytic)."""
    if width_sum == width_diff:
        return 0.0
    a = 1.0 / width_sum**2 + 1.0 / width_diff**2
    b = abs(1.0 / width_diff**2 - 1.0 / width_sum**2)
    r = a / b
    return r - np.sqrt(r * r - 1.0)


def propagate_kernel(kernel: np.ndarray, grid: SpatialGrid, dt: float) -> np.ndarray:
    """Spectral free propagation of a two-particle kernel.

    The two-particle evolution operator factorizes into identical
    one-particle operators, i.e. a pure phase exp(-i (kx^2 + ky^2) dt / 2)
    in 2D k-space; the discrete norm is conserved exactly.
    """
    if dt < 0:
        raise InvalidParameterError("dt must be nonnegative")
    if dt == 0:
        return kernel
    k = grid.wavenumbers
    phase = np.exp(-0.5j * dt * (k[:, None] ** 2 + k[None, :] ** 2))
    return np.fft.ifft2(np.fft.fft2(kernel) * phase)


@evolve_free.register
def _(state: TwoAtomState, dt: float) -> TwoAtomState:
    if dt < 0:
        raise InvalidParameterError("dt must be nonnegative")
    if dt == 0:
        return state
    updates = {}
    if state.mode_sum is not None:
        updates["mode_sum"] = evolve_free(state.mode_sum, dt)
        updates["mode_diff"] = evolve_free(state.mode_diff, dt)
    if state.packet_a is not None:
        updates["packet_a"] = evolve_free(state.packet_a, dt)
        updates["packet_b"] = evolve_free(state.packet_b, dt)
    return replace(state, kernel=propagate_kernel(state.kernel, state.grid, dt), **updates)
