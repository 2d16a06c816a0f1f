"""One-particle Gaussian wave packets with exact free-flight dynamics.

Natural units throughout: hbar = 1, atomic mass = 1, so momentum has units
of inverse length and the free dispersion law is sigma(t)^2 = sigma^2 +
(t / 2 sigma)^2.  A packet created at its own time origin is a minimal
uncertainty (real width) Gaussian; `evolve_free` advances it exactly, so
the complex width parameter a(t) = sigma^2 + i t / 2 never needs a grid.

Overlaps between two packets are complex Gaussian integrals evaluated in
closed form.  Overlaps whose magnitude would fall below 1e-300 are clamped
to exactly 0 (see `OVERLAP_UNDERFLOW`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import singledispatch

import numpy as np

from .errors import IncompatibleRepresentationError, InvalidParameterError
from .grids import SpatialGrid, inner_product

logger = logging.getLogger(__name__)

#: overlap magnitudes below this are clamped to exactly 0
OVERLAP_UNDERFLOW = 1e-300
_LOG_UNDERFLOW = np.log(OVERLAP_UNDERFLOW)


@dataclass(frozen=True)
class GaussianPacket:
    """Gaussian center-of-mass wave packet.

    Attributes
    ----------
    center, momentum : float
        Current position and momentum expectation values.
    width_sigma : float
        Position standard deviation at the packet's own time origin t = 0.
    phase : float
        Accumulated global phase.
    t : float
        Elapsed free flight since creation; sets the complex width
        a(t) = width_sigma^2 + i t / 2 and hence the current spread.
    """

    center: float
    momentum: float
    width_sigma: float
    phase: float = 0.0
    t: float = 0.0

    def __post_init__(self):
        if not self.width_sigma > 0.0:
            raise InvalidParameterError("width_sigma must be positive")

    @property
    def complex_width(self) -> complex:
        return self.width_sigma**2 + 0.5j * self.t

    @property
    def current_sigma(self) -> float:
        """Position standard deviation after the elapsed free flight."""
        s = self.width_sigma
        return float(np.hypot(s, self.t / (2.0 * s)))


def make_packet(center: float, momentum: float, width_sigma: float) -> GaussianPacket:
    """Unit-norm minimal-uncertainty packet at its time origin."""
    return GaussianPacket(float(center), float(momentum), float(width_sigma))


def _amplitude_prefactor(p: GaussianPacket) -> complex:
    # (2 pi sigma^2)^(-1/4) * sqrt(sigma^2 / a); keeps the packet unit-norm
    # for every t (principal sqrt is continuous since Re a > 0).
    s2 = p.width_sigma**2
    return (2.0 * np.pi * s2) ** (-0.25) * np.sqrt(s2 / p.complex_width)


def sample_packet(p: GaussianPacket, x: np.ndarray) -> np.ndarray:
    """Evaluate the packet wave function on positions x."""
    dx = np.asarray(x, dtype=float) - p.center
    a = p.complex_width
    return _amplitude_prefactor(p) * np.exp(
        -(dx**2) / (4.0 * a) + 1j * p.momentum * dx + 1j * p.phase
    )


def overlap(a, b, grid: SpatialGrid | None = None) -> complex:
    """Inner product <a|b> of two unit-norm states.

    Accepts two `GaussianPacket`s (closed-form complex Gaussian integral) or
    two sampled arrays together with their common `grid` (quadrature).
    Magnitudes below `OVERLAP_UNDERFLOW` are clamped to exactly 0.
    """
    if isinstance(a, GaussianPacket) and isinstance(b, GaussianPacket):
        return _overlap_closed_form(a, b)
    fa, fb = np.asarray(a), np.asarray(b)
    if grid is None:
        raise IncompatibleRepresentationError("sampled overlap requires the grid")
    if fa.shape != fb.shape or fa.shape != (grid.n_points,):
        raise IncompatibleRepresentationError("states live on different grids")
    return inner_product(fa, fb, grid)


def _overlap_closed_form(p1: GaussianPacket, p2: GaussianPacket) -> complex:
    a1c = np.conj(p1.complex_width)
    a2 = p2.complex_width
    # integrand exponent: -A x^2 + B x + C
    A = 1.0 / (4.0 * a1c) + 1.0 / (4.0 * a2)
    B = p1.center / (2.0 * a1c) + p2.center / (2.0 * a2) - 1j * p1.momentum + 1j * p2.momentum
    C = (
        -p1.center**2 / (4.0 * a1c)
        - p2.center**2 / (4.0 * a2)
        + 1j * p1.momentum * p1.center
        - 1j * p2.momentum * p2.center
        + 1j * (p2.phase - p1.phase)
    )
    pref = np.conj(_amplitude_prefactor(p1)) * _amplitude_prefactor(p2) * np.sqrt(np.pi / A)
    expo = B * B / (4.0 * A) + C
    log_mag = np.log(abs(pref)) + expo.real
    if log_mag < _LOG_UNDERFLOW:
        logger.debug("overlap underflow (log magnitude %.1f); clamped to 0", log_mag)
        return 0j
    return complex(pref * np.exp(expo))


@singledispatch
def evolve_free(state, dt: float):
    """Free Schroedinger evolution by dt >= 0 (norm preserving)."""
    raise TypeError(f"evolve_free not defined for {type(state).__name__}")


@evolve_free.register
def _(state: GaussianPacket, dt: float) -> GaussianPacket:
    if dt < 0:
        raise InvalidParameterError("dt must be nonnegative")
    if dt == 0:
        return state
    return replace(
        state,
        center=state.center + state.momentum * dt,
        phase=state.phase + 0.5 * state.momentum**2 * dt,
        t=state.t + dt,
    )


def apply_recoil(p: GaussianPacket, k: float) -> GaussianPacket:
    """Photon recoil: multiply by exp(i k x).

    Shifts the momentum expectation by k and leaves the position density
    untouched at the instant of application.
    """
    return replace(p, momentum=p.momentum + k, phase=p.phase + k * p.center)


def propagate_sampled(f: np.ndarray, grid: SpatialGrid, dt: float) -> np.ndarray:
    """Spectral free propagation of a sampled 1D wave function.

    Exactly unitary on the discrete grid (pure phase in k-space); used as
    the independent check of the analytic dispersion law.
    """
    if dt < 0:
        raise InvalidParameterError("dt must be nonnegative")
    k = grid.wavenumbers
    return np.fft.ifft(np.fft.fft(f) * np.exp(-0.5j * k**2 * dt))
