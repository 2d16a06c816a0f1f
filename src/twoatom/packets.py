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

import numpy as np

from .errors import InvalidParameterError

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


def overlap(p1: GaussianPacket, p2: GaussianPacket) -> complex:
    """Inner product <p1|p2> of two packets, a closed-form complex Gaussian
    integral.  Magnitudes below `OVERLAP_UNDERFLOW` are clamped to exactly 0.
    """
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


def evolve_free(p: GaussianPacket, dt: float) -> GaussianPacket:
    """Free Schroedinger evolution by dt >= 0 (norm preserving)."""
    if dt < 0:
        raise InvalidParameterError("dt must be nonnegative")
    if dt == 0:
        return p
    return replace(
        p,
        center=p.center + p.momentum * dt,
        phase=p.phase + 0.5 * p.momentum**2 * dt,
        t=p.t + dt,
    )


def apply_recoil(p: GaussianPacket, k: float) -> GaussianPacket:
    """Photon recoil: multiply by exp(i k x).

    Shifts the momentum expectation by k and leaves the position density
    untouched at the instant of application.
    """
    return replace(p, momentum=p.momentum + k, phase=p.phase + k * p.center)

