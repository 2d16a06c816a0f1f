"""Uniform 1D spatial grids used to discretize wave functions.

A two-atom kernel is sampled on the product of one grid with itself, and
its final states are sampled on the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid on [x_min, x_max] with n_points samples (endpoints included)."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise InvalidParameterError("x_max must exceed x_min")
        if self.n_points < 64:
            raise InvalidParameterError("n_points must be at least 64")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    @property
    def wavenumbers(self) -> np.ndarray:
        """FFT-ordered wavenumbers for spectral free propagation."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.spacing)

    @classmethod
    def centered(cls, half_width: float, n_points: int = 512) -> "SpatialGrid":
        """Symmetric grid [-half_width, half_width]."""
        return cls(-float(half_width), float(half_width), n_points)


def abs2(a: np.ndarray) -> np.ndarray:
    """|a|^2 elementwise in one real array laid out like `a`; the same
    bits as ``np.abs(a) ** 2`` without its second temporary."""
    buf = np.abs(a)
    buf *= buf
    return buf
