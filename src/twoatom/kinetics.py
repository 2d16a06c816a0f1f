"""Closed-form detection-density curves.

With n0 molecules photodissociated at t = 0, the expected numbers of first
and second photons recorded up to time t are

    N_f(t) = n0 (1 - exp(-G_f t))
    N_s(t) = N_f(t) - n0 * G_f / (G_s - G_f) * (exp(-G_f t) - exp(-G_s t))

while each detector accumulates N_i(t) = n0 (1 - exp(-G t)) with G the
single-atom rate.  All three are compatible exactly when G_f = 2 G and
G_s = G.  The detection densities of figure 1 are the time derivatives of
these curves, per molecule.  The G_s -> G_f limit of n_s is removable;
below a relative rate difference of `DEGENERATE_SWITCH` the analytic limit

    n_s(t) = G^2 t exp(-G t)

is used instead.  Differences of exponentials are evaluated through expm1
so the near-degenerate regime stays accurate to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

#: relative rate difference below which the degenerate n_s limit is used
DEGENERATE_SWITCH = 1e-9


@dataclass(frozen=True)
class RateTriple:
    """Single-atom, first-emission and second-emission rates (inverse time)."""

    gamma: float
    gamma_f: float
    gamma_s: float

    def __post_init__(self):
        if not (self.gamma > 0 and self.gamma_f > 0 and self.gamma_s > 0):
            raise InvalidParameterError("all rates must be strictly positive")

    @classmethod
    def compatible(cls, gamma: float) -> "RateTriple":
        """The compatibility point: first rate 2*gamma, second rate gamma."""
        return cls(gamma=gamma, gamma_f=2.0 * gamma, gamma_s=gamma)


def detection_densities(t, rates: RateTriple):
    """Normalized detection densities (n_f, n_s, n_i) at time(s) t.

    n_f = G_f exp(-G_f t); n_s is the exact derivative of N_s / n0;
    n_i = G exp(-G t).  Vectorized over t.
    """
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0):
        raise InvalidParameterError("t must be nonnegative")
    n_f = rates.gamma_f * np.exp(-rates.gamma_f * tt)
    if abs(rates.gamma_s - rates.gamma_f) / rates.gamma_f < DEGENERATE_SWITCH:
        g = rates.gamma_f
        n_s = g * g * tt * np.exp(-g * tt)
    else:
        delta = rates.gamma_s - rates.gamma_f
        diff = -np.exp(-rates.gamma_f * tt) * np.expm1(-delta * tt)
        n_s = rates.gamma_f * rates.gamma_s / delta * diff
    n_i = rates.gamma * np.exp(-rates.gamma * tt)
    return n_f, n_s, n_i

