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

    n_f = G_f exp(-G_f t); n_s is the exact derivative of N_s / n0,

        n_s = G_f G_s / (G_s - G_f) * exp(-G_f t) * (1 - exp(-(G_s - G_f) t));

    n_i = G exp(-G t).  Vectorized over t.

    For G_f > G_s the second factor of n_s grows as the first shrinks, and
    their product overflows, or loses bits once exp(-G_f t) is subnormal.
    There, and wherever the rate product G_f G_s overflows, n_s factors
    out the slower exponential instead:

        n_s = G_s * (G_f / (G_f - G_s) * exp(-G_s t) * (1 - exp(-(G_f - G_s) t)))

    Where (G_s - G_f) t is below the normal range, and so has lost bits,
    n_s is G_f G_s t exp(-G_f t), since 1 - exp(-(G_s - G_f) t) rounds to
    (G_s - G_f) t there.  Elsewhere the first form is kept, with its bits.
    In the degenerate limit, G^2 t exp(-G t) is taken as
    G t exp(log G - G t) where the first form is not finite.
    """
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0):
        raise InvalidParameterError("t must be nonnegative")
    g_f, g_s = rates.gamma_f, rates.gamma_s
    delta = g_s - g_f
    with np.errstate(over="ignore", invalid="ignore"):
        n_f = g_f * np.exp(-g_f * tt)
        if abs(delta) / g_f < DEGENERATE_SWITCH:
            n_s = g_f * g_f * tt * np.exp(-g_f * tt)
            redo = ~np.isfinite(n_s)
            if np.any(redo):  # G exp(-x) as exp(log G - x), which is 0 from x = 1e4 on
                x = np.minimum(g_f * tt, 1e4)
                n_s = np.where(redo, x * np.exp(np.log(g_f) - x), n_s)
        else:
            first = np.exp(-g_f * tt)
            n_s = g_f * g_s / delta * (-first * np.expm1(-delta * tt))
            tiny = np.finfo(float).tiny
            redo = ~np.isfinite(n_s) | (delta < 0) & (first < tiny)
            if np.any(redo):
                # the slower exponential factored out; for G_f < G_s it is the first
                diff = np.exp(-g_s * tt) * np.expm1(delta * tt) if delta < 0 else -first * np.expm1(-delta * tt)
                n_s = np.where(redo, g_s * (g_f / delta * diff), n_s)
            short = (tt > 0) & (np.abs(delta * tt) < tiny)
            if np.any(short):
                n_s = np.where(short, g_f * (g_s * tt) * first, n_s)
    n_i = rates.gamma * np.exp(-rates.gamma * tt)
    return n_f, n_s, n_i

