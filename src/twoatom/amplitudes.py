"""Transition matrix elements and emission-rate ratios on discretized states.

All amplitudes are expressed in units of the single-atom matrix element
(the excited-to-ground transition times the field part), which is set to 1;
rate ratios are therefore dimensionless multiples of the single-atom rate.

First emission.  The initial pair state is the symmetrized two-particle
amplitude N (C1 + C2) with C2 the particle-swapped copy of C1 and N the
symmetrization normalization.  The matrix element to a final product pair
(out1, out2) collects a factor sqrt(2) from the symmetrized final state and
one spatial term per channel:

    amp = sqrt(2) * N * (<out1 out2|U|C1> + <out1 out2|U|C2>)

The emission rate relative to a single atom is the sum of |amp|^2 over a
complete set of final product states.  On a grid the ordered product basis
of position states is complete by construction, so the sum reduces to
norms and one cross term between the evolved channels; the cross term is
the exchange interference and is reported separately.  For a symmetric
normalized amplitude the result is exactly 2.

Second emission.  After the first emission the pair is in a product state;
the two packets fly apart, spread, and the emitting one receives a photon
recoil.  The matrix element is

    amp = sqrt(2) * Ns * (1 + |<psi_ts|varphi>|^2),
    Ns  = (2 + 2 |<psi_ts|varphi>|^2)^(-1/2)

whose square is 1 + |overlap|^2: the rate interpolates between the
single-atom value (well separated, overlap 0) and twice it (full overlap).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidCaseError, InvalidParameterError, InvalidStateError
from .grids import SpatialGrid
from .packets import GaussianPacket, apply_recoil, evolve_free, make_packet, overlap, sample_packet
from .pairstate import TwoAtomState, propagate_kernel, symmetrized_norm

_SQRT2 = np.sqrt(2.0)

CASE_LABELS = (
    "entangled-main",
    "second-emission",
    "prop1-nonentangled",
    "prop2-nonsymmetrized",
    "prop3-entangled-final",
    "prop4-entangled-second",
)
CONVENTIONS = ("ordered-grid-product", "restricted-subset")


@dataclass(frozen=True)
class RateRatioReport:
    """Outcome of a rate-ratio computation (rate relative to a single atom)."""

    ratio: float
    completeness_sum: float
    norm_coefficient_used: float
    case_label: str
    basis_convention: str

    def __post_init__(self):
        if self.ratio < 0:
            raise InvalidParameterError("ratio must be nonnegative")
        if not -1e-12 <= self.completeness_sum <= 1.0 + 1e-6:
            raise InvalidParameterError(
                f"completeness_sum {self.completeness_sum} outside [0, 1 + 1e-6]"
            )
        if self.case_label not in CASE_LABELS:
            raise InvalidParameterError(f"unknown case label {self.case_label!r}")
        if self.basis_convention not in CONVENTIONS:
            raise InvalidParameterError(f"unknown convention {self.basis_convention!r}")


@dataclass(frozen=True)
class PropertyRateResult:
    """Case-study outcome: the report plus the exchange cross-term."""

    report: RateRatioReport
    interference_magnitude: float
    channel_probabilities: tuple | None = None


def _product_channels(a: GaussianPacket, b: GaussianPacket, grid: SpatialGrid):
    """The two exchange channels a(x) b(y) and b(x) a(y) of a packet pair."""
    fa, fb = sample_packet(a, grid.points), sample_packet(b, grid.points)
    return np.outer(fa, fb), np.outer(fb, fa)


def _channel_components(state: TwoAtomState):
    """(C1, C2, N, grid) with the physical spatial state equal to N (C1 + C2)."""
    if state.packet_a is not None:
        if not state.symmetrized:
            raise InvalidStateError(
                "bare (unsymmetrized) product states carry no exchange channels; "
                "use the distinguishable-atoms case study for them"
            )
        return (*_product_channels(state.packet_a, state.packet_b, state.grid), state.norm_coefficient, state.grid)
    # kernel plays the role of Psi(x, y); the swapped channel is its transpose
    return state.kernel, state.kernel.T, state.norm_coefficient, state.grid


def _out_vector(out, grid: SpatialGrid) -> np.ndarray:
    if isinstance(out, GaussianPacket):
        return sample_packet(out, grid.points)
    f = np.asarray(out)
    if f.shape != (grid.n_points,):
        raise InvalidStateError("sampled final state does not match the state grid")
    norm2 = float(np.sum(np.abs(f) ** 2)) * grid.spacing
    if abs(norm2 - 1.0) > 1e-6:
        raise InvalidStateError(f"final state is not unit-normalized (|f|^2 = {norm2:.3e})")
    return f


def first_emission_amplitude(psi0: TwoAtomState, out1, out2, dt: float = 0.0) -> complex:
    """Matrix element for the first emission into the product pair (out1, out2)
    after a free flight of `dt`.

    The swapped channel C2 is C1 with its arguments exchanged, and free
    flight commutes with the exchange, so <out1 out2|U|C2> equals
    <out2 out1|U|C1>.  One evolved channel therefore gives both terms, and
    the element is exactly symmetric under out1 <-> out2.
    """
    c1, _, coeff, grid = _channel_components(psi0)
    evolved = propagate_kernel(c1, grid, dt)
    f1 = _out_vector(out1, grid)
    f2 = _out_vector(out2, grid)
    terms = np.vdot(np.outer(f1, f2), evolved) + np.vdot(np.outer(f2, f1), evolved)
    return complex(_SQRT2 * coeff * terms * grid.spacing**2)


def _ordered_sum(e1, e2, grid):
    """Channel norms and cross term under the full product basis.

    The basis sum collapses onto norms of the evolved channels (pairwise
    numpy summation keeps the reduction order-independent):

        sum |amp|^2 = 2 N^2 (||U C1||^2 + ||U C2||^2 + 2 Re<U C1|U C2>)
    """
    dx2 = grid.spacing**2
    s1 = float(np.sum(np.abs(e1) ** 2)) * dx2
    s2 = float(np.sum(np.abs(e2) ** 2)) * dx2
    cross = 2.0 * float((np.vdot(e1, e2) * dx2).real)
    return s1, s2, cross


def _orthonormal_family(family, grid: SpatialGrid) -> np.ndarray:
    """Orthonormalized column vectors (l2) for a finite packet family."""
    if not family:
        raise InvalidParameterError("restricted-subset convention needs a packet family")
    m = np.stack([_out_vector(p, grid) for p in family], axis=1) * np.sqrt(grid.spacing)
    q, _ = np.linalg.qr(m)
    return q


def _restricted_sum(e1, e2, grid, family):
    """Same decomposition as `_ordered_sum` but over an orthonormalized
    finite family of final one-particle states (ordered pairs)."""
    q = _orthonormal_family(family, grid)
    dx = grid.spacing
    a1 = q.conj().T @ e1 @ q.conj() * dx
    a2 = q.conj().T @ e2 @ q.conj() * dx
    s1 = float(np.sum(np.abs(a1) ** 2))
    s2 = float(np.sum(np.abs(a2) ** 2))
    cross = 2.0 * float(np.vdot(a1, a2).real)
    return s1, s2, cross


def _two_channel_rate(channels, dt, convention, family, case_label):
    """Report and interference of the state N (C1 + C2), `channels` being
    (C1, C2, N, grid), evolved for `dt` and summed over final states under
    `convention`."""
    c1, c2, coeff, grid = channels
    if convention not in CONVENTIONS:
        raise InvalidParameterError(f"unknown convention {convention!r}")
    e1, e2 = propagate_kernel(c1, grid, dt), propagate_kernel(c2, grid, dt)
    if convention == "ordered-grid-product":
        s1, s2, cross = _ordered_sum(e1, e2, grid)
    else:
        s1, s2, cross = _restricted_sum(e1, e2, grid, family)
    n2 = coeff**2
    completeness = n2 * (s1 + s2 + cross)
    report = RateRatioReport(
        ratio=2.0 * completeness,
        completeness_sum=completeness,
        norm_coefficient_used=coeff,
        case_label=case_label,
        basis_convention=convention,
    )
    return report, 2.0 * n2 * cross


def first_emission_rate_ratio(
    psi0: TwoAtomState,
    dt: float = 0.0,
    convention: str = "ordered-grid-product",
    family=None,
) -> RateRatioReport:
    """First-emission rate of the pair relative to a single isolated atom,
    after a free flight of `dt`.

    Under the ordered-grid-product convention the completeness sum equals
    the squared norm of the evolved initial amplitude (unity up to grid
    truncation) and a symmetric normalized state gives exactly ratio 2.
    """
    report, _ = _two_channel_rate(_channel_components(psi0), dt, convention, family, "entangled-main")
    return report


def _second_emission(psi_ts: GaussianPacket, varphi: GaussianPacket):
    """(matrix element, normalization N_s) of the second emission."""
    u2 = abs(overlap(psi_ts, varphi)) ** 2
    n_s = (2.0 + 2.0 * u2) ** -0.5
    return _SQRT2 * n_s * (1.0 + u2), n_s


def second_emission_amplitude(psi_ts: GaussianPacket, varphi: GaussianPacket) -> complex:
    """Matrix element for the second emission given the two packets at that
    instant (spread non-emitter psi_ts, recoiled emitter varphi)."""
    return complex(_second_emission(psi_ts, varphi)[0])


def second_emission_rate_ratio(
    first_out: tuple[GaussianPacket, GaussianPacket],
    dt: float,
    recoil_k: float = 0.0,
) -> RateRatioReport:
    """Second-emission rate relative to a single atom.

    Takes the product pair left by the first emission, lets both packets
    spread freely for dt, applies the photon recoil to the emitting one and
    squares the matrix element.  Equals 1 + |overlap|^2, hence 1 for well
    separated packets and 2 for coincident ones.
    """
    psi, phi = first_out
    psi_ts = evolve_free(psi, dt)
    varphi = apply_recoil(evolve_free(phi, dt), recoil_k)
    amp, n_s = _second_emission(psi_ts, varphi)
    return RateRatioReport(
        ratio=float(amp**2),
        completeness_sum=1.0,
        norm_coefficient_used=float(n_s),
        case_label="second-emission",
        basis_convention="ordered-grid-product",
    )


def receding_pair(
    separation: float, dt: float, sigma: float
) -> tuple[GaussianPacket, GaussianPacket]:
    """Packet pair that reaches the given separation after flying for dt.

    For dt > 0 the packets start coincident with opposite momenta
    +/- separation / (2 dt); for dt = 0 they are placed statically at
    +/- separation / 2.
    """
    if separation < 0:
        raise InvalidParameterError("separation must be nonnegative")
    if dt > 0:
        v_half = 0.5 * separation / dt
        return make_packet(0.0, v_half, sigma), make_packet(0.0, -v_half, sigma)
    return make_packet(0.5 * separation, 0.0, sigma), make_packet(-0.5 * separation, 0.0, sigma)


def property_case_rate(
    case: str,
    inputs,
    dt: float = 0.0,
    convention: str = "ordered-grid-product",
    grid: SpatialGrid | None = None,
    family=None,
) -> PropertyRateResult:
    """Rate ratios for the four comparison case studies, after a free
    flight of `dt`.

    Cases and expected inputs:

    - ``prop1-nonentangled``: pair (chi, xi) of one-particle packets (plus
      `grid`), symmetrized into a non-entangled initial state.  Reported
      under the chosen convention; the exchange interference collapses to
      |<chi|xi>|^2 under the full product basis, so both conventions are
      worth inspecting.
    - ``prop2-nonsymmetrized``: a TwoAtomState whose kernel is used without
      symmetrization; the two distinguishable emission channels are summed
      with probability weights 1/2 each (no interference by construction).
    - ``prop3-entangled-final``: symmetric TwoAtomState, final states kept
      entangled and summed over a complete set.
    - ``prop4-entangled-second``: symmetric TwoAtomState standing for the
      still-entangled state after the first emission; both wave functions
      symmetric gives ratio 2, not 1.
    """
    if case == "prop1-nonentangled":
        try:
            chi, xi = inputs
        except (TypeError, ValueError):
            raise InvalidCaseError("prop1 needs a (chi, xi) packet pair")
        if not (isinstance(chi, GaussianPacket) and isinstance(xi, GaussianPacket)):
            raise InvalidCaseError("prop1 needs two GaussianPacket inputs")
        if grid is None:
            raise InvalidCaseError("prop1 needs an explicit grid")
        channels = (*_product_channels(chi, xi, grid), symmetrized_norm((chi, xi)), grid)
        report, interference = _two_channel_rate(channels, dt, convention, family, case)
        return PropertyRateResult(report, abs(interference))

    if not isinstance(inputs, TwoAtomState):
        raise InvalidCaseError(f"{case} needs a TwoAtomState input")

    if case == "prop2-nonsymmetrized":
        dx2 = inputs.grid.spacing**2
        ev = propagate_kernel(inputs.kernel, inputs.grid, dt)
        # both distinguishable channels share the spatial kernel; each one
        # sums to the captured mass and the probabilities are averaged
        channel = float(np.sum(np.abs(ev) ** 2)) * dx2
        ratio = 0.5 * channel + 0.5 * channel
        report = RateRatioReport(ratio, channel, 1.0, case, convention)
        return PropertyRateResult(report, 0.0, channel_probabilities=(channel, channel))

    if case in ("prop3-entangled-final", "prop4-entangled-second"):
        report, interference = _two_channel_rate(_channel_components(inputs), dt, convention, family, case)
        return PropertyRateResult(report, abs(interference))

    raise InvalidCaseError(f"unknown case {case!r}")
