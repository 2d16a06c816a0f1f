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

Either pair state of `pairstate` supplies C1, C2 and N, and every rate on
the grid is taken from the one sum of its channels, `_pair_sums`.

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

from .errors import InvalidCaseError, InvalidParameterError, InvalidStateError, NumericalDegeneracyError
from .grids import SpatialGrid, sum_abs2
from .packets import GaussianPacket, apply_recoil, evolve_free, make_packet, overlap, sample_packet
from .pairstate import ProductPair, TwoAtomState, _channel_sums, check_packet_mass, propagate_kernel

_SQRT2 = np.sqrt(2.0)

#: the kind of pair state each case study takes
_CASE_INPUTS = {"prop1-nonentangled": ProductPair, "prop2-nonsymmetrized": TwoAtomState,
                "prop3-entangled-final": TwoAtomState, "prop4-entangled-second": TwoAtomState}
CASE_LABELS = ("entangled-main", "second-emission", *_CASE_INPUTS)
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
        if not self.ratio >= 0:
            raise InvalidParameterError(f"ratio {self.ratio} is not nonnegative")
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


def _out_vector(out, grid: SpatialGrid) -> np.ndarray:
    if isinstance(out, GaussianPacket):
        return sample_packet(out, grid.points)
    f = np.asarray(out)
    if f.shape != (grid.n_points,):
        raise InvalidStateError("sampled final state does not match the state grid")
    norm2 = sum_abs2(f) * grid.spacing
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
    grid = psi0.grid
    evolved = psi0.kernel if dt == 0 else propagate_kernel((psi0.kernel,), grid, dt)[0]
    f1 = _out_vector(out1, grid)
    f2 = _out_vector(out2, grid)
    terms = np.vdot(np.outer(f1, f2), evolved) + np.vdot(np.outer(f2, f1), evolved)
    return complex(_SQRT2 * psi0.norm_coefficient * terms * grid.spacing**2)


def _pair_sums(pair, dt, convention, family):
    """(s1, s2, cross) of the pair's channels (C1, C2) evolved for `dt` and
    summed over final states under `convention`: the full product basis of
    the grid, or the ordered pairs of the orthonormalized finite `family`
    of final one-particle states.  Under the full basis at dt = 0 these are
    the sums the pair keeps once taken.  A repeated channel (C2 is C1, one
    object) is evolved, projected and summed once."""
    if convention not in CONVENTIONS:
        raise InvalidParameterError(f"unknown convention {convention!r}")
    if dt == 0 and convention == "ordered-grid-product":
        return pair.full_basis_sums
    grid = pair.grid
    c1, c2 = pair.channels
    amplitudes = [c1] if c2 is c1 else [c1, c2]
    if dt != 0:
        amplitudes = list(propagate_kernel(amplitudes, grid, dt))
    if convention == "ordered-grid-product":
        return _channel_sums(amplitudes[0], amplitudes[-1], grid.spacing**2)
    if not family:
        raise InvalidParameterError("restricted-subset convention needs a packet family")
    m = np.stack([_out_vector(p, grid) for p in family], axis=1) * np.sqrt(grid.spacing)
    q, _ = np.linalg.qr(m)  # orthonormal (l2) columns
    amplitudes = [q.conj().T @ e @ q.conj() * grid.spacing for e in amplitudes]
    return _channel_sums(amplitudes[0], amplitudes[-1], 1.0)


def _pair_rate(pair, dt, convention, family, case_label) -> PropertyRateResult:
    """Report and interference of the symmetrized pair N (C1 + C2) after a
    free flight of `dt`, summed over final states under `convention`."""
    s1, s2, cross = _pair_sums(pair, dt, convention, family)
    coeff = pair.norm_coefficient
    n2 = coeff**2
    completeness = n2 * (s1 + s2 + cross)
    report = RateRatioReport(
        ratio=2.0 * completeness,
        completeness_sum=completeness,
        norm_coefficient_used=coeff,
        case_label=case_label,
        basis_convention=convention,
    )
    return PropertyRateResult(report, abs(2.0 * n2 * cross))


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
    return _pair_rate(psi0, dt, convention, family, "entangled-main").report


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
    separated packets and 2 for coincident ones.  Packet arithmetic that
    leaves the float range, so that the ratio is not finite, raises
    NumericalDegeneracyError.
    """
    psi, phi = first_out
    psi_ts = evolve_free(psi, dt)
    varphi = apply_recoil(evolve_free(phi, dt), recoil_k)
    with np.errstate(all="ignore"):  # a ratio that is not finite raises below
        amp, n_s = _second_emission(psi_ts, varphi)
    ratio = float(amp**2)
    if not np.isfinite(ratio):
        raise NumericalDegeneracyError(f"second-emission ratio {ratio} is not finite")
    return RateRatioReport(
        ratio=ratio,
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
    pair,
    dt: float = 0.0,
    convention: str = "ordered-grid-product",
    family=None,
) -> PropertyRateResult:
    """Rate ratios for the four comparison case studies, after a free
    flight of `dt`.

    Cases and the pair state each one takes:

    - ``prop1-nonentangled``: a `ProductPair` of one-particle packets
      (chi, xi), symmetrized into a non-entangled initial state.  Reported
      under the chosen convention; the exchange interference collapses to
      |<chi|xi>|^2 under the full product basis, so both conventions are
      worth inspecting.  Studies of one `ProductPair` share its channels.
      A grid that loses more than `TRUNCATION_TOL` of a packet's mass
      raises DomainTruncationError.
    - ``prop2-nonsymmetrized``: a TwoAtomState whose kernel is used without
      symmetrization; the two distinguishable emission channels are summed
      with probability weights 1/2 each (no interference by construction),
      each channel's probability being its sum under `convention`.
    - ``prop3-entangled-final``: symmetric TwoAtomState, final states kept
      entangled and summed over a complete set.
    - ``prop4-entangled-second``: symmetric TwoAtomState standing for the
      still-entangled state after the first emission; both wave functions
      symmetric gives ratio 2, not 1.
    """
    if case not in _CASE_INPUTS:
        raise InvalidCaseError(f"unknown case {case!r}")
    if not isinstance(pair, _CASE_INPUTS[case]):
        raise InvalidCaseError(f"{case} needs a {_CASE_INPUTS[case].__name__} input")

    if case == "prop2-nonsymmetrized":
        # both distinguishable channels share the spatial kernel; each one
        # sums to the mass captured by the final states of `convention`,
        # and the probabilities are averaged, so C1 alone gives the ratio
        channel = _pair_sums(pair, dt, convention, family)[0]
        ratio = 0.5 * channel + 0.5 * channel
        return PropertyRateResult(RateRatioReport(ratio, channel, 1.0, case, convention), 0.0)

    if case == "prop1-nonentangled":
        check_packet_mass((pair.chi, pair.xi), pair.grid)
    return _pair_rate(pair, dt, convention, family, case)
