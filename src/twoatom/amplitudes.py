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
from functools import cached_property

import numpy as np

from .errors import DomainTruncationError, InvalidCaseError, InvalidParameterError, InvalidStateError
from .grids import SpatialGrid, abs2, each_block
from .packets import GaussianPacket, apply_recoil, evolve_free, make_packet, overlap, sample_packet
from .pairstate import TRUNCATION_TOL, TwoAtomState, propagate_kernel, symmetrized_norm

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


def _outer(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``np.outer(f, g)``, one block of rows per thread at a time."""
    out = np.empty((f.size, g.size), complex)
    each_block(lambda rows: np.multiply(f[rows, None], g, out=out[rows]), f.size)
    return out


@dataclass(frozen=True, eq=False)
class ProductPair:
    """The non-entangled pair state of one-particle packets (chi, xi) on
    `grid`, to be symmetrized.

    Its two exchange channels chi(x) xi(y) and xi(x) chi(y) are built on
    first use and kept, so every rate taken of one pair builds them once.
    For equal packets both channels are one array.
    """

    chi: GaussianPacket
    xi: GaussianPacket
    grid: SpatialGrid

    def __post_init__(self):
        if not (isinstance(self.chi, GaussianPacket) and isinstance(self.xi, GaussianPacket)):
            raise InvalidCaseError("prop1 needs two GaussianPacket inputs")
        if self.grid is None:
            raise InvalidCaseError("prop1 needs an explicit grid")

    @cached_property
    def channels(self) -> tuple[np.ndarray, np.ndarray]:
        f = sample_packet(self.chi, self.grid.points)
        if self.chi == self.xi:
            same = _outer(f, f)
            return same, same
        g = sample_packet(self.xi, self.grid.points)
        return _outer(f, g), _outer(g, f)


def _out_vector(out, grid: SpatialGrid) -> np.ndarray:
    if isinstance(out, GaussianPacket):
        return sample_packet(out, grid.points)
    f = np.asarray(out)
    if f.shape != (grid.n_points,):
        raise InvalidStateError("sampled final state does not match the state grid")
    norm2 = float(np.sum(abs2(f))) * grid.spacing
    if abs(norm2 - 1.0) > 1e-6:
        raise InvalidStateError(f"final state is not unit-normalized (|f|^2 = {norm2:.3e})")
    return f


def _evolved(channels, grid: SpatialGrid, dt: float):
    """`channels` after a free flight of `dt`: the channels themselves at
    dt = 0, else one propagation of them all."""
    return channels if dt == 0 else propagate_kernel(channels, grid, dt)


def first_emission_amplitude(psi0: TwoAtomState, out1, out2, dt: float = 0.0) -> complex:
    """Matrix element for the first emission into the product pair (out1, out2)
    after a free flight of `dt`.

    The swapped channel C2 is C1 with its arguments exchanged, and free
    flight commutes with the exchange, so <out1 out2|U|C2> equals
    <out2 out1|U|C1>.  One evolved channel therefore gives both terms, and
    the element is exactly symmetric under out1 <-> out2.
    """
    grid = psi0.grid
    (evolved,) = _evolved((psi0.kernel,), grid, dt)
    f1 = _out_vector(out1, grid)
    f2 = _out_vector(out2, grid)
    terms = np.vdot(np.outer(f1, f2), evolved) + np.vdot(np.outer(f2, f1), evolved)
    return complex(_SQRT2 * psi0.norm_coefficient * terms * grid.spacing**2)


def _ordered_sum(e1, e2, grid):
    """Channel norms and cross term under the full product basis.

    The basis sum collapses onto norms of the evolved channels (pairwise
    numpy summation keeps the reduction order-independent):

        sum |amp|^2 = 2 N^2 (||U C1||^2 + ||U C2||^2 + 2 Re<U C1|U C2>)
    """
    dx2 = grid.spacing**2
    s1 = float(np.sum(abs2(e1))) * dx2
    s2 = float(np.sum(abs2(e2))) * dx2
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
    s1 = float(np.sum(abs2(a1)))
    s2 = float(np.sum(abs2(a2)))
    cross = 2.0 * float(np.vdot(a1, a2).real)
    return s1, s2, cross


def _channel_sums(c1, c2, grid, dt, convention, family):
    """(s1, s2, cross) of the channels (C1, C2) evolved for `dt` and summed
    over final states under `convention`."""
    if convention not in CONVENTIONS:
        raise InvalidParameterError(f"unknown convention {convention!r}")
    e1, e2 = _evolved((c1, c2), grid, dt)
    if convention == "ordered-grid-product":
        return _ordered_sum(e1, e2, grid)
    return _restricted_sum(e1, e2, grid, family)


def _state_sums(state: TwoAtomState, dt, convention, family):
    """`_channel_sums` of a state, whose channels are C1 = Psi(x, y) and
    C2 = Psi(y, x).  Under the full product basis at dt = 0 these are the
    state's squared norm (for both channels) and twice the real part of its
    swap overlap, which the state keeps once taken."""
    if dt == 0 and convention == "ordered-grid-product":
        return state.squared_norm, state.squared_norm, 2.0 * state.swap_overlap.real
    return _channel_sums(state.kernel, state.kernel.T, state.grid, dt, convention, family)


def _two_channel_rate(sums, coeff, convention, case_label):
    """Report and interference of the state N (C1 + C2) from the channel
    sums (s1, s2, cross) under `convention`, N being `coeff`."""
    s1, s2, cross = sums
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
    sums = _state_sums(psi0, dt, convention, family)
    report, _ = _two_channel_rate(sums, psi0.norm_coefficient, convention, "entangled-main")
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
      `grid`), or a `ProductPair` of them, symmetrized into a
      non-entangled initial state.  Reported under the chosen convention;
      the exchange interference collapses to |<chi|xi>|^2 under the full
      product basis, so both conventions are worth inspecting.  Studies
      of one `ProductPair` share its channels.  A grid that loses more
      than `TRUNCATION_TOL` of a packet's mass raises DomainTruncationError.
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
    if case == "prop1-nonentangled":
        pair = inputs
        if not isinstance(pair, ProductPair):
            try:
                pair = ProductPair(*inputs, grid)
            except TypeError:
                raise InvalidCaseError("prop1 needs a (chi, xi) packet pair")
        for packet in (pair.chi, pair.xi):
            mass = float(np.sum(abs2(sample_packet(packet, pair.grid.points)))) * pair.grid.spacing
            if not abs(mass - 1.0) <= TRUNCATION_TOL:
                raise DomainTruncationError(f"grid holds {mass:.12f} of the probability mass of the"
                                            f" packet at {packet.center:g} (need 1 +/- {TRUNCATION_TOL:g})")
        sums = _channel_sums(*pair.channels, pair.grid, dt, convention, family)
        report, interference = _two_channel_rate(sums, symmetrized_norm((pair.chi, pair.xi)), convention, case)
        return PropertyRateResult(report, abs(interference))

    if not isinstance(inputs, TwoAtomState):
        raise InvalidCaseError(f"{case} needs a TwoAtomState input")

    if case == "prop2-nonsymmetrized":
        # both distinguishable channels share the spatial kernel; each one
        # sums to the mass captured by the final states of `convention`,
        # and the probabilities are averaged
        channel = _state_sums(inputs, dt, convention, family)[0]
        ratio = 0.5 * channel + 0.5 * channel
        report = RateRatioReport(ratio, channel, 1.0, case, convention)
        return PropertyRateResult(report, 0.0, channel_probabilities=(channel, channel))

    if case in ("prop3-entangled-final", "prop4-entangled-second"):
        sums = _state_sums(inputs, dt, convention, family)
        report, interference = _two_channel_rate(sums, inputs.norm_coefficient, convention, case)
        return PropertyRateResult(report, abs(interference))

    raise InvalidCaseError(f"unknown case {case!r}")
