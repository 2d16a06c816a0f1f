"""Two-particle center-of-mass states for the dissociated atom pair.

Both pair states, the entangled `TwoAtomState` and the packet pair
`ProductPair`, give the amplitude engine one interface: `grid`,
`channels` (C1, C2), `norm_coefficient` and `full_basis_sums`.

A `TwoAtomState` is a unit-normalized kernel Psi(x, y) sampled on a
`SpatialGrid` x `SpatialGrid`.  The workhorse is the correlated Gaussian

    Psi(x, y) ~ exp(-(x + y)^2 / W^2 - (x - y)^2 / V^2)

with W the sum-coordinate width and V the relative-coordinate width.  In
the rotated coordinates u = (x+y)/sqrt(2), v = (x-y)/sqrt(2) it factorizes
into two independent 1D Gaussian modes, from which the kernel is sampled.
The state is symmetric under x <-> y by construction (the relative mode is
even) and entangled iff W != V.  Free flight acts on the kernel by
spectral propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DomainTruncationError,
    InvalidCaseError,
    InvalidParameterError,
    NumericalDegeneracyError,
)
from .grids import SpatialGrid, each_block, sum_abs2
from .packets import GaussianPacket, make_packet, overlap, sample_packet

_SQRT2 = np.sqrt(2.0)

#: tolerated loss of probability mass to grid truncation
TRUNCATION_TOL = 1e-8

#: the coarsest grid spacing, in packet widths sigma, that samples a packet's
#: mass to TRUNCATION_TOL: spacing h is off by up to 2 exp(-2 pi^2 sigma^2 / h^2)
COARSEST_SPACING = float(np.pi * np.sqrt(2.0 / np.log(2.0 / TRUNCATION_TOL)))


def _channel_sums(first, last, weight: float) -> tuple[float, float, float]:
    """(s1, s2, cross) of a pair's amplitudes `first` (C1's) and `last`
    (C2's) over its final states, each product weighted by `weight`:

        s1 = ||first||^2,  s2 = ||last||^2,  cross = 2 Re<first|last>

    so that sum |amp|^2 = 2 N^2 (s1 + s2 + cross).  s1 and s2 are
    `sum_abs2`'s, numpy's pairwise sums of |.|^2 with no real array of
    the amplitudes' size, and a repeated channel (`last` is `first`) is
    summed once.
    """
    s1 = sum_abs2(first) * weight
    s2 = s1 if last is first else sum_abs2(last) * weight
    cross = 2.0 * float((np.vdot(first, last) * weight).real)
    return s1, s2, cross


@dataclass(frozen=True, eq=False)
class TwoAtomState:
    """Two-particle spatial amplitude on a grid.

    `kernel` is the unit-normalized amplitude sampled on `grid` x `grid`.
    Whether it equals its transpose bit for bit and its channel sums are
    whole-kernel reductions; each is taken on first use and kept, so it
    runs once per state, and the symmetrization normalization is read off
    the sums' cross term.  The kernel must not be written after that.
    """

    grid: SpatialGrid
    kernel: np.ndarray

    @cached_property
    def exchange_symmetric(self) -> bool:
        """Whether Psi(x, y) and Psi(y, x) have the same bits everywhere.

        Each band of rows from the diagonal on is compared with the band of
        columns it mirrors, as integers, so that +0.0 and -0.0 differ and a
        NaN equals only its own bits; the bands run on `thread_count()`
        threads.
        """
        k = self.kernel
        parts = [part.view(np.uint64) for part in (k.real, k.imag)]

        def compare(rows):
            i = rows.start
            return all(np.array_equal(b[rows, i:], b[i:, rows].T) for b in parts)

        return all(each_block(compare, len(k)))

    @property
    def channels(self) -> tuple[np.ndarray, np.ndarray]:
        """C1 = Psi(x, y) and C2 = Psi(y, x), both views of the kernel.

        An exchange-symmetric kernel is its own transpose, so both channels
        are the kernel itself, one object, which the engine evolves, sums
        and projects once; any other kernel gives (kernel, kernel.T).
        """
        k = self.kernel
        return (k, k) if self.exchange_symmetric else (k, k.T)

    @cached_property
    def full_basis_sums(self) -> tuple[float, float, float]:
        """`_channel_sums` of the channels under the full product basis.  Its
        cross term is 2 Re<Psi(x,y)|Psi(y,x)>: for an exchange-symmetric
        kernel ``vdot(Psi, Psi)``, the bits of ``vdot(Psi, Psi.T)`` without
        the whole-kernel copy that flattening the transpose would make."""
        return _channel_sums(*self.channels, self.grid.spacing**2)

    @cached_property
    def norm_coefficient(self) -> float:
        """(2 + 2 Re<Psi(x,y)|Psi(y,x)>)^(-1/2), the normalization of the
        symmetrized state."""
        return float((2.0 + self.full_basis_sums[2]) ** -0.5)


def _outer(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``np.outer(f, g)``, one block of rows per thread at a time."""
    out = np.empty((f.size, g.size), complex)
    each_block(lambda rows: np.multiply(f[rows, None], g, out=out[rows]), f.size)
    return out


@dataclass(frozen=True, eq=False)
class ProductPair:
    """The non-entangled pair state of one-particle packets (chi, xi) on
    `grid`, to be symmetrized.

    Its two exchange channels chi(x) xi(y) and xi(x) chi(y), its
    normalization and its channel sums are built on first use and kept,
    so every rate taken of one pair builds them once.  For equal packets
    both channels are one array.
    """

    chi: GaussianPacket
    xi: GaussianPacket
    grid: SpatialGrid

    def __post_init__(self):
        if not (isinstance(self.chi, GaussianPacket) and isinstance(self.xi, GaussianPacket)):
            raise InvalidCaseError("a ProductPair needs two GaussianPacket inputs")
        if self.grid is None:
            raise InvalidCaseError("a ProductPair needs an explicit grid")

    @cached_property
    def channels(self) -> tuple[np.ndarray, np.ndarray]:
        f = sample_packet(self.chi, self.grid.points)
        if self.chi == self.xi:
            same = _outer(f, f)
            return same, same
        g = sample_packet(self.xi, self.grid.points)
        return _outer(f, g), _outer(g, f)

    @cached_property
    def norm_coefficient(self) -> float:
        """(2 + 2 |<chi|xi>|^2)^(-1/2), the normalization of the
        symmetrized state."""
        return float((2.0 + 2.0 * abs(overlap(self.chi, self.xi)) ** 2) ** -0.5)

    @cached_property
    def full_basis_sums(self) -> tuple[float, float, float]:
        return _channel_sums(*self.channels, self.grid.spacing**2)


def check_packet_mass(packets, grid: SpatialGrid) -> None:
    """Raise DomainTruncationError unless `grid` holds all but
    `TRUNCATION_TOL` of each packet's probability mass.  A sample whose
    exponent leaves the float range makes the mass 0 or NaN, with no
    warning, and fails the check."""
    for packet in packets:
        with np.errstate(over="ignore", invalid="ignore"):
            mass = sum_abs2(sample_packet(packet, grid.points)) * grid.spacing
        if not abs(mass - 1.0) <= TRUNCATION_TOL:
            raise DomainTruncationError(f"grid holds {mass:.12f} of the probability mass of the"
                                        f" packet at {packet.center:g} (need 1 +/- {TRUNCATION_TOL:g})")


def _mode_kernel(mode_sum, mode_diff, grid: SpatialGrid) -> np.ndarray:
    """The kernel mode_sum(u) mode_diff(v) at u = (x + y)/sqrt 2,
    v = (x - y)/sqrt 2, for a relative mode centered at 0 at rest.

    Each block of rows x_i is sampled only at the columns y = x_j from its
    first row on, and written there and at its transpose.  This gives the
    bits of sampling every element, since element (j, i) has those of
    (i, j): x_i + x_j is x_j + x_i, so u is the same double; x_i - x_j is
    exactly -(x_j - x_i) under round to nearest, and so is its quotient by
    sqrt 2, so v only changes sign; and the relative mode reads v only
    through v - 0 and (v - 0)^2, whose square is the same double, and
    through i * 0 * v, a zero whose sign then vanishes in the exponent's
    sum or in exp.  Sampling is elementwise, so a block holds the values
    of the whole array.
    """
    if mode_diff.center != 0.0 or mode_diff.momentum != 0.0:
        raise InvalidParameterError("the relative mode must be centered at 0 and at rest")
    x = grid.points
    out = np.empty((x.size, x.size), complex)

    def synthesize(rows):
        first = rows.start
        u, v = (x[rows, None] + x[first:]) / _SQRT2, (x[rows, None] - x[first:]) / _SQRT2
        block = sample_packet(mode_sum, u) * sample_packet(mode_diff, v)
        out[rows, first:] = block
        out[first:, rows] = block.T

    each_block(synthesize, x.size)
    return out


def _checked_unit_kernel(kernel: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Normalize a freshly built `kernel` in place after the mass checks."""
    mass = sum_abs2(kernel) * grid.spacing**2
    if not np.isfinite(mass) or mass <= 0.0:
        raise NumericalDegeneracyError("kernel is not normalizable")
    if abs(mass - 1.0) > TRUNCATION_TOL:
        raise DomainTruncationError(
            f"grid holds {mass:.12f} of the probability mass (need 1 +/- {TRUNCATION_TOL:g})"
        )
    kernel /= np.sqrt(mass)
    return kernel


def mode_sigma(width: float) -> float:
    """The packet width of the rotated mode of a Gaussian of `width` in
    x + y (or x - y): exp(-(x+y)^2/W^2) = exp(-u^2/(4 sigma_u^2)) with
    u = (x+y)/sqrt 2, hence sigma_u = W / (2 sqrt 2)."""
    return width / (2.0 * _SQRT2)


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
    mode_sum = make_packet(0.0, 0.0, mode_sigma(width_sum))
    mode_diff = make_packet(0.0, 0.0, mode_sigma(width_diff))
    return TwoAtomState(grid, _checked_unit_kernel(_mode_kernel(mode_sum, mode_diff, grid), grid))


def largest_phase(grid: SpatialGrid, dt: float) -> float:
    """The largest phase 0.5 dt (kx^2 + ky^2) that `propagate_kernel`
    computes for a flight of `dt` on `grid`, with its bits: about
    dt (pi/spacing)^2.  The flight is NaN unless it is finite."""
    k = float(np.max(np.abs(grid.wavenumbers)))
    return 0.5 * dt * (k * k + k * k)


def propagate_kernel(kernels, grid: SpatialGrid, dt: float) -> np.ndarray:
    """Spectral free propagation of a sequence of two-particle kernels.

    The two-particle evolution operator factorizes into identical
    one-particle operators, i.e. a pure phase exp(-i (kx^2 + ky^2) dt / 2)
    in 2D k-space; the discrete norm is conserved exactly.  Returns the
    evolved kernels stacked along a new leading axis.  The kernels
    themselves are never written.

    The kernels are copied into one buffer, which is then transformed in
    place by 1D passes of ``np.fft`` over the rows, then the columns (the
    order of ``np.fft.fft2`` and ``np.fft.ifftn``, with their bits), one
    `each_block` block per thread, as a pass in place holds no block
    temporaries.  Between the two directions, each block of rows is
    multiplied by its phase block, which serves every spectrum.
    """
    if dt < 0:
        raise InvalidParameterError("dt must be nonnegative")
    k = grid.wavenumbers
    spec = np.array(kernels, complex)

    def transform(fft):
        for lines in (spec, spec.swapaxes(1, 2)):  # the rows, then the columns
            each_block(lambda block, lines=lines: fft(lines[:, block], out=lines[:, block]), k.size, k.size)

    def evolve(rows):
        spec[:, rows] *= np.exp(-0.5j * dt * (k[rows, None] ** 2 + k[None, :] ** 2))

    transform(np.fft.fft)
    each_block(evolve, k.size)
    transform(np.fft.ifft)
    return spec
