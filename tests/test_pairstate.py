"""Two-particle state construction, symmetry, Schmidt spectra, evolution.

The Schmidt oracle is the analytic geometric law for a correlated Gaussian
(Mehler kernel): lambda_k = sqrt(1 - rho^2) rho^k with rho determined by
the width ratio; the SVD of the discretized kernel must reproduce it.  The
evolution oracle is the pair of analytically evolved 1D modes.
"""

import contextlib
import os
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoatom import grids
from twoatom.errors import (
    DomainTruncationError,
    InvalidParameterError,
    NumericalDegeneracyError,
)
from twoatom.grids import SpatialGrid
from twoatom.packets import evolve_free, make_packet, sample_packet
from twoatom.pairstate import (
    ProductPair,
    TwoAtomState,
    _channel_sums,
    _mode_kernel,
    make_two_atom_gaussian,
    propagate_kernel,
)

from oracles import (
    meshgrid_mode_kernel,
    schmidt_ratio,
    schmidt_spectrum,
    whole_array_abs2,
    whole_array_product_channels,
    whole_array_propagation,
)

GRID = SpatialGrid.centered(16.0, 512)


def mehler_spectrum(width_sum, width_diff, n):
    rho = schmidt_ratio(width_sum, width_diff)
    return np.sqrt(1.0 - rho**2) * rho ** np.arange(n)


def test_rejects_nonpositive_widths():
    with pytest.raises(InvalidParameterError):
        make_two_atom_gaussian(0.0, 1.0, GRID)
    with pytest.raises(InvalidParameterError):
        make_two_atom_gaussian(1.0, -2.0, GRID)


def test_grid_too_small_raises_truncation():
    tiny = SpatialGrid.centered(2.0, 64)
    with pytest.raises(DomainTruncationError):
        make_two_atom_gaussian(4.0, 1.0, tiny)


def test_kernel_is_unit_normalized_and_bitwise_symmetric():
    st = make_two_atom_gaussian(2.0, 1.0, GRID)
    mass = np.sum(np.abs(st.kernel) ** 2) * GRID.spacing**2
    assert mass == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(st.kernel, st.kernel.T)  # exact swap symmetry


def test_norm_coefficient_is_half_for_symmetric_state():
    st = make_two_atom_gaussian(2.0, 1.0, GRID)
    assert st.norm_coefficient == pytest.approx(0.5, abs=1e-12)
    assert st.full_basis_sums[2] == pytest.approx(2.0, abs=2e-10)


def test_separable_iff_equal_widths():
    st = make_two_atom_gaussian(1.5, 1.5, GRID)
    lam = schmidt_spectrum(st)
    assert lam[0] == pytest.approx(1.0, abs=1e-8)
    assert np.all(lam[1:] < 1e-6)


@pytest.mark.parametrize("ratio", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_schmidt_spectrum_matches_geometric_law(ratio):
    width_diff = 1.0
    width_sum = ratio * width_diff
    grid = SpatialGrid.centered(8.0 * max(width_sum, width_diff), 512)
    st = make_two_atom_gaussian(width_sum, width_diff, grid)
    lam = schmidt_spectrum(st)
    expected = mehler_spectrum(width_sum, width_diff, 8)
    assert np.allclose(lam[:8], expected, atol=1e-8)
    # separability boundary: a single coefficient above noise iff widths equal
    n_significant = int(np.sum(lam > 1e-6))
    if ratio == 1.0:
        assert n_significant == 1
    else:
        assert n_significant >= 2


def test_strong_correlation_has_multiple_coefficients():
    st = make_two_atom_gaussian(2.0, 1.0, GRID)
    lam = schmidt_spectrum(st)
    assert np.sum(lam > 1e-3) >= 2
    assert np.sum(lam**2) == pytest.approx(1.0, abs=1e-8)
    assert np.all(np.diff(lam) <= 0)


def test_schmidt_rejects_degenerate_kernel():
    st = make_two_atom_gaussian(2.0, 1.0, GRID)
    bad = TwoAtomState(grid=GRID, kernel=np.full_like(st.kernel, np.nan))
    with pytest.raises(NumericalDegeneracyError):
        schmidt_spectrum(bad)


def test_norm_coefficient_examples():
    # symmetric two-particle amplitude -> 1/2
    st = make_two_atom_gaussian(2.0, 1.0, GRID)
    assert st.norm_coefficient == pytest.approx(0.5, abs=1e-10)
    # orthogonal packet pair -> 1/sqrt(2); identical -> 1/2
    a, b = make_packet(-6.0, 0.0, 1.0), make_packet(6.0, 0.0, 1.0)
    assert ProductPair(a, b, GRID).norm_coefficient == pytest.approx(2**-0.5, abs=1e-10)
    assert ProductPair(a, a, GRID).norm_coefficient == pytest.approx(0.5, abs=1e-12)
    # the order of the packets does not matter
    c = make_packet(0.8, 0.3, 1.2)
    assert ProductPair(a, c, GRID).norm_coefficient == ProductPair(c, a, GRID).norm_coefficient


def test_evolution_preserves_norm_and_symmetry():
    st = make_two_atom_gaussian(2.0, 1.0, GRID)
    (ev,) = propagate_kernel((st.kernel,), GRID, 3.0)
    mass = np.sum(np.abs(ev) ** 2) * GRID.spacing**2
    assert mass == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(ev - ev.T)) < 1e-12
    with pytest.raises(InvalidParameterError):
        propagate_kernel((st.kernel,), GRID, -1.0)


def test_two_particle_evolution_factorizes():
    # 2D spectral propagation of a product kernel == product of the two
    # 1D-evolved packets
    a, b = make_packet(-1.0, 0.6, 1.0), make_packet(1.0, -0.4, 1.2)
    dt = 2.0
    fa0 = sample_packet(a, GRID.points)
    fb0 = sample_packet(b, GRID.points)
    (evolved_2d,) = propagate_kernel((np.outer(fa0, fb0),), GRID, dt)
    fa1 = sample_packet(evolve_free(a, dt), GRID.points)
    fb1 = sample_packet(evolve_free(b, dt), GRID.points)
    assert np.max(np.abs(evolved_2d - np.outer(fa1, fb1))) < 1e-8


def test_analytic_modes_track_grid_evolution():
    width_sum, width_diff = 2.0, 1.0
    st = make_two_atom_gaussian(width_sum, width_diff, GRID)
    dt = 1.5
    # the state's rotated modes, evolved analytically and resampled, must
    # match the spectrally propagated kernel
    mode_sum = evolve_free(make_packet(0.0, 0.0, width_sum / (2.0 * np.sqrt(2.0))), dt)
    mode_diff = evolve_free(make_packet(0.0, 0.0, width_diff / (2.0 * np.sqrt(2.0))), dt)
    resampled = _mode_kernel(mode_sum, mode_diff, GRID)
    (evolved,) = propagate_kernel((st.kernel,), GRID, dt)
    assert np.max(np.abs(resampled - evolved)) < 1e-8


def test_grid_validation():
    with pytest.raises(InvalidParameterError):
        SpatialGrid(1.0, -1.0, 128)
    with pytest.raises(InvalidParameterError):
        SpatialGrid(-1.0, 1.0, 32)


# sizes around and between row blocks, so the last block is partial; with
# 128-row blocks a grid below 128 points is one partial block
BLOCK_GRID_POINTS = st.sampled_from([64, 65, 127, 129, 300])
FLIGHT = st.one_of(st.just(0.0), st.floats(1e-3, 20.0))
THREADS = st.integers(1, 4)
# one row, as on ROWS_IN_FLIGHT CPUs or more; 16, as on two; and 128
BLOCK = st.sampled_from([1, 16, 128])


@contextlib.contextmanager
def threads(count, block):
    """Run the dense passes in `block`-row blocks on `count` threads,
    whatever the number of usable CPUs, switching threads often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(grids, "usable_cpus", lambda: count):
            with mock.patch.object(grids, "ROWS_IN_FLIGHT", count * block):
                yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpus", [1, 2, 3, 31, 32, 64])
def test_a_pass_works_on_rows_in_flight_at_most(cpus, monkeypatch):
    # the blocks tile the rows once, and the threads times the rows of a
    # block stay within ROWS_IN_FLIGHT, so the threads' temporaries do not
    # grow with the number of CPUs
    monkeypatch.setattr(grids, "usable_cpus", lambda: cpus)
    n = 1000
    blocks = []  # list.append is atomic

    def work(rows):
        blocks.append((threading.get_ident(), rows.start, min(rows.stop, n)))

    grids.each_block(work, n)
    assert sorted(i for _, start, stop in blocks for i in range(start, stop)) == list(range(n))
    rows = max(stop - start for _, start, stop in blocks)
    threads = len({ident for ident, _, _ in blocks})
    assert threads <= grids.thread_count() == min(cpus, grids.ROWS_IN_FLIGHT)
    assert rows * grids.thread_count() <= grids.ROWS_IN_FLIGHT


@pytest.mark.parametrize("count, block", [(1, 1), (2, 16), (3, 128)])
def test_threads_sets_the_rows_of_every_block(count, block):
    # each_block reads ROWS_IN_FLIGHT at the call, so threads() sets the
    # block of every pass that the bit-identity tests run
    rows = []  # list.append is atomic
    with threads(count, block):
        grids.each_block(lambda block: rows.append(block.stop - block.start), 1000)
    assert max(rows) == block


def test_usable_cpus_without_an_affinity_mask(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert grids.usable_cpus() == (os.cpu_count() or 1)


def _packet(draw, center=None, momentum=None):
    center = draw(st.floats(-2.0, 2.0)) if center is None else center
    momentum = draw(st.floats(-2.0, 2.0)) if momentum is None else momentum
    return evolve_free(make_packet(center, momentum, draw(st.floats(0.2, 4.0))), draw(FLIGHT))


@settings(max_examples=40, deadline=None)
@given(n=BLOCK_GRID_POINTS, half=st.floats(4.0, 40.0), count=THREADS, block=BLOCK, data=st.data())
def test_blocked_mode_kernel_is_bit_identical(n, half, count, block, data):
    # any sum mode; the relative mode even, centered at 0 at rest (at any
    # width and flight), so that the kernel is sampled on and above the
    # diagonal and mirrored below it
    grid = SpatialGrid.centered(half, n)
    mode_sum, mode_diff = _packet(data.draw), _packet(data.draw, center=0.0, momentum=0.0)
    with threads(count, block):
        blocked = _mode_kernel(mode_sum, mode_diff, grid)
    # tobytes, not ==, so that signed zeros count
    assert blocked.tobytes() == meshgrid_mode_kernel(mode_sum, mode_diff, grid).tobytes()


@settings(max_examples=40, deadline=None)
@given(n=BLOCK_GRID_POINTS, seed=st.integers(0, 2**32 - 1), flip=st.sampled_from([None, 0, 63]),
       count=THREADS, block=BLOCK, data=st.data())
def test_symmetry_check_reads_every_bit_on_any_threads(n, seed, flip, count, block, data):
    # a + a^T is symmetric bit for bit (addition commutes); one bit flipped
    # anywhere off the diagonal, the last of the mantissa or the sign, must
    # be seen whichever band and thread takes it
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    kernel = a + a.T
    if flip is not None:
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1).filter(lambda j: j != i))
        part = kernel.imag if data.draw(st.booleans()) else kernel.real
        part.view(np.uint64)[i, j] ^= np.uint64(1 << flip)
    with threads(count, block):
        assert TwoAtomState(SpatialGrid.centered(10.0, n), kernel).exchange_symmetric == (flip is None)


@pytest.mark.parametrize("center, momentum", [(0.5, 0.0), (0.0, -0.5)])
def test_mode_kernel_needs_an_even_relative_mode(center, momentum):
    # an off-center or moving relative mode has no mirror symmetry, so the
    # mirrored half would be wrong: it is refused instead
    with pytest.raises(InvalidParameterError):
        _mode_kernel(make_packet(0.0, 0.0, 1.0), make_packet(center, momentum, 1.0), GRID)


@settings(max_examples=40, deadline=None)
@given(
    n=BLOCK_GRID_POINTS,
    half=st.floats(4.0, 40.0),
    dt=FLIGHT,
    transposed=st.booleans(),
    second=st.sampled_from([None, "swapped", "independent"]),
    seed=st.integers(0, 2**32 - 1),
    count=THREADS,
    block=BLOCK,
)
def test_blocked_propagation_is_bit_identical(n, half, dt, transposed, second, seed, count, block):
    # every kernel of one call shares each phase block, yet comes out as if
    # propagated alone by 2D transforms with one whole-array phase, on any
    # number of threads; the rate stage passes a state's kernel with its
    # transpose
    grid = SpatialGrid.centered(half, n)
    rng = np.random.default_rng(seed)

    def random_kernel():
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    kernel = random_kernel().T if transposed else random_kernel()
    kernels = {None: (kernel,), "swapped": (kernel, kernel.T), "independent": (kernel, random_kernel())}[second]
    before = [k.tobytes() for k in kernels]
    for k in kernels:
        k.setflags(write=False)  # a write into an input now raises
    with threads(count, block):
        evolved = propagate_kernel(kernels, grid, dt)
    assert evolved.shape == (len(kernels), n, n)
    for e, k, b in zip(evolved, kernels, before):
        assert e.tobytes() == whole_array_propagation(k, grid, dt).tobytes()
        assert k.tobytes() == b


# lengths around numpy's unroll of 8 and its pairwise block of 128, around
# SUM_LEAF and its multiples, and any multiple of 8, up to 3 * 10^6
SUM_LENGTHS = st.one_of(
    st.tuples(st.sampled_from([8, 128, grids.SUM_LEAF, 2 * grids.SUM_LEAF, 5 * grids.SUM_LEAF]),
              st.integers(-1, 1)).map(sum),
    st.sampled_from([0, 1, 7, 9, 3 * 10**6]),
    st.integers(1, 3 * 10**6 // 8).map(lambda k: 8 * k),
    st.integers(1, 3 * 10**6),
)
SUM_SIDES = st.sampled_from([1, 7, 64, 127, 128, 129, 300, 1000])


@settings(max_examples=60, deadline=None)
@given(
    shape=st.one_of(st.tuples(SUM_LENGTHS), st.tuples(SUM_SIDES, SUM_SIDES)),
    fortran=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    count=st.sampled_from([1, 2, 3, 7]),
)
@example(shape=(3 * 10**6,), fortran=False, seed=0, count=7)
@example(shape=(1000, 1000), fortran=True, seed=1, count=3)
def test_sum_abs2_has_the_bits_of_the_whole_array_sum(shape, fortran, seed, count):
    # the leaves are reduced on `count` threads and added in the tree's
    # order; a kernel's transpose is Fortran-ordered and summed in its
    # memory order, as np.sum sums it.  Scales spread over decades make
    # any other order of the additions show in the last bits
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** rng.uniform(-3, 3, shape)
    a = np.asfortranarray(a) if fortran else a
    with threads(count, 1):
        got = grids.sum_abs2(a)
    assert got.hex() == float(np.sum(whole_array_abs2(a))).hex()


@settings(max_examples=40, deadline=None)
@given(n=BLOCK_GRID_POINTS, data=st.data(), identical=st.booleans(), count=THREADS, block=BLOCK)
def test_blocked_product_channels_are_bit_identical(n, data, identical, count, block):
    # equal packets give one array for both channels
    grid = SpatialGrid.centered(10.0, n)
    chi = _packet(data.draw)
    xi = chi if identical else _packet(data.draw)
    pair = ProductPair(chi, xi, grid)
    with threads(count, block):
        c1, c2 = pair.channels
    f, g = sample_packet(chi, grid.points), sample_packet(xi, grid.points)
    e1, e2 = whole_array_product_channels(f, g)
    assert c1.tobytes() == e1.tobytes() and c2.tobytes() == e2.tobytes()
    assert (c1 is c2) == (chi == xi)


@pytest.mark.parametrize("dt", [0.0, 1.5])
@pytest.mark.parametrize("transposed", [False, True])
def test_propagation_never_writes_its_argument(dt, transposed):
    kernel = make_two_atom_gaussian(2.0, 1.0, GRID).kernel
    kernel = kernel.T if transposed else kernel
    before = kernel.tobytes()
    kernel.setflags(write=False)  # a write into it now raises
    propagate_kernel((kernel,), GRID, dt)
    assert kernel.tobytes() == before


@settings(max_examples=40, deadline=None)
@given(n=st.integers(64, 400), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_state_sums_have_the_bits_of_the_channel_sums(n, seed, data):
    # at dt = 0 the rate stage reads the state's kept full-basis sums: its
    # squared norm for both channels and its swap overlap in the cross
    # term, where it once summed |Psi(y, x)|^2 and took vdot(Psi, Psi^T)
    rng = np.random.default_rng(seed)
    kernel = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    state = TwoAtomState(SpatialGrid.centered(10.0, n), kernel)
    dx2 = state.grid.spacing**2
    assert float(np.sum(whole_array_abs2(kernel.T))).hex() == float(np.sum(whole_array_abs2(kernel))).hex()
    assert state.full_basis_sums[0].hex() == (float(np.sum(whole_array_abs2(kernel.T))) * dx2).hex()
    cross = 2.0 * float((np.vdot(kernel, kernel.T) * dx2).real)
    assert state.full_basis_sums[2].hex() == cross.hex()
    # either kind of pair state: its full-basis sums are the ordered sums
    # of its own channels
    pair = ProductPair(_packet(data.draw), _packet(data.draw), state.grid)
    for kind in (state, pair):
        c1, c2 = kind.channels
        ordered = (
            float(np.sum(whole_array_abs2(c1))) * dx2,
            float(np.sum(whole_array_abs2(c2))) * dx2,
            2.0 * float((np.vdot(c1, c2) * dx2).real),
        )
        want = [x.hex() for x in ordered]
        assert [x.hex() for x in kind.full_basis_sums] == want
        assert [x.hex() for x in _channel_sums(c1, c2, dx2)] == want
