"""Reference implementations that the tests compare the package against.

None of these serves a pipeline stage: each is an independent route to a
quantity the package computes another way (a 1D spectral propagator and
the free dispersion law, the cumulative count curves behind the detection
densities, the coincidence density behind the simulated tau histogram,
the total of a histogram, the whole-array KS distance behind the pruned
streamed one, the Schmidt spectrum of a correlated Gaussian behind the
dominant-mode amplitude, the whole-array forms of the amplitude
engine's row-blocked, threaded passes, a state's rates from its two
channels Psi and Psi^T each propagated and summed on its own behind the
one channel of an exchange-symmetric kernel, the single-hit rule read bit by
bit from the fates byte, with the whole-array detection records,
coincidence differences and histograms built from it, behind the fates
tables and the per-piece detection pass, the detector streams as one
concatenation each behind their sort inside the records, events.csv written one
``"%.16e" %`` string per time, and events.csv read by one ``np.loadtxt``
call on the whole file behind the block reader, and the fair bit as the
draw's top bit shifted down behind the integer compare of the draw pass).
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from twoatom.errors import EventsFileError, InvalidParameterError, NumericalDegeneracyError
from twoatom.eventsim import (
    FATE_DET_FIRST,
    FATE_DET_SECOND,
    FATE_KEEP_FIRST,
    FATE_KEEP_SECOND,
    bin_index,
    histogram_edges,
)
from twoatom.inference import Histogram
from twoatom.kinetics import DEGENERATE_SWITCH, RateTriple
from twoatom.packets import sample_packet
from twoatom.pairstate import propagate_kernel
from twoatom.eventsio import EVENTS_COLUMNS


def meshgrid_mode_kernel(mode_sum, mode_diff, grid):
    """A two-mode kernel sampled on the whole meshgrid at once."""
    x = grid.points
    xx, yy = np.meshgrid(x, x, indexing="ij")
    u = (xx + yy) / np.sqrt(2.0)
    v = (xx - yy) / np.sqrt(2.0)
    return sample_packet(mode_sum, u) * sample_packet(mode_diff, v)


def whole_array_propagation(kernel, grid, dt):
    """One kernel propagated by 2D transforms and one whole-array phase."""
    k = grid.wavenumbers
    phase = np.exp(-0.5j * dt * (k[:, None] ** 2 + k[None, :] ** 2))
    return np.fft.ifftn(np.fft.fft2(kernel) * phase, axes=(-2, -1))


def whole_array_abs2(a):
    return np.abs(a) ** 2


def whole_array_product_channels(f, g):
    """The exchange channels f(x) g(y) and g(x) f(y) of sampled packets."""
    return np.outer(f, g), np.outer(g, f)


def l2_norm(f: np.ndarray, grid) -> float:
    return float(np.sqrt(np.sum(np.abs(f) ** 2) * grid.spacing))


def propagate_sampled(f: np.ndarray, grid, dt: float) -> np.ndarray:
    """Spectral free propagation of a sampled 1D wave function.

    Exactly unitary on the discrete grid (pure phase in k-space); used as
    the independent check of the analytic dispersion law.
    """
    if dt < 0:
        raise InvalidParameterError("dt must be nonnegative")
    k = grid.wavenumbers
    return np.fft.ifft(np.fft.fft(f) * np.exp(-0.5j * k**2 * dt))


def packet_sigma(packet) -> float:
    """Position standard deviation of a packet after its elapsed free flight."""
    s = packet.width_sigma
    return float(np.hypot(s, packet.t / (2.0 * s)))


def to_bit(raw: np.ndarray) -> np.ndarray:
    """Fair 0/1 decision from the top bit of each draw."""
    return (raw >> np.uint64(63)).astype(np.uint8)


def photons_kept_at(fates, detector: int):
    """Whether the first and whether the second photon of each fates byte
    is kept at `detector`: its keep bit is set and its detector bit reads
    `detector`."""
    fates = np.asarray(fates)
    first = ((fates & FATE_KEEP_FIRST) != 0) & (((fates & FATE_DET_FIRST) != 0) == bool(detector))
    second = ((fates & FATE_KEEP_SECOND) != 0) & (((fates & FATE_DET_SECOND) != 0) == bool(detector))
    return first, second


def recorded_photon(fates, detector: int) -> np.ndarray:
    """The photon the single-hit rule records at `detector`: 1 the first
    (the earlier one wins when both are kept there), 2 the second, 0 none."""
    first, second = photons_kept_at(fates, detector)
    return np.where(first, 1, np.where(second, 2, 0))


#: NaN in t1/t2 means no photon was recorded at that detector
DETECTION_DTYPE = np.dtype([("t1", np.float64), ("t2", np.float64)])


def assign_detections(records: np.ndarray) -> np.ndarray:
    """Detector records (t1, t2) under the single-hit rule, row for row;
    missing entries are NaN."""
    out = np.empty(len(records), dtype=DETECTION_DTYPE)
    for detector, col in ((0, "t1"), (1, "t2")):
        code = recorded_photon(records["fates"], detector)
        out[col] = np.choose(code, (np.nan, records["t_f"], records["t_s"]))
    return out


def concatenated_detector_streams(records: np.ndarray) -> list[np.ndarray]:
    """The detector-1 and the detector-2 stream, each the concatenation of
    its first photons and of its second photons, both in molecule order:
    ``np.sort`` of each has the bytes of `eventsim.sorted_detector_streams`."""
    fates = np.ascontiguousarray(records["fates"])
    streams = []
    for detector in (0, 1):
        first_here, second_here = photons_kept_at(fates, detector)
        streams.append(np.concatenate([records["t_f"][first_here], records["t_s"][second_here]]))
    return streams


def coincidence_differences(detections: np.ndarray) -> np.ndarray:
    """t1 - t2 for all molecules with a photon recorded at both detectors."""
    both = ~np.isnan(detections["t1"]) & ~np.isnan(detections["t2"])
    return detections["t1"][both] - detections["t2"][both]


def build_histogram(samples, bin_width: float, t_range: tuple[float, float]) -> Histogram:
    """Fixed-width histogram with half-open bins [lo, hi), binned by
    `eventsim.bin_index`; samples outside [lo, hi) are dropped."""
    edges = histogram_edges(bin_width, t_range)
    x = np.asarray(samples, dtype=float).ravel()
    idx = bin_index(x, edges, float(t_range[1]), bin_width)
    counts = np.bincount(idx, minlength=len(edges))[:-1]
    return Histogram(edges=edges, counts=counts)


def histogram_total(hist) -> int:
    return int(np.sum(hist.counts))


def ks_statistic_whole_array(samples, rate: float) -> float:
    """One-sample KS distance to Exponential(rate) from one grid of i/n
    (i = 0..n) and one buffer of gaps over the whole sorted sample."""
    cdf = np.sort(np.asarray(samples, dtype=float))
    n = cdf.size
    np.multiply(cdf, -rate, out=cdf)
    np.expm1(cdf, out=cdf)
    np.negative(cdf, out=cdf)
    grid = np.arange(0, n + 1, dtype=float)
    grid /= n
    gap = np.subtract(grid[1:], cdf)
    above = np.max(gap)
    np.subtract(cdf, grid[:-1], out=gap)
    return float(max(above, np.max(gap)))


def second_count_fraction(t, gamma_f: float, gamma_s: float):
    """N_s(t) / n0, handling the removable G_s = G_f singularity."""
    t = np.asarray(t, dtype=float)
    if abs(gamma_s - gamma_f) / gamma_f < DEGENERATE_SWITCH:
        g = gamma_f
        return -np.expm1(-g * t) - g * t * np.exp(-g * t)
    delta = gamma_s - gamma_f
    # exp(-G_f t) - exp(-G_s t) = -exp(-G_f t) * expm1(-(G_s - G_f) t)
    diff = -np.exp(-gamma_f * t) * np.expm1(-delta * t)
    return -np.expm1(-gamma_f * t) - gamma_f / delta * diff


@dataclass(frozen=True)
class CountSnapshot:
    """Expected cumulative counts at one time."""

    t: float
    n_first: float
    n_second: float
    n_total: float
    n_per_detector: float


def cumulative_counts(t: float, rates: RateTriple, n0: float) -> CountSnapshot:
    """Expected first / second / total / per-detector counts up to time t."""
    if n0 <= 0:
        raise InvalidParameterError("n0 must be positive")
    t = float(t)
    if t < 0:
        raise InvalidParameterError("t must be nonnegative")
    n_f = n0 * -np.expm1(-rates.gamma_f * t)
    n_s = n0 * float(second_count_fraction(t, rates.gamma_f, rates.gamma_s))
    n = n_f + n_s
    return CountSnapshot(
        t=t,
        n_first=float(n_f),
        n_second=n_s,
        n_total=float(n),
        n_per_detector=float(n) / 2.0,
    )


def coincidence_density(tau, rates: RateTriple):
    """Density of the detector time difference t1 - t2 under random
    equiprobable assignment of the two photons: the signed second-emission
    delay, (G_s / 2) exp(-G_s |tau|)."""
    tau = np.asarray(tau, dtype=float)
    return 0.5 * rates.gamma_s * np.exp(-rates.gamma_s * np.abs(tau))


def schmidt_spectrum(state) -> np.ndarray:
    """Schmidt coefficients of the two-particle amplitude, descending.

    The coefficients are the singular values of the discretized kernel
    (scaled by the grid spacing); their squares sum to 1.  A single
    coefficient above numerical noise means the state is separable.
    """
    if not np.all(np.isfinite(state.kernel)):
        raise NumericalDegeneracyError("kernel contains non-finite entries")
    s = np.linalg.svd(state.kernel * state.grid.spacing, compute_uv=False)
    total = float(np.sum(s**2))
    if total <= 1e-12:
        raise NumericalDegeneracyError("kernel has vanishing norm")
    return s / np.sqrt(total)


def two_channel_sums(state, swapped, dt, convention, family=None):
    """(s1, s2, cross) of a state's channels C1 = Psi and C2 = `swapped`,
    Psi(y, x) as the transposed view or an array of its own, both
    propagated for `dt` (none at dt = 0) and each summed and projected on
    its own, under `convention`."""
    grid = state.grid
    channels = (state.kernel, swapped)
    e1, e2 = channels if dt == 0 else propagate_kernel(channels, grid, dt)
    if convention == "ordered-grid-product":
        dx2 = grid.spacing**2
        return (float(np.sum(whole_array_abs2(e1))) * dx2, float(np.sum(whole_array_abs2(e2))) * dx2,
                2.0 * float((np.vdot(e1, e2) * dx2).real))
    m = np.stack([sample_packet(p, grid.points) for p in family], axis=1) * np.sqrt(grid.spacing)
    q, _ = np.linalg.qr(m)
    a1, a2 = (q.conj().T @ e @ q.conj() * grid.spacing for e in (e1, e2))
    return (float(np.sum(whole_array_abs2(a1))), float(np.sum(whole_array_abs2(a2))),
            2.0 * float(np.vdot(a1, a2).real))


def two_channel_rate(state, swapped, case, dt, convention, family=None):
    """(ratio, completeness, norm coefficient, interference) of a rate of
    `state` from `two_channel_sums`, its normalization from the swap
    overlap <Psi|`swapped`>."""
    s1, s2, cross = two_channel_sums(state, swapped, dt, convention, family)
    if case == "prop2-nonsymmetrized":
        return 0.5 * s1 + 0.5 * s1, s1, 1.0, 0.0
    swap = complex(np.vdot(state.kernel, swapped) * state.grid.spacing**2)
    coeff = float((2.0 + 2.0 * swap.real) ** -0.5)
    n2 = coeff**2
    completeness = n2 * (s1 + s2 + cross)
    return 2.0 * completeness, completeness, coeff, abs(2.0 * n2 * cross)


def schmidt_ratio(width_sum: float, width_diff: float) -> float:
    """Geometric ratio rho of consecutive Schmidt coefficients (analytic):
    a correlated Gaussian has lambda_k = sqrt(1 - rho^2) rho^k."""
    if width_sum == width_diff:
        return 0.0
    a = 1.0 / width_sum**2 + 1.0 / width_diff**2
    b = abs(1.0 / width_diff**2 - 1.0 / width_sum**2)
    r = a / b
    return r - np.sqrt(r * r - 1.0)


def write_events_csv_per_value(path, records):
    """events.csv as `pipeline.write_events_csv` writes it, from one
    ``"%.16e" %`` string per time, the t1/t2 times of `assign_detections`
    and one f-string per row."""
    det = assign_detections(records)
    columns = [["" if math.isnan(v) else "%.16e" % v for v in column.tolist()]
               for column in (records["t_f"], records["t_s"], det["t1"], det["t2"])]
    with open(path, "w", newline="") as fh:
        fh.write("molecule_id,t_f,t_s,t1,t2\n")
        for i, f, s, a, b in zip(range(len(records)), *columns):
            fh.write(f"{i},{f},{s},{a},{b}\n")


#: an empty field: a comma followed by a comma, a line end or the end of file
_EMPTY_FIELD = re.compile(rb",(?=,|\r?\n|$)")
#: loadtxt's reports of a bad field and of a ragged row; a row counts the
#: data lines, blank ones skipped, from 0 for a bad field and from 1 for a
#: ragged row
_BAD_FIELD = re.compile(r"could not convert string (.*) to float64 at row (\d+), column (\d+)")
_RAGGED_ROW = re.compile(r"number of columns changed from \d+ to (\d+) at row (\d+)")


def read_events_csv_loadtxt(path: str) -> dict[str, np.ndarray]:
    """`pipeline.read_events_csv` as one ``np.loadtxt`` call on the whole
    file, held as bytes, text and lines: the same columns, and the same
    EventsFileError for every file it rejects."""
    with open(path, "rb") as fh:
        head = fh.readline()
        lines = _EMPTY_FIELD.sub(b",nan", fh.read()).decode("utf-8", "replace").split("\n")
    if not head:
        raise EventsFileError(f"{path} is empty")
    try:
        names = [name.strip() for name in head.decode("utf-8").split(",")]
    except UnicodeDecodeError:
        raise EventsFileError(f"{path}: its header line is not UTF-8") from None
    missing = [c for c in EVENTS_COLUMNS if c not in names]
    if missing:
        raise EventsFileError(f"{path} lacks the column(s) {', '.join(missing)}")
    # loadtxt skips a line that is empty but for its line end, and warns
    # when no other line is left
    first = next((line for line in lines if line not in ("", "\r")), None)
    if first is None:
        return {c: np.empty(0) for c in EVENTS_COLUMNS}

    def where(row: int) -> str:
        """`path, line n` of data row `row` (from 0), blank lines counted."""
        data_lines = [n for n, line in enumerate(lines, start=2) if line not in ("", "\r")]
        return f"{path}, line {data_lines[row]}"

    def ragged(row: int, fields: int) -> EventsFileError:
        at = f"column {names[fields]} is missing" if fields < len(names) else f"after column {names[-1]}"
        return EventsFileError(f"{where(row)}, {at}: the row has {fields} fields, the header {len(names)}")

    # loadtxt takes the first row's field count as the table's
    if first.count(",") + 1 != len(names):
        raise ragged(0, first.count(",") + 1)
    try:
        table = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError as exc:
        if m := _BAD_FIELD.search(str(exc)):
            raise EventsFileError(f"{where(int(m[2]))}, column {names[int(m[3]) - 1]}: "
                                  f"{m[1]} is not a number") from None
        if m := _RAGGED_ROW.search(str(exc)):
            raise ragged(int(m[2]) - 1, int(m[1])) from None
        raise EventsFileError(f"{path}: {exc}") from None
    # NaN, from an empty field, means "not recorded" in t1/t2 only
    fine = np.isfinite(table)
    for c in ("t1", "t2"):
        fine[:, names.index(c)] |= np.isnan(table[:, names.index(c)])
    if not fine.all():
        row, col = np.argwhere(~fine)[0]
        raise EventsFileError(f"{where(row)}, column {names[col]}: empty or not finite")
    return {c: table[:, names.index(c)] for c in EVENTS_COLUMNS}
