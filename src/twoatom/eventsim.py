"""Stochastic per-molecule emission and detection events.

Two competing generation models feed the same analysis pipeline:

- ``sequential``: the first emission waits Exponential(gamma_f), the second
  waits a further Exponential(gamma_s) (the ordered two-stage cascade);
- ``independent``: two i.i.d. Exponential(gamma) lifetimes per molecule,
  ordered afterwards (a pair of atoms in product states).

At the compatibility point gamma_f = 2 gamma, gamma_s = gamma the two
models produce identically distributed (t_f, t_s) pairs; telling them
apart from any detection statistic is impossible, which is exactly the
disentanglement signature the analysis module tests for.

`simulate_ensemble` reads the fields of a `config.ExperimentConfig`,
whose rules live with it.  Every random draw is a counter-based function
of (seed, molecule_id), so results are byte-identical for any worker
count or chunking (see `twoatom._kernels`).  Detection uses two detectors
hit with probability 1/2 each per photon and an efficiency thinning.
What each detector records follows the single-hit rule (when both photons
land on one detector only the earlier is recorded), spelled once, as the
fates tables below; the per-detector streams keep every photon.
"""

from __future__ import annotations

import functools
import sys

import numpy as np

from . import _kernels as kern
from . import grids
from .errors import InvalidParameterError

MODES = ("sequential", "independent")

#: `fates` packs the four photon fates drawn with the emission times.  A
#: record's molecule id is its row index: the records hold molecules 0...n0-1
EMISSION_DTYPE = np.dtype([("t_f", np.float64), ("t_s", np.float64), ("fates", np.uint8)])
#: bits of `fates`: the detector (0 or 1) each photon lands on, and whether
#: it survives the detector efficiency
FATE_DET_FIRST, FATE_DET_SECOND, FATE_KEEP_FIRST, FATE_KEEP_SECOND = 1, 2, 4, 8


#: molecules per draw chunk: a chunk's raw block (2^14 x 6 uint64 draws,
#: 768 KiB) stays in cache while all of its slots are transformed
CHUNK_MOLECULES = 2**14


def simulate_ensemble(cfg) -> np.ndarray:
    """Per-molecule emission times and photon fates of the `ExperimentConfig`
    `cfg`, which it validates first, as a structured array.

    Returns records (t_f, t_s, fates) with t_f <= t_s, in seconds; row i
    holds molecule i.  Records past what numpy can address raise
    MemoryError, as records past the free memory do.  The draws are hashed
    once, in fixed chunks of CHUNK_MOLECULES molecules, spread over
    `workers` threads.  Each chunk's values depend only on (seed,
    molecule_id), and the chunk boundaries do not depend on the worker
    count, so the records are byte-identical for every worker count.
    """
    cfg.validate()
    if cfg.n0 * EMISSION_DTYPE.itemsize > sys.maxsize:
        raise MemoryError
    records = np.empty(cfg.n0, dtype=EMISSION_DTYPE)
    grids.spread(functools.partial(_fill_chunks, cfg, cfg.rates, records), range(0, cfg.n0, CHUNK_MOLECULES), cfg.workers)
    return records


def _fill_chunks(cfg, rates, records: np.ndarray, starts) -> None:
    """Hash the chunks beginning at `starts` and write their records, at
    the rates of `cfg`, read once as `rates`.

    One slot-major draw buffer serves every chunk of the call; each slot's
    draws are a contiguous column, which its transforms overwrite.
    """
    buffer = np.empty((kern.DRAWS_PER_MOLECULE, CHUNK_MOLECULES), dtype=np.uint64)
    eff = cfg.detector_efficiency

    def wait(column, rate):
        """-log(u) / rate of the uniforms u of a slot's draws, in their column."""
        t = kern.to_open_uniform(column)
        np.log(t, out=t)
        np.negative(t, out=t)
        t /= rate
        return t

    for start in starts:
        chunk = records[start:start + CHUNK_MOLECULES]
        raw = kern.raw_draws(cfg.seed, start, len(chunk), out=buffer[:, :len(chunk)].T)
        if cfg.mode == "sequential":
            t_f = wait(raw[:, kern.SLOT_LIFETIME_A], rates.gamma_f)
            chunk["t_f"] = t_f
            np.add(t_f, wait(raw[:, kern.SLOT_LIFETIME_B], rates.gamma_s), out=chunk["t_s"])
        else:
            life_a = wait(raw[:, kern.SLOT_LIFETIME_A], rates.gamma)
            life_b = wait(raw[:, kern.SLOT_LIFETIME_B], rates.gamma)
            np.minimum(life_a, life_b, out=chunk["t_f"])
            np.maximum(life_a, life_b, out=chunk["t_s"])

        fates = kern.to_bit(raw[:, kern.SLOT_DETECTOR_FIRST]) * FATE_DET_FIRST
        fates |= kern.to_bit(raw[:, kern.SLOT_DETECTOR_SECOND]) * FATE_DET_SECOND
        kept_f = kern.to_open_uniform(raw[:, kern.SLOT_EFFICIENCY_FIRST]) < eff
        kept_s = kern.to_open_uniform(raw[:, kern.SLOT_EFFICIENCY_SECOND]) < eff
        fates |= kept_f.view(np.uint8) * FATE_KEEP_FIRST
        fates |= kept_s.view(np.uint8) * FATE_KEEP_SECOND
        chunk["fates"] = fates


def _kept_at(fates: np.ndarray, detector: int):
    """Masks of the first and of the second photons kept at `detector`."""
    first = (fates & (FATE_KEEP_FIRST | FATE_DET_FIRST)) == (FATE_KEEP_FIRST | detector * FATE_DET_FIRST)
    second = (fates & (FATE_KEEP_SECOND | FATE_DET_SECOND)) == (FATE_KEEP_SECOND | detector * FATE_DET_SECOND)
    return first, second


#: every value of the fates byte
_FATES = np.arange(2 * FATE_KEEP_SECOND, dtype=np.uint8)
#: per detector, the masks over _FATES of the first and of the second
#: photons kept there
_KEPT_AT = [_kept_at(_FATES, detector) for detector in (0, 1)]
#: per detector, the photon that the single-hit rule records there for each
#: fates value: 0 none, 1 the first, 2 the second
_RECORDED = [np.select(masks, (1, 2)) for masks in _KEPT_AT]
#: the fates values with a photon recorded at both detectors
_COINCIDENT = (_RECORDED[0] > 0) & (_RECORDED[1] > 0)


def detector_streams(records: np.ndarray):
    """All kept photon times per detector, unsorted: yields the detector-1
    stream, then the detector-2 stream.

    Every kept photon is registered, also the second one of a pair that
    lands on one detector: the count pattern the per-detector cumulative
    fit assumes.  Each stream holds its first photons in molecule order,
    then its second photons in molecule order.  The fates are the ones
    stored in the records; one pass over them counts each CHUNK_MOLECULES
    chunk's molecules per fates value, which sizes each stream exactly and
    gives each chunk the places its photons go, so the chunks fill a
    stream independently, spread over `thread_count()` threads.  A stream
    is built only when the caller asks for it and the generator keeps no
    reference to it, so a caller that drops one before asking for the
    next holds one at a time, and may sort it in place.
    """
    starts = range(0, len(records), CHUNK_MOLECULES)
    per_fates = np.empty((len(starts), _FATES.size), np.intp)  # per chunk

    def count(share):
        for k in share:
            per_fates[k] = np.bincount(records["fates"][starts[k]:starts[k] + CHUNK_MOLECULES], minlength=_FATES.size)

    grids.spread(count, range(len(starts)), grids.thread_count())
    for detector, (first_here, second_here) in enumerate(_KEPT_AT):
        yield _stream(records, detector, per_fates[:, first_here].sum(axis=1), per_fates[:, second_here].sum(axis=1))


def _stream(records: np.ndarray, detector: int, n_first: np.ndarray, n_second: np.ndarray) -> np.ndarray:
    """The first photons kept at `detector`, in molecule order, then its
    second photons, in molecule order, given the counts of each chunk's
    first and second photons kept there."""
    ends_first = np.cumsum(n_first)
    ends_second = ends_first[-1] + np.cumsum(n_second)
    stream = np.empty(ends_second[-1])

    def fill(share):
        for k in share:
            chunk = records[k * CHUNK_MOLECULES:(k + 1) * CHUNK_MOLECULES]
            first, second = _kept_at(chunk["fates"], detector)
            np.compress(first, chunk["t_f"], out=stream[ends_first[k] - n_first[k]:ends_first[k]])
            np.compress(second, chunk["t_s"], out=stream[ends_second[k] - n_second[k]:ends_second[k]])

    grids.spread(fill, range(len(n_first)), grids.thread_count())
    return stream


def histogram_edges(bin_width: float, t_range: tuple[float, float]) -> np.ndarray:
    """Edges lo + k * bin_width, k = 0...n_bins, of the fewest fixed-width
    bins from lo that cover [lo, hi)."""
    if not bin_width > 0:
        raise InvalidParameterError("bin_width must be positive")
    lo, hi = float(t_range[0]), float(t_range[1])
    if not hi > lo:
        raise InvalidParameterError("empty time range")
    n_bins = int(np.ceil((hi - lo) / bin_width - 1e-9))
    return lo + bin_width * np.arange(n_bins + 1)


def bin_index(x: np.ndarray, edges: np.ndarray, hi: float, bin_width: float) -> np.ndarray:
    """The bin of each value of `x` among `histogram_edges`' n_bins bins.

    floor((x - lo) / bin_width), clipped to n_bins - 1, for values in
    [lo, hi); n_bins for every other value, NaN included.  The clipping is
    done in float, so no value far outside the range reaches the integer
    cast.
    """
    lo, n_bins = edges[0], len(edges) - 1
    q = np.fmin(np.fmax(x, lo), hi)  # NaN goes to lo
    q -= lo
    q /= bin_width
    np.floor(q, out=q)
    np.minimum(q, n_bins - 1, out=q)
    idx = q.astype(np.intp)
    idx[~((x >= lo) & (x < hi))] = n_bins
    return idx
