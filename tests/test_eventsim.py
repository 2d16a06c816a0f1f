"""Event generation, detector assignment and histogramming.

The RNG is checked against an independent pure-python splitmix64
implementation (integer arithmetic only), plus frozen golden values from
the first verified run.  Distributional checks use closed-form exponential
laws and order statistics as oracles.
"""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoatom import _kernels as kern
from twoatom import grids
from twoatom.errors import ConfigValidationError, InvalidParameterError
from twoatom.eventsim import (
    _COINCIDENT,
    _KEPT_AT,
    _RECORDED,
    CHUNK_MOLECULES,
    EMISSION_DTYPE,
    FATE_DET_FIRST,
    FATE_DET_SECOND,
    FATE_KEEP_FIRST,
    FATE_KEEP_SECOND,
    pieces,
    simulate_ensemble,
    sorted_detector_streams,
)
from twoatom.kinetics import RateTriple
from twoatom.pipeline import ExperimentConfig

from oracles import (
    assign_detections,
    build_histogram,
    coincidence_differences,
    concatenated_detector_streams,
    histogram_total,
    photons_kept_at,
    to_bit,
)

GAMMA = 1.0 / 1.6e-9
RATES = RateTriple.compatible(GAMMA)


def cfg_for(n0, mode="sequential", seed=20260810, **kw):
    return ExperimentConfig(n0=n0, mode=mode, seed=seed, **kw)


# --- pure-python oracle for the counter-based draws -----------------------

_MASK = (1 << 64) - 1


def _py_mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _py_raw(seed, molecule, slot):
    key = _py_mix(seed & _MASK)
    counter = molecule * kern.DRAWS_PER_MOLECULE + slot
    return _py_mix((key + (((counter + 1) * 0x9E3779B97F4A7C15) & _MASK)) & _MASK)


def _py_uniform(r):
    return ((r >> 11) + 0.5) * 2.0**-53


def test_config_validation():
    with pytest.raises(ConfigValidationError):
        simulate_ensemble(cfg_for(0))
    with pytest.raises(ConfigValidationError):
        simulate_ensemble(cfg_for(10, mode="entangled"))
    with pytest.raises(ConfigValidationError):
        simulate_ensemble(cfg_for(10, detector_efficiency=0.0))
    with pytest.raises(ConfigValidationError):
        simulate_ensemble(cfg_for(10, detector_efficiency=1.5))
    with pytest.raises(ConfigValidationError):
        simulate_ensemble(cfg_for(10, workers=0))


def test_raw_draws_match_python_oracle():
    raw = kern.raw_draws(987, 3, 4)
    for i in range(4):
        for j in range(kern.DRAWS_PER_MOLECULE):
            assert int(raw[i, j]) == _py_raw(987, 3 + i, j)


def test_uniforms_are_strictly_inside_unit_interval():
    u = kern.to_open_uniform(kern.raw_draws(3, 0, 10000))
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_top_raw_draw_stays_below_one(monkeypatch):
    # (2^53 - 1) + 0.5 rounds up to 2^53, so the top 2^11 raw values need
    # the clamp: a lifetime there must stay positive and an efficiency of
    # 1 must keep the photon
    top = np.full(3, 2**64 - 1, dtype=np.uint64)
    assert np.all(kern.to_open_uniform(top) < 1.0)

    def top_draws(seed, start, n, out):
        out.fill(2**64 - 1)
        return out

    monkeypatch.setattr(kern, "raw_draws", top_draws)
    rec = simulate_ensemble(cfg_for(5))
    assert np.all(rec["fates"] & FATE_KEEP_FIRST)
    assert np.all(rec["fates"] & FATE_KEEP_SECOND)
    assert np.all(rec["t_f"] > 0)


def _near(x):
    """x and its neighbouring doubles, within (0, 1]."""
    return st.sampled_from([v for v in (x, math.nextafter(x, 0.0), math.nextafter(x, 2.0)) if 0.0 < v <= 1.0])


@settings(max_examples=300, deadline=None)
@given(
    efficiency=st.one_of(
        st.floats(0.0, 1.0, exclude_min=True),
        st.floats(5e-324, 2.2250738585072014e-308),  # subnormals
        st.integers(1, 2**53).flatmap(lambda k: _near(k * 2.0**-53)),
        st.integers(0, 2**53 - 1).flatmap(lambda k: _near((k + 0.5) * 2.0**-53)),  # the uniforms themselves
        st.sampled_from([5e-324, 2.0**-53, 1.0 - 2.0**-53, 1.0]),
    ),
    seed=st.integers(0, 2**64 - 1),
)
def test_keep_bound_equals_the_uniform_compare(efficiency, seed):
    # a photon is kept where its draw is below K * 2^11 (at K = 2^53, every
    # draw): the draws the uniform compare keeps, checked on both sides of
    # the bound, around 2^63, at the ends and on random draws
    kept, bound = kern.keep_below(efficiency)
    k = int(bound) >> 11 if kept is np.less else 2**53
    assert kept is np.less or (kept is np.less_equal and int(bound) == 2**64 - 1)
    edges = [k * 2**11 - 1, k * 2**11, 2**63 - 1, 2**63, 2**63 + 1, 0, 2**64 - 1, 2**64 - 2**11, 2**64 - 2**11 - 1]
    draws = np.array([d for d in edges if 0 <= d < 2**64], dtype=np.uint64)
    draws = np.concatenate([draws, np.random.default_rng(seed).integers(0, 2**64, 1000, dtype=np.uint64, endpoint=False)])
    want = kern.to_open_uniform(draws.copy()) < efficiency
    assert np.array_equal(kept(draws, bound), want)


def test_golden_record_pinned():
    # frozen from the first verified run; cross-checked here against the
    # pure-python draw oracle and the inverse exponential CDF
    rec = simulate_ensemble(cfg_for(1, seed=1234))
    t_f, t_s = float(rec["t_f"][0]), float(rec["t_s"][0])
    assert t_f == 5.923232968772962e-10
    assert t_s == 1.456569187101279e-09
    u0 = _py_uniform(_py_raw(1234, 0, 0))
    u1 = _py_uniform(_py_raw(1234, 0, 1))
    assert t_f == pytest.approx(-math.log(u0) / RATES.gamma_f, rel=1e-15)
    assert t_s - t_f == pytest.approx(-math.log(u1) / RATES.gamma_s, rel=1e-15)


def test_sequential_mean_lifetimes():
    n = 1_000_000
    rec = simulate_ensemble(cfg_for(n))
    # exponential mean with 3 sigma/sqrt(n) bands
    mean_f, sd_f = 1.0 / RATES.gamma_f, 1.0 / RATES.gamma_f
    assert abs(rec["t_f"].mean() - mean_f) < 3 * sd_f / np.sqrt(n)
    gaps = rec["t_s"] - rec["t_f"]
    mean_s = 1.0 / RATES.gamma_s
    assert abs(gaps.mean() - mean_s) < 3 * mean_s / np.sqrt(n)


def test_ordering_exact():
    for mode in ("sequential", "independent"):
        rec = simulate_ensemble(cfg_for(50_000, mode=mode, seed=5))
        assert np.all(rec["t_f"] <= rec["t_s"])


def test_independent_first_time_is_min_of_two_exponentials():
    # order statistics: min of two Exponential(G) is Exponential(2G)
    n = 100_000
    rec = simulate_ensemble(cfg_for(n, mode="independent", seed=77))
    xs = np.sort(rec["t_f"])
    cdf = -np.expm1(-2 * GAMMA * xs)
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    d = max(np.max(emp_hi - cdf), np.max(cdf - emp_lo))
    assert d < 1.628 / np.sqrt(n)  # 1% critical value


def test_determinism_across_worker_counts():
    base = simulate_ensemble(cfg_for(10_001, seed=99, workers=1))
    for workers in (2, 5):
        other = simulate_ensemble(cfg_for(10_001, seed=99, workers=workers))
        assert base.tobytes() == other.tobytes()


def test_a_worker_threads_exception_reaches_the_caller(monkeypatch):
    # with two workers the second chunk is hashed on a worker thread
    raw_draws = kern.raw_draws

    def failing_after_the_first_chunk(seed, start, n, out=None):
        if start >= CHUNK_MOLECULES:
            raise MemoryError
        return raw_draws(seed, start, n, out=out)

    monkeypatch.setattr(kern, "raw_draws", failing_after_the_first_chunk)
    with pytest.raises(MemoryError):
        simulate_ensemble(cfg_for(CHUNK_MOLECULES + 1, workers=2))


def test_spread_starts_at_most_one_thread_per_usable_cpu_but_one(monkeypatch):
    # workers has no upper bound; the threads started are cut to the CPUs
    asked = []

    class Recorder(grids.ThreadPoolExecutor):
        def __init__(self, max_workers):
            asked.append(max_workers)
            super().__init__(max_workers=max_workers)

        def submit(self, fn, *args):
            asked.append("submit")
            return super().submit(fn, *args)

    monkeypatch.setattr(grids, "ThreadPoolExecutor", Recorder)
    n0 = 5 * CHUNK_MOLECULES
    many = simulate_ensemble(cfg_for(n0, seed=17, workers=10**6))
    limit = grids.thread_count() - 1
    assert all(workers <= limit for workers in asked if workers != "submit")
    assert asked.count("submit") <= limit
    assert many.tobytes() == simulate_ensemble(cfg_for(n0, seed=17, workers=1)).tobytes()


def _unchunked_reference(cfg):
    """Times, packed fates, detections and streams from one raw block.

    Applies the per-slot formulas to a single unchunked `raw_draws` block
    and re-derives every photon's fate from its own slot, independently of
    the chunked pass in `simulate_ensemble`.
    """
    raw = kern.raw_draws(cfg.seed, 0, cfg.n0)
    u_a = kern.to_open_uniform(raw[:, kern.SLOT_LIFETIME_A])
    u_b = kern.to_open_uniform(raw[:, kern.SLOT_LIFETIME_B])
    if cfg.mode == "sequential":
        t_f = -np.log(u_a) / cfg.rates.gamma_f
        t_s = t_f + -np.log(u_b) / cfg.rates.gamma_s
    else:
        life_a = -np.log(u_a) / cfg.rates.gamma
        life_b = -np.log(u_b) / cfg.rates.gamma
        t_f = np.minimum(life_a, life_b)
        t_s = np.maximum(life_a, life_b)
    det_f = to_bit(raw[:, kern.SLOT_DETECTOR_FIRST])
    det_s = to_bit(raw[:, kern.SLOT_DETECTOR_SECOND])
    eff = cfg.detector_efficiency
    keep_f = kern.to_open_uniform(raw[:, kern.SLOT_EFFICIENCY_FIRST]) < eff
    keep_s = kern.to_open_uniform(raw[:, kern.SLOT_EFFICIENCY_SECOND]) < eff
    fates = (det_f * FATE_DET_FIRST + det_s * FATE_DET_SECOND
             + keep_f * FATE_KEEP_FIRST + keep_s * FATE_KEEP_SECOND)
    detections, streams = [], []
    for detector in (0, 1):
        first_here = keep_f & (det_f == detector)
        second_here = keep_s & (det_s == detector)
        detections.append(np.where(first_here, t_f, np.where(second_here, t_s, np.nan)))
        streams.append(np.concatenate([t_f[first_here], t_s[second_here]]))
    return t_f, t_s, fates, detections, streams


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    efficiency=st.floats(0.0, 1.0, exclude_min=True),
    n0=st.sampled_from([1, CHUNK_MOLECULES - 1, CHUNK_MOLECULES, CHUNK_MOLECULES + 1,
                        3 * CHUNK_MOLECULES + 7]),
    workers=st.sampled_from([1, 2, 3]),
    mode=st.sampled_from(["sequential", "independent"]),
)
def test_chunked_pass_matches_unchunked_reference(seed, efficiency, n0, workers, mode):
    cfg = cfg_for(n0, mode=mode, seed=seed, detector_efficiency=efficiency, workers=workers)
    t_f, t_s, fates, detections, streams = _unchunked_reference(cfg)
    rec = simulate_ensemble(cfg)
    assert _same_bits(rec["t_f"], t_f)
    assert _same_bits(rec["t_s"], t_s)
    assert _same_bits(rec["fates"], fates.astype(np.uint8))
    det = assign_detections(rec)
    assert _same_bits(det["t1"], detections[0])
    assert _same_bits(det["t2"], detections[1])
    assert [_same_bits(got, want) for got, want in zip(concatenated_detector_streams(rec), streams)] == [True, True]
    got_1, got_2 = sorted_detector_streams(rec)  # consumes the records
    assert _same_bits(got_1, np.sort(streams[0]))
    assert _same_bits(got_2, np.sort(streams[1]))


@pytest.mark.parametrize("n0", [1, 2, CHUNK_MOLECULES - 1, CHUNK_MOLECULES, CHUNK_MOLECULES + 1,
                                3 * CHUNK_MOLECULES + 7, 16 * CHUNK_MOLECULES + 7])
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    efficiency=st.sampled_from([0.7, 1.0]),
    mode=st.sampled_from(["sequential", "independent"]),
    threads=st.sampled_from([1, 2, 3, 7]),
)
def test_chunked_streams_equal_the_concatenated_oracle(n0, seed, efficiency, mode, threads):
    # each stream sorted inside the records' own bytes, byte for byte
    # np.sort of its concatenation; the threads reach only the sort's
    # segments, and past 16 pieces a piece's writes stay below its own bytes
    rec = simulate_ensemble(cfg_for(n0, mode=mode, seed=seed, detector_efficiency=efficiency))
    want = [np.sort(s) for s in concatenated_detector_streams(rec)]
    with mock.patch.object(grids, "thread_count", lambda: threads):
        got = sorted_detector_streams(rec)
    assert [s.dtype for s in got] == [s.dtype for s in want]
    assert [s.tobytes() for s in got] == [s.tobytes() for s in want]
    assert all(np.shares_memory(s, rec) for s in got if s.size)  # no stream of their own


@pytest.mark.parametrize("mode", ["sequential", "independent"])
def test_sorted_streams_do_not_depend_on_the_order_of_a_wave(monkeypatch, mode):
    # the one spread pass of the stage is the sort's segments, which the
    # threads may sort in any order: here it runs its items last to first,
    # on one thread, and returns their results in order, so a segment that
    # read another's items would show
    rec = simulate_ensemble(cfg_for(16 * CHUNK_MOLECULES + 7, mode=mode, seed=29, detector_efficiency=0.7))
    want = [np.sort(s) for s in concatenated_detector_streams(rec)]
    monkeypatch.setattr(grids, "spread", lambda work, items, threads: [work(item) for item in items[::-1]][::-1])
    assert [s.tobytes() for s in sorted_detector_streams(rec)] == [s.tobytes() for s in want]


def test_detector_streams_fill_in_one_ordered_pass(monkeypatch):
    # the fill takes the pieces in order on the calling thread: on 7 CPUs
    # the stage's one spread call is the sort's 7 segments
    monkeypatch.setattr(grids, "usable_cpus", lambda: 7)
    rec = simulate_ensemble(cfg_for(16 * CHUNK_MOLECULES + 7, seed=31, detector_efficiency=0.7))
    spread, calls = grids.spread, []

    def counted(work, items, threads):
        calls.append(len(items))
        return spread(work, items, threads)

    monkeypatch.setattr(grids, "spread", counted)
    sorted_detector_streams(rec)
    assert calls == [7]


#: the smallest piece, which every n0 below 2^18 takes
PIECE = pieces(1)[0].step
#: +0.0 and a few positive times, so that ties fall within a detector and
#: across the two
_TIE_TIMES = st.lists(st.sampled_from([0.0, 1e-9, 2.5, 7.0]), min_size=1, max_size=24)


@pytest.mark.parametrize("n0", [1, 2, 3, 17, PIECE - 1, PIECE + 1, CHUNK_MOLECULES + 1, 16 * PIECE + 7])
@settings(max_examples=15, deadline=None)
@given(
    fates=st.lists(st.integers(0, 15), min_size=1, max_size=24),
    t_f=_TIE_TIMES,
    t_s=_TIE_TIMES,
    threads=st.integers(1, 7),
)
# times of 0.0 on both detectors, both photons kept and the detector bits
# through their four values: detector 2's zeros are sorted as -0.0, after
# detector 1's +0.0, and each stream comes out +0.0, as np.sort of it
@example(fates=[FATE_KEEP_FIRST | FATE_KEEP_SECOND | k for k in range(4)], t_f=[0.0], t_s=[0.0, 2.5], threads=2)
def test_sorted_streams_of_zero_times_read_plus_zero(n0, fates, t_f, t_s, threads):
    # hand-built records whose fates and times repeat with their own periods
    rec = np.zeros(n0, dtype=EMISSION_DTYPE)
    rec["fates"] = np.resize(np.array(fates, np.uint8), n0)
    rec["t_f"] = np.resize(t_f, n0)
    rec["t_s"] = np.resize(t_s, n0)
    want = [np.sort(s) for s in concatenated_detector_streams(rec)]
    with mock.patch.object(grids, "thread_count", lambda: threads):
        got = sorted_detector_streams(rec)
    assert [s.tobytes() for s in got] == [s.tobytes() for s in want]
    assert all(np.shares_memory(s, rec) for s in got if s.size)


def test_thread_pool_stress_keeps_records_byte_identical(monkeypatch):
    # seven threads over twenty chunks with a tiny switch interval, so the
    # threads interleave as often as possible while writing their slices
    n0 = 20 * CHUNK_MOLECULES + 5
    monkeypatch.setattr(grids, "usable_cpus", lambda: 7)  # spread starts at most one per CPU
    base = simulate_ensemble(cfg_for(n0, seed=7, detector_efficiency=0.6))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        other = simulate_ensemble(cfg_for(n0, seed=7, detector_efficiency=0.6, workers=7))
    finally:
        sys.setswitchinterval(interval)
    assert base.tobytes() == other.tobytes()


def test_detector_counts_balance():
    n = 1_000_000
    rec = simulate_ensemble(cfg_for(n, seed=13))
    det = assign_detections(rec)
    n1 = int(np.sum(~np.isnan(det["t1"])))
    n2 = int(np.sum(~np.isnan(det["t2"])))
    assert abs(n1 - n2) < 4 * np.sqrt(n1 + n2)


def test_same_detector_fraction_is_half():
    # 2 photons over 2 detectors: same-detector probability 1/2; with unit
    # efficiency those molecules have exactly one recorded time
    n = 200_000
    cfg = cfg_for(n, seed=21)
    det = assign_detections(simulate_ensemble(cfg))
    one_sided = np.sum(np.isnan(det["t1"]) ^ np.isnan(det["t2"]))
    p_hat = one_sided / n
    assert abs(p_hat - 0.5) < 3 * np.sqrt(0.25 / n)


def test_single_hit_records_the_earlier_photon():
    # brute-force reimplementation of the assignment rules
    n = 2_000
    cfg = cfg_for(n, seed=42)
    rec = simulate_ensemble(cfg)
    det = assign_detections(rec)
    for i in range(n):
        d_f = _py_raw(cfg.seed, i, kern.SLOT_DETECTOR_FIRST) >> 63
        d_s = _py_raw(cfg.seed, i, kern.SLOT_DETECTOR_SECOND) >> 63
        expected = {0: np.nan, 1: np.nan}
        expected[d_s] = rec["t_s"][i]
        expected[d_f] = rec["t_f"][i]  # earlier photon wins the slot
        for detector, col in ((0, "t1"), (1, "t2")):
            got = det[col][i]
            want = expected[detector]
            assert (np.isnan(got) and np.isnan(want)) or got == want


def test_fates_tables_match_the_oracle_on_every_fates_byte():
    # one molecule per fates value, t_f < t_s: an ensemble at efficiency 1
    # shows only the 4 values with both keep bits set
    for fates in range(16):
        record = np.array([(1.0, 2.0, fates)], dtype=EMISSION_DTYPE)
        det = assign_detections(record)[0]
        for detector, col in ((0, "t1"), (1, "t2")):
            first, second = photons_kept_at(record["fates"], detector)
            assert (_KEPT_AT[detector][0][fates], _KEPT_AT[detector][1][fates]) == (first[0], second[0])
            want = {1.0: 1, 2.0: 2}.get(det[col], 0)  # NaN: no photon
            assert _RECORDED[detector][fates] == want, (fates, col)
        assert _COINCIDENT[fates] == (not np.isnan(det["t1"]) and not np.isnan(det["t2"])), fates


def test_detection_times_nonnegative_and_sources_match():
    cfg = cfg_for(10_000, seed=8)
    rec = simulate_ensemble(cfg)
    det = assign_detections(rec)
    times = np.concatenate([det["t1"][~np.isnan(det["t1"])], det["t2"][~np.isnan(det["t2"])]])
    assert np.all(times >= 0)
    emitted = set(np.concatenate([rec["t_f"], rec["t_s"]]).tolist())
    assert set(times.tolist()) <= emitted


def test_efficiency_thins_the_streams():
    n = 100_000
    cfg = cfg_for(n, seed=31, detector_efficiency=0.5)
    rec = simulate_ensemble(cfg)
    s1, s2 = concatenated_detector_streams(rec)
    kept = s1.size + s2.size
    # each of the 2n photons survives with p = 1/2: a 4-sigma upper bound
    # plus a loose lower bound
    assert kept < n * (1.0 + 4 * np.sqrt(0.5 / n)) + 4 * np.sqrt(n)
    assert kept > 0.8 * n


def test_multi_hit_keeps_every_photon():
    n = 50_000
    cfg = cfg_for(n, seed=61)
    rec = simulate_ensemble(cfg)
    s1, s2 = concatenated_detector_streams(rec)
    assert s1.size + s2.size == 2 * n


def test_coincidence_differences_sign_convention():
    cfg = cfg_for(5_000, seed=3)
    rec = simulate_ensemble(cfg)
    det = assign_detections(rec)
    tau = coincidence_differences(det)
    both = ~np.isnan(det["t1"]) & ~np.isnan(det["t2"])
    assert np.array_equal(tau, det["t1"][both] - det["t2"][both])
    gaps = rec["t_s"][both] - rec["t_f"][both]
    assert np.array_equal(np.abs(tau), gaps)


def test_mode_equivalence_kolmogorov_smirnov():
    # the two generation models share the joint law of (t_f, t_s) at the
    # compatibility point; KS at the 1% level on three observables
    from scipy.stats import ks_2samp

    n = 100_000
    seq = simulate_ensemble(cfg_for(n, mode="sequential", seed=101))
    ind = simulate_ensemble(cfg_for(n, mode="independent", seed=202))
    seq_det = assign_detections(seq)
    ind_det = assign_detections(ind)
    checks = [
        (seq["t_f"], ind["t_f"]),
        (seq["t_s"] - seq["t_f"], ind["t_s"] - ind["t_f"]),
        (coincidence_differences(seq_det), coincidence_differences(ind_det)),
    ]
    for a, b in checks:
        assert ks_2samp(a, b).pvalue > 0.01


@settings(max_examples=60, deadline=None)
@given(
    samples=st.lists(st.floats(-2.0, 3.0), max_size=300),
    width=st.floats(0.01, 1.0),
    lo=st.floats(-1.0, 1.0),
    span=st.floats(0.01, 2.0),
)
def test_histogram_conserves_counts(samples, width, lo, span):
    # every sample in [lo, hi) lands in one bin, also past the last whole
    # bin, and no other sample is counted: there is no overflow count
    hist = build_histogram(samples, width, (lo, lo + span))
    x = np.asarray(samples, dtype=float)
    assert hist.counts.sum() == np.count_nonzero((x >= lo) & (x < lo + span))


def test_histogram_basics():
    h = build_histogram([0.5, 0.5001, 0.4999], 1.0, (0.0, 1.0))
    assert h.counts.tolist() == [3]
    h = build_histogram(np.linspace(0, 0.999, 1000), 0.1, (0.0, 1.0))
    assert histogram_total(h) == 1000
    assert len(h.counts) == 10
    # half-open bins: a sample exactly at the upper edge is dropped
    h = build_histogram([0.0, 1.0], 0.5, (0.0, 1.0))
    assert histogram_total(h) == 1
    with pytest.raises(InvalidParameterError):
        build_histogram([1.0], 0.0, (0.0, 1.0))
    with pytest.raises(InvalidParameterError):
        build_histogram([1.0], 0.1, (1.0, 1.0))


def test_histogram_matches_exponential_density_within_poisson_bands():
    # per-bin Poisson band at the 4 sigma coverage level (exact quantiles,
    # which reduce to +/- 4 sqrt(mu) for well-populated bins)
    from scipy.stats import norm, poisson

    n = 1_000_000
    rec = simulate_ensemble(cfg_for(n, seed=55))
    samples = rec["t_f"]  # Exponential(2 Gamma)
    width = 0.1 / GAMMA
    h = build_histogram(samples, width, (0.0, 8.0 / GAMMA))
    g2 = RATES.gamma_f
    expected = n * (np.exp(-g2 * h.edges[:-1]) - np.exp(-g2 * h.edges[1:]))
    tail = norm.sf(4.0)
    lo = poisson.ppf(tail, expected)
    hi = poisson.ppf(1.0 - tail, expected)
    assert np.all((h.counts >= lo) & (h.counts <= hi))
