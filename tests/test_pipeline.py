"""End-to-end runs: configuration, artifacts, determinism, CLI surface."""

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoatom import amplitudes, eventsim, eventsio, grids, inference, pairstate, pipeline
from twoatom.cli import main as cli_main
from twoatom.amplitudes import first_emission_rate_ratio
from twoatom.config import AmplitudeParams
from twoatom.errors import ConfigValidationError, EventsFileError, InsufficientDataError
from twoatom.eventsim import CHUNK_MOLECULES, MODES, simulate_ensemble
from twoatom.eventsio import EVENTS_COLUMNS
from twoatom.grids import SpatialGrid
from twoatom.inference import fit_cumulative_curve, fit_exponential_mle
from twoatom.pairstate import make_two_atom_gaussian
from twoatom.pipeline import (
    ExperimentConfig,
    detection_pass,
    read_events_csv,
    reproduce_figure1,
    run_experiment,
    run_full,
    run_rate_derivation,
    write_events_csv,
)

from oracles import (
    assign_detections,
    build_histogram,
    coincidence_differences,
    concatenated_detector_streams,
    read_events_csv_loadtxt,
)


def small_config(tmp_path, **kw):
    defaults = dict(n0=20_000, seed=424242, output_dir=str(tmp_path / "out"))
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def read_report(path):
    with open(path) as fh:
        doc = json.load(fh)
    doc.pop("generated_at", None)
    return doc


def test_config_validation_lists_fields(tmp_path):
    cfg = small_config(tmp_path, n0=0, detector_efficiency=2.0)
    with pytest.raises(ConfigValidationError) as err:
        cfg.validate()
    assert "n0" in err.value.fields
    assert "detector_efficiency" in err.value.fields


def test_config_roundtrip(tmp_path):
    cfg = small_config(tmp_path, amplitude=AmplitudeParams(width_sum=3.0))
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


POSITIVE = st.floats(min_value=1e-300, max_value=1e300) | st.integers(1, 10**6)
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.integers()
VALID_CONFIGS = st.builds(
    ExperimentConfig,
    # n0 (<= 10^12) of the longest waits, 37.43 gamma_inverse over a factor
    # (>= 10^-6), must sum to a finite number
    gamma_inverse=st.floats(min_value=1e-300, max_value=1e280) | st.integers(1, 10**6),
    n0=st.integers(1, 10**12),
    mode=st.sampled_from(MODES),
    seed=st.integers(-2**70, 2**70),
    bins=st.integers(1, 10**6),
    t_max_lifetimes=POSITIVE,
    output_dir=st.text(),
    detector_efficiency=st.floats(0.0, 1.0, exclude_min=True) | st.just(1),
    workers=st.integers(1, 64),
    # factors within 10^6 of 1 keep every rate of such a gamma_inverse
    # positive and its longest wait finite
    gamma_f_factor=st.floats(min_value=1e-6, max_value=1e6) | st.integers(1, 10**6),
    gamma_s_factor=st.floats(min_value=1e-6, max_value=1e6) | st.integers(1, 10**6),
    atom_mass_kg=POSITIVE,
    length_unit_m=st.floats(min_value=1e-300, max_value=1e150) | st.integers(1, 10**6),
    amplitude=st.builds(
        AmplitudeParams,
        width_sum=POSITIVE,
        width_diff=POSITIVE,
        sigma=POSITIVE,
        recoil_k=FINITE,
        dt=st.floats(0.0, 1e300) | st.integers(0, 10**6),
        grid_points=st.integers(64, 10**6),
        grid_span_factor=st.floats(3.0, 1e300) | st.integers(3, 10**6),
        separations=st.lists(st.floats(0.0, 1e300) | st.integers(0, 10**6)).map(tuple),
    ),
)


@given(cfg=VALID_CONFIGS)
def test_valid_config_json_roundtrip(cfg):
    cfg.validate()
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "amplitude"] + [
    f"amplitude.{f.name}" for f in dataclasses.fields(AmplitudeParams)
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=8,
)


@pytest.mark.parametrize("field", FIELDS + ["amplitude"])
@settings(max_examples=20, deadline=None)
@example(value=None)
# a subnormal rate factor: a finite longest wait, but n0 of them overflow
@example(value=2.225073858507e-311)
@given(value=JSON_VALUES)
def test_any_json_value_fails_only_as_config_error(field, value):
    # the field takes the value, or the only error names that field; null
    # is a value of no field
    cfg = ExperimentConfig()
    try:
        cfg.set(field, value)
        cfg.validate()
    except ConfigValidationError as err:
        assert err.fields == [field]
    else:
        assert value is not None


def test_run_experiment_writes_artifacts(tmp_path):
    cfg = small_config(tmp_path)
    bundle = run_experiment(cfg)
    out = cfg.output_dir
    for name in (
        "events.csv",
        "hist_first.csv",
        "hist_second.csv",
        "hist_det1.csv",
        "hist_det2.csv",
        "hist_coincidence.csv",
        "report.json",
    ):
        assert os.path.exists(os.path.join(out, name)), name
    g = cfg.rates.gamma
    assert bundle.fits["first"]["rate_hat"] / g == pytest.approx(2.0, abs=0.05)
    assert bundle.fits["second_interval"]["rate_hat"] / g == pytest.approx(1.0, abs=0.03)
    assert bundle.fits["detector_1"]["rate_hat"] / g == pytest.approx(1.0, abs=0.03)
    assert bundle.fits["coincidence"]["rate_hat"] / g == pytest.approx(1.0, abs=0.05)


def test_events_csv_format(tmp_path):
    cfg = small_config(tmp_path, n0=50)
    run_experiment(cfg)
    lines = Path(cfg.output_dir, "events.csv").read_text().splitlines()
    assert lines[0] == "molecule_id,t_f,t_s,t1,t2"
    assert len(lines) == 51
    row = lines[1].split(",")
    assert row[0] == "0"
    for field in row[1:]:
        if field:
            # 17 significant digits, scientific notation, round-trip exact
            mantissa = field.split("e")[0]
            digits = mantissa.replace("-", "").replace(".", "")
            assert len(digits) == 17
            assert f"{float(field):.16e}" == field


def test_rerun_is_byte_identical(tmp_path):
    cfg_a = small_config(tmp_path, output_dir=str(tmp_path / "a"))
    cfg_b = small_config(tmp_path, output_dir=str(tmp_path / "b"))
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    ev_a = Path(cfg_a.output_dir, "events.csv").read_bytes()
    ev_b = Path(cfg_b.output_dir, "events.csv").read_bytes()
    assert ev_a == ev_b
    rep_a = read_report(os.path.join(cfg_a.output_dir, "report.json"))
    rep_b = read_report(os.path.join(cfg_b.output_dir, "report.json"))
    rep_a["config_echo"].pop("output_dir")
    rep_b["config_echo"].pop("output_dir")
    rep_a.pop("curve_tables")
    rep_b.pop("curve_tables")
    assert rep_a == rep_b


# sha256 of every artifact and the exact fits of a 40 000-molecule run
# (several draw chunks, efficiency 0.7 so the keep flags matter), frozen
# from the implementation that hashed the whole ensemble in one block and
# re-hashed the photon fates per consumer; the figure overlays of the same
# config are pinned from the implementation that histogrammed the whole
# records and the whole detector-1 stream
GOLDEN = {
    "sequential": (
        {
            "events.csv": "c66c34de7606d51835c3aef4508f672aa7433e8e0ec621b9aa7a5d6f60469576",
            "hist_first.csv": "a1c65ff76ca2cb44c1aa91317ccc029655082ed0e35e24811eb992048f258c74",
            "hist_second.csv": "616fe66d362938c921175e64475abf0c118eb9d3177c6f3075b03da74f74d5d0",
            "hist_det1.csv": "30edde6df4755e6a592cdc2e37a1c648a5b3722b397476ab6aab00a8ea0b7e9c",
            "hist_det2.csv": "f3836e9956b5bc982a547cee7b934d1c630fe7fcd8914c62386364a5637505fa",
            "hist_coincidence.csv": "154ea79cddac5b52f87bd1f54d9245fa20143ffde21fa1b988be6f6b20a9bde3",
            "fig1_overlay_first.csv": "57bbaac437a340bc38011c15b5eddd9cd0c5626c78cdb9537f2caf7f0547daa7",
            "fig1_overlay_second.csv": "a4867a4067da577a96a862067f046916f920589a3bfa06decdc765b30a39052b",
            "fig1_overlay_detector.csv": "652ac5d994cde8c86051c03fa32d6a05ac1914ad716a2c1711d53e3a18adc907",
        },
        {
            "first": {"rate_hat": 1243781832.9737566, "std_error": 6218909.164868783,
                      "n_samples": 40000, "method": "mle", "goodness": 0.005188069935346207},
            "second_interval": {"rate_hat": 626362856.656217, "std_error": 3131814.283281085,
                                "n_samples": 40000, "method": "mle", "goodness": 0.004559336663950142},
            "detector_1": {"rate_hat": 626466967.6861119, "std_error": 217145.19896415155,
                           "n_samples": 28096, "method": "histogram-lsq", "goodness": 0.0007274428491397716},
            "detector_2": {"rate_hat": 627405467.1057543, "std_error": 220668.62779990686,
                           "n_samples": 28017, "method": "histogram-lsq", "goodness": 0.0007508627195455335},
            "coincidence": {"rate_hat": 619954339.4959519, "std_error": 6229831.706877608,
                            "n_samples": 9903, "method": "mle", "goodness": 0.004751872272443267},
        },
    ),
    "independent": (
        {
            "events.csv": "f67e326ccdd44cffc04b6226aefa6be72f982b50a399dad5dea974608337c46e",
            "hist_first.csv": "d852b14322fc4386da238a3f8266ba96480a4685f7cdd2af29dd5a32ad7094c5",
            "hist_second.csv": "f18444473f924baa9dbf6e65d64dfa0d18b4d8ef48d58091e60969dd81c7af80",
            "hist_det1.csv": "4e99e7dcd7b21bba2c81e6a9ecf1e17d85432721f5ee38ecabc8a71e8e27f4f9",
            "hist_det2.csv": "c43ad3bc94e6ea73ca0ba04d134e9f88c46edf546dafed0b44d3aa55c6f0ad69",
            "hist_coincidence.csv": "d682024ec8e2667b8f10b6b4e738e5bc0034ec8ef731fd55170dd5c3486a3c56",
            "fig1_overlay_first.csv": "dbaee4a776c5d8cfead47ccfc34d6f8a411ab829e4f1a6af640296edecd289d5",
            "fig1_overlay_second.csv": "e1b2e23d80243cd352bc92e66edd66cb6fd7d84ca803cd4f3b4200de18ada58f",
            "fig1_overlay_detector.csv": "8da60b818c8264ea4292aba9aa9c23214e4932f6a4ad02ca57bd7a2007c6aed5",
        },
        {
            "first": {"rate_hat": 1252227072.2818148, "std_error": 6261135.361409074,
                      "n_samples": 40000, "method": "mle", "goodness": 0.00504046263113922},
            "second_interval": {"rate_hat": 622136884.7590092, "std_error": 3110684.4237950463,
                                "n_samples": 40000, "method": "mle", "goodness": 0.002367593460760875},
            "detector_1": {"rate_hat": 624701136.2278432, "std_error": 471260.11068262847,
                           "n_samples": 28096, "method": "histogram-lsq", "goodness": 0.0016193360683602804},
            "detector_2": {"rate_hat": 631936103.7477561, "std_error": 173356.33441562756,
                           "n_samples": 28017, "method": "histogram-lsq", "goodness": 0.0005938569390970672},
            "coincidence": {"rate_hat": 623672478.585843, "std_error": 6267194.750116594,
                            "n_samples": 9903, "method": "mle", "goodness": 0.00709854947351235},
        },
    ),
}


@pytest.mark.parametrize("mode, workers", [("sequential", 1), ("independent", 2)])
def test_golden_artifact_bytes(tmp_path, mode, workers):
    digests, fits = GOLDEN[mode]
    cfg = small_config(tmp_path, n0=40_000, mode=mode, seed=20261018,
                       detector_efficiency=0.7, workers=workers)
    bundle = run_experiment(cfg, write_events=True)
    reproduce_figure1(cfg, overlay=True)
    for name, digest in digests.items():
        with open(os.path.join(cfg.output_dir, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name
    assert bundle.fits == fits


def test_worker_count_does_not_change_outputs(tmp_path):
    cfg_a = small_config(tmp_path, output_dir=str(tmp_path / "w1"), workers=1)
    cfg_b = small_config(tmp_path, output_dir=str(tmp_path / "w3"), workers=3)
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    ev_a = Path(cfg_a.output_dir, "events.csv").read_bytes()
    ev_b = Path(cfg_b.output_dir, "events.csv").read_bytes()
    assert ev_a == ev_b


def test_figure1_table(tmp_path):
    cfg = small_config(tmp_path)
    path = reproduce_figure1(cfg)
    rows = np.genfromtxt(path, delimiter=",", names=True)
    assert rows.size >= 400
    # dimensionless columns at t = 0: (n_f, n_s, n_i) = (2, 0, 1)
    assert rows["t"][0] == 0.0
    assert rows["n_f"][0] == pytest.approx(2.0, abs=1e-12)
    assert rows["n_s"][0] == pytest.approx(0.0, abs=1e-12)
    assert rows["n_i"][0] == pytest.approx(1.0, abs=1e-12)
    # the compatibility identity holds row by row
    assert np.max(np.abs(rows["n_f"] + rows["n_s"] - 2 * rows["n_i"])) < 1e-12
    # SI columns scale with the configured rate
    g = cfg.rates.gamma
    assert np.allclose(rows["n_f_si"], rows["n_f"] * g, rtol=1e-12)


def test_figure1_overlay_within_bands(tmp_path):
    cfg = small_config(tmp_path, n0=200_000)
    reproduce_figure1(cfg, overlay=True)
    for kind in ("first", "second", "detector"):
        rows = np.genfromtxt(
            os.path.join(cfg.output_dir, f"fig1_overlay_{kind}.csv"),
            delimiter=",",
            names=True,
        )
        # simulated density within the 4 sigma band around the curve for
        # all well-populated bins
        populated = rows["band"] < 0.5 * np.maximum(rows["curve"], 1e-30)
        assert np.all(np.abs(rows["density"] - rows["curve"])[populated] <= rows["band"][populated])


def test_rate_derivation_entries(tmp_path):
    cfg = small_config(tmp_path, amplitude=AmplitudeParams(grid_points=256))
    entries = run_rate_derivation(cfg)
    cases = {e["case"] for e in entries}
    assert {
        "entangled-main",
        "second-emission",
        "prop1-nonentangled",
        "prop2-nonsymmetrized",
        "prop3-entangled-final",
        "prop4-entangled-second",
    } <= cases
    with open(os.path.join(cfg.output_dir, "rates.json")) as fh:
        on_disk = json.load(fh)
    assert on_disk == entries
    report_fields = {
        "ratio",
        "completeness_sum",
        "norm_coefficient_used",
        "case_label",
        "basis_convention",
    }
    for e in entries:
        assert set(e["report"]) == report_fields


# sha256 of rates.json on a 256-point grid, frozen from the implementation
# in which the second-emission ratio and the prop1 case each carried their
# own copy of the amplitude and rate formulas
GOLDEN_RATES_256 = "756a8c808f0d8cc6c41480607fe45a69612b7c9676dbd614cbd9925e0937ea9a"


def test_golden_rates_bytes(tmp_path):
    cfg = small_config(tmp_path, amplitude=AmplitudeParams(grid_points=256))
    run_rate_derivation(cfg)
    with open(os.path.join(cfg.output_dir, "rates.json"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == GOLDEN_RATES_256


# sha256 of rates.json on a 320-point grid (2^6 * 5), where pocketfft
# factorizes the transforms differently than at a power of two; frozen from
# the implementation that propagated each channel with its own phase block
GOLDEN_RATES_320 = "06816499bc654196951449e89af158e5d2e42c79746d6edb8b3522baa3e8d4d0"


def test_golden_rates_bytes_off_a_power_of_two(tmp_path):
    cfg = small_config(tmp_path, amplitude=AmplitudeParams(grid_points=320))
    run_rate_derivation(cfg)
    with open(os.path.join(cfg.output_dir, "rates.json"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == GOLDEN_RATES_320


def test_rate_stage_takes_each_whole_kernel_product_once(tmp_path, monkeypatch):
    # one propagation at dt > 0, of the state's one channel: its kernel is
    # exchange-symmetric, so C2 is C1; four whole-kernel vdots: the state's
    # swap overlap (its dt = 0 cross term, shared by the identity, prop3 and
    # prop4 cases), the cross term at dt > 0, and one per full-basis prop1
    # study, each on its own product channels; and three product channels:
    # the orthogonal pair's two, which its three studies share, and the one
    # that serves both slots of the identical pair
    n = 128
    calls = {"propagate_kernel": 0, "vdot": 0, "channel": 0}
    propagated = []

    def counted(name, fn, whole=lambda *a: True):
        def wrapper(*args, **kwargs):
            calls[name] += whole(*args)
            return fn(*args, **kwargs)
        return wrapper

    def propagate(kernels, grid, dt, propagate_kernel=pairstate.propagate_kernel):
        calls["propagate_kernel"] += 1
        propagated.append(len(kernels))
        return propagate_kernel(kernels, grid, dt)

    monkeypatch.setattr(pairstate, "propagate_kernel", propagate)
    monkeypatch.setattr(amplitudes, "propagate_kernel", propagate)
    monkeypatch.setattr(np, "vdot", counted("vdot", np.vdot, lambda a, b: np.shape(a) == (n, n)))
    monkeypatch.setattr(pairstate, "_outer", counted("channel", pairstate._outer))
    run_rate_derivation(small_config(tmp_path, amplitude=AmplitudeParams(grid_points=n)))
    assert calls == {"propagate_kernel": 1, "vdot": 4, "channel": 3}
    assert propagated == [1]


def traced_peak(call) -> int:
    """Peak bytes that `call()` allocates above what is allocated before it."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_rate_stage_peak_memory(tmp_path):
    # the rate stage holds two dense complex kernels of 16 n^2 bytes at a
    # time: the state's kernel and its evolved copy, then, with the state
    # gone, prop1's two product channels.  Its sums of |.|^2 hold one leaf
    # per thread, and the flight's phase a few rows; at 512 points these
    # read 0.15 kernels on 1 and 2 CPUs
    n = 512
    cfg = small_config(tmp_path, amplitude=AmplitudeParams(grid_points=n))
    assert traced_peak(lambda: run_rate_derivation(cfg)) <= 2.3 * 16 * n * n


def test_symmetric_state_peak_memory():
    # building the state, checking its symmetry and taking its normalization
    # hold its kernel and the rows that synthesize it (0.3 kernels at 512
    # points on 1 and 2 CPUs), no transposed copy and no |Psi|^2; a flight
    # then holds one evolved channel above the state, and its phase rows
    # (0.13 kernels) or one leaf of |e|^2 per thread: 1.15 kernels on 2
    # CPUs, and up to 1.26 on 32 simulated ones
    n = 512
    kernel = 16 * n * n
    grid = SpatialGrid.centered(16.0, n)
    assert traced_peak(lambda: make_two_atom_gaussian(2.0, 1.0, grid).norm_coefficient) <= 1.4 * kernel
    state = make_two_atom_gaussian(2.0, 1.0, grid)
    assert traced_peak(lambda: first_emission_rate_ratio(state, 1.5)) <= 1.3 * kernel


def test_sum_abs2_holds_one_leaf_per_thread():
    # no real array of the summed array's size: each thread squares one
    # leaf at a time
    a = np.ones((1024, 1024), complex)
    bound = grids.thread_count() * grids.SUM_LEAF * 8 + 2**16
    assert traced_peak(lambda: grids.sum_abs2(a)) <= bound
    assert traced_peak(lambda: grids.sum_abs2(a.T)) <= bound


def test_rate_stage_peak_memory_on_many_cpus(tmp_path, monkeypatch):
    # more threads take smaller row blocks, down to one row each on
    # ROWS_IN_FLIGHT threads, so their temporaries do not add up with the
    # number of CPUs.  The sums' leaves do, up to one per thread, but a
    # thread is started while the one before squares its leaf, and the
    # peak stays within that of test_rate_stage_peak_memory (2.2 kernels
    # at 512 points on 2 CPUs)
    monkeypatch.setattr(grids, "usable_cpus", lambda: 64)
    assert grids.thread_count() == grids.ROWS_IN_FLIGHT
    n = 512
    cfg = small_config(tmp_path, amplitude=AmplitudeParams(grid_points=n))
    assert traced_peak(lambda: run_rate_derivation(cfg)) <= 2.3 * 16 * n * n


def test_event_stage_peak_memory(tmp_path, monkeypatch):
    # the records (17 B/molecule) and, on 2 threads, at most about 2.5
    # B/molecule more at 2*10^5 (19.5 measured), where the fixed buffers
    # weigh most: no fit holds a sample.  The MLE fits walk the records
    # unit by unit (each sample's sum, extremes and one shared table of
    # bucket counts), then gather the items that can reach each KS distance;
    # the detector streams are sorted inside the records' own bytes; the
    # draws and the detection pass take pieces of about n0 / 64 molecules
    monkeypatch.setattr(grids, "usable_cpus", lambda: 2)
    n0 = 200_000
    cfg = small_config(tmp_path, n0=n0)
    assert traced_peak(lambda: run_experiment(cfg, write_events=False)) <= 20 * n0


def test_event_stage_peak_memory_on_many_cpus(tmp_path, monkeypatch):
    # on 32 threads each MLE fit still counts into one shared table of
    # buckets, the detection pass into one table set, and the stream stage
    # fills one piece at a time on the calling thread, with no piece copy.
    # What grows with the threads is the detection pass's piece
    # temporaries, a bincount each, per thread (`eventsim.pieces`: 16
    # threads over pieces of 2^13 molecules at 10^6): 19.1 B/molecule in
    # all (19.5 with a table set per thread)
    monkeypatch.setattr(grids, "usable_cpus", lambda: 64)
    assert grids.thread_count() == grids.ROWS_IN_FLIGHT
    n0 = 10**6
    cfg = small_config(tmp_path, n0=n0)
    assert traced_peak(lambda: run_experiment(cfg, write_events=False)) <= 25 * n0


def test_detection_pass_counts_into_one_table_set_on_many_cpus(monkeypatch):
    # the counting threads add each bincount into one table set under a
    # lock as soon as it is made.  In tables of 16*(bins + 1) ints, 4
    # threads at 2^17 molecules and bins = 10^5 on 64 CPUs hold the t_f and
    # the t_s table, the coincidence row (1/8 of a table) and a bincount
    # each: 6.3 measured, 12.7 with a table set per thread
    monkeypatch.setattr(grids, "usable_cpus", lambda: 64)
    n0, bins = 2**17, 10**5
    assert eventsim.pieces(n0)[1] == 4
    cfg = ExperimentConfig(n0=n0, bins=bins, seed=5)
    records = simulate_ensemble(cfg)
    table = 16 * (bins + 1) * np.dtype(np.intp).itemsize
    assert traced_peak(lambda: detection_pass(records, cfg)) <= 10 * table


def test_detector_stream_stage_holds_no_stream_of_its_own(monkeypatch):
    # both streams are written, sorted and fitted inside the records' own
    # bytes: above the records, the temporaries of the one piece being
    # filled, on the calling thread, 0.46 MiB at 10^6 on 2 CPUs
    monkeypatch.setattr(grids, "usable_cpus", lambda: 2)
    records = simulate_ensemble(ExperimentConfig(n0=10**6, seed=17))
    assert traced_peak(lambda: pipeline._detector_fits(records)) <= 2**20


def test_events_writer_peak_does_not_grow_with_n0(tmp_path, monkeypatch):
    # the bytes of at most thread_count() chunks are alive at once, about
    # 8 MiB a chunk, whatever the number of rows
    monkeypatch.setattr(grids, "thread_count", lambda: 2)
    path = str(tmp_path / "events.csv")
    for n0 in (2**16, 2**20):
        records = simulate_ensemble(ExperimentConfig(n0=n0, seed=4, detector_efficiency=0.7))
        assert traced_peak(lambda: write_events_csv(path, records)) <= 2 * 10 * 2**20, n0


def test_fit_peak_memory_per_row(tmp_path):
    # the five float columns (40 B/row) while the file is read, plus the
    # ~6 MiB of temporaries of one READ_BLOCK block, which do not grow
    # with the rows; no text of the file is held.  Then molecule_id goes,
    # t1 and t2 go once the counters and tau are taken, and the fits hold
    # t_f, t_s and one sample at most, sorted in place
    path = str(tmp_path / "events.csv")
    cfg = ExperimentConfig(output_dir=str(tmp_path / "fit"))
    for n0 in (2**16, 2**20):
        write_events_csv(path, simulate_ensemble(ExperimentConfig(n0=n0, seed=4, detector_efficiency=0.7)))
        assert traced_peak(lambda: pipeline.run_fit(cfg, path)) <= 40 * n0 + 8 * 2**20, n0


def test_cli_grid_too_large_for_memory_exits_2(tmp_path):
    # one 20000-point kernel takes 6 GiB; the child caps its own address
    # space at 3 GiB, so the allocation fails whatever the host's
    # overcommit policy
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
        f"sys.path.insert(0, {src!r})\n"
        "from twoatom.cli import main\n"
        f"sys.exit(main(['rates', '--set', 'amplitude.grid_points=20000', '--out', {str(tmp_path)!r}]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "amplitude.grid_points" in proc.stderr and "5.96 GiB" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [[], ["--set", "amplitude.grid_span_factor=40"]], ids=["default-span", "wider-span"])
@pytest.mark.parametrize("narrow, wide", [("width_diff", "width_sum"), ("width_sum", "width_diff")])
def test_cli_grid_too_coarse_for_the_narrower_mode_exits_2(tmp_path, capsys, args, narrow, wide):
    # a mode of width 0.05 / (2 sqrt 2) = 0.018 on a grid that samples it at
    # 0.063 / sqrt 2: no span holds its mass, a wider one only coarsens
    # the grid, so the error names the fields that set the spacing
    out = tmp_path / "out"
    code = cli_main(["rates", "--set", f"amplitude.{narrow}=0.05", *args, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert err.startswith("configuration error: amplitude.grid_points, amplitude.grid_span_factor,"
                          f" amplitude.{narrow}: ")
    assert "too coarse for the state's narrower mode" in err and f"amplitude.{wide}" not in err
    assert not out.exists()


@pytest.mark.parametrize("args, field", [
    (["simulate", "--n0", "1000000000000"], "n0"),  # 17 B per molecule: 15.5 TiB of records
    (["simulate", "--n0", "1000", "--set", "bins=1000000000"], "bins"),  # 7.45 GiB of edges, 238 GiB of counts
    (["fig1", "--overlay", "--n0", "1000000000000"], "n0"),  # the overlay's ensemble, before fig1.csv
    # past what numpy can address: 10.2 EB of records, 512 EB of counts, and
    # the rate stage's 16 * 10^40 B kernel, refused before numpy is asked
    (["simulate", "--n0", "600000000000000000"], "n0"),
    (["simulate", "--n0", "1000", "--set", "bins=2000000000000000000"], "bins"),
    (["rates", "--set", "amplitude.grid_points=100000000000000000000"], "amplitude.grid_points"),
])
def test_cli_event_stage_too_large_for_memory_exits_2(tmp_path, args, field):
    # the child caps its own address space at 2 GiB, so the allocation
    # fails whatever the host's overcommit policy
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    out = str(tmp_path / "out")
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        f"sys.path.insert(0, {src!r})\n"
        "from twoatom.cli import main\n"
        f"sys.exit(main([*{args!r}, '--out', {out!r}]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert f"{field} = " in proc.stderr and "does not fit in memory" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not os.path.exists(out)


def test_cli_fit_too_large_for_memory_exits_2(tmp_path):
    # the reader sizes its five float columns by the file's line ends, so
    # 6*10^7 blank lines ask for 2.24 GiB; the child caps its own address
    # space at 2 GiB, so the allocation fails whatever the host's
    # overcommit policy
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    events, out = tmp_path / "events.csv", str(tmp_path / "out")
    with open(events, "wb") as fh:
        fh.write(b"molecule_id,t_f,t_s,t1,t2\n")
        fh.write(b"\n" * 60_000_000)
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        f"sys.path.insert(0, {src!r})\n"
        "from twoatom.cli import main\n"
        f"sys.exit(main(['fit', '--events', {str(events)!r}, '--out', {out!r}]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert str(events) in proc.stderr and "does not fit in memory" in proc.stderr and "2.24 GiB" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not os.path.exists(out)


def test_cli_memory_error_on_a_worker_thread_exits_2(tmp_path, monkeypatch):
    # a dense pass re-raises what its worker threads raise, so a grid that
    # runs out of memory in a thread's row block is reported like one that
    # fails the kernel's own allocation
    main_thread = threading.main_thread()
    sample = pairstate.sample_packet

    def sample_on_the_main_thread(packet, x):
        if threading.current_thread() is not main_thread:
            raise MemoryError
        return sample(packet, x)

    monkeypatch.setattr(grids, "usable_cpus", lambda: 2)
    monkeypatch.setattr(pairstate, "sample_packet", sample_on_the_main_thread)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_main(["rates", "--set", "amplitude.grid_points=256", "--out", str(tmp_path)])
    assert code == 2
    assert "amplitude.grid_points" in err.getvalue() and "Traceback" not in err.getvalue()


def test_cli_packets_off_the_grid_exit_2(tmp_path, capsys, monkeypatch):
    # a grid of half-width 8 * 0.5 = 4 cannot hold the prop1 packets at
    # +/-6 sigma; the run names the field that widens it, not a wrong ratio,
    # and says so before it builds the state or makes the output directory
    def no_state(*args):
        raise AssertionError("the two-atom state was built")

    monkeypatch.setattr(pipeline, "make_two_atom_gaussian", no_state)
    for command in ("rates", "properties"):
        out = tmp_path / command
        code = cli_main([command, "--set", "amplitude.width_sum=0.5", "--set", "amplitude.width_diff=0.5",
                         "--set", "amplitude.grid_points=256", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, command
        assert "amplitude.grid_span_factor" in err and "Traceback" not in err
        assert not out.exists(), command


@pytest.mark.parametrize("args, fields", [
    # the rate stage's closed-form sweep overflows before any file is written
    (["rates", "--set", "amplitude.dt=1e-300"], ["amplitude.dt"]),
    (["rates", "--set", "amplitude.separations=[1e300]"], ["amplitude.separations"]),
    # a derived rate underflows to 0, or its longest wait leaves the float range
    (["simulate", "--n0", "50", "--set", "gamma_inverse=1e300", "--set", "gamma_s_factor=1e-300"],
     ["gamma_inverse", "gamma_s_factor"]),
    (["simulate", "--n0", "50", "--set", "gamma_s_factor=5e-324"], ["gamma_s_factor"]),
    (["simulate", "--n0", "50", "--set", "gamma_inverse=1e307"], ["gamma_inverse"]),
    # n0 waits, as a fit's mean sums them, leave the float range
    (["simulate", "--n0", "50", "--set", "gamma_inverse=3e306"], ["n0", "gamma_inverse"]),
    # a mode width of the state underflows, or the flight's phase overflows
    (["rates", "--set", "amplitude.width_diff=5e-324"], ["amplitude.width_diff"]),
    (["rates", "--set", "amplitude.dt=7.9e307"], ["amplitude.dt"]),
    # the spread packets' overlap is NaN, so the second-emission ratio is too
    (["rates", "--set", "amplitude.dt=1e300"], ["amplitude.dt"]),
    # a grid spacing of ~1e299 resolves no packet: too coarse, not too narrow
    (["rates", "--set", "amplitude.grid_span_factor=1e300"], ["amplitude.grid_points", "amplitude.grid_span_factor"]),
    (["rates", "--set", "amplitude.width_sum=1e300"],
     ["amplitude.grid_points", "amplitude.grid_span_factor", "amplitude.width_sum"]),
], ids=["dt", "separations", "gamma_s-underflows", "gamma_s-wait-overflows", "gamma-wait-overflows",
        "n0-waits-overflow", "width_diff-underflows", "dt-phase-overflows", "dt-overlap-nan",
        "span-too-coarse", "width-too-coarse"])
def test_cli_values_out_of_the_float_range_exit_2_without_output(tmp_path, capsys, args, fields):
    out = tmp_path / "out"
    code = cli_main([*args, "--set", "amplitude.grid_points=64", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: ") and "Traceback" not in err
    assert all(field in err for field in fields)
    if args[0] == "simulate":  # the fields set, then every field that sets the rates
        assert err.startswith(f"configuration error: {', '.join(fields)}: ")
        assert all(name in err for name in ("gamma_inverse", "gamma_f_factor", "gamma_s_factor"))
    assert not out.exists()


@settings(max_examples=12, deadline=None)
@given(
    n0=st.sampled_from([1, 2, 2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 7]),
    efficiency=st.floats(0.0, 1.0, exclude_min=True),
    mode=st.sampled_from(MODES),
    seed=st.integers(0, 2**32 - 1),
    bins=st.integers(1, 400),
    t_max_lifetimes=st.floats(1e-30, 50.0),
)
@example(n0=3 * 2**14 + 7, efficiency=0.7, mode="sequential", seed=5, bins=80, t_max_lifetimes=8.0)
@example(n0=3 * 2**14 + 7, efficiency=1.0, mode="independent", seed=6, bins=80, t_max_lifetimes=8.0)
# every time far past the range: no bin index may overflow its cast
@example(n0=2**14 + 1, efficiency=0.7, mode="sequential", seed=7, bins=80, t_max_lifetimes=1e-30)
@example(n0=2**14 + 1, efficiency=0.7, mode="independent", seed=8, bins=1, t_max_lifetimes=8.0)
def test_detection_pass_matches_whole_arrays(n0, efficiency, mode, seed, bins, t_max_lifetimes):
    # the per-chunk pass against the detection functions on whole arrays
    cfg = ExperimentConfig(n0=n0, mode=mode, seed=seed, detector_efficiency=efficiency, bins=bins,
                           t_max_lifetimes=t_max_lifetimes)
    records = simulate_ensemble(cfg)
    hists, coincident, counters = detection_pass(records, cfg)
    det = assign_detections(records)
    want_tau = coincidence_differences(det)
    d1, _ = concatenated_detector_streams(records)
    t_hi = cfg.t_max_lifetimes / cfg.rates.gamma
    samples = {
        "first": (records["t_f"], 0.0),
        "second": (records["t_s"], 0.0),
        "det1": (det["t1"][~np.isnan(det["t1"])], 0.0),
        "det2": (det["t2"][~np.isnan(det["t2"])], 0.0),
        "coincidence": (want_tau, -t_hi),
        "detector": (d1, 0.0),
    }
    assert set(hists) == set(samples)
    for name, (x, lo) in samples.items():
        want = build_histogram(x, t_hi / cfg.bins, (lo, t_hi))
        assert hists[name].edges.tobytes() == want.edges.tobytes(), name
        assert np.array_equal(hists[name].counts, want.counts), name
        # count conservation: each sample in [lo, hi) is counted once, and
        # no other sample is counted
        assert want.counts.sum() == np.count_nonzero((x >= lo) & (x < t_hi)), name
    # the coincidences' bits, and the fits' samples made from them and the
    # records in any rows: t_f, t_s - t_f and |tau|
    both = ~np.isnan(det["t1"]) & ~np.isnan(det["t2"])
    assert coincident.tobytes() == np.packbits(both).tobytes()
    rows, make, at = pipeline._record_samples(records, coincident)
    assert rows == n0
    assert [int(ends[-1]) for ends in at(np.array([0, n0]))] == [n0, n0, want_tau.size]
    cuts = sorted({0, n0, *np.random.default_rng(seed).integers(0, n0 + 1, 5).tolist()})
    made = [make(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    for i, want in enumerate((records["t_f"], records["t_s"] - records["t_f"], np.abs(want_tau))):
        assert np.concatenate([np.empty(0), *(m[i] for m in made)]).tobytes() == want.tobytes(), i
    recorded = [int(np.count_nonzero(~np.isnan(det[c]))) for c in ("t1", "t2")]
    assert counters == {"recorded_1": recorded[0], "recorded_2": recorded[1], "coincidences": want_tau.size}


def _fit_bits(fit) -> tuple:
    """A FitResult's fields, floats as exact bits, or the error's repr."""
    if isinstance(fit, Exception):
        return (repr(fit),)
    return tuple(float.hex(v) if isinstance(v, float) else v for v in dataclasses.astuple(fit))


def _whole_array_fit(sample) -> tuple:
    try:
        return _fit_bits(fit_exponential_mle(sample))
    except InsufficientDataError as exc:
        return _fit_bits(exc)


@settings(max_examples=25, deadline=None)
@given(
    # 1-3 molecules leave 0, 1 or 2 coincidences at most; the others leave
    # a ragged last unit at every unit size below
    n0=st.sampled_from([1, 2, 3, 7, 100, 2**13 - 1, 2**14 + 1, 3 * 2**14 + 7, 2**17 + 4099]),
    seed=st.integers(0, 2**32 - 1),
    efficiency=st.floats(0.0, 1.0, exclude_min=True),
    mode=st.sampled_from(MODES),
    threads=st.sampled_from([1, 2, 3, 7]),
    # the most rows in flight, and the rows in flight per thread
    # (`grids.threads_for`): small ones make many small units, over which
    # the leaves of |tau|'s pairwise sum straddle, also across the
    # threads' runs
    in_flight=st.sampled_from([2**8, 2**11, 2**14, inference.ROWS_IN_FLIGHT]),
    leaf=st.sampled_from([128, 1000, grids.SUM_LEAF]),
)
@example(n0=3, seed=1, efficiency=1.0, mode="sequential", threads=7, in_flight=2**8, leaf=128)
@example(n0=2**17 + 4099, seed=2, efficiency=0.7, mode="independent", threads=3, in_flight=2**11, leaf=1000)
def test_shared_walk_equals_the_whole_array_fits(n0, seed, efficiency, mode, threads, in_flight, leaf):
    # one walk of two passes over the records' units gives the three MLE
    # fits that fit_exponential_mle gives on the whole-array samples:
    # t_f, t_s - t_f and |tau| of the coincidences, and the first pass's
    # accumulators of each sample equal those of the whole array: each leaf
    # sum of numpy's pairwise tree, the extremes and the bucket counts.  A
    # short switch interval makes the threads interleave, so the parts of
    # a leaf that straddles two threads' runs arrive in either order
    cfg = ExperimentConfig(n0=n0, seed=seed, detector_efficiency=efficiency, mode=mode)
    records = simulate_ensemble(cfg)
    _, coincident, _ = detection_pass(records, cfg)
    tau = coincidence_differences(assign_detections(records))
    samples = (records["t_f"], records["t_s"] - records["t_f"], np.abs(tau))
    want = [_whole_array_fit(x) for x in samples]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(grids, "thread_count", lambda: threads), \
                mock.patch.object(inference, "ROWS_IN_FLIGHT", in_flight), mock.patch.object(grids, "SUM_LEAF", leaf):
            got = [_fit_bits(fit) for fit in inference._mle(*pipeline._record_samples(records, coincident))]
            walk = inference._Walk(*pipeline._record_samples(records, coincident))
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    for tally, x in zip(walk.samples, samples):
        x = np.ascontiguousarray(x)
        leaf_sums = np.array([np.add.reduce(x[part]) for part in tally.sum.leaves])
        assert tally.sum.sums.tobytes() == leaf_sums.tobytes()
        if x.size:
            assert (tally.least, tally.greatest) == (x.min(), x.max())
        assert np.array_equal(tally.counts, np.bincount(tally.keys(x), minlength=tally.buckets))


@pytest.mark.parametrize("threads", [1, 2, 3, 7])
def test_fit_stage_makes_each_unit_twice(tmp_path, monkeypatch, threads):
    # the three MLE fits make each unit of the records' samples once per
    # pass, and nothing more but the spans of at most 32 rows, n0 // 16
    # apart, whose items set the buckets' scale
    monkeypatch.setattr(grids, "thread_count", lambda: threads)
    monkeypatch.setattr(inference, "ROWS_IN_FLIGHT", 2**14)
    n0 = 2**19 + 4099
    made = np.zeros(n0, np.intp)
    spans = []
    record_samples = pipeline._record_samples

    def counted(records, coincident):
        n, make, at = record_samples(records, coincident)

        def counting(lo, hi):
            if hi - lo <= 32:
                spans.append((lo, hi))
            else:
                made[lo:hi] += 1
            return make(lo, hi)

        return n, counting, at

    monkeypatch.setattr(pipeline, "_record_samples", counted)
    bundle = run_experiment(small_config(tmp_path, n0=n0, detector_efficiency=0.7), write_events=False)
    assert {"first", "second_interval", "coincidence"} <= set(bundle.fits)
    assert np.all(made == 2)
    assert len(spans) <= 17


def test_detection_pass_takes_no_per_chunk_detection_records(tmp_path, monkeypatch):
    # the pass counts (fates, bin) pairs and builds neither the detection
    # records nor a detector stream; the fit stage sorts both streams once,
    # over the records
    calls = {"sorted_detector_streams": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        wrapper = counted(name, getattr(eventsim, name))
        for module in (eventsim, pipeline):
            monkeypatch.setattr(module, name, wrapper, raising=False)
    run_experiment(small_config(tmp_path, n0=3 * 2**14 + 7), write_events=False)
    assert calls == {"sorted_detector_streams": 1}
    assert not hasattr(eventsim, "assign_detections")


def test_simulate_and_fit_report_equal_counters(tmp_path):
    # the counters of `simulate` come from the pass, those of `fit` from
    # the columns of the events.csv that `simulate` wrote
    out, refit = str(tmp_path / "sim"), str(tmp_path / "refit")
    flags = ["--n0", str(3 * 2**14 + 7), "--seed", "17", "--set", "detector_efficiency=0.7"]
    assert cli_main(["simulate", *flags, "--out", out]) == 0
    assert cli_main(["fit", *flags, "--events", os.path.join(out, "events.csv"), "--out", refit]) == 0
    counters = read_report(os.path.join(out, "report.json"))["counters"]
    assert read_report(os.path.join(refit, "report.json"))["counters"] == counters
    cfg = ExperimentConfig(n0=3 * 2**14 + 7, seed=17, detector_efficiency=0.7)
    det = assign_detections(simulate_ensemble(cfg))
    hit_1, hit_2 = ~np.isnan(det["t1"]), ~np.isnan(det["t2"])
    assert counters == {"recorded_1": int(hit_1.sum()), "recorded_2": int(hit_2.sum()),
                        "coincidences": int((hit_1 & hit_2).sum())}
    assert 0 < counters["coincidences"] < min(counters["recorded_1"], counters["recorded_2"])


def _stage_outputs(out: Path) -> dict:
    """The bytes of every file in `out` but report.json, and report.json's
    fits, as float.hex, and counters."""
    got = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "report.json"}
    report = read_report(out / "report.json")
    got["fits"] = {name: {k: float.hex(v) if isinstance(v, float) else v for k, v in fit.items()}
                   for name, fit in report["fits"].items()}
    got["counters"] = report["counters"]
    return got


def test_event_stages_do_not_depend_on_the_thread_count(tmp_path, monkeypatch):
    # the detection pass, the detector streams, the fit sorts and the KS
    # walks spread their work over thread_count() threads: each chunk's tau
    # keeps its place, each count is added into one table set under a
    # lock, and each sorted segment and KS block is computed alone.  7
    # threads may outnumber the CPUs, and a short switch interval makes the
    # threads interleave often
    n0 = 8 * CHUNK_MOLECULES + 123
    amp = AmplitudeParams(grid_points=128)
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in (1, 2, 3, 7):
            monkeypatch.setattr(grids, "thread_count", lambda: threads)
            base = tmp_path / str(threads)
            cfg = small_config(tmp_path, n0=n0, detector_efficiency=0.7, amplitude=amp, output_dir=str(base / "run"))
            tau = detection_pass(simulate_ensemble(cfg), cfg)[1]
            run_experiment(cfg)
            full = dataclasses.replace(cfg, output_dir=str(base / "full"))
            run_full(full)
            pipeline.run_fit(dataclasses.replace(cfg, output_dir=str(base / "fit")), str(base / "full" / "events.csv"))
            seen.append([tau.tobytes(), *(_stage_outputs(base / stage) for stage in ("run", "full", "fit"))])
    finally:
        sys.setswitchinterval(interval)
    assert all(outputs == seen[0] for outputs in seen[1:])


@pytest.mark.parametrize("threads", [1, 2, 3, 7])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_counting_behind_the_draws_gives_the_records_first_bytes(tmp_path, monkeypatch, workers, threads):
    # a run counts each piece as soon as it has landed, on the lanes past
    # `workers` and on each draw lane once its own pieces are done: its
    # results and artifacts equal those of the detection pass over the
    # whole records.  65 pieces of 2^13, the last one ragged; at 7 threads
    # 3 lanes count.  A short switch interval makes the lanes interleave
    n0 = 2**19 + 4099
    monkeypatch.setattr(grids, "thread_count", lambda: threads)
    assert threads < 7 or eventsim.pieces(n0)[1] == 3
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for mode, efficiency in ((m, e) for m in MODES for e in (0.7, 1.0)):
            cfg = small_config(tmp_path, n0=n0, mode=mode, seed=10 * workers + threads, workers=workers,
                               detector_efficiency=efficiency, output_dir=str(tmp_path / f"{mode}-{efficiency}"))
            records, (hists, coincident, counters) = pipeline._simulate(cfg)
            want_records = simulate_ensemble(cfg)
            want_hists, want_coincident, want_counters = detection_pass(want_records, cfg)
            assert records.tobytes() == want_records.tobytes()
            assert {k: (h.edges.tobytes(), h.counts.tobytes()) for k, h in hists.items()} == \
                {k: (h.edges.tobytes(), h.counts.tobytes()) for k, h in want_hists.items()}
            assert coincident.tobytes() == want_coincident.tobytes()
            assert counters == want_counters
            bundle = run_experiment(cfg, write_events=False)
            assert bundle.counters == want_counters
            for name in ("first", "second", "det1", "det2", "coincidence"):
                path = tmp_path / f"want_{name}.csv"
                eventsio.write_histogram_csv(str(path), want_hists[name])
                assert (Path(cfg.output_dir) / f"hist_{name}.csv").read_bytes() == path.read_bytes(), name
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("where", ["draw", "count"])
def test_a_lane_that_raises_ends_the_pass_and_no_lane_outlives_it(monkeypatch, where):
    # an exception on a worker thread's lane reaches the caller; the other
    # lanes stop, the waiting ones without an error of their own, and
    # every thread is gone when the call returns.  The call runs on a
    # thread of its own, joined with a timeout, so a lane left waiting
    # fails the test
    n0 = 2**19 + 4099  # 3 counting lanes at 7 threads
    monkeypatch.setattr(grids, "thread_count", lambda: 7)
    raw_draws, seen, counted, raised = eventsim.kern.raw_draws, [], [], []

    def on_a_worker():
        return threading.current_thread() is not caller

    def failing_draws(seed, start, n, out=None):
        if on_a_worker():
            seen.append(start)
            if len(seen) == 3:
                raise MemoryError
        return raw_draws(seed, start, n, out=out)

    def tally(records):
        def count(k):
            if where == "count" and on_a_worker():
                raise RuntimeError("a counting lane")
            counted.append(k)

        return count

    # in a run that does not fail, 3 threads count: each waits on its first
    # piece for the other two, so no lane's share of the pieces is taken by
    # the others before it is done drawing, and a fourth lane would wait
    # in vain and fail the run
    counting, met = set(), threading.Barrier(3, timeout=60)

    def meeting(records):
        def count(k):
            if threading.get_ident() not in counting:
                counting.add(threading.get_ident())
                met.wait()

        return count

    simulate_ensemble(ExperimentConfig(n0=n0, seed=3, workers=3), meeting)
    assert len(counting) == 3

    def run():
        try:
            simulate_ensemble(ExperimentConfig(n0=n0, seed=3, workers=3), tally)
        except (MemoryError, RuntimeError) as exc:
            raised.append(exc)

    if where == "draw":
        monkeypatch.setattr(eventsim.kern, "raw_draws", failing_draws)
    before = threading.active_count()
    caller = threading.Thread(target=run)
    caller.start()
    caller.join(timeout=120)
    assert not caller.is_alive()
    assert [type(exc) for exc in raised] == [MemoryError if where == "draw" else RuntimeError]
    assert threading.active_count() == before
    assert len(counted) < 65


def test_cli_memory_error_on_a_draw_lane_exits_2(tmp_path):
    # the third piece a worker thread hashes runs out of memory: the run
    # exits 2 naming n0, with no traceback, and no lane is left waiting
    # (the timeout fails the test if one is)
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    out = str(tmp_path / "out")
    code = (
        "import sys, threading\n"
        f"sys.path.insert(0, {src!r})\n"
        "from twoatom import _kernels, grids\n"
        "from twoatom.cli import main\n"
        "grids.usable_cpus = lambda: 3\n"
        "raw_draws, seen = _kernels.raw_draws, []\n"
        "def failing(seed, start, n, out=None):\n"
        "    if threading.current_thread() is not threading.main_thread():\n"
        "        seen.append(start)\n"
        "        if len(seen) == 3:\n"
        "            raise MemoryError\n"
        "    return raw_draws(seed, start, n, out=out)\n"
        "_kernels.raw_draws = failing\n"
        f"sys.exit(main(['simulate', '--n0', '300000', '--set', 'workers=3', '--out', {out!r}]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("configuration error: n0 = ") and "does not fit in memory" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not os.path.exists(out)


@pytest.mark.parametrize("n0, field", [(10**6, "bins"), (10**12, "n0")])
def test_cli_bins_too_large_for_memory_exits_2_before_any_draw(tmp_path, n0, field):
    # the records are allocated first and the detection tables next, both
    # before any draw is hashed: a bins whose edges alone take 7.45 GiB
    # is refused without a draw, and n0 is still the field named when the
    # records do not fit either.  The child caps its own address space at
    # 2 GiB, so the allocations fail whatever the host's overcommit policy
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    out = str(tmp_path / "out")
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        f"sys.path.insert(0, {src!r})\n"
        "from twoatom import _kernels\n"
        "from twoatom.cli import main\n"
        "hashed, raw_draws = [], _kernels.raw_draws\n"
        "_kernels.raw_draws = lambda *args, **kwargs: hashed.append(args) or raw_draws(*args, **kwargs)\n"
        f"code = main(['simulate', '--n0', '{n0}', '--set', 'bins=1000000000', '--out', {out!r}])\n"
        "print('hashed', len(hashed))\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"configuration error: {field} = ") and "does not fit in memory" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.strip() == "hashed 0"
    assert not os.path.exists(out)


def test_cross_engine_agreement(tmp_path):
    # the fitted rates equal the amplitude-engine ratios times the
    # configured single-atom rate, within 3 joint standard errors
    cfg = small_config(tmp_path, n0=200_000)
    bundle = run_full(cfg)
    g = cfg.rates.gamma
    by_case = {}
    for e in bundle.rate_ratios:
        by_case.setdefault(e["case"], []).append(e)
    ratio_first = by_case["entangled-main"][0]["report"]["ratio"]
    fit_first = bundle.fits["first"]
    assert abs(fit_first["rate_hat"] - ratio_first * g) < 3 * fit_first["std_error"]
    far = max(by_case["second-emission"], key=lambda e: e["params"]["separation"])
    ratio_second = far["report"]["ratio"]
    fit_second = bundle.fits["second_interval"]
    assert abs(fit_second["rate_hat"] - ratio_second * g) < 3 * fit_second["std_error"]


def test_run_full_reuses_one_ensemble(tmp_path, monkeypatch):
    # run_full draws the fits and the figure overlays from one ensemble and
    # writes report.json once; its artifacts equal those of run_experiment
    # followed by a standalone reproduce_figure1(overlay=True)
    amp = AmplitudeParams(grid_points=256)
    full = small_config(tmp_path, output_dir=str(tmp_path / "full"), detector_efficiency=0.7, amplitude=amp)
    apart = small_config(tmp_path, output_dir=str(tmp_path / "apart"), detector_efficiency=0.7, amplitude=amp)
    for name in ("simulate_ensemble", "write_report"):
        monkeypatch.setattr(pipeline, name, mock.Mock(wraps=getattr(pipeline, name)))
    run_full(full)
    assert pipeline.simulate_ensemble.call_count == 1
    assert pipeline.write_report.call_count == 1
    monkeypatch.undo()

    run_experiment(apart)
    reproduce_figure1(apart, overlay=True)
    names = sorted(n for n in os.listdir(apart.output_dir) if n.endswith(".csv"))
    assert "fig1.csv" in names and "fig1_overlay_detector.csv" in names
    for name in names:
        with open(os.path.join(full.output_dir, name), "rb") as a, \
                open(os.path.join(apart.output_dir, name), "rb") as b:
            assert a.read() == b.read(), name
    got = read_report(os.path.join(full.output_dir, "report.json"))
    want = read_report(os.path.join(apart.output_dir, "report.json"))
    assert got["fits"] == want["fits"]
    with open(os.path.join(full.output_dir, "rates.json")) as fh:
        assert got["rate_ratios"] == json.load(fh)


def test_cli_simulate_and_fit(tmp_path):
    out = str(tmp_path / "cli")
    rc = cli_main(["simulate", "--n0", "5000", "--seed", "7", "--out", out])
    assert rc == 0
    simulated = read_report(os.path.join(out, "report.json"))["config_echo"]
    rc = cli_main(["fit", "--events", os.path.join(out, "events.csv"), "--n0", "5000", "--seed", "7", "--out", out])
    assert rc == 0
    # the fit report echoes the config as every other report does
    echo = read_report(os.path.join(out, "report.json"))["config_echo"]
    assert echo["si_conversion"] == ExperimentConfig().si_conversion()
    assert echo == simulated


def test_cli_set_override(tmp_path):
    out = str(tmp_path / "cli2")
    rc = cli_main([
        "simulate", "--n0", "2000", "--out", out,
        "--set", "gamma_inverse=3.2e-9",
        "--set", "amplitude.width_sum=4.0",
    ])
    assert rc == 0
    doc = read_report(os.path.join(out, "report.json"))
    assert doc["config_echo"]["gamma_inverse"] == 3.2e-9
    assert doc["config_echo"]["amplitude"]["width_sum"] == 4.0


def test_cli_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    out = str(tmp_path / "cli3")
    cfg = ExperimentConfig(n0=1500, output_dir=out)
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    rc = cli_main(["fig1", "--config", str(cfg_path)])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "fig1.csv"))


def test_cli_validation_exit_code(tmp_path):
    rc = cli_main(["simulate", "--n0", "0", "--out", str(tmp_path / "x")])
    assert rc == 2
    rc = cli_main(["simulate", "--set", "no_such_field=1", "--out", str(tmp_path / "y")])
    assert rc == 2


@pytest.mark.parametrize(
    "override, config, field",
    [
        ("foo.bar=1", None, "foo.bar"),
        ("amplitude=3", None, "amplitude"),
        ("rates=1", None, "rates"),
        ("validate=1", None, "validate"),
        (None, {"n0": 1000, "detector_model": "multi-hit"}, "detector_model"),
        (None, {"amplitude": {"grid_pts": 128}}, "amplitude.grid_pts"),
        (None, {"amplitude": 3}, "amplitude"),
        # values of the wrong type, and non-finite numbers
        ('n0="abc"', None, "n0"),
        ('amplitude.dt="x"', None, "amplitude.dt"),
        ("gamma_inverse=null", None, "gamma_inverse"),
        ("seed=1.5", None, "seed"),
        ("n0=1e3", None, "n0"),
        ("amplitude.grid_points=100.5", None, "amplitude.grid_points"),
        ("amplitude.separations=3", None, "amplitude.separations"),
        (None, {"amplitude": {"separations": [1, "a"]}}, "amplitude.separations"),
        ("workers=true", None, "workers"),
        ("amplitude.dt=NaN", None, "amplitude.dt"),
        ("amplitude.sigma=Infinity", None, "amplitude.sigma"),
        ("t_max_lifetimes=NaN", None, "t_max_lifetimes"),
        # a config file that holds no JSON object, or no JSON at all
        (None, [1, 2], "JSON object"),
        (None, "{", "cfg.json"),
    ],
)
def test_cli_unknown_config_key_exits_2(tmp_path, capsys, override, config, field):
    argv = ["simulate", "--out", str(tmp_path / "x")]
    if override is not None:
        argv += ["--set", override]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv += ["--config", str(path)]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and field in err
    assert not os.path.exists(tmp_path / "x")


def test_cli_full_check(tmp_path):
    out = str(tmp_path / "full")
    rc = cli_main(["full", "--n0", "100000", "--seed", "11", "--out", out, "--check"])
    assert rc == 0
    for name in ("events.csv", "fig1.csv", "rates.json", "report.json"):
        assert os.path.exists(os.path.join(out, name))


@pytest.mark.parametrize("n0", [1, 2, 3, 5, 10])
def test_small_ensemble_report_leaves_out_unfittable_fits(tmp_path, n0):
    out = str(tmp_path / "small")
    assert cli_main(["simulate", "--n0", str(n0), "--out", out]) == 0
    fits = read_report(os.path.join(out, "report.json"))["fits"]
    cfg = ExperimentConfig(n0=n0)
    records = simulate_ensemble(cfg)
    tau = coincidence_differences(assign_detections(records))
    d1, d2 = concatenated_detector_streams(records)
    direct = {
        "first": (fit_exponential_mle, records["t_f"]),
        "second_interval": (fit_exponential_mle, records["t_s"] - records["t_f"]),
        "detector_1": (fit_cumulative_curve, d1),
        "detector_2": (fit_cumulative_curve, d2),
        "coincidence": (fit_exponential_mle, np.abs(tau)),
    }
    assert set(fits) <= set(direct)
    for name, (fit, sample) in direct.items():
        if name in fits:
            assert fits[name] == dataclasses.asdict(fit(sample))
        else:
            with pytest.raises(InsufficientDataError):
                fit(sample)
    # fit --events on the same file leaves out the same MLE fits
    refit = str(tmp_path / "refit")
    assert cli_main(["fit", "--events", os.path.join(out, "events.csv"), "--out", refit]) == 0
    mle = {name: f for name, f in fits.items() if direct[name][0] is fit_exponential_mle}
    assert read_report(os.path.join(refit, "report.json"))["fits"] == mle


@pytest.mark.parametrize("header,missing", [
    ("a,b", "molecule_id, t_f, t_s, t1, t2"),
    ("molecule_id,t_f,t_s,t1", "t2"),
    ("molecule_id,t_s,t1,t2,extra", "t_f"),
])
def test_cli_fit_names_a_missing_column(tmp_path, capsys, header, missing):
    path = tmp_path / "events.csv"
    n_cols = header.count(",") + 1
    path.write_text(header + "\n" + ",".join(["1"] * n_cols) + "\n" + ",".join(["2"] * n_cols) + "\n")
    out = tmp_path / "refit"
    assert cli_main(["fit", "--events", str(path), "--out", str(out)]) == 2
    assert f"lacks the column(s) {missing}" in capsys.readouterr().err
    assert not out.exists()


HEADER = "molecule_id,t_f,t_s,t1,t2\n"
ROW = "0,1.0000000000000000e-09,3.0000000000000000e-09,1.0000000000000000e-09,\n"


@pytest.mark.parametrize("content, message", [
    (b"", "is empty"),
    (b"\xffmolecule_id,t_f,t_s,t1,t2\n" + ROW.encode(), "header line is not UTF-8"),
], ids=["empty", "header-not-utf8"])
def test_cli_fit_rejects_an_unreadable_file(tmp_path, capsys, content, message):
    path = tmp_path / "events.csv"
    path.write_bytes(content)
    out = tmp_path / "refit"
    assert cli_main(["fit", "--events", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{path}" in err and message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("body, where", [
    # a non-numeric field, after a blank line that loadtxt skips
    (ROW + "1,abc,2e-09,,\n", "line 3, column t_f: 'abc' is not a number"),
    (ROW + "\n\n1,2e-09,abc,,\n", "line 5, column t_s: 'abc' is not a number"),
    (ROW.replace("\n", "\r\n") + "1,2e-09,3e-09,x,\r\n", "line 3, column t1: 'x' is not a number"),
    (",1e-09,2e-09,,\n", "line 2, column molecule_id: '' is not a number"),
    # ragged rows, the first one included
    (ROW + ROW + "2,1e-09,2e-09\n" + ROW, "line 4, column t1 is missing: the row has 3 fields"),
    (ROW + "2,1e-09,2e-09,,,\n", "line 3, after column t2: the row has 6 fields"),
    ("2,1e-09,2e-09\n" + ROW, "line 2, column t1 is missing"),
    ("2,1e-09,2e-09,,,\n" + ROW, "line 2, after column t2"),
    # only t1/t2 may be empty, and no time infinite
    (ROW + "1,,2e-09,,\n", "line 3, column t_f: empty or not finite"),
    (ROW + "1,1e-09,1e999,,\n", "line 3, column t_s: empty or not finite"),
], ids=["text", "text-after-blank-lines", "text-crlf", "empty-id", "short-row", "long-row",
        "short-first-row", "long-first-row", "empty-t_f", "infinite-t_s"])
def test_cli_fit_names_the_line_and_column(tmp_path, capsys, body, where):
    path = tmp_path / "events.csv"
    path.write_text(HEADER + body, newline="")
    out = tmp_path / "refit"
    assert cli_main(["fit", "--events", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{path}, {where}" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_fit_error_in_the_last_block_leaves_no_output_directory(tmp_path, capsys):
    # the rows before it are read block by block, and none is written
    path = tmp_path / "events.csv"
    write_events_csv(str(path), simulate_ensemble(ExperimentConfig(n0=50, seed=3)))
    with open(path, "a") as fh:
        fh.write("50,1e-09,x,,\n")
    out = tmp_path / "refit"
    with mock.patch.object(eventsio, "READ_BLOCK", 256):
        assert cli_main(["fit", "--events", str(path), "--out", str(out)]) == 2
    assert f"{path}, line 52, column t_s: 'x' is not a number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content", [HEADER, HEADER.rstrip("\n"), HEADER + "\n\r\n"],
                         ids=["header", "no-line-end", "blank-lines"])
def test_cli_fit_header_only_file_leaves_out_every_fit(tmp_path, content):
    path = tmp_path / "events.csv"
    path.write_text(content, newline="")
    out = tmp_path / "refit"
    assert cli_main(["fit", "--events", str(path), "--out", str(out)]) == 0
    assert read_report(os.path.join(out, "report.json"))["fits"] == {}


def assert_same_bits(got, want):
    """Equal float arrays bit for bit, NaN where `want` is NaN."""
    nan = np.isnan(want)
    assert got.shape == want.shape and np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


@settings(max_examples=6, deadline=None)
@given(
    n0=st.sampled_from([1, 2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 7]),
    efficiency=st.floats(0.0, 1.0, exclude_min=True),
    mode=st.sampled_from(MODES),
    seed=st.integers(0, 2**32 - 1),
    crlf=st.booleans(),
    final_newline=st.booleans(),
)
@example(n0=3 * 2**14 + 7, efficiency=0.3, mode="sequential", seed=5, crlf=False, final_newline=True)
@example(n0=1, efficiency=1e-9, mode="independent", seed=5, crlf=True, final_newline=False)
def test_events_csv_round_trip(n0, efficiency, mode, seed, crlf, final_newline):
    cfg = ExperimentConfig(n0=n0, mode=mode, seed=seed, detector_efficiency=efficiency)
    records = simulate_ensemble(cfg)
    detections = assign_detections(records)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events.csv")
        write_events_csv(path, records)
        content = Path(path).read_bytes()
        if crlf:
            content = content.replace(b"\n", b"\r\n")
        if not final_newline:
            content = content.rstrip(b"\r\n")
        Path(path).write_bytes(content)
        got = read_events_csv(path)
        oracle = np.genfromtxt(path, delimiter=",", names=True)
    for name in EVENTS_COLUMNS:
        np.testing.assert_array_equal(got[name], np.atleast_1d(oracle[name]))
    for name, want in (("t_f", records["t_f"]), ("t_s", records["t_s"]),
                       ("t1", detections["t1"]), ("t2", detections["t2"])):
        assert_same_bits(got[name], want)
    assert np.array_equal(got["molecule_id"], np.arange(n0))


@pytest.mark.parametrize("content, t1, t2", [
    # the last row ends in an empty field, with no line end after it
    (HEADER + ROW + "1,2e-09,4e-09,4e-09,", [1e-9, 4e-9], [np.nan, np.nan]),
    ((HEADER + ROW + "1,2e-09,4e-09,,2e-09\n").replace("\n", "\r\n"), [1e-9, np.nan], [np.nan, 2e-9]),
], ids=["empty-last-field-no-line-end", "crlf"])
def test_read_events_csv_line_ends(tmp_path, content, t1, t2):
    path = tmp_path / "events.csv"
    path.write_text(content, newline="")
    got = read_events_csv(str(path))
    np.testing.assert_array_equal(got["t1"], t1)
    np.testing.assert_array_equal(got["t2"], t2)
    oracle = np.genfromtxt(path, delimiter=",", names=True)
    for name in EVENTS_COLUMNS:
        np.testing.assert_array_equal(got[name], oracle[name])


def read_outcome(reader, path):
    """The columns `reader` reads from `path`, or its EventsFileError's message."""
    try:
        return reader(path)
    except EventsFileError as exc:
        return str(exc)


#: edits of one row of a written events.csv, each giving a row that the
#: block reader hands over to loadtxt, or rejects
ROW_EDITS = {
    "shortest-t_f": lambda f: [f[0], repr(float(f[1])), *f[2:]],
    "capital-E-t_s": lambda f: [f[0], f[1], f[2].replace("e", "E"), *f[3:]],
    "nan-t1": lambda f: [*f[:3], "nan", f[4]],
    "id-as-float": lambda f: [f[0] + ".0", *f[1:]],
    "blank-line-after": lambda f: [*f[:4], f[4] + "\n"],
    "crlf-blank-line-after": lambda f: [*f[:4], f[4] + "\n\r"],
    "infinite-t_s": lambda f: [f[0], f[1], "inf", *f[3:]],
    "text-t_f": lambda f: [f[0], "x", *f[2:]],
    "empty-t_s": lambda f: [f[0], f[1], "", *f[3:]],
    "short-row": lambda f: f[:3],
    "long-row": lambda f: [*f, ""],
}


@settings(max_examples=40, deadline=None)
@given(
    n0=st.sampled_from([1, 7, 60]),
    efficiency=st.floats(0.0, 1.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
    crlf=st.booleans(),
    final_newline=st.booleans(),
    block=st.sampled_from([8, 100, 2048, eventsio.READ_BLOCK]),
    edits=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(sorted(ROW_EDITS))), max_size=4),
)
@example(n0=60, efficiency=0.5, seed=1, crlf=True, final_newline=False, block=8, edits=[(3, "shortest-t_f")])
@example(n0=60, efficiency=0.5, seed=1, crlf=False, final_newline=True, block=100,
         edits=[(5, "infinite-t_s"), (40, "text-t_f")])
def test_read_events_csv_equals_the_loadtxt_reader(n0, efficiency, seed, crlf, final_newline, block, edits):
    # in blocks of any size, rows in the writer's form or not, the columns
    # bit for bit, or the same error: a non-finite field is reported only
    # when no field that is not a number follows it
    records = simulate_ensemble(ExperimentConfig(n0=n0, seed=seed, detector_efficiency=efficiency))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events.csv")
        write_events_csv(path, records)
        header, *lines = Path(path).read_text().splitlines()
        for row, edit in {row % n0: edit for row, edit in edits}.items():  # one edit a row
            lines[row] = ",".join(ROW_EDITS[edit](lines[row].split(",")))
        end = "\r\n" if crlf else "\n"
        Path(path).write_bytes((end.join([header, *lines]) + (end if final_newline else "")).encode())
        with mock.patch.object(eventsio, "READ_BLOCK", block):
            got = read_outcome(read_events_csv, path)
        want = read_outcome(read_events_csv_loadtxt, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        for name in EVENTS_COLUMNS:
            assert_same_bits(got[name], want[name])


@functools.cache
def valid_events_bytes() -> bytes:
    """events.csv of a small ensemble with undetected photons."""
    records = simulate_ensemble(ExperimentConfig(n0=12, seed=3, detector_efficiency=0.6))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events.csv")
        write_events_csv(path, records)
        return Path(path).read_bytes()


def mutate(content: bytes, edits) -> bytes:
    for kind, at, byte in edits:
        at %= max(len(content), 1)
        if kind == "delete":
            content = content[:at] + content[at + 1:]
        elif kind == "duplicate":
            content = content[:at + 1] + content[at:]
        elif kind == "replace":
            content = content[:at] + bytes([byte]) + content[at + 1:]
        else:
            content = content[:at]
    return content


def run_fit(content: bytes) -> tuple[int, str]:
    """`twoatom fit --events` on a file holding `content`: exit code, stderr.
    The same command with the loadtxt reader of the whole file must give the
    same exit code and the same message."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events.csv")
        Path(path).write_bytes(content)
        runs = []
        for reader in (read_events_csv, read_events_csv_loadtxt):
            err = io.StringIO()
            with (mock.patch.object(pipeline, "read_events_csv", reader),
                  contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
                code = cli_main(["fit", "--events", path, "--out", os.path.join(tmp, f"refit-{reader.__name__}")])
            runs.append((code, err.getvalue()))
    assert runs[0] == runs[1]
    return runs[0]


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.binary(max_size=200), st.binary(max_size=200).map(lambda b: HEADER.encode() + b)))
def test_cli_fit_fuzz_random_bytes(content):
    code, err = run_fit(content)
    assert code in (0, 2) and "Traceback" not in err


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["delete", "duplicate", "replace", "truncate"]),
                          st.integers(0, 2**16), st.integers(0, 255)), min_size=1, max_size=3))
def test_cli_fit_fuzz_mutated_file(edits):
    code, err = run_fit(mutate(valid_events_bytes(), edits))
    assert code in (0, 2) and "Traceback" not in err


#: every subcommand but `fit`, whose file input has fuzz tests of its own
FUZZ_COMMANDS = [("simulate",), ("fig1",), ("fig1", "--overlay"), ("rates",), ("properties",),
                 ("full",), ("full", "--check")]
#: JSON values of any kind: ints, floats out to +/-1e+/-300 and subnormals,
#: 2**70 and an int past the float range, strings, lists, booleans and
#: null.  Most fields take positive numbers, so those come often
FUZZ_NUMBERS = (st.floats(min_value=0.0, exclude_min=True) | st.floats() | st.integers()
                | st.sampled_from([2**70, 10**400, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324]))
FUZZ_VALUES = (FUZZ_NUMBERS | st.lists(FUZZ_NUMBERS, max_size=3)
               | st.recursive(st.none() | st.booleans() | st.text(max_size=6) | FUZZ_NUMBERS,
                              lambda inner: st.lists(inner, max_size=3), max_leaves=4))
#: the largest size each size field takes in-process; sizes past the memory
#: are the child-process tests' cases
FUZZ_SIZE_LIMITS = {"n0": 300, "bins": 100, "amplitude.grid_points": 64}


def small_sizes(item) -> bool:
    field, value = item
    return not (field in FUZZ_SIZE_LIMITS and isinstance(value, int) and value > FUZZ_SIZE_LIMITS[field])


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(FUZZ_COMMANDS),
    n0=st.integers(1, 300),
    sets=st.lists(st.tuples(st.sampled_from(FIELDS), FUZZ_VALUES).filter(small_sizes), min_size=1, max_size=2),
)
# finite floats whose arithmetic overflows or divides by zero
@example(command=("simulate",), n0=5, sets=[("length_unit_m", 1e200)])
@example(command=("full",), n0=5, sets=[("length_unit_m", 1e200)])
@example(command=("rates",), n0=5, sets=[("amplitude.sigma", 1e-300)])
@example(command=("rates",), n0=5, sets=[("amplitude.sigma", 1e300)])
@example(command=("rates",), n0=5, sets=[("amplitude.dt", 1e-300)])
@example(command=("rates",), n0=5, sets=[("amplitude.separations", [1e300])])
@example(command=("simulate",), n0=5, sets=[("gamma_inverse", 10**400)])
# a derived rate that underflows, or whose longest wait overflows
@example(command=("simulate",), n0=50, sets=[("gamma_inverse", 1e300), ("gamma_s_factor", 1e-300)])
@example(command=("simulate",), n0=50, sets=[("gamma_s_factor", 5e-324)])
@example(command=("simulate",), n0=50, sets=[("gamma_inverse", 3e306)])
# a mode width that underflows, a flight whose phase overflows
@example(command=("rates",), n0=5, sets=[("amplitude.width_diff", 5e-324)])
@example(command=("rates",), n0=5, sets=[("amplitude.dt", 7.9e307)])
# sizes past what numpy can address, refused before anything is allocated
@example(command=("simulate",), n0=5, sets=[("n0", 600000000000000000)])
@example(command=("simulate",), n0=5, sets=[("bins", 2000000000000000000)])
@example(command=("rates",), n0=5, sets=[("amplitude.grid_points", 100000000000000000000)])
# packets spread so far that their overlap is NaN
@example(command=("rates",), n0=5, sets=[("amplitude.dt", 1e300)])
# a second-photon density whose exp(-G_f t) is subnormal or 0, and rates
# or times whose densities once overflowed
@example(command=("fig1",), n0=5, sets=[("gamma_f_factor", 90)])
@example(command=("fig1", "--overlay"), n0=5, sets=[("gamma_f_factor", 1000)])
@example(command=("fig1",), n0=5, sets=[("gamma_f_factor", 1e300)])
@example(command=("fig1",), n0=5, sets=[("gamma_s_factor", 1e300)])
@example(command=("fig1",), n0=5, sets=[("t_max_lifetimes", 1e300)])
@example(command=("fig1",), n0=5, sets=[("gamma_inverse", 1e-160)])
@example(command=("fig1",), n0=5, sets=[("gamma_inverse", 1e-300), ("gamma_f_factor", 1)])
@example(command=("fig1",), n0=5, sets=[("t_max_lifetimes", 1e300), ("gamma_s_factor", 2)])
@example(command=("fig1",), n0=5, sets=[("t_max_lifetimes", 1e300), ("gamma_inverse", 1e10)])
# a natural time unit past the float range, and a detector fit whose
# variance is infinite
@example(command=("simulate",), n0=1, sets=[("atom_mass_kg", 1e300)])
@example(command=("simulate",), n0=2, sets=[("gamma_inverse", 1e-300)])
def test_cli_fuzz_config_values(command, n0, sets):
    # a run exits 0, 2 or 3 and never with a traceback, and one that exits
    # 0 writes finite artifacts.  A RuntimeWarning is printed, not an exit,
    # so the run keeps Python's default filters
    args = fuzz_args(command, n0, sets)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("default")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_main([*args, "--out", os.path.join(tmp, "out")])
        assert code in (0, 2, 3) and "Traceback" not in err.getvalue()
        if code == 0:
            assert_strict_artifacts(os.path.join(tmp, "out"))


def fuzz_args(command, n0, sets) -> list[str]:
    """The command line of a config fuzz case, on a 64-point grid."""
    args = [*command, "--set", f"n0={n0}", "--set", "amplitude.grid_points=64"]
    for field, value in sets:
        args += ["--set", f"{field}={json.dumps(value)}"]
    return args


def test_cli_fuzz_examples_under_warnings_as_errors(tmp_path):
    # the config fuzz's explicit examples, once, in a child where every
    # warning is an exception: a run that warns must still exit 0, 2 or 3
    # without a traceback, as a fit whose covariance overflows does
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    runs = [[*fuzz_args(**example.kwargs), "--out", str(tmp_path / str(i))]
            for i, example in enumerate(test_cli_fuzz_config_values.hypothesis_explicit_examples)]
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from twoatom.cli import main\n"
        f"print([main(args) for args in {runs!r}])\n"
    )
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert len(codes) == len(runs) and set(codes) <= {0, 2, 3}


def assert_strict_artifacts(out: str) -> None:
    """Every JSON file in `out` parses without NaN or Infinity, and every
    CSV field is a finite number, but the empty t1/t2 fields of events.csv."""
    def refuse(constant):
        raise AssertionError(f"{constant} in a JSON artifact")

    for name in os.listdir(out):
        with open(os.path.join(out, name)) as fh:
            if name.endswith(".json"):
                json.load(fh, parse_constant=refuse)
            elif name.endswith(".csv"):
                header = fh.readline().rstrip("\n").split(",")
                for line in fh:
                    for column, value in zip(header, line.rstrip("\n").split(","), strict=True):
                        assert value == "" and column in ("t1", "t2") or np.isfinite(float(value)), (name, line)


def test_cli_check_fails_without_a_fit(tmp_path, capsys):
    out = str(tmp_path / "one")
    rc = cli_main(["full", "--check", "--n0", "1", "--out", out, "--set", "amplitude.grid_points=256"])
    assert rc == 3
    assert "no first fit" in capsys.readouterr().err


def test_cli_check_fails_off_the_compatibility_point(tmp_path):
    # incompatible second rate: fits cannot satisfy the headline relations
    out = str(tmp_path / "broken")
    rc = cli_main([
        "full", "--n0", "50000", "--seed", "12", "--out", out,
        "--set", "gamma_s_factor=3.0", "--check",
    ])
    assert rc == 3


def test_cli_properties_subcommand(tmp_path):
    out = str(tmp_path / "props")
    rc = cli_main(["properties", "--out", out, "--set", "amplitude.grid_points=256"])
    assert rc == 0
    with open(os.path.join(out, "rates.json")) as fh:
        entries = json.load(fh)
    cases = {e["case"] for e in entries}
    assert "prop1-nonentangled" in cases and "prop4-entangled-second" in cases
    assert all("interference_magnitude" in e for e in entries)
    # the same entries as the case-study part of the full rate stage
    cfg = small_config(tmp_path, amplitude=AmplitudeParams(grid_points=256))
    run_rate_derivation(cfg)
    with open(os.path.join(cfg.output_dir, "rates.json")) as fh:
        assert entries == [e for e in json.load(fh) if e["case"].startswith("prop")]
