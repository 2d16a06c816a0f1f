"""End-to-end runs: configuration, artifacts, determinism, CLI surface."""

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoatom import pipeline
from twoatom.cli import main as cli_main
from twoatom.errors import ConfigValidationError, InsufficientDataError
from twoatom.eventsim import (
    MODES,
    assign_detections,
    coincidence_differences,
    detector_streams,
    simulate_ensemble,
)
from twoatom.inference import fit_cumulative_curve, fit_exponential_mle
from twoatom.pipeline import (
    AmplitudeParams,
    ExperimentConfig,
    reproduce_figure1,
    run_experiment,
    run_full,
    run_rate_derivation,
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
    gamma_inverse=POSITIVE,
    n0=st.integers(1, 10**12),
    mode=st.sampled_from(MODES),
    seed=st.integers(-2**70, 2**70),
    bins=st.integers(1, 10**6),
    t_max_lifetimes=POSITIVE,
    output_dir=st.text(),
    detector_efficiency=st.floats(0.0, 1.0, exclude_min=True) | st.just(1),
    workers=st.integers(1, 64),
    gamma_f_factor=POSITIVE,
    gamma_s_factor=POSITIVE,
    atom_mass_kg=POSITIVE,
    length_unit_m=POSITIVE,
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
# re-hashed the photon fates per consumer
GOLDEN = {
    "sequential": (
        {
            "events.csv": "c66c34de7606d51835c3aef4508f672aa7433e8e0ec621b9aa7a5d6f60469576",
            "hist_first.csv": "a1c65ff76ca2cb44c1aa91317ccc029655082ed0e35e24811eb992048f258c74",
            "hist_second.csv": "616fe66d362938c921175e64475abf0c118eb9d3177c6f3075b03da74f74d5d0",
            "hist_det1.csv": "30edde6df4755e6a592cdc2e37a1c648a5b3722b397476ab6aab00a8ea0b7e9c",
            "hist_det2.csv": "f3836e9956b5bc982a547cee7b934d1c630fe7fcd8914c62386364a5637505fa",
            "hist_coincidence.csv": "154ea79cddac5b52f87bd1f54d9245fa20143ffde21fa1b988be6f6b20a9bde3",
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


def test_cross_engine_agreement(tmp_path):
    # the fitted rates equal the amplitude-engine ratios times the
    # configured single-atom rate, within 3 joint standard errors
    cfg = small_config(tmp_path, n0=200_000)
    bundle = run_full(cfg, overlay=False)
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
    rc = cli_main(["fit", "--events", os.path.join(out, "events.csv"), "--out", out])
    assert rc == 0


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
    records = simulate_ensemble(cfg.sim_config())
    tau = coincidence_differences(assign_detections(records))
    d1, d2 = detector_streams(records)
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
