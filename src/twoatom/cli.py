"""Command-line entry point.

Subcommands: simulate, fit, fig1, rates, properties, full.  Configuration
comes from an optional JSON file plus ``--set key=value`` overrides and the
common shortcut flags.  Exit codes: 0 success, 2 invalid configuration or
input, 3 failed self-check (``full --check``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .errors import ConfigValidationError, TwoAtomError
from .eventsim import coincidence_differences
from .pipeline import (
    EVENTS_COLUMNS,
    ExperimentConfig,
    ReportBundle,
    check_report,
    mle_fit_jobs,
    reproduce_figure1,
    run_experiment,
    run_full,
    run_property_cases,
    run_rate_derivation,
    supported_fits,
    write_report,
)
from . import __version__

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK = 3


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def load_config(args) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.from_json_file(args.config)
    else:
        cfg = ExperimentConfig()
    for item in args.set or []:
        if "=" not in item:
            raise ConfigValidationError([item], f"--set needs key=value, got {item!r}")
        key, _, raw = item.partition("=")
        cfg.set(key.strip(), _parse_value(raw.strip()))
    for key in ("seed", "n0", "mode", "output_dir"):  # the shortcut flags
        if getattr(args, key) is not None:
            cfg.set(key, getattr(args, key))
    cfg.validate()
    return cfg


def _cmd_simulate(args) -> int:
    cfg = load_config(args)
    bundle = run_experiment(cfg)
    print(f"wrote {cfg.output_dir}/events.csv and report.json "
          f"({len(bundle.fits)} fits, n0={cfg.n0})")
    return EXIT_OK


def _cmd_fit(args) -> int:
    cfg = load_config(args)
    data = np.genfromtxt(args.events, delimiter=",", names=True)
    missing = [c for c in EVENTS_COLUMNS if c not in (data.dtype.names or ())]
    if missing:
        print(f"{args.events} lacks the column(s) {', '.join(missing)}", file=sys.stderr)
        return EXIT_CONFIG
    g = cfg.rates.gamma
    fits = supported_fits(mle_fit_jobs(data["t_f"], data["t_s"], coincidence_differences(data)))
    bundle = ReportBundle(
        fits={k: dataclasses.asdict(f) for k, f in fits.items()},
        rate_ratios=[],
        curve_tables={"events": args.events},
        config_echo=cfg.to_dict(),
        version=__version__,
    )
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, "report.json")
    write_report(path, bundle)
    for name, fit in fits.items():
        print(f"{name}: rate/gamma = {fit.rate_hat / g:.4f} +/- {fit.std_error / g:.4f}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_fig1(args) -> int:
    cfg = load_config(args)
    path = reproduce_figure1(cfg, overlay=args.overlay)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_rates(args) -> int:
    cfg = load_config(args)
    entries = run_rate_derivation(cfg)
    for e in entries:
        extra = f" interference={e['interference_magnitude']:.3e}" if "interference_magnitude" in e else ""
        print(f"{e['case']:24s} ratio={e['report']['ratio']:.6f}"
              f" completeness={e['report']['completeness_sum']:.6f}{extra}")
    print(f"wrote {cfg.output_dir}/rates.json")
    return EXIT_OK


def _cmd_properties(args) -> int:
    cfg = load_config(args)
    entries = run_property_cases(cfg)
    for e in entries:
        print(f"{e['case']:24s} {e['params']} ratio={e['report']['ratio']:.6f} "
              f"interference={e['interference_magnitude']:.3e}")
    print(f"wrote {cfg.output_dir}/rates.json")
    return EXIT_OK


def _cmd_full(args) -> int:
    cfg = load_config(args)
    bundle = run_full(cfg)
    g = cfg.rates.gamma
    for name in ("first", "second_interval", "detector_1", "coincidence"):
        if name in bundle.fits:
            f = bundle.fits[name]
            print(f"{name}: rate/gamma = {f['rate_hat'] / g:.4f}")
    if args.check:
        failures = check_report(cfg, bundle)
        if failures:
            for f in failures:
                print(f"CHECK FAILED: {f}", file=sys.stderr)
            return EXIT_CHECK
        print("all checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoatom",
        description="Two-atom spontaneous-emission simulation and rate derivation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config field (dotted path, JSON value)")
        p.add_argument("--seed", type=int)
        p.add_argument("--n0", type=int)
        p.add_argument("--mode")
        p.add_argument("--out", dest="output_dir", help="output directory")

    p = sub.add_parser("simulate", help="generate events and fit the rates")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit rates from an existing events.csv")
    common(p)
    p.add_argument("--events", required=True, help="events.csv to ingest")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("fig1", help="tabulate the analytic detection densities")
    common(p)
    p.add_argument("--overlay", action="store_true",
                   help="also write normalized simulated histograms")
    p.set_defaults(func=_cmd_fig1)

    p = sub.add_parser("rates", help="run the amplitude-engine rate derivation")
    common(p)
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("properties", help="run the comparison case studies only")
    common(p)
    p.set_defaults(func=_cmd_properties)

    p = sub.add_parser("full", help="simulate, fit, fig1 and rates in one run")
    common(p)
    p.add_argument("--check", action="store_true",
                   help="verify the headline rate relations; exit 3 on failure")
    p.set_defaults(func=_cmd_full)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigValidationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TwoAtomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"filesystem error: {exc} (path: {getattr(exc, 'filename', '?')})", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
