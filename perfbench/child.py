"""One repetition of a benchmark workload, in a fresh process.

``run.py`` starts this script once per repetition, so that every
repetition's peak RSS belongs to a process that ran only that workload.
It takes one JSON job argument:

- ``workload``, ``seed``, ``smoke``: which inputs to build;
- ``out``: empty directory for the run's artifacts;
- ``t_spawn``: the parent's ``time.monotonic()`` just before the spawn;
- ``trace``: null (untraced), or a list of span names to trace (empty
  list: every span);
- ``result``, ``spans``: where to write the JSON result and the spans.

The program receives only an ``ExperimentConfig``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

from twoatom import _kernels, cli, pipeline  # noqa: E402
from spans import Tracer  # noqa: E402

# rate-ratio cases whose checks must all be present in rates.json
RATE_CASES = (
    "entangled-main",
    "second-emission",
    "prop2-nonsymmetrized",
    "prop3-entangled-final",
    "prop4-entangled-second",
)
FIT_NAMES = ("first", "second_interval", "coincidence")


def make_config(workload: str, seed: int, smoke: bool, out: str) -> pipeline.ExperimentConfig:
    """The workload's inputs; every field not named here keeps its default."""
    cfg = pipeline.ExperimentConfig(seed=seed, workers=1, output_dir=out)
    if workload == "sim-8m":
        cfg.n0 = 8 * 10**6
    elif workload == "cli-200k":
        cfg.n0 = 200_000
        cfg.amplitude.grid_points = 2048
    elif workload == "rates-2048":
        cfg.amplitude.grid_points = 2048
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if smoke:
        cfg.n0 = 10**5
        cfg.amplitude.grid_points = 256
    return cfg


def _rate_check(cfg, entries) -> list[str]:
    """check_report's rate-ratio checks; the fits are set to their targets."""
    g = cfg.rates.gamma
    targets = {"first": 2.0, "second_interval": 1.0, "detector_1": 1.0, "detector_2": 1.0}
    bundle = pipeline.ReportBundle(
        fits={name: {"rate_hat": t * g} for name, t in targets.items()},
        rate_ratios=entries,
        curve_tables={},
        config_echo={},
        version="",
    )
    present = {e["case"] for e in entries}
    missing = [f"rates.json lacks case {c}" for c in RATE_CASES if c not in present]
    return missing + pipeline.check_report(cfg, bundle)


def _report_fits(out: str) -> dict:
    with open(os.path.join(out, "report.json")) as fh:
        return json.load(fh)["fits"]


def _cli_check(runs, codes) -> list[str]:
    """Both commands exit 0 (``full --check`` runs check_report) and the
    refit reproduces the full run's in-memory fits, written to its
    report.json, exactly."""
    failures = [f"twoatom {argv[0]} exited with {code}" for argv, code in zip(runs, codes) if code]
    if failures:
        return failures
    simulated, refit = _report_fits(runs[0][-1]), _report_fits(runs[1][-1])
    # the whole fit, not only rate_hat: the KS statistic also sees a
    # last-digit change in single event times
    return [
        f"refit {name} fit {refit.get(name)!r} != in-memory {simulated.get(name)!r}"
        for name in FIT_NAMES
        if name not in simulated or refit.get(name) != simulated[name]
    ]


def operation(cfg, job):
    """Set up the job's inputs; return (timed call, its correctness check)."""
    workload = job["workload"]
    if workload == "sim-8m":
        return (
            lambda: pipeline.run_experiment(cfg, write_events=False),
            lambda b: pipeline.check_report(cfg, b),
        )
    if workload == "cli-200k":
        path = job["out"] + ".config.json"
        with open(path, "w") as fh:
            json.dump(cfg.to_dict(), fh)
        events = os.path.join(job["out"], "events.csv")
        runs = (
            ["full", "--check", "--config", path, "--out", job["out"]],
            ["fit", "--config", path, "--events", events, "--out", job["out"] + "-fit"],
        )
        return (lambda: [cli.main(argv) for argv in runs]), (lambda codes: _cli_check(runs, codes))
    return (lambda: pipeline.run_rate_derivation(cfg)), (lambda e: _rate_check(cfg, e))


def artifact_digests(out: str) -> dict:
    """sha256 of every artifact except report.json (it carries generated_at)."""
    digests = {}
    for name in sorted(os.listdir(out)):
        if name == "report.json":
            continue
        h = hashlib.sha256()
        with open(os.path.join(out, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        digests[name] = h.hexdigest()
    return digests


def _cpu_s() -> float:
    """CPU seconds since this process started, its reaped children included."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _blas_name():
    config = getattr(numpy.__config__, "CONFIG", {})
    return config.get("Build Dependencies", {}).get("blas", {}).get("name")


def count_rows(path: str) -> int:
    """Data rows of a CSV file with one header line."""
    lines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            lines += block.count(b"\n")
    return lines - 1


def run(job: dict) -> dict:
    os.makedirs(job["out"], exist_ok=True)
    cfg = make_config(job["workload"], job["seed"], job["smoke"], job["out"])
    tracer = None
    if job["trace"] is not None:
        tracer = Tracer()
        tracer.install(job["trace"] or None)
    call, check = operation(cfg, job)
    ready_s = time.monotonic() - job["t_spawn"]
    ready_cpu_s = _cpu_s()

    cpu0, wall0 = _cpu_s(), time.perf_counter()
    value = call()
    wall_s = time.perf_counter() - wall0
    cpu_s = _cpu_s() - cpu0

    result = {
        "n0": cfg.n0,
        "ready_s": ready_s,
        "ready_cpu_s": ready_cpu_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "failures": list(check(value)),
        "digests": artifact_digests(job["out"]),
        "facts": {
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "kernel_backend": _kernels.backend_name(),
            "blas": _blas_name(),
        },
    }
    events = os.path.join(job["out"], "events.csv")
    if os.path.exists(events):
        result["rows"] = count_rows(events)
    if tracer is not None:
        result["summary"] = tracer.summary()
        with open(job["spans"], "w") as fh:
            json.dump(tracer.spans, fh)
    return result


def main() -> int:
    job = json.loads(sys.argv[1])
    try:
        result = run(job)
    except Exception:
        traceback.print_exc()
        result = {"failures": ["exception:\n" + traceback.format_exc()]}
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 1 if result["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
