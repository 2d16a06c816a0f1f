"""Benchmark of the twoatom package, one workload per invocation.

    python3 perfbench/run.py --workload cli-200k --seed 7 --seconds 30 --trace 0

Workloads.  The seed becomes ``ExperimentConfig.seed``; the program gets
only an ``ExperimentConfig`` whose other fields keep their defaults, apart
from those named here (``workers`` is always 1):

  sim-8m      ``run_experiment(write_events=False)`` at n0 = 8*10^6
  rates-2048  ``run_rate_derivation`` with ``amplitude.grid_points`` = 2048
  cli-200k    through ``cli.main``, ``twoatom full --check`` and then
              ``twoatom fit --events`` on the events.csv it wrote, at
              n0 = 2*10^5 with ``amplitude.grid_points`` = 2048

There is no workload that only writes (``twoatom full`` at n0 = 10^6) or
only reads (``twoatom fit`` on a 10^6-row file) events.csv: their time is
almost all interpreter work, whose speed on a shared 2-CPU VM drifts with
the host's load over minutes, and the quartiles of ten runs spread by
20-30% of the median whatever the run length or repetition size.
cli-200k keeps both sides of the CSV format under an end-to-end metric
next to the FFT-bound rate derivation, which does not drift that way.

``--trace 0`` runs at least three repetitions, each in a fresh process
(``child.py``), and more until ``--seconds`` have passed since the first
began, and reports the median of each end-to-end metric over them:

  wall_s        wall time of the operation
  cpu_s         user + system CPU time of the operation
  peak_rss_mib  high-water RSS of the repetition's process, from wait4()
  setup_s       CPU time (user + system, reaped children included) from
                process start until the operation's inputs are ready:
                interpreter, imports, config.  CPU, not wall time: on a
                shared 2-CPU VM the host's steal time moved the median of
                these ~1 s set-ups by 25% between two sets of runs, while
                their CPU time stays put

``--trace 1`` runs the operation once untraced and once traced, and
reports per-layer self times and work counts from spans recorded around
the package's functions (``spans.py``); ``trace.overhead_s`` is traced
minus untraced wall time.

Every repetition is checked: ``check_report`` must return no failure
(sim-8m; cli-200k through ``full --check``), the rate-ratio checks must
pass (rates-2048), and ``twoatom fit`` must reproduce the fits that
``twoatom full`` computed in memory exactly (cli-200k).  The sha256 of
every artifact except report.json must agree between repetitions and with
every earlier run of the same workload, seed and source tree (kept in
``.perfbench_work/digests.json``).  An exception, a nonzero exit code or a
failed check counts the repetition as failed.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it (``details {...}``) holds the machine
facts, every repetition's samples and the artifact digests.  ``--smoke``
runs the same at n0 = 10^5 and a 256-point grid.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("sim-8m", "rates-2048", "cli-200k")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
# one BLAS/OpenMP thread per process; the package runs with workers = 1
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 165.0  # every run ends within 180 s
MIN_REPS = 3  # a median of set-ups and operations even when one outlasts --seconds


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _reap(proc, deadline: float):
    """Wait for `proc` (killing it at `deadline`); return its rusage."""
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return usage
            if time.monotonic() > deadline:
                proc.kill()
            time.sleep(0.01)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


class Bench:
    """One invocation: its arguments, scratch directory and child processes."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        self.env = {**os.environ, **THREAD_ENV}
        self.spawned = 0

    def spawn(self, trace=None) -> dict:
        """One repetition in a fresh process: its result, exit code and peak RSS."""
        role = "op" if trace is None else "traced"
        self.spawned += 1
        tag = f"{self.spawned}-{role}"
        smoke = "-smoke" if self.args.smoke else ""
        job = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "smoke": self.args.smoke,
            "out": str(self.dir / tag),
            "trace": trace,
            "result": str(self.dir / f"{tag}.json"),
            "spans": str(WORK / "spans" / f"{self.args.workload}-seed{self.args.seed}{smoke}-{role}.json"),
        }
        log_path = self.dir / f"{tag}.log"
        job["t_spawn"] = time.monotonic()
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), json.dumps(job)],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT,
            )
            usage = _reap(proc, self.deadline)
        try:
            with open(job["result"]) as fh:
                result = json.load(fh)
        except (OSError, json.JSONDecodeError):
            result = {"failures": [f"{role} exited with {proc.returncode} and no result"]}
        result["role"] = role
        result["exit"] = proc.returncode
        result["peak_rss_mib"] = usage.ru_maxrss / 1024.0  # KiB on Linux
        if proc.returncode != 0 and not result["failures"]:
            result["failures"].append(f"{role} exited with {proc.returncode}")
        if result["failures"]:
            print(f"{tag} failed:", *result["failures"], file=sys.stderr, sep="\n  ")
            print(log_path.read_text(errors="replace")[-4000:], file=sys.stderr)
        return result


def check_determinism(args, records: list) -> dict | None:
    """Compare artifact digests across `records` and with earlier runs."""
    mode = "smoke" if args.smoke else "full"
    key = f"{args.workload}/seed{args.seed}/{mode}/{source_digest()}"
    ledger_path = WORK / "digests.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    reference = ledger.get(key)
    for record in records:
        if "digests" not in record:
            continue
        if reference is None:
            reference = record["digests"]
        elif record["digests"] != reference:
            record["failures"].append("artifact digests differ from another run of this seed")
    if reference is not None and key not in ledger:
        ledger[key] = reference
        tmp = ledger_path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        os.replace(tmp, ledger_path)
    return reference


def run_timed(bench: Bench) -> tuple[list, dict]:
    """At least MIN_REPS repetitions, and more until --seconds have passed
    since the first one began."""
    reps, begin = [], time.monotonic()
    while True:
        t0 = time.monotonic()
        reps.append(bench.spawn())
        now = time.monotonic()
        if now + (now - t0) > bench.deadline:
            break
        if len(reps) >= MIN_REPS and now - begin >= bench.args.seconds:
            break
    done = [r for r in reps if "wall_s" in r]
    if not done:
        return reps, {}
    samples = {
        "wall_s": [r["wall_s"] for r in done],
        "cpu_s": [r["cpu_s"] for r in done],
        "peak_rss_mib": [r["peak_rss_mib"] for r in done],
        "setup_s": [r["ready_cpu_s"] for r in done],
    }
    return reps, {name: statistics.median(v) for name, v in samples.items()}


def run_traced(bench: Bench) -> tuple[list, dict]:
    plain = bench.spawn()
    traced = bench.spawn(trace=[])
    reps = [plain, traced]
    if "summary" not in traced or "wall_s" not in plain:
        return reps, {}
    overhead = traced["wall_s"] - plain["wall_s"]
    return reps, layer_metrics(traced["summary"], traced["n0"], traced.get("rows", 0), overhead)


def machine_facts(records: list) -> dict:
    facts = next((r["facts"] for r in records if "facts" in r), {})
    return {
        **facts,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "thread_env": THREAD_ENV,
        "workers": 1,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="twoatom benchmark (one workload)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true", help="n0 = 10^5, 256-point grid")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM unwind through _reap, which kills and waits for the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "twoatom" / "__init__.py").is_file():
        print(f"no twoatom package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = Bench(args)
    bench.dir.mkdir(parents=True)
    (WORK / "spans").mkdir(exist_ok=True)
    try:
        reps, metrics = (run_traced if args.trace else run_timed)(bench)
        digests = check_determinism(args, reps)
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)

    attempted = len(reps)
    failed = sum(bool(r["failures"]) for r in reps)
    units = LAYER_METRICS if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "source": source_digest(),
        "machine": machine_facts(reps),
        "samples": [
            {k: r.get(k) for k in ("role", "wall_s", "cpu_s", "peak_rss_mib", "ready_s",
                                   "ready_cpu_s", "exit")}
            for r in reps
        ],
        "digests": digests,
        "failures": [f for r in reps for f in r["failures"]],
    }
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
