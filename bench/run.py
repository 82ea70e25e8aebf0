"""Pipeline benchmark of bloomemb: end-to-end metrics, or per-layer ones from a trace.

    python3 bench/run.py --workload baseline-synth --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``. Each repetition is a fresh process (``bench/rep.py``), because
users pay data set-up on every run and ``peak_rss_mb`` is per process.
Repetitions continue until ``--seconds`` have passed; every metric is the
median over them.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` pairs each
untraced repetition with a traced replay and reports the per-layer metrics;
its spans go to ``bench/out/``. A failed correctness check makes the exit
code 1. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracing import LAYER_UNITS, layer_metrics, spans_from_json
from zipf_data import zipf_triples

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
TIME_LIMIT_S = 170.0   # the whole command, repetitions included

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "train_samples_per_s": "1/s",
    "eval_profiles_per_s": "1/s",
    "score": "MAP",
    "sweep_wall_s": "s",
    "score_ratio": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass
class Rep:
    """Outcome of one worker process: its JSON, or why there is none."""

    result: dict | None
    check_failed: str | None = None


def run_worker(job: dict, deadline: float) -> Rep:
    """Run ``rep.py`` on `job` in its own process group and wait for all of it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, str(BENCH / "rep.py"), json.dumps(job)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"repetition killed after the time limit: {job['mode']}", file=sys.stderr)
        return Rep(None)
    lines = out.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode == 3 and last is not None:
        return Rep(None, last["check_failed"])
    if proc.returncode != 0 or last is None:
        sys.stderr.write(err[-4000:])
        return Rep(None)
    return Rep(last)


def repeat(jobs: list[dict], seconds: float, started: float) -> list[list[Rep]]:
    """Run the group of `jobs` again until `seconds` have passed; a group
    is not started when it would likely overrun the time limit."""
    deadline = started + TIME_LIMIT_S
    groups: list[list[Rep]] = []
    t0 = time.monotonic()
    longest = 0.0
    while not groups or time.monotonic() - t0 < seconds:
        if groups and time.monotonic() + 1.5 * longest > deadline:
            break
        g0 = time.monotonic()
        groups.append([run_worker(job, deadline) for job in jobs])
        longest = max(longest, time.monotonic() - g0)
    return groups


def median(values) -> float:
    return float(statistics.median(values))


def single_run_metrics(reps: list[dict], n_profiles: int, base_score: float) -> dict:
    per_rep = []
    for r in reps:
        n_train = n_profiles - r["n_test"]
        per_rep.append({
            "setup_s": r["import_s"] + r["run_s"] - r["train_wall_s"] - r["eval_s"],
            "run_s": r["run_s"],
            "train_samples_per_s": n_train * r["epochs"] / r["epoch_s"],
            "eval_profiles_per_s": r["n_test"] / r["eval_s"],
            "score": r["score"],
            "sweep_wall_s": r["run_s"],   # a single run is a one-cell grid
            "score_ratio": r["score"] / base_score,
            "peak_rss_mb": r["peak_rss_mb"],
        })
    return {k: median(p[k] for p in per_rep) for k in E2E_UNITS}


def sweep_metrics(reps: list[dict], n_profiles: int, epochs: int) -> dict:
    n_test = round(n_profiles * workloads.TEST_SIZE)
    n_train = n_profiles - n_test
    per_rep = []
    for r in reps:
        rows = r["rows"]
        be = [row for row in rows if row["variant"] != "baseline"]
        per_rep.append({
            "setup_s": r["import_s"],
            "run_s": median(epochs * row["train_time"] + row["eval_time"] for row in rows),
            "train_samples_per_s": n_train * len(rows) / sum(row["train_time"] for row in rows),
            "eval_profiles_per_s": n_test * len(rows) / sum(row["eval_time"] for row in rows),
            "score": median(row["S_i"] for row in be),
            "sweep_wall_s": r["wall_s"],
            "score_ratio": median(row["score_ratio"] for row in be),
            "peak_rss_mb": r["peak_rss_mb"],
        })
    return {k: median(p[k] for p in per_rep) for k in E2E_UNITS}


def sweep_scores(result: dict) -> list[tuple]:
    return [(row["variant"], row["k"], row["m_ratio"], row["seed"], row["S_i"])
            for row in result["rows"]]


def check_untraced(name: str, reps: list[dict], failures: list[str]) -> int:
    """Checks on untraced repetitions; returns the failed operations."""
    if name == "sweep-par":
        scores = [sweep_scores(r) for r in reps]
        values = [s[-1] for s in scores[0]]
        failed = sum(1 for r in reps for row in r["rows"] if math.isnan(row["S_i"]))
    else:
        scores = [r["score"] for r in reps]
        values = scores[:1]
        failed = sum(1 for r in reps if not math.isfinite(r["final_loss"]))
    if any(s != scores[0] for s in scores):
        failures.append("the same inputs gave different scores across repetitions")
    if not all(0.0 < v <= 1.0 for v in values):
        failures.append(f"score outside (0, 1]: {values}")
    return failed


def traced_metrics(name: str, groups: list[list[Rep]], failures: list[str]):
    """Per-layer metrics (medians over repetitions) and the raw spans of
    (untraced, traced) repetition pairs; adds failed checks to `failures`."""
    per_rep, spans_out = [], []
    for g in groups:
        run, traced = g[0].result, g[1].result
        spans = spans_from_json(traced["spans"])
        spans_out.append(traced["spans"])
        m = layer_metrics(spans)
        replayed = sum(s.duration for s in spans if s.name == "experiment.run")
        if name == "sweep-par":
            serial = m["experiment.sweep_serial_s"]
            m["experiment.parallel_speedup"] = serial / run["wall_s"]
            m["bench.tracing_overhead_s"] = replayed - serial
            if sweep_scores(traced) != sweep_scores(run):
                failures.append("run_sweep scores differ between the parallel "
                                "and the serial sweep")
        else:
            m["experiment.parallel_speedup"] = 0.0
            m["bench.tracing_overhead_s"] = replayed - run["run_s"]
            if traced["score"] != run["score"]:
                failures.append(f"traced replay scored {traced['score']!r}, "
                                f"run_experiment {run['score']!r}")
        per_rep.append(m)
    return {k: median(m[k] for m in per_rep) for k in LAYER_UNITS}, spans_out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="tiny runs each workload in seconds, for the smoke tests")
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "bloomemb" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'bloomemb'}", file=sys.stderr)
        return 2

    name, size = args.workload, args.size
    OUT.mkdir(exist_ok=True)
    data_path = None
    if name == "cbe-zipf":
        data_path = OUT / f"zipf-{size}-seed{args.seed}.txt"
        data_path.write_text(zipf_triples(workloads.ZIPF[size], args.seed))
        data_path = str(data_path.relative_to(ROOT))
    job = {"cfg": workloads.config(name, size, args.seed, data_path)}
    if name == "sweep-par":
        job["grid"] = workloads.GRID
        job["parallel"] = len(os.sched_getaffinity(0))
    n_profiles = workloads.n_profiles(name, size)

    failures: list[str] = []
    base_score = None
    if name == "cbe-zipf" and not args.trace:
        ref = run_worker(dict(job, mode="reference"), started + TIME_LIMIT_S)
        if ref.check_failed:
            failures.append(ref.check_failed)
        elif ref.result is None:
            failures.append("the CBE-off reference run failed")
        else:
            base_score = ref.result["score"]

    jobs = [dict(job, mode="run")] + ([dict(job, mode="trace")] if args.trace else [])
    groups = repeat(jobs, args.seconds, started) if not failures else []
    failures += [r.check_failed for g in groups for r in g if r.check_failed]
    complete = [g for g in groups if all(r.result is not None for r in g)]
    attempted = len(groups)
    failed = attempted - len(complete)
    if name == "sweep-par":
        attempted *= workloads.grid_cells()
        failed *= workloads.grid_cells()

    runs = [g[0].result for g in complete]
    metrics, units, environment = {}, {}, None
    if runs:
        environment = runs[0]["environment"]
        failed += check_untraced(name, runs, failures)
    if runs and not args.trace:
        units = E2E_UNITS
        if name == "sweep-par":
            metrics = sweep_metrics(runs, n_profiles, job["cfg"]["epochs"])
        else:
            metrics = single_run_metrics(runs, n_profiles, base_score or runs[0]["score"])
    elif runs:
        units = LAYER_UNITS
        metrics, spans = traced_metrics(name, complete, failures)
        spans_file = OUT / f"spans-{name}-{size}-seed{args.seed}.json"
        spans_file.write_text(json.dumps([{"rep": i, "spans": s}
                                          for i, s in enumerate(spans)]))
        print(f"spans: {spans_file.relative_to(ROOT)}")

    if not runs:
        failures.append("no repetition completed")
    correct = not failures
    for reason in failures:
        print(f"CHECK FAILED: {reason}")
    for key, value in metrics.items():
        print(f"{key:32s} {value:14.6g} {units[key]}")
    print(f"{'failed_frac':32s} {failed / max(attempted, 1):14.6g} ratio")
    print(f"repetitions: {len(complete)} of {len(groups)}")
    print(f"environment: {json.dumps(environment)}")

    result = {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record = dict(result, workload=name, seed=args.seed, size=size, trace=args.trace,
                  environment=environment, failures=failures,
                  repetitions=[g[0].result for g in complete] if not args.trace else None)
    (OUT / f"result-{name}-{size}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, default=str))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
