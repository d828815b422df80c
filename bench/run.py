"""Time-to-verdict benchmark for the pblocks command line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload chains-full --seed 0 --seconds 28 --trace 0
    python3 bench/run.py --workload all        # every workload, one after another
    python3 bench/run.py --capture-reference   # rewrite bench/reference.json

With ``--trace 0`` it prints the end-to-end metrics of the workload, with
``--trace 1`` the per-layer metrics of traced passes; the last line of
stdout is one JSON object.  See bench/README.md for the workloads, the
metrics and the seed semantics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

sys.path.insert(0, str(BENCH))
from gate import independent_failures, job_failures  # noqa: E402
from tracing import LAYER_METRICS, layer_values  # noqa: E402
from workloads import WORKLOADS, write_group_files  # noqa: E402

SETUP_PROBES = 7
TIME_LIMIT = 170.0  # a run must end within 180 s
SELF_TIME_TOLERANCE = 0.01  # share of a traced job's time


class BenchError(Exception):
    """The benchmark itself cannot run (missing program, broken child)."""


def _timeout(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError("out of time")
    return left


def setup_probe(deadline: float) -> float:
    """Wall time of a fresh interpreter that only imports pblocks.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import pblocks.cli"],
                            env=env, cwd=ROOT)
    # A blocking wait returns as soon as the child exits; wait(timeout=...)
    # polls every 50 ms and would round the probe up to that grid.
    timer = threading.Timer(_timeout(deadline), proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise BenchError(f"importing pblocks.cli exited {code}")
    return elapsed


def run_pass(jobs: list, trace: bool, deadline: float) -> dict:
    """Run every job once in a fresh child; its records and peak RSS."""
    WORK.mkdir(exist_ok=True)
    spec_path = WORK / "spec.json"
    spec_path.write_text(json.dumps({"src": str(SRC), "jobs": jobs, "trace": trace}),
                         encoding="utf-8")
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(spec_path)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=_timeout(deadline))
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(step, seconds: float) -> list:
    """Call ``step`` while one more call of the last length ends within
    ``seconds``; always at least once."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        if 2 * now - t0 - start > seconds:
            return results


def failures(workload: str, passes: list, refs: dict, seed: int, base: list) -> list:
    """(pass, label, reasons) for every failed job execution.

    ``base`` is the first untraced pass: every pass at one seed must repeat
    its output byte for byte.
    """
    out = []
    for n, records in enumerate(passes):
        for job, rec, first in zip(WORKLOADS[workload], records, base):
            ref = refs.get(job.label)
            if ref is None:
                reasons = ["no reference for this job"]
            else:
                reasons = job_failures(job.group, rec, ref, seed)
            if (rec["exit"], rec["sha256"]) != (first["exit"], first["sha256"]):
                reasons.append("output differs from the first untraced pass")
            if "trace" in rec:
                total = sum(c[0] for c in rec["trace"]["spans"].values())
                if abs(total - rec["time"]) > 1e-3 + SELF_TIME_TOLERANCE * rec["time"]:
                    reasons.append(f"self times add up to {total:.4f} s, "
                                   f"the job took {rec['time']:.4f} s")
            if reasons:
                if rec["stderr"]:
                    reasons.append("stderr: " + rec["stderr"].strip().splitlines()[-1])
                out.append((n, job.label, reasons))
    return out


def fastest_wall(passes: list) -> float:
    """Sum over jobs of each job's fastest pass.

    The machine is shared and interference only ever adds time, so the
    fastest of several runs of a job is its steadiest estimate.
    """
    return sum(min(p[i]["time"] for p in passes) for i in range(len(passes[0])))


def end_to_end(jobs, seconds, deadline):
    """Untraced passes, each after one set-up probe."""
    probes = []

    def step():
        probes.append(setup_probe(deadline))
        return run_pass(jobs, False, deadline)

    results = repeat(step, seconds)
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(deadline))
    passes = [r["records"] for r in results]
    metrics = {
        "wall_s": (fastest_wall(passes), "s"),
        "setup_s": (statistics.median(probes), "s"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in results) / 1024, "MB"),
        "report_bytes": (sum(rec["bytes"] for rec in passes[0]), "bytes"),
    }
    return metrics, passes, passes[0]


def per_layer(jobs, seconds, deadline):
    """Untraced and traced passes in turn; per-layer medians of the traced ones."""
    plain, traced = [], []

    def step():
        plain.append(run_pass(jobs, False, deadline)["records"])
        traced.append(run_pass(jobs, True, deadline)["records"])

    repeat(step, seconds)
    per_pass = [layer_values(p) for p in traced]
    values = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
    values["trace.overhead_s"] = fastest_wall(traced) - fastest_wall(plain)
    metrics = {name: (values[name], LAYER_METRICS[name][0]) for name in LAYER_METRICS}
    return metrics, plain + traced, plain[0]


def job_argvs(workload: str, seed: int) -> list:
    group_dir = WORK / f"groups-{seed}"
    if seed != 0:
        write_group_files(workload, seed, group_dir)
    return [[job.label, job.argv(seed, group_dir)] for job in WORKLOADS[workload]]


def capture_reference(deadline: float) -> None:
    """Record exit code, sha256 and projection of every job at seed 0."""
    refs = {}
    for workload, jobs in WORKLOADS.items():
        records = run_pass(job_argvs(workload, 0), False, deadline)["records"]
        refs[workload] = {}
        for job, rec in zip(jobs, records):
            problems = [rec["raised"]] if rec["raised"] else []
            if rec["exit"] != job.expect_exit:
                problems.append(f"exit {rec['exit']}, expected {job.expect_exit}")
            if not problems:
                problems = independent_failures(job.group, rec["projection"])
            if problems:
                raise BenchError(f"{workload}: {job.label}: {problems}")
            refs[workload][job.label] = {k: rec[k] for k in ("exit", "sha256", "projection")}
    # One line per job keeps the file readable in a diff.
    blocks = []
    for workload in sorted(refs):
        rows = ",\n".join(f"  {json.dumps(label)}: {json.dumps(entry, sort_keys=True)}"
                          for label, entry in sorted(refs[workload].items()))
        blocks.append(f" {json.dumps(workload)}: {{\n{rows}\n }}")
    REFERENCE.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


def _fmt(value, unit) -> str:
    return f"{value:.6g} {unit}" if isinstance(value, float) else f"{value} {unit}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 refs: dict, deadline: float):
    measure = per_layer if trace else end_to_end
    jobs = job_argvs(workload, seed)
    metrics, passes, base = measure(jobs, seconds, deadline)
    fails = failures(workload, passes, refs.get(workload, {}), seed, base)
    attempted, failed = len(jobs) * len(passes), len(fails)
    for n, label, reasons in fails:
        print(f"FAILED {workload} pass {n}: {label}: {'; '.join(reasons)}",
              file=sys.stderr)
    shown = "  ".join(f"{k} {_fmt(v, u)}" for k, (v, u) in metrics.items())
    print(f"{workload} seed {seed}: {shown}  "
          f"fail_share {failed / attempted:.6g} ({failed}/{attempted} jobs)")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-reference", action="store_true")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills a running child on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "pblocks" / "cli.py").is_file():
        print(f"error: no pblocks sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.perf_counter() + TIME_LIMIT * (
        len(WORKLOADS) if args.capture_reference else len(names))
    totals = {"attempted": 0, "failed": 0, "metrics": {}}
    try:
        if args.capture_reference:
            capture_reference(deadline)
            return 0
        if not REFERENCE.is_file():
            raise BenchError(f"missing {REFERENCE}; run with --capture-reference")
        refs = json.loads(REFERENCE.read_text(encoding="utf-8"))
        for name in names:
            metrics, attempted, failed = run_workload(
                name, args.seed, args.seconds, bool(args.trace), refs, deadline)
            totals["attempted"] += attempted
            totals["failed"] += failed
            prefix = "" if len(names) == 1 else f"{name}."
            for key, (value, unit) in metrics.items():
                totals["metrics"][prefix + key] = {"value": value, "unit": unit}
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"correct": totals["failed"] == 0, **totals}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
