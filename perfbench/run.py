"""derpair's benchmark: one closed-loop client driving the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root: it imports derpair from ``src``.  It
writes seeded presentation files under ``.perfbench_work/``, times
``setup_s`` on fresh interpreters, starts one worker process
(``worker.py``), runs one untimed warm-up job, and then runs whole passes of
the workload's job list, one job at a time, for about S seconds.  A job's
time is its median over the passes, scaled to the reference machine (see
REFERENCE_S).  Every report is checked against its expected answer; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the first pass runs untraced, spans are then installed in the worker
(``spans.py``), and the metrics are per-layer self times and counts of one
traced pass (times are medians over the traced passes).  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks      # noqa: E402
import workloads   # noqa: E402
from worker import reference   # noqa: E402

SETUP_SAMPLES = 21
# Median time of one worker.reference() on the machine the benchmark was
# tuned on (2 shared cores, Python 3.11).  Every time is reported in units
# of that machine: wall time x REFERENCE_S / reference time measured next
# to it, which cancels the contention noise a shared machine adds to both.
REFERENCE_S = 0.0019
TAIL_BEYOND = 10
READY = "import derpair.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"

END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s",
              "job_tail_s": "s", "peak_rss_mb": "MB"}
# per-layer metric prefix -> span name: <prefix>_s is its self time and
# <prefix>_calls its number of calls
SPAN_METRICS = {
    "linalg.rank": "linalg.rank", "linalg.nullspace": "linalg.nullspace",
    "cochains.circle_g": "cochains.circle_g", "cochains.circle_nr": "cochains.circle_nr",
    "cochains.coords": "cochains.coords", "cochains.apply": "cochains.apply",
    "cochains.from_multimap": "cochains.from_multimap",
    "cohomology.der_D": "cohomology.der_D",
    "structures.check": "structures.check_structure",
}
# layers reported as <layer>.self_s (every span of the layer) and <layer>.calls
LAYERS = ("brackets", "cohomology", "constructions", "maurer_cartan", "files", "cli")
COUNTERS = {"linalg.rank_cells": "count", "linalg.rank_max_bits": "bits",
            "cochains.circle_g_out_nnz": "count", "cochains.circle_nr_out_nnz": "count",
            "cohomology.basis_cochains": "count", "cohomology.matrix_cells": "count"}
EXACT_UNITS = ("count", "bits")


class Worker:
    """The worker process and its line protocol."""

    def __init__(self, root: Path, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], cwd=root, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.ask_line()          # {"ready": true}

    def ask_line(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the worker exited early")
        return json.loads(line)

    def ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self.ask_line()

    def close(self, spans_path=None) -> dict:
        try:
            return self.ask({"op": "exit", "spans": spans_path})
        finally:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def reference_s() -> float:
    start = time.perf_counter()
    reference()
    reference()
    return (time.perf_counter() - start) / 2


def measure_setup(root: Path, env: dict) -> float:
    """Median time from spawning an interpreter to derpair.cli imported."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        before = reference_s()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", READY], cwd=root, env=env,
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError("derpair.cli failed to import")
        scale = REFERENCE_S / ((before + reference_s()) / 2)
        if i:               # the first spawn fills the bytecode cache
            samples.append(elapsed * scale)
    return statistics.median(samples)


def run_pass(worker: Worker, jobs, reports: Path, tag: str):
    """Run every job once: (wall s, [(job, rc, error, report, time, raw s)]).

    A job's time is the wall time of ``cli.main`` scaled to the reference
    machine by the reference runs next to it (see REFERENCE_S).
    """
    results = []
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        out = reports / f"{tag}-{index}.json"
        answer = worker.ask({"op": "job", "argv": job.argv + ["--out", str(out)]})
        results.append((job, answer["rc"], answer["error"], out,
                        answer["job_s"] * REFERENCE_S / answer["ref_s"], answer["job_s"]))
    return time.perf_counter() - start, results


def tail(times: list) -> float:
    """The time with exactly TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    return ordered[max(0, len(ordered) - TAIL_BEYOND - 1)]


def verify(results, verdicts: dict, first: dict) -> int:
    """Check every report; returns the number of failed jobs.

    Identical bytes for the same job are checked once.  ``first`` maps a
    job's place in the pass to the digest of its first report: the reports
    of later passes, traced ones included, must equal it byte for byte.
    """
    failed = 0
    for index, (job, rc, error, path, *_) in enumerate(results):
        data = path.read_bytes() if path.exists() else None
        digest = hashlib.sha256(data or b"").hexdigest()
        key = (job.name, rc, error, digest)
        if key not in verdicts:
            verdicts[key] = checks.problem(job, rc, error, data)
            if verdicts[key]:
                print(f"perfbench: FAIL {job.name}: {verdicts[key]}", file=sys.stderr)
        if verdicts[key] or first.setdefault(index, digest) != digest:
            failed += 1
    return failed


def layer_metrics(stats: dict, traced_s: float, scale: float) -> dict:
    """Per-layer metrics of one traced pass; self times are scaled like jobs."""
    calls, self_ns, counters = stats["calls"], stats["self_ns"], stats["counters"]

    def seconds(names):
        return sum(self_ns.get(n, 0) for n in names) * scale / 1e9

    metrics = {}
    for prefix, name in SPAN_METRICS.items():
        metrics[f"{prefix}_s"] = (seconds([name]), "s")
        metrics[f"{prefix}_calls"] = (calls.get(name, 0), "count")
    for layer in LAYERS:
        names = [n for n in calls if n.startswith(layer + ".")]
        metrics[f"{layer}.self_s"] = (seconds(names), "s")
        metrics[f"{layer}.calls"] = (sum(calls[n] for n in names), "count")
    for name, unit in COUNTERS.items():
        metrics[name] = (counters.get(name, 0), unit)
    cells = counters.get("linalg.rank_cells", 0)
    metrics["linalg.rank_nnz_ratio"] = (
        counters.get("linalg.rank_nnz", 0) / cells if cells else 0.0, "ratio")
    length = counters.get("cochains.coords_len", 0)
    metrics["cochains.coords_nnz_ratio"] = (
        counters.get("cochains.coords_nnz", 0) / length if length else 0.0, "ratio")
    metrics["jobs.traced_s"] = (traced_s, "s")
    metrics["linalg.rank_share"] = (metrics["linalg.rank_s"][0] / traced_s, "ratio")
    metrics["trace.hook_s"] = (stats["hook_ns"] * scale / 1e9, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small jobs per workload, for the smoke check")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "derpair" / "cli.py").is_file():
        print("perfbench: src/derpair not found; run from the repository root",
              file=sys.stderr)
        return 2
    scratch = root / ".perfbench_work"
    work = scratch / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    reports = work / "reports"
    reports.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(scratch / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    warm, jobs = workloads.build(args.workload, args.seed, work / "inputs", args.tiny)
    setup_s = measure_setup(root, env)

    worker = Worker(root, env)
    try:
        _, warm_results = run_pass(worker, [warm], reports, "warm")
        passes = []
        traced = []
        while True:
            tag = f"pass{len(passes)}"
            if args.trace and len(passes) == 1:
                missing = worker.ask({"op": "trace"})["missing"]
                if missing:
                    print(f"perfbench: not traced (not found): {missing}",
                          file=sys.stderr)
            wall, results = run_pass(worker, jobs, reports, tag)
            passes.append((wall, results))
            if args.trace and len(passes) > 1:
                traced.append((wall, worker.ask({"op": "stats"})))
            elapsed = sum(w for w, _ in passes)
            if elapsed + wall / 2 >= args.seconds and (not args.trace or traced):
                break
        spans_path = str(work / "spans.jsonl") if args.trace else None
        final = worker.close(spans_path)
    finally:
        worker.kill()

    verdicts = {}
    failed = verify(warm_results, verdicts, {})
    first_digests = {}
    attempted = 0
    for _, results in passes:
        failed += verify(results, verdicts, first_digests)
        attempted += len(results)

    per_pass = len(jobs)
    job_s = [statistics.median(results[i][4] for _, results in passes)
             for i in range(per_pass)]
    wall_rate = attempted / sum(w for w, _ in passes)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{per_pass} jobs, {wall_rate:.3f} jobs per wall second; fail_ratio "
          f"{failed}/{attempted}; a job's time is its median over the passes; "
          f"job_tail_s has {TAIL_BEYOND} of the {per_pass} jobs beyond it "
          f"(p{100 * (1 - TAIL_BEYOND / per_pass):.0f})")

    if not args.trace:
        metrics = {
            "setup_s": setup_s,
            "jobs_per_s": per_pass / sum(job_s),
            "job_p50_s": statistics.median(job_s),
            "job_tail_s": tail(job_s),
            "peak_rss_mb": final["maxrss_kb"] / 1024,
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    else:
        per_pass_metrics = []
        for (_, results), (_, stats) in zip(passes[1:], traced):
            norm = sum(r[4] for r in results)
            scale = norm / sum(r[5] for r in results)
            per_pass_metrics.append(layer_metrics(stats, norm, scale))
        counts = [{k: v for k, (v, unit) in m.items() if unit in EXACT_UNITS}
                  for m in per_pass_metrics]
        if any(c != counts[0] for c in counts):
            print("perfbench: FAIL counts differ between traced passes", file=sys.stderr)
            failed += 1
        metrics = {}
        for name, (first, unit) in per_pass_metrics[0].items():
            values = [m[name][0] for m in per_pass_metrics]
            metrics[name] = (first if unit in EXACT_UNITS else statistics.median(values),
                             unit)
        untraced_s = sum(r[4] for r in passes[0][1])
        metrics["trace.overhead"] = (metrics["jobs.traced_s"][0] / untraced_s, "ratio")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
