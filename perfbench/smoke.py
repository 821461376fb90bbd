"""The benchmark's own smoke check: a tiny run of every workload.

    python3 perfbench/smoke.py        (from the repository root)

For each workload it makes one untraced and two traced runs on the tiny job
lists (``run.py --tiny``) and checks three things: every metric that
``BENCHMARK.json`` names prints with its unit, every report was verified
(``correct`` is true, nothing failed), and the counts of the two traced runs
are equal.  Exits 1 on the first problem, 0 when all hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
EXACT_UNITS = ("count", "bits")


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def problems(workload: str) -> list:
    found = []
    plain = run(workload, 0)
    traced = [run(workload, 1), run(workload, 1)]
    for result, spec in ((plain, SPEC["end_to_end"]), (traced[0], SPEC["per_layer"])):
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            found.append(f"not every output verified: {result['failed']} of "
                         f"{result['attempted']} failed")
        for metric in spec:
            got = result["metrics"].get(metric["name"])
            if got is None or got.get("unit") != metric["unit"]:
                found.append(f"{metric['name']} missing or not in {metric['unit']}")
    counts = [{name: m["value"] for name, m in r["metrics"].items()
               if m["unit"] in EXACT_UNITS} for r in traced]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        found.append(f"counts differ between two traced runs: {diff}")
    return found


def main() -> int:
    failed = False
    for workload in (w["name"] for w in SPEC["workloads"]):
        found = problems(workload)
        print(f"{workload}: {'ok' if not found else '; '.join(found)}")
        failed = failed or bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
