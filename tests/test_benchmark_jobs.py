"""The benchmark's job lists, run through the CLI and checked by its own checks.

``perfbench/workloads.py`` builds each workload's warm-up job and one pass of
jobs on seeded inputs, and ``perfbench/checks.py`` compares every report with
the answer the job must give.  This runs them in-process, as the benchmark's
worker does, so a change that breaks a benchmark answer fails here first.
The perfbench modules are only imported, with no bytecode written next to them.
"""

import sys
import traceback
from pathlib import Path

import pytest

from derpair import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import checks
        import workloads
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))
    return workloads, checks


@pytest.mark.parametrize("workload", ["cohomology-multi", "cohomology-dense",
                                      "cohomology-alt", "verify"])
def test_benchmark_jobs_pass_their_checks(perfbench, workload, tmp_path):
    workloads, checks = perfbench
    assert workload in workloads.WORKLOADS
    warm, jobs = workloads.build(workload, SEED, tmp_path / "inputs")
    assert jobs
    for index, job in enumerate([warm, *jobs]):
        out = tmp_path / f"report-{index}.json"
        rc, error = None, None
        try:
            rc = cli.main(job.argv + ["--out", str(out)])
        except SystemExit as exc:
            error = f"SystemExit({exc.code})"
        except Exception:
            error = traceback.format_exc(limit=3)
        data = out.read_bytes() if out.exists() else None
        assert checks.problem(job, rc, error, data) is None, job.name
