"""The benchmark's worker: runs derpair CLI jobs one after another.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  It reads one JSON
request per line on stdin and answers each with one JSON line on the
protocol pipe (the original stdout; the CLI's own stdout goes to stderr):

    {"op": "job", "argv": [...]}   -> {"rc": 0|1|2|null, "error": str|null,
                                       "job_s": wall time of cli.main,
                                       "ref_s": time of one reference()}
    {"op": "trace"}                -> {"missing": [...]}  install the spans
    {"op": "stats"}                -> aggregates since the last "stats"
    {"op": "exit", "spans": path}  -> {"maxrss_kb": n}, spans written to path
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction


def reference() -> Fraction:
    """A fixed pure-Python computation of the kind derpair does.

    Fraction-free integer elimination on a fixed 14x14 matrix, a Fraction
    sum and a dict accumulation.  Run around every job, it measures how fast
    the shared machine is at that moment; it never touches derpair.
    """
    n = 14
    a = [[(i * 7 + j * 13) % 11 - 5 + 3 * (i == j) for j in range(n)] for i in range(n)]
    prev = 1
    for c in range(n - 1):
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                a[i][j] = (a[c][c] * a[i][j] - a[i][c] * a[c][j]) // prev
        prev = a[c][c] or 1
    total = Fraction(0)
    for k in range(1, 400):
        total += Fraction(k % 7 - 3, k)
    table = {}
    for k in range(3000):
        key = (k % 37, k % 11)
        table[key] = table.get(key, 0) + k
    return total


def main() -> int:
    protocol = os.fdopen(os.dup(sys.stdout.fileno()), "w", encoding="utf-8")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    sys.stdout = sys.stderr

    from derpair import cli

    tracer = None

    def reply(doc):
        protocol.write(json.dumps(doc) + "\n")
        protocol.flush()

    reply({"ready": True})
    for line in sys.stdin:
        request = json.loads(line)
        op = request["op"]
        if op == "job":
            if tracer is not None:
                tracer.job += 1
            rc, error = None, None
            clock = time.perf_counter
            t0 = clock()
            reference()
            reference()
            t1 = clock()
            try:
                rc = cli.main(request["argv"])
            except SystemExit as exc:       # argparse rejects an argv
                error = f"SystemExit({exc.code})"
            except Exception:                # a crash is a failed job, not a stop
                error = traceback.format_exc(limit=3)
            t2 = clock()
            reference()
            reference()
            t3 = clock()
            reply({"rc": rc, "error": error, "job_s": t2 - t1,
                   "ref_s": (t1 - t0 + t3 - t2) / 4})
        elif op == "trace":
            from spans import Tracer
            tracer = Tracer()
            reply({"missing": tracer.install()})
        elif op == "stats":
            reply(tracer.take_stats() if tracer is not None else {})
        elif op == "exit":
            if tracer is not None and request.get("spans"):
                tracer.write(request["spans"])
            usage = resource.getrusage(resource.RUSAGE_SELF)
            reply({"maxrss_kb": usage.ru_maxrss})
            return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
