"""Compare one CLI report with the answer its job must give.

``problem(job, rc, error, data)`` returns None when the exit code and the
report bytes agree with ``job.expect``, else a one-line reason.  Cohomology
tables are compared with the frozen ones in ``expected.json``; kernel bases,
which depend on the basis, are checked for count, length, independence and
for lying in the kernel of the textbook Hochschild coboundary.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import instances as inst
import oracle

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())


def _label(i: int) -> str:
    return f"e{i + 1}"


def _vector(values) -> list:
    return [Fraction(x) for x in values]


def _violation_problem(expected, violations) -> str | None:
    axiom, witness, defect = expected
    if len(violations) != 1:
        return f"expected one violation, got {len(violations)}"
    got = violations[0]
    if got["axiom"] != axiom or got["witness"] != [_label(i) for i in witness]:
        return (f"violation {got['axiom']} at {got['witness']}, expected {axiom} at "
                f"{[_label(i) for i in witness]}")
    diff = {j: x - y for j, (x, y) in enumerate(zip(_vector(got["lhs"]),
                                                      _vector(got["rhs"]))) if x != y}
    if diff != defect:
        return f"lhs - rhs {diff} differs from the defect {defect}"
    return None


def _check(job, rc, doc) -> str | None:
    violation = job.expect["violation"]
    want_rc = 0 if violation is None else 1
    if rc != want_rc or doc.get("verdict") != ("pass" if violation is None else "fail"):
        return f"exit {rc} verdict {doc.get('verdict')}, expected exit {want_rc}"
    if violation is None:
        return None if doc["violations"] == [] else "unexpected violations"
    return _violation_problem(violation, doc["violations"])


def _mc(job, rc, doc) -> str | None:
    expected = [{"name": name, "witness": {"args": [_label(i) for i in args],
                                           "out": _label(out), "value": str(value)}}
                for name, (args, out, value) in job.expect["residuals"]]
    want_rc = 1 if expected else 0
    if rc != want_rc or doc["mc"]["holds"] != (not expected):
        return f"exit {rc}, expected {want_rc}"
    if doc["mc"]["residuals"] != expected:
        return f"residuals {doc['mc']['residuals']} differ from {expected}"
    return None


def _dendrify(job, rc, doc) -> str | None:
    if job.expect["violation"] is not None:
        return _check(job, rc, doc)
    if rc != 0:
        return f"exit {rc}, expected 0"
    kind, products, derivations = job.expect["output"]
    if (doc.get("kind") != kind or doc.get("dimension") != job.expect["d"]
            or doc.get("provenance", {}).get("recipe") != job.argv[-1]):
        return f"output kind {doc.get('kind')} or its provenance is wrong"
    if doc["products"] != {n: inst.entries(t) for n, t in products.items()}:
        return "output products differ from the recipe formula"
    if doc["derivations"] != {n: inst.entries(t) for n, t in derivations.items()}:
        return "output derivations differ from the input's"
    if oracle.first_violation(kind, products, derivations) is not None:
        return f"output is not a valid {kind}"
    return None


def _cohomology(job, rc, doc) -> str | None:
    if rc != 0 or doc.get("verdict") != "pass":
        return f"exit {rc} verdict {doc.get('verdict')}, expected a certified pass"
    table = EXPECTED["tables"].get(job.expect["key"])
    if table is None:
        return f"no frozen table for {job.expect['key']}"
    got = dict(doc["cohomology"])
    kernel = got.pop("kernel_bases", None)
    if got != table:
        return f"cohomology table differs from the frozen {job.expect['key']}"
    if job.expect["kernel"]:
        return _kernel_problem(job.expect["mu"], job.expect["d"], table, kernel or {})
    return None


def _rank_mod_p(rows: list) -> int:
    p = (1 << 61) - 1
    rows = [[x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] * inv % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def hochschild_face(mu: dict, d: int, n: int, coords: list) -> dict:
    """Nonzero values of the face-sum coboundary of the n-cochain ``coords``.

    Coordinates run over argument tuples in lexicographic order, output index
    fastest.  (df)(x_1..x_{n+1}) = x_1 f(x_2..) + sum_i (-1)^i f(.., x_i x_{i+1},
    ..) + (-1)^{n+1} f(x_1..x_n) x_{n+1}; at n = 0, df(x) = x y - y x.
    """
    f = {}
    for index, value in enumerate(coords):
        if value:
            args, out, rest = [], index % d, index // d
            for _ in range(n):
                args.append(rest % d)
                rest //= d
            f.setdefault(tuple(reversed(args)), {})[out] = value
    by_left = oracle._by_arg(mu, 0)
    by_right = oracle._by_arg(mu, 1)
    acc = {}
    for args, vector in f.items():
        for k, v in vector.items():
            for (a, _), o, w in by_right.get(k, ()):     # x_1 f(...)
                oracle._add_into(acc, (a,) + args, {o: w}, v)
            for (_, b), o, w in by_left.get(k, ()):      # f(...) x_{n+1}
                oracle._add_into(acc, args + (b,), {o: w}, (-1) ** (n + 1) * v)
        for i in range(1, n + 1):
            for ((a, b), k), w in mu.items():
                if args[i - 1] == k:
                    new = args[:i - 1] + (a, b) + args[i:]
                    oracle._add_into(acc, new, vector, (-1) ** i * w)
    return {t: v for t, v in acc.items() if v}


def _kernel_problem(mu: dict, d: int, table: dict, kernel: dict) -> str | None:
    for row in table["degrees"]:
        n = row["degree"]
        vectors = [_vector(v) for v in kernel.get(str(n), [])]
        if len(vectors) != row["dim_closed"]:
            return f"degree {n}: {len(vectors)} kernel vectors, expected {row['dim_closed']}"
        if any(len(v) != row["dim_cochains"] for v in vectors):
            return f"degree {n}: kernel vector of the wrong length"
        if vectors and _rank_mod_p(vectors) != len(vectors):
            return f"degree {n}: kernel vectors are dependent"
        if any(hochschild_face(mu, d, n, v) for v in vectors):
            return f"degree {n}: a kernel vector is not closed"
    return None


HANDLERS = {"check": _check, "mc": _mc, "dendrify": _dendrify,
            "cohomology": _cohomology}


def problem(job, rc, error, data: bytes | None) -> str | None:
    if error is not None:
        return f"raised: {error.strip().splitlines()[-1]}"
    if data is None:
        return f"exit {rc} and no report written"
    try:
        doc = json.loads(data)
    except ValueError:
        return "report is not JSON"
    return HANDLERS[job.expect["type"]](job, rc, doc)
