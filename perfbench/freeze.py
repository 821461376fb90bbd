"""Regenerate ``expected.json``: the frozen cohomology tables, cross-checked.

    PYTHONPATH=src:tests python3 perfbench/freeze.py

For every (flavor, kind, d, top) in the ladders it runs ``derpair.cli`` on
the canonical instance and freezes the report's cohomology table.  Before
writing, it cross-checks what an independent route can reach:

* Hochschild and Chevalley-Eilenberg tables on small rungs: every rank is
  recomputed by exact elimination on matrices built from the textbook face
  coboundaries ``hochschild_face_d`` / ``ce_face_d`` of ``tests/oracles.py``;
* every table: the same answer on a relabelled and on a unimodularly
  conjugated copy of the instance (isomorphism invariance);
* the verdict oracle of ``oracle.py``: first witnesses on seeded corrupted
  associative, assder, lie and lieder instances agree with
  ``associator_defect``, ``jacobiator_defect`` and ``derivation_defect``.

Any disagreement stops the script before it writes anything.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import instances as inst   # noqa: E402
import oracle             # noqa: E402
import workloads          # noqa: E402

from derpair import cli                        # noqa: E402
from derpair.cochains import AltMap, MultiMap  # noqa: E402
from derpair.linalg import Space               # noqa: E402
import oracles as dense                        # noqa: E402  (tests/oracles.py)

ORACLE_RANK_LIMIT = 600      # largest matrix side recomputed through faces
WARM_UPS = (("hochschild", "associative", "witt", 2, 1, 1),
            ("chevalley-eilenberg", "lie", "heisenberg", 3, 1, 1))


def _report(kind, d, products, derivations, flavor, top) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "in.json"
        out = Path(tmp) / "out.json"
        src.write_text(inst.presentation_text(kind, d, products, derivations))
        rc = cli.main(["cohomology", str(src), "--complex", flavor,
                       "--max-degree", str(top), "--out", str(out)])
        doc = json.loads(out.read_text())
    if rc != 0 or doc["verdict"] != "pass":
        raise SystemExit(f"{flavor} d={d} top={top}: exit {rc}")
    return doc["cohomology"]


def _exact_rank(columns: list) -> int:
    rows = [list(r) for r in zip(*columns)] if columns else []
    rank = 0
    width = len(columns)
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _face_ranks(flavor, products, d, top) -> list | None:
    """Ranks of d^0..d^top through the dense face coboundaries, or None."""
    space = Space.of_dim(d)
    if flavor == "hochschild":
        mu = MultiMap(space, 2, products["mu"])
        maps, face = MultiMap, lambda f: dense.hochschild_face_d(mu, f)
    else:
        w = AltMap.from_multimap(MultiMap(space, 2, products["bracket"]))
        maps, face = AltMap, lambda f: dense.ce_face_d(w, f)
    ranks = []
    for n in range(top + 1):
        if maps.coord_length(space, max(n, 1) + 1) > ORACLE_RANK_LIMIT:
            return None
        if n == 0:
            # d^0 y = (x_a y - y x_a)_a for Hochschild, ([x_a, y])_a for CE
            columns = []
            for j in range(d):
                y = space.basis_vector(j)
                table = {}
                for a in range(d):
                    x = space.basis_vector(a)
                    if flavor == "hochschild":
                        value = [p - q for p, q in zip(mu.apply([x, y]), mu.apply([y, x]))]
                    else:
                        value = w.apply([x, y])
                    for k, c in enumerate(value):
                        if c:
                            table[((a,), k)] = c
                columns.append(maps(space, 1, table).coords())
        else:
            columns = [face(b).coords() for b in maps.basis(space, n)]
        ranks.append(_exact_rank(columns))
    return ranks


def _freeze_tables() -> dict:
    ladders = (workloads.MULTI_LADDER + workloads.ALT_LADDER + WARM_UPS
               + sum(workloads.TINY_LADDER.values(), ()))
    rng = random.Random("freeze")
    tables = {}
    for flavor, kind, lie, d, top in sorted({rung[:5] for rung in ladders}):
        key = workloads.table_key(flavor, kind, lie, d, top)
        products, derivations = inst.structure(kind, d, lie)
        table = _report(kind, d, products, derivations, flavor, top)
        for change in (inst.permutation_change(rng, d),
                       inst.unimodular_change(rng, d)):
            moved = inst.conjugate_structure(products, derivations, *change, d)
            if _report(kind, d, *moved, flavor, top) != table:
                raise SystemExit(f"{key}: the table changes under a basis change")
        if flavor in ("hochschild", "chevalley-eilenberg"):
            ranks = _face_ranks(flavor, products, d, top)
            got = [row["rank_d"] for row in table["degrees"]]
            if ranks is not None and ranks != got:
                raise SystemExit(f"{key}: ranks {got}, face coboundaries give {ranks}")
            print(f"{key}: ranks {got}"
                  + (" (face oracle agrees)" if ranks is not None else ""))
        else:
            print(f"{key}: invariant under basis change")
        tables[key] = table
    return tables


def _dense_witness(kind, products, derivations, d):
    """First failing (axiom, witness) by the tests' dense defect oracles."""
    space = Space.of_dim(d)
    name = "mu" if "mu" in products else "bracket"
    prod = MultiMap(space, 2, products[name])
    if name == "mu":
        found = dense.associator_defect(prod)
        if found:
            return f"associativity({name})", found[0]
    else:
        first = oracle.first_violation("lie", {"bracket": products[name]}, {})
        if first is not None and first[0].startswith("skew"):
            return first[:2]
        found = dense.jacobiator_defect(AltMap.from_multimap(prod))
        if found:
            return f"jacobi({name})", found[0]
    if derivations:
        found = dense.derivation_defect(MultiMap(space, 1, derivations["delta"]), prod)
        if found:
            return f"derivation(delta,{name})", found[0]
    return None


def _cross_check_verdicts(trials: int = 40) -> None:
    rng = random.Random("freeze-verdicts")
    for kind in ("associative", "assder", "lie", "lieder"):
        for d in (3, 4, 5, 6):
            for trial in range(trials // 4):
                products, derivations = inst.structure(kind, d)
                if trial:
                    products, derivations = inst.corrupt(rng, kind, products,
                                                         derivations, d)
                ours = oracle.first_violation(kind, products, derivations)
                theirs = _dense_witness(kind, products, derivations, d)
                if (ours and ours[:2]) != theirs:
                    raise SystemExit(f"{kind} d={d}: oracle {ours}, dense {theirs}")
    print("verdict oracle agrees with the dense defect oracles")


def main() -> int:
    _cross_check_verdicts()
    tables = _freeze_tables()
    doc = {"note": "cohomology tables of the canonical instances, made by "
                   "perfbench/freeze.py and cross-checked there",
           "tables": tables}
    (HERE / "expected.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
