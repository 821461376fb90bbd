"""The four workloads: fixed job lists over seeded presentation files.

Every workload is a list of jobs, one pass of the benchmark's closed loop.
The job mix, the size ladder and which jobs get a corrupted input are fixed;
the seed chooses the basis change applied to each input, where a corruption
lands, and the order of the jobs in a pass.  Each job carries the answer its
report must give, computed by this directory's own code (``oracle.py``) or
read from the frozen tables in ``expected.json`` (see ``checks.py``).
"""

from __future__ import annotations

import random
from pathlib import Path

import instances as inst
import oracle

WORKLOADS = ("cohomology-multi", "cohomology-dense", "cohomology-alt", "verify")

# (flavor, input kind, Lie family, d, top degree, copies per pass)
MULTI_LADDER = (
    ("hochschild", "associative", "witt", 3, 2, 3),
    ("hochschild", "associative", "witt", 2, 5, 2),
    ("hochschild", "associative", "witt", 4, 2, 2),
    ("hochschild", "associative", "witt", 3, 3, 2),
    ("hochschild", "associative", "witt", 5, 2, 1),
    ("assder", "assder", "witt", 3, 2, 3),
    ("assder", "assder", "witt", 2, 4, 3),
    ("assder", "assder", "witt", 2, 5, 1),
    ("assder", "assder", "witt", 4, 2, 1),
    ("assder", "assder", "witt", 3, 3, 1),
    ("compatible-associative", "compatible-associative", "witt", 3, 2, 3),
    ("compatible-associative", "compatible-associative", "witt", 2, 3, 3),
    ("compatible-associative", "compatible-associative", "witt", 2, 4, 1),
    ("cad", "compatible-assder", "witt", 2, 2, 3),
    ("cad", "compatible-assder", "witt", 2, 3, 2),
    ("cad", "compatible-assder", "witt", 3, 2, 2),
    ("cad", "compatible-assder", "witt", 2, 4, 1),
)
# rungs of MULTI_LADDER, since conjugated inputs are slower; the Hochschild
# jobs marked True add --kernel-bases.  Nine jobs are clearly larger and
# eleven clearly smaller than those five, so the median (13th of 25) and the
# tail job (10 beyond it) both fall inside that group of equal jobs.
DENSE_LADDER = (
    ("hochschild", "associative", "witt", 3, 2, 5, True),
    ("hochschild", "associative", "witt", 3, 2, 3, False),
    ("hochschild", "associative", "witt", 2, 5, 1, False),
    ("hochschild", "associative", "witt", 4, 2, 1, False),
    ("hochschild", "associative", "witt", 3, 3, 1, False),
    ("hochschild", "associative", "witt", 5, 2, 1, False),
    ("assder", "assder", "witt", 3, 2, 3, False),
    ("assder", "assder", "witt", 2, 5, 1, False),
    ("assder", "assder", "witt", 3, 3, 1, False),
    ("compatible-associative", "compatible-associative", "witt", 3, 2, 2, False),
    ("cad", "compatible-assder", "witt", 2, 2, 5, False),
    ("cad", "compatible-assder", "witt", 3, 2, 1, False),
)
ALT_LADDER = (
    ("chevalley-eilenberg", "lie", "heisenberg", 5, 2, 3),
    ("chevalley-eilenberg", "lie", "heisenberg", 5, 3, 3),
    ("chevalley-eilenberg", "lie", "heisenberg", 6, 2, 2),
    ("chevalley-eilenberg", "lie", "heisenberg", 6, 3, 1),
    ("chevalley-eilenberg", "lie", "heisenberg", 7, 2, 1),
    ("lieder", "lieder", "heisenberg", 4, 2, 4),
    ("lieder", "lieder", "heisenberg", 4, 3, 3),
    # five copies put the tail job (10 of 29 beyond it) mid-group
    ("lieder", "lieder", "heisenberg", 5, 2, 5),
    ("lieder", "lieder", "heisenberg", 5, 3, 1),
    ("cldp", "compatible-lieder", "heisenberg", 3, 3, 3),
    ("cldp", "compatible-lieder", "heisenberg", 4, 2, 2),
    ("cldp", "compatible-lieder", "heisenberg", 4, 3, 1),
)
TINY_LADDER = {
    "cohomology-multi": (("hochschild", "associative", "witt", 2, 2, 1),
                         ("cad", "compatible-assder", "witt", 2, 2, 1)),
    "cohomology-dense": (("hochschild", "associative", "witt", 3, 2, 1, True),
                         ("assder", "assder", "witt", 2, 3, 1, False)),
    "cohomology-alt": (("chevalley-eilenberg", "lie", "heisenberg", 5, 2, 1),
                       ("lieder", "lieder", "heisenberg", 4, 2, 1)),
}

# structure check: every kind, at sizes spread over d = 4..10
CHECK_SIZES = {
    "associative": 10, "assder": 8, "lie": 9, "lieder": 7, "prelie": 8,
    "prelieder": 6, "zinbiel": 9, "zinder": 5, "dendriform": 6, "dendrider": 4,
    "compatible-associative": 6, "compatible-assder": 5, "compatible-lie": 5,
    "compatible-lieder": 4, "compatible-prelie": 4, "compatible-prelieder": 5,
    "compatible-zinbiel": 6, "compatible-zinder": 4, "compatible-dendriform": 4,
    "compatible-dendrider": 5,
}
MC_JOBS = (("lie", 8, False), ("lieder", 10, False), ("associative", 9, False),
           ("assder", 7, False), ("compatible-lie", 6, True),
           ("compatible-lieder", 5, True), ("compatible-associative", 7, True),
           ("compatible-assder", 6, True))
# every recipe once, on the input kind and size listed
DENDRIFY_JOBS = (
    ("dendriform-to-associative", "dendrider", 6),
    ("dendriform-to-prelie", "dendriform", 5),
    ("zinbiel-to-dendriform", "zinder", 7),
    ("zinbiel-to-associative", "zinbiel", 8),
    ("associative-to-lie", "assder", 9),
    ("prelie-to-lie", "prelie", 7),
    ("compatible-assder-to-compatible-lieder", "compatible-assder", 4),
    ("compatible-dendrider-to-compatible-assder", "compatible-dendriform", 4),
    ("compatible-dendrider-to-compatible-prelieder", "compatible-dendrider", 4),
    ("compatible-prelieder-to-compatible-lieder", "compatible-prelieder", 5),
    ("compatible-zinder-to-compatible-assder", "compatible-zinder", 5),
    ("linear-combine", "compatible-lieder", 6),
)

# Inputs that ROADMAP item 4 records as running without bound; no workload
# may hold them.  Cohomology is keyed by (flavor, d, top); a check by d.
UNBOUNDED_COHOMOLOGY = {("hochschild", 4, 4)}
UNBOUNDED_CHECK_DIMENSION = 200


def table_key(flavor: str, kind: str, lie: str, d: int, top: int) -> str:
    return f"{flavor}/{kind}/{lie}/d{d}/top{top}"


class Job:
    """One CLI call: its argv, and the answer its report must give."""

    def __init__(self, name: str, argv: list, expect: dict):
        self.name = name
        self.argv = argv
        self.expect = expect


def _write(inputs: Path, name: str, kind: str, d: int, products, derivations) -> str:
    path = inputs / f"{name}.json"
    path.write_text(inst.presentation_text(kind, d, products, derivations))
    return str(path)


def _cohomology_jobs(ladder, inputs: Path, rng, dense: bool) -> list:
    jobs = []
    for flavor, kind, lie, d, top, copies, *kernel in ladder:
        if (flavor, d, top) in UNBOUNDED_COHOMOLOGY:
            raise ValueError(f"{flavor} d={d} top={top} is a known unbounded input")
        key = table_key(flavor, kind, lie, d, top)
        kernel = bool(kernel and kernel[0])
        for _ in range(copies):
            products, derivations = inst.structure(kind, d, lie)
            change = inst.unimodular_change if dense else inst.sign_change
            products, derivations = inst.conjugate_structure(
                products, derivations, *change(rng, d), d)
            name = f"{flavor}-d{d}-top{top}-{len(jobs)}"
            path = _write(inputs, name, kind, d, products, derivations)
            argv = ["cohomology", path, "--complex", flavor, "--max-degree", str(top)]
            if kernel:
                argv.append("--kernel-bases")
            jobs.append(Job(name, argv, {
                "type": "cohomology", "key": key, "kernel": kernel,
                "mu": products.get("mu"), "d": d}))
    return jobs


CORRUPTION_DRAWS = 64
DEPTH_TOLERANCE = 0.03


def _corrupted(rng, kind, d, products, derivations, target=None):
    """A seeded corruption that breaks the structure.

    With ``target``, a share of the checking order, the corruption whose
    first witness lies closest to it among CORRUPTION_DRAWS draws wins (or
    the first within DEPTH_TOLERANCE).  The targets keep the mix of early
    and late exits, and so the work, the same on every seed.
    """
    best = None
    draws = 0
    while best is None or (draws < CORRUPTION_DRAWS and best[0] > DEPTH_TOLERANCE):
        draws += 1
        bad = inst.corrupt(rng, kind, products, derivations, d)
        violation = oracle.first_violation(kind, *bad)
        if violation is None:
            continue
        if target is None:
            return bad
        miss = abs(oracle.witness_depth(kind, *bad, d, violation) - target)
        if best is None or miss < best[0]:
            best = (miss, bad)
    return best[1]


def _verify_jobs(inputs: Path, rng, tiny: bool) -> list:
    specs = [("check", kind, d, None) for kind, d in sorted(CHECK_SIZES.items())]
    specs += [("mc", kind, d, pair) for kind, d, pair in MC_JOBS]
    specs += [("dendrify", kind, d, recipe) for recipe, kind, d in DENDRIFY_JOBS]
    if tiny:
        specs = specs[::7]
    jobs = []
    aimed = 0
    for index, (command, kind, d, extra) in enumerate(specs):
        if tiny:
            d = 3
        if d >= UNBOUNDED_CHECK_DIMENSION:
            raise ValueError(f"check at d={d} is a known unbounded input")
        products, derivations = inst.structure(kind, d)
        g, g_inv = inst.permutation_change(rng, d)
        products, derivations = inst.conjugate_structure(products, derivations,
                                                         g, g_inv, d)
        # a fixed third of the jobs, the same on every seed, get a corrupted
        # input; the check-based ones aim their first witness at 1/8, 3/8,
        # 5/8 and 7/8 of the checking order in turn
        if index % 3 == 1:
            target = None
            if command != "mc":
                target = (aimed % 4 + 0.5) / 4
                aimed += 1
            products, derivations = _corrupted(rng, kind, d, products, derivations,
                                               target)
        name = f"{command}-{kind}-d{d}-{index}"
        path = _write(inputs, name, kind, d, products, derivations)
        violation = oracle.first_violation(kind, products, derivations)
        expect = {"type": command, "kind": kind, "violation": violation}
        argv = [command, path]
        if command == "mc":
            if extra:
                argv.append("--pair")
            expect["residuals"] = oracle.mc_residuals(kind, products, derivations,
                                                      extra)
        elif command == "dendrify":
            argv += ["--recipe", extra]
            if violation is None:
                expect["output"] = oracle.recipe_output(extra, kind, products,
                                                        derivations)
                expect["d"] = d
        jobs.append(Job(name, argv, expect))
    return jobs


def build(workload: str, seed: int, inputs: Path, tiny: bool = False):
    """(warm-up job, jobs of one pass) for a workload, inputs written to disk."""
    rng = random.Random(f"{workload}/{seed}")
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "verify":
        jobs = _verify_jobs(inputs, rng, tiny)
        warm = Job("warm-up", ["check", _write(inputs, "warm-up", "associative", 2,
                                               *inst.structure("associative", 2))],
                   {"type": "check", "kind": "associative", "violation": None})
    else:
        ladder = TINY_LADDER[workload] if tiny else {
            "cohomology-multi": MULTI_LADDER, "cohomology-dense": DENSE_LADDER,
            "cohomology-alt": ALT_LADDER}[workload]
        jobs = _cohomology_jobs(ladder, inputs, rng, workload == "cohomology-dense")
        warm_ladder = (("chevalley-eilenberg", "lie", "heisenberg", 3, 1, 1)
                       if workload == "cohomology-alt"
                       else ("hochschild", "associative", "witt", 2, 1, 1),)
        (warm,) = _cohomology_jobs(warm_ladder, inputs, rng, False)
    rng.shuffle(jobs)
    return warm, jobs
