"""Command-line interface: check, cohomology, mc, dendrify, bracket.

Exit codes are uniform across subcommands: 0 means the requested verification
passed (or the construction succeeded), 1 means a mathematical finding (a
violated axiom, a failed square-zero check, or a failed d o d certification),
and 2 means an operational problem (unreadable file, schema error, oversized
degree).  Reports are JSON on stdout (or --out) and are byte-identical across
runs for identical inputs; --timestamps adds a timestamp to the provenance
block for humans who want one.

The cohomology degree budget (maximum coordinate dimension of any assembled
cochain space, default 20000) can be overridden with the environment variable
DERPAIR_DEGREE_BUDGET.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import files
from .brackets import assder_bracket, dc_bracket, gerstenhaber, nijenhuis_richardson
from .cochains import AltMap, DerCochain, MultiMap
from .cohomology import DEFAULT_COORD_BUDGET, ComplexSpec, FLAVORS, cohomology
from .constructions import RECIPE_KINDS, dendrify
from .errors import (DegreeBudgetError, DerpairError, InvalidStructureError,
                     SchemaError, _quote)
from .maurer_cartan import mc_assder, mc_lieder, mc_pair_assder, mc_pair_lieder
from .structures import KIND_INFO, KINDS, check_structure, fingerprint

SCHEMA = "derpair-report/1"

EXIT_PASS = 0
EXIT_FINDING = 1
EXIT_ERROR = 2


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write {out_path}: {exc}") from exc


def _emit(args, p, passed: bool, violation=None, mc=None, cohomology_doc=None,
          fields=None) -> int:
    """Write the report of a command on p to stdout or --out; return its exit code.

    The verdict and the exit code both follow ``passed``.  The provenance
    names the input and p's kind, then ``fields`` (by default p's
    fingerprint; a base that fails its axioms is reported without one), and
    with --timestamps the time of writing last.
    """
    provenance = {"input": args.path, "kind": p.kind,
                  **({"fingerprint": fingerprint(p)} if fields is None else fields)}
    if args.timestamps:
        import datetime
        provenance["timestamp"] = (
            datetime.datetime.now(datetime.timezone.utc).isoformat())
    _write_output(files.emit({
        "schema": SCHEMA,
        "command": args.command,
        "verdict": "pass" if passed else "fail",
        "violations": ([] if violation is None
                       else [files.violation_to_dict(violation, p.space)]),
        "mc": mc,
        "cohomology": cohomology_doc,
        "provenance": provenance,
    }), args.out)
    return EXIT_PASS if passed else EXIT_FINDING


def _budget() -> int:
    raw = os.environ.get("DERPAIR_DEGREE_BUDGET")
    if raw is None:
        return DEFAULT_COORD_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise SchemaError("DERPAIR_DEGREE_BUDGET must be an integer, "
                          f"got {_quote(raw)}") from exc
    if value < 1:
        raise SchemaError("DERPAIR_DEGREE_BUDGET must be positive")
    return value


def cmd_check(args) -> int:
    p = files.parse_presentation(_read(args.path), args.kind)
    violation = check_structure(p)
    return _emit(args, p, violation is None, violation)


def cmd_cohomology(args) -> int:
    p = files.parse_presentation(_read(args.path))
    spec = ComplexSpec(args.complex, p, args.max_degree)
    try:
        report = cohomology(spec, budget=_budget(),
                            include_kernel_bases=args.kernel_bases)
    except InvalidStructureError as exc:
        return _emit(args, p, False, exc.violation, fields={})
    return _emit(args, p, report.dd_zero_certified,
                 cohomology_doc=files.cohomology_to_dict(report))


def cmd_mc(args) -> int:
    p = files.parse_presentation(_read(args.path))
    info = KIND_INFO[p.kind]
    # family -> (product name, top from a product, single check, pair check),
    # read per call so that a replaced module function is the one called
    checks = {"lie": ("bracket", AltMap.from_multimap, mc_lieder, mc_pair_lieder),
              "associative": ("mu", lambda mu: mu, mc_assder, mc_pair_assder)}
    if info.family not in checks or info.compatible != args.pair:
        what = "mc --pair" if args.pair else "mc (single)"
        raise SchemaError(f"{what} does not support kind {p.kind!r}")
    name, to_top, single, pair = checks[info.family]
    zero = MultiMap.zero(p.space, 1)

    def part(i):
        return to_top(p.products[name + i]), p.derivations.get("delta" + i, zero)

    verdict = pair(*part("1"), *part("2")) if args.pair else single(*part(""))
    return _emit(args, p, verdict.holds, mc=files.mc_to_dict(verdict, p.space))


def cmd_dendrify(args) -> int:
    if args.coefficients is not None and args.recipe != "linear-combine":
        raise SchemaError("--coefficients applies only to the linear-combine recipe")
    p = files.parse_presentation(_read(args.path))
    coefficients = None
    if args.coefficients is not None:
        parts = args.coefficients.split(",")
        if len(parts) != 4:
            raise SchemaError("--coefficients needs four rationals k1,k2,p1,p2")
        coefficients = [files.parse_scalar(x) for x in parts]
    try:
        result = dendrify(p, args.recipe, coefficients)
    except InvalidStructureError as exc:
        return _emit(args, p, False, exc.violation, fields={"recipe": args.recipe})
    _write_output(files.emit_presentation(result), args.out)
    return EXIT_PASS


def cmd_bracket(args) -> int:
    left = files.parse_cochain(_read(args.left))
    right = files.parse_cochain(_read(args.right))
    kind = args.kind
    # kind -> (cochain flavor, bracket, takes (top, shadow) pairs), read per call
    flavor, bracket, pairs = {"g": ("multi", gerstenhaber, False),
                              "nr": ("alt", nijenhuis_richardson, False),
                              "dc": ("alt", dc_bracket, True),
                              "assder": ("multi", assder_bracket, True)}[kind]
    if not pairs and any(side.shadow is not None and not side.shadow.is_zero()
                         for side in (left, right)):
        raise SchemaError(f"bracket kind {kind!r} takes plain cochains (no shadow)")
    if left.flavor != flavor or right.flavor != flavor:
        raise SchemaError(f'bracket kind "{kind}" needs flavor "{flavor}"')
    if pairs:
        value = bracket(left, right)
    else:
        top = bracket(left.top, right.top)
        value = DerCochain(top, DerCochain.zero(top.space, top.arity, flavor).shadow)
    _write_output(files.emit_cochain(value, with_shadow=pairs), args.out)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derpair",
        description="Exact-rational checks, transfers, square-zero tests, and "
                    "cohomology for algebras with derivations. File indices "
                    "are 0-based; reports print 1-based basis labels e1..en.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="write the result here instead of stdout")
        sp.add_argument("--timestamps", action="store_true",
                        help="include a timestamp in the report provenance")

    sp = sub.add_parser("check", help="verify the axioms of the claimed kind")
    sp.add_argument("path")
    sp.add_argument("--kind", choices=KINDS,
                    help="check against this kind instead of the file's")
    common(sp)
    sp.set_defaults(handler=cmd_check)

    sp = sub.add_parser("cohomology", help="cochain dimensions, ranks, "
                                           "cohomology groups, d o d certification")
    sp.add_argument("path")
    sp.add_argument("--complex", required=True, choices=FLAVORS)
    sp.add_argument("--max-degree", type=int, default=2)
    sp.add_argument("--kernel-bases", action="store_true",
                    help="include closed-cochain bases in the report")
    common(sp)
    sp.set_defaults(handler=cmd_cohomology)

    sp = sub.add_parser("mc", help="square-zero (Maurer-Cartan style) check")
    sp.add_argument("path")
    sp.add_argument("--pair", action="store_true",
                    help="check the compatible-pair condition")
    common(sp)
    sp.set_defaults(handler=cmd_mc)

    sp = sub.add_parser("dendrify", help="apply a structure-transfer recipe")
    sp.add_argument("path")
    sp.add_argument("--recipe", required=True, choices=sorted(RECIPE_KINDS))
    sp.add_argument("--coefficients",
                    help="k1,k2,p1,p2 for linear-combine (default 1,1,1,1)")
    common(sp)
    sp.set_defaults(handler=cmd_dendrify)

    sp = sub.add_parser("bracket", help="bracket of two cochain files")
    sp.add_argument("--kind", required=True, choices=("g", "nr", "dc", "assder"))
    sp.add_argument("left")
    sp.add_argument("right")
    common(sp)
    sp.set_defaults(handler=cmd_bracket)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import, and shared by later calls
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except DegreeBudgetError as exc:
        print(f"derpair: resource limit: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except DerpairError as exc:
        print(f"derpair: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
