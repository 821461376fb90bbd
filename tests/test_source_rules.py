"""Rules about the package source that no runtime test would notice."""

import ast
import importlib
import importlib.util
import pathlib

import derpair

PACKAGE = pathlib.Path(derpair.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so no check may rest on one.
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_span_targets_resolve():
    # perfbench/spans.py times the package by replacing the functions it
    # names; a renamed function would silently drop out of its metrics.
    path = PACKAGE.parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name in spans.MODULES:
        importlib.import_module(f"derpair.{name}")
    missing = []
    for layer, targets in spans.TARGETS.items():
        home = importlib.import_module(f"derpair.{layer}")
        for attr, _ in targets:
            owner_name, _, name = attr.rpartition(".")
            if owner_name:
                # spans.py replaces a method on the class that defines it
                owner = getattr(home, owner_name, None)
                found = owner is not None and name in vars(owner)
            else:
                found = hasattr(home, name)
            if not found:
                missing.append(f"{layer}.{attr}")
    assert missing == []


def _formulas():
    """(where, formula, arity) for every formula of the axiom and transfer tables."""
    from derpair import constructions, structures
    for _, name, arity, lhs, rhs in structures._AXIOMS:
        yield name, lhs, arity
        yield name, rhs, arity
    for recipe, rows in constructions._RECIPE_TABLE.items():
        for kind, (_, _, products, derivations) in rows.items():
            for arity, formulas in ((2, products), (1, derivations)):
                for out, formula in formulas.items():
                    yield f"{recipe}[{kind}].{out}", formula, arity
    for name, (*_, products) in constructions._OPERATORS.items():
        for out, formula in products.items():
            yield f"{name}.{out}", formula, 2
    yield "nijenhuis", constructions._NIJENHUIS, 2


def test_every_table_formula_holds_each_variable_once():
    # The evaluator reads each term's variables in leaf order, so a typo such
    # as star(x1,x1) would give wrong keys without any error.
    from derpair.structures import _parse
    bad = []
    for where, formula, arity in _formulas():
        try:
            terms = _parse(formula)
        except Exception as exc:
            bad.append(f"{where}: {formula!r} does not parse ({exc!r})")
            continue
        if not terms and formula.strip() != "0":
            bad.append(f"{where}: {formula!r} has no terms")
        bad += [f"{where}: {formula!r} term {i} holds {order}"
                for i, (*_, order) in enumerate(terms)
                if sorted(order) != list(range(arity))]
    assert bad == []
