"""Rules about the package source that no runtime test would notice."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

import derpair

from oracles import table_formulas

PACKAGE = pathlib.Path(derpair.__file__).parent
TESTS = pathlib.Path(__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so no check may rest on one: not
    # in the package, nor in the test helpers, which pytest does not rewrite.
    package = sorted(PACKAGE.glob("*.py"))
    assert package
    modules = package + [TESTS / name for name in ("oracles.py", "gen.py", "conftest.py")]
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _by_function(tree, match):
    """(enclosing function or '<module>', node) for the nodes that match accepts."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if match(child):
                found.append((where, child))
            visit(child, where)

    visit(tree, "<module>")
    return found


def _calls_by_function(tree, names, keep=lambda call: True):
    """(enclosing function or '<module>', called name) for the calls of the
    names that keep accepts."""
    return [(where, call.func.id) for where, call in _by_function(
        tree, lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in names and keep(node))]


def test_linalg_builds_fractions_only_at_its_boundary():
    # A Matrix is an integer table over one denominator from construction to
    # rank: Fractions are made only when parsing, by the dense views, by the
    # kernel read-out and for the ZERO/ONE constants, and only the
    # constructors' normalisation takes an lcm of denominators.
    path = PACKAGE / "linalg.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = {"Fraction": {"<module>", "as_scalar", "parse_scalar", "format_scalar",
                            "entry", "row", "nullspace"},
               "lcm": {"_over_one_denominator"}}
    calls = _calls_by_function(tree, allowed)
    assert {name for _, name in calls} == set(allowed)
    assert [(where, name) for where, name in calls if where not in allowed[name]] == []


def test_maps_build_fractions_only_at_read_out():
    # A coefficient is an int when integral (linalg.as_scalar), so the maps
    # are built, composed and evaluated without making Fractions: only the
    # read-outs do, eval, the dense coordinates and a violation's sides.
    # No module keeps a hand conversion between the two kinds (an _exact).
    readers = {"cochains.py": {"eval", "dense_coords"},
               "structures.py": {"_first_violation"},
               "brackets.py": set(), "files.py": set(), "constructions.py": set()}
    found = {}
    for name, allowed in readers.items():
        path = PACKAGE / name
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found[name] = sorted({where for where, _ in _calls_by_function(tree, {"Fraction"})}
                             - allowed)
        found[name] += [node.name for node in ast.walk(tree)
                        if isinstance(node, ast.FunctionDef) and node.name == "_exact"]
    assert found == {name: [] for name in readers}


def _sorts_or_accumulates(call):
    # accumulate, or _insert into the empty key: a full sort of its extra
    first = call.args[0] if call.args else None
    return call.func.id == "accumulate" or (isinstance(first, ast.Tuple) and not first.elts)


def test_ad_blocks_neither_sort_nor_accumulate_per_term():
    # The block builders insert one sorted key into another and add each term
    # straight into its column; a per-term sort (an _insert into the empty
    # key) or accumulate pass costs more than the blocks' few nonzeros.
    path = PACKAGE / "cochains.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = _calls_by_function(tree, {"_insert", "accumulate"}, _sorts_or_accumulates)
    builders = {"_ad_block", "_alt_terms", "_multi_terms"}
    assert [(where, name) for where, name in calls if where in builders] == []
    assert calls        # the helpers themselves are still called elsewhere


def _writes_a_sum(node):
    # t[k] += v, t[k] = <arithmetic>, or a sum() call: a sum loop of its own
    return ((isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Subscript))
            or (isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp)
                and any(isinstance(target, ast.Subscript) for target in node.targets))
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sum"))


def test_structures_sums_only_through_accumulate():
    # The evaluator keeps the package's one accumulate loop: every sparse sum
    # in structures (each inner tree's substitution, and a side's terms) goes
    # through cochains.accumulate, and structures writes no sum of its own.
    path = PACKAGE / "structures.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert [(where, node.lineno) for where, node in _by_function(tree, _writes_a_sum)] == []
    assert {where for where, _ in _calls_by_function(tree, {"accumulate"})} == {
        "_tensor", "_side"}


def _imported_or_read(tree, name):
    """The lines that import name or read it as an attribute (cochains._ad_block)."""
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names))
            or (isinstance(node, ast.Attribute) and node.attr == name)]


def test_ad_blocks_become_a_matrix_in_one_place():
    # cochains._ad_matrix is the one place where ad blocks are built, scaled
    # to integers over the lcm of the maps' denominators, signed and placed:
    # it alone calls _ad_block, and neither cohomology nor structures imports
    # the builder or integerises maps itself.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    callers = [(module, where) for module, tree in trees.items()
               for where, _ in _calls_by_function(tree, {"_ad_block"})]
    assert callers == [("cochains.py", "_ad_matrix")]
    # nor a way round that: an import of the builder, or cochains._ad_block
    assert [(module, line) for module, tree in trees.items()
            for line in _imported_or_read(tree, "_ad_block")] == []
    assert _calls_by_function(trees["cohomology.py"], {"lcm"}) == []
    assert _imported_or_read(trees["cohomology.py"], "lcm") == []


def _defined_functions():
    """{module file name: the names of the functions it defines, repeats kept}."""
    return {path.name: [node.name for node in ast.walk(ast.parse(
                path.read_text(encoding="utf-8"), filename=str(path)))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
            for path in sorted(PACKAGE.glob("*.py"))}


def test_a_cochain_shape_is_written_once():
    # The slot arities decide every dimension, basis and coordinate; they and
    # what follows from them are defined in cochains alone: the shape methods
    # once for maps and once for derivation-pair cochains.
    defined = _defined_functions()
    assert {name: names.count("_slot_arities") for name, names in defined.items()
            if "_slot_arities" in names} == {"cochains.py": 1}
    assert {"coord_length", "from_coords", "zero"}.isdisjoint(defined["cohomology.py"])
    counts = {name: defined["cochains.py"].count(name)
              for name in ("basis", "coord_length", "from_coords", "zero")}
    assert max(counts.values()) <= 2, counts


def test_each_cochain_operation_is_written_once():
    # _insert is the one signed sort; a map is read at a tuple by one eval,
    # and sums, multiples, equality and hashing are written once for maps and
    # once for the derivation-pair cochains
    defined = _defined_functions()
    assert [(module, name) for module, names in defined.items() for name in names
            if name in ("sort_with_sign", "_perm_sign")] == []
    cochains = defined["cochains.py"]
    assert cochains.count("_insert") == 1 and cochains.count("eval") == 1
    counts = {name: cochains.count(name) for name in ("_plus", "scale", "__eq__", "__hash__")}
    assert max(counts.values()) <= 2, counts


def test_each_bracket_formula_is_written_once():
    # Both graded brackets are one commutator over a composition and both pair
    # brackets one formula over an inner bracket: in brackets.py one function
    # composes (f o g and g o f) and one combines the shadow terms.
    path = PACKAGE / "brackets.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = _calls_by_function(
        tree, {"circle", "circle_g", "circle_nr", "linear_combination"})
    composers = {where for where, name in calls if name != "linear_combination"}
    combiners = {where for where, name in calls if name == "linear_combination"}
    assert len(composers) == 1 and len(combiners) == 1, (composers, combiners)


def _names(node):
    """The names a node reads or imports: a Name, an attribute, or an import."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {alias.name.rpartition(".")[2] for alias in node.names}
    return set()


def _statement_name(statement):
    """A module-level statement by what it binds: 'import', or its targets."""
    if isinstance(statement, (ast.Import, ast.ImportFrom)):
        return "import"
    targets = statement.targets if isinstance(statement, ast.Assign) else []
    return ",".join(target.id for target in targets if isinstance(target, ast.Name))


def test_one_function_lays_out_json():
    # files.emit writes every presentation, cochain and report in the one
    # canonical layout, through files._write_json: nothing in the package
    # calls or imports json's writers, json's string escaper is imported once
    # and read only by the writer's scalar table and _write_json, and only
    # emit starts a layout
    writers = {"dump", "dumps", "JSONEncoder", "make_encoder", "c_make_encoder"}
    found = {"writers": [], "escaper": [], "layout": []}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found["writers"] += [(path.name, where, node.lineno) for where, node in _by_function(
            tree, lambda node: bool(_names(node) & writers))]
        # a module-level read is named by the statement that holds it
        holder = {id(node): _statement_name(statement) for statement in tree.body
                  for node in ast.walk(statement)}
        found["escaper"] += [(path.name, holder[id(node)] if where == "<module>" else where)
                             for where, node in _by_function(
                                 tree, lambda node: "encode_basestring" in _names(node))]
        found["layout"] += [(path.name, where) for where, _ in _calls_by_function(
            tree, {"_write_json"})]
    assert found == {
        "writers": [],
        "escaper": [("files.py", "import"), ("files.py", "_SCALARS"),
                    ("files.py", "_write_json")],
        "layout": [("files.py", "_write_json"), ("files.py", "_write_json"),
                   ("files.py", "emit")]}


def test_cli_decides_verdict_and_exit_code_in_one_function():
    # a report's schema, its verdict and the finding exit code are written in
    # one function, so the verdict and the exit code cannot disagree
    path = PACKAGE / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    reads = _by_function(tree, lambda node: isinstance(node, ast.Name)
                         and isinstance(node.ctx, ast.Load)
                         and node.id in ("EXIT_FINDING", "SCHEMA"))
    assert {node.id for _, node in reads} == {"EXIT_FINDING", "SCHEMA"}
    readers = {where for where, _ in reads}
    assert len(readers) == 1 and "<module>" not in readers, readers


def test_one_complex_class_checks_every_base_on_one_path():
    # cohomology holds one complex class, with d and the matrices of every
    # flavor; a base is checked only in _structure, and an
    # InvalidStructureError carries a Violation only from structures.require
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    cohomology = trees["cohomology.py"]
    assert [node.name for node in cohomology.body if isinstance(node, ast.ClassDef)
            and any(isinstance(item, ast.FunctionDef) for item in node.body)] == ["_Complex"]
    assert _calls_by_function(cohomology, {"check_structure"}) == [
        ("_structure", "check_structure")]
    with_violation = [(module, where) for module, tree in trees.items()
                      for where, _ in _calls_by_function(
                          tree, {"InvalidStructureError"},
                          lambda call: len(call.args) + len(call.keywords) > 1)]
    assert with_violation == [("structures.py", "require")]


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


def test_every_table_formula_holds_each_variable_once():
    # The evaluator reads each term's variables in leaf order, so a typo such
    # as star(x1,x1) would give wrong keys without any error.
    from derpair.structures import _parse
    bad = []
    for where, formula, arity in table_formulas():
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


def test_formula_parser_rejects_adjacent_terms_and_leftovers():
    # a dropped + or - must not silently become a sum
    from derpair.errors import SchemaError
    from derpair.structures import _parse
    assert _parse("star(x0,x1) - k1*star(x1,x0)") == (
        (1, None, ("star", (0, 1)), (0, 1)), (-1, "k1", ("star", (1, 0)), (1, 0)))
    for bad in ("star(x0,x1) star(x1,x0)", "star(x0,x1) k1*star(x1,x0)",
                "star(x0,x1))", "star(x0,x1", "star(x0 x1)", "star[x0]", "+", "0 0"):
        with pytest.raises(SchemaError):
            _parse(bad)
