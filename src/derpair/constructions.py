"""Structure transfer between the supported algebra kinds.

Each recipe consumes a checked presentation and produces a presentation of
the target kind: splitting products recombine into associative ones,
one-sided products feed pre-Lie structures, commutators descend to Lie
brackets, and the compatible variants transfer componentwise with the
derivations carried along.  Operator-induced transfers (a square-preserving
endomorphism, Rota-Baxter operators of weight zero, and the deformed product
of an integrable endomorphism) are exposed as separate operations because
they take the extra operator argument.

Every transfer and operator construction is one formula per output map in
the term language of the axiom table, such as ``succ(x0,x1) - prec(x1,x0)``,
which ``structures.evaluate`` computes from the stored entries of the maps
it names; a compatible recipe applies its single-structure row to each
structure of the pair.

Inputs are always validated against their claimed kind first; outputs carry
provenance (recipe name and input fingerprint) and never share state with
their inputs.
"""

from __future__ import annotations

from collections import namedtuple

from .cochains import MultiMap
from .errors import SchemaError
from .linalg import as_scalar
from .structures import (KIND_INFO, Presentation, check_operator, check_structure,
                         evaluate, fingerprint, kind_shape, require)


Recipe = namedtuple("Recipe", "name input_kind output_kind")


# (recipe, input family, output family, {output product: formula}, whether
# the recipe also runs on compatible pairs, one structure at a time)
_TRANSFERS = (
    ("dendriform-to-associative", "dendriform", "associative",
     {"mu": "prec(x0,x1) + succ(x0,x1)"}, True),
    ("dendriform-to-prelie", "dendriform", "prelie",
     {"circ": "succ(x0,x1) - prec(x1,x0)"}, True),
    # x < y = y * x and x > y = x * y is the splitting matching the zinbiel
    # orientation x*(y*z) = (x*y)*z + (y*x)*z; the symmetric choice fails the
    # middle dendriform axiom whenever triple products survive.
    ("zinbiel-to-dendriform", "zinbiel", "dendriform",
     {"prec": "star(x1,x0)", "succ": "star(x0,x1)"}, False),
    ("zinbiel-to-associative", "zinbiel", "associative",
     {"mu": "star(x0,x1) + star(x1,x0)"}, True),
    ("associative-to-lie", "associative", "lie",
     {"bracket": "mu(x0,x1) - mu(x1,x0)"}, True),
    ("prelie-to-lie", "prelie", "lie",
     {"bracket": "circ(x0,x1) - circ(x1,x0)"}, True),
)

# derivations pass through every transfer but linear-combine unchanged
_CARRIED = {"delta": "delta(x0)"}

# construction -> (function, input kind, output kind, operator role,
# {output product: formula}); the operator is T, applied to each structure
_OPERATORS = {
    "rb-deform": ("rb_deform_assder", "compatible-assder", "compatible-assder",
                  "rota-baxter", {"mu": "mu(T(x0),x1) + mu(x0,T(x1))"}),
    "endo-brackets": ("endo_brackets", "compatible-assder", "compatible-lieder",
                      "idempotent-endomorphism",
                      {"bracket": "mu(T(x0),x1) - mu(T(x1),x0)"}),
    "rb-to-prelie": ("rb_lie_to_prelie", "compatible-lieder",
                     "compatible-prelieder", "rota-baxter",
                     {"circ": "bracket(T(x0),x1)"}),
}

_NIJENHUIS = "mu(N(x0),x1) + mu(x0,N(x1)) - N(mu(x0,x1))"


def _build_recipe_table():
    """recipe -> {input kind: (output kind, suffixes, products, derivations)}.

    The formulas are applied once per suffix, to the maps whose names end in
    it with the suffix dropped.
    """
    kind = {(info.family, info.compatible, info.with_derivation): name
            for name, info in KIND_INFO.items()}
    table = {}
    for recipe, source, target, formulas, per_structure in _TRANSFERS:
        compatible = (f"compatible-{kind[source, False, True]}-to-"
                      f"compatible-{kind[target, False, True]}")
        for der in (False, True):
            carried = _CARRIED if der else {}
            table.setdefault(recipe, {})[kind[source, False, der]] = (
                kind[target, False, der], ("",), formulas, carried)
            if per_structure:
                table.setdefault(compatible, {})[kind[source, True, der]] = (
                    kind[target, True, der], ("1", "2"), formulas, carried)
    for name, info in KIND_INFO.items():
        if info.compatible:
            combined = {product: f"k1*{product}1(x0,x1) + k2*{product}2(x0,x1)"
                        for product in kind_shape(info.family)[0]}
            derivations = ({"delta": "p1*delta1(x0) + p2*delta2(x0)"}
                           if info.with_derivation else {})
            table.setdefault("linear-combine", {})[name] = (
                kind[info.family, False, info.with_derivation], ("",),
                combined, derivations)
    return table


_RECIPE_TABLE = _build_recipe_table()

# recipe name -> {accepted input kind: output kind}
RECIPE_KINDS = {recipe: {source: row[0] for source, row in rows.items()}
                for recipe, rows in _RECIPE_TABLE.items()}

RECIPES = tuple(Recipe(name, input_kind, output_kind)
                for name in sorted(RECIPE_KINDS)
                for input_kind, output_kind in sorted(RECIPE_KINDS[name].items()))


def _transfer(p: Presentation, name: str, out_kind: str, suffixes,
              products, derivations, extra) -> Presentation:
    """The presentation whose maps are the formulas on p's maps and extra."""
    maps = {**p.products, **p.derivations}
    out = ({}, {})
    for s in suffixes:
        named = {key[:len(key) - len(s)]: m for key, m in maps.items()
                 if key.endswith(s)}
        named.update(extra)
        for group, arity, formulas in zip(out, (2, 1), (products, derivations)):
            for key, formula in formulas.items():
                group[key + s] = evaluate(p.space, formula, arity, named)
    return Presentation(p.space, *out, out_kind,
                        provenance={"recipe": name, "input": fingerprint(p)})


def dendrify(p: Presentation, recipe: str, coefficients=None) -> Presentation:
    """Apply a named transfer recipe; `coefficients` only feeds linear-combine."""
    table = _RECIPE_TABLE.get(recipe)
    if table is None:
        raise SchemaError(f"unknown recipe {recipe!r}")
    if p.kind not in table:
        raise SchemaError(f"recipe {recipe!r} does not accept kind {p.kind!r}")
    require(check_structure(p), "input")
    k1, k2, p1, p2 = ((1, 1, 1, 1) if coefficients is None
                      else map(as_scalar, coefficients))
    return _transfer(p, recipe, *table[p.kind],
                     {"k1": k1, "k2": k2, "p1": p1, "p2": p2})


def nijenhuis_product(mu: MultiMap, n_op: MultiMap) -> MultiMap:
    """Deformed product mu_N(x,y) = mu(Nx,y) + mu(x,Ny) - N(mu(x,y)).

    Requires N to satisfy the integrability identity
    mu(Nx,Ny) = N(mu(Nx,y) + mu(x,Ny) - N(mu(x,y))); the outcome then forms a
    compatible associative pair with mu.
    """
    host = Presentation(mu.space, {"mu": mu}, {}, "associative")
    require(check_structure(host), "product")
    require(check_operator(host, n_op, "nijenhuis"), "operator")
    return evaluate(mu.space, _NIJENHUIS, 2, {"mu": mu, "N": n_op})


def _construct(name: str, p: Presentation, op: MultiMap) -> Presentation:
    function, in_kind, out_kind, role, products = _OPERATORS[name]
    if p.kind != in_kind:
        raise SchemaError(f"{function} needs a {in_kind} presentation")
    require(check_structure(p), "input")
    require(check_operator(p, op, role), "operator")
    return _transfer(p, name, out_kind, ("1", "2"), products, _CARRIED,
                     {"T": op})


def rb_deform_assder(p: Presentation, r_op: MultiMap) -> Presentation:
    """Deform both products of a compatible pair by a weight-0 Rota-Baxter map."""
    return _construct("rb-deform", p, r_op)


def endo_brackets(p: Presentation, t_op: MultiMap) -> Presentation:
    """Brackets [x,y]_i = mu_i(Tx,y) - mu_i(Ty,x) for an idempotent T.

    T must be idempotent and commute with both derivations; the result is a
    compatible Lie pair carrying the same derivations.
    """
    return _construct("endo-brackets", p, t_op)


def rb_lie_to_prelie(p: Presentation, r_op: MultiMap) -> Presentation:
    """Products x o_i y = [Rx, y]_i for a weight-0 Rota-Baxter map R."""
    return _construct("rb-to-prelie", p, r_op)
