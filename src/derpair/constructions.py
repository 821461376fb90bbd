"""Structure transfer between the supported algebra kinds.

Each recipe consumes a checked presentation and produces a presentation of
the target kind: splitting products recombine into associative ones,
one-sided products feed pre-Lie structures, commutators descend to Lie
brackets, and the compatible variants transfer componentwise with the
derivations carried along.  Operator-induced transfers (a square-preserving
endomorphism, Rota-Baxter operators of weight zero, and the deformed product
of an integrable endomorphism) are exposed as separate operations because
they take the extra operator argument.

Inputs are always validated against their claimed kind first; outputs carry
provenance (recipe name and input fingerprint) and never share state with
their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cochains import MultiMap, accumulate
from .errors import InvalidStructureError, SchemaError
from .structures import (KIND_INFO, Presentation, check_operator,
                         check_structure, fingerprint, kind_shape,
                         validate_presentation)


@dataclass(frozen=True)
class Recipe:
    name: str
    input_kind: str
    output_kind: str


def _precompose(m: MultiMap, slot: int, op: MultiMap) -> MultiMap:
    """m with op applied to argument `slot`: (x,y) -> m(..., op(arg), ...)."""
    terms = [((args[:slot] + (src,) + args[slot + 1:], out), value * coefficient)
             for (args, out), value in m.coeffs.items()
             for ((src,), mid), coefficient in op.coeffs.items() if mid == args[slot]]
    return MultiMap(m.space, m.arity, accumulate({}, terms))


def _postcompose(op: MultiMap, m: MultiMap) -> MultiMap:
    """op o m."""
    terms = [((args, dst), value * coefficient)
             for (args, out), value in m.coeffs.items()
             for ((src,), dst), coefficient in op.coeffs.items() if src == out]
    return MultiMap(m.space, m.arity, accumulate({}, terms))


def _commutator(m: MultiMap) -> MultiMap:
    return m - m.flip()


# recipe name -> {accepted input kind: output kind}
RECIPE_KINDS = {
    "dendriform-to-associative": {"dendriform": "associative",
                                  "dendrider": "assder"},
    "dendriform-to-prelie": {"dendriform": "prelie", "dendrider": "prelieder"},
    "zinbiel-to-dendriform": {"zinbiel": "dendriform", "zinder": "dendrider"},
    "zinbiel-to-associative": {"zinbiel": "associative", "zinder": "assder"},
    "associative-to-lie": {"associative": "lie", "assder": "lieder"},
    "prelie-to-lie": {"prelie": "lie", "prelieder": "lieder"},
    "compatible-assder-to-compatible-lieder": {
        "compatible-assder": "compatible-lieder",
        "compatible-associative": "compatible-lie"},
    "compatible-dendrider-to-compatible-assder": {
        "compatible-dendrider": "compatible-assder",
        "compatible-dendriform": "compatible-associative"},
    "compatible-dendrider-to-compatible-prelieder": {
        "compatible-dendrider": "compatible-prelieder",
        "compatible-dendriform": "compatible-prelie"},
    "compatible-prelieder-to-compatible-lieder": {
        "compatible-prelieder": "compatible-lieder",
        "compatible-prelie": "compatible-lie"},
    "compatible-zinder-to-compatible-assder": {
        "compatible-zinder": "compatible-assder",
        "compatible-zinbiel": "compatible-associative"},
    "linear-combine": {kind: kind.removeprefix("compatible-")
                       for kind in KIND_INFO if kind.startswith("compatible-")},
}

RECIPES = tuple(Recipe(name, input_kind, output_kind)
                for name in sorted(RECIPE_KINDS)
                for input_kind, output_kind in sorted(RECIPE_KINDS[name].items()))


def _checked(p: Presentation) -> Presentation:
    validate_presentation(p)
    violation = check_structure(p)
    if violation is not None:
        raise InvalidStructureError(
            f"input fails {violation.axiom} at {violation.witness}", violation)
    return p


def _fresh(space, products, derivations, kind, name, source) -> Presentation:
    return Presentation(space, products, derivations, kind,
                        provenance={"recipe": name, "input": fingerprint(source)})


def _zinbiel_split(star: MultiMap) -> tuple[MultiMap, MultiMap]:
    # x < y = y * x and x > y = x * y is the splitting matching the zinbiel
    # orientation x*(y*z) = (x*y)*z + (y*x)*z; the symmetric choice fails the
    # middle dendriform axiom whenever triple products survive.
    return star.flip(), star


def dendrify(p: Presentation, recipe: str, coefficients=None) -> Presentation:
    """Apply a named transfer recipe; `coefficients` only feeds linear-combine."""
    table = RECIPE_KINDS.get(recipe)
    if table is None:
        raise SchemaError(f"unknown recipe {recipe!r}")
    if p.kind not in table:
        raise SchemaError(f"recipe {recipe!r} does not accept kind {p.kind!r}")
    _checked(p)
    out_kind = table[p.kind]
    der = KIND_INFO[p.kind].with_derivation
    space = p.space

    if recipe == "linear-combine":
        k1, k2, p1, p2 = (Fraction(1), Fraction(1), Fraction(1), Fraction(1)) \
            if coefficients is None else tuple(map(Fraction, coefficients))
        base_names, _ = kind_shape(out_kind)
        products = {name: p.products[f"{name}1"].scale(k1)
                    + p.products[f"{name}2"].scale(k2)
                    for name in base_names}
        derivations = {}
        if der:
            derivations["delta"] = (p.derivations["delta1"].scale(p1)
                                    + p.derivations["delta2"].scale(p2))
        return _fresh(space, products, derivations, out_kind, recipe, p)

    def carried():
        return {name: m for name, m in p.derivations.items()}

    if recipe == "dendriform-to-associative":
        products = {"mu": p.products["prec"] + p.products["succ"]}
    elif recipe == "dendriform-to-prelie":
        products = {"circ": p.products["succ"] - p.products["prec"].flip()}
    elif recipe == "zinbiel-to-dendriform":
        prec, succ = _zinbiel_split(p.products["star"])
        products = {"prec": prec, "succ": succ}
    elif recipe == "zinbiel-to-associative":
        star = p.products["star"]
        products = {"mu": star + star.flip()}
    elif recipe == "associative-to-lie":
        products = {"bracket": _commutator(p.products["mu"])}
    elif recipe == "prelie-to-lie":
        products = {"bracket": _commutator(p.products["circ"])}
    elif recipe == "compatible-assder-to-compatible-lieder":
        products = {f"bracket{i}": _commutator(p.products[f"mu{i}"])
                    for i in (1, 2)}
    elif recipe == "compatible-dendrider-to-compatible-assder":
        products = {f"mu{i}": p.products[f"prec{i}"] + p.products[f"succ{i}"]
                    for i in (1, 2)}
    elif recipe == "compatible-dendrider-to-compatible-prelieder":
        products = {f"circ{i}": p.products[f"succ{i}"]
                    - p.products[f"prec{i}"].flip()
                    for i in (1, 2)}
    elif recipe == "compatible-prelieder-to-compatible-lieder":
        products = {f"bracket{i}": _commutator(p.products[f"circ{i}"])
                    for i in (1, 2)}
    elif recipe == "compatible-zinder-to-compatible-assder":
        products = {f"mu{i}": p.products[f"star{i}"]
                    + p.products[f"star{i}"].flip()
                    for i in (1, 2)}
    else:  # pragma: no cover
        raise SchemaError(f"unhandled recipe {recipe!r}")
    return _fresh(space, products, carried(), out_kind, recipe, p)


def _require_operator(p: Presentation, op: MultiMap, role: str, weight=0):
    violation = check_operator(p, op, role, weight)
    if violation is not None:
        raise InvalidStructureError(
            f"operator fails {violation.axiom} at {violation.witness}", violation)


def nijenhuis_product(mu: MultiMap, n_op: MultiMap, check: bool = True) -> MultiMap:
    """Deformed product mu_N(x,y) = mu(Nx,y) + mu(x,Ny) - N(mu(x,y)).

    Requires N to satisfy the integrability identity
    mu(Nx,Ny) = N(mu(Nx,y) + mu(x,Ny) - N(mu(x,y))); the outcome then forms a
    compatible associative pair with mu.
    """
    if check:
        host = Presentation(mu.space, {"mu": mu}, {}, "associative")
        violation = check_structure(host)
        if violation is not None:
            raise InvalidStructureError(
                f"product fails {violation.axiom} at {violation.witness}",
                violation)
        _require_operator(host, n_op, "nijenhuis")
    return (_precompose(mu, 0, n_op) + _precompose(mu, 1, n_op)
            - _postcompose(n_op, mu))


def rb_deform_assder(p: Presentation, r_op: MultiMap) -> Presentation:
    """Deform both products of a compatible pair by a weight-0 Rota-Baxter map."""
    if p.kind != "compatible-assder":
        raise SchemaError("rb_deform_assder needs a compatible-assder presentation")
    _checked(p)
    _require_operator(p, r_op, "rota-baxter", 0)
    products = {}
    for i in (1, 2):
        mu = p.products[f"mu{i}"]
        products[f"mu{i}"] = _precompose(mu, 0, r_op) + _precompose(mu, 1, r_op)
    return _fresh(p.space, products, dict(p.derivations), "compatible-assder",
                  "rb-deform", p)


def endo_brackets(p: Presentation, t_op: MultiMap) -> Presentation:
    """Brackets [x,y]_i = mu_i(Tx,y) - mu_i(Ty,x) for an idempotent T.

    T must be idempotent and commute with both derivations; the result is a
    compatible Lie pair carrying the same derivations.
    """
    if p.kind != "compatible-assder":
        raise SchemaError("endo_brackets needs a compatible-assder presentation")
    _checked(p)
    _require_operator(p, t_op, "idempotent-endomorphism")
    products = {}
    for i in (1, 2):
        twisted = _precompose(p.products[f"mu{i}"], 0, t_op)
        products[f"bracket{i}"] = twisted - twisted.flip()
    return _fresh(p.space, products, dict(p.derivations), "compatible-lieder",
                  "endo-brackets", p)


def rb_lie_to_prelie(p: Presentation, r_op: MultiMap) -> Presentation:
    """Products x o_i y = [Rx, y]_i for a weight-0 Rota-Baxter map R."""
    if p.kind != "compatible-lieder":
        raise SchemaError("rb_lie_to_prelie needs a compatible-lieder presentation")
    _checked(p)
    _require_operator(p, r_op, "rota-baxter", 0)
    products = {f"circ{i}": _precompose(p.products[f"bracket{i}"], 0, r_op)
                for i in (1, 2)}
    return _fresh(p.space, products, dict(p.derivations), "compatible-prelieder",
                  "rb-to-prelie", p)
