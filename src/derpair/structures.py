"""Axiom checkers for algebra kinds, derivation pairs, and compatible variants.

A ``Presentation`` bundles named bilinear products and linear derivations over
one based space together with a claimed ``kind``.  ``check_structure``
verifies every defining identity of that kind and reports the first failure
as a ``Violation``: the axiom, the lexicographically first basis tuple on
which it fails (all the identities are multilinear, so basis tuples are
exhaustive), and both sides there.

Every axiom is one entry of a table: a name, an arity and two signed sums of
compositions of the structure maps, such as ``mu(mu(x0,x1),x2)`` or
``T(P(T(x0),x1))``.  Each side is evaluated as a sparse tensor
{(tuple, out): value} slot by slot: from the outer map's stored entries,
each inner tree's tensor is substituted into its argument slot in turn, one
``accumulate`` pass per inner tree, so the cost follows the number of nonzero
structure constants, not d^arity.  The residual lhs - rhs is nonzero exactly
where the two tensors differ; axioms are taken in table order, and the
witness is the smallest tuple carrying a nonzero residual.
``check_operator`` and ``check_morphism`` use the same table and evaluator.
``require`` raises the ``InvalidStructureError`` of every failed structure
precondition in ``cohomology`` and ``constructions``.
``evaluate`` returns one such sum as a map, so the transfers and operator
constructions of ``derpair.constructions`` are written in the same terms.

``derivation_system`` and ``cross_derivation_system`` are the linear systems
whose kernels are derivations.  A linear map D is a derivation of a product
P exactly when [P, D] = 0, so each system is a stack of ad blocks -ad_P on
linear maps: one term per (product, unknown), from the unknown's linear slot
to one bilinear out slot, made a matrix by ``cochains._ad_matrix`` as the
coboundaries of ``derpair.cohomology`` are.

Supported kinds, with the product/derivation names each requires:

    associative            mu
    lie                    bracket
    prelie                 circ
    zinbiel                star
    dendriform             prec, succ
    <kind>der / <kind> pair variants add delta
    compatible-<kind>      mu1, mu2 / bracket1, bracket2 / ... plus delta1, delta2

Every product and derivation is a ``MultiMap``, and ``validate_presentation``
refuses any other map with a ``SchemaError``.  So Lie brackets are stored as
full bilinear tables; skew-symmetry is checked explicitly rather than
assumed, so user files with a non-antisymmetric table get a named violation
instead of silent antisymmetrization.
"""

from __future__ import annotations

import hashlib
import re
from collections import namedtuple
from fractions import Fraction
from functools import cache
from operator import itemgetter

from .cochains import MultiMap, _ad_matrix, accumulate
from .errors import (InvalidStructureError, SchemaError, ShapeError, UnsupportedRoleError,
                     _quote)
from .linalg import Matrix, Space, as_scalar

_FAMILY_PRODUCTS = {
    "associative": ("mu",),
    "lie": ("bracket",),
    "prelie": ("circ",),
    "zinbiel": ("star",),
    "dendriform": ("prec", "succ"),
}

_DER_KIND = {
    "associative": "assder",
    "lie": "lieder",
    "prelie": "prelieder",
    "zinbiel": "zinder",
    "dendriform": "dendrider",
}


KindInfo = namedtuple("KindInfo", "family compatible with_derivation")


def _build_kind_table():
    table = {}
    for family in _FAMILY_PRODUCTS:
        table[family] = KindInfo(family, False, False)
        table[_DER_KIND[family]] = KindInfo(family, False, True)
        table[f"compatible-{family}"] = KindInfo(family, True, False)
        table[f"compatible-{_DER_KIND[family]}"] = KindInfo(family, True, True)
    return table


KIND_INFO = _build_kind_table()
KINDS = tuple(sorted(KIND_INFO))


def kind_shape(kind: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Required (product names, derivation names) for a kind."""
    info = KIND_INFO.get(kind)
    if info is None:
        raise SchemaError(f"unknown structure kind {_quote(kind)}")
    bases = _FAMILY_PRODUCTS[info.family]
    if info.compatible:
        products = tuple(f"{name}{i}" for i in (1, 2) for name in bases)
        derivations = ("delta1", "delta2") if info.with_derivation else ()
    else:
        products = bases
        derivations = ("delta",) if info.with_derivation else ()
    return products, derivations


class Violation(namedtuple("Violation", "axiom witness lhs rhs")):
    """First failing instance of one axiom: where, and both side values."""

    __slots__ = ()


class Presentation(namedtuple("Presentation",
                              "space products derivations kind provenance")):
    """Named products and derivations over one space, with a claimed kind."""

    __slots__ = ()

    def __new__(cls, space, products, derivations, kind, provenance=None):
        return super().__new__(cls, space, products, derivations, kind,
                               {} if provenance is None else provenance)


def validate_presentation(p: Presentation) -> None:
    """Schema-level checks: known kind, exact name sets, MultiMaps on one space, arities."""
    needed_products, needed_derivations = kind_shape(p.kind)
    if set(p.products) != set(needed_products):
        raise SchemaError(
            f"kind {p.kind!r} needs products {sorted(needed_products)}, "
            f"got {_quote(sorted(p.products))}")
    if set(p.derivations) != set(needed_derivations):
        raise SchemaError(
            f"kind {p.kind!r} needs derivations {sorted(needed_derivations)}, "
            f"got {_quote(sorted(p.derivations))}")
    for noun, maps, arity in (("product", p.products, 2), ("derivation", p.derivations, 1)):
        for name, m in maps.items():
            if not isinstance(m, MultiMap):
                raise SchemaError(f"{noun} {name!r} must be a MultiMap")
            if m.space != p.space:
                raise SchemaError(f"{noun} {name!r} lives on a different space")
            if m.arity != arity:
                raise SchemaError(f"{noun} {name!r} must be "
                                  f"{'bilinear' if arity == 2 else 'linear'}")


def fingerprint(p: Presentation) -> str:
    """Stable content hash of a presentation (kind, space, structure constants)."""
    digest = hashlib.sha256()
    digest.update(p.kind.encode())
    digest.update(repr((p.space.dimension, p.space.labels)).encode())
    for group in (p.products, p.derivations):
        for name in sorted(group):
            # one string per map: sha256 hashes the concatenation of its updates
            coeffs = group[name].coeffs
            digest.update((name + "".join(repr((key, str(coeffs[key])))
                                          for key in sorted(coeffs))).encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# axioms as residual tensors
# ---------------------------------------------------------------------------
#
# An axiom is (group, name, arity, lhs, rhs); the checks below take whole
# groups, in table order.  Each side is a signed sum of terms
# over the variables x0..x{arity-1}; a term is a tree of maps holding every
# variable once, optionally scaled by a named scalar ("w*T(P(x0,x1))"), and
# "0" is the empty sum.  Map and scalar names are resolved per check, and the
# braces in a name are filled with the tags of the maps checked.

_AXIOMS = (
    ("associative", "associativity({tag})", 3, "mu(mu(x0,x1),x2)", "mu(x0,mu(x1,x2))"),
    ("lie", "skew-symmetry({tag})", 2, "bracket(x0,x1)", "-bracket(x1,x0)"),
    ("lie", "jacobi({tag})", 3, "bracket(bracket(x0,x1),x2)"
     " + bracket(bracket(x1,x2),x0) + bracket(bracket(x2,x0),x1)", "0"),
    ("prelie", "pre-lie({tag})", 3, "circ(circ(x0,x1),x2) - circ(x0,circ(x1,x2))",
     "circ(circ(x1,x0),x2) - circ(x1,circ(x0,x2))"),
    ("zinbiel", "zinbiel({tag})", 3, "star(x0,star(x1,x2))",
     "star(star(x0,x1),x2) + star(star(x1,x0),x2)"),
    ("dendriform", "dendriform-left({tag})", 3, "prec(prec(x0,x1),x2)",
     "prec(x0,prec(x1,x2)) + prec(x0,succ(x1,x2))"),
    ("dendriform", "dendriform-middle({tag})", 3, "prec(succ(x0,x1),x2)",
     "succ(x0,prec(x1,x2))"),
    ("dendriform", "dendriform-right({tag})", 3, "succ(x0,succ(x1,x2))",
     "succ(prec(x0,x1),x2) + succ(succ(x0,x1),x2)"),
    ("compatible-associative", "compatible-associative", 3,
     "mu2(mu1(x0,x1),x2) + mu1(mu2(x0,x1),x2)",
     "mu1(x0,mu2(x1,x2)) + mu2(x0,mu1(x1,x2))"),
    ("compatible-lie", "compatible-jacobi", 3,
     "bracket2(bracket1(x0,x1),x2) + bracket2(bracket1(x1,x2),x0)"
     " + bracket2(bracket1(x2,x0),x1) + bracket1(bracket2(x0,x1),x2)"
     " + bracket1(bracket2(x1,x2),x0) + bracket1(bracket2(x2,x0),x1)", "0"),
    ("compatible-prelie", "compatible-pre-lie", 3,
     "circ1(x0,circ2(x1,x2)) + circ2(x0,circ1(x1,x2))"
     " - circ1(circ2(x0,x1),x2) - circ2(circ1(x0,x1),x2)",
     "circ1(x1,circ2(x0,x2)) + circ2(x1,circ1(x0,x2))"
     " - circ1(circ2(x1,x0),x2) - circ2(circ1(x1,x0),x2)"),
    ("compatible-zinbiel", "compatible-zinbiel", 3,
     "star1(x0,star2(x1,x2)) + star2(x0,star1(x1,x2))",
     "star1(star2(x0,x1),x2) + star2(star1(x0,x1),x2)"
     " + star1(star2(x1,x0),x2) + star2(star1(x1,x0),x2)"),
    ("compatible-dendriform", "compatible-dendriform-left", 3,
     "prec2(prec1(x0,x1),x2) + prec1(prec2(x0,x1),x2)",
     "prec2(x0,prec1(x1,x2)) + prec2(x0,succ1(x1,x2))"
     " + prec1(x0,prec2(x1,x2)) + prec1(x0,succ2(x1,x2))"),
    ("compatible-dendriform", "compatible-dendriform-middle", 3,
     "prec2(succ1(x0,x1),x2) + prec1(succ2(x0,x1),x2)",
     "succ2(x0,prec1(x1,x2)) + succ1(x0,prec2(x1,x2))"),
    ("compatible-dendriform", "compatible-dendriform-right", 3,
     "succ2(prec1(x0,x1),x2) + succ2(succ1(x0,x1),x2)"
     " + succ1(prec2(x0,x1),x2) + succ1(succ2(x0,x1),x2)",
     "succ2(x0,succ1(x1,x2)) + succ1(x0,succ2(x1,x2))"),
    ("derivation", "derivation({D},{P})", 2, "D(P(x0,x1))",
     "P(D(x0),x1) + P(x0,D(x1))"),
    # delta1 acting across structure 2 plus delta2 across structure 1
    ("cross-derivation", "cross-derivation({P})", 2, "D1(P2(x0,x1)) + D2(P1(x0,x1))",
     "P2(D1(x0),x1) + P2(x0,D1(x1)) + P1(D2(x0),x1) + P1(x0,D2(x1))"),
    ("rota-baxter", "rota-baxter({P})", 2, "P(T(x0),T(x1)) + w*T(P(x0,x1))",
     "T(P(T(x0),x1)) + T(P(x0,T(x1)))"),
    ("nijenhuis", "nijenhuis({P})", 2, "P(T(x0),T(x1))",
     "T(P(T(x0),x1)) + T(P(x0,T(x1))) - T(T(P(x0,x1)))"),
    ("idempotent", "idempotent", 1, "T(T(x0))", "T(x0)"),
    # "endomorphism" is multiplicative: T(P(x,y)) = P(Tx,Ty).  Idempotency
    # plus commutation alone does not make the induced brackets Lie.
    ("multiplicative", "multiplicative({P})", 2, "T(P(x0,x1))", "P(T(x0),T(x1))"),
    ("commutes", "commutes({D})", 1, "T(D(x0))", "D(T(x0))"),
    ("morphism-product", "morphism-product({P})", 2, "phi(P(x0,x1))",
     "Q(phi(x0),phi(x1))"),
    ("morphism-derivation", "morphism-derivation({D})", 1, "phi(D(x0))", "E(phi(x0))"),
)

_TOKEN = re.compile(r"\w+|\S")


@cache
def _parse(side: str) -> tuple:
    """A side as ((sign, scalar name or None, tree, variables in leaf order), ...).

    A tree is a variable index or (map name, children).  A child is a
    variable index or (slot, inner tree): the slot the inner tree fills in its
    outer map's arguments once the inner trees to its left are substituted.
    """
    tokens = _TOKEN.findall(side)[::-1]

    def take(*expected):
        if not tokens or (expected and tokens[-1] not in expected):
            found = repr(tokens[-1]) if tokens else "the end"
            raise SchemaError(f"formula {side!r}: expected "
                              f"{' or '.join(expected) or 'a term'}, found {found}")
        return tokens.pop()

    def tree():
        name = take()
        if name[0] == "x" and name[1:].isdigit():
            order.append(int(name[1:]))
            return order[-1]
        take("(")
        first, children = len(order), []
        while not children or take(",", ")") == ",":
            at = len(order) - first     # the variables of the children before it
            node = tree()
            children.append(node if isinstance(node, int) else (at, node))
        return name, tuple(children)

    if tokens == ["0"]:
        return ()
    terms = []
    while tokens:
        sign = -1 if tokens[-1] == "-" else 1
        if terms or tokens[-1] in ("+", "-"):
            take("+", "-")      # every term after the first follows a sign
        scalar = None
        if len(tokens) > 1 and tokens[-2] == "*":
            scalar = take()
            take("*")
        order = []
        terms.append((sign, scalar, tree(), tuple(order)))
    return tuple(terms)


@cache
def _picker(order: tuple):
    """The itemgetter putting a term's leaf-order values in variable order, or None."""
    variables = sorted(order)
    return None if order == tuple(variables) else itemgetter(*map(order.index, variables))


def _tensor(tree, maps) -> dict:
    """{(values of the tree's variables in leaf order, out): value} of a tree.

    Each inner tree is substituted into its slot of the outer table in turn:
    an entry (args, out) meets every entry of the inner tensor whose output
    is args[slot], so the cost follows the stored entries.
    """
    name, children = tree
    table = maps[name]
    for child in children:
        if isinstance(child, int):
            continue
        at, inner = child
        by_out = {}
        for (values, out), value in _tensor(inner, maps).items():
            by_out.setdefault(out, []).append((values, value))
        table = accumulate({}, (((args[:at] + values + args[at + 1:], out), x * y)
                                for (args, out), x in table.items()
                                for values, y in by_out.get(args[at], ())))
    return table


def _side(side: str, maps) -> dict:
    """{(tuple, out): value} of one side of an axiom; zeros are not stored."""
    terms = _parse(side)
    if len(terms) == 1 and terms[0][:2] == (1, None) and _picker(terms[0][3]) is None:
        return _tensor(terms[0][2], maps)
    acc = {}
    for sign, scalar, tree, order in terms:
        factor, pick = sign if scalar is None else sign * maps[scalar], _picker(order)
        entries = _tensor(tree, maps).items() if factor else ()
        accumulate(acc, entries if factor == 1 and pick is None else (
            ((values if pick is None else pick(values), out), factor * value)
            for (values, out), value in entries))
    return acc


def _tables(maps) -> dict:
    """MultiMaps resolved to {key: value} tables; scalars pass through."""
    return {name: m.coeffs if isinstance(m, MultiMap) else m for name, m in maps.items()}


def _axioms(group: str, maps, **tags) -> list:
    """The axioms of one group, with maps resolved to {key: value} tables."""
    tables = _tables(maps)
    return [(name.format(**tags), lhs, rhs, tables)
            for key, name, _, lhs, rhs in _AXIOMS if key == group]


def evaluate(space: Space, formula: str, arity: int, maps) -> MultiMap:
    """The map (x0, ..., x{arity-1}) -> formula, one side in the table's syntax.

    Only the maps the formula names are resolved; the result's keys come from
    their stored entries, so they are not checked again.  The table is copied,
    as a lone term such as ``delta(x0)`` is the named map's own table.
    """
    named = {name: maps[name] for name in maps.keys() & _TOKEN.findall(formula)}
    return MultiMap._of(space, arity, dict(_side(formula, _tables(named))))


def _first_violation(space: Space, axioms):
    """The first failing axiom, in order, as a Violation; None if all hold.

    The residual lhs - rhs is nonzero exactly on the keys where the two side
    tensors differ; the witness is the smallest tuple among them, and the
    Violation reads both sides there as dense vectors.
    """
    for name, lhs, rhs, maps in axioms:
        left, right = _side(lhs, maps), _side(rhs, maps)
        if left == right:
            continue
        witness = min(key for key in left.keys() | right.keys()
                      if left.get(key, 0) != right.get(key, 0))[0]
        d = space.dimension
        return Violation(name, witness,
                         tuple(Fraction(left.get((witness, j), 0)) for j in range(d)),
                         tuple(Fraction(right.get((witness, j), 0)) for j in range(d)))
    return None


def _structure_axioms(p: Presentation) -> list:
    info = KIND_INFO[p.kind]
    names = _FAMILY_PRODUCTS[info.family]
    suffixes = ("1", "2") if info.compatible else ("",)
    axioms = []
    for i in suffixes:
        axioms += _axioms(info.family, {n: p.products[n + i] for n in names},
                          tag=",".join(n + i for n in names))
    if info.compatible:
        axioms += _axioms(f"compatible-{info.family}", p.products)
    if info.with_derivation:
        for name in names:
            for i in suffixes:
                axioms += _axioms("derivation", {"D": p.derivations["delta" + i],
                                                 "P": p.products[name + i]},
                                  D="delta" + i, P=name + i)
        for name in names if info.compatible else ():
            axioms += _axioms("cross-derivation",
                              {"D1": p.derivations["delta1"], "D2": p.derivations["delta2"],
                               "P1": p.products[name + "1"], "P2": p.products[name + "2"]},
                              P=name)
    return axioms


def require(violation, what: str) -> None:
    """Raise InvalidStructureError ``{what} fails {axiom} at {witness}`` on a violation."""
    if violation is not None:
        raise InvalidStructureError(
            f"{what} fails {violation.axiom} at {violation.witness}", violation)


def check_structure(p: Presentation):
    """Verify every defining identity of p.kind; None on pass, else first Violation."""
    validate_presentation(p)
    return _first_violation(p.space, _structure_axioms(p))


def check_morphism(src: Presentation, dst: Presentation, phi: MultiMap):
    """Verify phi preserves every product and intertwines every derivation."""
    validate_presentation(src)
    validate_presentation(dst)
    if src.kind != dst.kind:
        raise SchemaError("morphism endpoints must share a kind")
    if not isinstance(phi, MultiMap) or phi.arity != 1:
        raise ShapeError("a morphism is a linear map")
    if phi.space != src.space or dst.space.dimension != src.space.dimension:
        raise ShapeError("morphism must map the source space to the target space")
    axioms = []
    for name in sorted(src.products):
        axioms += _axioms("morphism-product",
                          {"phi": phi, "P": src.products[name], "Q": dst.products[name]},
                          P=name)
    for name in sorted(src.derivations):
        axioms += _axioms("morphism-derivation",
                          {"phi": phi, "D": src.derivations[name],
                           "E": dst.derivations[name]}, D=name)
    return _first_violation(src.space, axioms)


def check_operator(p: Presentation, op: MultiMap, role: str, weight=0):
    """Verify op plays the given role on p; None on pass, else first Violation.

    Roles: "derivation", "rota-baxter" (with weight), "nijenhuis",
    "idempotent-endomorphism".  On compatible kinds the operator roles other
    than derivation additionally require commutation with every derivation of
    the presentation.
    """
    validate_presentation(p)
    if not isinstance(op, MultiMap) or op.arity != 1 or op.space != p.space:
        raise ShapeError("operator must be a linear endomorphism of p.space")
    weight = as_scalar(weight)
    info = KIND_INFO[p.kind]
    group = {"derivation": "derivation", "rota-baxter": "rota-baxter",
             "nijenhuis": "nijenhuis",
             "idempotent-endomorphism": "multiplicative"}.get(role)
    if group is None:
        raise UnsupportedRoleError(f"unknown operator role {role!r}")
    if role == "rota-baxter" and info.family not in ("associative", "lie", "dendriform"):
        raise UnsupportedRoleError(
            f"Rota-Baxter role undefined on {info.family} structures")
    if role == "rota-baxter" and info.family == "dendriform" and weight != 0:
        raise UnsupportedRoleError("dendriform Rota-Baxter operators are weight 0 only")
    if role == "nijenhuis" and info.family != "associative":
        raise UnsupportedRoleError(f"Nijenhuis role undefined on {info.family} structures")
    axioms = _axioms("idempotent", {"T": op}) if group == "multiplicative" else []
    for name in sorted(p.products):
        axioms += _axioms(group, {"T": op, "D": op, "P": p.products[name], "w": weight},
                          D="op", P=name)
    if group == "multiplicative" or (role != "derivation" and info.compatible):
        for name in sorted(p.derivations):
            axioms += _axioms("commutes", {"T": op, "D": p.derivations[name]}, D=name)
    return _first_violation(p.space, axioms)


# ---------------------------------------------------------------------------
# the derivation linear system
# ---------------------------------------------------------------------------

def derivation_system(space: Space, products) -> Matrix:
    """Coefficient matrix whose kernel is the common derivations of products.

    Unknowns are the d*d entries of delta in row-major order, delta(e_i) =
    sum_j delta[i,j] e_j; one row per (product, input pair, output coordinate).
    The residual D(P(x,y)) - P(D x, y) - P(x, D y) is -[P, D], so the matrix
    is the stack of the blocks -ad_P on linear maps, whose basis is E_ij
    (e_i to e_j) in the order of the unknowns, one block per product P.
    """
    products = list(products)
    return _ad_matrix(space, MultiMap, products,
                      [(k, -1, k, 0) for k in range(len(products))],
                      (1,), (2,) * len(products), {}).transpose()


def cross_derivation_system(space: Space, products1, products2) -> Matrix:
    """System over stacked unknowns (delta1, delta2) for a compatible Der pair.

    Rows impose: delta1 is a derivation of every product in products1, delta2
    of every product in products2, and for each aligned product pair the
    cross-derivation identity (the summed defect of delta1 on product2 and
    delta2 on product1 vanishes).  Each block of rows is -ad_P on linear maps
    under the unknowns it involves, as in ``derivation_system``; the block of
    an aligned product is built once for both of its uses.
    """
    products1 = list(products1)
    products = products1 + list(products2)
    first, both = len(products1), len(products)
    pairs = range(min(first, both - first))
    # (block of rows, product) per unknown: its own products, then the pairs
    delta1 = [(k, k) for k in range(first)] + [(both + k, first + k) for k in pairs]
    delta2 = [(k, k) for k in range(first, both)] + [(both + k, k) for k in pairs]
    return _ad_matrix(space, MultiMap, products,
                      [(block, -1, x, unknown) for unknown, rows in enumerate((delta1, delta2))
                       for block, x in rows],
                      (1, 1), (2,) * (both + len(pairs)), {}).transpose()
