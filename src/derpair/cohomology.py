"""Coboundary operators and exact cohomology of the supported complexes.

Every complex here has the same differential: up to sign, the graded bracket
with the structure element.  So a flavor is one row of ``_FLAVORS``:

* the presentation kinds it accepts, and the kind its base is validated as;
* alternating or multilinear: ``AltMap`` cochains with the
  Nijenhuis-Richardson bracket, or ``MultiMap`` cochains with the
  Gerstenhaber bracket;
* the cochain shape, which fixes the differential:

  - ``map``: d^n f = (-1)^{n-1} [s, f] for the one structure map s
    (``hochschild``, ``chevalley-eilenberg``); degree 0 is the space, with
    d^0 y = s(., y) - s(y, .), which is s(., y) for an alternating s;
  - ``pair``: pairs (f_n, g_{n-1}) with differential
    (d f_n, d g_{n-1} + (-1)^n D f_n), D f = -[delta, f] the derivation
    insertion operator (``assder``, ``lieder``); degree 0 is 0;
  - ``tuple``: n-tuples of arity-n maps with the staircase differential
    mixing two products (``compatible-associative``); degree 0 is the
    subspace of vectors whose two adjoint maps agree;
  - ``compat``: n-tuples of pairs, the staircase with shadow corrections
    (``cad``, ``cldp``); degree 0 is 0.

Each component of a differential is one linear combination of brackets,
summed into a single table.

Each coboundary matrix D_n is assembled as sparse columns, the nonzero
coordinates of the images of the basis cochains, and its rank is computed
exactly by the sparse eliminator of ``derpair.linalg``.  Reports carry
per-degree dimensions and a certification that d o d = 0, checked as the
exact sparse product D_{n+1} D_n = 0 of the assembled matrices for every
degree below the requested one.  Since d is linear and coordinates are
exact, that product vanishes exactly when d o d kills every basis cochain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .brackets import gerstenhaber, nijenhuis_richardson
from .cochains import (AltMap, CompatCochain, DerCochain, MultiMap, accumulate,
                       dense_coords, linear_combination, sparse_coords)
from .errors import DegreeBudgetError, InvalidStructureError, SchemaError, ShapeError
from .linalg import Matrix, compose, nullspace, rank
from .structures import (Presentation, check_structure, kind_shape,
                         validate_presentation)


@dataclass(frozen=True)
class _Flavor:
    kinds: tuple[str, ...]      # presentation kinds accepted
    base: str                   # the kind the base is validated as
    alternating: bool           # AltMap and [,]_NR, else MultiMap and [,]_G
    shape: str                  # "map", "pair", "tuple" or "compat"


_FLAVORS = {
    "hochschild": _Flavor(("associative", "assder"), "associative", False, "map"),
    "chevalley-eilenberg": _Flavor(("lie", "lieder"), "lie", True, "map"),
    "assder": _Flavor(("assder",), "assder", False, "pair"),
    "lieder": _Flavor(("lieder",), "lieder", True, "pair"),
    "compatible-associative": _Flavor(
        ("compatible-associative", "compatible-assder"), "compatible-associative",
        False, "tuple"),
    "cad": _Flavor(("compatible-assder",), "compatible-assder", False, "compat"),
    "cldp": _Flavor(("compatible-lieder",), "compatible-lieder", True, "compat"),
}

FLAVORS = tuple(_FLAVORS)

DEFAULT_COORD_BUDGET = 20000


@dataclass(frozen=True)
class ComplexSpec:
    """Which complex to build: flavor, base presentation, top degree."""

    flavor: str
    base: Presentation
    max_degree: int


@dataclass(frozen=True)
class DegreeData:
    degree: int
    dim_cochains: int
    rank_d: int
    dim_closed: int
    dim_exact: int
    dim_cohomology: int


@dataclass
class CohomologyReport:
    flavor: str
    max_degree: int
    degrees: list[DegreeData]
    dd_zero_certified: bool
    kernel_bases: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# structure maps of a flavor
# ---------------------------------------------------------------------------

def _check_base(flavor: str, p: Presentation, what: str, check: bool) -> _Flavor:
    """The flavor's row, once p's kind is accepted and, with check, p is valid.

    p is checked against the axioms of the row's base kind.
    """
    row = _FLAVORS[flavor]
    if p.kind not in row.kinds:
        raise SchemaError(f"{what} needs a presentation of kind in "
                          f"{sorted(row.kinds)}, got {p.kind!r}")
    if check:
        if p.kind != row.base:
            # the base is the derivation-free part of p
            products, _ = kind_shape(row.base)
            p = Presentation(p.space, {name: p.products[name] for name in products},
                             {}, row.base)
        violation = check_structure(p)
        if violation is not None:
            raise InvalidStructureError(
                f"base fails {violation.axiom} at {violation.witness}", violation)
    return row


def _structure(flavor: str, p: Presentation, what: str, check: bool) -> tuple:
    """The structure maps of p in the cochain class of a flavor, checked as above.

    Products come first, then derivations, in the order of ``kind_shape`` of
    the flavor's base kind.
    """
    row = _check_base(flavor, p, what, check)
    products, derivations = kind_shape(row.base)
    if any(p.derivations[name].arity != 1 for name in derivations):
        raise ShapeError("D needs a linear operator")
    if not row.alternating:
        return (*(p.products[name] for name in products),
                *(p.derivations[name] for name in derivations))
    return (*(AltMap.from_multimap(p.products[name]) for name in products),
            *(AltMap(p.space, 1, p.derivations[name].coeffs) for name in derivations))


# ---------------------------------------------------------------------------
# differentials, one per cochain shape
# ---------------------------------------------------------------------------

def _adjoint(s, y):
    """d^0 y = s(., y) - s(y, .) as a 1-map of s's class (s(., y) if s alternates)."""
    terms = []
    for ((i, j), out), c in s.coeffs.items():
        if y[j]:
            terms.append((((i,), out), c * y[j]))
        if y[i]:
            terms.append((((j,), out), -c * y[i]))
    return type(s)._of(s.space, 1, accumulate({}, terms))


def _map_d(bracket, s, f):
    # d^n f = (-1)^{n-1} [s, f]
    return linear_combination([((-1) ** (f.arity - 1), bracket(s, f))])


def _der_pair_d(product, delta, c: DerCochain, bracket) -> DerCochain:
    # (f_n, g_{n-1}) |-> (d f_n, d g_{n-1} + (-1)^n D f_n) with
    # d h = (-1)^{arity(h)-1} [product, h] and D f = -[delta, f]; delta is
    # in the class of the cochain
    sign = (-1) ** (c.degree - 1)
    top = linear_combination([(sign, bracket(product, c.top))])
    tail = [(sign, bracket(delta, c.top))]
    if c.shadow is not None:
        tail.append((-sign, bracket(product, c.shadow)))
    return DerCochain(top, linear_combination(tail))


def _staircase_d(mu1, mu2, parts, bracket) -> tuple:
    # component i is (-1)^{n-1} ([mu2, f^{i-1}] + [mu1, f^i]), for i = 1..n+1,
    # boundary terms dropping off
    parts = tuple(parts)
    n = len(parts)
    if n == 0 or any(f.arity != n for f in parts):
        raise ShapeError("expected an n-tuple of arity-n cochains")
    sign = (-1) ** (n - 1)
    out = []
    for i in range(1, n + 2):
        terms = [(sign, bracket(mu2, parts[i - 2]))] if i > 1 else []
        if i <= n:
            terms.append((sign, bracket(mu1, parts[i - 1])))
        out.append(linear_combination(terms))
    return tuple(out)


def _compat_pair_d(c: CompatCochain, w1, w2, delta1, delta2, bracket, map_cls,
                   last_shadow_sign: int = -1) -> CompatCochain:
    # Component i of the output couples part i-1 through w2/delta2 and part i
    # through w1/delta1; the displayed sources flip the sign of the very last
    # [w2, g^n] term, but only the uniform minus makes d o d vanish, which is
    # what the `last_shadow_sign` default encodes (the flip is kept reachable
    # for the arbitration test).  The deltas are in map_cls already, and
    # every component has a term, so map_cls is not needed to build a zero.
    parts = c.parts
    n = c.degree
    sign = (-1) ** (n - 1)
    out = []
    for i in range(1, n + 2):
        top, shadow = [], []
        if i > 1:
            prev = parts[i - 2]
            top.append((sign, bracket(w2, prev.top)))
            if prev.shadow is not None:
                coeff = last_shadow_sign if i == n + 1 else -1
                shadow.append((sign * coeff, bracket(w2, prev.shadow)))
            shadow.append((-sign, bracket(prev.top, delta2)))
        if i <= n:
            cur = parts[i - 1]
            top.append((sign, bracket(w1, cur.top)))
            if cur.shadow is not None:
                shadow.append((-sign, bracket(w1, cur.shadow)))
            shadow.append((-sign, bracket(cur.top, delta1)))
        out.append(DerCochain(linear_combination(top), linear_combination(shadow)))
    return CompatCochain(out)


# ---------------------------------------------------------------------------
# the public differentials
# ---------------------------------------------------------------------------

def der_D(delta: MultiMap, f):
    """Derivation insertion operator: sum_i f(..., delta in slot i, ...) - delta o f.

    This is -[delta, f] in the bracket of f's flavor: Gerstenhaber for a
    MultiMap, Nijenhuis-Richardson (delta read as an alternating 1-map) for
    an AltMap.
    """
    if delta.arity != 1:
        raise ShapeError("D needs a linear operator")
    if delta.space != f.space:
        raise ShapeError("operands live on different spaces")
    if isinstance(f, AltMap):
        return nijenhuis_richardson(AltMap(f.space, 1, delta.coeffs), f).scale(-1)
    return gerstenhaber(delta, f).scale(-1)


def hochschild_d(mu: MultiMap, f: MultiMap, check: bool = True) -> MultiMap:
    """d^n f = (-1)^{n-1} [mu, f]; mu must be associative."""
    if check:
        _check_base("hochschild",
                    Presentation(mu.space, {"mu": mu}, {}, "associative"),
                    "hochschild_d", True)
    return _map_d(gerstenhaber, mu, f)


def ce_d(w: AltMap, f: AltMap, check: bool = True) -> AltMap:
    """d^n f = (-1)^{n-1} [w, f]; w must satisfy the Jacobi identity."""
    if check:
        _check_base("chevalley-eilenberg",
                    Presentation(w.space, {"bracket": w.to_multimap()}, {}, "lie"),
                    "ce_d", True)
    return _map_d(nijenhuis_richardson, w, f)


def assder_d(p: Presentation, c: DerCochain, check: bool = True) -> DerCochain:
    """Differential of the derivation-pair complex on the associative side."""
    mu, delta = _structure("assder", p, "assder_d", check)
    return _der_pair_d(mu, delta, c, gerstenhaber)


def lieder_d(p: Presentation, c: DerCochain, check: bool = True) -> DerCochain:
    """Differential of the derivation-pair complex on the Lie side."""
    w, delta = _structure("lieder", p, "lieder_d", check)
    return _der_pair_d(w, delta, c, nijenhuis_richardson)


def compat_assoc_degree0(p: Presentation) -> list[tuple[Fraction, ...]]:
    """Basis of the degree-0 space {y : mu1(x,y)-mu1(y,x) = mu2(x,y)-mu2(y,x)}."""
    mu1, mu2 = _structure("compatible-associative", p, "compat_assoc_degree0", False)
    space = p.space
    columns = []
    for k in range(space.dimension):
        e_k = space.basis_vector(k)
        columns.append(sparse_coords(linear_combination(
            [(1, _adjoint(mu1, e_k)), (-1, _adjoint(mu2, e_k))])))
    return nullspace(Matrix.from_columns(space.dimension ** 2, columns))


def compat_assoc_d(p: Presentation, c, check: bool = True) -> tuple:
    """Staircase differential of the compatible-associative complex.

    Maps an n-tuple of arity-n cochains to the (n+1)-tuple with components
    (-1)^{n-1} ([mu2, f^{i-1}] + [mu1, f^i]), boundary terms dropping off.
    """
    mu1, mu2 = _structure("compatible-associative", p, "compat_assoc_d", check)
    return _staircase_d(mu1, mu2, c, gerstenhaber)


def cad_d(p: Presentation, c: CompatCochain, check: bool = True) -> CompatCochain:
    """Differential of the compatible derivation-pair complex, associative side."""
    return _compat_pair_d(c, *_structure("cad", p, "cad_d", check),
                          gerstenhaber, MultiMap)


def cldp_d(p: Presentation, c: CompatCochain, check: bool = True) -> CompatCochain:
    """Differential of the compatible derivation-pair complex, Lie side."""
    return _compat_pair_d(c, *_structure("cldp", p, "cldp_d", check),
                          nijenhuis_richardson, AltMap)


# ---------------------------------------------------------------------------
# complexes and reports
# ---------------------------------------------------------------------------

class _Complex:
    """Uniform interface over the flavors: dims, bases, d, coordinates."""

    def __init__(self, flavor: str, base: Presentation):
        row = _FLAVORS.get(flavor)
        if row is None:
            raise SchemaError(f"unknown complex flavor {flavor!r}")
        validate_presentation(base)
        self.flavor = flavor
        self.space = base.space
        self.shape = row.shape
        self._cls = AltMap if row.alternating else MultiMap
        self._bracket = nijenhuis_richardson if row.alternating else gerstenhaber
        self._cochain_flavor = "alt" if row.alternating else "multi"
        self._maps = _structure(flavor, base, flavor, True)
        # degree 0: the space for "map", cut out by both adjoints for "tuple"
        if self.shape == "map":
            self._c0 = [self.space.basis_vector(i) for i in range(self.space.dimension)]
        elif self.shape == "tuple":
            self._c0 = compat_assoc_degree0(base)
        else:
            self._c0 = []

    def dim(self, n: int) -> int:
        if n == 0:
            return len(self._c0)
        space, shape = self.space, self.shape
        if shape == "map":
            return self._cls.coord_length(space, n)
        if shape == "tuple":
            return n * self._cls.coord_length(space, n)
        cochain = DerCochain if shape == "pair" else CompatCochain
        return cochain.coord_length(space, n, self._cochain_flavor)

    def basis(self, n: int):
        if n == 0:
            yield from self._c0
            return
        space, shape = self.space, self.shape
        if shape == "map":
            yield from self._cls.basis(space, n)
        elif shape == "tuple":
            zero = self._cls.zero(space, n)
            for slot in range(n):
                for b in self._cls.basis(space, n):
                    yield tuple(b if i == slot else zero for i in range(n))
        else:
            cochain = DerCochain if shape == "pair" else CompatCochain
            yield from cochain.basis(space, n, self._cochain_flavor)

    def coords(self, n: int, cochain) -> list[Fraction]:
        return dense_coords(cochain)

    def d(self, n: int, cochain):
        if n == 0:
            return self._d0(cochain)
        shape = self.shape
        if shape == "map":
            return _map_d(self._bracket, self._maps[0], cochain)
        if shape == "pair":
            return _der_pair_d(*self._maps, cochain, self._bracket)
        if shape == "tuple":
            return _staircase_d(*self._maps, cochain, self._bracket)
        return _compat_pair_d(cochain, *self._maps, self._bracket, self._cls)

    def _d0(self, vector):
        # d^0 is the first structure map's adjoint
        if self.shape not in ("map", "tuple"):
            raise ShapeError("this flavor has no degree-0 cochains")
        d0 = _adjoint(self._maps[0], vector)
        return d0 if self.shape == "map" else (d0,)


def cohomology(spec: ComplexSpec, budget: int | None = None,
               include_kernel_bases: bool = False) -> CohomologyReport:
    """Assemble coboundary matrices, certify d o d = 0, and report dimensions."""
    if spec.max_degree < 1:
        raise SchemaError("max_degree must be >= 1")
    budget = DEFAULT_COORD_BUDGET if budget is None else budget
    cx = _Complex(spec.flavor, spec.base)
    top = spec.max_degree
    for n in range(top + 2):
        dim_n = cx.dim(n)
        if dim_n > budget:
            raise DegreeBudgetError(dim_n, budget)

    matrices = {}
    for n in range(top + 1):
        columns = [sparse_coords(cx.d(n, b)) for b in cx.basis(n)]
        matrices[n] = Matrix.from_columns(cx.dim(n + 1), columns)
    certified = all(compose(matrices[n + 1], matrices[n]).is_zero()
                    for n in range(top))

    ranks = {n: rank(matrices[n]) for n in matrices}
    degrees = []
    for n in range(top + 1):
        dim_n = cx.dim(n)
        closed = dim_n - ranks[n]
        exact = ranks[n - 1] if n > 0 else 0
        degrees.append(DegreeData(
            degree=n, dim_cochains=dim_n, rank_d=ranks[n],
            dim_closed=closed, dim_exact=exact,
            dim_cohomology=closed - exact))

    report = CohomologyReport(
        flavor=spec.flavor, max_degree=top, degrees=degrees,
        dd_zero_certified=certified)
    if include_kernel_bases:
        for n in range(top + 1):
            report.kernel_bases[n] = nullspace(matrices[n])
    return report
