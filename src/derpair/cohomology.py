"""Coboundary operators and exact cohomology of the supported complexes.

Seven complex flavors are provided over a checked base presentation:

* ``hochschild``: multilinear cochains of an associative product, with
  d^n f = (-1)^{n-1} [mu, f] in the insertion bracket; degree 0 is the space
  itself with d^0 y = mu(.,y) - mu(y,.).
* ``chevalley-eilenberg``: alternating cochains of a Lie bracket, with
  d^n f = (-1)^{n-1} [w, f] in the alternating bracket; degree 0 is the space
  with d^0 y = w(., y).
* ``assder`` / ``lieder``: pairs (f_n, g_{n-1}) with differential
  (d f_n, d g_{n-1} + (-1)^n D f_n), where D is the derivation insertion
  operator; degree-0 cochains are 0 and degree 1 is Hom(V, V).
* ``compatible-associative``: n-tuples of multilinear cochains with the
  staircase differential mixing the two products; degree 0 is the subspace of
  vectors whose two adjoint maps agree.
* ``cad`` / ``cldp``: n-tuples of pairs for a compatible derivation pair,
  staircase differential with shadow corrections; degree-0 cochains are 0.

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
from .cochains import (AltMap, CompatCochain, DerCochain, MultiMap, dense_coords,
                       sparse_coords)
from .errors import DegreeBudgetError, InvalidStructureError, SchemaError, ShapeError
from .linalg import Matrix, compose, nullspace, rank
from .structures import Presentation, check_structure, validate_presentation

FLAVORS = ("hochschild", "chevalley-eilenberg", "assder", "lieder",
           "compatible-associative", "cad", "cldp")

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
# primitive operators
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


def _check_kind(p: Presentation, kinds, what: str) -> None:
    if p.kind not in kinds:
        raise SchemaError(f"{what} needs a presentation of kind in {sorted(kinds)}, "
                          f"got {p.kind!r}")


def _require_valid(p: Presentation) -> None:
    violation = check_structure(p)
    if violation is not None:
        raise InvalidStructureError(
            f"base fails {violation.axiom} at {violation.witness}", violation)


def hochschild_d(mu: MultiMap, f: MultiMap, check: bool = True) -> MultiMap:
    """d^n f = (-1)^{n-1} [mu, f]; mu must be associative."""
    if check:
        _require_valid(Presentation(mu.space, {"mu": mu}, {}, "associative"))
    return gerstenhaber(mu, f).scale((-1) ** (f.arity - 1))


def ce_d(w: AltMap, f: AltMap, check: bool = True) -> AltMap:
    """d^n f = (-1)^{n-1} [w, f]; w must satisfy the Jacobi identity."""
    if check:
        _require_valid(Presentation(w.space, {"bracket": w.to_multimap()}, {}, "lie"))
    return nijenhuis_richardson(w, f).scale((-1) ** (f.arity - 1))


def _lie_pair(p: Presentation, bracket_name: str, delta_name: str):
    w = AltMap.from_multimap(p.products[bracket_name])
    return w, p.derivations[delta_name]


def assder_d(p: Presentation, c: DerCochain, check: bool = True) -> DerCochain:
    """Differential of the derivation-pair complex on the associative side."""
    _check_kind(p, ("assder",), "assder_d")
    if check:
        _require_valid(p)
    return _der_pair_d(p.products["mu"], p.derivations["delta"], c, gerstenhaber)


def lieder_d(p: Presentation, c: DerCochain, check: bool = True) -> DerCochain:
    """Differential of the derivation-pair complex on the Lie side."""
    _check_kind(p, ("lieder",), "lieder_d")
    if check:
        _require_valid(p)
    w, delta = _lie_pair(p, "bracket", "delta")
    return _der_pair_d(w, delta, c, nijenhuis_richardson)


def _der_pair_d(product, delta, c: DerCochain, bracket) -> DerCochain:
    # (f_n, g_{n-1}) |-> (d f_n, d g_{n-1} + (-1)^n D f_n) with
    # d h = (-1)^{arity(h)-1} [product, h]
    n = c.degree
    dtop = bracket(product, c.top).scale((-1) ** (n - 1))
    tail = der_D(delta, c.top).scale((-1) ** n)
    if c.shadow is not None:
        tail = tail + bracket(product, c.shadow).scale((-1) ** (n - 2))
    return DerCochain(dtop, tail)


def compat_assoc_degree0(p: Presentation) -> list[tuple[Fraction, ...]]:
    """Basis of the degree-0 space {y : mu1(x,y)-mu1(y,x) = mu2(x,y)-mu2(y,x)}."""
    _check_kind(p, ("compatible-associative", "compatible-assder"),
                "compat_assoc_degree0")
    m1, m2 = p.products["mu1"], p.products["mu2"]
    d = p.space.dimension
    rows = []
    for a in range(d):
        for out in range(d):
            row = []
            for k in range(d):
                row.append(m1.eval((a, k))[out] - m1.eval((k, a))[out]
                           - m2.eval((a, k))[out] + m2.eval((k, a))[out])
            rows.append(row)
    return nullspace(Matrix.from_rows(rows))


def compat_assoc_d(p: Presentation, c, check: bool = True) -> tuple:
    """Staircase differential of the compatible-associative complex.

    Maps an n-tuple of arity-n cochains to the (n+1)-tuple with components
    (-1)^{n-1} ([mu2, f^{i-1}] + [mu1, f^i]), boundary terms dropping off.
    """
    _check_kind(p, ("compatible-associative", "compatible-assder"),
                "compat_assoc_d")
    if check:
        _require_valid(Presentation(
            p.space, {"mu1": p.products["mu1"], "mu2": p.products["mu2"]},
            {}, "compatible-associative"))
    parts = tuple(c)
    n = len(parts)
    if n == 0 or any(f.arity != n for f in parts):
        raise ShapeError("expected an n-tuple of arity-n cochains")
    m1, m2 = p.products["mu1"], p.products["mu2"]
    sign = (-1) ** (n - 1)
    out = []
    for i in range(1, n + 2):
        term = MultiMap.zero(p.space, n + 1)
        if 1 <= i - 1 <= n:
            term = term + gerstenhaber(m2, parts[i - 2])
        if 1 <= i <= n:
            term = term + gerstenhaber(m1, parts[i - 1])
        out.append(term.scale(sign))
    return tuple(out)


def cad_d(p: Presentation, c: CompatCochain, check: bool = True) -> CompatCochain:
    """Differential of the compatible derivation-pair complex, associative side."""
    _check_kind(p, ("compatible-assder",), "cad_d")
    if check:
        _require_valid(p)
    return _compat_pair_d(
        c, p.products["mu1"], p.products["mu2"],
        p.derivations["delta1"], p.derivations["delta2"],
        gerstenhaber, MultiMap)


def cldp_d(p: Presentation, c: CompatCochain, check: bool = True) -> CompatCochain:
    """Differential of the compatible derivation-pair complex, Lie side."""
    _check_kind(p, ("compatible-lieder",), "cldp_d")
    if check:
        _require_valid(p)
    w1 = AltMap.from_multimap(p.products["bracket1"])
    w2 = AltMap.from_multimap(p.products["bracket2"])
    return _compat_pair_d(
        c, w1, w2, p.derivations["delta1"], p.derivations["delta2"],
        nijenhuis_richardson, AltMap)


def _compat_pair_d(c: CompatCochain, w1, w2, delta1, delta2, bracket, map_cls,
                   last_shadow_sign: int = -1) -> CompatCochain:
    # Component i of the output couples part i-1 through w2/delta2 and part i
    # through w1/delta1; the displayed sources flip the sign of the very last
    # [w2, g^n] term, but only the uniform minus makes d o d vanish, which is
    # what the `last_shadow_sign` default encodes (the flip is kept reachable
    # for the arbitration test).
    parts = c.parts
    n = c.degree
    space = c.space
    sign = (-1) ** (n - 1)
    if bracket is nijenhuis_richardson:
        d1 = AltMap(space, 1, {((a,), b): v for ((a,), b), v in delta1.coeffs.items()})
        d2 = AltMap(space, 1, {((a,), b): v for ((a,), b), v in delta2.coeffs.items()})
    else:
        d1, d2 = delta1, delta2
    out = []
    for i in range(1, n + 2):
        top = map_cls.zero(space, n + 1)
        shadow = map_cls.zero(space, n)
        if 1 <= i - 1 <= n:
            prev = parts[i - 2]
            top = top + bracket(w2, prev.top)
            if prev.shadow is not None:
                coeff = last_shadow_sign if i == n + 1 else -1
                shadow = shadow + bracket(w2, prev.shadow).scale(coeff)
            shadow = shadow - bracket(prev.top, d2)
        if 1 <= i <= n:
            cur = parts[i - 1]
            top = top + bracket(w1, cur.top)
            if cur.shadow is not None:
                shadow = shadow - bracket(w1, cur.shadow)
            shadow = shadow - bracket(cur.top, d1)
        out.append(DerCochain(top.scale(sign), shadow.scale(sign)))
    return CompatCochain(out)


# ---------------------------------------------------------------------------
# complexes and reports
# ---------------------------------------------------------------------------

class _Complex:
    """Uniform interface over the seven flavors: dims, bases, d, coordinates."""

    def __init__(self, flavor: str, base: Presentation):
        if flavor not in FLAVORS:
            raise SchemaError(f"unknown complex flavor {flavor!r}")
        validate_presentation(base)
        self.flavor = flavor
        self.space = base.space
        self.base = base
        self._setup(base)

    def _setup(self, p: Presentation):
        flavor = self.flavor
        space = self.space
        if flavor == "hochschild":
            _check_kind(p, ("associative", "assder"), flavor)
            mu = p.products["mu"]
            _require_valid(Presentation(space, {"mu": mu}, {}, "associative"))
            self._mu = mu
        elif flavor == "chevalley-eilenberg":
            _check_kind(p, ("lie", "lieder"), flavor)
            br = p.products["bracket"]
            _require_valid(Presentation(space, {"bracket": br}, {}, "lie"))
            self._w = AltMap.from_multimap(br)
        elif flavor == "assder":
            _check_kind(p, ("assder",), flavor)
            _require_valid(p)
            self._mu = p.products["mu"]
            self._delta = p.derivations["delta"]
        elif flavor == "lieder":
            _check_kind(p, ("lieder",), flavor)
            _require_valid(p)
            self._w = AltMap.from_multimap(p.products["bracket"])
            self._delta = p.derivations["delta"]
        elif flavor == "compatible-associative":
            _check_kind(p, ("compatible-associative", "compatible-assder"), flavor)
            _require_valid(Presentation(
                space, {"mu1": p.products["mu1"], "mu2": p.products["mu2"]},
                {}, "compatible-associative"))
            # degree 0 is cut out by both adjoints; d^0 is mu1's
            self._mu = p.products["mu1"]
            self._c0 = compat_assoc_degree0(p)
        elif flavor == "cad":
            _check_kind(p, ("compatible-assder",), flavor)
            _require_valid(p)
        elif flavor == "cldp":
            _check_kind(p, ("compatible-lieder",), flavor)
            _require_valid(p)
            self._w1 = AltMap.from_multimap(p.products["bracket1"])
            self._w2 = AltMap.from_multimap(p.products["bracket2"])

    # -- dimensions ---------------------------------------------------------

    def dim(self, n: int) -> int:
        space = self.space
        d = space.dimension
        if n == 0:
            if self.flavor in ("hochschild", "chevalley-eilenberg"):
                return d
            if self.flavor == "compatible-associative":
                return len(self._c0)
            return 0
        if self.flavor == "hochschild":
            return MultiMap.coord_length(space, n)
        if self.flavor == "chevalley-eilenberg":
            return AltMap.coord_length(space, n)
        if self.flavor == "assder":
            return DerCochain.coord_length(space, n, "multi")
        if self.flavor == "lieder":
            return DerCochain.coord_length(space, n, "alt")
        if self.flavor == "compatible-associative":
            return n * MultiMap.coord_length(space, n)
        if self.flavor == "cad":
            return CompatCochain.coord_length(space, n, "multi")
        return CompatCochain.coord_length(space, n, "alt")

    # -- bases ----------------------------------------------------------------

    def basis(self, n: int):
        space = self.space
        if n == 0:
            if self.flavor in ("hochschild", "chevalley-eilenberg"):
                for i in range(space.dimension):
                    yield space.basis_vector(i)
            elif self.flavor == "compatible-associative":
                yield from self._c0
            return
        if self.flavor == "hochschild":
            yield from MultiMap.basis(space, n)
        elif self.flavor == "chevalley-eilenberg":
            yield from AltMap.basis(space, n)
        elif self.flavor == "assder":
            yield from DerCochain.basis(space, n, "multi")
        elif self.flavor == "lieder":
            yield from DerCochain.basis(space, n, "alt")
        elif self.flavor == "compatible-associative":
            zero = MultiMap.zero(space, n)
            for slot in range(n):
                for b in MultiMap.basis(space, n):
                    yield tuple(b if i == slot else zero for i in range(n))
        elif self.flavor == "cad":
            yield from CompatCochain.basis(space, n, "multi")
        else:
            yield from CompatCochain.basis(space, n, "alt")

    # -- coordinates ----------------------------------------------------------

    def coords(self, n: int, cochain) -> list[Fraction]:
        return dense_coords(cochain)

    # -- the differential -------------------------------------------------------

    def d(self, n: int, cochain):
        space = self.space
        if n == 0:
            return self._d0(cochain)
        if self.flavor == "hochschild":
            return hochschild_d(self._mu, cochain, check=False)
        if self.flavor == "chevalley-eilenberg":
            return ce_d(self._w, cochain, check=False)
        if self.flavor == "assder":
            return _der_pair_d(self._mu, self._delta, cochain, gerstenhaber)
        if self.flavor == "lieder":
            return _der_pair_d(self._w, self._delta, cochain,
                               nijenhuis_richardson)
        if self.flavor == "compatible-associative":
            return compat_assoc_d(self.base, cochain, check=False)
        if self.flavor == "cad":
            return cad_d(self.base, cochain, check=False)
        return _compat_pair_d(cochain, self._w1, self._w2,
                              self.base.derivations["delta1"],
                              self.base.derivations["delta2"],
                              nijenhuis_richardson, AltMap)

    def _d0(self, vector):
        # d^0 y = w(., y) on the Lie side, mu(., y) - mu(y, .) otherwise
        space = self.space
        alternating = self.flavor == "chevalley-eilenberg"
        if not alternating and self.flavor not in ("hochschild", "compatible-associative"):
            raise ShapeError("this flavor has no degree-0 cochains")
        table = {}
        for a in range(space.dimension):
            e_a = space.basis_vector(a)
            if alternating:
                value = self._w.apply([e_a, vector])
            else:
                value = [x - y for x, y in zip(self._mu.apply([e_a, vector]),
                                               self._mu.apply([vector, e_a]))]
            for j, c in enumerate(value):
                if c:
                    table[((a,), j)] = c
        if alternating:
            return AltMap(space, 1, table)
        d0 = MultiMap(space, 1, table)
        return (d0,) if self.flavor == "compatible-associative" else d0


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
