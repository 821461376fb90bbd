"""Coboundary operators and exact cohomology of the supported complexes.

Every differential here is, up to sign, the graded bracket with the
structure's Maurer-Cartan element: the product, or the pair (product,
derivation), applied twice in a staircase by the compatible complexes.  So a
flavor is one row of ``_FLAVORS`` (the kinds it accepts, the kind its base is
validated as, and whether it takes ``AltMap`` cochains and the
Nijenhuis-Richardson bracket or ``MultiMap`` cochains and the Gerstenhaber
bracket), and its differential follows from two facts about the base kind:
compatible or not, with a derivation or not.

A degree-n cochain is a flat tuple of slots, one map each: one part, or n
parts when compatible; each part is its top map of arity n followed, when
there is a derivation and n > 1, by its shadow of arity n-1.  This is the
coordinate order of ``DerCochain`` and ``CompatCochain``.  ``_terms`` yields
d^n as (out slot, coefficient, structure map, in slot) terms with
s = (-1)^{n-1}: output part i reads input part i-r through the product P_r
and the derivation D_r, for r = 0, and r = 1 too when compatible:

    top    <- s [P_r, top]
    shadow <- s [D_r, top] - s [P_r, shadow]

On cochains, ``d`` computes each output slot as one linear combination of
brackets; a term whose input slot or structure map is empty computes none.
Only degree 0 is special: the space, with d^0 y = P_0(., y) - P_0(y, .); the
vectors whose two adjoints agree (``compatible-associative``); or nothing,
when there is a derivation.

Each coboundary matrix D_n, n >= 1, is assembled from blocks: ``_ad_block``
builds ad_x = [x, .] on the basis maps of one arity as sparse columns, once
per (structure map, arity) of a report and none for an empty map, and
``_Complex.matrix`` places each term of the plan as its block, signed and
shifted to the term's output slot.  D_0 maps the degree-0 basis through
``d``.  The rank of each D_n is computed exactly by the sparse eliminator of
``derpair.linalg``.  Reports carry per-degree dimensions and a certification
that d o d = 0, checked as the exact sparse product D_{n+1} D_n = 0 of the
assembled matrices for every degree below the requested one.  Since D_n is
the matrix of d and coordinates are exact, that product vanishes exactly
when d o d kills every basis cochain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations

from .brackets import gerstenhaber, nijenhuis_richardson
from .cochains import (AltMap, CompatCochain, DerCochain, MultiMap, accumulate,
                       dense_coords, linear_combination, sort_with_sign,
                       sparse_coords)
from .errors import DegreeBudgetError, InvalidStructureError, SchemaError, ShapeError
from .linalg import Matrix, compose, nullspace, rank
from .structures import (KIND_INFO, Presentation, check_structure, kind_shape,
                         validate_presentation)


@dataclass(frozen=True)
class _Flavor:
    kinds: tuple[str, ...]      # presentation kinds accepted
    base: str                   # the kind the base is validated as
    alternating: bool           # AltMap and [,]_NR, else MultiMap and [,]_G


_FLAVORS = {
    "hochschild": _Flavor(("associative", "assder"), "associative", False),
    "chevalley-eilenberg": _Flavor(("lie", "lieder"), "lie", True),
    "assder": _Flavor(("assder",), "assder", False),
    "lieder": _Flavor(("lieder",), "lieder", True),
    "compatible-associative": _Flavor(
        ("compatible-associative", "compatible-assder"), "compatible-associative",
        False),
    "cad": _Flavor(("compatible-assder",), "compatible-assder", False),
    "cldp": _Flavor(("compatible-lieder",), "compatible-lieder", True),
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
# the term table
# ---------------------------------------------------------------------------

# The sign of the trailing [P_1, shadow] term, in the last output part of a
# compatible complex with a derivation.  The displayed sources flip it, but
# only the uniform minus makes d o d vanish; the flip stays reachable for the
# tests that arbitrate between the two.
_LAST_SHADOW_SIGN = -1


@cache
def _slot_arities(compatible: bool, with_derivation: bool, n: int) -> tuple:
    """The arity of each slot of a degree-n cochain, n >= 1."""
    part = (n, n - 1) if with_derivation and n > 1 else (n,)
    return part * (n if compatible else 1)


def _terms(compatible: bool, with_derivation: bool, n: int, last_shadow_sign: int):
    """Yield d^n, n >= 1, as (out slot, coefficient, structure map, in slot).

    Every coefficient is +1 or -1.  Structure maps are numbered as
    ``_structure`` returns them: the products P_0 (and P_1), then the
    derivations D_0 (and D_1).
    """
    s = (-1) ** (n - 1)
    steps = 2 if compatible else 1
    width = 2 if with_derivation and n > 1 else 1      # slots per input part
    width_out = 2 if with_derivation else 1
    for j in range(n if compatible else 1):
        for r in range(steps):
            top, out = j * width, (j + r) * width_out
            yield out, s, r, top
            if with_derivation:
                yield out + 1, s, steps + r, top
                if width == 2:
                    sign = last_shadow_sign if r == 1 and j == n - 1 else -1
                    yield out + 1, sign * s, r, top + 1


@cache
def _plan(compatible: bool, with_derivation: bool, n: int, last_shadow_sign: int):
    """Per in slot, its (out slot, coefficient, map) terms; the out arities."""
    groups = [[] for _ in _slot_arities(compatible, with_derivation, n)]
    for out, coeff, x, slot in _terms(compatible, with_derivation, n, last_shadow_sign):
        groups[slot].append((out, coeff, x))
    return tuple(map(tuple, groups)), _slot_arities(compatible, with_derivation, n + 1)


# ---------------------------------------------------------------------------
# ad_x blocks: the bracket with one structure map, as sparse columns
# ---------------------------------------------------------------------------

def _ad_block(x, k: int) -> list:
    """ad_x = [x, .] on the arity-k maps of x's class, as sparse columns.

    Column c is {row: value}, the coordinates of [x, b] for the c-th basis
    map b of arity k, both in the coordinate order of ``sparse_coords``.
    With p and q the arities of x and b less one, [x, b] = x o b - (-1)^{pq}
    b o x for the composition o of the class (``circle_g`` or ``circle_nr``).
    Each entry of x is visited once as an input-taker (x o b, where b's
    output fills one of x's inputs) and once as an output (b o x); the rows
    are computed directly from the index tuples.
    """
    d, a = x.space.dimension, x.arity
    twist = 1 if (a - 1) * (k - 1) % 2 else -1      # [x, b] = x o b + twist b o x
    if isinstance(x, AltMap):
        terms = _alt_terms(x, k, d, a, twist)
    else:
        terms = _multi_terms(x, k, d, a, twist)
    return [accumulate({}, column) for column in terms]


def _radix(args, d: int) -> int:
    """The rank of an index tuple among all tuples of its length."""
    position = 0
    for i in args:
        position = position * d + i
    return position


def _multi_terms(x: MultiMap, k: int, d: int, a: int, twist: int) -> list:
    # column P*d + o is the basis map (args, o) with P = _radix(args); a row
    # is _radix(key) * d + out, so each (entry, slot) of x contributes to a
    # family of columns at rows that are affine in the column's digits
    width = d ** k
    terms = [[] for _ in range(width * d)]
    for (xargs, xout), v in x.coeffs.items():
        for s, j in enumerate(xargs):
            # x o b: b's output j fills slot s of x; key xargs[:s] + args + xargs[s+1:]
            t = a - 1 - s
            value = -v if s * (k - 1) % 2 else v
            scale = d ** (t + 1)
            base = (_radix(xargs[:s], d) * d ** (k + t)
                    + _radix(xargs[s + 1:], d)) * d + xout
            for P in range(width):
                terms[P * d + j].append((P * scale + base, value))
        position = _radix(xargs, d)
        for s in range(k):
            # b o x: xout fills slot s of b, args = (head, xout, tail); the
            # columns and rows share head H and the low digits L = (tail, o)
            lo = d ** (k - s)
            value = twist * v if s * (a - 1) % 2 == 0 else -twist * v
            col, row = xout * lo, position * lo
            col_step, row_step = d * lo, d ** a * lo
            for H in range(d ** s):
                first, row_first = H * col_step + col, H * row_step + row
                for L in range(lo):
                    terms[first + L].append((row_first + L, value))
    return terms


def _alt_terms(x: AltMap, k: int, d: int, a: int, twist: int) -> list:
    # column c*d + o is the basis map (keys[c], o); a row is the rank of the
    # sorted key among increasing tuples, times d, plus the output
    keys = list(combinations(range(d), k))
    place = {key: i * d for i, key in enumerate(combinations(range(d), a + k - 1))}
    terms = [[] for _ in range(len(keys) * d)]
    holding = [[] for _ in range(d)]    # j -> (column base, pos, rest) per key holding j
    for c, args in enumerate(keys):
        for pos, j in enumerate(args):
            holding[j].append((c * d, pos, args[:pos] + args[pos + 1:]))
    merges = {}                         # rest -> (column base, row base, sign) per key
    for (xargs, xout), v in x.coeffs.items():
        for pos, j in enumerate(xargs):
            # x o b: b's output j fills input pos of x; its key merges with the rest
            rest = xargs[:pos] + xargs[pos + 1:]
            if rest not in merges:
                merges[rest] = []
                for c, args in enumerate(keys):
                    m = sort_with_sign(args + rest)
                    if m is not None:
                        merges[rest].append((c * d, place[m[0]], m[1]))
            value = -v if pos % 2 else v
            for col, row, sign in merges[rest]:
                terms[col + j].append((row + xout, value if sign > 0 else -value))
        for col, pos, rest in holding[xout]:
            # b o x: xout is input pos of b; x's inputs merge with b's others
            m = sort_with_sign(xargs + rest)
            if m is not None:
                row = place[m[0]]
                value = twist * v if (m[1] > 0) == (pos % 2 == 0) else -twist * v
                for o in range(d):
                    terms[col + o].append((row + o, value))
    return terms


def _adjoint(s, y):
    """d^0 y = s(., y) - s(y, .) as a 1-map of s's class (s(., y) if s alternates)."""
    terms = []
    for ((i, j), out), c in s.coeffs.items():
        if y[j]:
            terms.append((((i,), out), c * y[j]))
        if y[i]:
            terms.append((((j,), out), -c * y[i]))
    return type(s)._of(s.space, 1, accumulate({}, terms))


class _Coboundary:
    """The differential of one flavor on slot tuples, for given structure maps."""

    def __init__(self, flavor: str, maps: tuple):
        row = _FLAVORS[flavor]
        info = KIND_INFO[row.base]
        self.compatible, self.with_derivation = info.compatible, info.with_derivation
        self.maps = maps
        self.space = maps[0].space
        self._cls = AltMap if row.alternating else MultiMap
        self._bracket = nijenhuis_richardson if row.alternating else gerstenhaber

    def arities(self, n: int) -> tuple:
        return _slot_arities(self.compatible, self.with_derivation, n)

    def d(self, n: int, slots) -> tuple:
        """d^n of a slot tuple (of a vector when n = 0) as a slot tuple."""
        if n == 0:
            if self.with_derivation:
                raise ShapeError("this flavor has no degree-0 cochains")
            return (_adjoint(self.maps[0], slots),)
        groups, arities = _plan(self.compatible, self.with_derivation, n,
                                _LAST_SHADOW_SIGN)
        maps, bracket = self.maps, self._bracket
        out = [[] for _ in arities]
        for f, group in zip(slots, groups):
            if f.coeffs:
                for slot, coeff, x in group:
                    m = maps[x]
                    if m.coeffs:
                        out[slot].append((coeff, bracket(m, f)))
        result = []
        for terms, arity in zip(out, arities):
            result.append(linear_combination(terms) if terms
                          else self._cls._of(self.space, arity, {}))
        return tuple(result)

    def checked(self, n: int, slots) -> tuple:
        """d^n of slots handed in from outside, once they share the class and space."""
        if any(type(f) is not self._cls for f in slots):
            raise ShapeError(f"this complex takes {self._cls.__name__} cochains")
        if any(f.space != self.space for f in slots):
            raise ShapeError("operands live on different spaces")
        return self.d(n, slots)


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


def _pair_d(flavor: str, p: Presentation, c, what: str, check: bool):
    """d of a flavor with a derivation, on a DerCochain or a CompatCochain."""
    d = _Coboundary(flavor, _structure(flavor, p, what, check))
    parts = c.parts if isinstance(c, CompatCochain) else (c,)
    out = d.checked(c.degree, [f for part in parts for f in (part.top, part.shadow)
                               if f is not None])
    pairs = [DerCochain(*out[i:i + 2]) for i in range(0, len(out), 2)]
    return CompatCochain(pairs) if isinstance(c, CompatCochain) else pairs[0]


def hochschild_d(mu: MultiMap, f: MultiMap, check: bool = True) -> MultiMap:
    """d^n f = (-1)^{n-1} [mu, f]; mu must be associative."""
    if check:
        _check_base("hochschild",
                    Presentation(mu.space, {"mu": mu}, {}, "associative"),
                    "hochschild_d", True)
    return _Coboundary("hochschild", (mu,)).checked(f.arity, (f,))[0]


def ce_d(w: AltMap, f: AltMap, check: bool = True) -> AltMap:
    """d^n f = (-1)^{n-1} [w, f]; w must satisfy the Jacobi identity."""
    if check:
        _check_base("chevalley-eilenberg",
                    Presentation(w.space, {"bracket": w.to_multimap()}, {}, "lie"),
                    "ce_d", True)
    return _Coboundary("chevalley-eilenberg", (w,)).checked(f.arity, (f,))[0]


def assder_d(p: Presentation, c: DerCochain, check: bool = True) -> DerCochain:
    """Differential of the derivation-pair complex on the associative side."""
    return _pair_d("assder", p, c, "assder_d", check)


def lieder_d(p: Presentation, c: DerCochain, check: bool = True) -> DerCochain:
    """Differential of the derivation-pair complex on the Lie side."""
    return _pair_d("lieder", p, c, "lieder_d", check)


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
    maps = _structure("compatible-associative", p, "compat_assoc_d", check)
    parts = tuple(c)
    n = len(parts)
    if n == 0 or any(f.arity != n for f in parts):
        raise ShapeError("expected an n-tuple of arity-n cochains")
    return _Coboundary("compatible-associative", maps).checked(n, parts)


def cad_d(p: Presentation, c: CompatCochain, check: bool = True) -> CompatCochain:
    """Differential of the compatible derivation-pair complex, associative side."""
    return _pair_d("cad", p, c, "cad_d", check)


def cldp_d(p: Presentation, c: CompatCochain, check: bool = True) -> CompatCochain:
    """Differential of the compatible derivation-pair complex, Lie side."""
    return _pair_d("cldp", p, c, "cldp_d", check)


# ---------------------------------------------------------------------------
# complexes and reports
# ---------------------------------------------------------------------------

class _Complex(_Coboundary):
    """One flavor's complex on a base: dims, slot-tuple bases, d, coordinates."""

    def __init__(self, flavor: str, base: Presentation):
        if flavor not in _FLAVORS:
            raise SchemaError(f"unknown complex flavor {flavor!r}")
        validate_presentation(base)
        super().__init__(flavor, _structure(flavor, base, flavor, True))
        self.flavor = flavor
        # degree 0: the space, the vectors whose two adjoints agree, or nothing
        if self.with_derivation:
            self._c0 = []
        elif self.compatible:
            self._c0 = compat_assoc_degree0(base)
        else:
            self._c0 = [self.space.basis_vector(i) for i in range(self.space.dimension)]

    def dim(self, n: int) -> int:
        if n == 0:
            return len(self._c0)
        return sum(self._cls.coord_length(self.space, a) for a in self.arities(n))

    def basis(self, n: int):
        """Basis cochains in coordinate order: slot by slot, one map each."""
        if n == 0:
            yield from self._c0
            return
        arities = self.arities(n)
        zeros = tuple(self._cls.zero(self.space, a) for a in arities)
        for k, arity in enumerate(arities):
            for b in self._cls.basis(self.space, arity):
                yield (*zeros[:k], b, *zeros[k + 1:])

    def coords(self, n: int, cochain) -> list[Fraction]:
        return dense_coords(cochain)

    def matrix(self, n: int, blocks: dict) -> Matrix:
        """D_n, placed block by block from the plan of degree n.

        The column of an input slot's basis map is the sum of its terms'
        ``_ad_block`` columns, each signed by the term's coefficient and
        shifted to its output slot; a slot reaches each output slot through
        at most one term, so the pieces do not overlap.  ``blocks`` holds the
        blocks by (map index, arity), built on first use and shared by every
        part and degree; an empty map has none.  Degree 0 maps the basis.
        """
        if n == 0:
            return Matrix.from_columns(self.dim(1), [sparse_coords(self.d(0, b))
                                                     for b in self.basis(0)])
        groups, out_arities = _plan(self.compatible, self.with_derivation, n,
                                    _LAST_SHADOW_SIGN)
        offsets, rows = [], 0
        for arity in out_arities:
            offsets.append(rows)
            rows += self._cls.coord_length(self.space, arity)
        table, start = {}, 0
        for arity, group in zip(self.arities(n), groups):
            for out, coeff, x in group:
                if not self.maps[x].coeffs:
                    continue
                if (x, arity) not in blocks:
                    blocks[x, arity] = _ad_block(self.maps[x], arity)
                offset = offsets[out]
                for col, column in enumerate(blocks[x, arity], start):
                    for r, v in column.items():
                        table.setdefault(offset + r, {})[col] = v if coeff > 0 else -v
            start += self._cls.coord_length(self.space, arity)
        return Matrix._of(rows, start, table)


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

    blocks = {}
    matrices = {n: cx.matrix(n, blocks) for n in range(top + 1)}
    del blocks      # not needed past assembly; freed before the eliminations
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
