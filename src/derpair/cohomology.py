"""Coboundary operators and exact cohomology of the supported complexes.

Every differential here is, up to sign, the graded bracket with the
structure's Maurer-Cartan element: the product, or the pair (product,
derivation), applied twice in a staircase by the compatible complexes.  So a
flavor is one row of ``_FLAVORS``, the kind its base is validated as, and
everything else follows from that kind's row of ``structures.KIND_INFO``: it
accepts the kinds of the base's family and compatibility that have a
derivation if the base has one (``_accepted``); a Lie-family base takes
``AltMap`` cochains and the Nijenhuis-Richardson bracket, any other
``MultiMap`` cochains and the Gerstenhaber bracket; and its differential
follows from two facts: compatible or not, with a derivation or not.

``_Complex`` is the one complex class; every public differential and
``cohomology`` build one, so ``_structure`` checks every base: the schema of
p's own kind first (a ``SchemaError``), then the axioms of the flavor's base
kind (an ``InvalidStructureError``).

A degree-n cochain is a flat tuple of slots, one map each, laid out by
``cochains._slot_arities``.  ``_terms`` yields
d^n as (out slot, coefficient, structure map, in slot) terms with
s = (-1)^{n-1}: output part i reads input part i-r through the product P_r
and the derivation D_r, for r = 0, and r = 1 too when compatible:

    top    <- s [P_r, top]
    shadow <- s [D_r, top] - s [P_r, shadow]

Degree 0 is one vector y, a map of no input, with the one term
d^0 y = -[P_0, y]: P_0(., y) - P_0(y, .) on the associative side, P_0(., y)
on the Lie side.  There is none when there is a derivation, and the
compatible complex keeps only the vectors on which it equals -[P_1, y],
the kernel of ad_{P_0} - ad_{P_1} (``compat_assoc_degree0``).

On cochains, ``d`` computes each output slot of degree n >= 1 as one linear
combination of brackets; a term whose input slot or structure map is empty
computes none.  Each coboundary matrix D_n, degree 0 included, is assembled
from blocks instead, in integers: ``_Complex.images`` hands the same terms,
with the slot arities of degrees n and n + 1, to ``cochains._ad_matrix``,
the one place where ad blocks become a matrix and where output slots get
their offsets.  With L the lcm of the denominators of the structure maps, it
builds ad_{Lx} = L ad_x on the basis maps of one arity as sparse integer
columns, once per (structure map, arity) of a report and none for an empty
map, and places each term as its block, signed and shifted to the term's
output slot.  The result is the transpose of D_n over the denominator L,
one row per image of a basis cochain; the compatible D_0 is then taken on
the basis of the kernel, and ``compat_assoc_degree0`` finds that kernel from
the same assembler, with the one term ad_{mu1-mu2}.

``cohomology`` assembles every degree first, then takes one at a time.  At
n >= 1 it certifies D_n D_{n-1} = 0 as the exact sparse product of the
assembled matrices, its transpose; as D_n is the matrix of d and coordinates
are exact, that product vanishes exactly when d o d kills every basis
cochain of degree n-1.  The certificate rests on the assembly alone, not on
the eliminator.  It ranks D_n exactly on its images with the sparse
eliminator of ``derpair.linalg``, whose ``Elimination`` record holds the
(row, column) pivots.  im D_{n-1} projects isomorphically onto the
coordinates at the pivot columns S_{n-1} of the record one degree lower, so
the basis cochains outside S_{n-1} span a complement of it: where
D_n D_{n-1} = 0, D_n is ranked on the rows outside S_{n-1} alone, and on
all rows otherwise.  For the same reason the rows S_n of D_n have its kernel
and row space, so its kernel basis, read off the unique reduced row echelon
form, is reduced from those rows alone.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .brackets import gerstenhaber, nijenhuis_richardson
from .cochains import (AltMap, CompatCochain, DerCochain, MultiMap, _ad_matrix,
                       _slot_arities, _slots_basis, _slots_length, linear_combination)
from .errors import DegreeBudgetError, SchemaError, ShapeError
from .linalg import Matrix, compose, nullspace, rank
from .structures import (KIND_INFO, Presentation, check_structure, kind_shape,
                         require, validate_presentation)


# flavor -> the kind its base is validated as
_FLAVORS = {
    "hochschild": "associative",
    "chevalley-eilenberg": "lie",
    "assder": "assder",
    "lieder": "lieder",
    "compatible-associative": "compatible-associative",
    "cad": "compatible-assder",
    "cldp": "compatible-lieder",
}

FLAVORS = tuple(_FLAVORS)

DEFAULT_COORD_BUDGET = 20000


class ComplexSpec(namedtuple("ComplexSpec", "flavor base max_degree")):
    """Which complex to build: flavor, base presentation, top degree."""

    __slots__ = ()


DegreeData = namedtuple(
    "DegreeData",
    "degree dim_cochains rank_d dim_closed dim_exact dim_cohomology")

CohomologyReport = namedtuple(
    "CohomologyReport",
    "flavor max_degree degrees dd_zero_certified kernel_bases")


# ---------------------------------------------------------------------------
# structure maps of a flavor
# ---------------------------------------------------------------------------

def _accepted(base: str) -> list:
    """The kinds a flavor on base accepts, sorted: base's family and
    compatibility, with a derivation wherever base has one."""
    info = KIND_INFO[base]
    return sorted(kind for kind, other in KIND_INFO.items()
                  if other.family == info.family and other.compatible == info.compatible
                  and other.with_derivation >= info.with_derivation)


def _structure(flavor: str, p: Presentation, what: str) -> tuple:
    """The structure maps of p, as MultiMaps, once p is a base of the flavor.

    p must pass the schema of its kind, be of a kind the flavor accepts, and
    satisfy the axioms of the flavor's base kind on its maps of that kind.
    Products come first, then derivations, in the order of ``kind_shape`` of
    the base kind.
    """
    base_kind = _FLAVORS.get(flavor)
    if base_kind is None:
        raise SchemaError(f"unknown complex flavor {flavor!r}")
    validate_presentation(p)
    kinds = _accepted(base_kind)
    if p.kind not in kinds:
        raise SchemaError(f"{what} needs a presentation of kind in {kinds}, got {p.kind!r}")
    products, derivations = kind_shape(base_kind)
    # all of p, or its derivation-free part
    base = Presentation(p.space, {name: p.products[name] for name in products},
                        {name: p.derivations[name] for name in derivations}, base_kind)
    require(check_structure(base), "base")
    return (*base.products.values(), *base.derivations.values())


# ---------------------------------------------------------------------------
# the term table and the complex of a flavor
# ---------------------------------------------------------------------------

def _terms(compatible: bool, with_derivation: bool, n: int):
    """Yield d^n as (out slot, coefficient, structure map, in slot).

    Every coefficient is +1 or -1.  Structure maps are numbered as
    ``_structure`` returns them: the products P_0 (and P_1), then the
    derivations D_0 (and D_1).  Degree 0 has the one term d^0 y = -[P_0, y].
    """
    s = 1 if n % 2 else -1      # (-1)^{n-1}, an int at n = 0 too
    if n == 0:
        if not with_derivation:
            yield 0, s, 0, 0
        return
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
                    # the displayed sources flip the sign of the last part's
                    # [P_1, shadow]; only the uniform minus makes d o d vanish
                    yield out + 1, -s, r, top + 1


class _Complex:
    """One flavor's complex on a base: d, dims, slot-tuple bases, coordinates."""

    def __init__(self, flavor: str, base: Presentation, what: str | None = None):
        self.maps = _structure(flavor, base, what or flavor)
        info, self.space = KIND_INFO[_FLAVORS[flavor]], base.space
        self.compatible, self.with_derivation = info.compatible, info.with_derivation
        self._cls, self._bracket = MultiMap, gerstenhaber
        if info.family == "lie":
            # AltMap cochains and [,]_NR, each bracket antisymmetrized and
            # each derivation read as an alternating 1-map
            self._cls, self._bracket = AltMap, nijenhuis_richardson
            self.maps = tuple(AltMap.from_multimap(m) if m.arity == 2
                              else AltMap(self.space, 1, m.coeffs) for m in self.maps)

    def _kernel0(self) -> list[tuple]:
        """The compatible degree-0 space, ker ad_{mu1-mu2} on vectors, as a basis."""
        mu1, mu2 = self.maps
        return nullspace(_ad_matrix(self.space, MultiMap, (mu1 - mu2,), [(0, 1, 0, 0)],
                                    (0,), (1,), {}).transpose())

    @cached_property
    def _c0(self):
        """The rows of a basis of the compatible degree-0 space; None elsewhere."""
        if not self.compatible or self.with_derivation:
            return None
        kernel = self._kernel0()
        return Matrix(len(kernel), self.space.dimension, [x for y in kernel for x in y])

    def arities(self, n: int) -> tuple:
        return _slot_arities(self.compatible, self.with_derivation, n)

    def d(self, n: int, slots) -> tuple:
        """d^n of a slot tuple, n >= 1, as a slot tuple, one bracket per term.

        The slots must be of the complex's map class and on its space.
        """
        if any(type(f) is not self._cls for f in slots):
            raise ShapeError(f"this complex takes {self._cls.__name__} cochains")
        if any(f.space != self.space for f in slots):
            raise ShapeError("operands live on different spaces")
        arities = self.arities(n + 1)
        out = [[] for _ in arities]
        for out_slot, coeff, x, in_slot in _terms(self.compatible, self.with_derivation, n):
            f, m = slots[in_slot], self.maps[x]
            if f.coeffs and m.coeffs:
                out[out_slot].append((coeff, self._bracket(m, f)))
        result = []
        for terms, arity in zip(out, arities):
            result.append(linear_combination(terms) if terms
                          else self._cls._of(self.space, arity, {}))
        return tuple(result)

    def dim(self, n: int) -> int:
        if n == 0 and self._c0 is not None:
            return self._c0.rows
        return _slots_length(self._cls, self.space, self.arities(n))

    def basis(self, n: int):
        """Basis cochains of degree n >= 1 in coordinate order: slot by slot."""
        return _slots_basis(self._cls, self.space, self.arities(n))

    def images(self, n: int, blocks: dict) -> Matrix:
        """The transpose of D_n, one row per image of a basis cochain.

        ``cochains._ad_matrix`` places the terms of degree n between the
        slots of degrees n and n + 1.  ``blocks`` holds the ad blocks by (map
        index, arity) and is shared by every part and degree.  The compatible
        D_0 is -ad_mu1 on the basis of its degree-0 space.
        """
        m = _ad_matrix(self.space, self._cls, self.maps,
                       _terms(self.compatible, self.with_derivation, n),
                       self.arities(n), self.arities(n + 1), blocks)
        return m if n or self._c0 is None else compose(self._c0, m)


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
    if not isinstance(f, (MultiMap, AltMap)):
        raise ShapeError("D acts on a MultiMap or an AltMap")
    if delta.space != f.space:
        raise ShapeError("operands live on different spaces")
    bracket = nijenhuis_richardson if isinstance(f, AltMap) else gerstenhaber
    return bracket(type(f)(f.space, 1, delta.coeffs), f).scale(-1)


def _pair_d(flavor: str, p: Presentation, c, what: str):
    """d of a flavor with a derivation, on a DerCochain or a CompatCochain."""
    cx = _Complex(flavor, p, what)
    pairs = CompatCochain if cx.compatible else DerCochain
    if not isinstance(c, pairs):
        raise ShapeError(f"{what} takes a {pairs.__name__}")
    return pairs._from_slots(cx.d(c.degree, c._slots()))


def hochschild_d(mu: MultiMap, f: MultiMap) -> MultiMap:
    """d^n f = (-1)^{n-1} [mu, f]; mu must be associative."""
    cx = _Complex("hochschild", Presentation(mu.space, {"mu": mu}, {}, "associative"),
                  "hochschild_d")
    return cx.d(f.arity, (f,))[0]


def ce_d(w: AltMap, f: AltMap) -> AltMap:
    """d^n f = (-1)^{n-1} [w, f]; w must satisfy the Jacobi identity."""
    cx = _Complex("chevalley-eilenberg",
                  Presentation(w.space, {"bracket": w.to_multimap()}, {}, "lie"), "ce_d")
    return cx.d(f.arity, (f,))[0]


def assder_d(p: Presentation, c: DerCochain) -> DerCochain:
    """Differential of the derivation-pair complex on the associative side."""
    return _pair_d("assder", p, c, "assder_d")


def lieder_d(p: Presentation, c: DerCochain) -> DerCochain:
    """Differential of the derivation-pair complex on the Lie side."""
    return _pair_d("lieder", p, c, "lieder_d")


def compat_assoc_degree0(p: Presentation) -> list[tuple]:
    """Basis of the degree-0 space {y : mu1(x,y)-mu1(y,x) = mu2(x,y)-mu2(y,x)}.

    That is the kernel of ad_mu1 - ad_mu2 = ad_{mu1-mu2} on vectors; p must
    be a valid compatible associative structure.
    """
    return _Complex("compatible-associative", p, "compat_assoc_degree0")._kernel0()


def compat_assoc_d(p: Presentation, c) -> tuple:
    """Staircase differential of the compatible-associative complex.

    Maps an n-tuple of arity-n cochains to the (n+1)-tuple with components
    (-1)^{n-1} ([mu2, f^{i-1}] + [mu1, f^i]), boundary terms dropping off.
    """
    cx = _Complex("compatible-associative", p, "compat_assoc_d")
    parts = tuple(c)
    n = len(parts)
    if n == 0 or any(f.arity != n for f in parts):
        raise ShapeError("expected an n-tuple of arity-n cochains")
    return cx.d(n, parts)


def cad_d(p: Presentation, c: CompatCochain) -> CompatCochain:
    """Differential of the compatible derivation-pair complex, associative side."""
    return _pair_d("cad", p, c, "cad_d")


def cldp_d(p: Presentation, c: CompatCochain) -> CompatCochain:
    """Differential of the compatible derivation-pair complex, Lie side."""
    return _pair_d("cldp", p, c, "cldp_d")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

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
    images = [cx.images(n, blocks) for n in range(top + 1)]
    del blocks      # not needed past assembly; freed before the eliminations
    degrees, kernel_bases, dd_zero = [], {}, []
    for n, m in enumerate(images):
        if n:
            # D_n D_{n-1} is the transpose of the product of the images
            dd_zero.append(compose(images[n - 1], m).is_zero())
        # where it vanishes, the basis cochains outside the pivot columns of
        # degree n-1 span a complement of im D_{n-1}, which D_n kills
        record = rank(m, columns if n and dd_zero[-1] else ())
        columns = {col for _, col in record.pivots}
        closed = cx.dim(n) - record.rank
        exact = degrees[-1].rank_d if n else 0
        degrees.append(DegreeData(n, cx.dim(n), record.rank, closed, exact, closed - exact))
        if include_kernel_bases:
            kernel_bases[n] = nullspace(m.transpose(), columns)
    return CohomologyReport(spec.flavor, top, degrees, all(dd_zero), kernel_bases)
