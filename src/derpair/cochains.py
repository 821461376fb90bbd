"""Sparse multilinear and alternating maps on a based space.

A ``MultiMap`` of arity k stores the structure constants of a k-linear map
V^k -> V as a sparse table {(i1,...,ik, j): c}, meaning the value on the basis
tuple (e_i1,...,e_ik) has coefficient c on e_j.  An ``AltMap`` stores an
alternating k-linear map on strictly increasing index tuples only; evaluation
at permuted tuples picks up the permutation sign and evaluation at tuples with
a repeated index is zero.

This module also supplies the two insertion compositions these maps support:
``circle_g`` (the sum over argument-slot insertions with alternating-block
signs, arity p+1 o arity q+1 -> arity p+q+1) and ``circle_nr`` (the unshuffle
sum used on alternating maps).  Both are driven by the stored entries: each
pairs an entry of g with the entries of f that take g's output as an input,
so their cost follows the number of nonzeros, not the dimension.  ``apply``
likewise walks the stored entries.  The graded brackets built from the
compositions live in ``derpair.brackets``.

``DerCochain`` pairs a top map of arity n with a shadow map of arity n-1 (the
shadow is absent at n = 1); ``CompatCochain`` is an n-tuple of degree-n
``DerCochain`` values.

The shape and the coordinate order of every cochain flavor are defined here
and nowhere else.  A degree-n cochain is a tuple of slots, one map each,
whose arities ``_slot_arities`` gives: a part is its top map, followed by its
shadow when there is a derivation and n > 1, and there is one part, or n
when compatible.  Lengths and bases follow from the arities
(``_slots_length``, ``_slots_basis``, and ``_PairCochain`` for the two
classes above).  Coordinates run slot by slot, each map's in lexicographic
order of index tuples (``_layout``; ``_increasing_ranks`` ranks increasing
tuples).
``_ad_block`` builds ad_x = [x, .], the graded bracket with one map x, on all
basis maps of one arity as sparse columns in that order, adding each term
into its column as it is made.  ``_ad_matrix`` is the one place where blocks
become a matrix: the coboundary matrices of ``derpair.cohomology``, degree 0
included, and the derivation systems of ``derpair.structures`` are term
lists over slot arities, and it alone lays the slots out, placing each
term's block, signed, at its out slot's offset, in integers over one
denominator.

Every alternating sign is the sign of sorting an index tuple, taken by one
function: ``_insert(key, extra)`` inserts extra, in any order, into the
increasing key by bisection, so ``_insert((), t)`` sorts any tuple t.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from functools import cache, lru_cache
from math import comb, factorial, lcm

from .errors import SchemaError, ShapeError, _quote
from .linalg import ONE, ZERO, Matrix, Space, as_scalar


def _insert(key: tuple, extra: tuple):
    # (key with extra inserted, the sign of sorting key + extra), or None on a
    # repeat; key is increasing and extra may come in any order: each index of
    # extra finds its slot in the growing key by bisection, and the sign is the
    # parity of the indices it passes.  The package's one signed sort.
    sign = 1
    for i in extra:
        s = bisect_left(key, i)
        if s < len(key) and key[s] == i:
            return None
        sign = -sign if (len(key) - s) % 2 else sign
        key = key[:s] + (i,) + key[s:]
    return key, sign


class _Linear:
    """``+``, ``-`` and ``c *`` over a class's ``_plus(other, sign)`` and ``scale``."""

    __slots__ = ()

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rmul__(self, factor):
        return self.scale(factor)


class _SparseMap(_Linear):
    """Shared linear-space behaviour of MultiMap and AltMap.

    Instances are treated as immutable after construction (all operations
    build new maps), so sharing them across threads for reads is safe.
    """

    __slots__ = ("space", "arity", "coeffs")

    def __init__(self, space: Space, arity: int, coeffs=None):
        if arity < 1:
            raise ShapeError("arity must be >= 1")
        self.space = space
        self.arity = arity
        table = {}
        if coeffs:
            for (args, out), value in coeffs.items():
                value = as_scalar(value)
                if value == 0:
                    continue
                self._check_key(args, out)
                table[(tuple(args), out)] = value
        self.coeffs = table

    @classmethod
    def _of(cls, space: Space, arity: int, table: dict):
        # table: {(args tuple, out): nonzero scalar} whose keys come from
        # maps that were already checked, so they are not checked again
        m = object.__new__(cls)
        m.space, m.arity, m.coeffs = space, arity, table
        return m

    @classmethod
    def zero(cls, space: Space, arity: int):
        return cls(space, arity, {})

    @classmethod
    def identity(cls, space: Space):
        return cls._of(space, 1, {((i,), i): 1 for i in range(space.dimension)})

    @classmethod
    def _keys(cls, space: Space, arity: int):
        # every key (args, out) in coordinate order; the subclass's _tuples
        # lists the argument tuples and _count counts them
        d = space.dimension
        return ((args, out) for args in cls._tuples(d, arity) for out in range(d))

    @classmethod
    def basis(cls, space: Space, arity: int):
        """All single-entry maps, in coordinate order."""
        for key in cls._keys(space, arity):
            yield cls._of(space, arity, {key: 1})

    @classmethod
    def coord_length(cls, space: Space, arity: int) -> int:
        return cls._count(space.dimension, arity) * space.dimension

    @classmethod
    def from_coords(cls, space: Space, arity: int, values):
        values = list(values)
        if len(values) != cls.coord_length(space, arity):
            raise ShapeError("coordinate vector has the wrong length")
        return cls(space, arity, {key: value for key, value
                                  in zip(cls._keys(space, arity), values) if value})

    def _check_key(self, args, out):
        d = self.space.dimension
        if len(args) != self.arity:
            raise ShapeError(f"key arity {len(args)} != map arity {self.arity}")
        if not all(0 <= i < d for i in args) or not 0 <= out < d:
            raise ShapeError("basis index out of range")

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (type(self) is type(other) and self.space == other.space
                and self.arity == other.arity and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((type(self).__name__, self.space, self.arity,
                     frozenset(self.coeffs.items())))

    def _require_like(self, other):
        if type(self) is not type(other) or self.space != other.space:
            raise ShapeError("operands live on different spaces")
        if self.arity != other.arity:
            raise ShapeError("operands have different arities")

    def _plus(self, other, sign):
        return linear_combination([(1, self), (sign, other)])

    def __neg__(self):
        return self.scale(-1)

    def scale(self, factor):
        return self._of(self.space, self.arity, _scaled(as_scalar(factor), self.coeffs))

    def eval(self, args) -> list[Fraction]:
        """Value on a basis-index tuple as a coefficient vector, read by ``_read``."""
        args = tuple(args)
        if len(args) != self.arity:
            raise ShapeError("argument count != arity")
        d = self.space.dimension
        if not all(0 <= i < d for i in args):
            raise ShapeError("basis index out of range")
        key, sign = self._read(args) or (args, 0)     # a repeat: stored nowhere
        return [Fraction(sign * self.coeffs[key, j]) if (key, j) in self.coeffs else ZERO
                for j in range(d)]

    def _slot_orders(self):
        # (order, sign) pairs: a stored entry (args, j) stands for the value
        # sign * c on the index tuple (args[order[0]], args[order[1]], ...)
        return ((tuple(range(self.arity)), 1),)

    def apply(self, vectors):
        """Multilinear extension: evaluate on coefficient vectors.

        Each stored entry (args, j) -> c adds c * prod_t vectors[t][args[t]]
        to output j, stopping at the first zero factor; an AltMap entry does
        so once per permutation of its key, with the permutation's sign.
        """
        if len(vectors) != self.arity:
            raise ShapeError("argument count != arity")
        out = [ZERO] * self.space.dimension
        if not self.coeffs:
            return out          # before the orderings: an AltMap's are k! long
        orders = self._slot_orders()
        supports = [{i: x for i, x in enumerate(vec) if x} for vec in vectors]
        for (args, j), value in self.coeffs.items():
            for order, sign in orders:
                factor = value if sign > 0 else -value
                for support, slot in zip(supports, order):
                    x = support.get(args[slot])
                    if x is None:
                        break
                    factor *= x
                else:
                    out[j] += factor
        return out

    def __repr__(self):
        body = ", ".join(f"{args}->{out}: {value}"
                         for (args, out), value in sorted(self.coeffs.items()))
        return f"{type(self).__name__}(dim={self.space.dimension}, arity={self.arity}, {{{body}}})"


class MultiMap(_SparseMap):
    """Sparse k-linear map on a based space (products, operators, cochains)."""

    # the argument tuples of the coordinate order, how many there are, and
    # the stored key and sign of any tuple (None where the value is zero)
    _tuples = staticmethod(lambda d, k: itertools.product(range(d), repeat=k))
    _count = staticmethod(pow)
    _read = staticmethod(lambda args: (args, 1))

    def coords(self) -> list[Fraction]:
        return dense_coords(self)


class AltMap(_SparseMap):
    """Sparse alternating k-linear map, keyed by strictly increasing tuples."""

    def _check_key(self, args, out):
        super()._check_key(args, out)
        if any(a >= b for a, b in zip(args, args[1:])):
            raise ShapeError("AltMap keys must be strictly increasing")

    def _slot_orders(self):
        return _signed_permutations(self.arity)

    _tuples = staticmethod(lambda d, k: itertools.combinations(range(d), k))
    _count = staticmethod(comb)
    # a permuted key is read with the permutation's sign, a repeat as zero
    _read = staticmethod(lambda args: _insert((), args))

    def coords(self) -> list[Fraction]:
        return dense_coords(self)

    @staticmethod
    def from_multimap(m: MultiMap) -> "AltMap":
        """Antisymmetrize a MultiMap: average of signed permuted values.

        Each stored entry with distinct indices adds its value, signed by the
        sort of its key, to the sorted key; entries with a repeated index
        cancel in the average and are skipped.
        """
        terms = []
        for (args, j), value in m.coeffs.items():
            merged = _insert((), args)
            if merged is not None:
                key, sign = merged
                terms.append(((key, j), value if sign > 0 else -value))
        norm = ONE / factorial(m.arity)
        return AltMap._of(m.space, m.arity, {key: as_scalar(value * norm) for key, value
                                             in accumulate({}, terms).items()})

    def to_multimap(self) -> MultiMap:
        """Expand to the full (redundant) multilinear table."""
        table = {}
        for (args, out), value in self.coeffs.items():
            for perm, sign in _signed_permutations(self.arity):
                key = tuple(args[p] for p in perm)
                table[(key, out)] = sign * value
        return MultiMap._of(self.space, self.arity, table)


@cache
def _signed_permutations(k: int) -> tuple:
    """All permutations of range(k) with their signs, built once per k."""
    return tuple((perm, _insert((), perm)[1]) for perm in itertools.permutations(range(k)))


def circle_g(f: MultiMap, g: MultiMap) -> MultiMap:
    """Insertion composition of multilinear maps.

    For f of arity p+1 and g of arity q+1 this is the arity p+q+1 map

        (f o g)(x_1,...,x_{p+q+1})
            = sum_{i=1}^{p+1} (-1)^{(i-1)q} f(x_1,...,x_{i-1},
                                              g(x_i,...,x_{i+q}),
                                              x_{i+q+1},...,x_{p+q+1}).
    """
    if not (isinstance(f, MultiMap) and isinstance(g, MultiMap)):
        raise ShapeError("circle_g needs two MultiMaps")
    if f.space != g.space:
        raise ShapeError("maps live on different spaces")
    space = f.space
    q = g.arity - 1
    out_arity = f.arity + g.arity - 1
    by_output = {}
    for (args, out), value in g.coeffs.items():
        by_output.setdefault(out, []).append((args, value))
    terms = []
    for slot in range(f.arity):
        negate = slot * q % 2
        for (fargs, fout), fvalue in f.coeffs.items():
            inner = by_output.get(fargs[slot])
            if inner:
                head, tail = fargs[:slot], fargs[slot + 1:]
                if negate:
                    fvalue = -fvalue
                terms += [((head + gargs + tail, fout), fvalue * gvalue)
                          for gargs, gvalue in inner]
    return MultiMap._of(space, out_arity, accumulate({}, terms))


def circle_nr(f: AltMap, g: AltMap) -> AltMap:
    """Unshuffle composition of alternating maps.

    For f of arity m+1 and g of arity n+1 this is the arity m+n+1 map

        (f ob g)(x_1,...,x_{m+n+1})
            = sum_{sigma in Sh(n+1,m)} sgn(sigma)
                  f(g(x_{sigma(1)},...,x_{sigma(n+1)}),
                    x_{sigma(n+2)},...,x_{sigma(m+n+1)}).

    The sum is taken entry by entry.  An entry (fargs, j) -> c of f is filed
    under each of its inputs k as (fargs without k, j, (-1)^pos * c), pos
    being k's position in fargs, which is f(k, rest) by alternation.  Each
    entry (gargs, k) of g then meets the entries filed under k: gargs and
    rest sorted together give the output key, and the sign of that sort is
    the sign of the one unshuffle that produces the key; a repeated index
    contributes nothing.
    """
    if not (isinstance(f, AltMap) and isinstance(g, AltMap)):
        raise ShapeError("circle_nr needs two AltMaps")
    if f.space != g.space:
        raise ShapeError("maps live on different spaces")
    by_input = {}
    for (fargs, fout), fvalue in f.coeffs.items():
        for pos, k in enumerate(fargs):
            by_input.setdefault(k, []).append(
                (fargs[:pos] + fargs[pos + 1:], fout, -fvalue if pos % 2 else fvalue))
    terms = []
    for (gargs, k), gvalue in g.coeffs.items():
        for rest, fout, fvalue in by_input.get(k, ()):
            merged = _insert(gargs, rest)
            if merged is not None:
                args, sign = merged
                value = gvalue * fvalue
                terms.append(((args, fout), value if sign > 0 else -value))
    return AltMap._of(f.space, f.arity + g.arity - 1, accumulate({}, terms))


def accumulate(table: dict, terms) -> dict:
    """Add each (key, value) of terms into table, dropping keys whose total is 0.

    Returns table.  Every sparse sum of the package is built by this loop:
    the compositions, map addition and linear combinations.
    """
    for key, value in terms:
        old = table.get(key)
        total = value if old is None else old + value
        if total:
            table[key] = total
        elif old is not None:
            del table[key]
    return table


def _scaled(factor, coeffs: dict) -> dict:
    # a new table holding factor * coeffs, with no zero values
    if factor == 1:
        return dict(coeffs)
    if factor == -1:
        return {key: -value for key, value in coeffs.items()}
    if not factor:
        return {}
    return {key: factor * value for key, value in coeffs.items()}


def linear_combination(terms):
    """The map sum of c * m over the (c, m) pairs of a nonempty list, as one table.

    Every m must share the type, space and arity of the first.
    """
    (factor, first), *rest = terms
    table = _scaled(factor, first.coeffs)
    for factor, m in rest:
        first._require_like(m)
        accumulate(table, m.coeffs.items() if factor == 1
                   else _scaled(factor, m.coeffs).items())
    return first._of(first.space, first.arity, table)


def _maps(flavor: str):
    """The map class of a cochain flavor: MultiMap for "multi", AltMap for "alt"."""
    if flavor not in ("multi", "alt"):
        raise SchemaError('cochain flavor must be "multi" or "alt", '
                          f"got {_quote(flavor)}")
    return MultiMap if flavor == "multi" else AltMap


class _PairCochain(_Linear):
    """Shape, arithmetic and coordinates of DerCochain and CompatCochain, written once.

    Each class is a tuple of slots laid out by ``_slot_arities``, read by
    ``_slots`` and built back by ``_from_slots``; sums, multiples and
    equality are taken slot by slot.
    """

    __slots__ = ()

    @classmethod
    def _arities(cls, degree: int) -> tuple:
        if degree < 1:
            raise ShapeError("cochain degree must be >= 1")
        return _slot_arities(cls is CompatCochain, True, degree)

    @classmethod
    def zero(cls, space: Space, degree: int, flavor: str):
        maps = _maps(flavor)
        return cls._from_slots([maps.zero(space, a) for a in cls._arities(degree)])

    @classmethod
    def coord_length(cls, space: Space, degree: int, flavor: str) -> int:
        return _slots_length(_maps(flavor), space, cls._arities(degree))

    @classmethod
    def from_coords(cls, space: Space, degree: int, flavor: str, values):
        values = list(values)
        if len(values) != cls.coord_length(space, degree, flavor):
            raise ShapeError("coordinate vector has the wrong length")
        maps, slots, start = _maps(flavor), [], 0
        for arity in cls._arities(degree):
            end = start + maps.coord_length(space, arity)
            slots.append(maps.from_coords(space, arity, values[start:end]))
            start = end
        return cls._from_slots(slots)

    @classmethod
    def basis(cls, space: Space, degree: int, flavor: str):
        """Basis cochains matching coordinate order: slot by slot."""
        return map(cls._from_slots,
                   _slots_basis(_maps(flavor), space, cls._arities(degree)))

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self._slots())

    def __eq__(self, other):
        return type(self) is type(other) and self._slots() == other._slots()

    def __hash__(self):
        return hash((type(self).__name__, self._slots()))

    def _plus(self, other, sign):
        if type(self) is not type(other):
            return NotImplemented
        if self.degree != other.degree:
            raise ShapeError("cochain degrees differ")
        return self._from_slots([f._plus(g, sign)
                                 for f, g in zip(self._slots(), other._slots())])

    def scale(self, factor):
        return self._from_slots([f.scale(factor) for f in self._slots()])

    def coords(self) -> list[Fraction]:
        return dense_coords(self)


class DerCochain(_PairCochain):
    """A cochain of a derivation-pair complex: top map plus lower shadow.

    ``degree`` is the top arity n; the shadow has arity n-1 and is None when
    n = 1.  Both components share the space and the flavor (MultiMap for the
    associative side, AltMap for the Lie side).
    """

    __slots__ = ("top", "shadow")

    def __init__(self, top, shadow=None):
        if shadow is not None:
            if type(shadow) is not type(top):
                raise ShapeError("top and shadow must share a flavor")
            if shadow.space != top.space:
                raise ShapeError("top and shadow must share the space")
            if shadow.arity != top.arity - 1:
                raise ShapeError("shadow arity must be top arity - 1")
        elif top.arity != 1:
            raise ShapeError("shadow may be absent only in degree 1")
        self.top = top
        self.shadow = shadow

    @property
    def space(self):
        return self.top.space

    @property
    def degree(self) -> int:
        return self.top.arity

    @property
    def flavor(self):
        return "alt" if isinstance(self.top, AltMap) else "multi"

    def _slots(self) -> tuple:
        return (self.top,) if self.shadow is None else (self.top, self.shadow)

    @staticmethod
    def _from_slots(slots) -> "DerCochain":
        return DerCochain(*slots)

    def __repr__(self):
        return f"DerCochain(top={self.top!r}, shadow={self.shadow!r})"


class CompatCochain(_PairCochain):
    """Degree-n cochain of a compatible-pair complex: n DerCochains of degree n."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ShapeError("a compatible cochain needs at least one part")
        degree = len(parts)
        for part in parts:
            if not isinstance(part, DerCochain):
                raise ShapeError("parts must be DerCochains")
            if part.degree != degree:
                raise ShapeError("part degree must equal the number of parts")
            if part.space != parts[0].space or part.flavor != parts[0].flavor:
                raise ShapeError("parts must share space and flavor")
        self.parts = parts

    @property
    def space(self):
        return self.parts[0].space

    @property
    def degree(self) -> int:
        return len(self.parts)

    @property
    def flavor(self):
        return self.parts[0].flavor

    def _slots(self) -> tuple:
        return tuple(f for part in self.parts for f in part._slots())

    @staticmethod
    def _from_slots(slots) -> "CompatCochain":
        width = 1 if len(slots) == 1 else 2         # a degree-1 part has no shadow
        return CompatCochain([DerCochain(*slots[i:i + width])
                              for i in range(0, len(slots), width)])

    def __repr__(self):
        return f"CompatCochain({list(self.parts)!r})"


# ---------------------------------------------------------------------------
# coordinates: the one coordinate order of every cochain
# ---------------------------------------------------------------------------

@cache
def _slot_arities(compatible: bool, with_derivation: bool, n: int) -> tuple:
    """The arity of each slot of a degree-n cochain, in coordinate order.

    A part is its top map of arity n, followed by its shadow of arity n-1
    when there is a derivation and n > 1; a cochain is one part, or n parts
    when compatible.  Degree 0 is one vector, a map of arity 0, or nothing
    with a derivation.
    """
    if n == 0:
        return () if with_derivation else (0,)
    part = (n, n - 1) if with_derivation and n > 1 else (n,)
    return part * (n if compatible else 1)


def _slots_length(maps, space: Space, arities) -> int:
    """The number of coordinates of a slot tuple of the map class maps."""
    return sum(maps.coord_length(space, a) for a in arities)


def _slots_basis(maps, space: Space, arities):
    """The basis slot tuples in coordinate order: one basis map, zeros elsewhere."""
    zeros = tuple(maps.zero(space, a) for a in arities)
    for k, arity in enumerate(arities):
        for b in maps.basis(space, arity):
            yield (*zeros[:k], b, *zeros[k + 1:])


def _radix(args, d: int) -> int:
    """The rank of an index tuple among all tuples of its length."""
    position = 0
    for i in args:
        position = position * d + i
    return position


@lru_cache(maxsize=32)
def _increasing_ranks(d: int, k: int) -> dict:
    """{args: rank} of the increasing k-tuples of range(d), in lexicographic order."""
    return {args: i for i, args in enumerate(AltMap._tuples(d, k))}


def _layout(cochain, offset: int, out: dict) -> int:
    """Write the nonzero coordinates of cochain, shifted by offset, into out.

    Returns the offset just past the cochain.  A map's coordinate of key
    (args, j) sits at position(args) * d + j, where position is the rank of
    args among all index tuples (MultiMap, ``_radix``) or increasing ones
    (AltMap, ``_increasing_ranks``) in lexicographic order; a DerCochain puts
    its top before its shadow, and a CompatCochain or a tuple of maps puts its
    parts left to right.
    """
    if isinstance(cochain, (MultiMap, AltMap)):
        d = cochain.space.dimension
        ranks = _increasing_ranks(d, cochain.arity) if isinstance(cochain, AltMap) else None
        for (args, j), value in cochain.coeffs.items():
            position = _radix(args, d) if ranks is None else ranks[args]
            out[offset + position * d + j] = value
        return offset + cochain.coord_length(cochain.space, cochain.arity)
    for slot in cochain._slots() if isinstance(cochain, _PairCochain) else cochain:
        offset = _layout(slot, offset, out)
    return offset


def sparse_coords(cochain) -> dict[int, Fraction]:
    """The nonzero coordinates {index: value} of a cochain of any flavor.

    Covers MultiMap, AltMap, DerCochain, CompatCochain and tuples of maps
    (the compatible-associative cochains), in the order ``coords`` uses.
    """
    out = {}
    _layout(cochain, 0, out)
    return out


def dense_coords(cochain) -> list[Fraction]:
    """All coordinates of a cochain of any flavor, zeros included."""
    values = {}
    length = _layout(cochain, 0, values)
    return [Fraction(values[i]) if i in values else ZERO for i in range(length)]


# ---------------------------------------------------------------------------
# ad_x blocks: the bracket with one map, as sparse columns in coordinate order
# ---------------------------------------------------------------------------

def _ad_matrix(space: Space, cls, maps, terms, in_arities, out_arities,
               blocks: dict) -> Matrix:
    """The matrix whose rows are signed, shifted sums of ad blocks.

    ``terms`` are (out slot, coefficient, map index x, in slot) rows, as
    ``derpair.cohomology._terms`` yields them, over slots of class cls laid
    out in coordinate order by in_arities and out_arities.  In slot s has one
    row per basis map b of arity in_arities[s]: the sum over its terms of
    coefficient * [maps[x], b], shifted to the offset of the out slot.  An in
    slot reaches each out slot through at most one term, so the pieces do
    not overlap; they are added in the order of ``terms``.  With L the lcm
    of the denominators of maps, each term is linear in one map and
    ad_{Lx} = L ad_x, so the blocks are built from the integer maps L x and
    the result is their table over L.  ``blocks`` holds them by (map index,
    arity), built on first use and shared by every slot and call that
    passes it; an empty map has none.  An in slot whose one term is +1 at
    offset 0 shares the block's columns as rows: ``Matrix._reduced``,
    ``compose``, ``transpose`` and the eliminator never change a row in place.
    """
    den = lcm(*(v.denominator for m in maps for v in m.coeffs.values()))
    offsets = [0, *itertools.accumulate(cls.coord_length(space, a) for a in out_arities)]
    groups = [[] for _ in in_arities]
    for out, coeff, x, slot in terms:
        m, arity = maps[x], in_arities[slot]
        if m.coeffs:
            if (x, arity) not in blocks:
                blocks[x, arity] = _ad_block(type(m)._of(m.space, m.arity, {
                    key: v.numerator * (den // v.denominator)
                    for key, v in m.coeffs.items()}), arity)
            groups[slot].append((offsets[out], coeff, blocks[x, arity]))
    table, start = {}, 0
    for arity, pieces in zip(in_arities, groups):
        for offset, coeff, block in pieces:
            shared = len(pieces) == 1 and not offset and coeff == 1
            for c, col in enumerate(block):
                if col:
                    row = col if shared else {offset + r: coeff * v for r, v in col.items()}
                    if table.setdefault(start + c, row) is not row:
                        table[start + c].update(row)
        start += cls.coord_length(space, arity)
    return Matrix._reduced(start, offsets[-1], table, den)


def _ad_block(x, k: int) -> list:
    """ad_x = [x, .] on the arity-k maps of x's class, as sparse columns.

    Column c is {row: value}, the coordinates of [x, b] for the c-th basis
    map b of arity k, both in the coordinate order of ``sparse_coords``; at
    k = 0 the basis maps are the vectors e_o, maps of no input.
    With p and q the arities of x and b less one, [x, b] = x o b - (-1)^{pq}
    b o x for the composition o of the class (``circle_g`` or ``circle_nr``).
    Each entry of x is visited once as an input-taker (x o b, where b's
    output fills one of x's inputs) and once as an output (b o x).  Rows come
    from the index tuples (alternating merges by ``_insert``, ranked by
    ``_increasing_ranks``); each term goes into its column at once.
    """
    d, a = x.space.dimension, x.arity
    twist = 1 if (a - 1) * (k - 1) % 2 else -1      # [x, b] = x o b + twist b o x
    return (_alt_terms if isinstance(x, AltMap) else _multi_terms)(x, k, d, a, twist)


def _multi_terms(x: MultiMap, k: int, d: int, a: int, twist: int) -> list:
    # column P*d + o is the basis map (args, o) with P = _radix(args); a row
    # is _radix(key) * d + out, so each (entry, slot) of x contributes to a
    # family of columns at rows that are affine in the column's digits
    width = d ** k
    columns = [{} for _ in range(width * d)]
    for (xargs, xout), v in x.coeffs.items():
        for s, j in enumerate(xargs):
            # x o b: b's output j fills slot s of x; key xargs[:s] + args + xargs[s+1:]
            t = a - 1 - s
            value = -v if s * (k - 1) % 2 else v
            scale = d ** (t + 1)
            base = (_radix(xargs[:s], d) * d ** (k + t)
                    + _radix(xargs[s + 1:], d)) * d + xout
            for column, row in zip(columns[j::d], range(base, base + width * scale, scale)):
                total = column[row] = column.get(row, 0) + value
                if not total:
                    del column[row]
        position = _radix(xargs, d)
        for s in range(k):
            # b o x: xout fills slot s of b, args = (head, xout, tail); the
            # columns and rows share head H and the low digits L = (tail, o)
            lo = d ** (k - s)
            value = twist * v if s * (a - 1) % 2 == 0 else -twist * v
            col, row = xout * lo, position * lo
            for H in range(d ** s):
                first, row_first = H * d * lo + col, H * d ** a * lo + row
                for column, r in zip(columns[first:first + lo], range(row_first, row_first + lo)):
                    total = column[r] = column.get(r, 0) + value
                    if not total:
                        del column[r]
    return columns


def _alt_terms(x: AltMap, k: int, d: int, a: int, twist: int) -> list:
    # column c*d + o is the basis map (keys[c], o); a row is the rank of the
    # merged key among increasing tuples, times d, plus the output
    keys, ranks = _increasing_ranks(d, k), _increasing_ranks(d, a + k - 1)
    columns = [{} for _ in range(len(keys) * d)]
    merges = {}                         # rest -> (column base, row base, sign) per key
    for (xargs, xout), v in x.coeffs.items():
        for pos, j in enumerate(xargs):
            # x o b: b's output j fills input pos of x; its key merges with the rest
            rest = xargs[:pos] + xargs[pos + 1:]
            if rest not in merges:
                merges[rest] = [(c * d, ranks[m[0]] * d, m[1]) for c, args in enumerate(keys)
                                if (m := _insert(args, rest)) is not None]
            value = -v if pos % 2 else v
            for col, row, sign in merges[rest]:
                column, row = columns[col + j], row + xout
                total = column[row] = column.get(row, 0) + sign * value
                if not total:
                    del column[row]
        # b o x: xout is input pos of b, whose other inputs rest merge with x's;
        # inserting xout into rest gives b's key and (-1)^(k-1-pos)
        outside = [i for i in range(d) if i != xout and i not in xargs]
        for rest in itertools.combinations(outside, k - 1) if k else ():
            key, sign = _insert(rest, (xout,))
            merged, merge_sign = _insert(xargs, rest)
            col, row = keys[key] * d, ranks[merged] * d
            value = (twist if k % 2 else -twist) * sign * merge_sign * v
            for column, r in zip(columns[col:col + d], range(row, row + d)):
                total = column[r] = column.get(r, 0) + value
                if not total:
                    del column[r]
    return columns
