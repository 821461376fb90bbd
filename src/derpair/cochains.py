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
``DerCochain`` values.  Coordinates of every cochain flavor are taken in
lexicographic order of index tuples, top before shadow, parts left to right,
so coboundary matrices can be assembled deterministically.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import comb, factorial

from .errors import ShapeError
from .linalg import ONE, ZERO, Space, as_scalar


def sort_with_sign(indices):
    """Sort a tuple, returning (sorted_tuple, parity_sign) or None on repeats."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return None
    return tuple(idx), sign


class _SparseMap:
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
        # table: {(args tuple, out): nonzero Fraction} whose keys come from
        # maps that were already checked, so they are not checked again
        m = object.__new__(cls)
        m.space, m.arity, m.coeffs = space, arity, table
        return m

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
        # self + sign * other in one pass over other's entries
        self._require_like(other)
        terms = other.coeffs if sign > 0 else _scaled(-1, other.coeffs)
        return self._of(self.space, self.arity,
                        accumulate(dict(self.coeffs), terms.items()))

    def __add__(self, other):
        return self._plus(other, 1)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def scale(self, factor):
        return self._of(self.space, self.arity, _scaled(as_scalar(factor), self.coeffs))

    def __rmul__(self, factor):
        return self.scale(factor)

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

    @staticmethod
    def zero(space: Space, arity: int) -> "MultiMap":
        return MultiMap(space, arity, {})

    @staticmethod
    def identity(space: Space) -> "MultiMap":
        return MultiMap(space, 1, {((i,), i): ONE for i in range(space.dimension)})

    @staticmethod
    def basis(space: Space, arity: int):
        """All single-entry maps, in coordinate order."""
        d = space.dimension
        for args in itertools.product(range(d), repeat=arity):
            for out in range(d):
                yield MultiMap(space, arity, {(args, out): ONE})

    @staticmethod
    def coord_length(space: Space, arity: int) -> int:
        return space.dimension ** arity * space.dimension

    def eval(self, args) -> list[Fraction]:
        """Value on a basis-index tuple as a coefficient vector."""
        args = tuple(args)
        if len(args) != self.arity:
            raise ShapeError("argument count != arity")
        out = [ZERO] * self.space.dimension
        for j in range(self.space.dimension):
            value = self.coeffs.get((args, j))
            if value is not None:
                out[j] = value
        return out

    def flip(self) -> "MultiMap":
        """Swap the two arguments of a bilinear map."""
        if self.arity != 2:
            raise ShapeError("flip needs arity 2")
        return MultiMap._of(self.space, 2,
                            {((b, a), out): value
                             for ((a, b), out), value in self.coeffs.items()})

    def coords(self) -> list[Fraction]:
        return dense_coords(self)

    @staticmethod
    def from_coords(space: Space, arity: int, values) -> "MultiMap":
        values = list(values)
        if len(values) != MultiMap.coord_length(space, arity):
            raise ShapeError("coordinate vector has the wrong length")
        d = space.dimension
        keys = ((args, out)
                for args in itertools.product(range(d), repeat=arity)
                for out in range(d))
        return MultiMap(space, arity,
                        {key: value for key, value in zip(keys, values) if value})


class AltMap(_SparseMap):
    """Sparse alternating k-linear map, keyed by strictly increasing tuples."""

    def _check_key(self, args, out):
        super()._check_key(args, out)
        if any(a >= b for a, b in zip(args, args[1:])):
            raise ShapeError("AltMap keys must be strictly increasing")

    def _slot_orders(self):
        return _signed_permutations(self.arity)

    @staticmethod
    def zero(space: Space, arity: int) -> "AltMap":
        return AltMap(space, arity, {})

    @staticmethod
    def identity(space: Space) -> "AltMap":
        return AltMap(space, 1, {((i,), i): ONE for i in range(space.dimension)})

    @staticmethod
    def basis(space: Space, arity: int):
        d = space.dimension
        for args in itertools.combinations(range(d), arity):
            for out in range(d):
                yield AltMap(space, arity, {(args, out): ONE})

    @staticmethod
    def coord_length(space: Space, arity: int) -> int:
        return comb(space.dimension, arity) * space.dimension

    def eval(self, args) -> list[Fraction]:
        """Signed value on any basis-index tuple (zero on repeated indices)."""
        args = tuple(args)
        if len(args) != self.arity:
            raise ShapeError("argument count != arity")
        out = [ZERO] * self.space.dimension
        sorted_sign = sort_with_sign(args)
        if sorted_sign is None:
            return out
        key, sign = sorted_sign
        for j in range(self.space.dimension):
            value = self.coeffs.get((key, j))
            if value is not None:
                out[j] = sign * value
        return out

    def coords(self) -> list[Fraction]:
        return dense_coords(self)

    @staticmethod
    def from_coords(space: Space, arity: int, values) -> "AltMap":
        values = list(values)
        if len(values) != AltMap.coord_length(space, arity):
            raise ShapeError("coordinate vector has the wrong length")
        d = space.dimension
        keys = ((args, out)
                for args in itertools.combinations(range(d), arity)
                for out in range(d))
        return AltMap(space, arity,
                      {key: value for key, value in zip(keys, values) if value})

    @staticmethod
    def from_multimap(m: MultiMap) -> "AltMap":
        """Antisymmetrize a MultiMap: average of signed permuted values.

        Each stored entry with distinct indices adds its value, signed by the
        sort of its key, to the sorted key; entries with a repeated index
        cancel in the average and are skipped.
        """
        terms = []
        for (args, j), value in m.coeffs.items():
            merged = sort_with_sign(args)
            if merged is not None:
                key, sign = merged
                terms.append(((key, j), value if sign > 0 else -value))
        norm = Fraction(1, factorial(m.arity))
        return AltMap._of(m.space, m.arity, {key: value * norm for key, value
                                             in accumulate({}, terms).items()})

    def to_multimap(self) -> MultiMap:
        """Expand to the full (redundant) multilinear table."""
        table = {}
        for (args, out), value in self.coeffs.items():
            for perm, sign in _signed_permutations(self.arity):
                key = tuple(args[p] for p in perm)
                table[(key, out)] = sign * value
        return MultiMap._of(self.space, self.arity, table)


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


@cache
def _signed_permutations(k: int) -> tuple:
    """All permutations of range(k) with their signs, built once per k."""
    return tuple((perm, _perm_sign(perm)) for perm in itertools.permutations(range(k)))


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
            merged = sort_with_sign(gargs + rest)
            if merged is not None:
                args, sign = merged
                value = gvalue * fvalue
                terms.append(((args, fout), value if sign > 0 else -value))
    return AltMap._of(f.space, f.arity + g.arity - 1, accumulate({}, terms))


def accumulate(table: dict, terms) -> dict:
    """Add each (key, value) of terms into table, dropping keys whose total is 0.

    Returns table.  Every sparse sum of the package is built by this loop:
    the compositions, map addition, linear combinations and the operator
    compositions of ``derpair.constructions``.
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


class DerCochain:
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

    @staticmethod
    def zero(space: Space, degree: int, flavor: str) -> "DerCochain":
        cls = AltMap if flavor == "alt" else MultiMap
        shadow = cls.zero(space, degree - 1) if degree > 1 else None
        return DerCochain(cls.zero(space, degree), shadow)

    def is_zero(self) -> bool:
        return self.top.is_zero() and (self.shadow is None or self.shadow.is_zero())

    def __eq__(self, other):
        return (isinstance(other, DerCochain) and self.top == other.top
                and self.shadow == other.shadow)

    def __hash__(self):
        return hash((self.top, self.shadow))

    def _plus(self, other, sign):
        if not isinstance(other, DerCochain):
            return NotImplemented
        if self.degree != other.degree:
            raise ShapeError("cochain degrees differ")
        shadow = None
        if self.shadow is not None:
            shadow = self.shadow._plus(other.shadow, sign)
        return DerCochain(self.top._plus(other.top, sign), shadow)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def scale(self, factor) -> "DerCochain":
        shadow = None if self.shadow is None else self.shadow.scale(factor)
        return DerCochain(self.top.scale(factor), shadow)

    def __rmul__(self, factor):
        return self.scale(factor)

    def coords(self) -> list[Fraction]:
        return dense_coords(self)

    @staticmethod
    def coord_length(space: Space, degree: int, flavor: str) -> int:
        cls = AltMap if flavor == "alt" else MultiMap
        total = cls.coord_length(space, degree)
        if degree > 1:
            total += cls.coord_length(space, degree - 1)
        return total

    @staticmethod
    def from_coords(space: Space, degree: int, flavor: str, values) -> "DerCochain":
        values = list(values)
        if len(values) != DerCochain.coord_length(space, degree, flavor):
            raise ShapeError("coordinate vector has the wrong length")
        cls = AltMap if flavor == "alt" else MultiMap
        split = cls.coord_length(space, degree)
        top = cls.from_coords(space, degree, values[:split])
        shadow = None
        if degree > 1:
            shadow = cls.from_coords(space, degree - 1, values[split:])
        return DerCochain(top, shadow)

    @staticmethod
    def basis(space: Space, degree: int, flavor: str):
        """Basis cochains matching coordinate order: top slots then shadow slots."""
        cls = AltMap if flavor == "alt" else MultiMap
        zero_shadow = cls.zero(space, degree - 1) if degree > 1 else None
        for top in cls.basis(space, degree):
            yield DerCochain(top, zero_shadow)
        if degree > 1:
            zero_top = cls.zero(space, degree)
            for shadow in cls.basis(space, degree - 1):
                yield DerCochain(zero_top, shadow)

    def __repr__(self):
        return f"DerCochain(top={self.top!r}, shadow={self.shadow!r})"


class CompatCochain:
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

    @staticmethod
    def zero(space: Space, degree: int, flavor: str) -> "CompatCochain":
        return CompatCochain([DerCochain.zero(space, degree, flavor)
                              for _ in range(degree)])

    def is_zero(self) -> bool:
        return all(part.is_zero() for part in self.parts)

    def __eq__(self, other):
        return isinstance(other, CompatCochain) and self.parts == other.parts

    def __add__(self, other):
        if not isinstance(other, CompatCochain):
            return NotImplemented
        if self.degree != other.degree:
            raise ShapeError("cochain degrees differ")
        return CompatCochain([a + b for a, b in zip(self.parts, other.parts)])

    def scale(self, factor) -> "CompatCochain":
        return CompatCochain([part.scale(factor) for part in self.parts])

    def __rmul__(self, factor):
        return self.scale(factor)

    def coords(self) -> list[Fraction]:
        return dense_coords(self)

    @staticmethod
    def coord_length(space: Space, degree: int, flavor: str) -> int:
        return degree * DerCochain.coord_length(space, degree, flavor)

    @staticmethod
    def from_coords(space: Space, degree: int, flavor: str, values) -> "CompatCochain":
        values = list(values)
        if len(values) != CompatCochain.coord_length(space, degree, flavor):
            raise ShapeError("coordinate vector has the wrong length")
        step = DerCochain.coord_length(space, degree, flavor)
        parts = [DerCochain.from_coords(space, degree, flavor,
                                        values[i * step:(i + 1) * step])
                 for i in range(degree)]
        return CompatCochain(parts)

    @staticmethod
    def basis(space: Space, degree: int, flavor: str):
        zero = DerCochain.zero(space, degree, flavor)
        for slot in range(degree):
            for part in DerCochain.basis(space, degree, flavor):
                yield CompatCochain([part if i == slot else zero
                                     for i in range(degree)])

    def __repr__(self):
        return f"CompatCochain({list(self.parts)!r})"


# ---------------------------------------------------------------------------
# coordinates
# ---------------------------------------------------------------------------

def _layout(cochain, offset: int, out: dict) -> int:
    """Write the nonzero coordinates of cochain, shifted by offset, into out.

    Returns the offset just past the cochain.  A map's coordinate of key
    (args, j) sits at position(args) * d + j, where position is the rank of
    args among all index tuples (MultiMap) or increasing ones (AltMap) in
    lexicographic order; a DerCochain puts its top before its shadow, and a
    CompatCochain or a tuple of maps puts its parts left to right.
    """
    if isinstance(cochain, MultiMap):
        d = cochain.space.dimension
        for (args, j), value in cochain.coeffs.items():
            position = 0
            for a in args:
                position = position * d + a
            out[offset + position * d + j] = value
        return offset + MultiMap.coord_length(cochain.space, cochain.arity)
    if isinstance(cochain, AltMap):
        d, k = cochain.space.dimension, cochain.arity
        last = comb(d, k) - 1
        for (args, j), value in cochain.coeffs.items():
            position = last - sum(comb(d - 1 - a, k - i) for i, a in enumerate(args))
            out[offset + position * d + j] = value
        return offset + AltMap.coord_length(cochain.space, k)
    if isinstance(cochain, DerCochain):
        offset = _layout(cochain.top, offset, out)
        if cochain.shadow is not None:
            offset = _layout(cochain.shadow, offset, out)
        return offset
    parts = cochain.parts if isinstance(cochain, CompatCochain) else cochain
    for part in parts:
        offset = _layout(part, offset, out)
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
    return [values.get(i, ZERO) for i in range(length)]
