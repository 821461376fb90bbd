"""Exact rational linear algebra: based spaces, sparse matrices, ranks, kernels.

Scalars are exact rationals, normalised by ``as_scalar``: an ``int`` when
integral, else a ``fractions.Fraction`` in lowest terms with positive
denominator, so every computation in the package is exact.  A ``Matrix`` is
one sparse integer table, holding only the nonzero entries row by row, over
one positive denominator: its values are table / den.  The constructors
bring ints and ``Fraction``s over the lcm of their denominators once; after
that ``compose`` multiplies integer tables (and the denominators), and
``Fraction``s appear again only in the dense views ``entry``, ``row`` and
``entries`` and in the kernel basis.

``rank`` and ``nullspace`` share one sparse, fraction-free eliminator on the
rows of the integer table: a row is updated as ``p*row - a*pivot_row`` and
then divided by the gcd of its entries, so values stay integral and small and
nothing is ever rounded.  ``rank`` first takes, without arithmetic, the
pivots that the structure of the matrix gives away (structured Gaussian
elimination, after LaMacchia and Odlyzko): a row with one entry, whose column
is then deleted from the other rows, and a column with one nonzero, whose
row then leaves; each cascades.  It picks the rest Markowitz-style (the
shortest row, and in it a +-1 entry of the sparsest column), which keeps the
fill-in low on sparse coboundary matrices; ``derpair.cohomology`` hands it
the transpose of each coboundary matrix, whose rows are the images of the
basis cochains, as that ranks faster than the matrix itself.  Every pivot
column is zero in each row taken after its pivot row, so the pivot rows are
triangular on the pivot columns S in the order they are removed, and the
row space projects isomorphically onto the coordinates in S.  ``rank``
returns an ``Elimination``: the rank, and the pivots as (row, column) pairs
in the order they are removed.  ``nullspace`` takes the columns in order and
clears each pivot column above and below the pivot, which yields the reduced
row echelon form; since that form is unique, so is the kernel basis read off
from it.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .errors import EliminationError, SchemaError, ShapeError, _quote

# The scalar field: exact rationals of characteristic zero.
Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
_LITERAL = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")      # ASCII digits, no "." or "_"


def as_scalar(value):
    """An int, bool, Fraction or "p/q" string as an exact scalar: an int when
    integral and a Fraction otherwise, so integral data computes on ints."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise SchemaError(f"cannot interpret {_quote(value)} as an exact rational")


def parse_scalar(text: str):
    """Parse "p/q" (or "p" when q=1), whitespace around it stripped, as ``as_scalar``."""
    match = _LITERAL.fullmatch(text.strip())
    if match is None:
        raise SchemaError(f"bad rational literal {_quote(text)}")
    numerator, denominator = match.groups()
    try:
        if denominator is None:
            return int(numerator)
        return as_scalar(Fraction(int(numerator), int(denominator)))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational literal {_quote(text)}") from exc


def format_scalar(value) -> str:
    """Render as "p/q", or "p" when the denominator is 1."""
    return str(value)


class Space(namedtuple("Space", "dimension labels")):
    """A based finite-dimensional vector space with named basis elements."""

    __slots__ = ()

    def __new__(cls, dimension: int, labels):
        labels = tuple(labels)
        if dimension < 1:
            raise SchemaError("space dimension must be >= 1")
        if len(labels) != dimension:
            raise SchemaError("label count must equal the dimension")
        if len(set(labels)) != dimension:
            raise SchemaError("basis labels must be distinct")
        return super().__new__(cls, dimension, labels)

    @classmethod
    def _make(cls, iterable):
        # so that _replace checks the new fields too
        return cls(*iterable)

    @staticmethod
    def of_dim(dimension: int, labels=None) -> "Space":
        if labels is None:
            labels = tuple(f"e{i + 1}" for i in range(dimension))
        return Space(dimension, labels)

    def basis_vector(self, index: int) -> tuple[Fraction, ...]:
        return tuple(ONE if i == index else ZERO for i in range(self.dimension))


class Matrix:
    """Matrix of exact rationals: a sparse integer table over one denominator.

    The entry (i, j) is ``table[i][j] / den``.  ``table`` maps a row index to
    {column index: nonzero int} and holds no empty row; ``den`` is >= 1 and
    the gcd of den and all entries is 1, so each matrix has exactly one form
    and equal matrices compare and hash alike.  ``Matrix(rows, cols,
    entries)`` takes the entries densely, row-major; ``Matrix.from_columns``
    takes sparse columns and never forms the dense matrix.  Both, and
    ``from_rows``, take ints or ``Fraction``s.  ``entries``, ``entry`` and
    ``row`` are read-only dense views as ``Fraction``s.
    """

    __slots__ = ("rows", "cols", "den", "_table")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ShapeError("entry count must equal rows*cols")
        table = {}
        for i in range(rows):
            row = {j: as_scalar(x)
                   for j, x in enumerate(entries[i * cols:(i + 1) * cols]) if x}
            if row:
                table[i] = row
        self.rows, self.cols = rows, cols
        self._table, self.den = _over_one_denominator(table)

    @staticmethod
    def _of(rows: int, cols: int, table: dict, den: int = 1) -> "Matrix":
        # table: row index -> {column index: nonzero int}, no empty rows, and
        # (table, den) already in the canonical form
        m = object.__new__(Matrix)
        m.rows, m.cols, m.den, m._table = rows, cols, den, table
        return m

    @staticmethod
    def _reduced(rows: int, cols: int, table: dict, den: int) -> "Matrix":
        """The matrix table / den of an integer table, in the canonical form."""
        g = den
        for row in table.values():
            if g == 1:
                break
            g = gcd(g, *row.values())
        if g > 1:
            den //= g
            table = {i: {j: x // g for j, x in row.items()} for i, row in table.items()}
        return Matrix._of(rows, cols, table, den)

    @staticmethod
    def from_columns(rows: int, columns) -> "Matrix":
        """The rows x len(columns) matrix whose column j is {row index: value}."""
        columns = list(columns)
        table = {}
        for j, column in enumerate(columns):
            for i, x in column.items():
                if not 0 <= i < rows:
                    raise ShapeError(f"row index {i} out of range for {rows} rows")
                if x:
                    table.setdefault(i, {})[j] = as_scalar(x)
        return Matrix._of(rows, len(columns), *_over_one_denominator(table))

    @staticmethod
    def from_rows(rows) -> "Matrix":
        rows = [list(row) for row in rows]
        n_rows = len(rows)
        n_cols = len(rows[0]) if rows else 0
        if any(len(row) != n_cols for row in rows):
            raise ShapeError("ragged rows")
        return Matrix(n_rows, n_cols, tuple(x for row in rows for x in row))

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix._of(rows, cols, {})

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._of(n, n, {i: {i: 1} for i in range(n)})

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """All rows*cols entries, row-major."""
        return tuple(x for i in range(self.rows) for x in self.row(i))

    def entry(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ShapeError(f"entry ({i}, {j}) out of range")
        x = self._table.get(i, {}).get(j)
        return ZERO if x is None else Fraction(x, self.den)

    def row(self, i: int) -> tuple[Fraction, ...]:
        if not 0 <= i < self.rows:
            raise ShapeError(f"row {i} out of range")
        values = [ZERO] * self.cols
        for j, x in self._table.get(i, {}).items():
            values[j] = Fraction(x, self.den)
        return tuple(values)

    def transpose(self) -> "Matrix":
        table = {}
        for i, row in self._table.items():
            for j, x in row.items():
                table.setdefault(j, {})[i] = x
        return Matrix._of(self.cols, self.rows, table, self.den)

    def is_zero(self) -> bool:
        return not self._table

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return ((self.rows, self.cols, self.den, self._table)
                == (other.rows, other.cols, other.den, other._table))

    def __hash__(self):
        return hash((self.rows, self.cols, self.den,
                     frozenset((i, frozenset(row.items()))
                               for i, row in self._table.items())))

    def __repr__(self):
        return f"Matrix({self.rows}, {self.cols}, {self._table!r}, den={self.den})"

    def __mul__(self, other: "Matrix") -> "Matrix":
        return compose(self, other)


def _over_one_denominator(table: dict) -> tuple[dict, int]:
    """(integer table, den) whose quotient is a table of ints and Fractions.

    den is the lcm of the entries' denominators, which is the canonical
    form: for each prime p of den, an entry whose denominator holds p to the
    full power it has in den is scaled to a numerator that p does not divide.
    """
    den = lcm(*(x.denominator for row in table.values() for x in row.values()))
    return {i: {j: x.numerator * (den // x.denominator) for j, x in row.items()}
            for i, row in table.items()}, den


def compose(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product a*b: the integer tables multiply, and so do the dens."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    b_table = b._table
    table = {}
    for i, row in a._table.items():
        acc = {}
        for k, x in row.items():
            b_row = b_table.get(k)
            if b_row is not None:
                for j, y in b_row.items():
                    acc[j] = acc.get(j, 0) + x * y
        acc = {j: v for j, v in acc.items() if v}
        if acc:
            table[i] = acc
    return Matrix._reduced(a.rows, b.cols, table, a.den * b.den)


class _Eliminator:
    """The rows of a matrix as sparse integer rows, under row operations.

    ``rows[i]`` maps column -> nonzero int for every nonzero row i, and
    ``holders[c]`` is the set of rows with a nonzero entry in column c.  The
    rows enter as the matrix's integer table, which drops the common
    denominator; a row is divided by the gcd of its entries only once
    ``clear`` updates it.  Neither changes the row space.  Rows are replaced,
    never changed in place, so the table is shared.  Rows in ``skip``, or
    outside ``keep`` when it is given, never enter.
    """

    def __init__(self, m: Matrix, skip=(), keep=None):
        self.rows = rows = {}
        self.holders = holders = {}
        table = m._table
        for i, row in table.items() if keep is None else (
                (i, table[i]) for i in keep if i in table):
            if i in skip:
                continue
            rows[i] = row
            for j in row:
                held = holders.get(j)
                if held is None:
                    holders[j] = {i}
                else:
                    held.add(i)

    def drop(self, i: int) -> None:
        """Take row i out of the elimination."""
        for j in self.rows.pop(i):
            self.holders[j].discard(i)

    def clear(self, pivot_row: dict, col: int, targets) -> None:
        """Make column col zero in every target row using pivot_row.

        Only the pivot row's columns can enter or leave a target row, so
        only their holders change.
        """
        p = pivot_row[col]
        holders = self.holders
        for i in targets:
            row = self.rows[i]
            a = row[col]
            g = gcd(p, a)
            keep, take = p // g, a // g
            new = dict(row) if keep == 1 else {j: keep * x for j, x in row.items()}
            for j, x in pivot_row.items():
                old = new.get(j)
                if old is None:
                    new[j] = -take * x
                    holders[j].add(i)
                    continue
                value = old - take * x
                if value:
                    new[j] = value
                else:
                    del new[j]
                    holders[j].discard(i)
            if col in new:
                raise EliminationError(
                    f"row {i} kept a nonzero in pivot column {col}")
            if new:
                self.rows[i] = _primitive(new)
            else:
                del self.rows[i]


def _primitive(row: dict) -> dict:
    content = gcd(*row.values())
    if content == 1:
        return row
    return {j: x // content for j, x in row.items()}


# What ``rank`` did: its rank, and its (row, column) pivots in removal order.
Elimination = namedtuple("Elimination", "rank pivots")


def rank(m: Matrix, skip=()) -> Elimination:
    """Exact rank over the rationals by sparse fraction-free elimination.

    A structural pass comes first (``_structural``): rows with one entry and
    columns with one nonzero are pivots that need no arithmetic, and taking
    them cascades.  Each later step takes the shortest remaining row, and in
    it the column with the fewest other nonzeros, preferring an entry of
    +-1, so that few rows are touched and the rows that are touched gain few
    new entries.  Rows in ``skip`` never enter.  Each step leaves its pivot
    column zero in every remaining row, so the pivot rows are triangular on
    the pivot columns in the order they are removed: they span the row
    space, which projects isomorphically onto those coordinates.  The
    ``Elimination`` holds the (row, column) pivots in that order, and the
    rank is their number.
    """
    pivots = tuple(_pivots(_Eliminator(m, skip)))
    return Elimination(len(pivots), pivots)


def _structural(work: _Eliminator):
    """Yield the (row, column) pivots that need no arithmetic, removing their rows.

    A row with one entry, at column j, is a multiple of e_j: it is a pivot
    on j, and j is deleted from every other row that holds it, which
    subtracts a multiple of that row.  Deleting shrinks rows, so this
    cascades until no row has one entry.  It leaves every other column's
    holders as they were, so the free columns are taken after it: a column
    held by one row makes that row a pivot on it, and the row leaves with
    nothing to clear.  Its leaving can leave another column with one
    holder, and never a row with one entry.  Either way the pivot column is
    zero in every row that remains.
    """
    rows, holders = work.rows, work.holders
    singles = [i for i, row in rows.items() if len(row) == 1]
    while singles:
        i = singles.pop()
        row = rows.pop(i, None)
        if row is None:
            continue            # a multiple of an earlier singleton, deleted
        (col,) = row
        held = holders[col]
        for t in held:
            if t in rows:
                new = dict(rows[t])
                del new[col]
                if new:
                    rows[t] = new
                    if len(new) == 1:
                        singles.append(t)
                else:
                    del rows[t]
        held.clear()
        yield i, col
    free = [j for j, held in holders.items() if len(held) == 1]
    while free:
        col = free.pop()
        held = holders[col]
        if len(held) != 1:
            continue            # its one holder left as another column's pivot
        (i,) = held
        row = rows[i]
        work.drop(i)
        free += [j for j in row if len(holders[j]) == 1]
        yield i, col


def _pivots(work: _Eliminator):
    """Yield the (row, column) pivot of each step of ``rank``'s elimination."""
    yield from _structural(work)
    holders = work.holders
    queue = [(len(row), i) for i, row in work.rows.items()]
    heapify(queue)
    while queue:
        length, i = heappop(queue)
        row = work.rows.get(i)
        if row is None or len(row) != length:
            continue            # a stale entry: the row was updated or used
        col = min(row, key=lambda j: (abs(row[j]) != 1, len(holders[j]), j))
        work.drop(i)
        targets = list(holders[col])
        work.clear(row, col, targets)
        for t in targets:
            if t in work.rows:
                heappush(queue, (len(work.rows[t]), t))
        yield i, col


def kernel_dim(m: Matrix) -> int:
    """Dimension of the right kernel: cols - rank."""
    return m.cols - rank(m).rank


def nullspace(m: Matrix, keep=None) -> list[tuple[Fraction, ...]]:
    """A basis of the right kernel {v : m v = 0}, one vector per free column.

    The vector for free column f has a 1 at f, zeros at the other free
    columns and minus the reduced row echelon entries at the pivot columns.
    With ``keep``, only those rows are reduced: rows that span the row space
    give the same basis.
    """
    work = _Eliminator(m, keep=keep)
    pivots = []             # (column, row index), in column order
    used = set()
    for c in range(m.cols):
        holders = work.holders.get(c, ())
        candidates = [k for k in holders if k not in used]
        if not candidates:
            continue
        i = min(candidates, key=lambda k: (len(work.rows[k]), k))
        work.clear(work.rows[i], c, [k for k in holders if k != i])
        pivots.append((c, i))
        used.add(i)
    pivot_cols = {c for c, _ in pivots}
    basis = []
    for f in range(m.cols):
        if f in pivot_cols:
            continue
        v = [ZERO] * m.cols
        v[f] = ONE
        for c, i in pivots:
            row = work.rows[i]
            if f in row:
                v[c] = Fraction(-row[f], row[c])
        basis.append(tuple(v))
    return basis
