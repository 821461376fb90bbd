import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derpair import cohomology as co
from derpair.cochains import MultiMap, dense_coords, sparse_coords
from derpair.errors import SchemaError, ShapeError
from derpair.linalg import (Matrix, Space, _Eliminator, _structural, as_scalar,
                            compose, format_scalar, kernel_dim, nullspace,
                            parse_scalar, rank)
from derpair.structures import Presentation

import gen
from oracles import compose_oracle, degree0_oracle, nullspace_oracle, rank_oracle


def test_rank_identity():
    assert rank(Matrix.identity(3)).rank == 3


def test_rank_zero():
    assert rank(Matrix.zero(2, 3)).rank == 0


def test_rank_dependent_rows():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    assert rank(m).rank == 1


def test_kernel_dims():
    assert kernel_dim(Matrix.identity(3)) == 0
    assert kernel_dim(Matrix.zero(2, 3)) == 3
    assert kernel_dim(Matrix.from_rows([[1, 2], [2, 4]])) == 1


def test_compose_identity_and_zero():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert compose(Matrix.identity(2), m) == m
    assert compose(Matrix.zero(2, 2), m) == Matrix.zero(2, 2)


def test_compose_nilpotent():
    n = Matrix.from_rows([[0, 1], [0, 0]])
    assert compose(n, n) == Matrix.zero(2, 2)


def test_compose_shape_error():
    with pytest.raises(ShapeError):
        compose(Matrix.zero(2, 3), Matrix.zero(2, 3))


def test_rank_with_fractions():
    singular = Matrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                                 [Fraction(3, 2), Fraction(1, 1)]])
    assert rank(singular).rank == 1
    regular = Matrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                                [Fraction(1, 5), Fraction(1, 7)]])
    assert rank(regular).rank == 2


def test_nullspace_members():
    rng = random.Random(101)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = Matrix.from_rows([[rng.randint(-4, 4) for _ in range(cols)]
                              for _ in range(rows)])
        basis = nullspace(m)
        assert len(basis) == kernel_dim(m)
        for vec in basis:
            image = [sum(m.entry(i, j) * vec[j] for j in range(cols))
                     for i in range(rows)]
            assert all(x == 0 for x in image)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 20), st.integers(1, 20), st.randoms(use_true_random=False))
def test_rank_equals_rank_of_transpose(rows, cols, rnd):
    m = Matrix.from_rows([[rnd.randint(-5, 5) for _ in range(cols)]
                          for _ in range(rows)])
    assert rank(m).rank == rank(m.transpose()).rank


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 12), st.integers(1, 12), st.randoms(use_true_random=False))
def test_rank_nullity(rows, cols, rnd):
    m = Matrix.from_rows([[rnd.randint(-3, 3) for _ in range(cols)]
                          for _ in range(rows)])
    assert rank(m).rank + kernel_dim(m) == cols


_rationals = st.builds(Fraction, st.integers(-50, 50),
                       st.integers(1, 30))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_rationals, _rationals, _rationals)
def test_scalar_field_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    if a != 0:
        assert a * (1 / a) == 1
    # canonical form: positive denominator and lowest terms
    from math import gcd
    assert a.denominator > 0
    assert a == 0 or gcd(abs(a.numerator), a.denominator) == 1


def test_scalar_parse_and_format():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-7") == Fraction(-7)
    assert format_scalar(Fraction(3, 4)) == "3/4"
    assert format_scalar(Fraction(5, 1)) == "5"
    assert parse_scalar(format_scalar(Fraction(-22, 8))) == Fraction(-11, 4)
    with pytest.raises(SchemaError):
        parse_scalar("0.5x")
    with pytest.raises(SchemaError):
        parse_scalar("1/0")
    # only an optional sign, ASCII digits and an optional "/digits", around
    # which whitespace is stripped; Fraction(str) alone would take the rest
    assert parse_scalar(" +3/6\n") == Fraction(1, 2)
    for text in ("1.5", "1e3", "1_000", "\u0663", "1/2/3", "3/-4", "", " ", "0x10",
                 "1e10000000", "1" * 5000, "1/" + "1" * 5000):
        with pytest.raises(SchemaError):
            parse_scalar(text)


def test_space_validation():
    with pytest.raises(SchemaError):
        Space.of_dim(0)
    with pytest.raises(SchemaError):
        Space(2, ("a", "a"))
    with pytest.raises(SchemaError):
        Space.of_dim(2)._replace(dimension=3)
    # labels given as a list are stored as a tuple: hashable, and equal to the
    # same space built by of_dim, so maps over the two add
    listed = Space(2, ["a", "b"])
    assert listed.labels == ("a", "b") and hash(listed) == hash(Space.of_dim(2, ["a", "b"]))
    assert listed == Space.of_dim(2, ["a", "b"])
    assert MultiMap.identity(listed) + MultiMap.identity(Space.of_dim(2, ["a", "b"])) \
        == MultiMap.identity(listed).scale(2)
    space = Space.of_dim(3)
    assert space.labels == ("e1", "e2", "e3")
    assert space.basis_vector(1) == (0, 1, 0)


# -- the sparse matrix against its dense views ---------------------------------------

def test_sparse_columns_agree_with_dense_entries():
    rng = random.Random(303)
    values = (0, 0, 0, 1, -1, 2, Fraction(-3, 5))
    for _ in range(80):
        rows, cols = rng.randint(1, 7), rng.randint(0, 7)
        dense = [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]
        # columns list every nonzero and, at random, some explicit zeros
        columns = [{i: dense[i][j] for i in range(rows)
                    if dense[i][j] or rng.random() < 0.3} for j in range(cols)]
        sparse = Matrix.from_columns(rows, columns)
        flat = Matrix(rows, cols, tuple(x for row in dense for x in row))
        assert sparse == flat
        assert sparse.entries == flat.entries == tuple(x for row in dense for x in row)
        for i in range(rows):
            assert sparse.row(i) == flat.row(i) == tuple(dense[i])
            for j in range(cols):
                assert sparse.entry(i, j) == flat.entry(i, j) == dense[i][j]
        assert sparse.transpose() == flat.transpose()
        assert sparse.transpose().entries == tuple(dense[i][j] for j in range(cols)
                                                   for i in range(rows))
        assert sparse.is_zero() == flat.is_zero() == all(
            x == 0 for row in dense for x in row)
        inner = rng.randint(1, 5)
        right = Matrix.from_rows([[rng.choice(values) for _ in range(inner)]
                                  for _ in range(cols)]) if cols else Matrix.zero(0, inner)
        product = compose(sparse, right)
        assert product == compose(flat, right)
        assert product.entries == tuple(
            sum((dense[i][k] * right.entry(k, j) for k in range(cols)), Fraction(0))
            for i in range(rows) for j in range(inner))


def _built_every_way(rng):
    """One random rational matrix, built by each constructor and product."""
    m = _scaled_matrix(rng)
    dense = [list(m.row(i)) for i in range(m.rows)]
    yield Matrix(m.rows, m.cols, tuple(x for row in dense for x in row))
    yield Matrix.from_rows(dense)
    yield Matrix.from_columns(m.rows, [{i: dense[i][j] for i in range(m.rows)}
                                       for j in range(m.cols)])
    yield compose(Matrix.identity(m.rows), m)
    yield compose(m, Matrix.identity(m.cols))
    yield m.transpose().transpose()


def test_matrix_has_one_canonical_form():
    rng = random.Random(2315)
    for _ in range(60):
        first, *others = _built_every_way(rng)
        for other in others:
            assert other == first and hash(other) == hash(first)
            assert (other.den, other._table) == (first.den, first._table)
        assert first.den >= 1
        values = [x for row in first._table.values() for x in row.values()]
        assert all(type(x) is int and x for x in values)
        assert math.gcd(first.den, *values) == 1
        i, j = rng.randrange(first.rows), rng.randrange(first.cols)
        assert type(first.entry(i, j)) is Fraction
        assert all(type(x) is Fraction for x in first.entries)
    half = Matrix.from_rows([[Fraction(1, 2), 1], [0, Fraction(-3, 2)]])
    assert (half.den, half._table) == (2, {0: {0: 1, 1: 2}, 1: {1: -3}})
    assert compose(half, half) == Matrix.from_rows([[Fraction(1, 4), Fraction(-1)],
                                                    [0, Fraction(9, 4)]])
    # a product whose denominators cancel is brought back to den 1
    assert compose(half, Matrix.from_rows([[2, 0], [0, 2]])) == Matrix.from_rows(
        [[1, 2], [0, -3]])


def test_matrix_hash_needs_no_dense_expansion(monkeypatch):
    columns = [{} for _ in range(10000)]
    for k in range(10):
        columns[k * 997][k * 9973] = Fraction(k + 1, 3)
    m = Matrix.from_columns(100000, columns)

    def dense(*args):
        raise AssertionError("dense expansion")

    monkeypatch.setattr(Matrix, "entries", property(dense))
    monkeypatch.setattr(Matrix, "row", dense)
    twin = Matrix.from_columns(100000, columns)
    assert hash(m) == hash(twin) and m == twin
    assert hash(m) != hash(m.transpose())


def test_from_columns_rejects_row_index_out_of_range():
    with pytest.raises(ShapeError):
        Matrix.from_columns(2, [{2: 1}])
    with pytest.raises(ShapeError):
        Matrix.from_columns(2, [{-1: 1}])


def test_every_constructor_rejects_a_negative_size():
    # (-2)(-3) = 6 entries once passed the entry count check
    for build in (lambda: Matrix(-2, -3, [0] * 6), lambda: Matrix(-1, 0, []),
                  lambda: Matrix(0, -1, []), lambda: Matrix.zero(-1, 4),
                  lambda: Matrix.zero(4, -1), lambda: Matrix.identity(-3),
                  lambda: Matrix.from_columns(-1, [])):
        with pytest.raises(ShapeError):
            build()
    # empty shapes stay valid
    assert Matrix(0, 3, []).is_zero() and Matrix.zero(3, 0).is_zero()
    assert Matrix.identity(0) == Matrix.from_columns(0, []) == Matrix.from_rows([])


def test_constructors_and_dense_views_reject_bad_shapes_and_indices():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    cases = [(r"entry count must equal rows\*cols", lambda: Matrix(2, 2, [1, 2, 3])),
             ("ragged rows", lambda: Matrix.from_rows([[1, 2], [3]])),
             (r"entry \(2, 0\) out of range", lambda: m.entry(2, 0)),
             (r"entry \(0, -1\) out of range", lambda: m.entry(0, -1)),
             ("row 2 out of range", lambda: m.row(2)),
             ("row -1 out of range", lambda: m.row(-1))]
    for message, call in cases:
        with pytest.raises(ShapeError, match=message):
            call()


# -- the sparse eliminator against the dense oracles ------------------------------------

def _random_matrix(rng):
    """1-30 rows and columns, density 0.05-1, some rows combinations of others."""
    rows, cols = rng.randint(1, 30), rng.randint(1, 30)
    density = rng.uniform(0.05, 1)
    rational = rng.random() < 0.5

    def scalar(bound):
        value = rng.randint(-bound, bound)
        return Fraction(value, rng.randint(1, 6)) if rational else value

    independent = rng.randint(1, rows)
    table = [[scalar(9) if rng.random() < density else 0 for _ in range(cols)]
             for _ in range(independent)]
    while len(table) < rows:
        a, b = rng.choice(table), rng.choice(table)
        x, y = scalar(3), scalar(3)
        table.append([x * u + y * v for u, v in zip(a, b)])
    rng.shuffle(table)
    return Matrix.from_rows(table)


def _assert_matches_oracles(m):
    assert rank(m).rank == rank_oracle(m)
    # equal entries, each an int when integral and a Fraction otherwise
    assert repr(nullspace(m)) == repr([tuple(map(as_scalar, v)) for v in nullspace_oracle(m)])


def _scaled_matrix(rng):
    """A random matrix: integral, over one denominator, or per-row denominators.

    With per-row denominators the common one shares factors with some rows
    and not with others.
    """
    m = _random_matrix(rng)
    mode = rng.choice(("integral", "one", "rows"))
    if mode == "integral":
        return Matrix.from_rows([[x * x.denominator for x in m.row(i)]
                                 for i in range(m.rows)])
    if mode == "one":
        q = Fraction(rng.choice((2, 3, 4, 6, 9)), rng.choice((1, 5, 7)))
        return Matrix.from_rows([[x / q for x in m.row(i)] for i in range(m.rows)])
    return Matrix.from_rows([[x * Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2, 4, 15)))
                              for x in m.row(i)] for i in range(m.rows)])


def test_sparse_rank_and_kernel_match_dense_oracles_randomized():
    rng = random.Random(2311)
    for _ in range(250):
        m = _random_matrix(rng)
        _assert_matches_oracles(m)
        _assert_matches_oracles(m.transpose())
    rng = random.Random(2313)
    for _ in range(60):
        m = _scaled_matrix(rng)
        _assert_matches_oracles(m)
        _assert_matches_oracles(m.transpose())


def _columns(record):
    return {col for _, col in record.pivots}


def _assert_pivots_hold(m, skip):
    kept = [m.row(i) for i in range(m.rows) if i not in skip]
    record = rank(m, skip)
    pivots = _columns(record)
    assert record.rank == len(pivots) == rank_oracle(Matrix.from_rows(kept))
    # the kept rows on the pivot columns alone keep their rank
    on_pivots = Matrix(len(kept), len(pivots),
                       tuple(row[j] for row in kept for j in sorted(pivots)))
    assert rank_oracle(on_pivots) == len(pivots)
    # the rows of m at the pivots of its transpose span its row space
    assert nullspace(m, _columns(rank(m.transpose()))) == nullspace(m)


def _random_skip(rng, m):
    return set(rng.sample(range(m.rows), rng.randint(0, m.rows - 1)))


def test_pivot_columns_are_independent_on_the_rows_taken():
    rng = random.Random(2315)
    for k in range(160):
        m = _random_matrix(rng) if k % 2 else _scaled_matrix(rng)
        _assert_pivots_hold(m, _random_skip(rng, m) if k % 4 else ())


def _planted_matrix(rng):
    """A sparse random matrix with the shapes the structural pass takes.

    Planted: free columns (one nonzero), singleton rows, zero rows, repeated
    rows (scaled copies), and a staircase of two-entry rows whose one end is
    a singleton row or a free column, so that the pass cascades along it.
    """
    rows, cols = rng.randint(2, 24), rng.randint(2, 24)
    density = rng.uniform(0.05, 0.4)
    table = [[rng.choice((-2, -1, 1, 1, 3)) if rng.random() < density else 0
              for _ in range(cols)] for _ in range(rows)]
    for j in rng.sample(range(cols), rng.randint(0, cols // 3)):
        keeper = rng.randrange(rows)
        for i, row in enumerate(table):
            row[j] = 0 if i != keeper else row[j] or rng.choice((-1, 2))
    for i in rng.sample(range(rows), rng.randint(0, rows // 3)):
        table[i] = [0] * cols
        table[i][rng.randrange(cols)] = rng.choice((1, -1, 4))
    length = rng.randint(2, min(rows, cols))
    steps = rng.sample(range(cols), length)
    stairs = [[0] * cols for _ in range(length)]
    for k in range(length - 1):
        stairs[k][steps[k]] = rng.choice((1, -1, 2))
        stairs[k][steps[k + 1]] = rng.choice((1, -3))
    stairs[-1][steps[-1]] = 1                       # the singleton end
    if rng.random() < 0.5:
        # drop the singleton: now the first step column has one holder
        stairs.pop()
        for row in table:
            row[steps[0]] = 0
    table += stairs
    table += [[0] * cols for _ in range(rng.randint(0, 3))]
    for _ in range(rng.randint(0, 4)):
        scale = rng.choice((1, -1, 2, Fraction(1, 3)))
        table.append([scale * x for x in rng.choice(table)])
    rng.shuffle(table)
    return Matrix.from_rows(table)


def test_structural_pivots_match_the_dense_oracles():
    rng = random.Random(2316)
    for k in range(200):
        m = _planted_matrix(rng)
        _assert_pivots_hold(m, _random_skip(rng, m) if k % 2 else ())
        _assert_pivots_hold(m.transpose(), ())
        if k % 4 == 0:
            _assert_matches_oracles(m)


def test_recorded_pivots_are_a_nonsingular_minor_of_the_rows_taken():
    # the pairs rank records hold distinct rows outside skip and distinct
    # columns, as many as the rank of the rows taken; the minor at those rows
    # and columns is nonsingular, a lower bound on the rank that owes nothing
    # to the eliminator
    rng = random.Random(2317)
    for k in range(240):
        m = (_random_matrix, _scaled_matrix, _planted_matrix)[k % 3](rng)
        if k % 2:
            m = m.transpose()
        skip = _random_skip(rng, m) if k % 4 else set()
        record = rank(m, skip)
        rows = [i for i, _ in record.pivots]
        cols = [j for _, j in record.pivots]
        assert len(set(rows)) == len(rows) and not skip & set(rows)
        assert len(set(cols)) == len(cols)
        kept = [m.row(i) for i in range(m.rows) if i not in skip]
        assert record.rank == len(rows) == rank_oracle(Matrix.from_rows(kept))
        minor = Matrix(len(rows), len(cols), tuple(m.entry(i, j) for i in rows for j in cols))
        assert rank_oracle(minor) == len(rows)


def test_structural_pass_cascades_without_arithmetic(monkeypatch):
    # rows e_j - 2 e_{j+1}: no row has one entry, but the first column has
    # one holder, and taking it leaves the next column with one; the
    # transpose starts from a singleton row instead.  The pass alone ranks
    # both, and clears nothing.
    monkeypatch.setattr(_Eliminator, "clear", None)
    n = 40
    stairs = Matrix.from_rows([[1 if j == i else -2 if j == i + 1 else 0
                                for j in range(n)] for i in range(n - 1)])
    for m in (stairs, stairs.transpose()):
        record = rank(m, ())
        assert record.rank == len(_columns(record)) == n - 1
    # a dependent row stays: the pass stops with no singleton row and no
    # free column, and leaves the rest to the Markowitz loop
    square = Matrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 0]])
    work = _Eliminator(square)
    assert list(_structural(work)) == []
    assert len(work.rows) == 4


def test_markowitz_pivots_are_units_of_the_sparsest_column(monkeypatch):
    # each Markowitz step pivots on a +-1 entry whenever its row holds one,
    # and among those (or among all entries, without one) on a column with
    # the fewest holders, the lowest such column.  The loop's clear sees the
    # holders after the pivot row left them, one fewer in each of its columns.
    steps = []
    clear = _Eliminator.clear

    def record(work, pivot_row, col, targets):
        units = [j for j, x in pivot_row.items() if abs(x) == 1]
        candidates = units or list(pivot_row)
        fewest = min(len(work.holders[j]) for j in candidates)
        steps.append(col == min(j for j in candidates if len(work.holders[j]) == fewest))
        clear(work, pivot_row, col, targets)

    rng = random.Random(2318)
    matrices = [(_random_matrix, _scaled_matrix, _planted_matrix)[k % 3](rng)
                for k in range(150)]
    matrices += [m.transpose() for m in matrices[::2]]
    # built before the patch, as nullspace clears too
    matrices += [co._Complex(flavor, p).images(2, {})
                 for flavor, p in _catalog_complexes(random.Random(2312))
                 if p.space.dimension == 2]
    monkeypatch.setattr(_Eliminator, "clear", record)
    for m in matrices:
        rank(m)
    assert len(steps) > 500 and all(steps)


def test_compose_matches_dense_oracle_randomized():
    # random products, and products with a kernel basis, which must vanish
    rng = random.Random(2312)
    for _ in range(150):
        a = _random_matrix(rng)
        cols, density = rng.randint(1, 12), rng.uniform(0.05, 1)
        b = Matrix.from_rows(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
              if rng.random() < density else 0 for _ in range(cols)]
             for _ in range(a.cols)])
        assert compose(a, b) == compose_oracle(a, b)
        kernel = nullspace(a)
        if kernel:
            k = Matrix.from_columns(a.cols, [dict(enumerate(v)) for v in kernel])
            assert compose(a, k).is_zero()
            assert compose(a, k) == compose_oracle(a, k)
            # after the zero rows, a first nonzero product row comes last
            row = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(a.cols)]
            last = Matrix.from_rows([list(a.row(i)) for i in range(a.rows)] + [row])
            assert compose(last, k) == compose_oracle(last, k)
    rng = random.Random(2314)
    for _ in range(60):
        a, b = _scaled_matrix(rng), _scaled_matrix(rng)
        b = Matrix.from_rows([[b.entry(k % b.rows, j) for j in range(b.cols)]
                              for k in range(a.cols)])
        assert compose(a, b) == compose_oracle(a, b)


def test_compose_edge_cases():
    big = 2 ** 70
    cases = [
        # rows whose products cancel, then a first nonzero in the last row
        (Matrix.from_rows([[1, 1], [2, 2]]), Matrix.from_rows([[1, -1], [-1, 1]]), True),
        (Matrix.from_rows([[1, 1], [1, 1], [1, 2]]), Matrix.from_rows([[1, -1], [-1, 1]]),
         False),
        # entries past 2**64 that cancel only exactly
        (Matrix.from_rows([[big, big + 1]]), Matrix.from_rows([[big + 1], [-big]]), True),
        (Matrix.from_rows([[big, big + 1]]), Matrix.from_rows([[big + 1], [1 - big]]), False),
        # den > 1 on either side
        (Matrix.from_rows([[Fraction(1, 2), Fraction(1, 3)]]), Matrix.from_rows([[2], [-3]]),
         True),
        (Matrix.from_rows([[Fraction(1, 2), Fraction(1, 3)]]),
         Matrix.from_rows([[Fraction(2, 7)], [Fraction(-3, 5)]]), False),
        # empty tables and 0 x n shapes
        (Matrix.zero(3, 4), Matrix.from_rows([[1] * 5] * 4), True),
        (Matrix.from_rows([[1] * 4] * 3), Matrix.zero(4, 5), True),
        (Matrix.zero(0, 4), Matrix.zero(4, 2), True),
        (Matrix.zero(3, 0), Matrix.zero(0, 2), True),
        (Matrix.identity(3), Matrix.zero(3, 0), True),
    ]
    # a wide b and short rows: each product row is read back at the columns
    # of every row of b it reached, not only of the last one
    first, second = [0] * 400, [0] * 400
    first[5], first[7], second[7] = 1, 1, -1
    wide = Matrix.from_rows([first, second])
    cases += [(Matrix.from_rows([[1, 1]]), wide, False),
              (Matrix.from_rows([[0, 0], [1, 1], [2, 2]]), wide, False)]
    for a, b, zero in cases:
        assert compose(a, b) == compose_oracle(a, b)
        assert compose(a, b).is_zero() == zero


def test_compose_of_a_wide_sparse_matrix_is_sparse_until_it_reaches_b():
    # the accumulator, one int per column of b, is made only once a row of a
    # reaches a row of b: a zero product with a wide b allocates next to nothing
    width = 10 ** 6
    b = Matrix.from_columns(width, [{}, {5: 3}]).transpose()     # 2 x width, row 1 = 3 e_5
    tracemalloc.start()
    try:
        assert compose(Matrix.from_rows([[1, 0]]), b) == Matrix.zero(1, width)
        assert compose(Matrix.zero(4, 2), b) == Matrix.zero(4, width)
        assert tracemalloc.get_traced_memory()[1] < width
    finally:
        tracemalloc.stop()
    product = compose(Matrix.from_rows([[0, 2]]), b)
    assert (product.rows, product.cols, product._table) == (1, width, {0: {5: 6}})


def _catalog_complexes(rng):
    P = Presentation
    for mu in gen.ASSOCIATIVE_CATALOG:
        yield "hochschild", P(mu.space, {"mu": mu}, {}, "associative")
    yield from (("assder", p) for p in gen.der_pair_instances(
        rng, 4, gen.ASSOCIATIVE_CATALOG, "assder", "mu"))
    for _ in range(4):
        m1, m2 = gen.compatible_assoc_products(rng)
        yield "compatible-associative", gen.conjugate_presentation(
            rng, P(m1.space, {"mu1": m1, "mu2": m2}, {}, "compatible-associative"))
    yield from (("cad", p) for p in gen.compatible_assder_instances(rng, 3))
    for br in gen.LIE_CATALOG:
        yield "chevalley-eilenberg", P(br.space, {"bracket": br}, {}, "lie")
    yield from (("lieder", p) for p in gen.der_pair_instances(
        rng, 4, gen.LIE_CATALOG, "lieder", "bracket"))
    yield from (("cldp", p) for p in gen.compatible_lieder_instances(rng, 3))


def _degree0_basis(cx):
    """The degree-0 basis of a complex, by the dense oracles.

    Every basis vector; with a derivation, none; for the compatible complex,
    the kernel of the difference of the two products' d^0.
    """
    space = cx.space
    d = space.dimension
    if cx.with_derivation:
        return []
    vectors = [space.basis_vector(k) for k in range(d)]
    if not cx.compatible:
        return vectors
    mu1, mu2 = cx.maps
    columns = [[a - b for a, b in zip(degree0_oracle(mu1, e), degree0_oracle(mu2, e))]
               for e in vectors]
    return nullspace_oracle(Matrix(d * d, d, tuple(
        column[i] for i in range(d * d) for column in columns)))


def _degree0_images(cx):
    """The columns of D_0, dense, by the oracles: d^0 with the first product."""
    return [degree0_oracle(cx.maps[0], y) for y in _degree0_basis(cx)]


def test_coboundary_ranks_and_kernels_match_dense_oracles():
    rng = random.Random(2312)
    flavors = set()
    for flavor, p in _catalog_complexes(rng):
        cx = co._Complex(flavor, p)
        top = 3 if p.space.dimension == 2 else 2
        if flavor == "compatible-associative":
            assert co.compat_assoc_degree0(p) == _degree0_basis(cx)
        for n in range(top + 1):
            if n == 0:
                # D_0 as assembled, against d^0 written out densely
                m, dense = cx.images(0, {}).transpose(), _degree0_images(cx)
            else:
                images = [cx.d(n, b) for b in cx.basis(n)]
                m = Matrix.from_columns(cx.dim(n + 1), map(sparse_coords, images))
                dense = [dense_coords(image) for image in images]
            assert m == Matrix(m.rows, m.cols, tuple(
                column[i] for i in range(m.rows) for column in dense))
            _assert_matches_oracles(m)
        flavors.add(flavor)
    assert flavors == {"hochschild", "chevalley-eilenberg", "assder", "lieder",
                       "compatible-associative", "cad", "cldp"}
