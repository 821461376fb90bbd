"""The one signed sort and the one pair-cochain arithmetic of derpair.cochains.

``_insert`` is checked against an inversion count, and the arithmetic of
``DerCochain`` and ``CompatCochain`` against coordinate-by-coordinate sums.
"""

import itertools
import random
from fractions import Fraction

import pytest

from derpair.cochains import (AltMap, CompatCochain, DerCochain, MultiMap, _insert,
                              dense_coords)
from derpair.errors import ShapeError
from derpair.linalg import Space

import gen
from oracles import _perm_sign


def _sorted_with_sign(t):
    # the oracle: the sorted tuple and the parity of its inversions, or None
    # on a repeated index
    if len(set(t)) != len(t):
        return None
    return tuple(sorted(t)), _perm_sign(t)


def test_insert_matches_an_inversion_count_on_seeded_tuples():
    rng = random.Random(1601)
    cases = [((), ()), ((), (3,)), ((2,), ()), ((0, 4), (4,)), ((), (1, 1)),
             ((), (5, 3, 1, 0)), ((1, 3), (2, 0, 4))]
    for _ in range(600):
        d = rng.randint(1, 9)
        key = tuple(sorted(rng.sample(range(d), rng.randint(0, min(d, 4)))))
        # extra in any order, repeats within it and with key included
        extra = tuple(rng.randrange(d) for _ in range(rng.randint(0, 5)))
        cases.append((key, extra))
    for key, extra in cases:
        assert _insert(key, extra) == _sorted_with_sign(key + extra), (key, extra)


def test_insert_sorts_every_permutation_from_an_empty_key():
    for k in range(6):
        for perm in itertools.permutations(range(k)):
            assert _insert((), perm) == (tuple(range(k)), _perm_sign(perm))


def _pair(rng, cls, space, degree, flavor):
    rand = gen.rand_multimap if flavor == "multi" else gen.rand_altmap

    def der():
        return DerCochain(rand(rng, space, degree),
                          rand(rng, space, degree - 1) if degree > 1 else None)

    return der() if cls is DerCochain else CompatCochain([der() for _ in range(degree)])


@pytest.mark.parametrize("flavor", ["multi", "alt"])
@pytest.mark.parametrize("cls", [DerCochain, CompatCochain])
def test_pair_arithmetic_agrees_with_coordinates(cls, flavor):
    rng = random.Random(1602)
    space = Space.of_dim(3)
    for _ in range(25):
        degree = rng.randint(1, 3)
        a, b = (_pair(rng, cls, space, degree, flavor) for _ in range(2))
        x, y = dense_coords(a), dense_coords(b)
        c = rng.choice((0, 1, -1, 2, Fraction(-2, 3)))
        for value, expected in ((a + b, [s + t for s, t in zip(x, y)]),
                                (a - b, [s - t for s, t in zip(x, y)]),
                                (a.scale(c), [c * s for s in x]),
                                (c * a, [c * s for s in x])):
            assert type(value) is cls and value.degree == degree
            assert dense_coords(value) == expected
        assert (a - a).is_zero() and a - b + b == a
        copy = cls.from_coords(space, degree, flavor, x)
        assert copy == a and hash(copy) == hash(a)
        assert (a == b) == (x == y)
        assert len({a, copy, a.scale(1)}) == 1


@pytest.mark.parametrize("cls", [DerCochain, CompatCochain])
def test_pair_arithmetic_refuses_unlike_operands(cls):
    rng = random.Random(1603)
    space = Space.of_dim(2)
    a = _pair(rng, cls, space, 2, "multi")
    for other in (_pair(rng, cls, space, 1, "multi"), _pair(rng, cls, space, 2, "alt"),
                  _pair(rng, cls, Space.of_dim(3), 2, "multi")):
        for op in (a.__add__, a.__sub__):
            with pytest.raises(ShapeError):
                op(other)
    other_class = CompatCochain if cls is DerCochain else DerCochain
    for other in (_pair(rng, other_class, space, 2, "multi"), MultiMap.zero(space, 2),
                  AltMap.zero(space, 2), 0):
        assert a != other
        with pytest.raises(TypeError):
            a + other
        with pytest.raises(TypeError):
            a - other
