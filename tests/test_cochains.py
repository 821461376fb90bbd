import itertools
import random
from fractions import Fraction

import pytest

from derpair import cochains
from derpair.cochains import (AltMap, CompatCochain, DerCochain, MultiMap,
                              circle_g, circle_nr, dense_coords, linear_combination,
                              sparse_coords)
from derpair.errors import SchemaError, ShapeError
from derpair.linalg import Space

import gen
from oracles import (alt_from_multimap_oracle, apply_oracle, circle_g_oracle,
                     circle_nr_oracle)

S2 = Space.of_dim(2)
S3 = Space.of_dim(3)


# -- evaluation ---------------------------------------------------------------

def test_multimap_eval_stored_and_absent():
    mu = gen.mm(S2, 2, [(0, 0, 1, 1)])
    assert mu.eval((0, 0)) == [0, Fraction(1)]
    assert mu.eval((1, 1)) == [0, 0]


def test_altmap_eval_signs_and_repeats():
    w = AltMap(S2, 2, {((0, 1), 0): Fraction(1)})
    assert w.eval((0, 1)) == [Fraction(1), 0]
    assert w.eval((1, 0)) == [Fraction(-1), 0]
    assert w.eval((0, 0)) == [0, 0]


def test_altmap_rejects_bad_keys():
    with pytest.raises(ShapeError):
        AltMap(S2, 2, {((1, 0), 0): Fraction(1)})


def test_eval_arity_mismatch():
    mu = gen.mm(S2, 2, [(0, 0, 1, 1)])
    with pytest.raises(ShapeError):
        mu.eval((0,))


def test_eval_rejects_an_out_of_range_index():
    mu = gen.mm(S2, 2, [(0, 0, 1, 1)])
    w = AltMap(S2, 2, {((0, 1), 0): Fraction(1)})
    for m, args in ((MultiMap.identity(S2), (5,)), (MultiMap.identity(S2), (-1,)),
                    (mu, (0, 2)), (w, (3, 7)), (w, (1, -1)), (w, (2, 2))):
        with pytest.raises(ShapeError):
            m.eval(args)


# -- insertion composition -----------------------------------------------------

def test_circle_g_identity_cases():
    mu = gen.mm(S2, 2, [(0, 0, 1, 1)])
    ident = MultiMap.identity(S2)
    assert circle_g(ident, mu) == mu
    # two insertion slots, both reproducing mu
    expected = circle_g_oracle(mu, ident)
    assert expected == mu.scale(2)
    assert circle_g(mu, ident) == expected


def test_circle_g_nilpotent_square():
    mu = gen.mm(S2, 2, [(0, 0, 1, 1)])
    square = circle_g(mu, mu)
    assert square == circle_g_oracle(mu, mu)
    assert square.eval((0, 0, 0)) == [0, 0]


def test_circle_g_matches_oracle_randomized():
    rng = random.Random(202)
    for _ in range(60):
        space = S2 if rng.random() < 0.5 else S3
        f = gen.rand_multimap(rng, space, rng.randint(1, 3))
        g = gen.rand_multimap(rng, space, rng.randint(1, 3))
        assert circle_g(f, g) == circle_g_oracle(f, g)


def test_circle_g_bilinear():
    rng = random.Random(2021)
    for _ in range(30):
        f = gen.rand_multimap(rng, S2, 2)
        g = gen.rand_multimap(rng, S2, 2)
        h = gen.rand_multimap(rng, S2, 2)
        c = Fraction(rng.randint(-3, 3))
        assert circle_g(f + g.scale(c), h) == circle_g(f, h) + circle_g(g, h).scale(c)
        assert circle_g(h, f + g.scale(c)) == circle_g(h, f) + circle_g(h, g).scale(c)


def test_circle_g_space_mismatch():
    with pytest.raises(ShapeError):
        circle_g(MultiMap.identity(S2), MultiMap.identity(S3))


# -- unshuffle composition -------------------------------------------------------

def test_circle_nr_identity_cases():
    w = AltMap(S2, 2, {((0, 1), 0): Fraction(1)})
    ident = AltMap.identity(S2)
    assert circle_nr(w, ident) == w.scale(2)
    assert circle_nr(ident, w) == w


def test_circle_nr_vanishing_in_low_dimension():
    w = AltMap(S2, 2, {((0, 1), 0): Fraction(1)})
    assert circle_nr(w, w).is_zero()    # arity 3 on a 2-dim space


def test_circle_nr_cyclic_sum_dim3():
    w = AltMap(S3, 2, {((0, 1), 2): Fraction(1)})
    value = circle_nr_oracle(w, w)
    assert value.eval((0, 1, 2)) == [0, 0, 0]
    assert circle_nr(w, w) == value


def test_circle_nr_matches_oracle_randomized():
    rng = random.Random(203)
    for _ in range(50):
        f = gen.rand_altmap(rng, S3, rng.randint(1, 3))
        g = gen.rand_altmap(rng, S3, rng.randint(1, 3))
        assert circle_nr(f, g) == circle_nr_oracle(f, g)


def test_circle_nr_bilinear_and_alternating():
    rng = random.Random(204)
    for _ in range(30):
        f = gen.rand_altmap(rng, S3, 2)
        g = gen.rand_altmap(rng, S3, 2)
        h = gen.rand_altmap(rng, S3, 1)
        c = Fraction(rng.randint(-3, 3))
        assert circle_nr(f + g.scale(c), h) == \
            circle_nr(f, h) + circle_nr(g, h).scale(c)
        out = circle_nr(f, g)
        args = (0, 1, 2)
        swapped = (1, 0, 2)
        assert out.eval(swapped) == [-x for x in out.eval(args)]
        assert out.eval((0, 0, 1)) == [0, 0, 0]


# -- sums ---------------------------------------------------------------------------

def test_linear_combination_matches_dense_sum_randomized():
    rng = random.Random(203)
    for _ in range(80):
        cls = rng.choice((MultiMap, AltMap))
        space = S2 if rng.random() < 0.5 else S3
        arity = rng.randint(1, 3 if cls is MultiMap else space.dimension)
        maps = [gen.rand_rational_map(rng, cls, space, arity, rng.random() < 0.5)
                for _ in range(rng.randint(1, 4))]
        factors = [rng.choice((1, -1, 0, Fraction(2, 3), -3)) for _ in maps]
        maps.append(maps[0])                 # so that some totals cancel
        factors.append(-factors[0])
        expected = [sum(c * x for c, x in zip(factors, column))
                    for column in zip(*map(dense_coords, maps))]
        result = linear_combination(list(zip(factors, maps)))
        assert type(result) is cls and result.arity == arity
        assert dense_coords(result) == expected
        assert all(result.coeffs.values())


def test_linear_combination_rejects_unlike_maps():
    f = gen.mm(S2, 2, [(0, 0, 1, 1)])
    for other in (MultiMap.zero(S2, 1), AltMap.zero(S2, 2), MultiMap.zero(S3, 2)):
        with pytest.raises(ShapeError):
            linear_combination([(1, f), (1, other)])


# -- coordinates ------------------------------------------------------------------

def test_from_multimap_matches_dense_oracle_randomized():
    # rational tables on every key (repeated indices included) or a fifth of
    # them, which are not alternating, and genuinely alternating tables
    rng = random.Random(1711)
    for space in (S2, S3):
        for arity in (1, 2, 3):
            tables = [gen.rand_rational_map(rng, MultiMap, space, arity, full)
                      for full in (False, True) for _ in range(4)]
            tables += [gen.rand_rational_map(rng, AltMap, space, arity, False)
                       .to_multimap() for _ in range(2)]
            for m in tables:
                assert AltMap.from_multimap(m) == alt_from_multimap_oracle(m)


def test_coord_lengths():
    assert MultiMap.coord_length(S2, 1) == 4
    assert AltMap.coord_length(S2, 2) == 2
    assert DerCochain.coord_length(S3, 2, "alt") == 9 + 9
    assert DerCochain.coord_length(S3, 1, "multi") == 9
    assert CompatCochain.coord_length(S2, 1, "alt") == 4
    assert CompatCochain.coord_length(S2, 2, "multi") == 2 * (8 + 4)
    assert CompatCochain.coord_length(S3, 3, "alt") == 3 * (3 + 9)


def test_coords_roundtrip_randomized():
    rng = random.Random(205)
    for _ in range(40):
        space = S2 if rng.random() < 0.5 else S3
        arity = rng.randint(1, 3)
        m = gen.rand_multimap(rng, space, arity)
        assert MultiMap.from_coords(space, arity, m.coords()) == m
        a = gen.rand_altmap(rng, space, arity)
        assert AltMap.from_coords(space, arity, a.coords()) == a
        degree = rng.randint(1, 3)
        for flavor, rand in (("alt", gen.rand_altmap), ("multi", gen.rand_multimap)):
            dc = DerCochain(
                rand(rng, space, degree),
                rand(rng, space, degree - 1) if degree > 1 else None)
            assert DerCochain.from_coords(space, degree, flavor, dc.coords()) == dc
            parts = [DerCochain(rand(rng, space, degree),
                                rand(rng, space, degree - 1)
                                if degree > 1 else None)
                     for _ in range(degree)]
            cc = CompatCochain(parts)
            back = CompatCochain.from_coords(space, degree, flavor, cc.coords())
            assert back == cc


def _enumerated_coords(cochain):
    # the coordinate order spelled out: index tuples in lexicographic order,
    # outputs innermost, top before shadow, parts left to right
    if isinstance(cochain, (MultiMap, AltMap)):
        d = cochain.space.dimension
        if isinstance(cochain, MultiMap):
            tuples = itertools.product(range(d), repeat=cochain.arity)
        else:
            tuples = itertools.combinations(range(d), cochain.arity)
        return [cochain.coeffs.get((args, out), 0) for args in tuples
                for out in range(d)]
    if isinstance(cochain, DerCochain):
        shadow = [] if cochain.shadow is None else _enumerated_coords(cochain.shadow)
        return _enumerated_coords(cochain.top) + shadow
    parts = cochain.parts if isinstance(cochain, CompatCochain) else cochain
    return [x for part in parts for x in _enumerated_coords(part)]


def test_sparse_coords_follow_the_coordinate_order():
    rng = random.Random(206)
    for _ in range(60):
        space = gen.S2 if rng.random() < 0.3 else Space.of_dim(rng.randint(3, 5))
        degree = rng.randint(1, 3)
        flavor = rng.choice(("multi", "alt"))
        rand = gen.rand_multimap if flavor == "multi" else gen.rand_altmap

        def der():
            return DerCochain(rand(rng, space, degree),
                              rand(rng, space, degree - 1) if degree > 1 else None)

        cochains = (rand(rng, space, degree), der(),
                    CompatCochain([der() for _ in range(degree)]),
                    tuple(gen.rand_multimap(rng, space, degree) for _ in range(degree)))
        for c in cochains:
            expected = _enumerated_coords(c)
            assert dense_coords(c) == expected
            assert sparse_coords(c) == {i: x for i, x in enumerate(expected) if x}
            if not isinstance(c, tuple):
                assert c.coords() == expected


def test_from_coords_length_mismatch():
    with pytest.raises(ShapeError):
        MultiMap.from_coords(S2, 1, [1, 2, 3])
    for wrong in (lambda: AltMap.from_coords(S2, 2, [1, 2, 3]),
                  lambda: DerCochain.from_coords(S2, 1, "multi", [1, 2, 3, 4, 5]),
                  lambda: DerCochain.from_coords(S2, 2, "alt", [1, 2]),  # no shadow
                  lambda: CompatCochain.from_coords(S2, 2, "multi", [1] * 12)):
        with pytest.raises(ShapeError):
            wrong()


@pytest.mark.parametrize("cls", [DerCochain, CompatCochain])
@pytest.mark.parametrize("flavor", ["bogus", "x", "", None, ["multi"],
                                    pytest.param("m" * 100, id="long")])
def test_pair_cochains_refuse_an_unknown_flavor(cls, flavor):
    # every shape method names both flavors and quotes the input, cut to a bound
    for call in (lambda: cls.zero(S2, 2, flavor),
                 lambda: cls.coord_length(S2, 2, flavor),
                 lambda: cls.from_coords(S2, 2, flavor, []),
                 lambda: cls.basis(S2, 2, flavor)):
        with pytest.raises(SchemaError) as info:
            call()
        message = str(info.value)
        assert '"multi"' in message and '"alt"' in message
        assert repr(flavor)[:60] in message and len(message) < 160


def test_basis_matches_coordinates():
    for arity in (1, 2):
        for index, b in enumerate(MultiMap.basis(S2, arity)):
            coords = b.coords()
            assert coords[index] == 1 and sum(map(abs, coords)) == 1
    for degree in (1, 2):
        for index, b in enumerate(DerCochain.basis(S3, degree, "alt")):
            coords = b.coords()
            assert coords[index] == 1 and sum(map(abs, coords)) == 1
    for index, b in enumerate(CompatCochain.basis(S2, 2, "multi")):
        coords = b.coords()
        assert coords[index] == 1 and sum(map(abs, coords)) == 1
    assert AltMap.identity(S3).coords() == [int(i % 4 == 0) for i in range(9)]


def test_der_cochain_shape_rules():
    top = gen.rand_multimap(random.Random(1), S2, 2)
    with pytest.raises(ShapeError):
        DerCochain(top, None)      # degree 2 needs a shadow
    with pytest.raises(ShapeError):
        DerCochain(top, gen.rand_altmap(random.Random(2), S2, 1))  # flavor mix
    with pytest.raises(ShapeError):
        CompatCochain([DerCochain(top, MultiMap.zero(S2, 1))] * 3)  # degree 2, 3 parts


# -- entry-driven kernels against the dense oracles ---------------------------------

def test_circle_nr_matches_oracle_all_dimensions_sparse_and_full():
    rng = random.Random(207)
    for d in range(1, 6):
        space = Space.of_dim(d)
        for full in (False, True):
            for m, n in itertools.product(range(1, 4), repeat=2):
                f = gen.rand_rational_map(rng, AltMap, space, m, full)
                g = gen.rand_rational_map(rng, AltMap, space, n, full)
                assert circle_nr(f, g) == circle_nr_oracle(f, g)


def test_apply_matches_dense_oracle_on_vectors_with_zeros():
    rng = random.Random(208)
    for d in range(1, 6):
        space = Space.of_dim(d)
        for cls in (MultiMap, AltMap):
            for full in (False, True):
                for arity in range(1, 4):
                    m = gen.rand_rational_map(rng, cls, space, arity, full)
                    for density in (0.0, 0.3, 0.7, 1.0):
                        vectors = [[gen.rand_rational(rng) if rng.random() < density
                                    else 0 for _ in range(d)]
                                   for _ in range(arity)]
                        assert m.apply(vectors) == apply_oracle(m, vectors)
                    basis = [space.basis_vector(rng.randrange(d))
                             for _ in range(arity)]
                    assert m.apply(basis) == apply_oracle(m, basis)


def test_apply_arity_mismatch():
    with pytest.raises(ShapeError):
        AltMap.identity(S2).apply([S2.basis_vector(0), S2.basis_vector(1)])


def test_apply_of_an_empty_map_builds_no_orderings(monkeypatch):
    # an AltMap entry is read once per signed ordering of its key, and there
    # are k! of them; an empty map has no entry to read
    def refuse(k):
        raise RuntimeError(f"built the {k}! signed orderings for an empty map")

    monkeypatch.setattr(cochains, "_signed_permutations", refuse)
    space = Space.of_dim(12)
    vectors = [space.basis_vector(k) for k in range(12)]
    for cls in (AltMap, MultiMap):
        empty = cls.zero(space, 12)
        assert empty.apply(vectors) == [0] * 12
        with pytest.raises(ShapeError):
            empty.apply(vectors[1:])


def test_public_constructors_reject_bad_keys():
    one = Fraction(1)
    for cls in (MultiMap, AltMap):
        with pytest.raises(ShapeError):
            cls(S2, 2, {((0,), 1): one})            # key arity != map arity
        with pytest.raises(ShapeError):
            cls(S2, 1, {((2,), 0): one})            # argument index out of range
        with pytest.raises(ShapeError):
            cls(S2, 1, {((0,), 2): one})            # output index out of range
        with pytest.raises(ShapeError):
            cls(S2, 1, {((-1,), 0): one})
    with pytest.raises(ShapeError):
        AltMap(S3, 2, {((1, 1), 0): one})           # repeated index
    with pytest.raises(ShapeError):
        AltMap(S3, 3, {((0, 2, 1), 0): one})        # not increasing
